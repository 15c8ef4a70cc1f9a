"""Engine lifecycle: timestamps, local logs, status transitions."""

import importlib.util
import threading
from pathlib import Path

import pytest

from stmlib import (
    AbortReason,
    Engine,
    HistoryRecorder,
    NotFound,
    NoVisibleVersion,
    TransactionAborted,
    TransactionalSet,
    TxnNotLive,
    TxnStatus,
    run_op,
)
from stmlib.oracle import ABORT, COMMIT, READ, WRITE

TRACER = Path(__file__).resolve().parent.parent / "stmperf" / "tracer.py"


def test_timestamps_strictly_increase_from_one(protocol):
    eng = Engine(protocol)
    stamps = [eng.begin().ts for _ in range(5)]
    assert stamps == [1, 2, 3, 4, 5]


def test_timestamps_unique_across_threads(protocol):
    eng = Engine(protocol)
    out = []
    lock = threading.Lock()

    def hammer():
        local = [eng.begin().ts for _ in range(200)]
        with lock:
            out.extend(local)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(out) == len(set(out)) == 800


def test_seed_objects_have_stamp_zero(protocol):
    eng = Engine(protocol)
    oid = eng.seed_object("init")
    assert oid == 1
    assert eng.read_committed(oid) == "init"
    assert eng.object_meta(oid)["writer_ts"] == 0


def test_read_your_own_write(protocol):
    eng = Engine(protocol)
    oid = eng.seed_object(10)
    txn = eng.begin()
    assert eng.read(txn, oid) == 10
    eng.write(txn, oid, 11)
    assert eng.read(txn, oid) == 11  # write_set shadows the store
    assert eng.commit(txn).committed


def test_first_read_is_cached(protocol):
    eng = Engine(protocol)
    oid = eng.seed_object(1)
    t1 = eng.begin()
    assert eng.read(t1, oid) == 1
    t2 = eng.begin()
    eng.write(t2, oid, 2)
    assert eng.commit(t2).committed
    # t1 keeps its first-read snapshot regardless of t2's publication
    assert eng.read(t1, oid) == 1


def test_commit_publishes_all_or_nothing(protocol):
    eng = Engine(protocol)
    a = eng.seed_object(1)
    b = eng.seed_object(2)
    txn = eng.begin()
    eng.write(txn, a, 10)
    eng.write(txn, b, 20)
    assert eng.commit(txn).committed
    assert eng.read_committed(a) == 10
    assert eng.read_committed(b) == 20


def test_abort_discards_writes(protocol):
    eng = Engine(protocol)
    oid = eng.seed_object(1)
    txn = eng.begin()
    eng.write(txn, oid, 99)
    eng.abort(txn)
    assert txn.status is TxnStatus.ABORTED
    assert eng.read_committed(oid) == 1


def test_terminated_txn_rejects_operations(protocol):
    eng = Engine(protocol)
    oid = eng.seed_object(1)
    txn = eng.begin()
    assert eng.commit(txn).committed
    assert txn.status is TxnStatus.COMMITTED
    for call in (lambda: eng.read(txn, oid),
                 lambda: eng.write(txn, oid, 5),
                 lambda: eng.commit(txn),
                 lambda: eng.abort(txn)):
        with pytest.raises(TxnNotLive):
            call()


@pytest.mark.parametrize("end", ["commit", "abort"])
def test_a_read_on_a_terminated_transaction_changes_nothing(protocol, end):
    rec = HistoryRecorder()
    eng = Engine(protocol, recorder=rec)
    seen = eng.seed_object(1)
    unseen = eng.seed_object(2)
    txn = eng.begin()
    eng.read(txn, seen)
    getattr(eng, end)(txn)
    status = txn.status
    events = rec.history().events
    for oid in (seen, unseen, 404, [1]):
        with pytest.raises(TxnNotLive):
            eng.read(txn, oid)
    assert txn.status is status
    assert txn.read_set == {seen: 1}
    assert rec.history().events == events
    assert [e.kind for e in events].count(ABORT) == (end == "abort")


def test_read_is_the_backends_on_read_after_shadowing(protocol):
    eng = Engine(protocol)
    a = eng.seed_object("a")
    b = eng.seed_object("b")
    assert eng.read == eng.backend.on_read
    calls = []

    def counting(txn, oid):
        calls.append(oid)
        return eng.backend.on_read(txn, oid)

    eng.read = counting  # what a tracing wrapper does
    txn = eng.begin()
    assert eng.read(txn, a) == "a"
    assert calls == [a]
    del eng.read
    assert eng.read == eng.backend.on_read
    assert eng.read(txn, b) == "b"
    assert calls == [a]
    assert txn.read_set == {a: "a", b: "b"}
    assert eng.commit(txn).committed


def test_tracer_install_and_undo_leave_the_one_frame_read(protocol):
    spec = importlib.util.spec_from_file_location("stmperf_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    eng = Engine(protocol)
    tset = TransactionalSet(eng)
    for value in (3, 1, 2):
        run_op(eng, tset, "add", value)
    tracer = tracer_module.Tracer()
    undo = tracer_module.install(tracer, protocol, eng, None)
    assert eng.read != eng.backend.on_read
    txn = eng.begin()
    assert tset.snapshot(txn) == [1, 2, 3]  # head, three members, tail
    assert eng.commit(txn).committed
    undo()
    assert tracer.spans()["engine.read"][0] == 5
    assert eng.read == eng.backend.on_read
    txn = eng.begin()
    assert tset.snapshot(txn) == [1, 2, 3]
    assert eng.commit(txn).committed
    assert tracer.spans()["engine.read"][0] == 5  # nothing traced after undo


def test_read_unknown_object(protocol):
    eng = Engine(protocol)
    txn = eng.begin()
    with pytest.raises(NotFound):
        eng.read(txn, 404)
    assert txn.status is TxnStatus.ABORTED
    assert eng.min_active_ts() == txn.ts + 1  # nothing left live


@pytest.mark.parametrize("writes", [False, True], ids=["no-writes", "writes"])
@pytest.mark.parametrize("oid", [[1], {}], ids=["list", "dict"])
def test_read_of_an_unhashable_id_retires_the_transaction(protocol, oid, writes):
    eng = Engine(protocol)
    seeded = eng.seed_object(0)
    txn = eng.begin()
    if writes:
        eng.write(txn, seeded, 1)
    with pytest.raises(TypeError):
        eng.read(txn, oid)
    assert txn.status is TxnStatus.ABORTED
    assert eng.min_active_ts() == txn.ts + 1  # nothing left live


@pytest.mark.parametrize("oid", [3, 0, "x"])
def test_write_to_an_id_never_handed_out(protocol, oid):
    eng = Engine(protocol)
    seeded = eng.seed_object("seed")
    txn = eng.begin()
    eng.write(txn, seeded, "mine")
    with pytest.raises(NotFound):
        eng.write(txn, oid, "stray")
    assert txn.status is TxnStatus.ABORTED
    assert eng.min_active_ts() == txn.ts + 1  # nothing left live
    assert eng.read_committed(seeded) == "seed"
    assert eng.object_count() == 1
    fresh = [eng.new_object_id() for _ in range(3)]
    assert fresh == [2, 3, 4]
    txn = eng.begin()
    eng.write(txn, fresh[1], "mine")
    assert eng.commit(txn).committed
    assert eng.read_committed(fresh[1]) == "mine"


def test_store_lookups_of_an_unknown_id_raise_not_found(protocol):
    eng = Engine(protocol)
    seeded = [eng.seed_object(v) for v in ("a", "b")]
    unwritten = eng.new_object_id()  # handed out, never committed
    assert eng.object_count() == 2
    for oid in (0, unwritten, unwritten + 1):
        with pytest.raises(NotFound):
            eng.read_committed(oid)
        with pytest.raises(NotFound):
            eng.object_meta(oid)
    assert [eng.read_committed(oid) for oid in seeded] == ["a", "b"]
    assert eng.object_meta(seeded[0])["writer_ts"] == 0
    assert eng.object_count() == 2
    backend = eng.backend
    for entry in backend._store.values():
        assert entry.lock.locked() is False
        if protocol == "sgt":
            assert entry.lock is backend._glock is backend._store_lock


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        Engine("2pl")


def test_default_gc_periods():
    """Automatic passes run on the transaction clock: one where a
    transaction ends, committed or aborted, whose stamp is a multiple of
    the backend's period.  The period is 1 stamp for sgt and 256 for
    mvto; bto has none."""
    expected = {"bto": [], "sgt": list(range(1, 602)), "mvto": [256, 512]}
    for protocol, after in expected.items():
        eng = Engine(protocol)
        oid = eng.seed_object(0)
        passes = []  # the stamp of the ending transaction at each automatic pass
        eng.collect = lambda: passes.append(txn.ts)
        for _ in range(600):
            txn = eng.begin()
            eng.write(txn, oid, txn.ts)
            assert eng.commit(txn).committed
        txn = eng.begin()
        eng.write(txn, oid, -1)
        eng.abort(txn)  # stamp 601: an abort ends a transaction too
        assert passes == after, protocol
    # mvto: stamp 256 runs the pass even when that transaction aborts
    eng = Engine("mvto")
    oid = eng.seed_object(0)
    passes = []
    eng.collect = lambda: passes.append(txn.ts)
    for _ in range(255):
        txn = eng.begin()
        eng.write(txn, oid, txn.ts)
        assert eng.commit(txn).committed
    txn = eng.begin()
    assert txn.ts == 256
    eng.abort(txn)
    assert passes == [256]


def test_min_active_ts_tracks_live_set(protocol):
    eng = Engine(protocol)
    assert eng.min_active_ts() == 1  # nothing live: next stamp
    t1 = eng.begin()
    t2 = eng.begin()
    assert eng.min_active_ts() == t1.ts
    eng.abort(t1)
    assert eng.min_active_ts() == t2.ts
    eng.commit(t2)
    assert eng.min_active_ts() == 3


def test_recorder_sees_the_expected_events(protocol):
    rec = HistoryRecorder()
    eng = Engine(protocol, recorder=rec)
    oid = eng.seed_object(5)
    txn = eng.begin()
    eng.read(txn, oid)
    eng.write(txn, oid, 6)
    assert eng.commit(txn).committed
    loser = eng.begin()
    eng.abort(loser)
    kinds = [e.kind for e in rec.history().events]
    assert kinds == [READ, WRITE, COMMIT, ABORT]
    read = rec.history().events[0]
    assert read.oid == oid and read.version_ts == 0
    # write skew: each reads what the other writes, so one commit is
    # refused (the first under bto and mvto, the second under sgt) and
    # records an ABORT but no WRITE
    x, y = eng.seed_object(0), eng.seed_object(0)
    t1, t2 = eng.begin(), eng.begin()
    eng.read(t1, x)
    eng.read(t2, y)
    eng.write(t1, y, 1)
    eng.write(t2, x, 1)
    committed = [eng.commit(t1).committed, eng.commit(t2).committed]
    if protocol == "sgt":
        assert committed == [True, False]
        tail = [(t1.ts, WRITE, y), (t1.ts, COMMIT, 0), (t2.ts, ABORT, 0)]
    else:
        assert committed == [False, True]
        tail = [(t1.ts, ABORT, 0), (t2.ts, WRITE, x), (t2.ts, COMMIT, 0)]
    events = [(e.txn, e.kind, e.oid) for e in rec.history().events[4:]]
    assert events == [(t1.ts, READ, x), (t2.ts, READ, y)] + tail


def test_commit_result_carries_reason():
    # scripted BTO stale write: reader with larger stamp blocks the commit
    eng = Engine("bto")
    oid = eng.seed_object(1)
    writer = eng.begin()
    eng.read(writer, oid)
    eng.write(writer, oid, 2)
    reader = eng.begin()
    eng.read(reader, oid)  # max_read is now reader.ts > writer.ts
    result = eng.commit(writer)
    assert not result.committed
    assert result.reason is AbortReason.STALE_WRITE
    assert writer.status is TxnStatus.ABORTED


def test_read_refusal_aborts_immediately():
    eng = Engine("bto")
    oid = eng.seed_object(1)
    stale = eng.begin()
    writer = eng.begin()
    eng.write(writer, oid, 2)
    assert eng.commit(writer).committed
    with pytest.raises(TransactionAborted) as info:
        eng.read(stale, oid)
    assert info.value.reason is AbortReason.STALE_READ
    assert stale.status is TxnStatus.ABORTED


class _FailingRecorder(HistoryRecorder):
    def record_read(self, txn, oid, observed_ts):
        raise RuntimeError("recorder failed")


def _stale_read(eng):
    oid = eng.seed_object(1)
    stale = eng.begin()
    writer = eng.begin()
    eng.write(writer, oid, 2)
    assert eng.commit(writer).committed
    return stale, oid


def _no_visible_version(eng):
    reader = eng.begin()
    writer = eng.begin()
    oid = eng.new_object_id()
    eng.write(writer, oid, 1)
    assert eng.commit(writer).committed  # the object's only version is younger
    return reader, oid


def _read_closing_a_cycle(eng):
    a = eng.seed_object(0)
    b = eng.seed_object(0)
    reader = eng.begin()
    writer = eng.begin()
    eng.read(reader, a)
    eng.write(writer, a, 1)
    eng.write(writer, b, 1)
    assert eng.commit(writer).committed  # reader -> writer
    return reader, b  # writer -> reader closes the cycle


def _unknown_object(eng):
    return eng.begin(), 404


def _any_read(eng):
    oid = eng.seed_object(0)
    return eng.begin(), oid


@pytest.mark.parametrize("protocol, setup, recorder, raised, reason", [
    ("bto", _stale_read, None, TransactionAborted, AbortReason.STALE_READ),
    ("bto", _any_read, _FailingRecorder, RuntimeError, None),
    ("mvto", _no_visible_version, None, NoVisibleVersion, None),
    ("mvto", _any_read, _FailingRecorder, RuntimeError, None),
    ("sgt", _read_closing_a_cycle, None, TransactionAborted, AbortReason.CYCLE_DETECTED),
    ("sgt", _unknown_object, None, NotFound, None),
    ("sgt", _any_read, _FailingRecorder, RuntimeError, None),
], ids=["bto-stale-read", "bto-recorder-raises", "mvto-no-visible-version",
        "mvto-recorder-raises", "sgt-cycle", "sgt-not-found", "sgt-recorder-raises"])
def test_a_raising_read_releases_its_lock(protocol, setup, recorder, raised, reason):
    eng = Engine(protocol, recorder=recorder() if recorder else None)
    case = []

    def run():
        txn, oid = setup(eng)
        case.append((txn, oid))
        try:
            eng.read(txn, oid)
        except Exception as exc:
            case.append(exc)

    # sgt retires a refused reader under the graph lock, so a leaked
    # lock hangs this thread rather than failing an assertion
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    (txn, oid), exc = case
    backend = eng.backend
    lock = backend._glock if protocol == "sgt" else backend._store[oid].lock
    assert type(exc) is raised
    assert getattr(exc, "reason", None) is reason
    assert lock.locked() is False
    assert txn.status is TxnStatus.ABORTED
    assert eng.min_active_ts() > txn.ts


class _CommitFailingRecorder(HistoryRecorder):
    failing = True

    def record_commit(self, txn, writes=()):
        if self.failing:
            raise RuntimeError("recorder failed")
        super().record_commit(txn, writes)


@pytest.mark.parametrize("writes", [True, False], ids=["writing", "read-only"])
def test_a_raising_commit_publishes_nothing_and_retires(protocol, writes):
    rec = _CommitFailingRecorder()
    eng = Engine(protocol, recorder=rec)
    oid = eng.seed_object("old")
    txn = eng.begin()
    assert eng.read(txn, oid) == "old"
    if writes:
        eng.write(txn, oid, "new")
    with pytest.raises(RuntimeError, match="recorder failed"):
        eng.commit(txn)
    assert txn.status is TxnStatus.ABORTED
    assert eng.min_active_ts() > txn.ts
    assert eng.read_committed(oid) == "old"
    assert not [e for e in rec.history().events
                if e.kind in (WRITE, COMMIT) and e.txn == txn.ts]
    backend = eng.backend
    assert backend._store_lock.locked() is False
    assert not any(entry.lock.locked() for entry in backend._store.values())
    rec.failing = False
    fresh = eng.begin()
    eng.write(fresh, oid, "fresh")
    assert eng.commit(fresh).committed
    assert eng.read_committed(oid) == "fresh"
