"""Timestamp-ordering rules against a hand-coded decision table."""

import pytest

from stmlib import (
    AbortReason,
    BenchConfig,
    Engine,
    HistoryRecorder,
    TransactionAborted,
    run_benchmark,
)
from stmlib.core import Transaction
from stmlib.oracle import READ
from stmlib.protocols import make_backend
from stmlib.protocols.bto import BtoBackend


def rule_read(ts, max_read, max_write):
    """Read admission: refuse iff ts < max_write."""
    if ts < max_write:
        return "abort", max_read, max_write
    return "ok", max(max_read, ts), max_write


def rule_commit(ts, max_read, max_write):
    """Commit validation: refuse iff ts < max_write or ts < max_read."""
    if ts < max_write or ts < max_read:
        return "abort", max_read, max_write
    return "ok", max_read, ts


def rigged_backend(max_read, max_write):
    backend = BtoBackend()
    backend.attach(Engine("bto"))
    backend.seed(1, "v0")
    entry = backend._store[1]
    entry.max_read = max_read
    entry.max_write = max_write
    return backend


def drive_read(backend, ts):
    txn = Transaction(ts)
    try:
        backend.on_read(txn, 1)
        return "ok"
    except TransactionAborted as refusal:
        assert refusal.reason is AbortReason.STALE_READ
        return "abort"


def drive_commit(backend, ts):
    txn = Transaction(ts)
    txn.write_set[1] = "v1"
    reason = backend.commit(txn)
    if reason is None:
        return "ok"
    assert reason is AbortReason.STALE_WRITE
    return "abort"


def stamp_space():
    for ts in range(5):
        for max_read in range(5):
            for max_write in range(5):
                yield ts, max_read, max_write


def test_read_rule_exhaustive():
    for ts, max_read, max_write in stamp_space():
        backend = rigged_backend(max_read, max_write)
        verdict = drive_read(backend, ts)
        expect, want_read, want_write = rule_read(ts, max_read, max_write)
        meta = backend.object_meta(1)
        assert (verdict, meta["max_read"], meta["max_write"]) == \
            (expect, want_read, want_write), (ts, max_read, max_write)


def test_commit_rule_exhaustive():
    for ts, max_read, max_write in stamp_space():
        backend = rigged_backend(max_read, max_write)
        verdict = drive_commit(backend, ts)
        expect, want_read, want_write = rule_commit(ts, max_read, max_write)
        meta = backend.object_meta(1)
        assert (verdict, meta["max_read"], meta["max_write"]) == \
            (expect, want_read, want_write), (ts, max_read, max_write)
        if verdict == "ok":
            assert meta["value"] == "v1" and meta["writer_ts"] == ts
        else:
            assert meta["value"] == "v0"


def test_read_rule_worked_examples():
    assert drive_read(rigged_backend(0, 9), 4) == "abort"
    backend = rigged_backend(3, 2)
    assert drive_read(backend, 5) == "ok"
    assert backend.object_meta(1)["max_read"] == 5


def test_max_read_keeps_the_maximum():
    backend = rigged_backend(0, 0)
    drive_read(backend, 5)
    drive_read(backend, 4)  # older reader arrives late
    assert backend.object_meta(1)["max_read"] == 5


def test_reader_at_max_write_is_admitted_through_engine_read():
    # stamps are unique, so no run reads at ts == max_write; the rule
    # admits such a reader and bumps max_read
    rec = HistoryRecorder()
    eng = Engine("bto", recorder=rec)
    oid = eng.seed_object("v0")
    eng.backend._store[oid].install(3, "v3")
    for _ in range(2):
        eng.abort(eng.begin())
    reader = eng.begin()
    assert reader.ts == 3
    assert eng.read(reader, oid) == "v3"
    meta = eng.object_meta(oid)
    assert (meta["max_read"], meta["max_write"]) == (3, 3)
    assert [e.version_ts for e in rec.history().events if e.kind == READ] == [3]


def rig_refusal(backend, oid, ts):
    """Make a commit at ts refuse to write oid."""
    if isinstance(backend, BtoBackend):
        backend._store[oid].max_write = ts + 2
    else:
        # a younger reader saw the predecessor
        backend.on_read(Transaction(ts + 2), oid)
        assert backend.object_meta(oid)["max_readers"] == [ts + 2]


@pytest.mark.parametrize("protocol, reason", [
    ("bto", AbortReason.STALE_WRITE),
    ("mvto", AbortReason.OBSOLETE_VERSION),
], ids=["bto", "mvto"])
def test_commit_validation_is_all_or_nothing(protocol, reason):
    backend = make_backend(protocol)
    backend.attach(Engine(protocol))
    backend.seed(1, "x0")
    backend.seed(2, "y0")
    backend.seed(3, "z0")
    rig_refusal(backend, 2, 5)
    before = {oid: backend.object_meta(oid) for oid in (1, 2, 3)}
    txn = Transaction(5)
    txn.write_set[1] = "x1"
    txn.write_set[2] = "y1"
    txn.write_set[3] = "z1"
    txn.write_set[4] = "fresh"
    assert backend.commit(txn) is reason
    assert {oid: backend.object_meta(oid) for oid in (1, 2, 3)} == before
    assert backend.object_count() == 3  # the fresh object was not created
    assert not any(entry.lock.locked() for entry in backend._store.values())


def test_lost_update_schedule_aborts_the_late_writer():
    eng = Engine("bto")
    oid = eng.seed_object(0)
    t1 = eng.begin()
    t2 = eng.begin()
    eng.read(t1, oid)
    eng.read(t2, oid)
    eng.write(t1, oid, 1)
    eng.write(t2, oid, 2)
    assert eng.commit(t2).committed  # younger stamp passes both checks
    result = eng.commit(t1)
    assert not result.committed and result.reason is AbortReason.STALE_WRITE
    assert eng.read_committed(oid) == 2


def test_never_reads_a_younger_writer():
    cfg = BenchConfig(protocol="bto", threads=4, ops=300, key_lo=1, key_hi=8,
                      seed=5, record_history=True)
    report = run_benchmark(cfg)
    assert report.serializable and report.replay_ok
    reads = [e for e in report.history.events if e.kind == READ]
    assert reads, "workload produced no reads"
    assert all(e.version_ts < e.ts for e in reads)


def test_max_write_reflects_last_committer():
    eng = Engine("bto")
    oid = eng.seed_object(0)
    for expect in (1, 2, 3):
        txn = eng.begin()
        eng.read(txn, oid)
        eng.write(txn, oid, expect)
        assert eng.commit(txn).committed
        meta = eng.object_meta(oid)
        assert meta["max_write"] == txn.ts >= expect
