"""Multiversion rules against shadow simulators and replay oracles."""

import random
import threading
from bisect import insort

import pytest
from conftest import keep_resident, random_script, scan_version, scripted_outcomes
from hypothesis import given, settings
from hypothesis import strategies as st

from stmlib import (
    AbortReason,
    BenchConfig,
    Engine,
    HistoryRecorder,
    NoVisibleVersion,
    TxnStatus,
    run_benchmark,
)
from stmlib.core import Transaction
from stmlib.oracle import COMMIT, READ, WRITE
from stmlib.protocols import mvto
from stmlib.protocols.mvto import MvtoBackend, _Chain, version_index


def fresh_engine(n_objects=3):
    """An mvto engine with n seeded objects and no automatic collection."""
    eng = keep_resident(Engine("mvto"))
    for _ in range(n_objects):
        eng.seed_object(0)
    return eng


def eager_engine(n_objects=3):
    """fresh_engine, with a collection pass after every commit."""
    eng = fresh_engine(n_objects)

    def commit_and_collect(txn):
        result = Engine.commit(eng, txn)
        if result.committed:
            Engine.collect(eng)
        return result

    eng.commit = commit_and_collect
    return eng


def begin_until(eng, ts):
    """Burn stamps so the next begin returns exactly ts."""
    while True:
        txn = eng.begin()
        if txn.ts == ts:
            return txn
        assert txn.ts < ts, "stamp target already passed"
        eng.abort(txn)


class ShadowMvto:
    """Linear-scan re-implementation of the version rules."""

    def __init__(self, n_objects):
        self.chains = {oid: [[0, 0]] for oid in range(1, n_objects + 1)}

    def read(self, ts, oid):
        best = None
        for version in self.chains[oid]:
            if version[0] < ts and (best is None or version[0] > best[0]):
                best = version
        best[1] = max(best[1], ts)
        return best[0]

    def commit(self, ts, write_oids):
        for oid in write_oids:
            pred = None
            for version in self.chains[oid]:
                if version[0] < ts and (pred is None or version[0] > pred[0]):
                    pred = version
            if pred is not None and pred[1] > ts:
                return "abort"
        for oid in write_oids:
            self.chains[oid].append([ts, 0])
            self.chains[oid].sort()
        return "commit"


def test_version_selection_examples():
    eng = fresh_engine(1)
    oid = 1
    for writer_ts in (3, 7):
        txn = begin_until(eng, writer_ts)
        eng.write(txn, oid, f"v{writer_ts}")
        assert eng.commit(txn).committed
    # chain stamps now [0, 3, 7]
    reader = begin_until(eng, 8)
    assert eng.read(reader, oid) == "v7"
    eng.abort(reader)
    late = begin_until(eng, 9)
    eng.abort(late)
    meta = eng.object_meta(oid)
    assert meta["stamps"] == [0, 3, 7]
    assert meta["max_readers"][2] >= 8


def test_reader_between_stamps_and_bump():
    backend = MvtoBackend()
    backend.attach(Engine("mvto"))
    backend.seed(1, "v0")
    chain = backend._store[1]
    chain.install(3, "v3")
    chain.install(7, "v7")
    assert backend.object_meta(1)["stamps"] == [0, 3, 7]
    assert backend.on_read(Transaction(5), 1) == "v3"
    assert backend.object_meta(1)["max_readers"] == [0, 5, 0]


def test_reader_at_a_version_stamp_reads_the_version_below_it():
    # version_index takes the newest stamp strictly below the reader's,
    # for an older version and for the newest one alike
    rec = HistoryRecorder()
    eng = keep_resident(Engine("mvto", recorder=rec))
    oid = eng.new_object_id()
    chain = eng.backend.entry_type(0, "v0")
    for stamp in (3, 5, 7):
        chain.install(stamp, f"v{stamp}")
    eng.backend._store[oid] = chain
    assert eng.read(begin_until(eng, 5), oid) == "v3"
    assert eng.read(begin_until(eng, 7), oid) == "v5"
    meta = eng.object_meta(oid)
    assert meta["stamps"] == [0, 3, 5, 7]
    assert meta["max_readers"] == [0, 5, 7, 0]
    assert [e.version_ts for e in rec.history().events if e.kind == READ] == [3, 5]


def test_writer_aborts_under_a_younger_reader():
    # version at stamp 2 already read by stamp 9; a writer at 5 arrives late
    eng = fresh_engine(1)
    writer2 = begin_until(eng, 2)
    eng.write(writer2, 1, "v2")
    assert eng.commit(writer2).committed
    writer5 = begin_until(eng, 5)
    reader9 = begin_until(eng, 9)
    assert eng.read(reader9, 1) == "v2"
    eng.write(writer5, 1, "v5")
    result = eng.commit(writer5)
    assert not result.committed
    assert result.reason is AbortReason.OBSOLETE_VERSION
    assert eng.object_meta(1)["stamps"] == [0, 2]
    eng.abort(reader9)


def test_writer_passes_without_a_younger_reader():
    eng = fresh_engine(1)
    writer2 = begin_until(eng, 2)
    eng.write(writer2, 1, "v2")
    assert eng.commit(writer2).committed
    reader4 = begin_until(eng, 4)
    assert eng.read(reader4, 1) == "v2"
    eng.abort(reader4)
    writer5 = begin_until(eng, 5)
    eng.write(writer5, 1, "v5")
    assert eng.commit(writer5).committed
    assert eng.object_meta(1)["stamps"] == [0, 2, 5]


def test_late_writer_inserts_between_existing_stamps():
    # stamps only move forward, so open every actor before any commits
    eng = fresh_engine(1)
    writer5 = begin_until(eng, 5)
    reader6 = begin_until(eng, 6)
    writer7 = begin_until(eng, 7)
    eng.write(writer7, 1, "v7")
    assert eng.commit(writer7).committed
    eng.write(writer5, 1, "v5")
    assert eng.commit(writer5).committed
    meta = eng.object_meta(1)
    assert meta["stamps"] == [0, 5, 7]
    assert meta["values"] == [0, "v5", "v7"]
    # the reader between the stamps sees the interposed version
    assert eng.read(reader6, 1) == "v5"
    eng.abort(reader6)


def test_no_visible_version_is_defensive():
    backend = MvtoBackend()
    backend.attach(Engine("mvto"))
    backend._store[1] = _Chain(9, "v9")
    assert backend.object_meta(1)["stamps"] == [9]
    with pytest.raises(NoVisibleVersion):
        backend.on_read(Transaction(5), 1)


def test_no_visible_version_retires_the_reader():
    eng = fresh_engine(1)
    eng.backend._store[1] = _Chain(9, "v9")
    assert eng.object_meta(1)["stamps"] == [9]
    reader = begin_until(eng, 5)
    with pytest.raises(NoVisibleVersion):
        eng.read(reader, 1)
    assert reader.status is TxnStatus.ABORTED
    assert eng.min_active_ts() == 6


def test_random_scripts_match_shadow_rules():
    rng = random.Random(41)
    for _ in range(60):
        eng = fresh_engine(3)
        shadow = ShadowMvto(3)
        writes = {}
        reads_cache = {}
        txns = {}
        for slot, action, oid in random_script(rng, steps=50):
            txn = txns.get(slot)
            if txn is None or txn.status.value != "live":
                txn = txns[slot] = eng.begin()
                writes[txn.ts] = set()
                reads_cache[txn.ts] = {}
            if action == "commit":
                got = "commit" if eng.commit(txn).committed else "abort"
                want = shadow.commit(txn.ts, sorted(writes[txn.ts]))
                assert got == want
                continue
            value = eng.read(txn, oid)
            if oid in writes[txn.ts]:
                want_value = txn.ts  # own deferred write shadows the store
            elif oid in reads_cache[txn.ts]:
                want_value = reads_cache[txn.ts][oid]
            else:
                want_value = shadow.read(txn.ts, oid)
                reads_cache[txn.ts][oid] = want_value
            assert value == want_value
            if action == "write":
                eng.write(txn, oid, txn.ts)
                writes[txn.ts].add(oid)
        for txn in txns.values():
            if txn.status.value == "live":
                eng.abort(txn)


def test_read_only_transactions_never_abort():
    eng = fresh_engine(2)
    stop = False
    import threading

    def churn():
        rng = random.Random(3)
        while not stop:
            txn = eng.begin()
            try:
                oid = rng.randint(1, 2)
                eng.read(txn, oid)
                eng.write(txn, oid, txn.ts)
                eng.commit(txn)
            except Exception:
                pass

    writer = threading.Thread(target=churn)
    writer.start()
    try:
        for _ in range(2000):
            txn = eng.begin()
            eng.read(txn, 1)
            eng.read(txn, 2)
            assert eng.commit(txn).committed
    finally:
        stop = True
        writer.join()


def test_reader_never_sees_younger_version():
    cfg = BenchConfig(protocol="mvto", threads=4, ops=300, key_lo=1, key_hi=8,
                      seed=13, record_history=True)
    report = run_benchmark(cfg)
    assert report.serializable and report.replay_ok
    for e in report.history.events:
        if e.kind == READ:
            assert e.version_ts < e.ts


def test_chains_stay_sorted_after_concurrency():
    import threading

    eng = fresh_engine(4)

    def churn(seed):
        rng = random.Random(seed)
        for _ in range(300):
            txn = eng.begin()
            try:
                oid = rng.randint(1, 4)
                eng.read(txn, oid)
                eng.write(txn, oid, txn.ts)
                eng.commit(txn)
            except Exception:
                pass

    threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for oid in range(1, 5):
        stamps = eng.object_meta(oid)["stamps"]
        assert stamps == sorted(set(stamps)), f"object {oid} chain corrupt"
        assert len(stamps) > 1, "churn never grew the chain"


def test_committed_decisions_match_event_log_replay():
    """Re-derive the writer admission rule from the event log."""
    cfg = BenchConfig(protocol="mvto", threads=4, ops=400, key_lo=1, key_hi=6,
                      seed=29, record_history=True)
    report = run_benchmark(cfg)
    events = report.history.events
    write_sets = {}
    for e in events:
        if e.kind == WRITE:
            write_sets.setdefault(e.txn, set()).add(e.oid)
    versions = {}  # oid -> sorted committed stamps (0 implicit for seeds)
    readers = {}  # (oid, version_ts) -> max reader ts seen so far
    for e in events:
        if e.kind == READ:
            key = (e.oid, e.version_ts)
            if e.ts > readers.get(key, 0):
                readers[key] = e.ts
        elif e.kind == COMMIT and e.txn in write_sets:
            for oid in write_sets[e.txn]:
                chain = versions.setdefault(oid, [0])
                pred = 0
                for stamp in chain:
                    if stamp < e.ts:
                        pred = stamp
                assert readers.get((oid, pred), 0) <= e.ts, (
                    f"txn {e.txn} committed over a younger reader of "
                    f"object {oid} version {pred}"
                )
                insort(chain, e.ts)


def test_gc_prunes_to_the_newest_covered_version():
    eng = fresh_engine(1)
    for writer_ts in (3, 7):
        txn = begin_until(eng, writer_ts)
        eng.write(txn, 1, f"v{writer_ts}")
        assert eng.commit(txn).committed
    # chain [0, 3, 7]: stamp 3 is the newest one visible below 5
    pruned = eng.backend.collect(5)
    assert pruned == 1
    assert eng.object_meta(1)["stamps"] == [3, 7]
    assert eng.backend.collect(5) == 0


def test_gc_keeps_singleton_chains():
    eng = fresh_engine(1)
    assert eng.backend.collect(100) == 0
    assert eng.object_meta(1)["stamps"] == [0]


def test_gc_never_changes_decisions():
    rng = random.Random(47)
    for _ in range(40):
        script = random_script(rng)
        with_gc = scripted_outcomes(eager_engine(3), script)
        without_gc = scripted_outcomes(fresh_engine(3), script)
        assert with_gc == without_gc, script


def test_gc_prunes_a_chain_once_the_transaction_pinning_it_ends():
    eng = fresh_engine(1)
    old = eng.begin()
    for _ in range(3):
        txn = eng.begin()
        eng.write(txn, 1, txn.ts)
        assert eng.commit(txn).committed
    assert Engine.collect(eng) == 0  # old pins min_active_ts below every new version
    assert len(eng.object_meta(1)["stamps"]) == 4
    eng.abort(old)
    assert Engine.collect(eng) == 3  # the pinned pass put the chain back
    assert eng.object_meta(1)["stamps"] == [4]
    assert Engine.collect(eng) == 0


class AllVersionsChain:
    """The chain before the newest version got its own slots: every
    version in one sorted list, found with `version_index` on each use."""

    def __init__(self, stamp, value):
        self.lock = threading.Lock()
        self.stamps = [stamp]
        self.values = [value]
        self.max_readers = [0]

    def admits(self, ts):
        i = version_index(self.stamps, ts)
        return i < 0 or self.max_readers[i] <= ts

    def install(self, ts, value):
        i = version_index(self.stamps, ts) + 1
        if i < len(self.stamps):
            AllVersionsMvto.older_inserts += 1
        self.stamps.insert(i, ts)
        self.values.insert(i, value)
        self.max_readers.insert(i, 0)


class AllVersionsMvto(MvtoBackend):
    """mvto over AllVersionsChain; a pass visits every chain."""

    entry_type = AllVersionsChain
    older_inserts = 0
    pruned = 0

    def on_read(self, txn, oid):
        if oid in txn.write_set:
            return txn.write_set[oid]
        if oid in txn.read_set:
            return txn.read_set[oid]
        chain = self._store[oid]
        i = version_index(chain.stamps, txn.ts)
        chain.max_readers[i] = max(chain.max_readers[i], txn.ts)
        value = txn.read_set[oid] = chain.values[i]
        return value

    def collect(self, min_active_ts):
        pruned = 0
        for chain in self._store.values():
            i = version_index(chain.stamps, min_active_ts)
            if i > 0:
                del chain.stamps[:i]
                del chain.values[:i]
                del chain.max_readers[:i]
                pruned += i
        AllVersionsMvto.pruned += pruned
        return pruned

    def read_committed(self, oid):
        return self._store[oid].values[-1]

    def object_meta(self, oid):
        chain = self._store[oid]
        return {
            "stamps": list(chain.stamps),
            "values": list(chain.values),
            "max_readers": list(chain.max_readers),
            "writer_ts": chain.stamps[-1],
        }


def all_versions(eng):
    """Swap a freshly seeded engine's backend for AllVersionsMvto."""
    model = AllVersionsMvto()
    model.attach(eng)
    for oid in eng.backend._store:
        model.seed(oid, eng.read_committed(oid))
    eng.backend = model
    return eng


def logged(eng, log):
    """Log each step's read value and, after each step, every object's meta."""
    read, write, commit = eng.read, eng.write, eng.commit
    oids = sorted(eng.backend._store)

    def after(result):
        log.append((result, [eng.object_meta(oid) for oid in oids]))
        return result

    eng.read = lambda txn, oid: after(read(txn, oid))
    eng.write = lambda txn, oid, value: after(write(txn, oid, value))
    eng.commit = lambda txn: after(commit(txn))
    return eng


@pytest.mark.parametrize("make", [fresh_engine, eager_engine], ids=["resident", "eager-gc"])
@pytest.mark.parametrize("blind", [False, True], ids=["read-write", "blind-write"])
def test_chain_layout_matches_the_all_versions_model(make, blind):
    # only a blind write lets an older writer in under a younger one:
    # a younger writer that read the predecessor first refuses it
    AllVersionsMvto.older_inserts = AllVersionsMvto.pruned = 0
    rng = random.Random(53)
    for _ in range(80):
        script = random_script(rng, steps=80, slots=5)
        got, want = [], []
        got_labels = scripted_outcomes(logged(make(3), got), script, blind)
        want_labels = scripted_outcomes(logged(all_versions(make(3)), want), script, blind)
        assert got_labels == want_labels, script
        assert got == want, script
    if blind:
        assert AllVersionsMvto.older_inserts > 0, "no older writer was inserted"
    if make is eager_engine:
        assert AllVersionsMvto.pruned > 0, "no pass pruned a version"


def test_a_read_of_the_newest_version_skips_version_index(monkeypatch):
    calls = []

    def counted(stamps, ts):
        calls.append(ts)
        return version_index(stamps, ts)

    # the module global, as the traced benchmark wraps it
    monkeypatch.setattr(mvto, "version_index", counted)
    eng = fresh_engine(1)
    old = begin_until(eng, 2)
    writer = begin_until(eng, 3)
    eng.write(writer, 1, "v3")
    assert eng.commit(writer).committed
    del calls[:]
    newest = eng.begin()
    assert eng.read(newest, 1) == "v3"
    assert calls == []
    assert eng.read(old, 1) == 0  # the seeded version, older than the newest
    assert calls == [old.ts]
    eng.abort(newest)
    eng.abort(old)


@given(stamps=st.lists(st.integers(0, 120), unique=True, max_size=20).map(sorted),
       ts=st.integers(0, 125))
@settings(max_examples=300)
def test_version_index_matches_scan(stamps, ts):
    assert version_index(stamps, ts) == scan_version(stamps, ts)


def test_version_index_boundaries():
    assert version_index([0], 1) == 0
    assert version_index([0], 0) == -1
    assert version_index([0, 3, 7], 5) == 1
    assert version_index([0, 3, 7], 8) == 2
    assert version_index([0, 3, 7], 3) == 0
    assert version_index([], 10) == -1
