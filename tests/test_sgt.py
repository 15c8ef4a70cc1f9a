"""Conflict-graph behavior: edges, cycle aborts, garbage collection."""

import random

import pytest
from conftest import closure_has_cycle, closure_on_cycle, random_script, scripted_outcomes
from hypothesis import given, settings
from hypothesis import strategies as st

from stmlib import AbortReason, BenchConfig, Engine, TransactionAborted, run_benchmark
from stmlib.protocols.sgt import node_on_cycle

RETAIN = 10**9  # gc period large enough to keep committed nodes around


def graph(eng):
    return eng.backend.graph_snapshot()


def edges(eng):
    return {(a, b) for a, succ in graph(eng).items() for b in succ}


def test_begin_draws_real_time_edges_from_committed():
    eng = Engine("sgt", gc_period=RETAIN)
    t1 = eng.begin()
    assert graph(eng) == {t1.ts: []}
    assert eng.commit(t1).committed
    t2 = eng.begin()
    assert edges(eng) == {(t1.ts, t2.ts)}
    assert eng.commit(t2).committed
    t3 = eng.begin()
    assert edges(eng) == {(t1.ts, t2.ts), (t1.ts, t3.ts), (t2.ts, t3.ts)}


def test_read_with_no_prior_writer_adds_no_edges():
    eng = Engine("sgt", gc_period=RETAIN)
    oid = eng.seed_object(0)
    t1 = eng.begin()
    eng.read(t1, oid)
    assert edges(eng) == set()


def test_read_draws_edge_from_committed_writer():
    eng = Engine("sgt", gc_period=RETAIN)
    oid = eng.seed_object(0)
    t1 = eng.begin()  # begins before t2 commits: no real-time edge
    t2 = eng.begin()
    eng.write(t2, oid, 1)
    assert eng.commit(t2).committed
    eng.read(t1, oid)
    assert (t2.ts, t1.ts) in edges(eng)


def test_cycle_on_read_aborts_and_removes_the_node():
    eng = Engine("sgt", gc_period=RETAIN)
    x = eng.seed_object(0)
    y = eng.seed_object(0)
    t1 = eng.begin()
    eng.read(t1, x)
    t2 = eng.begin()
    eng.write(t2, x, 1)
    eng.write(t2, y, 1)
    assert eng.commit(t2).committed  # readers(x) give edge t1 -> t2
    with pytest.raises(TransactionAborted) as info:
        eng.read(t1, y)  # writer edge t2 -> t1 closes the cycle
    assert info.value.reason is AbortReason.CYCLE_DETECTED
    assert t1.ts not in graph(eng)
    assert t1.ts not in eng.object_meta(x)["readers"]


def test_lost_update_cycle_on_commit():
    eng = Engine("sgt", gc_period=RETAIN)
    oid = eng.seed_object(0)
    t1 = eng.begin()
    t2 = eng.begin()
    eng.read(t1, oid)
    eng.read(t2, oid)
    eng.write(t1, oid, 1)
    eng.write(t2, oid, 2)
    assert eng.commit(t2).committed  # edge t1 -> t2 via readers(oid)
    result = eng.commit(t1)  # writer edge t2 -> t1 would close the cycle
    assert not result.committed
    assert result.reason is AbortReason.CYCLE_DETECTED
    assert t1.ts not in graph(eng)
    assert eng.read_committed(oid) == 2


def test_real_time_edge_enforces_commit_order():
    # Plain conflict edges alone would admit this schedule; the
    # real-time edge from t2 to t3 is what makes it cyclic.
    eng = Engine("sgt", gc_period=RETAIN)
    x = eng.seed_object(0)
    y = eng.seed_object(0)
    t1 = eng.begin()
    eng.read(t1, x)
    t2 = eng.begin()
    eng.write(t2, x, 1)
    assert eng.commit(t2).committed  # t1 -> t2
    t3 = eng.begin()  # real-time edge t2 -> t3
    eng.write(t3, y, 1)
    assert eng.commit(t3).committed
    with pytest.raises(TransactionAborted) as info:
        eng.read(t1, y)  # t3 -> t1 completes t1 -> t2 -> t3 -> t1
    assert info.value.reason is AbortReason.CYCLE_DETECTED


def test_disjoint_writers_commit_with_only_real_time_edges():
    eng = Engine("sgt", gc_period=RETAIN)
    x = eng.seed_object(0)
    y = eng.seed_object(0)
    t1 = eng.begin()
    t2 = eng.begin()
    eng.write(t1, x, 1)
    eng.write(t2, y, 2)
    assert eng.commit(t1).committed
    assert eng.commit(t2).committed
    assert edges(eng) == set()  # concurrent txns: no real-time edges either


def test_read_only_commit_is_retained_until_watch_drains():
    eng = Engine("sgt", gc_period=RETAIN)
    oid = eng.seed_object(0)
    overlap = eng.begin()
    reader = eng.begin()
    eng.read(reader, oid)
    assert eng.commit(reader).committed
    assert eng.collect() == 0  # overlap still live
    assert reader.ts in graph(eng)
    eng.abort(overlap)
    assert eng.collect() == 1
    assert reader.ts not in graph(eng)


def test_gc_examples():
    eng = Engine("sgt", gc_period=RETAIN)
    t1 = eng.begin()
    t2 = eng.begin()
    assert eng.commit(t1).committed  # t2 active at t1's commit
    assert eng.collect() == 0
    eng.commit(t2)
    assert eng.collect() == 2
    assert eng.backend.graph_size() == 0
    assert eng.collect() == 0  # stays empty


def test_quiescence_drains_graph_to_zero():
    eng = Engine("sgt")  # default gc period 1: collect after every commit
    oid = eng.seed_object(0)
    for _ in range(50):
        txn = eng.begin()
        try:
            eng.read(txn, oid)
            eng.write(txn, oid, txn.ts)
        except TransactionAborted:
            continue
        eng.commit(txn)
    eng.collect()
    assert eng.backend.graph_size() == 0


def _seeded(gc_period):
    eng = Engine("sgt", gc_period=gc_period)
    for _ in range(3):
        eng.seed_object(0)
    return eng


def test_gc_never_changes_decisions():
    rng = random.Random(23)
    for _ in range(40):
        script = random_script(rng)
        with_gc = scripted_outcomes(_seeded(1), script)
        without_gc = scripted_outcomes(_seeded(RETAIN), script)
        assert with_gc == without_gc, script


def _steps(eng, script):
    """Run (slot, action, oid) steps, yielding after each one its
    transaction and whether the step committed it."""
    txns = {}
    for slot, action, oid in script:
        txn = txns.get(slot)
        if txn is None or txn.status.value != "live":
            txn = txns[slot] = eng.begin()
        committed = False
        try:
            if action == "read":
                eng.read(txn, oid)
            elif action == "write":
                eng.read(txn, oid)
                eng.write(txn, oid, 1)
            else:
                committed = eng.commit(txn).committed
        except TransactionAborted:
            pass
        yield txn, committed


def test_graph_stays_acyclic_after_every_operation():
    rng = random.Random(31)
    for _ in range(20):
        eng = _seeded(RETAIN)
        for _ in _steps(eng, random_script(rng, steps=40)):
            adj = {n: set(s) for n, s in graph(eng).items()}
            assert not closure_has_cycle(adj)


def test_stress_run_is_serializable_and_drains():
    cfg = BenchConfig(protocol="sgt", threads=4, ops=250, key_lo=1, key_hi=10,
                      seed=19, record_history=True)
    report = run_benchmark(cfg)
    assert report.serializable and report.replay_ok


def test_collect_frees_commits_in_order_once_the_oldest_stamp_passes_their_tag():
    eng = Engine("sgt", gc_period=RETAIN)
    t1 = eng.begin()
    t2 = eng.begin()
    assert eng.commit(t1).committed  # tag 3: t2 began before it
    t3 = eng.begin()
    assert eng.commit(t3).committed  # tag 4
    assert eng.backend.collect(2) == 0
    assert eng.backend.collect(3) == 1  # t1 only; t3's tag is still ahead
    assert set(graph(eng)) == {t2.ts, t3.ts}
    eng.abort(t2)
    assert eng.collect() == 1
    assert eng.backend.graph_size() == 0


@pytest.mark.parametrize("gc_period", [1, 3, RETAIN])
def test_writing_commit_gains_an_in_edge_from_every_resident_reader(gc_period):
    rng = random.Random(59 + gc_period)
    for _ in range(30):
        eng = _seeded(gc_period)
        by_ts = {}
        for txn, committed in _steps(eng, random_script(rng, steps=40)):
            by_ts[txn.ts] = txn
            if not (committed and txn.write_set):
                continue
            for node, succ in graph(eng).items():
                if node != txn.ts and not by_ts[node].read_set.keys().isdisjoint(txn.write_set):
                    assert txn.ts in succ, (node, txn.ts, graph(eng))


def test_retained_reader_is_listed_and_draws_edges_until_freed():
    eng = Engine("sgt", gc_period=RETAIN)
    x = eng.seed_object(0)
    overlap = eng.begin()
    reader = eng.begin()
    writer = eng.begin()
    eng.read(reader, x)
    assert eng.commit(reader).committed
    assert eng.collect() == 0  # overlap keeps the committed reader resident
    assert eng.object_meta(x)["readers"] == [reader.ts]
    eng.write(writer, x, 1)
    assert eng.commit(writer).committed
    assert (reader.ts, writer.ts) in edges(eng)
    eng.abort(overlap)
    assert eng.collect() == 2
    assert eng.object_meta(x)["readers"] == []
    late = eng.begin()
    eng.write(late, x, 2)
    assert eng.commit(late).committed
    assert edges(eng) == set()
    assert eng.object_meta(x)["writers"] == [late.ts]


@given(adj=st.dictionaries(st.integers(0, 7), st.frozensets(st.integers(0, 7), max_size=8),
                           max_size=8),
       start=st.integers(0, 7))
@settings(max_examples=300)
def test_node_on_cycle_matches_closure(adj, start):
    adj = {k: set(v) for k, v in adj.items()}
    assert node_on_cycle(adj, start) == closure_on_cycle(adj, start)


def test_node_on_cycle_examples():
    assert node_on_cycle({1: {1}}, 1)
    assert node_on_cycle({1: {2}, 2: {1}}, 1)
    assert not node_on_cycle({1: {2}, 2: {3}}, 1)
