"""Checker and replay oracles, cross-checked against brute force."""

import gc
import random
import sys
import threading

import pytest
from conftest import (
    brute_force_multiversion_serializable,
    brute_force_serializable,
    history_of,
    random_multiversion_history,
    random_single_version_history,
)

from stmlib import (
    BenchConfig,
    HistoryRecorder,
    IncompleteHistory,
    WitnessInvalid,
    check_conflict_serializability,
    load_trace,
    replay_check,
    run_benchmark,
    save_trace,
)
from stmlib.oracle import ABORT, COMMIT, READ, WRITE, Event, History, OpRecord


def test_lost_update_is_not_serializable():
    # r1(x) r2(x) w1(x) c1 w2(x) c2
    h = history_of([
        (1, READ, 1, 0),
        (2, READ, 1, 0),
        (1, WRITE, 1),
        (1, COMMIT),
        (2, WRITE, 1),
        (2, COMMIT),
    ])
    verdict = check_conflict_serializability(h)
    assert not verdict.serializable
    assert verdict.witness is None
    assert sorted(verdict.cycle) == [1, 2]
    assert not brute_force_serializable(h)


def test_sequential_writers_serialize_in_commit_order():
    h = history_of([
        (1, READ, 1, 0),
        (1, WRITE, 1),
        (1, COMMIT),
        (2, READ, 1, 1),
        (2, WRITE, 1),
        (2, COMMIT),
    ])
    verdict = check_conflict_serializability(h)
    assert verdict.serializable
    assert verdict.witness == [1, 2]


def test_witness_prefers_timestamp_order_when_free():
    h = history_of([
        (3, READ, 3, 0), (3, COMMIT),
        (1, READ, 1, 0), (1, COMMIT),
        (2, READ, 2, 0), (2, COMMIT),
    ])
    verdict = check_conflict_serializability(h)
    assert verdict.witness == [1, 2, 3]


def test_aborted_transactions_leave_no_edges():
    # the aborted writer sits inside the lost-update shape
    h = history_of([
        (1, READ, 1, 0),
        (2, READ, 1, 0),
        (2, WRITE, 1),
        (2, ABORT),
        (1, WRITE, 1),
        (1, COMMIT),
    ])
    verdict = check_conflict_serializability(h)
    assert verdict.serializable
    assert verdict.witness == [1]


def test_unterminated_transaction_is_rejected():
    h = history_of([(1, READ, 1, 0)])
    with pytest.raises(IncompleteHistory):
        check_conflict_serializability(h)


def test_empty_history_is_serializable():
    verdict = check_conflict_serializability(History())
    assert verdict.serializable
    assert verdict.witness == []


def test_graph_checker_matches_brute_force():
    rng = random.Random(2026)
    agree_sat = agree_unsat = 0
    for _ in range(400):
        h = random_single_version_history(rng)
        verdict = check_conflict_serializability(h)
        expected = brute_force_serializable(h)
        assert verdict.serializable == expected
        if expected:
            agree_sat += 1
        else:
            agree_unsat += 1
    # the generator must exercise both verdicts to mean anything
    assert agree_sat > 20 and agree_unsat > 20


def test_multiversion_checker_matches_brute_force():
    rng = random.Random(2027)
    agree_sat = agree_unsat = 0
    for _ in range(400):
        h = random_multiversion_history(rng)
        verdict = check_conflict_serializability(h)
        expected = brute_force_multiversion_serializable(h)
        assert verdict.serializable == expected
        if expected:
            agree_sat += 1
        else:
            agree_unsat += 1
    assert agree_sat > 20 and agree_unsat > 20


def test_witness_replays_every_read():
    rng = random.Random(77)
    checked = 0
    for _ in range(300):
        h = random_single_version_history(rng)
        verdict = check_conflict_serializability(h)
        if not verdict.serializable:
            continue
        reads = {}
        writes = {}
        for e in h.events:
            if e.kind == READ:
                reads.setdefault(e.txn, []).append((e.oid, e.version_ts))
            elif e.kind == WRITE:
                writes.setdefault(e.txn, set()).add(e.oid)
        last = {}
        for txn in verdict.witness:
            for oid, observed in reads.get(txn, ()):
                assert last.get(oid, 0) == observed
            for oid in writes.get(txn, ()):
                last[oid] = txn
        checked += 1
    assert checked > 50


def naive_conflicts(h: History, multiversion: bool) -> set[tuple[int, int]]:
    """Every ordered pair of committed txns in conflict, computed naively.

    Single-version: a read before a committed write of the object, a
    committed write before a read of it, or two writes in commit order.
    Multiversion: two writes in stamp order, a write before a read of
    its version, or a read before a write of a later version.
    """
    commit = {e.txn: e.seq for e in h.events if e.kind == COMMIT}
    reads = [e for e in h.events if e.kind == READ and e.txn in commit]
    writes = [e for e in h.events if e.kind == WRITE and e.txn in commit]
    pairs = set()
    for w in writes:
        for other in writes:
            if other.oid == w.oid and other.txn != w.txn:
                later = other.txn > w.txn if multiversion else commit[other.txn] > commit[w.txn]
                if later:
                    pairs.add((w.txn, other.txn))
        for r in reads:
            if r.oid != w.oid or r.txn == w.txn:
                continue
            if multiversion:
                if r.version_ts == w.txn:
                    pairs.add((w.txn, r.txn))
                elif w.txn > r.version_ts:
                    pairs.add((r.txn, w.txn))
            elif commit[w.txn] < r.seq:
                pairs.add((w.txn, r.txn))
            else:
                pairs.add((r.txn, w.txn))
    return pairs


def assert_cycles_are_closed_walks_of_conflicts(generate, multiversion: bool):
    rng = random.Random(9)
    found = 0
    for _ in range(300):
        h = generate(rng)
        assert h.multiversion == multiversion
        verdict = check_conflict_serializability(h)
        if verdict.serializable:
            continue
        cycle = verdict.cycle
        assert len(cycle) >= 2
        assert len(set(cycle)) == len(cycle)
        assert set(cycle) <= h.committed_txns()
        edges = naive_conflicts(h, multiversion)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert (a, b) in edges
        found += 1
    assert found > 20


def test_cycle_is_a_closed_walk_of_committed_txns():
    assert_cycles_are_closed_walks_of_conflicts(random_single_version_history, False)


def test_multiversion_cycle_is_a_closed_walk_of_conflicts():
    assert_cycles_are_closed_walks_of_conflicts(random_multiversion_history, True)


def smallest_ready_first(nodes, pairs) -> list[int]:
    """Topological order of (a, b) pairs that always takes the smallest ready node."""
    order, left = [], set(nodes)
    while left:
        ready = [n for n in left if not any(b == n and a in left for a, b in pairs)]
        n = min(ready)
        order.append(n)
        left.remove(n)
    return order


def assert_witness_is_smallest_ready_first(generate, multiversion: bool, rounds=300):
    rng = random.Random(31)
    checked = 0
    for _ in range(rounds):
        h = generate(rng)
        verdict = check_conflict_serializability(h)
        if not verdict.serializable:
            continue
        reference = smallest_ready_first(h.committed_txns(), naive_conflicts(h, multiversion))
        assert verdict.witness == reference
        checked += 1
    assert checked > 50


def test_witness_is_smallest_ready_first_over_all_conflicts():
    assert_witness_is_smallest_ready_first(random_single_version_history, False)


def test_multiversion_witness_is_smallest_ready_first_over_all_conflicts():
    assert_witness_is_smallest_ready_first(random_multiversion_history, True)


def test_aborted_readers_leave_verdict_and_witness_exact():
    rng = random.Random(2028)
    aborted_readers = agree_unsat = 0
    for _ in range(400):
        h = random_single_version_history(rng, max_txns=7, abort_share=0.3)
        aborted = {e.txn for e in h.events if e.kind == ABORT}
        aborted_readers += any(e.kind == READ and e.txn in aborted for e in h.events)
        verdict = check_conflict_serializability(h)
        assert verdict.serializable == brute_force_serializable(h)
        if verdict.serializable:
            reference = smallest_ready_first(h.committed_txns(), naive_conflicts(h, False))
            assert verdict.witness == reference
        else:
            agree_unsat += 1
    assert aborted_readers > 100 and agree_unsat > 20


def test_write_after_its_commit_is_rejected():
    # t1's second WRITE would be published by no commit
    h = history_of([
        (1, READ, 1, 0),
        (1, WRITE, 1),
        (1, COMMIT),
        (1, WRITE, 2),
        (2, READ, 2, 0),
        (2, COMMIT),
    ])
    with pytest.raises(ValueError, match="txn 1"):
        check_conflict_serializability(h)


def test_multiversion_old_reader_is_fine():
    # a reader on the old version stays serializable under version order
    h = history_of([
        (2, WRITE, 1), (2, COMMIT),
        (9, READ, 1, 2),
        (5, WRITE, 1), (5, COMMIT),
        (9, COMMIT),
    ], protocol="mvto")
    verdict = check_conflict_serializability(h)
    assert verdict.serializable
    assert verdict.witness == [2, 9, 5]


def test_multiversion_split_reads_cycle():
    # t3 saw x before t2 but y after it
    h = history_of([
        (2, WRITE, 1), (2, WRITE, 2), (2, COMMIT),
        (3, READ, 1, 0), (3, READ, 2, 2), (3, COMMIT),
    ], protocol="mvto")
    verdict = check_conflict_serializability(h)
    assert not verdict.serializable
    assert sorted(verdict.cycle) == [2, 3]


def test_protocol_field_selects_the_edge_rules():
    # an old-snapshot reader straddling a writer's commit: consistent
    # under version order, a cycle under single-version commit order
    h = history_of([
        (1, READ, 1, 0),
        (2, WRITE, 1), (2, WRITE, 2), (2, COMMIT),
        (1, READ, 2, 0),
        (1, COMMIT),
    ], protocol="mvto")
    assert h.multiversion
    assert check_conflict_serializability(h).serializable
    single = History(events=h.events, protocol="bto")
    assert not single.multiversion
    forced = check_conflict_serializability(single)
    assert not forced.serializable
    assert sorted(forced.cycle) == [1, 2]


def test_engine_histories_verify_end_to_end(protocol):
    cfg = BenchConfig(protocol=protocol, threads=3, ops=200, key_lo=1, key_hi=6,
                      seed=5, record_history=True)
    report = run_benchmark(cfg)
    verdict = check_conflict_serializability(report.history)
    assert verdict.serializable
    assert replay_check(report.history, verdict.witness, report.final_items)


def replayable_history():
    h = history_of([
        (1, COMMIT),
        (2, COMMIT),
        (3, COMMIT),
        (4, COMMIT),
    ])
    h.set_ops = {
        1: OpRecord("add", 5, True, None),
        2: OpRecord("add", 5, False, None),
        3: OpRecord("contains", 5, True, None),
        4: OpRecord("snapshot", None, True, (5,)),
    }
    return h


def test_replay_check_accepts_the_true_story():
    h = replayable_history()
    assert replay_check(h, [1, 2, 3, 4], [5])


def test_replay_check_rejects_wrong_applied_flag():
    h = replayable_history()
    h.set_ops[2] = OpRecord("add", 5, True, None)
    assert not replay_check(h, [1, 2, 3, 4], [5])


def test_replay_check_rejects_wrong_final_membership():
    h = replayable_history()
    assert not replay_check(h, [1, 2, 3, 4], [5, 6])


def test_replay_check_rejects_wrong_snapshot_payload():
    h = replayable_history()
    h.set_ops[4] = OpRecord("snapshot", None, True, (5, 6))
    assert not replay_check(h, [1, 2, 3, 4], [5])


def test_replay_check_order_matters():
    h = history_of([(1, COMMIT), (2, COMMIT)])
    h.set_ops = {
        1: OpRecord("add", 3, True, None),
        2: OpRecord("remove", 3, True, None),
    }
    assert replay_check(h, [1, 2], [])
    assert not replay_check(h, [2, 1], [])


def test_replay_check_requires_a_permutation():
    h = replayable_history()
    with pytest.raises(WitnessInvalid):
        replay_check(h, [1, 2, 3], [5])
    with pytest.raises(WitnessInvalid):
        replay_check(h, [1, 2, 3, 3], [5])


def test_replay_check_rejects_unknown_kinds():
    h = history_of([(1, COMMIT)])
    h.set_ops = {1: OpRecord("merge", 1, True, None)}
    with pytest.raises(WitnessInvalid):
        replay_check(h, [1], [])


def test_replay_check_skips_txns_without_an_op():
    h = history_of([(1, COMMIT), (2, COMMIT)])
    h.set_ops = {2: OpRecord("add", 8, True, None)}
    assert replay_check(h, [1, 2], [8])


def test_trace_round_trip(tmp_path):
    h = history_of([
        (1, READ, 1, 0),
        (1, WRITE, 1),
        (1, COMMIT),
        (2, READ, 1, 1),
        (2, ABORT),
    ], protocol="sgt")
    path = tmp_path / "events.trace"
    save_trace(h, path)
    loaded = load_trace(path)
    assert loaded.events == h.events
    assert loaded.protocol == "sgt"
    assert not loaded.multiversion
    before = check_conflict_serializability(h)
    after = check_conflict_serializability(loaded)
    assert before.serializable == after.serializable
    assert before.witness == after.witness


def test_saved_mvto_trace_loads_as_multiversion(tmp_path):
    # old-snapshot reader: serializable only under version order
    h = history_of([
        (1, READ, 1, 0),
        (2, WRITE, 1), (2, WRITE, 2), (2, COMMIT),
        (1, READ, 2, 0),
        (1, COMMIT),
    ], protocol="mvto")
    path = tmp_path / "mv.trace"
    save_trace(h, path)
    loaded = load_trace(path)
    assert loaded.events == h.events
    assert loaded.protocol == "mvto"
    assert loaded.multiversion
    assert check_conflict_serializability(loaded).serializable


def test_trace_format_is_stable(tmp_path):
    h = history_of([(1, READ, 2, 0), (1, COMMIT)], protocol="bto")
    path = tmp_path / "stable.trace"
    save_trace(h, path)
    assert path.read_text() == "# protocol=bto\n1 1 1 0 2 0\n2 1 1 2 0\n"


def test_recorded_history_keeps_the_event_fields():
    rec = HistoryRecorder()
    rec.protocol = "bto"
    rec.record_read(7, 3, 0)
    rec.record_write_intent(7, 3)
    rec.record_read(8, 3, 0)
    rec.note_set_op(7, "add", 3, True)
    rec.record_commit(7)
    rec.record_abort(8)
    rec.note_set_op(9, "snapshot", None, True, (3,))
    h = rec.history()
    assert h.events == [
        Event(1, 7, 7, READ, 3, 0),
        Event(2, 7, 7, WRITE, 3, None),
        Event(3, 8, 8, READ, 3, 0),
        Event(4, 7, 7, COMMIT, 0, None),
        Event(5, 8, 8, ABORT, 0, None),
    ]
    assert all(type(e) is Event for e in h.events)
    assert h.set_ops == {
        7: OpRecord("add", 3, True, None),
        9: OpRecord("snapshot", None, True, (3,)),
    }
    assert all(type(op) is OpRecord for op in h.set_ops.values())
    assert h.protocol == "bto" and len(rec) == 5
    # A history is a snapshot: recording goes on after it, seqs continue.
    h.events.clear()
    rec.record_commit(9)
    assert rec.history().events[-1] == Event(6, 9, 9, COMMIT, 0, None)
    assert len(rec) == 6


def test_recording_tracks_no_object_per_event():
    rec = HistoryRecorder()
    rec.record_read(1, 1, 0)
    rec.note_set_op(1, "add", 1, True)
    gc.collect()
    before = len(gc.get_objects())
    for txn in range(2, 5002):
        rec.record_read(txn, 7, txn - 1)
        rec.record_write_intent(txn, 7)
        rec.record_commit(txn)
        rec.note_set_op(txn, "add", txn, True)
        rec.record_abort(txn + 100_000)
    gc.collect()
    assert len(rec) == 20_001
    # 20,000 events and 5,000 set ops, none left for the collector to walk.
    assert len(gc.get_objects()) - before < 100


def test_concurrent_recording_keeps_seq_dense():
    rec = HistoryRecorder()
    n, per = 8, 500

    def pound(txn):
        for _ in range(per):
            rec.record_read(txn, 1, 0)

    threads = [threading.Thread(target=pound, args=(i,)) for i in range(1, n + 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seqs = [e.seq for e in rec.history().events]
    assert seqs == list(range(1, n * per + 1))


def test_concurrent_recording_keeps_each_thread_in_order():
    rec = HistoryRecorder()
    n, per = 4, 20_000  # long enough for the threads to interleave hundreds of times
    switch = sys.getswitchinterval()
    start = threading.Barrier(n)

    def pound(txn):
        start.wait()
        for i in range(per):
            rec.record_read(txn, i, i)
            rec.record_write_intent(txn, i)

    threads = [threading.Thread(target=pound, args=(t,)) for t in range(1, n + 1)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    events = rec.history().events
    assert [e.seq for e in events] == list(range(1, 2 * n * per + 1))
    assert sum(a.txn != b.txn for a, b in zip(events, events[1:])) > n
    for txn in range(1, n + 1):
        mine = [(e.kind, e.oid, e.version_ts) for e in events if e.txn == txn]
        assert mine == [f for i in range(per) for f in ((READ, i, i), (WRITE, i, None))]
