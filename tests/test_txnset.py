"""Sorted-set semantics against a plain Python set reference."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmlib import (
    AbortReason,
    Engine,
    HistoryRecorder,
    NotFound,
    TransactionAborted,
    TransactionalSet,
    TxnStatus,
    ValueOutOfRange,
    execute_with_retry,
    run_op,
)
from stmlib.txnset import HEAD_KEY, TAIL_KEY, SetNode


def one_shot(eng, body):
    value, retries, _ = execute_with_retry(eng, body)
    assert retries == 0, "single-threaded ops must commit first try"
    return value


def test_sentinel_keys_are_int64_extremes():
    assert HEAD_KEY == -(2**63)
    assert TAIL_KEY == 2**63 - 1


def test_empty_set_shape(protocol):
    eng = Engine(protocol)
    tset = TransactionalSet(eng)
    assert eng.object_count() == 2  # the two sentinels
    assert tset.committed_items() == []
    assert one_shot(eng, tset.snapshot) == []
    assert one_shot(eng, lambda txn: tset.contains(txn, 5)) is False


def test_add_remove_contains_basics(protocol):
    eng = Engine(protocol)
    tset = TransactionalSet(eng)
    assert one_shot(eng, lambda txn: tset.add(txn, 7)) is True
    assert one_shot(eng, lambda txn: tset.add(txn, 3)) is True
    assert one_shot(eng, lambda txn: tset.add(txn, 7)) is False
    assert one_shot(eng, lambda txn: tset.contains(txn, 3)) is True
    assert one_shot(eng, lambda txn: tset.contains(txn, 4)) is False
    assert one_shot(eng, tset.snapshot) == [3, 7]
    assert one_shot(eng, lambda txn: tset.remove(txn, 3)) is True
    assert one_shot(eng, lambda txn: tset.remove(txn, 3)) is False
    assert tset.committed_items() == [7]


def test_values_colliding_with_sentinels_are_rejected():
    eng = Engine("bto")
    tset = TransactionalSet(eng)
    txn = eng.begin()
    for bad in (HEAD_KEY, TAIL_KEY):
        with pytest.raises(ValueOutOfRange):
            tset.add(txn, bad)
        with pytest.raises(ValueOutOfRange):
            tset.remove(txn, bad)
        with pytest.raises(ValueOutOfRange):
            tset.contains(txn, bad)
    # the neighbours just inside the range are fine
    assert tset.add(txn, HEAD_KEY + 1)
    assert tset.add(txn, TAIL_KEY - 1)
    assert eng.commit(txn).committed
    assert tset.committed_items() == [HEAD_KEY + 1, TAIL_KEY - 1]


def test_snapshot_sees_own_uncommitted_writes():
    eng = Engine("bto")
    tset = TransactionalSet(eng)
    txn = eng.begin()
    tset.add(txn, 5)
    tset.add(txn, 2)
    assert tset.snapshot(txn) == [2, 5]
    assert tset.committed_items() == []  # nothing published yet
    assert eng.commit(txn).committed
    assert tset.committed_items() == [2, 5]


def test_remove_unlinks_but_the_node_object_stays():
    eng = Engine("bto")
    tset = TransactionalSet(eng)
    one_shot(eng, lambda txn: tset.add(txn, 9))
    count_after_add = eng.object_count()
    one_shot(eng, lambda txn: tset.remove(txn, 9))
    assert eng.object_count() == count_after_add
    assert tset.committed_items() == []


def test_add_write_set_default_and_minimal():
    eng = Engine("bto")
    tset = TransactionalSet(eng)
    one_shot(eng, lambda txn: tset.add(txn, 10))
    txn = eng.begin()
    tset.add(txn, 5)  # splices between head and 10
    # new node, rewritten head, and the untouched successor
    assert len(txn.write_set) == 3
    eng.abort(txn)


def test_remove_write_set_default_and_minimal():
    eng = Engine("bto")
    tset = TransactionalSet(eng)
    one_shot(eng, lambda txn: tset.add(txn, 10))
    txn = eng.begin()
    tset.remove(txn, 10)
    assert len(txn.write_set) == 2  # relinked head plus the victim rewrite
    eng.abort(txn)


def test_duplicate_add_and_missing_remove_write_nothing():
    eng = Engine("bto")
    tset = TransactionalSet(eng)
    one_shot(eng, lambda txn: tset.add(txn, 4))
    txn = eng.begin()
    assert tset.add(txn, 4) is False
    assert tset.remove(txn, 11) is False
    assert not txn.write_set
    eng.abort(txn)


def test_nodes_link_in_value_order():
    eng = Engine("bto")
    tset = TransactionalSet(eng)
    for v in (30, 10, 20):
        one_shot(eng, lambda txn, v=v: tset.add(txn, v))
    seen = []
    node = eng.read_committed(tset.head_oid)
    while node.value != TAIL_KEY:
        seen.append(node.value)
        node = eng.read_committed(node.next)
    assert seen == [HEAD_KEY, 10, 20, 30]
    assert isinstance(node, SetNode) and node.next == 0


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "contains"]),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=40,
    )
)
@pytest.mark.parametrize("protocol", ["bto", "sgt", "mvto"])
def test_random_sequences_track_a_python_set(protocol, ops):
    eng = Engine(protocol)
    tset = TransactionalSet(eng)
    reference = set()
    for kind, value in ops:
        result, retries = run_op(eng, tset, kind, value)
        assert retries == 0
        if kind == "add":
            assert result == (value not in reference)
            reference.add(value)
        elif kind == "remove":
            assert result == (value in reference)
            reference.discard(value)
        else:
            assert result == (value in reference)
    assert tset.committed_items() == sorted(reference)


def test_concurrent_disjoint_adds_merge_sorted(protocol):
    eng = Engine(protocol)
    tset = TransactionalSet(eng)
    ranges = [range(1, 41), range(41, 81), range(81, 121)]
    failures = []

    def worker(values):
        try:
            for v in values:
                execute_with_retry(eng, lambda txn, v=v: tset.add(txn, v))
        except BaseException as exc:  # pragma: no cover
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(r,)) for r in ranges]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert tset.committed_items() == list(range(1, 121))


def test_execute_with_retry_counts_commit_failures():
    eng = Engine("bto")
    oid = eng.seed_object(0)
    attempts = []

    def body(txn):
        attempts.append(txn.ts)
        val = eng.read(txn, oid)
        if len(attempts) <= 2:
            other = eng.begin()
            eng.write(other, oid, val + 100)
            assert eng.commit(other).committed
        eng.write(txn, oid, val + 1)
        return val + 1

    value, retries, ts = execute_with_retry(eng, body)
    assert retries == 2
    assert value == 201
    assert ts == attempts[-1]
    assert eng.read_committed(oid) == 201


def test_execute_with_retry_survives_read_aborts():
    eng = Engine("bto")
    oid = eng.seed_object(0)
    calls = []

    def body(txn):
        calls.append(txn.ts)
        if len(calls) == 1:
            other = eng.begin()
            eng.write(other, oid, 7)
            assert eng.commit(other).committed
        return eng.read(txn, oid)

    value, retries, _ = execute_with_retry(eng, body)
    assert value == 7
    assert retries == 1


def test_a_body_raising_transaction_aborted_is_retired_then_retried(protocol):
    eng = Engine(protocol)
    tset = TransactionalSet(eng)
    txns = []

    def body(txn):
        txns.append(txn)
        tset.add(txn, 5)
        if len(txns) == 1:
            raise TransactionAborted(AbortReason.STALE_READ)
        return True

    value, retries, _ = execute_with_retry(eng, body)
    assert (value, retries) == (True, 1)
    assert txns[0].status is TxnStatus.ABORTED
    assert eng.min_active_ts() == eng._next_ts
    eng.collect()
    if protocol == "sgt":
        assert eng.backend.graph_size() == 0
    assert tset.committed_items() == [5]


def _add_then_divide(eng, tset):
    return lambda txn: (tset.add(txn, 5), 1 / 0)


def _add_then_read_unknown(eng, tset):
    return lambda txn: (tset.add(txn, 5), eng.read(txn, 404))


@pytest.mark.parametrize("make_body, error", [
    (_add_then_divide, ZeroDivisionError),
    (_add_then_read_unknown, NotFound),
])
def test_a_raising_body_is_aborted_and_not_retried(protocol, make_body, error):
    eng = Engine(protocol)
    tset = TransactionalSet(eng)
    txns = []
    body = make_body(eng, tset)
    with pytest.raises(error):
        execute_with_retry(eng, lambda txn: (txns.append(txn), body(txn)))
    assert len(txns) == 1
    assert txns[0].status is TxnStatus.ABORTED
    next_ts = eng.min_active_ts()
    assert eng.begin().ts == next_ts  # the live set is empty
    assert tset.committed_items() == []


def test_mvto_collects_again_after_a_raising_body():
    eng = Engine("mvto")
    tset = TransactionalSet(eng)
    with pytest.raises(ZeroDivisionError):
        execute_with_retry(eng, _add_then_divide(eng, tset))
    for key in (1, 2, 3):
        run_op(eng, tset, "add", key)
    assert eng.collect() > 0  # the head's older versions go


def test_sgt_graph_drains_after_a_raising_body():
    eng = Engine("sgt")
    tset = TransactionalSet(eng)
    with pytest.raises(ZeroDivisionError):
        execute_with_retry(eng, _add_then_divide(eng, tset))
    run_op(eng, tset, "add", 1)
    eng.collect()
    assert eng.backend.graph_size() == 0


def test_run_op_notes_outcomes_for_replay():
    rec = HistoryRecorder()
    eng = Engine("bto", recorder=rec)
    tset = TransactionalSet(eng)
    run_op(eng, tset, "add", 5)
    run_op(eng, tset, "add", 5)
    run_op(eng, tset, "contains", 5)
    run_op(eng, tset, "snapshot")
    ops = rec.history().set_ops
    records = sorted(ops.items())
    kinds = [(r.kind, r.key, r.applied) for _, r in records]
    assert kinds == [
        ("add", 5, True),
        ("add", 5, False),
        ("contains", 5, True),
        ("snapshot", None, True),
    ]
    assert records[-1][1].payload == (5,)


def test_run_op_rejects_unknown_kind():
    eng = Engine("bto")
    tset = TransactionalSet(eng)
    with pytest.raises(ValueError):
        run_op(eng, tset, "pop", 1)
