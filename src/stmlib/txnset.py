"""Transactional sorted set over a singly linked list.

The list lives in the object store one node per object, bracketed by
head and tail sentinels carrying int64 min and max, and stays sorted
ascending.  Every operation runs inside a caller-supplied transaction
and is harmless to retry.

add and remove rewrite the unchanged node at the splice point as well
as the nodes they actually modify.  That makes structurally adjacent
operations conflict on purpose.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import TxnStatus
from .errors import TransactionAborted, ValueOutOfRange

HEAD_KEY = -(2**63)
TAIL_KEY = 2**63 - 1


class SetNode(NamedTuple):
    value: int
    next: int  # oid of the successor, 0 past the tail


class TransactionalSet:
    def __init__(self, engine):
        self._engine = engine
        tail = engine.seed_object(SetNode(TAIL_KEY, 0))
        self.head_oid = engine.seed_object(SetNode(HEAD_KEY, tail))

    def _check(self, value: int):
        if not HEAD_KEY < value < TAIL_KEY:
            raise ValueOutOfRange(f"{value} collides with a sentinel")

    def _locate(self, txn, value: int):
        """Walk to the first node with node.value >= value."""
        read = self._engine.read
        prev_oid = self.head_oid
        prev = read(txn, prev_oid)
        cur_oid = prev.next
        cur = read(txn, cur_oid)
        while cur.value < value:
            prev_oid, prev = cur_oid, cur
            cur_oid = cur.next
            cur = read(txn, cur_oid)
        return prev_oid, prev, cur_oid, cur

    def add(self, txn, value: int) -> bool:
        self._check(value)
        prev_oid, prev, cur_oid, cur = self._locate(txn, value)
        if cur.value == value:
            return False
        new_oid = self._engine.new_object_id()
        self._engine.write(txn, new_oid, SetNode(value, cur_oid))
        self._engine.write(txn, prev_oid, SetNode(prev.value, new_oid))
        self._engine.write(txn, cur_oid, cur)
        return True

    def remove(self, txn, value: int) -> bool:
        self._check(value)
        prev_oid, prev, cur_oid, cur = self._locate(txn, value)
        if cur.value != value:
            return False
        self._engine.write(txn, prev_oid, SetNode(prev.value, cur.next))
        self._engine.write(txn, cur_oid, cur)
        return True

    def contains(self, txn, value: int) -> bool:
        self._check(value)
        return self._locate(txn, value)[3].value == value

    def snapshot(self, txn) -> list[int]:
        """All members in ascending order, sentinels excluded."""
        read = self._engine.read
        values = []
        node = read(txn, self.head_oid)
        while True:
            node = read(txn, node.next)
            if node.value == TAIL_KEY:
                return values
            values.append(node.value)

    def committed_items(self) -> list[int]:
        """Non-transactional walk of the latest committed list state.

        Only meaningful while no transactions are running.
        """
        values = []
        node = self._engine.read_committed(self.head_oid)
        while node.value != TAIL_KEY:
            if node.value != HEAD_KEY:
                values.append(node.value)
            node = self._engine.read_committed(node.next)
        return values


def execute_with_retry(engine, body: Callable):
    """Run body(txn) in fresh transactions until one commits.

    Returns (value, retries, commit_ts).  Every retry is a new
    transaction with a new, larger timestamp.  Any exception from body
    aborts the transaction, if still live; TransactionAborted then means
    retry, and anything else propagates without a retry.
    """
    retries = 0
    while True:
        txn = engine.begin()
        try:
            value = body(txn)
        except BaseException as exc:
            if txn.status is TxnStatus.LIVE:
                engine.abort(txn)
            if not isinstance(exc, TransactionAborted):
                raise
        else:
            result = engine.commit(txn)
            if result.committed:
                return value, retries, result.ts
        retries += 1


def run_op(engine, tset: TransactionalSet, kind: str, value: int | None = None):
    """One committed set operation, with its outcome noted for replay.

    Retries until the operation commits.  Returns (result, retries).
    """
    if kind == "add":
        body = lambda txn: tset.add(txn, value)
    elif kind == "remove":
        body = lambda txn: tset.remove(txn, value)
    elif kind == "contains":
        body = lambda txn: tset.contains(txn, value)
    elif kind == "snapshot":
        body = tset.snapshot
    else:
        raise ValueError(f"unknown set op {kind!r}")
    result, retries, ts = execute_with_retry(engine, body)
    rec = engine.recorder
    if rec is not None:
        if kind == "snapshot":
            rec.note_set_op(ts, kind, None, True, tuple(result))
        else:
            rec.note_set_op(ts, kind, value, bool(result))
    return result, retries
