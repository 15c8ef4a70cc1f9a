"""Fault injection: every transaction is retired on every exit path.

A seeded single-threaded `run_op` script runs once cleanly to count the
calls it makes to each hook, then once per (hook, k, exception) with the
k-th call of that hook raising.  The hooks are the recorder's
`record_read`, `record_commit`, `record_abort` and `note_set_op`, and the
op body, which raises after the set operation has done its reads and
writes.  After each fault the engine must be quiescent: no transaction
LIVE, no lock held, the oldest active stamp the next one to be handed
out, the sgt graph empty and every mvto chain down to one version after
a collection pass, and a fresh transaction still commits.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from stmlib import (
    AbortReason,
    Engine,
    HistoryRecorder,
    TransactionAborted,
    TransactionalSet,
    TxnStatus,
    run_op,
)


class _Bail(BaseException):
    """Not an Exception, like KeyboardInterrupt."""


def aborted(message):
    return TransactionAborted(AbortReason.STALE_READ)


RECORDER_HOOKS = ("record_read", "record_commit", "record_abort", "note_set_op")
SET_OPS = ("add", "remove", "contains", "snapshot")


def _script(seed=5, ops=10, keys=5):
    rng = random.Random(seed)
    return [(rng.choice(SET_OPS), rng.randint(1, keys)) for _ in range(ops)]


class _Faults(HistoryRecorder):
    """Counts each hook's calls and raises `make(...)` at the k-th of `hook`.

    With `refuse` set, every odd-numbered body call raises
    TransactionAborted on its own, so each op's first attempt aborts and
    is retried: a clean single-threaded script aborts nothing otherwise,
    and `record_abort` would have no call to fail.
    """

    def __init__(self, hook=None, k=0, make=None, refuse=False):
        super().__init__()
        self.hook, self.k, self.make, self.refuse = hook, k, make, refuse
        self.calls = Counter()
        self.fired = None

    def tick(self, hook):
        self.calls[hook] += 1
        if hook == self.hook and self.calls[hook] == self.k:
            self.hook = None
            self.fired = self.make(f"fault at {hook} call {self.k}")
            raise self.fired

    def record_read(self, txn, oid, observed_ts):
        self.tick("record_read")
        super().record_read(txn, oid, observed_ts)

    def record_write_intent(self, txn, oid):
        self.calls["record_write_intent"] += 1
        super().record_write_intent(txn, oid)

    def record_commit(self, txn, writes=()):
        self.tick("record_commit")
        super().record_commit(txn, writes)

    def record_abort(self, txn):
        self.tick("record_abort")
        super().record_abort(txn)

    def note_set_op(self, txn, kind, key, applied, payload=None):
        self.tick("note_set_op")
        super().note_set_op(txn, kind, key, applied, payload)


def _wrap_bodies(tset, faults):
    """Make each set operation tick the "body" hook after it has run."""
    for name in SET_OPS:
        def op(txn, *args, _op=getattr(tset, name)):
            result = _op(txn, *args)
            faults.tick("body")
            if faults.refuse and faults.calls["body"] % 2:
                raise TransactionAborted(AbortReason.STALE_READ)
            return result
        setattr(tset, name, op)


def _run(protocol, faults):
    """Run the script until it ends or a fault escapes.

    Returns the engine, the set, every transaction begun and the
    exception that escaped, if any.
    """
    eng = Engine(protocol, recorder=faults)
    tset = TransactionalSet(eng)
    _wrap_bodies(tset, faults)
    begun = []
    begin = eng.begin

    def noting_begin():
        txn = begin()
        begun.append(txn)
        return txn

    eng.begin = noting_begin
    escaped = None
    try:
        for kind, key in _script():
            run_op(eng, tset, kind, None if kind == "snapshot" else key)
    except (Exception, _Bail) as exc:
        escaped = exc
    return eng, tset, begun, escaped


def _assert_quiescent(eng, faults, begun):
    assert all(txn.status is not TxnStatus.LIVE for txn in begun)
    assert not eng._live
    assert eng.min_active_ts() == eng._next_ts
    assert eng._meta_lock.locked() is False
    assert faults._lock.locked() is False
    backend = eng.backend
    if eng.protocol == "sgt":
        assert backend._glock.locked() is False
    else:
        assert backend._store_lock.locked() is False
        assert not any(entry.lock.locked() for entry in backend._store.values())
    eng.collect()
    if eng.protocol == "sgt":
        assert backend.graph_size() == 0
    if eng.protocol == "mvto":
        assert not any(chain.stamps for chain in backend._store.values())
    txn = eng.begin()
    oid = eng.new_object_id()
    eng.write(txn, oid, "fresh")
    assert eng.commit(txn).committed
    assert eng.read_committed(oid) == "fresh"
    assert faults.calls["record_write_intent"] == 0


FAULTS = [(hook, make) for hook in RECORDER_HOOKS + ("body",)
          for make in (RuntimeError, _Bail)]
FAULTS += [("body", aborted)]


@pytest.mark.parametrize("hook, make", FAULTS,
                         ids=[f"{hook}-{make.__name__}" for hook, make in FAULTS])
def test_every_fault_leaves_the_engine_quiescent(protocol, hook, make):
    refuse = hook == "record_abort"
    clean = _Faults(refuse=refuse)
    eng, tset, begun, escaped = _run(protocol, clean)
    assert escaped is None
    members = tset.committed_items()
    calls = clean.calls[hook]
    assert calls > 0
    _assert_quiescent(eng, clean, begun)
    for k in range(1, calls + 1):
        faults = _Faults(hook, k, make, refuse=refuse)
        eng, tset, begun, escaped = _run(protocol, faults)
        assert faults.fired is not None, (hook, k)
        if make is aborted:
            assert escaped is None  # retried until it committed
            assert tset.committed_items() == members
        else:
            assert escaped is faults.fired, (hook, k)
        _assert_quiescent(eng, faults, begun)
