"""Fault injection: every transaction is retired on every exit path.

A seeded single-threaded `run_op` script runs once cleanly to count the
calls it makes to each hook, then once per (hook, k, exception) with the
k-th call of that hook raising.  The hooks are the recorder's
`record_read`, `record_commit`, `record_abort` and `note_set_op`, and the
op body, which raises after the set operation has done its reads and
writes.  After each fault the engine must be quiescent: no transaction
LIVE, no lock held, the oldest active stamp the next one to be handed
out, the sgt graph already emptied by the automatic pass, every mvto
chain down to one version after a collection pass, and a fresh
transaction still commits.

A second sweep runs two workers on one engine and set, and raises at
the k-th `record_read` or `record_commit` call that worker 1 makes.
Worker 0 must still finish its own script, the engine must be
quiescent as above, and the recorded history must serialize and replay.
"""

from __future__ import annotations

import random
import threading
from collections import Counter

import pytest

from stmlib import (
    AbortReason,
    Engine,
    HistoryRecorder,
    TransactionAborted,
    TransactionalSet,
    TxnStatus,
    check_conflict_serializability,
    replay_check,
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
    assert backend._store_lock.locked() is False
    assert not any(entry.lock.locked() for entry in backend._store.values())
    if eng.protocol == "sgt":
        assert backend.graph_size() == 0  # the automatic pass as the last one ended
    eng.collect()
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


class _WorkerFaults(_Faults):
    """Raises RuntimeError at worker 1's k-th call of `hook`.

    Each thread counts its own calls; a thread that has not set
    `local.worker` to 1 never raises.
    """

    def __init__(self, hook, k):
        super().__init__(hook, k, RuntimeError)
        self.local = threading.local()

    def tick(self, hook):
        local = self.local
        if hook == self.hook and getattr(local, "worker", None) == 1:
            local.calls = getattr(local, "calls", 0) + 1
            if local.calls == self.k:
                self.fired = self.make(f"fault at worker 1's {hook} call {self.k}")
                raise self.fired


@pytest.mark.parametrize("hook", ["record_read", "record_commit"])
@pytest.mark.parametrize("k", [1, 4, 16])
def test_a_fault_in_one_worker_leaves_the_other_running(protocol, hook, k):
    faults = _WorkerFaults(hook, k)
    eng = Engine(protocol, recorder=faults)
    tset = TransactionalSet(eng)
    for key in range(1, 9, 2):
        run_op(eng, tset, "add", key)
    begun = []
    begin = eng.begin

    def noting_begin():
        txn = begin()
        begun.append(txn)
        return txn

    eng.begin = noting_begin
    # Worker 0 stops inside its first op, after the op's reads and before
    # its commit, until worker 1 has failed: the fault always lands while
    # another transaction is live.
    paused, failed = threading.Event(), threading.Event()
    for name in SET_OPS:
        def op(txn, *args, _op=getattr(tset, name)):
            result = _op(txn, *args)
            if faults.local.worker == 0 and not paused.is_set():
                paused.set()
                failed.wait(timeout=10)
            return result
        setattr(tset, name, op)
    scripts = [_script(seed=11 + i, ops=40, keys=8) for i in range(2)]
    results = [None, None]

    def worker(idx):
        faults.local.worker = idx
        if idx == 1:
            paused.wait(timeout=10)
        done = 0
        try:
            for kind, key in scripts[idx]:
                run_op(eng, tset, kind, None if kind == "snapshot" else key)
                done += 1
        except Exception as exc:
            results[idx] = exc
            return
        finally:
            if idx == 1:
                failed.set()
        results[idx] = done

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert paused.is_set()
    assert faults.fired is not None
    assert results[1] is faults.fired
    assert results[0] == len(scripts[0])
    history = faults.history()
    verdict = check_conflict_serializability(history)
    assert verdict.serializable
    assert replay_check(history, verdict.witness, tset.committed_items())
    _assert_quiescent(eng, faults, begun)
