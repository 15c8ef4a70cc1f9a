"""Shared pieces of the protocol backends.

A backend owns the shared object store and every lock that guards it.
The engine calls, per transaction: on_begin, commit (returning None or
an AbortReason, after cleaning up the transaction's protocol state
either way) and on_abort for voluntary or read-path aborts.  A commit
that passes validation calls `record_commit(ts, write_set)`, which logs
the writes it is about to publish and then its COMMIT, before it
installs anything, inside the same critical section.  A refused commit
records no WRITE, and a commit that raises (a failing recorder) has
changed no shared state; the engine then retires the transaction
through on_abort.

`on_read(txn, oid)` is the whole transactional read: `Engine.read`
resolves straight to it, so a read runs one Python frame.  In order:
1. the liveness test, outside everything else: a read on a terminated
   transaction raises TxnNotLive and changes and records nothing;
2. one `try` that serves a repeat read from the write set, then the
   read set, looks the object up (only the store lookup's KeyError
   becomes NotFound, through a nested `try`, which on CPython 3.11
   costs nothing until something raises) and runs the critical
   section, which admits the read, records it and stores the value in
   the read set;
3. `except BaseException:` retire the transaction as ABORTED and
   re-raise.  A refusal (TransactionAborted), NotFound, NoVisibleVersion,
   an unhashable id or anything else ends the transaction there, after
   the lock is released, as sgt's on_abort takes the graph lock.
The contract is implemented once, in `LockedStore.on_read`, which bto
and mvto share; sgt repeats it around its graph lock rather than call a
shared helper, since that would add back the frame.

Backends log read and commit events into the engine's recorder from
inside their own critical sections, so that the recorded sequence
numbers reflect the order the effects actually took on each object.
They test only that a recorder is attached: an engine without one
records nothing.

A critical section that runs once per read (each backend's on_read)
takes its lock with an explicit `lock.acquire()`, makes `try` the very
next statement and calls `lock.release()` in its `finally`.  Every
other site, which runs about once per transaction or per pass, keeps
`with lock:`.  On CPython 3.11.7 on a 2-vCPU Xeon VM, the best of
repeated timings of a section that returns one attribute was 270 ns
with `with`, 129 ns with acquire/try/finally and 31 ns with no lock:
`with` looks up and binds `__enter__` and `__exit__` and passes
`__exit__` a 3-tuple.  The explicit form leaves open one window that
`with` closes: an asynchronous exception (KeyboardInterrupt from a
signal) delivered after `acquire()` returns and before `try` starts
leaks the lock.  Such an exception reaches only the main thread, whose
run is then over anyway.
"""

from __future__ import annotations

import threading

from ..errors import NotFound, TxnStatus

LIVE = TxnStatus.LIVE
ABORTED = TxnStatus.ABORTED


class BackendBase:
    #: commits between automatic garbage collection passes; None: never
    gc_period: int | None = None

    def __init__(self):
        self.engine = None

    def attach(self, engine):
        self.engine = engine

    # subclasses provide on_read, commit, seed, read_committed,
    # object_count and object_meta

    def on_begin(self, txn):
        pass

    def on_abort(self, txn):
        pass

    def collect(self, min_active_ts: int) -> int:
        return 0


class LockedStore(BackendBase):
    """Entries with one lock each, and the read and commit bto and mvto share.

    Subclasses set `entry_type` and `refusal`, the AbortReason of a
    failed validation.  An entry is built as `entry_type(stamp, value)`,
    stamp 0 when seeded, and provides `lock`, `value`, `max_read`,
    `max_write` (the stamp of `value`, the newest committed version),
    `read_older(ts, oid)`, `admits(ts)` and `install(ts, value)`.

    A read younger than `max_write` raises `max_read` and takes `value`
    inline.  Any other reader calls `read_older`, which applies the
    entry type's own rule and returns the `(stamp, value)` it read or
    raises.  That call adds a frame only on the rare older-reader path,
    so the common read costs no more than an inline one.

    A writing commit locks its existing entries in ascending oid order,
    tests each with `admits`, records the commit with its write set and
    only then installs into any, all before it releases the locks; the
    entries it creates are still private to it until `_publish` adds
    them to the store.  A recorder that raises therefore leaves nothing
    published.
    """

    def __init__(self):
        super().__init__()
        self._store: dict = {}
        self._store_lock = threading.Lock()

    def seed(self, oid: int, value):
        with self._store_lock:
            self._store[oid] = self.entry_type(0, value)

    def object_count(self) -> int:
        return len(self._store)

    def _entry(self, oid: int):
        entry = self._store.get(oid)
        if entry is None:
            raise NotFound(f"object {oid}")
        return entry

    def on_read(self, txn, oid: int):
        if txn.status is not LIVE:
            self.engine._require_live(txn)
        try:
            write_set = txn.write_set
            if write_set and oid in write_set:
                return write_set[oid]
            read_set = txn.read_set
            if oid in read_set:
                return read_set[oid]
            try:
                entry = self._store[oid]
            except KeyError:
                raise NotFound(f"object {oid}") from None
            ts = txn.ts
            lock = entry.lock
            lock.acquire()
            try:
                if ts > entry.max_write:
                    if ts > entry.max_read:
                        entry.max_read = ts
                    stamp = entry.max_write
                    value = entry.value
                else:
                    stamp, value = entry.read_older(ts, oid)
                rec = self.engine.recorder
                if rec is not None:
                    rec.record_read(ts, oid, stamp)
                read_set[oid] = value
            finally:
                lock.release()
        except BaseException:
            self.engine._retire(txn, ABORTED)
            raise
        return value

    def read_committed(self, oid: int):
        entry = self._entry(oid)
        with entry.lock:
            return entry.value

    def commit(self, txn):
        ts = txn.ts
        write_set = txn.write_set
        rec = self.engine.recorder
        if not write_set:
            if rec is not None:
                rec.record_commit(ts)
            return None
        existing = []
        fresh = []
        for oid in sorted(write_set):
            entry = self._store.get(oid)
            if entry is None:
                fresh.append((oid, self.entry_type(ts, write_set[oid])))
            else:
                existing.append((oid, entry))
        for _, entry in existing:
            entry.lock.acquire()
        try:
            for _, entry in existing:
                if not entry.admits(ts):
                    return self.refusal
            if rec is not None:
                rec.record_commit(ts, write_set)
            for oid, entry in existing:
                entry.install(ts, write_set[oid])
            self._publish(existing, fresh)
            return None
        finally:
            for _, entry in existing:
                entry.lock.release()

    def _publish(self, existing, fresh):
        """Add the commit's fresh (oid, entry) pairs to the store."""
        if fresh:
            with self._store_lock:
                self._store.update(fresh)
