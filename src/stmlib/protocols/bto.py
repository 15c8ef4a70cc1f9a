"""Basic timestamp ordering.

Each object carries the largest stamps that ever read and wrote it.
Reads are admitted only when no younger write has committed, at which
point they bump the read stamp; a commit re-checks every object in the
write set against both stamps before publishing.  Both comparisons are
strict, so a transaction never conflicts with its own earlier reads.
"""

from __future__ import annotations

import threading

from ..errors import AbortReason, NotFound
from .base import BackendBase, ProtocolRefused


class _Entry:
    __slots__ = ("lock", "value", "writer_ts", "max_read", "max_write")

    def __init__(self, value, writer_ts=0):
        self.lock = threading.Lock()
        self.value = value
        self.writer_ts = writer_ts
        self.max_read = 0
        self.max_write = 0


class BtoBackend(BackendBase):
    name = "bto"
    default_gc_period = None  # no per-commit state to collect

    def __init__(self):
        super().__init__()
        self._store: dict[int, _Entry] = {}
        self._store_lock = threading.Lock()

    def seed(self, oid: int, value):
        with self._store_lock:
            self._store[oid] = _Entry(value)

    def on_read(self, txn, oid: int):
        entry = self._store.get(oid)
        if entry is None:
            raise NotFound(f"object {oid}")
        ts = txn.ts
        with entry.lock:
            if ts < entry.max_write:
                raise ProtocolRefused(AbortReason.STALE_READ)
            if ts > entry.max_read:
                entry.max_read = ts
            rec = self.engine.recorder
            if rec is not None:
                rec.record_read(ts, oid, entry.writer_ts)
            return entry.value

    def commit(self, txn):
        ts = txn.ts
        rec = self.engine.recorder
        if not txn.write_set:
            if rec is not None:
                rec.record_commit(ts)
            return None
        existing = []
        fresh = []
        for oid in sorted(txn.write_set):
            entry = self._store.get(oid)
            if entry is None:
                fresh.append(oid)
            else:
                existing.append((oid, entry))
        # ascending-oid acquisition; fresh objects are still private to
        # this transaction and need no lock
        for _, entry in existing:
            entry.lock.acquire()
        try:
            for _, entry in existing:
                if ts < entry.max_write or ts < entry.max_read:
                    return AbortReason.STALE_WRITE
            for oid, entry in existing:
                entry.value = txn.write_set[oid]
                entry.writer_ts = ts
                entry.max_write = ts
            for oid in fresh:
                entry = _Entry(txn.write_set[oid], writer_ts=ts)
                entry.max_write = ts
                with self._store_lock:
                    self._store[oid] = entry
            if rec is not None:
                rec.record_commit(ts)
            return None
        finally:
            for _, entry in existing:
                entry.lock.release()

    def on_abort(self, txn):
        pass  # no shared state was touched on behalf of the transaction

    def read_committed(self, oid: int):
        entry = self._store.get(oid)
        if entry is None:
            raise NotFound(f"object {oid}")
        with entry.lock:
            return entry.value

    def object_count(self) -> int:
        return len(self._store)

    def object_meta(self, oid: int) -> dict:
        entry = self._store.get(oid)
        if entry is None:
            raise NotFound(f"object {oid}")
        with entry.lock:
            return {
                "value": entry.value,
                "writer_ts": entry.writer_ts,
                "max_read": entry.max_read,
                "max_write": entry.max_write,
            }
