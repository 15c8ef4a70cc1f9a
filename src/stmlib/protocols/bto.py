"""Basic timestamp ordering.

Each object carries the largest stamps that ever read and wrote it.
Reads are admitted only when no younger write has committed, at which
point they bump the read stamp; a commit re-checks every object in the
write set against both stamps before publishing.  Both comparisons are
strict, so a transaction never conflicts with its own earlier reads.
The largest write stamp is also the stamp of the committed value: a
commit passes only when its stamp is not below it, and then raises it
to that stamp.
"""

from __future__ import annotations

import threading

from ..errors import AbortReason, NotFound, TransactionAborted
from .base import ABORTED, LIVE, LockedStore


class _Entry:
    __slots__ = ("lock", "value", "max_read", "max_write")

    def __init__(self, stamp, value):
        self.lock = threading.Lock()
        self.value = value
        self.max_read = 0
        self.max_write = stamp

    def admits(self, ts):
        return ts >= self.max_write and ts >= self.max_read

    def install(self, ts, value):
        self.value = value
        self.max_write = ts


class BtoBackend(LockedStore):
    name = "bto"
    entry_type = _Entry
    refusal = AbortReason.STALE_WRITE

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
                if ts < entry.max_write:
                    raise TransactionAborted(AbortReason.STALE_READ)
                if ts > entry.max_read:
                    entry.max_read = ts
                rec = self.engine.recorder
                if rec is not None:
                    rec.record_read(ts, oid, entry.max_write)
                value = read_set[oid] = entry.value
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

    def object_meta(self, oid: int) -> dict:
        entry = self._entry(oid)
        with entry.lock:
            return {
                "value": entry.value,
                "writer_ts": entry.max_write,
                "max_read": entry.max_read,
                "max_write": entry.max_write,
            }
