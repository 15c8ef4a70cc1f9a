"""Basic timestamp ordering.

Each object carries the largest stamps that ever read and wrote it.
Reads are admitted only when no younger write has committed, at which
point they bump the read stamp; a commit re-checks every object in the
write set against both stamps before publishing.  Both comparisons are
strict, so a transaction never conflicts with its own earlier reads.
The largest write stamp is also the stamp of the committed value: a
commit passes only when its stamp is not below it, and then raises it
to that stamp.

An entry's slots are `value`, `max_read` and `max_write`, the names
mvto gives its newest version, so both run `LockedStore.on_read`; the
refusal of a reader older than `max_write` is `_Entry.read_older`.
"""

from __future__ import annotations

import threading

from ..errors import AbortReason, TransactionAborted
from .base import LockedStore


class _Entry:
    __slots__ = ("lock", "value", "max_read", "max_write")

    def __init__(self, stamp, value):
        self.lock = threading.Lock()
        self.value = value
        self.max_read = 0
        self.max_write = stamp

    def read_older(self, ts, oid):
        # a younger write has committed; at ts == max_write, which no
        # run reaches (stamps are unique), the reader is admitted
        if ts < self.max_write:
            raise TransactionAborted(AbortReason.STALE_READ)
        if ts > self.max_read:
            self.max_read = ts
        return self.max_write, self.value

    def admits(self, ts):
        return ts >= self.max_write and ts >= self.max_read

    def install(self, ts, value):
        self.value = value
        self.max_write = ts


class BtoBackend(LockedStore):
    name = "bto"
    entry_type = _Entry
    refusal = AbortReason.STALE_WRITE

    def object_meta(self, oid: int) -> dict:
        entry = self._entry(oid)
        with entry.lock:
            return {
                "value": entry.value,
                "writer_ts": entry.max_write,
                "max_read": entry.max_read,
                "max_write": entry.max_write,
            }
