"""Multiversion timestamp ordering.

Objects keep a chain of committed versions sorted by writer stamp.  A
read never blocks and never aborts: it takes the newest version older
than the reader and raises that version's reader stamp.  A commit may
only slot a new version between a predecessor and its readers when no
reader younger than the writer has already seen the predecessor;
otherwise the version would arrive too late and the writer aborts.
An abort leaves the reader stamps it raised in place: such a phantom
reader only costs a later writer a retry.

Old versions are pruned once no live transaction can reach them: the
newest version below the oldest active stamp stays, everything older
goes.  A pass visits only the chains that may hold old versions: a
commit marks each chain it adds a version to, and a pass takes the
marks, prunes those chains and marks again any that still holds more
than one version.  A one-version chain never prunes, so skipping the
unmarked chains frees exactly what a pass over every chain would.

Version selection stays the module-level function `version_index`,
looked up as a module global, because the traced benchmark wraps it by
that name.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from ..errors import AbortReason, NotFound, NoVisibleVersion
from .base import ABORTED, LIVE, LockedStore


def version_index(stamps, ts):
    """Index of the newest stamp strictly below ts, or -1 if none.

    stamps must be sorted ascending with no duplicates.
    """
    return bisect_left(stamps, ts) - 1


class _Chain:
    __slots__ = ("lock", "stamps", "values", "max_readers")

    def __init__(self, stamp, value):
        self.lock = threading.Lock()
        self.stamps = [stamp]
        self.values = [value]
        self.max_readers = [0]

    def admits(self, ts):
        # the predecessor's readers must all be older than the incoming
        # version, or they read the wrong value
        i = version_index(self.stamps, ts)
        return i < 0 or self.max_readers[i] <= ts

    def install(self, ts, value):
        i = version_index(self.stamps, ts) + 1
        self.stamps.insert(i, ts)
        self.values.insert(i, value)
        self.max_readers.insert(i, 0)


class MvtoBackend(LockedStore):
    name = "mvto"
    gc_period = 256
    entry_type = _Chain
    refusal = AbortReason.OBSOLETE_VERSION

    def __init__(self):
        super().__init__()
        self._grown: set[int] = set()  # oids of chains that may hold old versions

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
                chain = self._store[oid]
            except KeyError:
                raise NotFound(f"object {oid}") from None
            ts = txn.ts
            lock = chain.lock
            lock.acquire()
            try:
                i = version_index(chain.stamps, ts)
                if i < 0:
                    raise NoVisibleVersion(f"object {oid} before ts {ts}")
                max_readers = chain.max_readers
                if ts > max_readers[i]:
                    max_readers[i] = ts
                rec = self.engine.recorder
                if rec is not None:
                    rec.record_read(ts, oid, chain.stamps[i])
                value = read_set[oid] = chain.values[i]
            finally:
                lock.release()
        except BaseException:
            self.engine._retire(txn, ABORTED)
            raise
        return value

    def _publish(self, existing, fresh):
        with self._store_lock:
            self._grown.update(oid for oid, _ in existing)
            self._store.update(fresh)

    def collect(self, min_active_ts: int) -> int:
        pruned = 0
        with self._store_lock:
            grown, self._grown = self._grown, set()
        still = []
        for oid in grown:
            chain = self._store[oid]
            with chain.lock:
                i = version_index(chain.stamps, min_active_ts)
                if i > 0:
                    del chain.stamps[:i]
                    del chain.values[:i]
                    del chain.max_readers[:i]
                    pruned += i
                if len(chain.stamps) > 1:
                    still.append(oid)
        if still:
            with self._store_lock:
                self._grown.update(still)
        return pruned

    def read_committed(self, oid: int):
        chain = self._entry(oid)
        with chain.lock:
            return chain.values[-1]

    def object_meta(self, oid: int) -> dict:
        chain = self._entry(oid)
        with chain.lock:
            return {
                "stamps": list(chain.stamps),
                "values": list(chain.values),
                "max_readers": list(chain.max_readers),
                "writer_ts": chain.stamps[-1],
            }
