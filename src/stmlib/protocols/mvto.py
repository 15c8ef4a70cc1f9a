"""Multiversion timestamp ordering.

Objects keep a chain of committed versions sorted by writer stamp.  The
newest version lives in the chain's own slots (`stamp`, `value`,
`max_reader`); the parallel lists `stamps`, `values` and `max_readers`
hold only the older versions, oldest first, and are empty for an
object written once.  A read never blocks and never aborts: it takes
the newest version older than the reader and raises that version's
reader stamp.  A reader younger than the newest version, the common
case, reads the slots, which costs what a bto read costs; only an
older reader searches the lists with `version_index`.  A commit may
only slot a new version between a predecessor and its readers when no
reader younger than the writer has already seen the predecessor;
otherwise the version would arrive too late and the writer aborts.
An abort leaves the reader stamps it raised in place: such a phantom
reader only costs a later writer a retry.

Old versions are pruned once no live transaction can reach them: the
newest version below the oldest active stamp stays, everything older
goes.  A pass visits only the chains that may hold old versions: a
commit marks each chain it adds a version to, and a pass takes the
marks, prunes those chains and marks again any whose lists are still
not empty.  A one-version chain never prunes, so skipping the unmarked
chains frees exactly what a pass over every chain would.

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
    __slots__ = ("lock", "stamp", "value", "max_reader",
                 "stamps", "values", "max_readers")

    def __init__(self, stamp, value):
        self.lock = threading.Lock()
        self.stamp = stamp  # the newest version
        self.value = value
        self.max_reader = 0
        self.stamps = []  # the older versions, oldest first
        self.values = []
        self.max_readers = []

    def admits(self, ts):
        # the predecessor's readers must all be older than the incoming
        # version, or they read the wrong value
        if ts > self.stamp:
            return self.max_reader <= ts
        i = version_index(self.stamps, ts)
        return i < 0 or self.max_readers[i] <= ts

    def install(self, ts, value):
        if ts > self.stamp:
            self.stamps.append(self.stamp)
            self.values.append(self.value)
            self.max_readers.append(self.max_reader)
            self.stamp = ts
            self.value = value
            self.max_reader = 0
        else:
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
                if ts > chain.stamp:
                    if ts > chain.max_reader:
                        chain.max_reader = ts
                    rec = self.engine.recorder
                    if rec is not None:
                        rec.record_read(ts, oid, chain.stamp)
                    value = read_set[oid] = chain.value
                else:
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
                if chain.stamp < min_active_ts:
                    i = len(chain.stamps)  # the newest version covers them all
                else:
                    i = version_index(chain.stamps, min_active_ts)
                if i > 0:
                    del chain.stamps[:i]
                    del chain.values[:i]
                    del chain.max_readers[:i]
                    pruned += i
                if chain.stamps:
                    still.append(oid)
        if still:
            with self._store_lock:
                self._grown.update(still)
        return pruned

    def read_committed(self, oid: int):
        chain = self._entry(oid)
        with chain.lock:
            return chain.value

    def object_meta(self, oid: int) -> dict:
        chain = self._entry(oid)
        with chain.lock:
            return {
                "stamps": chain.stamps + [chain.stamp],
                "values": chain.values + [chain.value],
                "max_readers": chain.max_readers + [chain.max_reader],
                "writer_ts": chain.stamp,
            }
