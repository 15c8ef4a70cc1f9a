"""Multiversion timestamp ordering.

Objects keep a chain of committed versions sorted by writer stamp.  The
newest version lives in the chain's own slots, named as in a bto entry
(`max_write`, its stamp; `value`; `max_read`, its largest reader
stamp); the parallel lists `stamps`, `values` and `max_readers` hold
only the older versions, oldest first, and are empty for an object
written once.  A read never blocks and never aborts: it takes the
newest version older than the reader and raises that version's reader
stamp.  A reader younger than the newest version, the common case, is
served by the read bto uses (`LockedStore.on_read`); only an older
reader calls `_Chain.read_older`, which searches the lists with
`version_index`.  A commit may only slot a new version between a
predecessor and its readers when no reader younger than the writer has
already seen the predecessor; otherwise the version would arrive too
late and the writer aborts.
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

from ..errors import AbortReason, NoVisibleVersion
from .base import LockedStore


def version_index(stamps, ts):
    """Index of the newest stamp strictly below ts, or -1 if none.

    stamps must be sorted ascending with no duplicates.
    """
    return bisect_left(stamps, ts) - 1


class _Chain:
    __slots__ = ("lock", "max_write", "value", "max_read",
                 "stamps", "values", "max_readers")

    def __init__(self, stamp, value):
        self.lock = threading.Lock()
        self.max_write = stamp  # the newest version
        self.value = value
        self.max_read = 0
        self.stamps = []  # the older versions, oldest first
        self.values = []
        self.max_readers = []

    def read_older(self, ts, oid):
        i = version_index(self.stamps, ts)
        if i < 0:
            raise NoVisibleVersion(f"object {oid} before ts {ts}")
        if ts > self.max_readers[i]:
            self.max_readers[i] = ts
        return self.stamps[i], self.values[i]

    def admits(self, ts):
        # the predecessor's readers must all be older than the incoming
        # version, or they read the wrong value
        if ts > self.max_write:
            return self.max_read <= ts
        i = version_index(self.stamps, ts)
        return i < 0 or self.max_readers[i] <= ts

    def install(self, ts, value):
        if ts > self.max_write:
            self.stamps.append(self.max_write)
            self.values.append(self.value)
            self.max_readers.append(self.max_read)
            self.max_write = ts
            self.value = value
            self.max_read = 0
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
                if chain.max_write < min_active_ts:
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

    def object_meta(self, oid: int) -> dict:
        chain = self._entry(oid)
        with chain.lock:
            return {
                "stamps": chain.stamps + [chain.max_write],
                "values": chain.values + [chain.value],
                "max_readers": chain.max_readers + [chain.max_read],
                "writer_ts": chain.max_write,
            }
