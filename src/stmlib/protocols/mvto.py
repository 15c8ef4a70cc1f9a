"""Multiversion timestamp ordering.

Objects keep a chain of committed versions sorted by writer stamp.  A
read never blocks and never aborts: it takes the newest version older
than the reader and raises that version's reader stamp.  A commit may
only slot a new version between a predecessor and its readers when no
reader younger than the writer has already seen the predecessor;
otherwise the version would arrive too late and the writer aborts.

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
from .base import BackendBase


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


class MvtoBackend(BackendBase):
    name = "mvto"
    default_gc_period = 256

    def __init__(self):
        super().__init__()
        self._store: dict[int, _Chain] = {}
        self._store_lock = threading.Lock()
        self._grown: set[int] = set()  # oids of chains that may hold old versions

    def seed(self, oid: int, value):
        with self._store_lock:
            self._store[oid] = _Chain(0, value)

    def on_read(self, txn, oid: int):
        chain = self._store.get(oid)
        if chain is None:
            raise NotFound(f"object {oid}")
        ts = txn.ts
        with chain.lock:
            i = version_index(chain.stamps, ts)
            if i < 0:
                raise NoVisibleVersion(f"object {oid} before ts {ts}")
            max_readers = chain.max_readers
            if ts > max_readers[i]:
                max_readers[i] = ts
            rec = self.engine.recorder
            if rec is not None:
                rec.record_read(ts, oid, chain.stamps[i])
            return chain.values[i]

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
            chain = self._store.get(oid)
            if chain is None:
                fresh.append(oid)
            else:
                existing.append((oid, chain))
        for _, chain in existing:
            chain.lock.acquire()
        try:
            for _, chain in existing:
                i = version_index(chain.stamps, ts)
                # the predecessor's readers must all be older than the
                # incoming version, or they read the wrong value
                if i >= 0 and chain.max_readers[i] > ts:
                    return AbortReason.OBSOLETE_VERSION
            for oid, chain in existing:
                i = version_index(chain.stamps, ts) + 1
                chain.stamps.insert(i, ts)
                chain.values.insert(i, txn.write_set[oid])
                chain.max_readers.insert(i, 0)
            with self._store_lock:
                self._grown.update(oid for oid, _ in existing)
                for oid in fresh:
                    self._store[oid] = _Chain(ts, txn.write_set[oid])
            if rec is not None:
                rec.record_commit(ts)
            return None
        finally:
            for _, chain in existing:
                chain.lock.release()

    def on_abort(self, txn):
        pass  # reader stamps stay; a phantom reader only costs a writer retry

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
        chain = self._store.get(oid)
        if chain is None:
            raise NotFound(f"object {oid}")
        with chain.lock:
            return chain.values[-1]

    def object_count(self) -> int:
        return len(self._store)

    def object_meta(self, oid: int) -> dict:
        chain = self._store.get(oid)
        if chain is None:
            raise NotFound(f"object {oid}")
        with chain.lock:
            return {
                "stamps": list(chain.stamps),
                "values": list(chain.values),
                "max_readers": list(chain.max_readers),
                "writer_ts": chain.stamps[-1],
            }
