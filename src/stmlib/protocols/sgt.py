"""Serialization graph testing.

Transactions are nodes in a conflict graph.  Reads draw edges from the
committed writers of the object, commits draw edges from every node
that read or wrote an object in the write set, and begins draw
real-time edges from every transaction already committed.  An operation
that would close a cycle aborts its transaction instead.  Every graph
mutation, the matching store access and the history record for it
happen under one graph lock: admitting an operation under the lock but
letting its effect land later would let two admissions take effect in
the opposite order, certifying an execution that never happened.

Objects carry no reader marks.  Each graph-resident node keeps the set
of objects it has read, and a writing commit tests every such set
against its write set, at O(graph-resident nodes x |write set|).  That
adds nothing asymptotically: the transaction's begin already walked
every graph-resident node.  In exchange a read is one set insert, and
retiring a node drops its read set whole.

A cycle is searched for only from a node that has an out-edge: a node
with none cannot lie on a cycle, however many in-edges it gains.  Every
edge a read, a commit or a begin draws points into the transaction
doing it, so a live transaction gains an out-edge only when another
transaction's commit overwrites an object it has read, and most reads
skip the search.

Committed nodes cannot be dropped immediately: a transaction that
overlapped one may still pick up an edge through it.  A commit C
therefore queues its node with a tag, the engine's next begin stamp
read under the graph lock, and the collector frees queued nodes from
the front while their tag is at most the engine's oldest active stamp.
Every transaction live at C's commit has already taken its stamp, so
that stamp is below C's tag, and it stays in the engine's live set
until it has terminated here.  The engine's live set thus contains the
graph's live nodes, and C is freed only once every transaction that
overlapped its commit has ended; a collector that reads a stale oldest
stamp frees less, never more.  Tags grow in commit order, so the queue
is sorted by tag and a pass costs only what it frees.

The cycle search stays the module-level function `node_on_cycle`,
looked up as a module global, because the traced benchmark wraps it by
that name.
"""

from __future__ import annotations

import threading
from collections import deque

from ..errors import AbortReason, NotFound
from .base import BackendBase, ProtocolRefused

_LIVE = 0
_COMMITTED = 1


def node_on_cycle(adj, start):
    """True if start can reach itself through at least one edge.

    adj maps node -> iterable of successor nodes; nodes absent from adj
    have no successors.
    """
    stack = list(adj.get(start, ()))
    seen = set()
    while stack:
        node = stack.pop()
        if node == start:
            return True
        if node in seen:
            continue
        seen.add(node)
        succ = adj.get(node)
        if succ:
            stack.extend(succ)
    return False


class _Entry:
    __slots__ = ("value", "writer_ts", "writers")

    def __init__(self, value, writer_ts=0):
        self.value = value
        self.writer_ts = writer_ts
        self.writers: set[int] = set()  # graph-resident committed writers


class SgtBackend(BackendBase):
    name = "sgt"
    default_gc_period = 1  # stale committed nodes tax every cycle check

    def __init__(self):
        super().__init__()
        self._glock = threading.Lock()
        self._store: dict[int, _Entry] = {}
        self._out: dict[int, set[int]] = {}
        self._in: dict[int, set[int]] = {}
        self._status: dict[int, int] = {}
        self._retired: deque[tuple[int, int]] = deque()  # (tag, ts), commit order
        self._reads_of: dict[int, set[int]] = {}  # keyed by every graph-resident node
        self._writes_of: dict[int, set[int]] = {}

    # -- engine hooks -------------------------------------------------

    def on_begin(self, txn):
        ts = txn.ts
        with self._glock:
            self._out[ts] = set()
            self._in[ts] = set()
            self._reads_of[ts] = set()
            for node, status in self._status.items():
                if status == _COMMITTED:
                    self._add_edge(node, ts)
            self._status[ts] = _LIVE

    def on_read(self, txn, oid: int):
        ts = txn.ts
        with self._glock:
            entry = self._store.get(oid)
            if entry is None:
                raise NotFound(f"object {oid}")
            for writer in entry.writers:
                if writer != ts:
                    self._add_edge(writer, ts)
            if self._out[ts] and node_on_cycle(self._out, ts):
                self._unlink(ts)
                raise ProtocolRefused(AbortReason.CYCLE_DETECTED)
            self._reads_of[ts].add(oid)
            rec = self.engine.recorder
            if rec is not None:
                rec.record_read(ts, oid, entry.writer_ts)
            return entry.value

    def commit(self, txn):
        ts = txn.ts
        write_set = txn.write_set
        with self._glock:
            for reader, reads in self._reads_of.items():
                if reader != ts and not reads.isdisjoint(write_set):
                    self._add_edge(reader, ts)
            for oid in write_set:
                entry = self._store.get(oid)
                if entry is None:
                    continue  # fresh object, no conflicts possible
                for writer in entry.writers:
                    if writer != ts:
                        self._add_edge(writer, ts)
            if self._out[ts] and node_on_cycle(self._out, ts):
                self._unlink(ts)
                return AbortReason.CYCLE_DETECTED
            writes = self._writes_of.setdefault(ts, set())
            for oid, value in write_set.items():
                entry = self._store.get(oid)
                if entry is None:
                    entry = _Entry(value)
                    self._store[oid] = entry
                entry.value = value
                entry.writer_ts = ts
                entry.writers.add(ts)
                writes.add(oid)
            self._status[ts] = _COMMITTED
            self._retired.append((self.engine._next_ts, ts))
            rec = self.engine.recorder
            if rec is not None:
                rec.record_commit(ts)
            return None

    def on_abort(self, txn):
        with self._glock:
            self._unlink(txn.ts)

    # -- graph maintenance --------------------------------------------

    def _add_edge(self, a: int, b: int):
        self._out[a].add(b)
        self._in[b].add(a)

    def _unlink(self, ts: int):
        """Remove a node, its edges, reads and writer marks; absent is fine."""
        for pred in self._in.pop(ts, ()):
            self._out[pred].discard(ts)
        for succ in self._out.pop(ts, ()):
            self._in[succ].discard(ts)
        self._status.pop(ts, None)
        self._reads_of.pop(ts, None)
        for oid in self._writes_of.pop(ts, ()):
            self._store[oid].writers.discard(ts)

    def collect(self, min_active_ts: int) -> int:
        freed = 0
        with self._glock:
            retired = self._retired
            while retired and retired[0][0] <= min_active_ts:
                self._unlink(retired.popleft()[1])
                freed += 1
        return freed

    # -- store access -------------------------------------------------

    def seed(self, oid: int, value):
        with self._glock:
            self._store[oid] = _Entry(value)

    def read_committed(self, oid: int):
        with self._glock:
            entry = self._store.get(oid)
            if entry is None:
                raise NotFound(f"object {oid}")
            return entry.value

    def object_count(self) -> int:
        with self._glock:
            return len(self._store)

    def object_meta(self, oid: int) -> dict:
        with self._glock:
            entry = self._store.get(oid)
            if entry is None:
                raise NotFound(f"object {oid}")
            return {
                "value": entry.value,
                "writer_ts": entry.writer_ts,
                "readers": sorted(ts for ts, reads in self._reads_of.items() if oid in reads),
                "writers": sorted(entry.writers),
            }

    # -- introspection ------------------------------------------------

    def graph_size(self) -> int:
        with self._glock:
            return len(self._status)

    def graph_snapshot(self) -> dict[int, list[int]]:
        with self._glock:
            return {ts: sorted(succ) for ts, succ in self._out.items()}
