"""Serialization graph testing.

Transactions are nodes in a conflict graph.  Reads draw edges from the
committed writers of the object, commits draw edges from every node
that read or wrote an object in the write set, and begins draw
real-time edges from every transaction already committed.  An operation
that would close a cycle aborts its transaction instead, and unlinks
its node before it releases the graph lock, although the engine's
on_abort unlinks it again: in between, another transaction's cycle
search could pass through the refused node's edges.  Every graph
mutation, the matching store access and the history record for it
happen under one graph lock: admitting an operation under the lock but
letting its effect land later would let two admissions take effect in
the opposite order, certifying an execution that never happened.  The
graph lock is the `_store_lock` of the store all backends share, and
every entry holds it as its `lock`, so the store calls `BackendBase`
provides (seed, object_count, read_committed) take the graph lock too.

Objects carry no reader marks.  Each graph-resident node keeps the
objects it has read: its `_reads_of` entry is the transaction's own
read set, bound at begin and filled by `on_read` under the graph lock.
A writing commit tests every such set against its write set, at
O(graph-resident nodes x |write set|).  That adds nothing
asymptotically: the transaction's begin already walked every
graph-resident node.  In exchange a read stores nothing that the
transaction does not keep anyway, and retiring a node drops its read
set whole.

A cycle is searched for only from a node that has an out-edge: a node
with none cannot lie on a cycle, however many in-edges it gains.  Every
edge a read, a commit or a begin draws points into the transaction
doing it, so a live transaction gains an out-edge only when another
transaction's commit overwrites an object it has read, and most reads
skip the search.

The graph keeps out-edges only.  Unlinking a node drops its out-edges,
reads and writer marks, and leaves each edge into it behind as a stale
id.  Edges start at resident nodes and end at the live transaction
acting, and stamps are never reused, so no stale id names a node again:
the cycle search reads it as a node with no successors, and every
verdict is the one eager edge removal gives.  A live node's out-edges
point only to committed resident nodes or to committers aborted on a
cycle (or by a recorder that raised), as a committed node stays
resident while any transaction that overlapped its commit is live
(below).  So the out-edge skip holds: a stale id can only let through
a search that eager removal would have skipped, and that search visits
the id and reports no cycle.

Committed nodes cannot be dropped immediately: a transaction that
overlapped one may still pick up an edge through it.  A commit C
therefore queues its node and write set with a tag, the engine's next
begin stamp read under the graph lock, and the collector frees queued
nodes from the front while their tag is at most the engine's oldest
active stamp.  Every transaction live at C's commit has already taken
its stamp, so that stamp is below C's tag, and it stays in the engine's
live set until it has terminated here.  The engine's live set thus
contains the graph's live nodes, and C is freed only once every
transaction that overlapped its commit has ended; a collector that
reads a stale oldest stamp frees less, never more.  Tags grow in commit
order, so the queue is sorted by tag and a pass costs only what it
frees.  The queue holds exactly the committed resident nodes, so a
begin draws its real-time edges by walking it.

The cycle search stays the module-level function `node_on_cycle`,
looked up as a module global, because the traced benchmark wraps it by
that name.
"""

from __future__ import annotations

from collections import deque

from ..errors import AbortReason, NotFound, TransactionAborted
from .base import ABORTED, LIVE, BackendBase


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
    __slots__ = ("lock", "value", "writer_ts", "writers")

    def __init__(self, lock, writer_ts, value):
        self.lock = lock  # the backend's graph lock
        self.value = value
        self.writer_ts = writer_ts
        self.writers: set[int] = set()  # graph-resident committed writers


class SgtBackend(BackendBase):
    name = "sgt"
    gc_period = 1  # stale committed nodes tax every cycle check

    def __init__(self):
        super().__init__()
        self._glock = self._store_lock  # guards the graph, the store and the record
        self._out: dict[int, set[int]] = {}  # keyed by every graph-resident node
        self._reads_of: dict[int, dict] = {}  # node -> its transaction's read_set
        self._retired: deque[tuple[int, int, dict]] = deque()  # (tag, ts, write set), commit order

    def entry_type(self, stamp, value):
        return _Entry(self._glock, stamp, value)

    # -- engine hooks -------------------------------------------------

    def on_begin(self, txn):
        ts = txn.ts
        with self._glock:
            out = self._out
            for _, node, _ in self._retired:
                out[node].add(ts)
            out[ts] = set()
            self._reads_of[ts] = txn.read_set

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
            ts = txn.ts
            lock = self._glock
            lock.acquire()
            try:
                try:
                    entry = self._store[oid]
                except KeyError:
                    raise NotFound(f"object {oid}") from None
                out = self._out
                writers = entry.writers
                if writers:
                    for writer in writers:
                        if writer != ts:
                            out[writer].add(ts)
                if out[ts] and node_on_cycle(out, ts):
                    self._unlink(ts)
                    raise TransactionAborted(AbortReason.CYCLE_DETECTED)
                # read_set is this node's _reads_of entry: filled under the lock
                value = read_set[oid] = entry.value
                rec = self.engine.recorder
                if rec is not None:
                    rec.record_read(ts, oid, entry.writer_ts)
            finally:
                lock.release()
        except BaseException:
            self.engine._retire(txn, ABORTED)
            raise
        return value

    def commit(self, txn):
        ts = txn.ts
        write_set = txn.write_set
        with self._glock:
            out = self._out
            for reader, reads in self._reads_of.items():
                if reader != ts and not reads.keys().isdisjoint(write_set):
                    out[reader].add(ts)
            for oid in write_set:
                entry = self._store.get(oid)
                if entry is None:
                    continue  # fresh object, no conflicts possible
                for writer in entry.writers:
                    if writer != ts:
                        out[writer].add(ts)
            if out[ts] and node_on_cycle(out, ts):
                self._unlink(ts)
                return AbortReason.CYCLE_DETECTED
            rec = self.engine.recorder
            if rec is not None:
                rec.record_commit(ts, write_set)
            for oid, value in write_set.items():
                entry = self._store.get(oid)
                if entry is None:
                    entry = self._store[oid] = _Entry(self._glock, ts, value)
                else:
                    entry.value = value
                    entry.writer_ts = ts
                entry.writers.add(ts)
            self._retired.append((self.engine._next_ts, ts, write_set))
            return None

    def on_abort(self, txn):
        with self._glock:
            self._unlink(txn.ts)

    # -- graph maintenance --------------------------------------------

    def _unlink(self, ts: int):
        """Remove a node's out-edges and reads; absent is fine."""
        self._out.pop(ts, None)
        self._reads_of.pop(ts, None)

    def collect(self, min_active_ts: int) -> int:
        freed = 0
        with self._glock:
            retired = self._retired
            while retired and retired[0][0] <= min_active_ts:
                _, ts, write_set = retired.popleft()
                self._unlink(ts)
                for oid in write_set:
                    self._store[oid].writers.discard(ts)
                freed += 1
        return freed

    # -- introspection ------------------------------------------------

    def object_meta(self, oid: int) -> dict:
        entry = self._entry(oid)
        with entry.lock:
            return {
                "value": entry.value,
                "writer_ts": entry.writer_ts,
                "readers": sorted(ts for ts, reads in self._reads_of.items() if oid in reads),
                "writers": sorted(entry.writers),
            }

    def graph_size(self) -> int:
        with self._glock:
            return len(self._out)

    def graph_snapshot(self) -> dict[int, list[int]]:
        """Out-edges of every graph-resident node, stale ids left out."""
        with self._glock:
            out = self._out
            return {ts: sorted(n for n in succ if n in out) for ts, succ in out.items()}
