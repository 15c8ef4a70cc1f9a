"""Run histories and the conflict-serializability checker.

The engine appends one event per shared-memory effect to a
HistoryRecorder: first reads (with the writer stamp they observed),
write intents, commits and aborts.  After a run terminates, the
recorded history can be checked for conflict-serializability, which
yields a witness order over the committed transactions, and that
witness can be replayed at the set-operation level to confirm the run
is equivalent to a sequential execution.

The check reads each event once, bucketing commits, aborts, and per
object its reads and writers.  From those buckets it draws the
precedence graph straight into successor lists and in-degree counts;
an edge drawn twice is kept twice, which Kahn's topological sort
handles by consuming each copy.  Time and memory are linear in the
number of events apart from sorting each object's writers and the heap
that picks the smallest ready timestamp.

Transaction ids equal transaction timestamps throughout; each retry of
a set operation is a fresh transaction with a fresh stamp.

Trace files persist one event per line as space-separated decimal
integers, `seq txn ts kind oid [version_ts]`, with kind encoded as
0=read, 1=write-intent, 2=commit, 3=abort and oid 0 where an event has
no object.  Lines starting with `#` are metadata or comments.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .errors import IncompleteHistory, WitnessInvalid

READ = 0
WRITE = 1
COMMIT = 2
ABORT = 3

_KIND_NAMES = {READ: "read", WRITE: "write", COMMIT: "commit", ABORT: "abort"}


class Event(NamedTuple):
    seq: int
    txn: int
    ts: int
    kind: int
    oid: int
    version_ts: int | None


class OpRecord(NamedTuple):
    """Outcome of one committed set-level operation."""

    kind: str  # add | remove | contains | snapshot
    key: int | None
    applied: bool
    payload: tuple | None  # snapshot contents, when kind == "snapshot"


@dataclass
class History:
    events: list[Event] = field(default_factory=list)
    set_ops: dict[int, OpRecord] = field(default_factory=dict)
    protocol: str | None = None
    final_snapshot: list[int] | None = None

    @property
    def multiversion(self) -> bool:
        return self.protocol == "mvto"

    def committed_txns(self) -> set[int]:
        return {e.txn for e in self.events if e.kind == COMMIT}


@dataclass
class Verdict:
    serializable: bool
    witness: list[int] | None = None
    cycle: list[int] | None = None


class HistoryRecorder:
    """Thread-safe append-only event log.

    A disabled recorder turns every record call into an immediate
    return so timing runs pay nothing beyond the flag check.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.protocol: str | None = None
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._set_ops: dict[int, OpRecord] = {}
        self._seq = 0

    def _append(self, txn, kind, oid, version_ts):
        with self._lock:
            self._seq += 1
            self._events.append(Event(self._seq, txn, txn, kind, oid, version_ts))

    def record_read(self, txn: int, oid: int, observed_ts: int):
        if self.enabled:
            self._append(txn, READ, oid, observed_ts)

    def record_write_intent(self, txn: int, oid: int):
        if self.enabled:
            self._append(txn, WRITE, oid, None)

    def record_commit(self, txn: int):
        if self.enabled:
            self._append(txn, COMMIT, 0, None)

    def record_abort(self, txn: int):
        if self.enabled:
            self._append(txn, ABORT, 0, None)

    def note_set_op(self, txn: int, kind: str, key, applied: bool, payload=None):
        if self.enabled:
            with self._lock:
                self._set_ops[txn] = OpRecord(kind, key, applied, payload)

    def __len__(self):
        return len(self._events)

    def history(self) -> History:
        with self._lock:
            return History(
                events=list(self._events),
                set_ops=dict(self._set_ops),
                protocol=self.protocol,
            )


def _precedence_graph(events: list[Event], multiversion: bool):
    """Successor lists and in-degrees over the committed transactions.

    One scan buckets the events: the commit seq of each committed txn,
    the aborted txns, and per object its reads `(seq, txn, version_ts)`
    and its writers.  Aborted transactions never published an effect
    and draw no edge.

    Write-write edges join consecutive committed writers of an object.
    Single-version rules order read effects at their read seq and write
    effects at their writer's commit seq, and draw each committed read's
    edges to its nearest enclosing writes.  Multiversion rules order
    versions by writer stamp, and draw a reads-from edge from the version
    a read observed plus an edge to the next committed writer in version
    order, which chains to the rest.  Either way the edge count stays
    linear while reachability, and therefore cycles and topological
    orders, of the full conflict relation is preserved.  Edges are
    appended without removing duplicates: Kahn's algorithm consumes
    every copy when its source is emitted.
    """
    commit_seq: dict[int, int] = {}
    aborted: set[int] = set()
    reads: defaultdict[int, list] = defaultdict(list)
    writers: defaultdict[int, set[int]] = defaultdict(set)
    for seq, txn, _ts, kind, oid, version_ts in events:
        if kind == READ:
            reads[oid].append((seq, txn, version_ts))
        elif kind == WRITE:
            writers[oid].add(txn)
        elif kind == COMMIT:
            commit_seq[txn] = seq
        elif kind == ABORT:
            aborted.add(txn)
    hanging = set(map(itemgetter(1), events)).difference(commit_seq, aborted)
    if hanging:
        raise IncompleteHistory(f"{len(hanging)} transaction(s) never terminated")

    succ: dict[int, list[int]] = {t: [] for t in commit_seq}
    indeg = dict.fromkeys(commit_seq, 0)
    for oid, txns in writers.items():
        if multiversion:
            ws = order = sorted(t for t in txns if t in commit_seq)  # txn id == ts
        else:
            by_commit = sorted((commit_seq[t], t) for t in txns if t in commit_seq)
            order = [s for s, _ in by_commit]
            ws = [t for _, t in by_commit]
        if not ws:
            continue
        for a, b in zip(ws, ws[1:]):
            succ[a].append(b)
            indeg[b] += 1
        n = len(ws)
        for rseq, reader, version_ts in reads.get(oid, ()):
            if reader not in commit_seq:
                continue
            if multiversion:
                # The read's own version, when a committed writer made it.
                i = bisect_left(order, version_ts + 1)
                before = version_ts if i and version_ts and ws[i - 1] == version_ts else None
            else:
                # A transaction's own write commits after its reads, so
                # the preceding write can never be the reader's.
                i = bisect_left(order, rseq)
                before = ws[i - 1] if i else None
            if before is not None:
                succ[before].append(reader)
                indeg[reader] += 1
            if i < n and ws[i] != reader:
                succ[reader].append(ws[i])
                indeg[ws[i]] += 1
    return succ, indeg


def _find_cycle(succ: dict[int, list[int]], remaining: list[int]):
    """One directed cycle among the nodes Kahn's algorithm left over.

    Every leftover node keeps an in-edge from another leftover node, so
    walking predecessors backward must repeat a node; the walk is cut
    down to that loop.
    """
    left = set(remaining)
    pred = {b: a for a in remaining for b in succ[a] if b in left}
    node = remaining[0]
    seen: dict[int, int] = {}
    walk = []
    while node not in seen:
        seen[node] = len(walk)
        walk.append(node)
        node = pred[node]
    cycle = walk[seen[node] :]
    cycle.reverse()
    return cycle


def check_conflict_serializability(
    history: History, *, multiversion: bool | None = None
) -> Verdict:
    """Decide whether the committed part of a history is serializable.

    Aborted transactions never published an effect and are ignored.
    With multiversion=None the history's recorded protocol decides how
    read-write conflicts are ordered.  The witness is the topological
    order that always emits the smallest ready timestamp.
    """
    if multiversion is None:
        multiversion = history.multiversion
    succ, indeg = _precedence_graph(history.events, multiversion)
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) != len(indeg):
        remaining = [n for n, d in indeg.items() if d]
        return Verdict(serializable=False, cycle=_find_cycle(succ, remaining))
    return Verdict(serializable=True, witness=order)


def replay_check(
    history: History, witness: list[int], final_snapshot: list[int]
) -> bool:
    """Replay committed set operations serially in witness order.

    Returns True when every recorded applied/not-applied outcome and
    the final membership match the sequential reference execution.
    """
    committed = history.committed_txns()
    if set(witness) != committed or len(witness) != len(committed):
        raise WitnessInvalid("witness is not a permutation of the committed txns")
    reference: set[int] = set()
    for txn in witness:
        op = history.set_ops.get(txn)
        if op is None:
            continue
        if op.kind == "add":
            ok = op.key not in reference
            reference.add(op.key)
        elif op.kind == "remove":
            ok = op.key in reference
            reference.discard(op.key)
        elif op.kind == "contains":
            ok = op.key in reference
        elif op.kind == "snapshot":
            ok = op.payload is None or list(op.payload) == sorted(reference)
        else:
            raise WitnessInvalid(f"unknown op kind {op.kind!r}")
        if ok != op.applied:
            return False
    return sorted(reference) == list(final_snapshot)


def save_trace(history: History, path):
    with open(path, "w", encoding="ascii") as fh:
        if history.protocol:
            fh.write(f"# protocol={history.protocol}\n")
        for e in history.events:
            if e.kind == READ:
                fh.write(f"{e.seq} {e.txn} {e.ts} {e.kind} {e.oid} {e.version_ts}\n")
            else:
                fh.write(f"{e.seq} {e.txn} {e.ts} {e.kind} {e.oid}\n")


def load_trace(path) -> History:
    """Read a trace written by save_trace.

    A line with a non-integer field or fewer than five fields raises
    ValueError naming path:line.
    """
    history = History()
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "protocol=" in line:
                    history.protocol = line.split("protocol=", 1)[1].split()[0]
                continue
            try:
                parts = [int(p) for p in line.split()]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            if len(parts) < 5:
                raise ValueError(f"{path}:{lineno}: {len(parts)} fields, expected at least 5")
            seq, txn, ts, kind, oid = parts[:5]
            version_ts = parts[5] if len(parts) > 5 else None
            history.events.append(Event(seq, txn, ts, kind, oid, version_ts))
    return history
