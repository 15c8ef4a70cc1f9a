"""Run histories and the conflict-serializability checker.

The engine appends one event per shared-memory effect to a
HistoryRecorder: first reads (with the writer stamp they observed),
the writes a commit published, commits and aborts.  A write stays
private until its commit, so the commit logs its write set as WRITE
events directly before its COMMIT, from the same critical section; a
refused or failed commit logs no WRITE.  After a run terminates, the
recorded history can be checked for conflict-serializability, which
yields a witness order over the committed transactions, and that
witness can be replayed at the set-operation level to confirm the run
is equivalent to a sequential execution.

The recorder keeps its log as one flat list, four entries per event
(`txn, kind, oid, version_ts`), extended under its lock; an event's seq
is its position.  It builds no object per event while the run goes on,
because CPython's cyclic collector never stops tracking a NamedTuple
instance: an `Event` per effect kept every recorded event on every full
collection for as long as the recorder lived.  `HistoryRecorder.history`
materialises the `Event` and `OpRecord` objects in one pass when the
run is over, moving that cost out of the recording path.

The check draws the precedence graph as groups `(w, readers, t)`: the
edges from writer w to each reader, from each reader other than t to
the next writer t, and from w to t.  A single-version history (bto,
sgt, or no protocol) is drawn in one scan in seq order, with O(1)
state per object: reads take effect at their seq and writes at their
commit (Papadimitriou 1979).  An mvto history is bucketed by object
and by the version each read observed, and ordered by writer stamp.
Either way each read gets edges to its nearest enclosing writes, so
the edge count stays linear while reachability, and therefore cycles
and topological orders, of the full conflict relation is kept.  When
every edge points to a larger stamp, as timestamp ordering guarantees
(Bernstein, Hadzilacos & Goodman 1987, ch. 4), stamp order is the
witness; only otherwise are in-degrees built and Kahn's heap run.

Transaction ids equal transaction timestamps throughout; each retry of
a set operation is a fresh transaction with a fresh stamp.

Trace files persist one event per line as space-separated decimal
integers, `seq txn ts kind oid [version_ts]`, with kind encoded as
0=read, 1=write, 2=commit, 3=abort and oid 0 where an event has
no object.  Lines starting with `#` are metadata or comments.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import IncompleteHistory, WitnessInvalid
from .protocols import PROTOCOLS

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
        # Indexing a tuple is cheaper than looking up a NamedTuple field.
        return {e[1] for e in self.events if e[3] == COMMIT}


@dataclass
class Verdict:
    serializable: bool
    witness: list[int] | None = None
    cycle: list[int] | None = None


class HistoryRecorder:
    """Thread-safe append-only event log.

    Each event is four consecutive entries of one flat list, `txn, kind,
    oid, version_ts`, appended under the recorder lock, so the log order
    is the order of the callers' critical sections; an event's seq is
    its position, counting from 1.  `record_commit` takes the writes
    the commit published and logs them, then the COMMIT, in one append.
    `record_write_intent` logs a single WRITE for callers that build a
    history by hand; the engine never calls it.  Set-level outcomes are
    kept as plain tuples keyed by txn.  The list is one object to the
    cyclic collector
    and holds only untracked ints, and a plain tuple of atoms is untracked
    by the first collection it survives; an `Event` NamedTuple per effect
    would stay tracked for the recorder's whole life.  `history()` builds
    the `Event` and `OpRecord` objects once, in one pass.

    To record nothing, attach no recorder: the engine and the backends
    skip every record call when `Engine.recorder` is None.
    """

    def __init__(self):
        self.protocol: str | None = None
        self._lock = threading.Lock()
        self._log: list[int | None] = []  # txn, kind, oid, version_ts per event
        self._set_ops: dict[int, tuple] = {}  # txn -> OpRecord fields

    def _append(self, txn, kind, oid, version_ts):
        with self._lock:
            self._log += (txn, kind, oid, version_ts)

    def record_read(self, txn: int, oid: int, observed_ts: int):
        self._append(txn, READ, oid, observed_ts)

    def record_write_intent(self, txn: int, oid: int):
        self._append(txn, WRITE, oid, None)

    def record_commit(self, txn: int, writes=()):
        """Log a WRITE per oid in `writes`, then the COMMIT, as one run."""
        events = []
        for oid in writes:
            events += (txn, WRITE, oid, None)
        events += (txn, COMMIT, 0, None)
        with self._lock:
            self._log += events

    def record_abort(self, txn: int):
        self._append(txn, ABORT, 0, None)

    def note_set_op(self, txn: int, kind: str, key, applied: bool, payload=None):
        with self._lock:
            self._set_ops[txn] = (kind, key, applied, payload)

    def __len__(self):
        return len(self._log) // 4

    def history(self) -> History:
        """The log so far as `Event`s with seqs 1..n, and its `OpRecord`s."""
        with self._lock:
            log = self._log
            txns, kinds, oids, versions = log[0::4], log[1::4], log[2::4], log[3::4]
            set_ops = dict(self._set_ops)
        new = tuple.__new__  # what Event._make calls, without its length check
        return History(
            events=list(map(new, repeat(Event), zip(count(1), txns, txns, kinds, oids, versions))),
            set_ops={txn: new(OpRecord, fields) for txn, fields in set_ops.items()},
            protocol=self.protocol,
        )


def _require_complete(events: list[Event], committed: list[int], aborted: list[int]):
    hanging = set(map(itemgetter(1), events)).difference(committed, aborted)
    if hanging:
        raise IncompleteHistory(f"{len(hanging)} transaction(s) never terminated")


def _single_version_groups(events: list[Event]):
    """The committed txns and the conflict-edge groups of a single-version history.

    One scan in seq order: a read takes effect at its seq and a write at
    its transaction's COMMIT.  Per object the scan keeps its latest
    committed writer and the transactions that read it since that
    write; per transaction, the objects it wrote until it ends.  A
    COMMIT closes, for each object it wrote, the group `(w, readers, t)`
    of the previous writer w, the readers since w and the committer t;
    the readers of each object's last version close with t = None at the
    end of the scan.  Readers that abort stay in their groups, to be
    dropped by `_topological_order`.  The scan does O(1) work per event
    and builds no per-object read bucket.

    Events come in seq order, as the recorder and `load_trace` give
    them, and a transaction has no event after its COMMIT or ABORT.  A
    WRITE after its transaction's COMMIT would be published nowhere, so
    it raises ValueError naming the txn.
    """
    last_writer: dict[int, int] = {}
    readers: defaultdict[int, list[int]] = defaultdict(list)
    pending: defaultdict[int, list[int]] = defaultdict(list)  # txn -> oids it wrote
    committed: list[int] = []
    aborted: list[int] = []
    groups: list[tuple] = []
    for _seq, txn, _ts, kind, oid, _version_ts in events:
        if kind == READ:
            readers[oid].append(txn)
        elif kind == WRITE:
            pending[txn].append(oid)
        elif kind == COMMIT:
            committed.append(txn)
            for oid in pending.pop(txn, ()):
                groups.append((last_writer.get(oid), readers.pop(oid, ()), txn))
                last_writer[oid] = txn
        elif kind == ABORT:
            aborted.append(txn)
            pending.pop(txn, None)
    for oid, rs in readers.items():
        groups.append((last_writer.get(oid), rs, None))
    _require_complete(events, committed, aborted)
    if pending:
        late = set(pending).intersection(committed)
        if late:
            raise ValueError(f"WRITE event after the COMMIT of txn {min(late)}")
    return committed, groups


def _multiversion_groups(events: list[Event]):
    """The committed txns and the conflict-edge groups of an mvto history.

    One scan buckets the events: the committed and aborted txns, the
    writers of each object, and the readers of each version, keyed by
    object and the writer stamp the read observed.  Versions are ordered
    by writer stamp, so each committed version forms the group
    `(w, readers of w, next committed writer)`, and the readers of a
    version no committed writer made (the initial one, 0, or an aborted
    writer's) form `(None, readers, next committed writer)`.  Time is
    linear in the number of events apart from sorting each object's
    writers and one bisection per such version.
    """
    committed: list[int] = []
    aborted: list[int] = []
    readers: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    writers: defaultdict[int, set[int]] = defaultdict(set)
    for _seq, txn, _ts, kind, oid, version_ts in events:
        if kind == READ:
            readers[oid, version_ts].append(txn)
        elif kind == WRITE:
            writers[oid].add(txn)
        elif kind == COMMIT:
            committed.append(txn)
        elif kind == ABORT:
            aborted.append(txn)
    _require_complete(events, committed, aborted)

    done = set(committed)
    versions: dict[int, list[int]] = {}  # oid -> its committed writers by stamp
    groups: list[tuple] = []
    while writers:  # popped, so each writer set is freed as its groups are drawn
        oid, txns = writers.popitem()
        ws = versions[oid] = sorted(txns.intersection(done))  # txn id == ts
        w = None
        for t in ws:
            if w is not None:
                groups.append((w, readers.pop((oid, w), ()), t))
            w = t
        rs = readers.pop((oid, w), None)
        if rs:
            groups.append((w, rs, None))
    for (oid, version_ts), rs in readers.items():
        ws = versions.get(oid, ())
        i = bisect_left(ws, version_ts + 1)
        if i < len(ws):
            groups.append((None, rs, ws[i]))
    return committed, groups


def _stamp_ordered(groups: list[tuple]) -> bool:
    """Whether every edge of the groups points to a larger stamp."""
    for w, rs, t in groups:
        if w is not None:
            if t is not None and w >= t:
                return False
            if rs and w >= min(rs):
                return False
        if rs and t is not None and max(rs) > t:
            return False
    return True


def _topological_order(committed: list[int], groups: list[tuple]) -> Verdict:
    """Kahn's order that always emits the smallest ready txn, or a cycle.

    Edges with an end that did not commit are dropped.  An edge drawn
    twice is kept twice: Kahn's algorithm consumes every copy when its
    source is emitted.
    """
    succ: dict[int, list[int]] = {t: [] for t in committed}
    indeg = dict.fromkeys(committed, 0)
    for w, rs, t in groups:
        rs = [r for r in rs if r in indeg]
        if w is not None:
            succ[w] += rs
            for r in rs:
                indeg[r] += 1
            if t is not None:
                succ[w].append(t)
                indeg[t] += 1
        if t is not None:
            for r in rs:
                if r != t:
                    succ[r].append(t)
                    indeg[t] += 1
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


def check_conflict_serializability(history: History) -> Verdict:
    """Decide whether the committed part of a history is serializable.

    Aborted transactions never published an effect and are ignored.
    The history's recorded protocol decides how read-write conflicts
    are ordered: version order for mvto, commit order otherwise.  The
    witness is the topological order that always emits the smallest
    ready timestamp.  When every edge points to a larger stamp, that is
    stamp order: at each step the smallest remaining txn has all its
    predecessors emitted, so it is exactly what the heap would pop.
    Only when some edge points backward are in-degrees built and Kahn's
    heap run.

    Events come in seq order, as the recorder and `load_trace` give
    them.  A transaction that never committed or aborted raises
    IncompleteHistory; in a single-version history a WRITE after its
    transaction's COMMIT raises ValueError.
    """
    build = _multiversion_groups if history.multiversion else _single_version_groups
    committed, groups = build(history.events)
    if _stamp_ordered(groups):
        return Verdict(serializable=True, witness=sorted(committed))
    return _topological_order(committed, groups)


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
    set_ops = history.set_ops
    for txn in witness:
        op = set_ops.get(txn)
        if op is None:
            continue
        kind, key, applied, payload = op
        if kind == "add":
            ok = key not in reference
            reference.add(key)
        elif kind == "remove":
            ok = key in reference
            reference.discard(key)
        elif kind == "contains":
            ok = key in reference
        elif kind == "snapshot":
            ok = payload is None or list(payload) == sorted(reference)
        else:
            raise WitnessInvalid(f"unknown op kind {kind!r}")
        if ok != applied:
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

    A line with a non-ASCII byte, a non-integer field, an event kind
    outside 0..3, a field count other than six for a read (its last
    field the version read) and five for any other kind, a seq that is
    not above the previous line's, a ts other than its txn, an event of
    a transaction that already committed or aborted, and a
    `# protocol=` header with no name or a name outside
    `stmlib.protocols.PROTOCOLS`, raise ValueError naming path:line.
    The single-version rules order conflicts by seq, so a trace whose
    seqs do not increase would be misread, not merely mislabelled; they
    also take a transaction's writes and commit to follow its reads.
    """
    history = History()
    last_seq = None
    ended = set()
    # Undecodable bytes become lone surrogates, so the line that holds
    # one can be named instead of failing somewhere in a read-ahead chunk.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():
                raise ValueError(f"{path}:{lineno}: non-ASCII byte")
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "protocol=" in line:
                    name = line.split("protocol=", 1)[1].split()
                    if not name:
                        raise ValueError(f"{path}:{lineno}: empty protocol name")
                    if name[0] not in PROTOCOLS:
                        raise ValueError(
                            f"{path}:{lineno}: unknown protocol name {name[0]!r}, "
                            f"expected one of {sorted(PROTOCOLS)}")
                    history.protocol = name[0]
                continue
            try:
                parts = [int(p) for p in line.split()]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            if len(parts) < 5:
                raise ValueError(f"{path}:{lineno}: {len(parts)} fields, expected at least 5")
            seq, txn, ts, kind, oid = parts[:5]
            if kind not in _KIND_NAMES:
                raise ValueError(f"{path}:{lineno}: unknown event kind {kind}, expected 0..3")
            want = 6 if kind == READ else 5
            if len(parts) != want:
                raise ValueError(f"{path}:{lineno}: {len(parts)} fields, expected "
                                 f"{want} for a {_KIND_NAMES[kind]} event")
            if last_seq is not None and seq <= last_seq:
                raise ValueError(f"{path}:{lineno}: seq {seq} does not follow seq {last_seq}")
            if ts != txn:
                raise ValueError(f"{path}:{lineno}: ts {ts} differs from txn {txn}")
            if txn in ended:
                raise ValueError(f"{path}:{lineno}: {_KIND_NAMES[kind]} event after "
                                 f"txn {txn} ended")
            if kind == COMMIT or kind == ABORT:
                ended.add(txn)
            last_seq = seq
            version_ts = parts[5] if kind == READ else None
            history.events.append(Event(seq, txn, ts, kind, oid, version_ts))
    return history
