"""Shared helpers: independent oracles and history generators.

The brute-force serializability checks deliberately share no code with
stmlib.oracle: they enumerate permutations of the committed
transactions.  The single-version one accepts a history iff some serial
order makes every read observe exactly the writer stamp it recorded;
the multiversion one iff some serial order respects version (stamp)
order and places every read between the version it saw and the next.
The kernel references are just as naive: a linear scan for version
selection and a Floyd-Warshall closure for cycle checks.  So is the
reference serialization graph tester, `NaiveSgt`: an edge set with
eager removal that never frees a committed node.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import permutations

import pytest

from stmlib.oracle import ABORT, COMMIT, READ, WRITE, Event, History

PROTOCOLS = ("bto", "sgt", "mvto")


@pytest.fixture(params=PROTOCOLS)
def protocol(request):
    return request.param


def brute_force_serializable(history: History) -> bool:
    """Permutation oracle; factorial, keep histories at <= 7 txns."""
    committed = sorted(history.committed_txns())
    assert len(committed) <= 7, "history too large for the permutation oracle"
    reads = defaultdict(list)
    writes = defaultdict(set)
    for e in history.events:
        if e.kind == READ:
            reads[e.txn].append((e.oid, e.version_ts))
        elif e.kind == WRITE:
            writes[e.txn].add(e.oid)
    for perm in permutations(committed):
        last_writer = {}
        ok = True
        for txn in perm:
            for oid, observed in reads[txn]:
                if last_writer.get(oid, 0) != observed:
                    ok = False
                    break
            if not ok:
                break
            for oid in writes[txn]:
                last_writer[oid] = txn
        if ok:
            return True
    return False


def brute_force_multiversion_serializable(history: History) -> bool:
    """Permutation oracle under stamp version order; <= 7 committed txns.

    An order is accepted iff each object's committed writers appear in
    stamp order, and each committed read comes after the writer of the
    version it saw and before the next committed writer of that object
    in stamp order, unless that writer is the reader itself.
    """
    committed = sorted(e.txn for e in history.events if e.kind == COMMIT)
    assert len(committed) <= 7, "history too large for the permutation oracle"
    writers = defaultdict(set)
    reads = []
    for e in history.events:
        if e.txn not in committed:
            continue
        if e.kind == WRITE:
            writers[e.oid].add(e.txn)
        elif e.kind == READ:
            reads.append((e.txn, e.oid, e.version_ts))
    for perm in permutations(committed):
        pos = {txn: i for i, txn in enumerate(perm)}
        if any([pos[w] for w in sorted(ws)] != sorted(pos[w] for w in ws)
               for ws in writers.values()):
            continue
        ok = True
        for reader, oid, seen in reads:
            if seen in writers[oid] and pos[seen] > pos[reader]:
                ok = False
                break
            later = [w for w in writers[oid] if w > seen]
            if later and min(later) != reader and pos[min(later)] < pos[reader]:
                ok = False
                break
        if ok:
            return True
    return False


def random_single_version_history(rng: random.Random, max_txns: int = 5,
                                  n_objects: int = 3, abort_share: float = 0.0) -> History:
    """Interleave unprotected single-version transactions.

    No admission control runs, so the result may or may not be
    serializable; reads record whatever the store held at that moment
    and writes land at commit, which keeps the history well formed.
    Writes are drawn from the objects already read (no blind writes to
    shared objects), the regime where the graph checker and the
    permutation oracle provably agree.  With `abort_share`, about that
    share of transactions read and then ABORT, logging no WRITE, as a
    refused commit does; at 0 the random draws are those of before.
    """
    n_txns = rng.randint(1, max_txns)
    plans = []
    for txn in range(1, n_txns + 1):
        read_oids = rng.sample(range(1, n_objects + 1),
                               rng.randint(1, n_objects))
        write_oids = [oid for oid in read_oids if rng.random() < 0.6]
        plans.append((txn, read_oids, write_oids))

    # one step list per txn: its reads in order, then its commit
    pending = {txn: [("r", oid) for oid in reads] + [("c", None)]
               for txn, reads, _ in plans}
    write_sets = {txn: set(writes) for txn, _, writes in plans}

    events = []
    seq = 0
    current_writer = defaultdict(int)  # oid -> last committed writer, 0 seeded
    alive = list(pending)
    while alive:
        txn = rng.choice(alive)
        op, oid = pending[txn].pop(0)
        seq += 1
        if op == "r":
            events.append(Event(seq, txn, txn, READ, oid, current_writer[oid]))
        elif abort_share and rng.random() < abort_share:
            events.append(Event(seq, txn, txn, ABORT, 0, None))
            alive.remove(txn)
        else:
            for woid in sorted(write_sets[txn]):
                seq += 1
                events.append(Event(seq, txn, txn, WRITE, woid, None))
            seq += 1
            events.append(Event(seq, txn, txn, COMMIT, 0, None))
            for woid in write_sets[txn]:
                current_writer[woid] = txn
            alive.remove(txn)
    return History(events=events)


def random_multiversion_history(rng: random.Random, max_txns: int = 5,
                                n_objects: int = 3) -> History:
    """Interleave unprotected multiversion transactions.

    Transaction stamps are 1..n and transactions commit in a shuffled
    stamp order.  Each read picks, among the versions committed so far
    with a stamp below the reader's (0 being the initial version), the
    newest or one at random.  About 15% of transactions abort after
    recording their write intents, so aborted writers are in the
    history too.  The result may or may not be serializable.
    """
    n_txns = rng.randint(1, max_txns)
    pending = {}
    write_sets = {}
    for txn in range(1, n_txns + 1):
        read_oids = rng.sample(range(1, n_objects + 1),
                               rng.randint(1, n_objects))
        pending[txn] = [("r", oid) for oid in read_oids] + [("c", None)]
        write_sets[txn] = sorted(oid for oid in range(1, n_objects + 1)
                                 if rng.random() < 0.4)

    events = []
    seq = 0
    versions = defaultdict(lambda: [0])  # oid -> committed writer stamps
    alive = list(pending)
    while alive:
        txn = rng.choice(alive)
        op, oid = pending[txn].pop(0)
        if op == "r":
            visible = [v for v in versions[oid] if v < txn]
            seen = max(visible) if rng.random() < 0.5 else rng.choice(visible)
            seq += 1
            events.append(Event(seq, txn, txn, READ, oid, seen))
            continue
        for woid in write_sets[txn]:
            seq += 1
            events.append(Event(seq, txn, txn, WRITE, woid, None))
        seq += 1
        if rng.random() < 0.15:
            events.append(Event(seq, txn, txn, ABORT, 0, None))
        else:
            events.append(Event(seq, txn, txn, COMMIT, 0, None))
            for woid in write_sets[txn]:
                versions[woid].append(txn)
        alive.remove(txn)
    return History(events=events, protocol="mvto")


def keep_resident(eng):
    """Shadow the engine's automatic collection pass on this instance.

    Committed sgt nodes and mvto versions then stay until the test runs
    a pass itself with `Engine.collect(eng)`.  Returns the engine.
    """
    eng.collect = lambda: 0
    return eng


def scripted_outcomes(eng, script, blind_writes=False) -> list[str]:
    """Run (slot, action, oid) steps on an engine; label each step.

    A slot is reused by a fresh transaction once its current one
    terminates, so one script exercises many transactions.  A write
    reads the object first unless blind_writes is set.  Labels are
    "ok", "commit", or the abort reason string.
    """
    from stmlib import TransactionAborted
    from stmlib.core import TxnStatus

    txns = {}
    outcomes = []
    for slot, action, oid in script:
        txn = txns.get(slot)
        if txn is None or txn.status is not TxnStatus.LIVE:
            txn = txns[slot] = eng.begin()
        try:
            if action == "read":
                eng.read(txn, oid)
                outcomes.append("ok")
            elif action == "write":
                if not blind_writes:
                    eng.read(txn, oid)
                eng.write(txn, oid, txn.ts)
                outcomes.append("ok")
            else:
                result = eng.commit(txn)
                outcomes.append("commit" if result.committed
                                else str(result.reason.value))
        except TransactionAborted as exc:
            outcomes.append(str(exc.reason.value))
    for txn in txns.values():
        if txn.status is TxnStatus.LIVE:
            eng.abort(txn)
    return outcomes


def random_script(rng: random.Random, steps=60, slots=4, oids=3):
    script = []
    for _ in range(steps):
        action = rng.choice(["read", "write", "write", "commit"])
        script.append((rng.randrange(slots), action, rng.randint(1, oids)))
    return script


def history_of(steps: list[tuple], protocol: str | None = None) -> History:
    """Build a history from (txn, kind, oid[, version_ts]) tuples."""
    events = []
    for seq, item in enumerate(steps, start=1):
        txn, kind = item[0], item[1]
        oid = item[2] if len(item) > 2 else 0
        version_ts = item[3] if len(item) > 3 else None
        events.append(Event(seq, txn, txn, kind, oid, version_ts))
    return History(events=events, protocol=protocol)


def scan_version(stamps, ts):
    """Linear-scan reference for version selection."""
    best = -1
    for i, stamp in enumerate(stamps):
        if stamp < ts:
            best = i
        else:
            break
    return best


def warshall_closure(adj):
    """Transitive closure by Floyd-Warshall; the DFS-free reference."""
    nodes = sorted(set(adj) | {m for succ in adj.values() for m in succ})
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for a, succ in adj.items():
        for b in succ:
            reach[index[a]][index[b]] = True
    for k in range(n):
        row_k = reach[k]
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return nodes, index, reach


def closure_on_cycle(adj, start):
    nodes, index, reach = warshall_closure(adj)
    return start in index and reach[index[start]][index[start]]


def closure_has_cycle(adj):
    nodes, index, reach = warshall_closure(adj)
    return any(reach[i][i] for i in range(len(nodes)))


class NaiveSgt:
    """Reference serialization graph tester for (slot, action, oid) steps.

    An edge set with eager removal, every committed node retained, and
    cycles found by the Floyd-Warshall closure.  Steps mean what they
    mean to `scripted_outcomes`, whose labels `step` returns, and a
    transaction's repeat read of an object it has read or written draws
    no edge, as the engine serves it from the transaction's own log.
    """

    def __init__(self):
        self.nodes = set()  # live and committed transactions
        self.edges = set()  # (from, to)
        self.committed = set()
        self.reads = {}  # node -> objects it read
        self.writers = defaultdict(set)  # oid -> committed writers
        self.slots = {}  # slot -> (ts, write set) of its live transaction
        self.next_ts = 1

    def snapshot(self):
        """The graph in the shape of SgtBackend.graph_snapshot()."""
        return {n: sorted(b for a, b in self.edges if a == n) for n in self.nodes}

    def _admit(self, ts, preds):
        """Draw edges preds -> ts; on a cycle drop ts and return False."""
        self.edges |= {(p, ts) for p in preds if p != ts}
        adj = defaultdict(set)
        for a, b in self.edges:
            adj[a].add(b)
        if not closure_on_cycle(adj, ts):
            return True
        self.nodes.discard(ts)
        del self.reads[ts]
        self.edges = {(a, b) for a, b in self.edges if ts not in (a, b)}
        return False

    def step(self, slot, action, oid) -> str:
        if slot not in self.slots:
            ts = self.next_ts
            self.next_ts += 1
            self.nodes.add(ts)
            self.reads[ts] = set()
            self.edges |= {(c, ts) for c in self.committed}
            self.slots[slot] = (ts, set())
        ts, writes = self.slots[slot]
        if action == "commit":
            del self.slots[slot]
            preds = {r for r, objs in self.reads.items() if objs & writes}
            for w in writes:
                preds |= self.writers[w]
            if not self._admit(ts, preds):
                return "cycle_detected"
            for w in writes:
                self.writers[w].add(ts)
            self.committed.add(ts)
            return "commit"
        if oid not in self.reads[ts] and oid not in writes:
            if not self._admit(ts, self.writers[oid]):
                del self.slots[slot]
                return "cycle_detected"
            self.reads[ts].add(oid)
        if action == "write":
            writes.add(oid)
        return "ok"


__all__ = [
    "ABORT",
    "COMMIT",
    "NaiveSgt",
    "PROTOCOLS",
    "READ",
    "WRITE",
    "brute_force_multiversion_serializable",
    "brute_force_serializable",
    "closure_has_cycle",
    "closure_on_cycle",
    "history_of",
    "keep_resident",
    "random_multiversion_history",
    "random_script",
    "random_single_version_history",
    "scan_version",
    "scripted_outcomes",
    "warshall_closure",
]
