"""The three workloads, their seeded inputs, the timed loop and the checks.

Everything here reaches stmlib through its public API only: Engine,
TransactionalSet, run_op, HistoryRecorder, History, the event kinds of the
trace format, check_conflict_serializability and replay_check.  Each
protocol gets its own engine and set (a "lane"), so the protocol is part of
a metric's name and never a workload of its own.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from stmlib import (
    Engine,
    History,
    HistoryRecorder,
    TransactionalSet,
    check_conflict_serializability,
    replay_check,
    run_op,
)
from stmlib.oracle import READ, WRITE  # event kinds of the documented trace format

PROTOCOLS = ("bto", "sgt", "mvto")
STREAM_LEN = 8192  # ops per worker stream; a worker cycles through its stream
COLD_LO, COLD_HI = 10_000, 1_000_000  # cold keys sit far above every op key


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    key_hi: int  # ops draw keys uniformly from 1..key_hi
    members: int  # starting members among 1..key_hi
    cold: int  # starting members in the cold range, which no op reaches
    mix: tuple  # shares of (contains, add, remove)
    audited: bool  # each round's turns run on that round's recorded build
    check_passes: int  # timed check-plus-replay passes over each audited history


WORKLOADS = {
    # Read-mostly walks over 2,000 members: an op reads ~1,000 nodes on
    # average, and single-threaded it never aborts.
    "long-walk": Workload("long-walk", threads=1, key_hi=4000, members=2000,
                          cold=0, mix=(0.9, 0.05, 0.05), audited=False,
                          check_passes=6),
    # Update-only churn on 48 hot keys at the head of 4,000 cold members:
    # short walks, so commits, aborts, retries and GC passes dominate.
    "hot-spot": Workload("hot-spot", threads=2, key_hi=48, members=24,
                         cold=4000, mix=(0.0, 0.5, 0.5), audited=False,
                         check_passes=3),
    # A mixed stream at moderate contention with the recorder attached; the
    # cold members give set-up real work without lengthening any walk.
    "audited": Workload("audited", threads=2, key_hi=32, members=16,
                        cold=3000, mix=(0.4, 0.3, 0.3), audited=True,
                        check_passes=2),
}


@dataclass
class Inputs:
    build: list  # keys in the order the starting set adds them
    initial: frozenset  # starting members among the op keys
    cold: frozenset
    streams: list  # per worker, a list of (kind, key)


def make_inputs(wl: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{seed}:{wl.name}:members")
    members = rng.sample(range(1, wl.key_hi + 1), wl.members)
    cold = rng.sample(range(COLD_LO, COLD_HI), wl.cold)
    # Descending order splices every add in right after the head, so a
    # large set costs one short transaction per member, not a walk each.
    build = sorted(cold, reverse=True) + sorted(members, reverse=True)
    contains, add, _ = wl.mix
    streams = []
    for worker in range(wl.threads):
        wrng = random.Random(f"{seed}:{wl.name}:worker{worker}")
        ops = []
        for _ in range(STREAM_LEN):
            r = wrng.random()
            kind = "contains" if r < contains else "add" if r < contains + add else "remove"
            ops.append((kind, wrng.randint(1, wl.key_hi)))
        streams.append(ops)
    return Inputs(build, frozenset(members), frozenset(cold), streams)


def build_set(protocol: str, keys, recorded: bool):
    """A fresh engine and set holding keys, added one run_op at a time."""
    recorder = HistoryRecorder() if recorded else None
    engine = Engine(protocol, recorder=recorder)
    tset = TransactionalSet(engine)
    for key in keys:
        run_op(engine, tset, "add", key)
    return engine, tset, recorder


class Lane:
    """One protocol's engine and set, driven through the workload's streams."""

    def __init__(self, protocol: str, wl: Workload, inputs: Inputs, built):
        self.protocol = protocol
        self.wl = wl
        self.inputs = inputs
        self.engine, self.tset, self.recorder = built
        self.cursors = [0] * wl.threads
        self.outcomes = [[] for _ in range(wl.threads)]  # op results, in stream order
        self.samples = []  # per slice: dict of ops, retries, wall, cpu, traced

    def run_slice(self, seconds: float, traced: bool = False):
        """Drive every worker for `seconds` of wall time and record one sample."""
        threads = self.wl.threads
        barrier = threading.Barrier(threads + 1)
        box = [0.0]
        done = [None] * threads

        def worker(w):
            engine, tset = self.engine, self.tset
            ops = self.inputs.streams[w]
            n = len(ops)
            i = self.cursors[w]
            results = []
            retries = 0
            clock = time.perf_counter
            barrier.wait()
            deadline = box[0]
            while clock() < deadline:
                kind, key = ops[i % n]
                result, r = run_op(engine, tset, kind, key)
                results.append(result)
                retries += r
                i += 1
            done[w] = (results, retries)  # left None if the op raised

        workers = [threading.Thread(target=worker, args=(w,)) for w in range(threads)]
        for t in workers:
            t.start()
        box[0] = time.perf_counter() + seconds
        barrier.wait()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for t in workers:
            t.join()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if any(d is None for d in done):
            raise RuntimeError(f"{self.protocol}: a worker died")
        ops = 0
        retries = 0
        for w, (results, r) in enumerate(done):
            self.outcomes[w].extend(results)
            self.cursors[w] += len(results)
            ops += len(results)
            retries += r
        self.samples.append({"ops": ops, "retries": retries, "wall": wall,
                             "cpu": cpu, "traced": traced})

    def ops_done(self) -> int:
        return sum(len(o) for o in self.outcomes)


# -- correctness checks, computed apart from the program ------------------


def _stream_op(inputs: Inputs, w: int, j: int):
    ops = inputs.streams[w]
    return ops[j % len(ops)]


def check_against_python_set(lane: Lane) -> list[str]:
    """Single-threaded lanes: every result and the final membership match a set."""
    ref = set(lane.inputs.initial)
    for j, got in enumerate(lane.outcomes[0]):
        kind, key = _stream_op(lane.inputs, 0, j)
        if kind == "add":
            want = key not in ref
            ref.add(key)
        elif kind == "remove":
            want = key in ref
            ref.discard(key)
        else:
            want = key in ref
        if got != want:
            return [f"{lane.protocol}: op {j} {kind}({key}) returned {got}, a set gives {want}"]
    final = lane.tset.committed_items()
    if final != sorted(ref):
        return [f"{lane.protocol}: final membership differs from the reference set"]
    return []


def check_hot_spot(lane: Lane) -> list[str]:
    """Membership bookkeeping that holds under any interleaving."""
    errors = []
    wl, inputs = lane.wl, lane.inputs
    final = lane.tset.committed_items()
    net = dict.fromkeys(range(1, wl.key_hi + 1), 0)
    for w, results in enumerate(lane.outcomes):
        for j, applied in enumerate(results):
            kind, key = _stream_op(inputs, w, j)
            if applied:
                net[key] += 1 if kind == "add" else -1 if kind == "remove" else 0
    members = set(final)
    for key, delta in net.items():
        if (key in members) - (key in inputs.initial) != delta:
            errors.append(f"{lane.protocol}: key {key} net {delta} disagrees with membership")
            break
    if final != sorted(members):
        errors.append(f"{lane.protocol}: final list is not sorted and unique")
    if any(not (1 <= k <= wl.key_hi or k in inputs.cold) for k in final):
        errors.append(f"{lane.protocol}: a member lies outside the key range")
    if [k for k in final if k > wl.key_hi] != sorted(inputs.cold):
        errors.append(f"{lane.protocol}: the cold keys changed")
    return errors


def _reads_see_last_writer(history: History, witness: list[int]) -> tuple[bool, int]:
    """Walk the witness over objects: each read must see the last committed writer."""
    reads: dict[int, list] = {}
    writes: dict[int, list] = {}
    for e in history.events:
        if e.kind == READ:
            reads.setdefault(e.txn, []).append(e)
        elif e.kind == WRITE:
            writes.setdefault(e.txn, []).append(e.oid)
    last_writer: dict[int, int] = {}
    checked = 0
    for txn in witness:
        for e in reads.get(txn, ()):
            if last_writer.get(e.oid, 0) != e.version_ts:
                return False, checked
            checked += 1
        for oid in writes.get(txn, ()):
            last_writer[oid] = txn
    return True, checked


def plant_write_skew(history: History) -> History:
    """A copy of the history plus two committed transactions in write skew.

    Both read objects x and y, then one writes x and the other y, so each
    must precede the other and no serial order exists.  Their stamps exceed
    every recorded one and they read the newest committed versions, so the
    multiversion rules see the same skew.
    """
    committed = history.committed_txns()
    latest: dict[int, int] = {}
    for e in history.events:
        if e.kind == WRITE and e.txn in committed:
            latest[e.oid] = max(latest.get(e.oid, 0), e.txn)
    x, y = sorted({e.oid for e in history.events if e.kind == READ})[:2]
    t1 = max(e.txn for e in history.events) + 1
    t2 = t1 + 1
    rec = HistoryRecorder()
    for txn in (t1, t2):
        rec.record_read(txn, x, latest.get(x, 0))
        rec.record_read(txn, y, latest.get(y, 0))
    rec.record_write_intent(t1, x)
    rec.record_write_intent(t2, y)
    rec.record_commit(t1)
    rec.record_commit(t2)
    shift = max(e.seq for e in history.events)
    planted = [e._replace(seq=e.seq + shift) for e in rec.history().events]
    return History(events=history.events + planted, set_ops=dict(history.set_ops),
                   protocol=history.protocol)


@dataclass
class Audit:
    errors: list
    events: int
    check_s: float  # the first check_conflict_serializability
    replay_s: float  # the first replay_check
    passes: int  # check-plus-replay passes timed
    timed_s: float  # their total time


def audit(protocol: str, history: History, final: list[int], plant: bool,
          passes: int) -> Audit:
    """The oracle's verdict and replay, then an independent check of the
    witness and, with plant, a write skew the checker must reject.

    Check plus replay is timed `passes` times in all.  The count is fixed
    per workload, not by the time spent: a pass after the first can run
    faster on memory the first one warmed, so a count that followed the
    host's speed would amplify its swings.
    """
    errors = []
    history.final_snapshot = final
    t0 = time.perf_counter()
    verdict = check_conflict_serializability(history)
    t1 = time.perf_counter()
    replayed = verdict.serializable and replay_check(history, verdict.witness, final)
    t2 = time.perf_counter()
    check_s, replay_s = t1 - t0, t2 - t1
    timed_s = t2 - t0
    for _ in range(passes - 1):
        t0 = time.perf_counter()
        replay_check(history, check_conflict_serializability(history).witness, final)
        timed_s += time.perf_counter() - t0
    if not verdict.serializable:
        errors.append(f"{protocol}: the oracle found a cycle {verdict.cycle[:8]}")
    elif not replayed:
        errors.append(f"{protocol}: replay_check rejected the witness")
    else:
        ok, checked = _reads_see_last_writer(history, verdict.witness)
        if not ok:
            errors.append(f"{protocol}: a read did not observe the witness's last writer")
        elif checked == 0:
            errors.append(f"{protocol}: the history holds no read to check")
    if plant and check_conflict_serializability(plant_write_skew(history)).serializable:
        errors.append(f"{protocol}: the checker accepted a planted write skew")
    return Audit(errors, len(history.events), check_s, replay_s, passes, timed_s)
