"""Release gate: whole-system guarantees, one verdict line per check.

Each test prints a single PASS/FAIL line (visible under -s, or in the
captured output on failure) and asserts the same condition, so a plain
pytest run yields exactly one pass/fail per gate.
"""

import random
import threading
import time
from typing import NamedTuple

import pytest
from conftest import PROTOCOLS, closure_on_cycle, scan_version
from test_bto import drive_commit, drive_read, rigged_backend, rule_commit, rule_read

from stmlib import (
    BenchConfig,
    Engine,
    TransactionalSet,
    check_conflict_serializability,
    emit_report,
    execute_with_retry,
    generate_op,
    run_benchmark,
    run_op,
)
from stmlib.bench import CSV_HEADER, wall_clock
from stmlib.oracle import COMMIT, WRITE
from stmlib.protocols.mvto import version_index
from stmlib.protocols.sgt import node_on_cycle
from stmlib.txnset import HEAD_KEY, TAIL_KEY


def announce(gate: str, ok: bool, detail: str):
    print(f"[{gate}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


class SlimRun(NamedTuple):
    protocol: str
    seed: int
    serializable: bool
    replay_ok: bool
    witness: list
    set_ops: dict
    final_items: list
    writes_ok: bool


def writes_precede_commits(events, written) -> bool:
    """Each commit's WRITEs are its write set, directly before its COMMIT.

    `written` maps every committed txn to its write set's oids.  Every
    WRITE event must belong to one of those blocks.
    """
    n_writes = 0
    for i, e in enumerate(events):
        if e.kind == WRITE:
            n_writes += 1
        elif e.kind == COMMIT:
            oids = written.get(e.txn)
            if oids is None or len(oids) > i:
                return False
            block = events[i - len(oids):i]
            if any(w.kind != WRITE or w.txn != e.txn for w in block):
                return False
            if {w.oid for w in block} != set(oids):
                return False
    return n_writes == sum(map(len, written.values()))


@pytest.fixture(scope="module")
def recorded_runs():
    """20 seeded 4x2000-op runs per protocol, with witnesses.

    Only the witness, op outcomes and the WRITE invariant are retained;
    keeping 60 full event logs alive at once would hold north of a
    gigabyte.  `Engine.commit` is wrapped for the fixture's duration to
    note each committed transaction's write set.
    """
    t0 = time.monotonic()
    runs = []
    written = {}
    commit = Engine.commit

    def noting_commit(self, txn):
        result = commit(self, txn)
        if result.committed:
            written[txn.ts] = tuple(txn.write_set)
        return result

    Engine.commit = noting_commit
    try:
        for protocol in PROTOCOLS:
            for seed in range(1, 21):
                cfg = BenchConfig(protocol=protocol, threads=4, ops=2000,
                                  key_lo=1, key_hi=20, update_rate=0.7,
                                  seed=seed, record_history=True)
                written.clear()
                report = run_benchmark(cfg)
                verdict = check_conflict_serializability(report.history)
                runs.append(SlimRun(protocol, seed, bool(verdict.serializable),
                                    bool(report.replay_ok), verdict.witness or [],
                                    report.history.set_ops, report.final_items,
                                    writes_precede_commits(report.history.events, written)))
    finally:
        Engine.commit = commit
    return runs, time.monotonic() - t0


def test_every_history_serializes_and_replays(recorded_runs):
    runs, elapsed = recorded_runs
    good = sum(1 for run in runs if run.serializable and run.replay_ok)
    writes = sum(1 for run in runs if run.writes_ok)
    ok = good == writes == len(runs) == 60 and elapsed < 300
    announce("serializability", ok,
             f"{good}/{len(runs)} runs serializable with clean replay, "
             f"{writes} with every WRITE in its commit's block, "
             f"in {elapsed:.1f}s (budget 300s)")
    assert ok


def test_final_sets_equal_sequential_replay(recorded_runs):
    runs, _ = recorded_runs
    exact = 0
    for run in runs:
        reference = set()
        for txn in run.witness:
            op = run.set_ops.get(txn)
            if op is None:
                continue
            if op.kind == "add":
                reference.add(op.key)
            elif op.kind == "remove":
                reference.discard(op.key)
        if sorted(reference) == run.final_items:
            exact += 1
    ok = exact == len(runs)
    announce("sequential-equivalence", ok,
             f"{exact}/{len(runs)} final snapshots equal the witness replay")
    assert ok


def test_timestamp_ordering_witnesses_follow_stamp_order(recorded_runs):
    # Under timestamp ordering every conflict runs from an older stamp to
    # a younger one, so the witness of a bto or mvto run is stamp order.
    runs, _ = recorded_runs
    ordered = [run for run in runs if run.protocol in ("bto", "mvto")]
    increasing = sum(1 for run in ordered if run.witness == sorted(run.witness))
    ok = increasing == len(ordered) == 40
    announce("stamp-order", ok,
             f"{increasing}/{len(ordered)} bto and mvto witnesses in increasing stamp order")
    assert ok


def test_bto_decision_tables_match_the_rules():
    agree = total = 0
    for ts in range(5):
        for max_read in range(5):
            for max_write in range(5):
                total += 2
                backend = rigged_backend(max_read, max_write)
                if drive_read(backend, ts) == rule_read(ts, max_read, max_write)[0]:
                    agree += 1
                backend = rigged_backend(max_read, max_write)
                if drive_commit(backend, ts) == rule_commit(ts, max_read, max_write)[0]:
                    agree += 1
    ok = agree == total == 250
    announce("bto-conformance", ok,
             f"{agree}/{total} stamp combinations agree with the rule oracle")
    assert ok


def test_mvto_version_selection_and_readonly_reads():
    rng = random.Random(12)
    agree = 0
    cases = 10_000
    for _ in range(cases):
        length = rng.randint(1, 12)
        chain = sorted(rng.sample(range(0, 400), length))
        ts = rng.randint(0, 420)
        if version_index(chain, ts) == scan_version(chain, ts):
            agree += 1

    # lookups against live updaters must never retry
    eng = Engine("mvto")
    tset = TransactionalSet(eng)
    for v in range(1, 25, 2):
        run_op(eng, tset, "add", v)
    stop = threading.Event()
    churned = [0, 0]

    def updater(idx):
        u = random.Random(idx)
        while not stop.is_set():
            kind = "add" if u.random() < 0.5 else "remove"
            execute_with_retry(
                eng, lambda txn: getattr(tset, kind)(txn, u.randint(1, 24)))
            churned[idx] += 1

    workers = [threading.Thread(target=updater, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    lookups = 10_000
    retried = 0
    probe = random.Random(3)
    try:
        for _ in range(lookups):
            _, retries = run_op(eng, tset, "contains", probe.randint(1, 24))
            retried += retries
    finally:
        stop.set()
        for w in workers:
            w.join()

    ok = agree == cases and retried == 0 and min(churned) > 0
    announce("mvto-selection", ok,
             f"{agree}/{cases} version picks match linear scan; "
             f"{lookups} lookups retried {retried} times against "
             f"{sum(churned)} concurrent updates")
    assert ok


def test_sgt_cycle_oracle_and_gc_drain():
    rng = random.Random(31)
    graphs = 1000
    agree = 0
    for _ in range(graphs):
        nodes = list(range(rng.randint(1, 8)))
        adj = {n: set() for n in nodes}
        for a in nodes:
            for b in nodes:
                if rng.random() < 0.25:
                    adj[a].add(b)
        if all(node_on_cycle(adj, n) == closure_on_cycle(adj, n) for n in nodes):
            agree += 1

    drained = 0
    runs = 20
    for seed in range(1, runs + 1):
        eng = Engine("sgt")
        tset = TransactionalSet(eng)
        failures = []

        def worker(idx):
            w = random.Random(f"{seed}:{idx}")
            cfg = BenchConfig(protocol="sgt", threads=4, ops=200,
                              key_lo=1, key_hi=12, seed=seed)
            try:
                for _ in range(200):
                    kind, value = generate_op(w, cfg)
                    run_op(eng, tset, kind, value)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        eng.collect()
        if eng.backend.graph_size() == 0:
            drained += 1

    ok = agree == graphs and drained == runs
    announce("sgt-cycles-and-gc", ok,
             f"{agree}/{graphs} random graphs agree with the closure oracle; "
             f"{drained}/{runs} stress runs drain the graph to zero nodes")
    assert ok


def stress_snapshots(protocol: str, seconds: float, threads: int = 8):
    eng = Engine(protocol)
    tset = TransactionalSet(eng)
    cfg = BenchConfig(protocol=protocol, threads=threads, duration=seconds,
                      key_lo=1, key_hi=48, seed=23)
    fill_rng = random.Random(f"{cfg.seed}:fill")
    for value in fill_rng.sample(range(1, 49), 24):
        run_op(eng, tset, "add", value)

    deadline = wall_clock() + seconds
    failures = []

    def worker(idx):
        w = random.Random(f"{cfg.seed}:{idx}")
        try:
            while wall_clock() < deadline:
                kind, value = generate_op(w, cfg)
                run_op(eng, tset, kind, value)
        except BaseException as exc:  # pragma: no cover
            failures.append(exc)

    crew = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for t in crew:
        t.start()
    samples = 0
    bad = 0
    while wall_clock() < deadline:
        items, _ = run_op(eng, tset, "snapshot")
        samples += 1
        if not (items == sorted(set(items))
                and all(HEAD_KEY < v < TAIL_KEY for v in items)
                and all(1 <= v <= 48 for v in items)):
            bad += 1
        time.sleep(0.2)
    for t in crew:
        t.join()
    assert not failures
    return samples, bad


@pytest.mark.slow
def test_snapshots_stay_well_formed_under_stress():
    seconds = 60.0
    report = []
    total_bad = 0
    for protocol in PROTOCOLS:
        samples, bad = stress_snapshots(protocol, seconds)
        assert samples >= 50
        total_bad += bad
        report.append(f"{protocol} {samples - bad}/{samples}")
    ok = total_bad == 0
    announce("snapshot-invariants", ok,
             f"{seconds:.0f}s x 8 threads per protocol, sorted/unique/bounded "
             "samples: " + ", ".join(report))
    assert ok


def test_thread_sweep_emits_the_artifacts(tmp_path):
    reports = []
    for protocol in PROTOCOLS:
        for n in range(10, 101, 10):
            cfg = BenchConfig(protocol=protocol, threads=n, duration=0.2,
                              update_rate=0.7, seed=1)
            reports.append(run_benchmark(cfg))
    csv_path = tmp_path / "sweep.csv"
    plot_path = tmp_path / "sweep_plot.py"
    emit_report(reports, csv_path=csv_path, plot_path=plot_path)

    lines = csv_path.read_text().splitlines()
    ok = (lines[0] == CSV_HEADER and len(lines) == 1 + 30)
    for report, line in zip(reports, lines[1:]):
        cols = line.split(",")
        ok = ok and cols[0] == report.config.protocol
        ok = ok and int(cols[1]) == report.config.threads
        # all three clock measures must be present and positive
        ok = ok and all(float(cols[i]) > 0 for i in (5, 6, 7))
    try:
        compile(plot_path.read_text(), str(plot_path), "exec")
    except SyntaxError:  # pragma: no cover
        ok = False
    announce("sweep-artifacts", ok,
             f"30 runs across threads 10..100 step 10, CSV rows {len(lines) - 1}, "
             "plot script compiles")
    assert ok


@pytest.mark.slow
def test_per_thread_cpu_ordering_is_reported():
    medians = {}
    for protocol in PROTOCOLS:
        costs = []
        for seed in range(1, 6):
            cfg = BenchConfig(protocol=protocol, threads=64, ops=50,
                              update_rate=0.7, seed=seed)
            report = run_benchmark(cfg)
            cpu = report.thread_cpu_ms
            costs.append(sum(cpu) / len(cpu))
        medians[protocol] = sorted(costs)[2]

    checks = [("bto", "sgt"), ("mvto", "sgt")]
    deviations = [f"{a} {medians[a]:.1f}ms !< {b} {medians[b]:.1f}ms"
                  for a, b in checks if not medians[a] < medians[b]]
    detail = (f"median per-thread CPU at 64 threads: "
              f"bto {medians['bto']:.1f}ms, sgt {medians['sgt']:.1f}ms, "
              f"mvto {medians['mvto']:.1f}ms")
    if deviations:
        # directional expectation, informational only: report, don't gate
        announce("cpu-ordering", True, detail + "; DEVIATION " + "; ".join(deviations))
    else:
        announce("cpu-ordering", True, detail + "; bto < sgt and mvto < sgt hold")
