"""Workload driver and measurement harness.

A run pre-fills a transactional set, lets N workers hammer it with a
seeded add/remove/contains mix, and measures three clocks around the
working phase: monotonic-raw wall time, whole-process CPU time and
per-thread CPU time per worker.  With record_history on, the run is
additionally pushed through the serializability checker and the
sequential replay.

Per-worker RNG streams derive from the run seed, so a configuration is
reproducible op-for-op regardless of interleaving.
"""

from __future__ import annotations

import csv
import random
import threading
import time
from dataclasses import dataclass

from .core import Engine
from .errors import ConfigInvalid
from .oracle import HistoryRecorder, check_conflict_serializability, replay_check
from .protocols import PROTOCOLS
from .txnset import HEAD_KEY, TAIL_KEY, TransactionalSet, run_op

if hasattr(time, "CLOCK_MONOTONIC_RAW"):
    def wall_clock() -> float:
        return time.clock_gettime(time.CLOCK_MONOTONIC_RAW)
else:  # pragma: no cover
    wall_clock = time.monotonic

OP_KINDS = ("add", "remove", "contains")

CSV_HEADER = (
    "protocol,threads,update_rate,key_range,seed,wall_ms,proc_cpu_ms,"
    "thread_cpu_mean_ms,thread_cpu_min_ms,thread_cpu_max_ms,"
    "committed,aborted,abort_rate,throughput_ops_s"
)


@dataclass
class BenchConfig:
    protocol: str = "bto"
    threads: int = 1
    ops: int | None = None  # per-thread op count
    duration: float | None = None  # seconds; alternative to ops
    update_rate: float = 0.7
    key_lo: int = 1
    key_hi: int = 1024
    fill: float = 0.5
    seed: int = 1
    record_history: bool = False

    @property
    def key_range(self) -> str:
        return f"{self.key_lo}:{self.key_hi}"

    def validate(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigInvalid(f"unknown protocol {self.protocol!r}")
        if self.threads < 1:
            raise ConfigInvalid("threads must be >= 1")
        if (self.ops is None) == (self.duration is None):
            raise ConfigInvalid("exactly one of ops and duration must be set")
        if self.ops is not None and self.ops < 1:
            raise ConfigInvalid("ops must be >= 1")
        if self.duration is not None and self.duration <= 0:
            raise ConfigInvalid("duration must be positive")
        if not 0 <= self.update_rate <= 1:
            raise ConfigInvalid("update_rate must lie in [0, 1]")
        if self.key_lo > self.key_hi:
            raise ConfigInvalid("key range is empty")
        if self.key_lo <= HEAD_KEY or self.key_hi >= TAIL_KEY:
            raise ConfigInvalid("key range collides with the sentinels")
        if not 0 <= self.fill <= 1:
            raise ConfigInvalid("fill must lie in [0, 1]")


@dataclass
class BenchReport:
    config: BenchConfig
    wall_ms: float
    proc_cpu_ms: float
    thread_cpu_ms: list[float]
    committed: int
    aborted: int
    op_counts: dict[str, int]
    final_items: list[int]
    history: object = None
    serializable: bool | None = None
    replay_ok: bool | None = None

    @property
    def attempts(self) -> int:
        return self.committed + self.aborted

    @property
    def abort_rate(self) -> float:
        return self.aborted / self.attempts if self.attempts else 0.0

    @property
    def throughput_ops_s(self) -> float:
        return self.committed / (self.wall_ms / 1000.0) if self.wall_ms else 0.0

    @property
    def thread_cpu_mean_ms(self) -> float:
        cpu = self.thread_cpu_ms
        return sum(cpu) / len(cpu) if cpu else 0.0

    def csv_row(self) -> list[str]:
        cfg = self.config
        cpu = self.thread_cpu_ms
        return [
            cfg.protocol,
            str(cfg.threads),
            f"{cfg.update_rate:g}",
            cfg.key_range,
            str(cfg.seed),
            f"{self.wall_ms:.3f}",
            f"{self.proc_cpu_ms:.3f}",
            f"{self.thread_cpu_mean_ms:.3f}",
            f"{min(cpu):.3f}" if cpu else "0.000",
            f"{max(cpu):.3f}" if cpu else "0.000",
            str(self.committed),
            str(self.aborted),
            f"{self.abort_rate:.6f}",
            f"{self.throughput_ops_s:.1f}",
        ]


def generate_op(rng: random.Random, cfg: BenchConfig):
    """One (kind, value) draw: update_rate splits evenly add/remove."""
    r = rng.random()
    if r < cfg.update_rate:
        kind = "add" if r < cfg.update_rate / 2 else "remove"
    else:
        kind = "contains"
    return kind, rng.randint(cfg.key_lo, cfg.key_hi)


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    cfg.validate()
    recorder = HistoryRecorder() if cfg.record_history else None
    engine = Engine(cfg.protocol, recorder=recorder)
    tset = TransactionalSet(engine)

    fill_rng = random.Random(f"{cfg.seed}:fill")
    span = cfg.key_hi - cfg.key_lo + 1
    for value in fill_rng.sample(range(cfg.key_lo, cfg.key_hi + 1), round(cfg.fill * span)):
        run_op(engine, tset, "add", value)

    barrier = threading.Barrier(cfg.threads + 1)
    results: list = [None] * cfg.threads

    def worker(idx: int):
        rng = random.Random(f"{cfg.seed}:{idx}")
        barrier.wait()
        cpu0 = time.thread_time()
        done = 0
        retries = 0
        kinds = dict.fromkeys(OP_KINDS, 0)
        try:
            if cfg.ops is not None:
                turns = range(cfg.ops)
            else:
                deadline = wall_clock() + cfg.duration
                # yields True until the first test past the deadline
                turns = iter(lambda: wall_clock() < deadline, False)
            for _ in turns:
                kind, value = generate_op(rng, cfg)
                retries += run_op(engine, tset, kind, value)[1]
                kinds[kind] += 1
                done += 1
        except BaseException as exc:  # surfaces in the main thread
            results[idx] = exc
            return
        results[idx] = (done, retries, kinds, time.thread_time() - cpu0)

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(cfg.threads)]
    for t in workers:
        t.start()
    barrier.wait()
    wall0 = wall_clock()
    cpu0 = time.process_time()
    for t in workers:
        t.join()
    wall1 = wall_clock()
    cpu1 = time.process_time()

    for outcome in results:
        if isinstance(outcome, BaseException):
            raise RuntimeError("worker failed") from outcome

    committed = sum(r[0] for r in results)
    aborted = sum(r[1] for r in results)
    op_counts = dict.fromkeys(OP_KINDS, 0)
    for r in results:
        for kind, n in r[2].items():
            op_counts[kind] += n

    report = BenchReport(
        config=cfg,
        wall_ms=(wall1 - wall0) * 1000.0,
        proc_cpu_ms=(cpu1 - cpu0) * 1000.0,
        thread_cpu_ms=[r[3] * 1000.0 for r in results],
        committed=committed,
        aborted=aborted,
        op_counts=op_counts,
        final_items=tset.committed_items(),
    )
    if recorder is not None:
        history = recorder.history()
        history.final_snapshot = report.final_items
        report.history = history
        verdict = check_conflict_serializability(history)
        report.serializable = verdict.serializable
        if verdict.serializable:
            report.replay_ok = replay_check(history, verdict.witness, report.final_items)
        else:
            report.replay_ok = False
    return report


def emit_report(reports: list[BenchReport], csv_path=None, plot_path=None):
    """Write the CSV table and, optionally, a standalone plot script."""
    if not reports:
        raise ConfigInvalid("no reports to emit")
    written = []
    if csv_path:
        with open(csv_path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            for report in reports:
                writer.writerow(report.csv_row())
        written.append(csv_path)
    if plot_path:
        rows = []
        for report in reports:
            rows.append({
                "protocol": report.config.protocol,
                "threads": report.config.threads,
                "wall_ms": round(report.wall_ms, 3),
                "proc_cpu_ms": round(report.proc_cpu_ms, 3),
                "thread_cpu_mean_ms": round(report.thread_cpu_mean_ms, 3),
            })
        with open(plot_path, "w", encoding="ascii") as fh:
            fh.write(_PLOT_TEMPLATE.format(rows=rows))
        written.append(plot_path)
    return written


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render time-vs-threads curves for the embedded benchmark rows."""
import sys

ROWS = {rows!r}

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib is required to render the plot")

MEASURES = [
    ("wall_ms", "wall time (ms)"),
    ("proc_cpu_ms", "process CPU time (ms)"),
    ("thread_cpu_mean_ms", "mean per-thread CPU time (ms)"),
]
fig, axes = plt.subplots(1, len(MEASURES), figsize=(15, 4), sharex=True)
for ax, (key, label) in zip(axes, MEASURES):
    for proto in sorted({{row["protocol"] for row in ROWS}}):
        pts = sorted((row["threads"], row[key]) for row in ROWS if row["protocol"] == proto)
        ax.plot([p[0] for p in pts], [p[1] for p in pts], marker="o", label=proto)
    ax.set_xlabel("threads")
    ax.set_ylabel(label)
    ax.grid(True, alpha=0.3)
axes[0].legend()
fig.tight_layout()
out = sys.argv[1] if len(sys.argv) > 1 else "bench.png"
fig.savefig(out, dpi=120)
print(out)
'''
