"""Command line front end.

stm-bench bench: run the workload driver, optionally sweeping thread
counts, and emit CSV/plot/trace artifacts.

stm-bench check: run the serializability oracle over a saved trace.
A malformed trace or an incomplete history is reported as an error
(exit 2), never as a verdict (exit 1 means not serializable).
"""

from __future__ import annotations

import argparse
import sys

from .bench import BenchConfig, emit_report, run_benchmark
from .errors import ConfigInvalid, IncompleteHistory
from .oracle import check_conflict_serializability, load_trace, save_trace


def _parse_threads(text: str) -> list[int]:
    """N, comma list, or LO:HI:STEP sweep."""
    if "," in text:
        return [int(part) for part in text.split(",")]
    if ":" in text:
        parts = [int(part) for part in text.split(":")]
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("sweep must be LO:HI:STEP")
        lo, hi, step = parts
        if step < 1 or lo > hi:
            raise argparse.ArgumentTypeError("bad sweep bounds")
        return list(range(lo, hi + 1, step))
    return [int(text)]


def _parse_key_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("key range must be LO:HI") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stm-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the set workload")
    bench.add_argument("--protocol", required=True, choices=["bto", "sgt", "mvto"])
    bench.add_argument("--threads", type=_parse_threads, default=[1],
                       metavar="N|A:B:S|N1,N2,...")
    group = bench.add_mutually_exclusive_group(required=True)
    group.add_argument("--ops", type=int, help="operations per thread")
    group.add_argument("--duration", type=float, help="seconds per run")
    bench.add_argument("--update-rate", type=float, default=0.7)
    bench.add_argument("--key-range", type=_parse_key_range, default=(1, 1024),
                       metavar="LO:HI")
    bench.add_argument("--fill", type=float, default=0.5)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--record-history", action="store_true")
    bench.add_argument("--csv", metavar="PATH")
    bench.add_argument("--plot", metavar="PATH")
    bench.add_argument("--trace", metavar="PATH",
                       help="save the recorded history (needs --record-history)")

    check = sub.add_parser("check", help="verify a saved trace")
    check.add_argument("--trace", required=True, metavar="PATH")
    return parser


def cmd_bench(args) -> int:
    if args.trace and not args.record_history:
        print("--trace requires --record-history", file=sys.stderr)
        return 2
    lo, hi = args.key_range
    reports = []
    failed = False
    for n in args.threads:
        cfg = BenchConfig(
            protocol=args.protocol,
            threads=n,
            ops=args.ops,
            duration=args.duration,
            update_rate=args.update_rate,
            key_lo=lo,
            key_hi=hi,
            fill=args.fill,
            seed=args.seed,
            record_history=args.record_history,
        )
        report = run_benchmark(cfg)
        reports.append(report)
        cpu = report.thread_cpu_ms
        line = (
            f"{cfg.protocol} threads={n} wall={report.wall_ms:.1f}ms"
            f" proc_cpu={report.proc_cpu_ms:.1f}ms"
            f" thread_cpu_mean={sum(cpu) / len(cpu):.1f}ms"
            f" committed={report.committed} aborted={report.aborted}"
            f" abort_rate={report.abort_rate:.4f}"
            f" throughput={report.throughput_ops_s:.0f}/s"
        )
        if args.record_history:
            ok = report.serializable and report.replay_ok
            line += f" serializable={'yes' if report.serializable else 'NO'}"
            line += f" replay={'ok' if report.replay_ok else 'MISMATCH'}"
            failed = failed or not ok
        print(line)
    emit_report(reports, csv_path=args.csv, plot_path=args.plot)
    if args.trace:
        save_trace(reports[-1].history, args.trace)
    return 1 if failed else 0


def cmd_check(args) -> int:
    try:
        history = load_trace(args.trace)
        verdict = check_conflict_serializability(history)
    except (ValueError, IncompleteHistory) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    committed = history.committed_txns()
    print(f"trace: {len(history.events)} events, {len(committed)} committed txns")
    if verdict.serializable:
        print(f"serializable: yes (witness over {len(verdict.witness)} txns)")
        return 0
    print(f"serializable: NO, cycle: {' -> '.join(map(str, verdict.cycle))}")
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_check(args)
    except (ConfigInvalid, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
