#!/usr/bin/env python3
"""Benchmark of stmlib: one workload per run, every metric by name and unit.

    python3 stmperf/run.py --workload long-walk --seed 1 --seconds 60 --trace 0

Run from the root of a source tree; stmlib is imported from its `src`
directory and nowhere else.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of a traced run,
whose slices alternate with untraced ones to give the tracing overhead.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The full record of the run goes to stmperf/results/.  The exit code is
nonzero when a correctness check fails or stmlib cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
TURN_SECONDS = 0.5  # one protocol's turn in a round
MIN_ROUNDS = 3
ABORT_REASONS = {  # the reasons each protocol can give
    "bto": ("stale_read", "stale_write"),
    "sgt": ("cycle_detected",),
    "mvto": ("obsolete_version",),
}


def import_stmlib():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import stmlib
    except ImportError as exc:
        sys.exit(f"error: cannot import stmlib from {src}: {exc}")
    if not Path(stmlib.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: stmlib came from {stmlib.__file__}, not from {src}")
    return stmlib


def run_metadata(stmlib) -> dict:
    """Interpreter and CPU settings that shape the numbers; read, never set."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "switch_interval_s": sys.getswitchinterval(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "stmlib": stmlib.__version__,
    }


def end_to_end_units(protocols) -> dict[str, str]:
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    for p in protocols:
        units[f"{p}.ops_s"] = "1/s"
        units[f"{p}.cpu_us_per_op"] = "us"
        units[f"{p}.check_events_s"] = "1/s"
    return units


def per_layer_units(protocols) -> dict[str, str]:
    units = {}
    for p in protocols:
        units.update({
            f"{p}.txnset.reads_per_op": "1/op",
            f"{p}.engine.read_us": "us",
            f"{p}.backend.on_read_us": "us",
            f"{p}.backend.commit_us": "us",
            f"{p}.txnset.retries_per_op": "1/op",
            f"{p}.commit_yield": "ratio",
        })
        for reason in ABORT_REASONS[p]:
            units[f"{p}.aborts.{reason}"] = "1/kcommit"
        units.update({
            f"{p}.engine.collect_ms": "ms",
            f"{p}.engine.collect_passes": "1/kcommit",
            f"{p}.store.objects_end": "count",
            f"{p}.store.objects_per_member": "ratio",
            f"{p}.recorder.record_us": "us",
            f"{p}.recorder.events_per_op": "1/op",
            f"{p}.oracle.check_s": "s",
            f"{p}.oracle.replay_s": "s",
            f"{p}.tracing_overhead_pct": "%",
        })
    units.update({
        "sgt.backend.on_begin_us": "us",
        "sgt.kernel.node_on_cycle_us": "us",
        "sgt.graph.nodes_end": "count",
        "mvto.kernel.version_index_calls": "1/op",
    })
    return units


def measure(wl, inputs, seconds: float, trace: bool, tracers):
    """Rounds, until `seconds` are spent, in which the set-up is built and
    every lane takes one turn.

    Each round builds all three starting sets once with a HistoryRecorder
    attached (one set-up sample), and afterwards the oracle audits that
    build's histories (one check sample per protocol).  An audited workload
    runs its turns on that round's builds, so every history covers one
    round; the others keep unrecorded lanes for the whole run.  The
    protocols' order rotates from round to round, so slow drift of the host
    is spread over all protocols and samples alike.  A round starts only if
    one as long as the last still fits in `seconds`, and at least
    MIN_ROUNDS are run.  In a traced run each turn is split into an
    untraced and a traced half, alternating which goes first.
    Returns (lanes, set-up times, audits per protocol, errors, rounds).
    """
    import workloads as W
    from tracer import install

    n = len(W.PROTOCOLS)
    lanes = None
    if not wl.audited:
        lanes = [W.Lane(p, wl, inputs, W.build_set(p, inputs.build, recorded=False))
                 for p in W.PROTOCOLS]
    setup_times, errors = [], []
    audits = {p: [] for p in W.PROTOCOLS}
    start = time.perf_counter()
    round_s = 0.0
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        built = None
        gc.collect()
        t0 = time.perf_counter()
        built = [W.build_set(p, inputs.build, recorded=True) for p in W.PROTOCOLS]
        setup_times.append(time.perf_counter() - t0)
        if wl.audited and lanes is None:
            lanes = [W.Lane(p, wl, inputs, b) for p, b in zip(W.PROTOCOLS, built)]
        elif wl.audited:
            for lane, b in zip(lanes, built):
                lane.engine, lane.tset, lane.recorder = b
        for k in range(n):
            lane = lanes[(r + k) % n]
            if not trace:
                lane.run_slice(TURN_SECONDS)
                continue
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if traced:
                    undo = install(tracers[lane.protocol], lane.protocol, lane.engine, lane.recorder)
                    try:
                        lane.run_slice(TURN_SECONDS / 2, traced=True)
                    finally:
                        undo()
                else:
                    lane.run_slice(TURN_SECONDS / 2)
        # Freeze the heap built so far, so that collector passes over the
        # benchmark's own objects do not land at random in the oracle's time.
        gc.freeze()
        try:
            for p, (_, tset, recorder) in zip(W.PROTOCOLS, built):
                result = W.audit(p, recorder.history(), tset.committed_items(),
                                 plant=r == 0, passes=wl.check_passes)
                audits[p].append(result)
                errors += result.errors
        finally:
            gc.unfreeze()
        del built
        round_s = time.perf_counter() - round_start
        r += 1
    return lanes, setup_times, audits, errors, r


def _rate(samples, traced=False):
    """Committed ops per wall second over every turn of one kind."""
    chosen = [s for s in samples if s["traced"] == traced]
    return sum(s["ops"] for s in chosen) / sum(s["wall"] for s in chosen)


def end_to_end_metrics(lanes, setup_times, peak_rss_mb, audits) -> dict[str, float]:
    values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
    for lane in lanes:
        p = lane.protocol
        # Totals over the run, not medians of turns: when the host switches
        # between slow and fast spells, a median snaps to whichever spell
        # held most turns, and the runs' figures split into two clusters.
        values[f"{p}.ops_s"] = _rate(lane.samples)
        values[f"{p}.cpu_us_per_op"] = (sum(s["cpu"] for s in lane.samples)
                                        / sum(s["ops"] for s in lane.samples) * 1e6)
        values[f"{p}.check_events_s"] = (sum(a.events * a.passes for a in audits[p])
                                         / sum(a.timed_s for a in audits[p]))
    return values


def per_layer_metrics(lanes, tracers, audits) -> dict[str, float]:
    values = {}
    for lane in lanes:
        p = lane.protocol
        spans = tracers[p].spans()
        counts = tracers[p].counts()
        traced = [s for s in lane.samples if s["traced"]]
        ops = sum(s["ops"] for s in traced)
        retries = sum(s["retries"] for s in traced)

        def calls(key):
            return spans.get(key, (0, 0.0, 0.0))[0]

        def self_us(key):
            n, _, own = spans.get(key, (0, 0.0, 0.0))
            return own / n * 1e6 if n else 0.0

        def total_us(key):
            n, total, _ = spans.get(key, (0, 0.0, 0.0))
            return total / n * 1e6 if n else 0.0

        members = len(lane.tset.committed_items())
        objects = lane.engine.object_count()
        values.update({
            f"{p}.txnset.reads_per_op": calls("engine.read") / ops,
            f"{p}.engine.read_us": self_us("engine.read"),
            f"{p}.backend.on_read_us": self_us("backend.on_read"),
            f"{p}.backend.commit_us": self_us("backend.commit"),
            f"{p}.txnset.retries_per_op": retries / ops,
            f"{p}.commit_yield": ops / calls("engine.begin"),
        })
        for reason in ABORT_REASONS[p]:
            values[f"{p}.aborts.{reason}"] = counts.get(f"aborts.{reason}", 0) / ops * 1000
        values.update({
            f"{p}.engine.collect_ms": total_us("engine.collect") / 1000,
            f"{p}.engine.collect_passes": calls("engine.collect") / ops * 1000,
            f"{p}.store.objects_end": objects,
            f"{p}.store.objects_per_member": objects / members,
            f"{p}.recorder.record_us": self_us("recorder.record"),
            f"{p}.recorder.events_per_op": calls("recorder.record") / ops,
            f"{p}.oracle.check_s": statistics.median(a.check_s for a in audits[p]),
            f"{p}.oracle.replay_s": statistics.median(a.replay_s for a in audits[p]),
            f"{p}.tracing_overhead_pct":
                (_rate(lane.samples) / _rate(lane.samples, traced=True) - 1) * 100,
        })
        if p == "sgt":
            values["sgt.backend.on_begin_us"] = self_us("backend.on_begin")
            values["sgt.kernel.node_on_cycle_us"] = total_us("kernel.node_on_cycle")
            values["sgt.graph.nodes_end"] = lane.engine.backend.graph_size()
        if p == "mvto":
            values["mvto.kernel.version_index_calls"] = calls("kernel.version_index") / ops
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stmlib = import_stmlib()
    import tracer
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(W.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = W.WORKLOADS[args.workload]
    meta = run_metadata(stmlib)
    print(json.dumps({"meta": meta}), flush=True)

    inputs = W.make_inputs(wl, args.seed)
    tracers = {p: tracer.Tracer() for p in W.PROTOCOLS}
    lanes, setup_times, audits, errors, rounds = measure(
        wl, inputs, args.seconds, bool(args.trace), tracers)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for lane in lanes:
        if wl.name == "long-walk":
            errors += W.check_against_python_set(lane)
        elif wl.name == "hot-spot":
            errors += W.check_hot_spot(lane)

    protocols = [lane.protocol for lane in lanes]
    if args.trace:
        units = per_layer_units(protocols)
        values = per_layer_metrics(lanes, tracers, audits)
    else:
        units = end_to_end_units(protocols)
        values = end_to_end_metrics(lanes, setup_times, peak_rss_mb, audits)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted = sum(lane.ops_done() for lane in lanes)

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": meta, "rounds": rounds, "turn_s": TURN_SECONDS,
        "setup_s": setup_times, "errors": errors,
        "samples": {lane.protocol: lane.samples for lane in lanes},
        "audits": {p: [{"events": a.events, "check_s": a.check_s, "replay_s": a.replay_s,
                        "passes": a.passes, "timed_s": a.timed_s}
                       for a in rows] for p, rows in audits.items()},
        "spans": {p: t.spans() for p, t in tracers.items()} if args.trace else {},
        "metrics": metrics,
    }
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": 0,
                      "metrics": metrics}), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
