"""Workload generator, measurement plumbing and report emission."""

import random

import pytest

from stmlib import (
    BenchConfig,
    BenchReport,
    ConfigInvalid,
    emit_report,
    generate_op,
    run_benchmark,
)
from stmlib.bench import CSV_HEADER, OP_KINDS
from stmlib.txnset import HEAD_KEY, TAIL_KEY


def small_cfg(**overrides):
    base = dict(protocol="bto", threads=1, ops=50, key_lo=1, key_hi=16, seed=3)
    base.update(overrides)
    return BenchConfig(**base)


def draw_counts(cfg, n):
    rng = random.Random(99)
    counts = dict.fromkeys(OP_KINDS, 0)
    for _ in range(n):
        kind, value = generate_op(rng, cfg)
        counts[kind] += 1
        assert cfg.key_lo <= value <= cfg.key_hi
    return counts


def test_update_rate_zero_is_all_lookups():
    counts = draw_counts(small_cfg(update_rate=0.0), 2000)
    assert counts["contains"] == 2000


def test_update_rate_one_has_no_lookups():
    counts = draw_counts(small_cfg(update_rate=1.0), 20000)
    assert counts["contains"] == 0
    assert abs(counts["add"] - counts["remove"]) < 800


def test_update_rate_splits_evenly():
    n = 100_000
    counts = draw_counts(small_cfg(update_rate=0.7), n)
    assert abs(counts["contains"] / n - 0.30) < 0.01
    assert abs(counts["add"] / n - 0.35) < 0.01
    assert abs(counts["remove"] / n - 0.35) < 0.01


@pytest.mark.parametrize(
    "overrides",
    [
        {"protocol": "2pl"},
        {"threads": 0},
        {"ops": None},
        {"ops": 10, "duration": 1.0},
        {"ops": 0},
        {"ops": None, "duration": 0.0},
        {"update_rate": -0.1},
        {"update_rate": 1.1},
        {"key_lo": 9, "key_hi": 3},
        {"key_lo": HEAD_KEY},
        {"key_hi": TAIL_KEY},
        {"fill": 1.5},
        {"gc_period": 0},
    ],
)
def test_config_validation_rejects(overrides):
    with pytest.raises(ConfigInvalid):
        small_cfg(**overrides).validate()


def test_key_range_renders_lo_colon_hi():
    assert small_cfg(key_lo=7, key_hi=99).key_range == "7:99"


def test_single_thread_runs_are_deterministic():
    cfg = dict(protocol="sgt", threads=1, ops=120, key_lo=1, key_hi=12,
               seed=21, record_history=True)
    a = run_benchmark(BenchConfig(**cfg))
    b = run_benchmark(BenchConfig(**cfg))
    assert a.final_items == b.final_items
    assert a.op_counts == b.op_counts
    assert a.history.events == b.history.events
    # csv rows agree except the clock-derived columns
    ra, rb = a.csv_row(), b.csv_row()
    header = CSV_HEADER.split(",")
    timed = {i for i, name in enumerate(header)
             if "ms" in name or name == "throughput_ops_s"}
    assert [v for i, v in enumerate(ra) if i not in timed] == \
           [v for i, v in enumerate(rb) if i not in timed]


def test_multi_thread_op_streams_are_seeded():
    cfg = dict(protocol="mvto", threads=4, ops=100, key_lo=1, key_hi=32, seed=8)
    a = run_benchmark(BenchConfig(**cfg))
    b = run_benchmark(BenchConfig(**cfg))
    assert a.op_counts == b.op_counts
    assert a.committed == b.committed == 400


def test_conservation_and_clocks(protocol):
    cfg = BenchConfig(protocol=protocol, threads=3, ops=150, key_lo=1,
                      key_hi=10, seed=6)
    report = run_benchmark(cfg)
    assert report.committed == 3 * 150
    assert sum(report.op_counts.values()) == report.committed
    assert report.attempts == report.committed + report.aborted
    assert report.aborted >= 0
    assert 0.0 <= report.abort_rate < 1.0
    assert report.throughput_ops_s > 0
    assert report.wall_ms > 0
    assert report.proc_cpu_ms > 0
    assert len(report.thread_cpu_ms) == 3
    assert report.proc_cpu_ms + 5.0 >= max(report.thread_cpu_ms)


def test_duration_mode_respects_the_deadline():
    cfg = BenchConfig(protocol="bto", threads=2, duration=0.2, ops=None,
                      key_lo=1, key_hi=64, seed=4)
    report = run_benchmark(cfg)
    assert report.committed > 0
    assert report.wall_ms >= 150


def test_fill_extremes_are_exact():
    full = run_benchmark(small_cfg(update_rate=0.0, fill=1.0, ops=20))
    assert full.final_items == list(range(1, 17))
    empty = run_benchmark(small_cfg(update_rate=0.0, fill=0.0, ops=20))
    assert empty.final_items == []


def test_worker_failures_surface_in_the_caller(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr("stmlib.bench.run_op", boom)
    with pytest.raises(RuntimeError):
        run_benchmark(small_cfg(threads=2, fill=0.0))


def test_retry_limit_reaches_the_workers(monkeypatch):
    seen = set()

    def spy(engine, tset, kind, value=None, retry_limit=None):
        seen.add(retry_limit)
        return True, 0

    monkeypatch.setattr("stmlib.bench.run_op", spy)
    run_benchmark(small_cfg(threads=2, ops=10, fill=0.0, retry_limit=7))
    assert seen == {7}


def test_recorded_runs_self_verify(protocol):
    cfg = BenchConfig(protocol=protocol, threads=2, ops=80, key_lo=1,
                      key_hi=8, seed=11, record_history=True)
    report = run_benchmark(cfg)
    assert report.serializable is True
    assert report.replay_ok is True
    assert report.history.final_snapshot == report.final_items
    assert report.history.protocol == protocol


def test_unrecorded_runs_skip_verification():
    report = run_benchmark(small_cfg())
    assert report.history is None
    assert report.serializable is None
    assert report.replay_ok is None


def test_report_with_no_attempts_divides_nothing():
    report = BenchReport(config=small_cfg(), wall_ms=0.0, proc_cpu_ms=0.0,
                         thread_cpu_ms=[], committed=0, aborted=0,
                         op_counts={}, final_items=[])
    assert report.abort_rate == 0.0
    assert report.throughput_ops_s == 0.0
    row = report.csv_row()
    assert row[7:10] == ["0.000", "0.000", "0.000"]


def test_csv_row_matches_header_shape():
    report = run_benchmark(small_cfg(update_rate=0.25))
    row = report.csv_row()
    header = CSV_HEADER.split(",")
    assert len(row) == len(header) == 14
    assert row[0] == "bto"
    assert row[header.index("update_rate")] == "0.25"
    assert row[header.index("key_range")] == "1:16"
    assert row[header.index("committed")] == "50"


def test_emit_report_writes_csv_and_plot(tmp_path):
    reports = [run_benchmark(small_cfg(threads=t, ops=20)) for t in (1, 2)]
    csv_path = tmp_path / "out.csv"
    plot_path = tmp_path / "plot.py"
    written = emit_report(reports, csv_path=csv_path, plot_path=plot_path)
    assert written == [csv_path, plot_path]

    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("bto,1,") and lines[2].startswith("bto,2,")

    script = plot_path.read_text()
    compile(script, str(plot_path), "exec")
    assert "'threads': 1" in script and "'threads': 2" in script
    assert "matplotlib" in script


def test_emit_report_rejects_empty():
    with pytest.raises(ConfigInvalid):
        emit_report([])


def test_emit_report_csv_only(tmp_path):
    csv_path = tmp_path / "only.csv"
    report = run_benchmark(small_cfg(ops=10))
    assert emit_report([report], csv_path=csv_path) == [csv_path]
    assert not (tmp_path / "plot.py").exists()
