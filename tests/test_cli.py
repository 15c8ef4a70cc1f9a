"""End-to-end runs of the stm-bench entry point."""

import argparse

import pytest
from conftest import COMMIT, READ, WRITE, history_of

from stmlib.bench import CSV_HEADER
from stmlib.cli import _parse_key_range, _parse_threads, main
from stmlib.oracle import load_trace, save_trace


def test_parse_threads_forms():
    assert _parse_threads("4") == [4]
    assert _parse_threads("1,2,8") == [1, 2, 8]
    assert _parse_threads("10:30:10") == [10, 20, 30]
    assert _parse_threads("10:100:10") == list(range(10, 101, 10))


@pytest.mark.parametrize("bad", ["1:2", "5:1:1", "1:9:0", "1:2:3:4"])
def test_parse_threads_rejects(bad):
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_threads(bad)


def test_parse_key_range():
    assert _parse_key_range("1:64") == (1, 64)
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_key_range("64")


def test_bench_sweep_writes_artifacts(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    plot_path = tmp_path / "sweep.py"
    trace_path = tmp_path / "run.trace"
    code = main([
        "bench", "--protocol", "mvto", "--threads", "1,2", "--ops", "40",
        "--key-range", "1:16", "--seed", "9", "--record-history",
        "--csv", str(csv_path), "--plot", str(plot_path),
        "--trace", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("mvto ")]
    assert len(lines) == 2
    assert "threads=1" in lines[0] and "threads=2" in lines[1]
    assert all("serializable=yes" in l and "replay=ok" in l for l in lines)

    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 3
    compile(plot_path.read_text(), str(plot_path), "exec")

    history = load_trace(trace_path)
    assert history.protocol == "mvto"
    assert history.events


def test_bench_trace_needs_recording(tmp_path, capsys):
    code = main([
        "bench", "--protocol", "bto", "--ops", "5",
        "--trace", str(tmp_path / "x.trace"),
    ])
    assert code == 2
    assert "--record-history" in capsys.readouterr().err


def test_bench_surfaces_config_errors(tmp_path, capsys):
    code = main([
        "bench", "--protocol", "bto", "--ops", "5", "--key-range", "9:3",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_check_accepts_a_clean_trace(tmp_path, capsys):
    trace = tmp_path / "good.trace"
    h = history_of([
        (1, READ, 1, 0), (1, WRITE, 1), (1, COMMIT),
        (2, READ, 1, 1), (2, COMMIT),
    ], protocol="bto")
    save_trace(h, trace)
    assert main(["check", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "5 events, 2 committed" in out
    assert "serializable: yes" in out


def test_check_flags_a_doctored_trace(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    h = history_of([
        (1, READ, 1, 0), (2, READ, 1, 0),
        (1, WRITE, 1), (1, COMMIT),
        (2, WRITE, 1), (2, COMMIT),
    ], protocol="bto")
    save_trace(h, trace)
    assert main(["check", "--trace", str(trace)]) == 1
    assert "cycle:" in capsys.readouterr().out


def test_check_multiversion_flag_changes_the_rules(tmp_path, capsys):
    # old-snapshot reader: a cycle in commit order, clean in version
    # order; the trace's protocol header alone picks the rules
    steps = [
        (1, READ, 1, 0),
        (2, WRITE, 1), (2, WRITE, 2), (2, COMMIT),
        (1, READ, 2, 0),
        (1, COMMIT),
    ]
    trace = tmp_path / "mv.trace"
    save_trace(history_of(steps, protocol="bto"), trace)
    assert main(["check", "--trace", str(trace)]) == 1
    save_trace(history_of(steps, protocol="mvto"), trace)
    assert main(["check", "--trace", str(trace)]) == 0


@pytest.mark.parametrize("content, message", [
    (None, "run.trace"),
    ("1 1 1 0 5 0\nnot a line\n", "run.trace:2: non-integer field"),
    ("1 1 1 0 5 0\n2 1 1\n", "run.trace:2: 3 fields"),
    ("1 1 1 0 5 0\n", "never terminated"),
    ("1 1 1 9 5\n1 1 1 2 0\n", "run.trace:1: unknown event kind 9"),
    # Far past the text reader's first read-ahead chunk.
    ("".join(f"{i} {i} {i} 2 0\n" for i in range(1, 3000)) + "3000 3000 3000 2 0 caf\u00e9\n",
     "run.trace:3000: non-ASCII byte"),
    ("# protocol=\n1 1 1 2 0\n", "run.trace:1: empty protocol name"),
    ("# protocol=MVTO\n1 1 1 2 0\n", "run.trace:1: unknown protocol name 'MVTO'"),
    ("# protocol=mvto\n1 2 2 1 5\n2 2 2 2 0\n3 1 1 0 5\n4 1 1 2 0\n",
     "run.trace:4: 5 fields, expected 6 for a read event"),
    ("1 1 1 1 5 0\n2 1 1 2 0\n", "run.trace:1: 6 fields, expected 5 for a write event"),
    # Read in seq order, this bto history is not serializable; read in
    # line order, it would be.
    ("# protocol=bto\n1 1 1 0 1 0\n5 2 2 0 1 0\n3 1 1 1 1\n4 1 1 2 0\n5 2 2 1 1\n"
     "6 2 2 2 0\n", "run.trace:4: seq 3 does not follow seq 5"),
    ("# protocol=mvto\n1 1 7 0 1 0\n2 1 9 2 0\n", "run.trace:2: ts 7 differs from txn 1"),
    # Without the check, the first reads serializable and the second a
    # cycle of one transaction.
    ("1 1 1 1 5\n2 1 1 2 0\n3 1 1 3 0\n", "run.trace:3: abort event after txn 1 ended"),
    ("1 1 1 1 5\n2 1 1 2 0\n3 1 1 0 5 1\n", "run.trace:3: read event after txn 1 ended"),
], ids=["missing-file", "non-integer-field", "short-line", "incomplete-history",
        "unknown-kind", "non-ascii", "empty-protocol", "unknown-protocol",
        "read-without-version", "extra-field", "seq-not-increasing", "ts-not-txn",
        "abort-after-commit", "read-after-commit"])
def test_check_bad_trace_is_an_error(tmp_path, capsys, content, message):
    trace = tmp_path / "run.trace"
    if content is not None:
        trace.write_text(content, encoding="utf-8")
    code = main(["check", "--trace", str(trace)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
