"""Command line subcommands: stats, acf, compare, synth."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from mbstat import lagstats
from mbstat.cli import main

DATA = Path(__file__).parent / "data"

W1_CSV = "tick,value,volume\n0,10,2\n1,6,2\n"
W2_CSV = "tick,value,volume\n0,10,1\n1,6,3\n"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def test_stats_degenerate_window(runner, tmp_path):
    inp = tmp_path / "w1.csv"
    inp.write_text("tick,value,volume\n0,10,2\n1,6,2\n2,1,1\n")
    res = run(runner, ["stats", "--input", str(inp), "--window-n", "3", "--lag-step", "1"])
    assert res.exit_code == 0
    rows = [json.loads(line) for line in res.output.strip().splitlines()]
    assert rows[0]["center_tick"] == 1
    assert rows[0]["effective_count"] == 3


def test_stats_w2_negative_volatility_surfaced(runner, tmp_path):
    inp = tmp_path / "w2.csv"
    inp.write_text(W2_CSV + "2,1,1\n")
    res = run(runner, ["stats", "--input", str(inp), "--window-n", "3", "--lag-step", "1"])
    row = json.loads(res.output.strip().splitlines()[0])
    assert row["vwap"] == pytest.approx(17 / 5)


def test_stats_empty_input_fails(runner, tmp_path):
    inp = tmp_path / "empty.csv"
    inp.write_text("tick,value,volume\n")
    res = runner.invoke(main, ["stats", "--input", str(inp)])
    assert res.exit_code != 0


def test_stats_bad_row_reports_line(runner, tmp_path):
    inp = tmp_path / "bad.csv"
    inp.write_text("tick,value,volume\n0,10,2\n1,x,2\n")
    res = runner.invoke(main, ["stats", "--input", str(inp)])
    assert res.exit_code != 0
    assert "line 3" in res.output


def test_stats_threads_byte_identical(runner, tmp_path):
    inp = DATA / "golden_tape.csv"
    outs = []
    for threads in (1, 8):
        out = tmp_path / f"t{threads}.jsonl"
        res = run(runner, [
            "stats", "--input", str(inp), "--output", str(out),
            "--window-n", "101", "--lag-step", "25", "--threads", str(threads),
        ])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_compare_equal_volume_tape(runner, tmp_path):
    inp = tmp_path / "eq.csv"
    inp.write_text("tick,value,volume\n0,10,2\n1,6,2\n2,4,2\n")
    res = run(runner, ["compare", "--input", str(inp), "--window-n", "3", "--lag-step", "1"])
    assert res.exit_code == 0
    for line in res.output.strip().splitlines()[1:]:
        diff = float(line.split(",")[4])
        assert abs(diff) < 1e-12


def test_compare_w2_divergence(runner, tmp_path):
    inp = tmp_path / "w2.csv"
    inp.write_text(W2_CSV + "2,4,2\n")
    res = run(runner, ["compare", "--input", str(inp), "--window-n", "3",
                       "--lag-step", "1", "--max-order", "2"])
    rows = {}
    for line in res.output.strip().splitlines()[1:]:
        center, n, freq, market, diff = line.split(",")
        rows[int(n)] = (float(freq), float(market), float(diff))
    # first window covers W2 plus one extra trade; check orders exist
    assert set(rows) == {1, 2}


def test_compare_w2_exact_values(runner, tmp_path):
    # gap placement makes the center-2 window hold exactly W2
    inp = tmp_path / "w2.csv"
    inp.write_text("tick,value,volume\n0,1,1\n2,10,1\n3,6,3\n6,1,1\n")
    res = run(runner, ["compare", "--input", str(inp), "--window-n", "3",
                       "--lag-step", "2", "--max-order", "2"])
    lines = res.output.strip().splitlines()[1:]
    by_n = {int(l.split(",")[1]): l.split(",") for l in lines if l.split(",")[0] == "2"}
    freq1, market1 = float(by_n[1][2]), float(by_n[1][3])
    assert (freq1, market1) == (6.0, 4.0)
    assert float(by_n[1][4]) == 2.0
    freq2, market2 = float(by_n[2][2]), float(by_n[2][3])
    assert (freq2, market2) == (52.0, 13.6)
    assert float(by_n[2][4]) == pytest.approx(38.4, rel=1e-14)


def test_synth_deterministic(runner, tmp_path):
    args = ["synth", "--mode", "pv", "--len", "200", "--tau-a", "5", "--tau-b", "10",
            "--seed", "1"]
    a = run(runner, args + ["--output", str(tmp_path / "a.csv")])
    b = run(runner, args + ["--output", str(tmp_path / "b.csv")])
    assert a.exit_code == b.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_synth_zero_sigma_constant(runner, tmp_path):
    out = tmp_path / "c.csv"
    run(runner, ["synth", "--mode", "pv", "--len", "50", "--tau-a", "5", "--tau-b", "5",
                 "--sigma-a", "0", "--sigma-b", "0", "--output", str(out)])
    rows = out.read_text().strip().splitlines()[1:]
    assert len({r.split(",")[1] for r in rows}) == 1
    assert len({r.split(",")[2] for r in rows}) == 1


def test_acf_constant_tape_zero_curve(runner, tmp_path):
    inp = tmp_path / "const.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},4,2\n" for t in range(40)))
    res = run(runner, ["acf", "--input", str(inp), "--window-n", "5", "--lag-step", "1",
                       "--max-lag", "5", "--aggregate", "mean"])
    doc = json.loads(res.output)
    assert doc["scale_value"] == 0
    assert doc["scale_volume"] == 0
    assert doc["scale_price"] == 0
    for p in doc["points"]:
        assert abs(p["b_price"]) < 1e-12


def test_acf_lag0_matches_stats_volatility(runner, tmp_path):
    inp = DATA / "golden_tape.csv"
    res_acf = run(runner, ["acf", "--input", str(inp), "--window-n", "101",
                           "--lag-step", "25", "--max-lag", "0"])
    curve = json.loads(res_acf.output)
    res_stats = run(runner, ["stats", "--input", str(inp), "--window-n", "101",
                             "--lag-step", "25"])
    vol = {
        row["center_tick"]: row["market_volatility"]
        for row in map(json.loads, res_stats.output.strip().splitlines())
        if "center_tick" in row
    }
    for p in curve["points"]:
        assert p["b_price"] == pytest.approx(vol[p["center_tick"]], rel=1e-10)


def test_acf_threads_match_golden(runner, tmp_path):
    inp = DATA / "golden_tape.csv"
    blobs = []
    for threads in (1, 4, 8):
        base = tmp_path / f"curve{threads}"
        res = run(runner, [
            "acf", "--input", str(inp), "--window-n", "101", "--lag-step", "1",
            "--max-lag", "50", "--aggregate", "mean", "--threads", str(threads),
            "--output", str(base),
        ])
        assert res.exit_code == 0
        blobs.append((base.with_suffix(".json").read_bytes(),
                      base.with_suffix(".csv").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0][0] == (DATA / "golden_acf.json").read_bytes()
    assert blobs[0][1] == (DATA / "golden_acf.csv").read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_acf_per_center_golden_bytes(runner, tmp_path, threads):
    base = tmp_path / "centers"
    res = run(runner, [
        "acf", "--input", str(DATA / "golden_tape.csv"), "--window-n", "101", "--lag-step", "25",
        "--max-lag", "50", "--aggregate", "per-center", "--threads", threads,
        "--output", str(base),
    ])
    assert res.exit_code == 0
    assert base.with_suffix(".json").read_bytes() == (DATA / "golden_acf_centers.json").read_bytes()
    assert base.with_suffix(".csv").read_bytes() == (DATA / "golden_acf_centers.csv").read_bytes()


def test_acf_lags_past_span_change_only_max_lag(runner, tmp_path):
    inp = tmp_path / "t5.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},{t + 1},{5 - t}\n" for t in range(5)))
    outs = {}
    for max_lag in ("4", "6"):
        base = tmp_path / f"curve{max_lag}"
        res = run(runner, ["acf", "--input", str(inp), "--window-n", "3", "--lag-step", "1",
                           "--max-lag", max_lag, "--output", str(base)])
        assert res.exit_code == 0
        outs[max_lag] = (json.loads(base.with_suffix(".json").read_text()),
                         base.with_suffix(".csv").read_bytes())
    (doc4, csv4), (doc6, csv6) = outs["4"], outs["6"]
    assert (doc4.pop("max_lag_ticks"), doc6.pop("max_lag_ticks")) == (4, 6)
    assert doc4 == doc6 and doc4["points"]
    assert csv4 == csv6


def test_config_file_flags_win(runner, tmp_path):
    inp = tmp_path / "t.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},4,2\n" for t in range(20)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window_n": 5, "lag_step": 1, "max_order": 2}))
    res = run(runner, ["stats", "--input", str(inp), "--config", str(cfg)])
    assert res.exit_code == 0
    row = json.loads(res.output.strip().splitlines()[0])
    assert len(row["market_price"]) == 2  # from config
    res2 = run(runner, ["stats", "--input", str(inp), "--config", str(cfg),
                        "--max-order", "3"])
    row2 = json.loads(res2.output.strip().splitlines()[0])
    assert len(row2["market_price"]) == 3  # flag wins


def test_missing_input_is_error(runner):
    res = runner.invoke(main, ["stats"])
    assert res.exit_code != 0


def test_stats_overflow_is_clean_error(runner, tmp_path):
    inp = tmp_path / "huge.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},1e200,1\n" for t in range(5)))
    res = run(runner, ["stats", "--input", str(inp), "--window-n", "3", "--lag-step", "1"])
    assert res.exit_code != 0
    assert "Error:" in res.output
    assert "Traceback" not in res.output


def test_stats_overflow_names_window_series_order(runner, tmp_path):
    inp = tmp_path / "pow.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},1e150,1e-160\n" for t in range(3)))
    res = run(runner, ["stats", "--input", str(inp), "--window-n", "3", "--lag-step", "1"])
    assert res.exit_code == 1
    (line,) = res.output.strip().splitlines()
    assert line == "Error: OverflowError: window at tick 1: value moment of order 3 overflows"


@pytest.mark.parametrize("big, center", [(0, 1), (50, 49)], ids=["first-window", "later-window"])
def test_stats_overflow_in_first_or_later_window_names_it(runner, tmp_path, big, center):
    inp = tmp_path / "pow.csv"
    inp.write_text("tick,value,volume\n"
                   + "".join(f"{t},{1e40 if t == big else 1.0},1\n" for t in range(100)))
    res = run(runner, ["stats", "--input", str(inp), "--window-n", "3", "--lag-step", "1",
                       "--max-order", "8"])
    assert res.exit_code == 1
    (line,) = res.output.strip().splitlines()
    assert line == ("Error: OverflowError: "
                    f"window at tick {center}: value moment of order 8 overflows")


@pytest.mark.parametrize("command", ["stats", "compare"])
def test_max_order_1_computes_no_price_moment_of_order_2(runner, tmp_path, command):
    """The volatility needs the value and volume moments of order 2, not the
    price moment: at --max-order 1 an overflowing price square is not an error."""
    inp = tmp_path / "t.csv"
    inp.write_text("tick,value,volume\n0,1,1\n1,1e-10,1e-170\n2,1,1\n")
    args = [command, "--input", str(inp), "--window-n", "3", "--lag-step", "1", "--max-order"]
    res = run(runner, [*args, "1"])
    assert res.exit_code == 0
    assert "3.3333333333333334e+159" in res.stdout
    res = run(runner, [*args, "2"])
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "Error: OverflowError: window at tick 1: price moment of order 2 overflows"]


@pytest.mark.parametrize(
    "config",
    [{"window_n": "5"}, {"window_n": True}, {"lag_stepp": 3}, {"epsilon": 1.0}],
    ids=["string-for-int", "bool-for-int", "unknown-key", "removed-epsilon"],
)
def test_config_rejects_bad_entries(runner, tmp_path, config):
    inp = tmp_path / "t.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},4,2\n" for t in range(20)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = run(runner, ["stats", "--input", str(inp), "--config", str(cfg)])
    assert res.exit_code != 0
    (key,) = config
    (line,) = res.output.strip().splitlines()
    assert line.startswith("Error:") and repr(key) in line


@pytest.mark.parametrize("command,golden", [("stats", "golden_stats.jsonl"),
                                            ("compare", "golden_compare.csv")])
def test_moments_golden_bytes(runner, tmp_path, command, golden):
    out = tmp_path / golden
    res = run(runner, [command, "--input", str(DATA / "golden_tape.csv"), "--window-n", "101",
                       "--lag-step", "25", "--max-order", "4", "--output", str(out)])
    assert res.exit_code == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_excel_csv_utf8_tape_writes_the_golden_stats(runner, tmp_path):
    """Excel's "CSV UTF-8" export starts with a byte-order mark and ends its lines in CRLF."""
    inp = tmp_path / "excel.csv"
    inp.write_bytes(b"\xef\xbb\xbf" + (DATA / "golden_tape.csv").read_bytes().replace(b"\n", b"\r\n"))
    out = tmp_path / "golden_stats.jsonl"
    res = run(runner, ["stats", "--input", str(inp), "--window-n", "101", "--lag-step", "25",
                       "--max-order", "4", "--output", str(out)])
    assert res.exit_code == 0
    assert out.read_bytes() == (DATA / "golden_stats.jsonl").read_bytes()


@pytest.mark.parametrize("command", ["stats", "compare"])
def test_no_valid_window_is_one_line_error(runner, tmp_path, command):
    inp = tmp_path / "sparse.csv"
    inp.write_text("tick,value,volume\n0,4,2\n5,4,2\n10,4,2\n")
    res = runner.invoke(main, [command, "--input", str(inp), "--window-n", "11",
                               "--lag-step", "1", "--min-trades", "4"])
    assert res.exit_code == 1
    assert res.output.splitlines() == ["Error: no valid windows on this tape"]


@pytest.mark.parametrize("command, args", [("stats", []), ("compare", []),
                                           ("acf", ["--max-lag", "0"])])
def test_tape_shorter_than_window_is_one_line_error(runner, tmp_path, command, args):
    """A tape with no window at all is named as such by every command, not as
    a tape whose windows are all invalid."""
    inp = tmp_path / "short.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},4,2\n" for t in range(5)))
    res = runner.invoke(main, [command, "--input", str(inp), "--window-n", "7",
                               "--lag-step", "1", *args])
    assert res.exit_code == 1
    assert res.output.splitlines() == ["Error: tape span shorter than the averaging window"]


@pytest.mark.parametrize("command, args", [("stats", []), ("compare", []),
                                           ("acf", ["--max-lag", "0"])])
@pytest.mark.parametrize("flags, line", [
    (["--window-n", "3", "--lag-step", "3"],
     "Error: no window fits at a multiple of the lag step (3)"),
    (["--window-n", "99999999999999999999999"],
     "Error: tape span shorter than the averaging window"),
], ids=["no-lag-step-multiple", "window-n-past-int64"])
def test_no_window_names_its_cause(runner, tmp_path, command, args, flags, line):
    """Ticks 1..3 span N = 3 ticks, but the one center tick, 2, is no multiple
    of the lag step 3; a window wider than int64 fits on no tape."""
    inp = tmp_path / "short.csv"
    inp.write_text("tick,value,volume\n1,4,2\n2,4,2\n3,4,2\n")
    res = runner.invoke(main, [command, "--input", str(inp), *flags, *args])
    assert res.exit_code == 1
    assert res.output.splitlines() == [line]


@pytest.mark.parametrize("command, args", [("stats", []), ("compare", []),
                                           ("acf", ["--max-lag", "0"])])
@pytest.mark.parametrize("first, count", [(-(2**63), 2**64), (0, 2**63)])
def test_grid_past_any_array_names_its_center_count(runner, tmp_path, command, args, first,
                                                     count):
    """Two rows from ``first`` to the int64 top with N = 1 and step 1 plan
    ``count`` centers: 2**64 made numpy say ``Maximum allowed size
    exceeded``, and 2**63 made ``np.arange`` return no center at all."""
    inp = tmp_path / "wide.csv"
    inp.write_text(f"tick,value,volume\n{first},4,2\n{2**63 - 1},4,2\n")
    res = runner.invoke(main, [command, "--input", str(inp), "--window-n", "1",
                               "--lag-step", "1", *args])
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        f"Error: out of memory: the window grid has {count} centers, more than an array can hold"]


@given(ticks=st.sets(st.integers(0, 40), min_size=1), offset=st.sampled_from([-17, 0, 1000]),
       half_width=st.integers(0, 6), step=st.integers(1, 13), min_trades=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_commands_agree_on_the_window_plan(ticks, offset, half_width, step, min_trades):
    """On a gappy tape, stats and compare write the windows that per-center
    acf writes at lag 0; with no valid window, stats, compare and both acf
    modes fail with the same one line and create no output file."""
    n = 2 * half_width + 1
    step = min(step, n)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        inp = work / "tape.csv"
        inp.write_text("tick,value,volume\n" + "".join(
            f"{offset + t},{1 + t % 5},{1 + t % 3}\n" for t in sorted(ticks)))
        common = ["--input", str(inp), "--window-n", str(n), "--lag-step", str(step),
                  "--min-trades", str(min_trades)]
        acf = ["acf", *common, "--max-lag", str(2 * step)]
        runs = {"stats": ["stats", *common], "compare": ["compare", *common],
                "per-center": acf, "mean": [*acf, "--aggregate", "mean"]}
        results = [runner.invoke(main, args) for args in runs.values()]
        if results[0].exit_code:
            results += [runner.invoke(main, [*args, "--output", str(work / name)])
                        for name, args in runs.items()]
            assert {(res.exit_code, res.stdout) for res in results} == {(1, "")}
            lines = {res.output for res in results}
            assert len(lines) == 1
            assert re.fullmatch(r"Error: (tape span shorter than the averaging window|no window "
                                r"fits at a multiple of the lag step \(\d+\)|no valid windows "
                                r"on this tape)\n", lines.pop())
            assert [p.name for p in work.iterdir()] == ["tape.csv"]
            return
    assert [res.exit_code for res in results] == [0] * 4
    stats = [json.loads(row)["center_tick"] for row in results[0].stdout.splitlines()]
    compare = sorted({int(row["center_tick"])
                      for row in csv.DictReader(io.StringIO(results[1].stdout))})
    points = json.loads(results[2].stdout)["points"]
    assert stats == compare == [p["center_tick"] for p in points if p["lag_ticks"] == 0]
    assert stats


def test_config_not_an_object_is_one_line_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    res = runner.invoke(main, ["stats", "--input", str(DATA / "golden_tape.csv"),
                               "--config", str(cfg)])
    assert res.exit_code == 1
    assert res.output.splitlines() == ["Error: config file must hold a JSON object"]


def test_merged_tick_overflow_names_tick(runner, tmp_path):
    inp = tmp_path / "merge.csv"
    inp.write_text("tick,value,volume\n0,1e308,1\n0,1e308,1\n")
    res = runner.invoke(main, ["stats", "--input", str(inp)])
    assert res.exit_code == 1
    (line,) = res.output.strip().splitlines()
    assert line.startswith("Error: tick 0: value") and line.endswith("inf")


def test_acf_nonfinite_is_clean_error(runner, tmp_path):
    inp = tmp_path / "huge.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},1e200,1\n" for t in range(5)))
    base = tmp_path / "curve"
    res = runner.invoke(main, ["acf", "--input", str(inp), "--window-n", "3", "--max-lag", "1",
                               "--aggregate", "mean", "--output", str(base)])
    assert res.exit_code == 1
    (line,) = res.output.strip().splitlines()
    assert line.startswith("Error:")
    assert list(tmp_path.iterdir()) == [inp]
    # The line names the field, the lag and the center tick (mean points
    # have none), in both modes, before any file or stdout is written.
    for aggregate, where in (("mean", "the mean curve"), ("per-center", "center tick 1")):
        for output in (["--output", str(base)], []):
            res = runner.invoke(main, ["acf", "--input", str(inp), "--window-n", "3",
                                       "--max-lag", "1", "--aggregate", aggregate, *output])
            assert res.exit_code == 1
            assert res.stdout == ""
            assert re.fullmatch(f"Error: b_value is (nan|inf) at lag 0 of {where}\n", res.stderr)
            assert list(tmp_path.iterdir()) == [inp]


def test_acf_output_changes_no_file_unless_both_open(runner, tmp_path):
    inp = tmp_path / "t.csv"
    inp.write_text("tick,value,volume\n0,1,1\n1,2,1\n2,3,1\n")
    base = tmp_path / "pf"
    args = ["acf", "--input", str(inp), "--window-n", "1", "--max-lag", "0",
            "--aggregate", "mean", "--output", str(base)]
    (tmp_path / "pf.csv").mkdir()  # the second file cannot be opened
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert res.stderr == f"Error: [Errno 21] Is a directory: '{base}.csv'\n"
    assert not (tmp_path / "pf.json").exists()  # a missing file is not created
    old = "an earlier result, longer than the new one\n" * 100
    (tmp_path / "pf.json").write_text(old)
    assert runner.invoke(main, args).stderr == res.stderr
    assert (tmp_path / "pf.json").read_text() == old  # an existing file keeps its bytes
    (tmp_path / "pf.csv").rmdir()
    assert run(runner, args).exit_code == 0
    assert (tmp_path / "pf.json").read_text() == run(runner, args[:-2]).stdout


def test_acf_min_trades_keeps_stats_valid_centers(runner, tmp_path):
    # Gaps leave windows of 1 to 5 records; --min-trades 4 drops some.
    present = [t for t in range(60) if t % 7 not in (2, 3) and t % 11 != 5]
    inp = tmp_path / "gaps.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},{1 + t % 5},{1 + t % 3}\n"
                                                   for t in present))
    common = ["--input", str(inp), "--window-n", "5", "--lag-step", "1", "--min-trades", "4"]
    res_stats = run(runner, ["stats", *common])
    valid = {json.loads(line)["center_tick"] for line in res_stats.stdout.splitlines()}
    summary = json.loads(res_stats.stderr)
    assert 0 < summary["valid"] < summary["windows"]
    res_acf = run(runner, ["acf", *common, "--max-lag", "3"])
    curve = json.loads(res_acf.stdout)
    assert {p["center_tick"] for p in curve["points"]} == valid


@pytest.mark.parametrize("command", ["stats", "compare"])
def test_volume_moment_underflow_names_window_order(runner, tmp_path, command):
    inp = tmp_path / "tiny.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},1e10,1e-300\n" for t in range(3)))
    res = runner.invoke(main, [command, "--input", str(inp), "--window-n", "3", "--lag-step", "1",
                               "--max-order", "1"])
    assert res.exit_code == 1
    (line,) = res.output.strip().splitlines()
    if command == "stats":
        assert line == ("Error: ZeroDivisionError: window at tick 1: "
                        "volume moment of order 2 underflows to 0")
    else:  # compare takes no order-2 moment at --max-order 1; its price of 1e310 is inf
        assert line == "Error: OverflowError: window at tick 1: freq_price moment of order 1 is inf"


@pytest.mark.parametrize("command", ["stats", "compare"])
def test_volatility_overflow_names_window(runner, tmp_path, command):
    # The VWAP of the window at tick 50 is about 5e154, so its square overflows;
    # compare writes no volatility, so it does not check it.
    inp = tmp_path / "vwap.csv"
    inp.write_text("tick,value,volume\n"
                   + "".join(f"{t},1e150,{0.00202 if t == 50 else 1e-155}\n" for t in range(101)))
    res = run(runner, [command, "--input", str(inp), "--window-n", "101", "--lag-step", "1",
                       "--max-order", "1"])
    if command == "stats":
        assert res.exit_code == 1
        assert res.output.splitlines() == [
            "Error: OverflowError: window at tick 50: market volatility overflows"]
    else:
        assert res.exit_code == 0
        assert res.stdout.splitlines()[1:] == [
            "50,1,9.9009900990099e+304,4.9999999999999994e+154,9.9009900990099e+304"]


@pytest.mark.parametrize("command", ["stats", "compare"])
def test_compare_takes_no_moment_beyond_max_order(runner, tmp_path, command):
    # 1e160 ** 2 overflows: stats needs it for the volatility, compare at
    # --max-order 1 writes only the first moments.
    inp = tmp_path / "big.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},1e160,1\n" for t in range(3)))
    res = run(runner, [command, "--input", str(inp), "--window-n", "3", "--lag-step", "1",
                       "--max-order", "1"])
    if command == "stats":
        assert res.exit_code == 1
        assert res.output.splitlines() == [
            "Error: OverflowError: window at tick 1: value moment of order 2 overflows"]
    else:
        assert res.exit_code == 0
        assert res.stdout == ("center_tick,n,freq_price,market_price,difference\n"
                              "1,1,1e+160,1e+160,0.0\n")


@pytest.mark.parametrize("command", ["stats", "compare"])
def test_nonfinite_price_moment_names_window_field_order(runner, tmp_path, command):
    # Prices of 1e310 overflow to inf; compare used to print inf and nan.
    inp = tmp_path / "pow.csv"
    inp.write_text("tick,value,volume\n" + "".join(f"{t},1e150,1e-160\n" for t in range(3)))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--input", str(inp), "--window-n", "3", "--lag-step", "1",
                               "--max-order", "1", "--output", str(out)])
    assert res.exit_code == 1
    (line,) = res.output.strip().splitlines()
    assert line == "Error: OverflowError: window at tick 1: freq_price moment of order 1 is inf"
    assert list(tmp_path.iterdir()) == [inp]


def test_tick_outside_int64_names_line(runner, tmp_path):
    inp = tmp_path / "big.csv"
    inp.write_text("tick,value,volume\n0,1,1\n99999999999999999999,1,1\n")
    res = runner.invoke(main, ["stats", "--input", str(inp)])
    assert res.exit_code == 1
    (line,) = res.output.strip().splitlines()
    assert line == "Error: line 3: tick 99999999999999999999 is outside the int64 range"


def test_oversized_csv_field_names_line(runner, tmp_path):
    # The csv module's field limit is 131,072 characters.
    inp = tmp_path / "big.csv"
    inp.write_text("tick,value,volume\n0," + "1" * 200_000 + ",1\n")
    res = runner.invoke(main, ["stats", "--input", str(inp)])
    assert res.exit_code == 1
    (line,) = res.output.strip().splitlines()
    assert line == "Error: line 2: field larger than field limit (131072)"


@pytest.mark.parametrize("aggregate", ["per-center", "mean"])
def test_acf_stdout_is_the_json_file(runner, tmp_path, aggregate):
    args = ["acf", "--input", str(DATA / "golden_tape.csv"), "--window-n", "101",
            "--lag-step", "25", "--max-lag", "50", "--aggregate", aggregate]
    base = tmp_path / "curve"
    assert run(runner, [*args, "--output", str(base)]).exit_code == 0
    res = run(runner, args)
    assert res.exit_code == 0
    assert res.stdout_bytes == base.with_suffix(".json").read_bytes()


def test_stats_window_at_int64_max_tick(runner, tmp_path):
    inp = tmp_path / "edge.csv"
    inp.write_text("tick,value,volume\n9223372036854775806,1,1\n9223372036854775807,1,1\n")
    res = run(runner, ["stats", "--input", str(inp), "--window-n", "1", "--lag-step", "1"])
    assert res.exit_code == 0
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    assert [(r["center_tick"], r["effective_count"]) for r in rows] == [
        (2**63 - 2, 1), (2**63 - 1, 1)]


#: Runs each argument list through the CLI under a 2 GiB address-space cap and
#: prints [exit code, stdout, stderr] of each run as one JSON list.
_CAPPED_CHILD = """
import json, resource, sys
from click.testing import CliRunner
from mbstat import lagstats
from mbstat.cli import main
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
runs = [CliRunner().invoke(main, args) for args in json.loads(sys.argv[1])]
print(json.dumps([[r.exit_code, r.stdout, r.stderr] for r in runs]))
"""


def test_out_of_memory_is_one_line_error(tmp_path):
    pytest.importorskip("resource")
    wide = tmp_path / "wide.csv"
    wide.write_text("tick,value,volume\n0,1,1\n1,1,1\n999999999,1,1\n1000000000,1,1\n")
    golden = str(DATA / "golden_tape.csv")
    runs = [["stats", "--input", str(wide)],
            ["acf", "--input", str(wide), "--max-lag", "1"],
            ["stats", "--input", golden],
            ["acf", "--input", golden, "--max-lag", "50", "--aggregate", "mean"]]
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, json.dumps(runs)], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    (wide_stats, wide_acf, small_stats, small_acf) = json.loads(child.stdout)
    for code, out, err in (wide_stats, wide_acf):
        assert (code, out) == (1, "")
        assert re.fullmatch(r"Error: out of memory: .*\n", err)
    assert small_stats[0] == small_acf[0] == 0
    assert small_acf[1] == (DATA / "golden_acf.json").read_text()


def _error_lines(output: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith("Error:")]


def _record_threads(monkeypatch) -> list[int]:
    """Record the thread count of each acf_curve call the CLI makes."""
    seen, real = [], lagstats.acf_curve

    def acf_curve(*args, threads, **kw):
        seen.append(threads)
        return real(*args, threads=threads, **kw)

    monkeypatch.setattr(lagstats, "acf_curve", acf_curve)
    return seen


_MEAN_ARGS = ["acf", "--input", str(DATA / "golden_tape.csv"), "--window-n", "101",
              "--lag-step", "1", "--max-lag", "50", "--aggregate", "mean"]


def test_config_threads_accepted(runner, tmp_path, monkeypatch):
    seen = _record_threads(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    res = run(runner, [*_MEAN_ARGS, "--config", str(cfg)])
    assert res.exit_code == 0
    assert seen == [2]
    assert res.stdout_bytes == (DATA / "golden_acf.json").read_bytes()


@pytest.mark.parametrize("config,flag", [
    ({"input_path": str(DATA / "golden_tape.csv"), "fmt": "bogus"}, "--format"),
    ({"window_n": 5}, "--input"),
], ids=["bogus-format", "missing-input"])
def test_config_value_errors_name_the_option(runner, tmp_path, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = runner.invoke(main, ["stats", "--config", str(cfg)])
    assert res.exit_code != 0
    (line,) = _error_lines(res.output)
    assert flag in line
    assert "Traceback" not in res.output


def test_threads_env_not_an_integer_names_the_option(runner):
    res = runner.invoke(main, _MEAN_ARGS, env={"MBSTAT_THREADS": "abc"})
    assert res.exit_code != 0
    (line,) = _error_lines(res.output)
    assert "--threads" in line and "MBSTAT_THREADS" in line


@pytest.mark.parametrize("command,golden", [("stats", "golden_stats.jsonl"),
                                            ("compare", "golden_compare.csv")])
def test_threads_env_is_read_by_acf_alone(runner, tmp_path, command, golden):
    """stats and compare take --threads and ignore it, and read no MBSTAT_THREADS."""
    out = tmp_path / golden
    res = run(runner, [command, "--input", str(DATA / "golden_tape.csv"), "--window-n", "101",
                       "--lag-step", "25", "--max-order", "4", "--output", str(out)],
              env={"MBSTAT_THREADS": "abc"})
    assert res.exit_code == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()
    res = runner.invoke(main, _MEAN_ARGS, env={"MBSTAT_THREADS": "abc"})
    assert res.exit_code == 2
    (line,) = _error_lines(res.output)
    assert "--threads" in line and "MBSTAT_THREADS" in line


@pytest.mark.parametrize("flag,env", [([], "0"), (["--threads", "-3"], None)],
                         ids=["env-0", "flag-minus-3"])
def test_threads_below_one_run_one_thread(runner, monkeypatch, flag, env):
    seen = _record_threads(monkeypatch)
    res = run(runner, [*_MEAN_ARGS, *flag], env={"MBSTAT_THREADS": env})
    assert res.exit_code == 0
    assert seen == [1]
    assert res.stdout_bytes == (DATA / "golden_acf.json").read_bytes()


def test_threads_flag_beats_env_beats_config(runner, tmp_path, monkeypatch):
    seen = _record_threads(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 3}))
    args = [*_MEAN_ARGS, "--config", str(cfg)]
    run(runner, args, env={"MBSTAT_THREADS": None})
    run(runner, args, env={"MBSTAT_THREADS": "2"})
    run(runner, [*args, "--threads", "4"], env={"MBSTAT_THREADS": "2"})
    assert seen == [3, 2, 4]


def test_threshold_out_of_range_fails_before_the_tape_is_read(runner, tmp_path):
    inp = tmp_path / "bad.csv"
    inp.write_text("tick,value,volume\n0,x,1\n")  # would fail with its line number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": 1.5}))
    cfg_nan = tmp_path / "nan.json"
    cfg_nan.write_text(json.dumps({"threshold": float("nan")}))  # NaN, which json.load reads
    for extra in (["--threshold", "1.5"], ["--threshold", "0"], ["--threshold", "nan"],
                  ["--config", str(cfg)], ["--config", str(cfg_nan)]):
        res = runner.invoke(main, ["acf", "--input", str(inp), "--max-lag", "1", *extra])
        assert res.exit_code != 0
        (line,) = _error_lines(res.output)
        assert "--threshold" in line


@pytest.mark.parametrize("args, message", [
    (["stats", "--window-n", "0"], "window width must be odd and >= 1, got 0"),
    (["compare", "--lag-step", "0"], "lag step must satisfy 1 <= step <= 101, got 0"),
    (["stats", "--max-order", "9"], "moment order 9 exceeds cap 8"),
    (["acf", "--max-lag", "-1"], "max lag must be a nonnegative multiple of the lag step"),
    (["acf", "--max-lag", "3", "--lag-step", "2", "--window-n", "5"],
     "max lag must be a nonnegative multiple of the lag step"),
], ids=["window-n", "lag-step", "max-order", "negative-max-lag", "max-lag-off-step"])
def test_bad_option_fails_before_the_tape_is_read(runner, tmp_path, args, message):
    inp = tmp_path / "bad.csv"
    inp.write_text("tick,value,volume\n0,x,1\n")  # would fail with its line number
    command, *rest = args
    res = runner.invoke(main, [command, "--input", str(inp), *rest])
    assert res.exit_code == 1
    assert _error_lines(res.output) == [f"Error: {message}"]


def test_acf_without_max_lag_names_the_option(runner):
    res = runner.invoke(main, ["acf", "--input", str(DATA / "golden_tape.csv")])
    assert res.exit_code == 2
    assert _error_lines(res.output) == ["Error: Missing option '--max-lag'."]


def test_config_max_lag_satisfies_the_required_option(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_lag": 50}))
    res = run(runner, ["acf", "--input", str(DATA / "golden_tape.csv"), "--window-n", "101",
                       "--lag-step", "1", "--aggregate", "mean", "--config", str(cfg)])
    assert res.exit_code == 0
    assert res.stdout_bytes == (DATA / "golden_acf.json").read_bytes()


@pytest.mark.parametrize("command", ["stats", "acf", "compare", "synth"])
def test_epsilon_option_is_gone(runner, command):
    res = runner.invoke(main, [command, "--epsilon", "1"])
    assert res.exit_code == 2
    assert _error_lines(res.output) == ["Error: No such option '--epsilon'."]


@pytest.mark.parametrize("args,line", [
    (["--tau-a", "nan"], "Error: persistence_a_ticks must not be NaN"),
    (["--mean-a", "1e300"], "Error: tick 0: value must be nonnegative and finite, got inf"),
], ids=["nan-tau", "overflowing-mean"])
def test_synth_bad_parameter_is_one_line(runner, args, line):
    res = runner.invoke(main, ["synth", "--len", "10", "--tau-a", "3", "--tau-b", "3", *args])
    assert res.exit_code == 1
    assert res.output.splitlines() == [line]


@pytest.mark.parametrize("args", [
    ["stats", "--input", str(DATA / "golden_tape.csv")],
    ["compare", "--input", str(DATA / "golden_tape.csv")],
    _MEAN_ARGS,
    ["synth", "--len", "100", "--tau-a", "3", "--tau-b", "3"],
], ids=["stats", "compare", "acf", "synth"])
def test_closed_stdout_pipe_exits_quietly(args):
    # The reader closes its end before the command writes, as `| head -c 10`
    # does once it has read enough.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    try:
        child = subprocess.run([sys.executable, "-m", "mbstat.cli", *args], stdout=write_end,
                               stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert "Error" not in child.stderr and "Traceback" not in child.stderr
