"""tools/same_bytes.py: one tree against itself writes the same bytes; a
tree that is not a checkout, or whose runs fail, ends in a short error; its
failing tapes end in every error of the moments' failure table."""

import subprocess
import sys
from pathlib import Path

import pytest

from click.testing import CliRunner

from mbstat.cli import main

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_bytes.py"


def same_bytes(*trees):
    return subprocess.run([sys.executable, str(TOOL), *map(str, trees)], capture_output=True,
                          text=True, timeout=300)


def test_same_tree_twice_has_no_difference():
    res = same_bytes(ROOT, ROOT)
    assert res.returncode == 0, res.stdout + res.stderr
    *lines, summary = res.stdout.splitlines()
    assert summary == f"{len(lines)} outputs, 0 differ"
    labels = {line.split("  ")[1].rsplit(" ", 1)[0] for line in lines}
    assert {"acf-per-center-gappy-step3-threads2", "acf-mean-sparse-step1-threads2",
            "acf-per-center-golden-step5-threads2", "acf-mean-gappy-step5-threads2",
            "acf-per-center-gappy-stdout", "acf-mean-gappy-stdout",
            "compare-sparse-order8", "stats-sparse-min-trades2", "compare-sparse-min-trades2",
            "acf-per-center-sparse-min-trades2", "acf-mean-sparse-min-trades2",
            "stats-short-step3", "compare-short-window-n-1e23",
            "acf-per-center-sparse-min-trades22", "acf-mean-short-step3",
            *(f"{command}-{case}" for command in COMMANDS
              for case in ("trades-price-form", "trades-shuffled-price-form",
                           "overflow-then-bad-row")),
            *(f"{command}-gappy-{name}" for command in COMMANDS for name in RENDERINGS),
            *(f"{command}-{tape}-order{order}" for command in ("stats", "compare")
              for tape in FAILING for order in ("1", "4", "8"))} <= labels
    # Every dialect of the gappy tape writes the bytes of the plain tape.
    outputs = {}
    for line in lines:
        digest, key = line.split("  ")[:2]
        label, output = key.rsplit(" ", 1)
        outputs.setdefault(label, {})[output] = digest
    for command in COMMANDS:
        for name in RENDERINGS:
            assert outputs[f"{command}-gappy-{name}"] == outputs[f"{command}-gappy-quoted-crlf"]
    for command in ("stats", "compare"):
        assert outputs[f"{command}-gappy-quoted-crlf"] == outputs[f"{command}-gappy-order4"]
    # The JSON written alone to stdout is the JSON written beside the CSV.
    for aggregate in ("per-center", "mean"):
        alone, both = (outputs[f"acf-{aggregate}-gappy-{run}"]
                       for run in ("stdout", "step3-threads1"))
        assert alone["stdout"] == both["out.json"]


COMMANDS = ("stats", "compare", "acf-per-center", "acf-mean")
RENDERINGS = ("quoted-crlf", "bom-crlf-comma-space", "tab-padded", "blank-lines",
              "empty-line-each-row", "space-tab-quotes-lines", "underscored-ticks",
              "one-quoted-tick", "quoted-break-at-block-end")


def tool():
    sys.path.insert(0, str(TOOL.parent))
    try:
        import same_bytes
    finally:
        sys.path.remove(str(TOOL.parent))
    return same_bytes


#: The error of one run on each failing tape, one row of the moments' failure table each.
FAILING = {
    "value-pow8": ("stats", "8",
                   "OverflowError: window at tick 50: value moment of order 8 overflows"),
    "volume-pow8": ("stats", "8",
                    "OverflowError: window at tick 50: volume moment of order 8 overflows"),
    "price-pow8": ("compare", "8",
                   "OverflowError: window at tick 50: price moment of order 8 overflows"),
    "price-inf": ("compare", "1",
                  "OverflowError: window at tick 50: freq_price moment of order 1 is inf"),
    "price-fsum-overflow": ("compare", "1",
                            "OverflowError: window at tick 50: price moment of order 1 overflows"),
    "volume-underflow": ("stats", "1", "ZeroDivisionError: window at tick 60: "
                         "volume moment of order 2 underflows to 0"),
    "market-price-inf": ("stats", "1",
                         "OverflowError: window at tick 10: market_price moment of order 2 is inf"),
    "vwap-square": ("stats", "1", "OverflowError: window at tick 10: market volatility overflows"),
}


def test_failing_tapes_reach_every_row_of_the_failure_table(tmp_path):
    tapes = tool().failing_tapes()
    assert tapes.keys() == FAILING.keys()
    for name, (command, order, error) in FAILING.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(tapes[name])
        res = CliRunner().invoke(main, [command, "--input", str(path), "--window-n", "21",
                                        "--lag-step", "5", "--max-order", order])
        assert (res.exit_code, res.output) == (1, f"Error: {error}\n"), name


#: The errors of ``market-price-inf`` past order 1.  Its price squares are
#: 1.5e308: their sum over a window passes 2**1024 but their mean does not, so
#: order 2 fails on the market price, and order 3 is the first price moment
#: that overflows.
MARKET_PRICE_INF = {
    "2": "OverflowError: window at tick 10: market_price moment of order 2 is inf",
    "4": "OverflowError: window at tick 10: price moment of order 3 overflows",
    "8": "OverflowError: window at tick 10: price moment of order 3 overflows",
}


@pytest.mark.parametrize("command", ["stats", "compare"])
@pytest.mark.parametrize("order", MARKET_PRICE_INF)
def test_market_price_inf_tape_fails_on_the_first_moment_that_overflows(tmp_path, command,
                                                                        order):
    path = tmp_path / "market-price-inf.csv"
    path.write_text(tool().failing_tapes()["market-price-inf"])
    res = CliRunner().invoke(main, [command, "--input", str(path), "--window-n", "21",
                                    "--lag-step", "5", "--max-order", order])
    assert (res.exit_code, res.output) == (1, f"Error: {MARKET_PRICE_INF[order]}\n")


def test_sparse_tape_fills_about_one_tick_in_twenty():
    text = tool().gappy_tape(seed=12, ticks=4000, filled=0.05)
    ticks = {int(line.split(",")[0]) for line in text.splitlines()[1:]}
    assert 150 <= len(ticks) <= 250


def test_tree_without_package_exits_2_with_one_line():
    res = same_bytes(ROOT / "src", ROOT)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"{ROOT / 'src'} holds no src/mbstat package\n"


def test_failing_run_prints_its_stderr_and_exits_2(tmp_path):
    package = tmp_path / "src" / "mbstat"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise RuntimeError("this tree is broken")\n')
    res = same_bytes(tmp_path, ROOT)
    assert res.returncode == 2
    assert res.stdout == ""
    *trace, last = res.stderr.splitlines()
    assert "RuntimeError: this tree is broken" in trace
    assert last == f"the run with {tmp_path} exited 1"
