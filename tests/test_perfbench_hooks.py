"""The benchmark's traced run wraps package attributes by name; each must still exist.

``perfbench/tracing.py`` monkeypatches the functions and methods listed in
its ``_targets`` and reads ``AcfCurve.points`` in ``_acf_counts``.  A
refactor that drops one of them would otherwise break only the traced
benchmark run.  The module is imported here and never changed.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

from mbstat import WindowSpec, acf_curve, cli, lagstats, moments, parse_csv, synth, tape, windows

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    # run.py imports tracing and workloads as top-level modules from perfbench/.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracing")


def test_traced_run_targets_exist(tracing):
    # installed() replaces the CLI's json module with a proxy of it.
    assert cli.json is json
    proxy = types.SimpleNamespace(**vars(json))
    targets = tracing._targets(proxy, cli, tape, windows, moments, lagstats, synth)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if not callable(getattr(owner, attr, None))]
    assert not missing
    assert callable(cli.main.main)


def test_traced_run_acf_counts_read_the_curve(tracing):
    tp = parse_csv((ROOT / "tests" / "data" / "golden_tape.csv").read_text())
    spec = WindowSpec(101, 25)
    curve = acf_curve(tp, spec, 50, aggregate="per-center")
    counts = tracing._acf_counts((tp, spec), curve)
    cols = curve.columns
    assert counts["points"] == len(cols.lag)
    assert counts["pair_sum"] == int(cols.pair_count.sum())
    assert counts["lags_with_points"] == len(set(cols.lag.tolist()))
