"""Process start-up: a lazy package, a one-thread BLAS pool in the CLI, per-command imports.

Every check runs in a fresh interpreter, so that what it sees in
``sys.modules`` and the environment is what a new ``mbstat`` process sees.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The public names of each submodule, as the package imported them eagerly before.
EXPORTS = {
    "errors": ["DomainError", "FormatError", "NoDataError"],
    "tape": ["TradeRecord", "TradeTape", "bucket", "emit_csv", "parse_csv", "write_csv"],
    "windows": ["Window", "WindowSpec", "members", "plan_windows"],
    "moments": ["MomentReport", "char_fn_taylor", "compute_report", "freq_moment",
                "market_price_moment", "market_volatility", "vwap"],
    "lagstats": ["AcfCurve", "AcfPoint", "acf_curve", "correlation_scale", "market_price_npoint",
                 "npoint_moment", "regime_acf"],
    "synth": ["SynthParams", "gen_tape", "theoretical_log_acf"],
}


def child(code: str, cwd: Path | None = None, **env: str):
    """The JSON that ``code`` prints, run in a fresh interpreter with the package on its
    path, ``OPENBLAS_NUM_THREADS`` unset and ``env`` added."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=str(SRC), **env)
    res = subprocess.run([sys.executable, "-c", code], env=environ, cwd=cwd,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_import_mbstat_imports_no_numpy():
    loaded = child("import json, sys, mbstat\n"
                   "print(json.dumps(sorted(m for m in sys.modules"
                   " if m == 'numpy' or m.startswith('mbstat.'))))")
    assert loaded == []


def test_every_name_resolves_to_its_submodules_object():
    out = child(
        "import importlib, json, mbstat\n"
        f"exports = {EXPORTS!r}\n"
        "same = {name: getattr(mbstat, name) is getattr(importlib.import_module('mbstat.' + m),"
        " name) for m, names in exports.items() for name in names}\n"
        "ns = {}\n"
        "exec('from mbstat import *', ns)\n"
        "from mbstat import lagstats\n"
        "try:\n"
        "    mbstat.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({'same': same, 'star': sorted(set(ns) - {'__builtins__'}),"
        " 'all': sorted(mbstat.__all__), 'dir': dir(mbstat), 'unknown': unknown,"
        " 'submodule': lagstats is mbstat.lagstats, 'acf_curve':"
        " mbstat.acf_curve is mbstat.lagstats.acf_curve}))")
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert all(out["same"].values()) and sorted(out["same"]) == names
    assert out["star"] == out["all"] == names
    assert set(names) | {*EXPORTS, "cli", "__version__"} <= set(out["dir"])
    assert out["unknown"] == "module 'mbstat' has no attribute 'no_such_name'"
    assert out["submodule"] and out["acf_curve"]


#: The CLI process's OpenBLAS setting and OS thread count (None off Linux).
THREADS = ("import json, os\n"
           "from mbstat.cli import main\n"
           "task = '/proc/self/task'\n"
           "tasks = len(os.listdir(task)) if os.path.isdir(task) else None\n"
           "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], tasks]))")


def test_cli_starts_one_blas_thread():
    blas, tasks = child(THREADS)
    assert blas == "1"
    if sys.platform.startswith("linux"):
        assert tasks == 1


def test_cli_keeps_a_blas_thread_count_set_by_the_user():
    blas, _ = child(THREADS, OPENBLAS_NUM_THREADS="2")
    assert blas == "2"


def test_library_import_leaves_the_blas_pool_alone():
    assert child("import json, os, mbstat\nmbstat.acf_curve\n"
                 "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))") is None


@pytest.mark.parametrize("args, absent", [
    (["synth", "--len", "300", "--tau-a", "5", "--tau-b", "20", "--output", "out.csv"],
     ["concurrent.futures", "mbstat.lagstats", "mbstat.moments", "mbstat.windows"]),
    (["stats", "--input", "tape.csv", "--window-n", "11", "--output", "out.jsonl"],
     ["concurrent.futures", "mbstat.lagstats", "mbstat.synth"]),
    (["acf", "--input", "tape.csv", "--window-n", "11", "--max-lag", "5", "--output", "out"],
     ["concurrent.futures", "mbstat.moments", "mbstat.synth"]),
], ids=["synth", "stats", "acf"])
def test_command_imports_only_its_own_layers(tmp_path, args, absent):
    (tmp_path / "tape.csv").write_text(
        "tick,value,volume\n" + "".join(f"{t},{1 + t % 7},{1 + t % 3}\n" for t in range(100)))
    loaded = child("import json, sys\n"
                   "from mbstat.cli import main\n"
                   f"main({args!r}, standalone_mode=False)\n"
                   f"print(json.dumps([m for m in {absent!r} if m in sys.modules]))",
                   cwd=tmp_path)
    assert loaded == []
