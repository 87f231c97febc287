"""Each benchmark workload's default-seed output has the digest pinned for it.

``perfbench/digests.json`` pins the SHA-256 of every output of every
workload at ``workloads.DEFAULT_SEED``; the benchmark checks them only when
it runs.  Here each workload builds its full-size inputs and runs its
command in-process, so a change to any pinned byte fails the test suite.
``perfbench/workloads.py`` is loaded from its file and never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from mbstat.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # dataclasses look their module up here
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_output_has_pinned_digest(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    inputs = wl.make_inputs(seed, tmp_path / "input.csv", 1.0)
    res = CliRunner().invoke(main, wl.argv(inputs, tmp_path, seed), catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert workloads.digest(workloads.read_outputs(wl, tmp_path)) == workloads.pinned_digests(name)
