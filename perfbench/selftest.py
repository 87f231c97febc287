"""Self-test of the benchmark's own failure detection.

    python3 perfbench/selftest.py

Runs each workload once at a tiny size through the CLI and checks that its
genuine outputs pass the output check.  Then, for each output file, it
changes one byte (the leading digit of a number) and checks that the output
check reports a failure, both on its own (reference values and consistency)
and after a genuine run (same bytes on every run).  Last, it checks that a
child which exceeds the address-space cap, or outlives its timeout, comes
back as a failure.
Exits non-zero with a message on the first thing that does not hold.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run
import workloads

#: Input size factor: each tiny run takes well under a second.
TINY = 0.2
SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def corrupt_one_digit(data: bytes) -> bytes:
    """Change the leading digit of the first number from the middle of the data on.

    A leading digit moves the value far past the check's tolerance; a change
    in the last digit of a float is caught only by the byte comparisons.
    """
    for i in range(len(data) // 2, len(data)):
        if chr(data[i]).isdigit() and not chr(data[i - 1]).isalnum() and data[i - 1] != ord("."):
            return data[:i] + str((int(chr(data[i])) + 1) % 10).encode() + data[i + 1 :]
    raise ValueError("no number after the middle of the output")


def check_workload(wl: workloads.Workload, work: Path) -> None:
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    inputs = wl.make_inputs(SEED, work / "input.csv", TINY)
    peak_path = work / "peak_rss"
    sample = run.run_child(run.cli_command(wl.argv(inputs, out_dir, SEED), peak_path),
                           work / "child.err", run.CHILD_TIMEOUT_S, peak_path)
    expect(sample.error is None, f"{wl.name}: tiny run failed: {sample.error}")
    expect(sample.peak_rss_mb > 0, f"{wl.name}: no peak RSS from the child")
    genuine = workloads.read_outputs(wl, out_dir)
    why = workloads.OutputChecker(wl, inputs, SEED).check(genuine)
    expect(why is None, f"{wl.name}: genuine outputs rejected: {why}")
    for name in wl.outputs:
        bad = dict(genuine, **{name: corrupt_one_digit(genuine[name])})
        why = workloads.OutputChecker(wl, inputs, SEED).check(bad)
        expect(why is not None, f"{wl.name}: one changed byte in {name} passed the check")
        print(f"{wl.name} {name}: corrupted byte caught: {why[:100]}")
        after_genuine = workloads.OutputChecker(wl, inputs, SEED)
        after_genuine.check(genuine)
        expect(after_genuine.check(bad) is not None,
               f"{wl.name}: {name} changed between runs but passed the check")


def check_child_limits(work: Path) -> None:
    cap = str(run.MEMORY_CAP_BYTES)
    # Reserves address space past the cap; no memory is touched.
    hog = [sys.executable, "-c",
           run.CAP_ADDRESS_SPACE + "import numpy\nnumpy.empty(5 << 30, dtype=numpy.uint8)\n", cap]
    sample = run.run_child(hog, work / "hog.err", run.CHILD_TIMEOUT_S)
    expect(sample.error == "memory cap", f"address-space cap not reported: {sample.error}")
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    sample = run.run_child(sleeper, work / "sleep.err", 0.5)
    expect(sample.error is not None and "timeout" in sample.error,
           f"timeout not reported: {sample.error}")
    print("child limits: memory cap and timeout reported as failures")


def main() -> int:
    expect((run.SRC / "mbstat" / "cli.py").is_file(), f"no mbstat sources under {run.SRC}")
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for wl in workloads.WORKLOADS.values():
            check_workload(wl, work / wl.name)
        check_child_limits(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
