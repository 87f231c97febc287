"""Run one benchmark workload through the mbstat CLI and print its metrics.

    python3 perfbench/run.py --workload acf-sweep --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn; its JSON line then names
each metric ``<workload>.<metric>``.  Run from the root of a source checkout (the program is imported from
``src``).  The load is a closed loop: one CLI child process at a time, each
started only after the previous one has exited, for ``--seconds`` seconds.
Every child runs under an address-space cap and a timeout, and every output
it writes is checked (see ``workloads.py``); a child that fails in any of
these ways counts in ``failed``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians over the children of the run).  With
``--trace 1`` the workload runs in-process instead, with spans around the
calls into each module (see ``tracing.py``), and the JSON holds the per-layer
metrics.  Lines before the last one are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Address-space cap of each CLI child; a runaway allocation then fails the
#: child with MemoryError instead of exhausting the machine.
MEMORY_CAP_BYTES = 4 << 30
CHILD_TIMEOUT_S = 60.0
#: The whole run, set-up and checks included, stays well inside 180 s.
RUN_BUDGET_S = 150.0
SETUP_REPEATS = 7
MIN_SAMPLES = 3
IMPORT_REPEATS = 3

#: Child code that caps its own address space at ``argv[1]`` bytes.
CAP_ADDRESS_SPACE = (
    "import resource, sys\n"
    "cap = int(sys.argv.pop(1))\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
)
#: Child code that writes its own peak RSS (the ``VmHWM`` line of its
#: status) to the file ``argv[1]`` when it exits.  ``ru_maxrss`` from wait4
#: cannot give it: the child is spawned with vfork, and the kernel carries
#: the high-water mark of the parent's memory map into the child's.
RECORD_PEAK_RSS = (
    "import atexit\n"
    "peak_path = sys.argv.pop(1)\n"
    "def record_peak_rss():\n"
    "    with open('/proc/self/status') as src, open(peak_path, 'w') as dst:\n"
    "        dst.writelines(line for line in src if line.startswith('VmHWM:'))\n"
    "atexit.register(record_peak_rss)\n"
)
#: Child entry point: the same call as the ``mbstat`` console script.
LAUNCH = (CAP_ADDRESS_SPACE + RECORD_PEAK_RSS
          + "sys.argv[0] = 'mbstat'\nfrom mbstat.cli import main\nmain()\n")


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # The thread count comes from the workload's own flags only.
    env.pop("MBSTAT_THREADS", None)
    return env


def run_child(cmd: list[str], stderr_path: Path, timeout: float,
              peak_path: Path | None = None) -> Sample:
    """Run one child to completion and take its times from wait4.

    ``peak_path`` is the file a ``cli_command`` child writes its peak RSS
    to; without it the sample's ``peak_rss_mb`` is 0.
    """
    timed_out = threading.Event()
    if peak_path is not None:
        peak_path.unlink(missing_ok=True)
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = None
    if timed_out.is_set():
        error = f"timeout after {timeout:.0f} s"
    elif proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace")
        error = "memory cap" if "MemoryError" in tail else f"exit {proc.returncode}: {tail[-300:]}"
    peak_mb = 0.0
    if peak_path is not None and error is None:
        try:
            peak_mb = int(peak_path.read_text().split()[1]) / 1024.0
        except (OSError, IndexError, ValueError) as exc:
            error = f"no peak RSS recorded: {exc!r}"
    return Sample(wall, usage.ru_utime + usage.ru_stime, peak_mb, error)


def cli_command(argv: list[str], peak_path: Path) -> list[str]:
    return [sys.executable, "-c", LAUNCH, str(MEMORY_CAP_BYTES), str(peak_path), *argv]


def import_command() -> list[str]:
    return [sys.executable, "-c", "import mbstat.cli"]


def setup(wl: workloads.Workload, seed: int, work: Path) -> tuple[workloads.Inputs, list[float]]:
    """Generate the inputs and warm the import, several times; return the times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.make_inputs(seed, work / "input.csv", 1.0)
        warm = run_child(import_command(), work / "import.err", CHILD_TIMEOUT_S)
        if warm.error:
            raise SystemExit(f"cannot import mbstat.cli: {warm.error}")
        times.append(time.perf_counter() - start)
    return inputs, times


def timed_loop(wl, inputs, seed, seconds, work, started) -> tuple[list[Sample], list[Sample]]:
    """Run children for ``seconds``; return every child and the timed ones.

    The first child to pass runs slower than the rest (caches are cold after
    set-up), so it is checked but not timed.
    """
    out_dir = work / "out"
    out_dir.mkdir(exist_ok=True)
    checker = workloads.OutputChecker(wl, inputs, seed)
    peak_path = work / "peak_rss"
    cmd = cli_command(wl.argv(inputs, out_dir, seed), peak_path)
    every: list[Sample] = []
    timed: list[Sample] = []
    warmed = False
    loop_start = time.perf_counter()
    while True:
        workloads.clear_outputs(wl, out_dir)
        remaining = RUN_BUDGET_S - (time.perf_counter() - started)
        sample = run_child(cmd, work / "child.err", min(CHILD_TIMEOUT_S, max(remaining, 1.0)),
                           peak_path)
        if sample.error is None:
            try:
                why = checker.check(workloads.read_outputs(wl, out_dir))
            except OSError as exc:
                why = repr(exc)
            if why:
                sample = replace(sample, error=why)
        if sample.error:
            print(f"failed: {sample.error}", file=sys.stderr)
        every.append(sample)
        if sample.error is None and not warmed:
            warmed = True
            loop_start = time.perf_counter()
            continue
        timed.append(sample)
        now = time.perf_counter()
        out_of_time = now - started + sample.wall_s > RUN_BUDGET_S
        if out_of_time or (now - loop_start >= seconds and len(timed) >= MIN_SAMPLES):
            for name, sha in (checker.first or {}).items():
                print(f"output {name} sha256 {sha}")
            return every, timed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(inputs, every: list[Sample], timed: list[Sample],
               setup_times: list[float]) -> dict:
    """Medians of the timed children that passed (of all timed ones if none did)."""
    ok = [s for s in timed if s.error is None] or timed
    columns = {
        "wall_s": ("s", [s.wall_s for s in ok]),
        "cpu_s": ("s", [s.cpu_s for s in ok]),
        "peak_rss_mb": ("MB", [s.peak_rss_mb for s in ok]),
        "ticks_per_s": ("1/s", [inputs.span_ticks / s.wall_s for s in ok]),
        "setup_s": ("s", setup_times),
    }
    metrics = {}
    for name, (unit, values) in columns.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:<14} {med:14.6g} {unit:<4} q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    failed = sum(s.error is not None for s in every)
    print(f"{'failed_frac':<14} {failed / len(every):14.6g} {'1':<4} ({failed}/{len(every)})")
    return metrics


def run_workload(wl: workloads.Workload, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns its result object."""
    started = time.perf_counter()
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, setup_times = setup(wl, seed, work)
        print(f"workload {wl.name}  seed {seed}  trace {trace}  ({wl.why})")
        if trace:
            import tracing

            import_s = statistics.median(
                run_child(import_command(), work / "import.err", CHILD_TIMEOUT_S).wall_s
                for _ in range(IMPORT_REPEATS))
            return tracing.traced_run(wl, inputs, seed, work, SRC, import_s)
        every, timed = timed_loop(wl, inputs, seed, seconds, work, started)
        metrics = end_to_end(inputs, every, timed, setup_times)
        failed = sum(s.error is not None for s in every)
        return {"correct": failed == 0, "attempted": len(every), "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(workloads.WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mbstat" / "cli.py").is_file():
        print(f"no mbstat sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload != "all":
        wl = workloads.WORKLOADS[args.workload]
        print(json.dumps(run_workload(wl, args.seed, args.seconds, args.trace)))
        return 0
    results = {name: run_workload(wl, args.seed, args.seconds, args.trace)
               for name, wl in workloads.WORKLOADS.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
