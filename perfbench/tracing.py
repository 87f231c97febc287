"""Traced run: per-layer metrics from spans around calls into each module.

The workload's CLI command runs in this process through ``mbstat.cli.main``.
Wrappers installed from outside the package (the package itself is not
changed) record a span for every call the CLI makes into a layer:

    tape      parse_csv, bucket (inside parse_csv), emit_csv
    windows   plan_windows, members (inside compute_report)
    moments   compute_report
    lagstats  acf_curve
    synth     gen_tape
    cli       main (the root span) and the serialize calls it makes:
              MomentReport.to_dict, AcfCurve.to_dict, AcfCurve.to_csv,
              json.dumps

A span has a name, start, end, parent, the label of its pass and the run id
that every span of the traced run shares, plus counts taken at the same
boundary.  Spans stay in memory and are written to ``.bench_out/`` when the
run ends.

One traced run makes these passes over the same inputs, and checks that all
of them write the same bytes:

- ``warm-up``: no wrappers, the workload's own thread count, not timed;
- ``traced-1t`` and ``traced-2t``: spans on, ``--threads`` 1 and 2 (one
  traced pass for a command without ``--threads``); the layer metrics come
  from these;
- ``untraced`` and ``traced``, alternated ``OVERHEAD_PAIRS`` times at the
  workload's own thread count: ``trace.overhead_s`` is the difference of
  their median times;
- ``memory``: tracemalloc on and timing off, 1 thread, for the
  ``<layer>.alloc_peak_mb`` metrics.  tracemalloc slows pure-Python code
  several-fold, so no time is taken from this pass.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc
import types
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

#: Layers whose allocation peak the memory pass reports.
MEMORY_LAYERS = ("tape", "moments", "lagstats", "cli", "synth")
#: Untraced/traced pass pairs whose medians give ``trace.overhead_s``.
OVERHEAD_PAIRS = 3


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records the spans of one pass; each thread nests its spans under the root span."""

    def __init__(self, run_id: str, label: str):
        self.run_id, self.label = run_id, label
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root: Span | None = None

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span = Span(next(self._ids), name, parent.id if parent else None, 0.0)
            self.spans.append(span)
        if self.root is None:
            self.root = span
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name, counter=None):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def records(self) -> list[dict]:
        return [
            {"run_id": self.run_id, "pass": self.label, "id": s.id, "name": s.name,
             "parent": s.parent,
             "start": s.start, "end": s.end, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]


class MemoryProbe:
    """Largest tracemalloc growth inside any call of each span name."""

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self._stack: list[list[int]] = []

    def wrap(self, fn, name, counter=None):
        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], peak)
                self.peaks[name] = max(self.peaks.get(name, 0), peak - frame[0])

        return probed

    def layer_peak_mb(self, layer: str) -> float:
        peaks = [v for k, v in self.peaks.items() if k.split(".")[0] == layer]
        return max(peaks, default=0) / 2**20


def _acf_counts(args, curve) -> dict:
    tape, spec = args[0], args[1]
    h, step = spec.half_width, spec.lag_step_ticks
    first, last = tape.first_tick, tape.last_tick
    centers = -(-(first + h) // step)
    centers = max(0, (last - h) // step - centers + 1)
    return {
        "lags": curve.max_lag_ticks // step + 1,
        "lags_with_points": len({p.lag_ticks for p in curve.points}),
        "centers": centers,
        "window_n": spec.n_ticks,
        "span": last - first + 1,
        "points": len(curve.points),
        "pair_sum": sum(p.pair_count for p in curve.points),
    }


def _targets(json_proxy, cli, tape, windows, moments, lagstats, synth):
    """(owner, attribute, span name, counter) for every wrapped call."""
    size = lambda args, result: {"bytes": len(result)}  # noqa: E731
    return [
        (tape, "parse_csv", "tape.parse_csv", lambda a, r: {"records": len(r)}),
        (tape, "bucket", "tape.bucket", lambda a, r: {"rows": len(a[0])}),
        (tape, "emit_csv", "tape.emit_csv", size),
        (windows, "plan_windows", "windows.plan_windows",
         lambda a, r: {"planned": len(r), "invalid": sum(not w.valid for w in r)}),
        (moments, "members", "windows.members", None),
        (moments, "compute_report", "moments.compute_report",
         lambda a, r: {"negative": int(r.volatility_negative)}),
        (lagstats, "acf_curve", "lagstats.acf_curve", _acf_counts),
        (synth, "gen_tape", "synth.gen_tape", lambda a, r: {"ticks": len(r)}),
        (moments.MomentReport, "to_dict", "cli.serialize", None),
        (lagstats.AcfCurve, "to_dict", "cli.serialize", None),
        (lagstats.AcfCurve, "to_csv", "cli.serialize", size),
        (json_proxy, "dumps", "cli.serialize", size),
    ]


@contextlib.contextmanager
def installed(probe, modules):
    """Replace each target with its wrapped version; restore on exit."""
    cli = modules[0]
    # The CLI calls json.dumps through its module global ``json``; it gets a
    # copy of the json namespace so that json.dumps stays untouched elsewhere.
    json_proxy = types.SimpleNamespace(**vars(json))
    saved = [(cli, "json", cli.json)]
    cli.json = json_proxy
    try:
        for owner, attr, name, counter in _targets(json_proxy, *modules):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, probe.wrap(original, name, counter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _invoke(cli, argv: list[str]) -> None:
    cli.main.main(args=argv, prog_name="mbstat", standalone_mode=False)


def _total(spans, name) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _phase_wall(spans, name) -> float:
    chosen = [s for s in spans if s.name == name]
    return max(s.end for s in chosen) - min(s.start for s in chosen) if chosen else 0.0


def _count(spans, name, key) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(own: Tracer, one: Tracer, two: Tracer, overhead_s: float, probe: MemoryProbe,
                  import_s: float, out_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; a layer the workload never calls reads 0."""
    s, s1, s2 = own.spans, one.spans, two.spans
    root = own.root
    rows = _count(s, "tape.bucket", "rows")
    records = _count(s, "tape.parse_csv", "records")
    reports = sum(x.name == "moments.compute_report" for x in s)
    report_s = _total(s, "moments.compute_report")
    curve_s = _total(s, "lagstats.acf_curve")
    curve_1t = _total(s1, "lagstats.acf_curve")
    lags = _count(s, "lagstats.acf_curve", "lags")
    centers = _count(s, "lagstats.acf_curve", "centers")
    window_n = _count(s, "lagstats.acf_curve", "window_n")
    span = _count(s, "lagstats.acf_curve", "span")
    gen_s = _total(s, "synth.gen_tape")
    children = [(x.start, x.end) for x in s if x.parent == root.id]
    m = {
        "tape.parse_s": (_total(s, "tape.parse_csv"), "s"),
        "tape.rows": (rows, "count"),
        "tape.records": (records, "count"),
        "tape.merge_ratio": (_ratio(records, rows), "ratio"),
        "tape.emit_s": (_total(s, "tape.emit_csv"), "s"),
        "tape.emit_bytes": (_count(s, "tape.emit_csv", "bytes"), "B"),
        "windows.plan_s": (_total(s, "windows.plan_windows"), "s"),
        "windows.planned": (_count(s, "windows.plan_windows", "planned"), "count"),
        "windows.invalid": (_count(s, "windows.plan_windows", "invalid"), "count"),
        "windows.members_s": (_total(s, "windows.members"), "s"),
        "moments.report_s": (report_s, "s"),
        "moments.reports": (reports, "count"),
        "moments.report_us": (_ratio(report_s, reports) * 1e6, "us"),
        "moments.negative_volatility": (_count(s, "moments.compute_report", "negative"), "count"),
        "moments.speedup_2t": (_ratio(_phase_wall(s1, "moments.compute_report"),
                                      _phase_wall(s2, "moments.compute_report")), "ratio"),
        "lagstats.curve_s": (curve_s, "s"),
        "lagstats.curve_1t_s": (curve_1t, "s"),
        "lagstats.speedup_2t": (_ratio(curve_1t, _total(s2, "lagstats.acf_curve")), "ratio"),
        "lagstats.lags": (lags, "count"),
        "lagstats.centers": (centers, "count"),
        "lagstats.lag_ms": (_ratio(curve_1t, lags) * 1e3, "ms"),
        "lagstats.points": (_count(s, "lagstats.acf_curve", "points"), "count"),
        "lagstats.pair_yield": (_ratio(_count(s, "lagstats.acf_curve", "pair_sum"),
                                       centers * window_n * lags), "ratio"),
        "lagstats.empty_lags": (lags - _count(s, "lagstats.acf_curve", "lags_with_points"),
                                "count"),
        "lagstats.prefix_bytes": (lags * 7 * (span + 1) * np.dtype(np.longdouble).itemsize
                                  if lags else 0, "B"),
        "cli.import_s": (import_s, "s"),
        "cli.serialize_s": (_total(s, "cli.serialize"), "s"),
        "cli.out_bytes": (out_bytes, "B"),
        "synth.gen_s": (gen_s, "s"),
        "synth.ticks_per_s": (_ratio(_count(s, "synth.gen_tape", "ticks"), gen_s), "1/s"),
        "trace.unattributed_s": (root.duration - _covered(children), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in MEMORY_LAYERS:
        m[f"{layer}.alloc_peak_mb"] = (probe.layer_peak_mb(layer), "MB")
    return m


def traced_run(wl: workloads.Workload, inputs: workloads.Inputs, seed: int, work: Path,
               src: Path, import_s: float) -> dict:
    """Run the passes, check their outputs and return the result object.

    ``import_s`` is the median wall time of fresh ``import mbstat.cli``
    children, measured by the caller.
    """
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.environ.pop("MBSTAT_THREADS", None)
    from mbstat import cli, lagstats, moments, synth, tape, windows

    modules = (cli, tape, windows, moments, lagstats, synth)
    out_dir = work / "out"
    out_dir.mkdir(exist_ok=True)
    checker = workloads.OutputChecker(wl, inputs, seed)
    run_id = uuid.uuid4().hex[:12]
    failures: list[str] = []
    passes: list[Tracer] = []
    attempted = out_bytes = 0

    def one_pass(label: str, probe, threads: int | None) -> float:
        nonlocal attempted, out_bytes
        attempted += 1
        workloads.clear_outputs(wl, out_dir)
        argv = wl.argv(inputs, out_dir, seed, threads)
        start = time.perf_counter()
        try:
            if probe is None:
                _invoke(cli, argv)
            else:
                with installed(probe, modules):
                    if isinstance(probe, Tracer):
                        with probe.span("cli.main"):
                            _invoke(cli, argv)
                    else:
                        _invoke(cli, argv)
        except Exception as exc:  # a failing pass is counted, the run goes on
            failures.append(f"{label}: {exc!r}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        outputs = workloads.read_outputs(wl, out_dir)
        out_bytes = sum(len(v) for v in outputs.values())
        why = checker.check(outputs)
        if why:
            failures.append(f"{label}: {why}")
        return elapsed

    def traced_pass(label: str, threads: int | None) -> tuple[Tracer, float]:
        tracer = Tracer(run_id, label)
        passes.append(tracer)
        return tracer, one_pass(label, tracer, threads)

    own_threads = wl.threads
    # The first pass in a process pays for growing the heap; it warms up and
    # is checked, but not timed.
    one_pass("warm-up", None, own_threads)
    tracers = {threads: traced_pass(f"traced-{threads or 1}t", threads)[0]
               for threads in ((1, 2) if wl.threads is not None else (None,))}
    own = tracers[own_threads]
    one = tracers.get(1, own)
    two = tracers.get(2, Tracer(run_id, "none"))
    untraced_s, traced_s = [], []
    for _ in range(OVERHEAD_PAIRS):
        untraced_s.append(one_pass("untraced", None, own_threads))
        traced_s.append(traced_pass("traced", own_threads)[1])
    overhead_s = statistics.median(traced_s) - statistics.median(untraced_s)

    probe = MemoryProbe()
    tracemalloc.start()
    try:
        one_pass("memory", probe, 1)
    finally:
        tracemalloc.stop()

    metrics = layer_metrics(own, one, two, overhead_s, probe, import_s, out_bytes)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:16.6g} {unit}")
    for why in failures:
        print(f"failed: {why}", file=sys.stderr)

    trace_dir = src.parent / ".bench_out"
    trace_dir.mkdir(exist_ok=True)
    with open(trace_dir / f"spans-{wl.name}-seed{seed}.jsonl", "w") as fh:
        for tracer in passes:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")

    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
