"""Seeded inputs, CLI commands and output checks for the benchmark workloads.

Each workload is built so that one or two modules of ``mbstat`` do most of
its work:

- ``acf-sweep``: the criterion-07 lag sweep (N=2001, lags 0..300, mean, 2
  threads) on a dense tape; the ``lagstats`` prefix-sum kernel dominates.
- ``stats-trades``: a raw multi-trade-per-tick tape in price form; ``tape``
  parsing and bucketing plus ``moments.compute_report`` dominate and
  ``lagstats`` is never called.
- ``acf-centers``: per-center ``acf`` on a gappy tape; building and
  serializing the per-center points dominates, not the kernel.
- ``synth-emit``: ``synth`` to a file; the ``synth`` AR(1) loop and the
  write side of ``tape`` (``emit_csv``) dominate.

Inputs come from the benchmark's own seeded NumPy generator and are written
as CSV; the program only ever sees that CSV.  Every check here is
independent of the package: it works from the generated arrays and the
defining sums, never from ``mbstat`` code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Relative tolerance against the moment scale, as in the repository oracle.
REL_TOL = 1e-10
#: The seed whose output digests are pinned in digests.json.
DEFAULT_SEED = 1


class CheckError(Exception):
    """An output failed a correctness check."""


@dataclass(frozen=True)
class Tape:
    """What the program should see after parsing: one record per tick."""

    ticks: np.ndarray
    values: np.ndarray
    volumes: np.ndarray

    @property
    def span_ticks(self) -> int:
        return int(self.ticks[-1] - self.ticks[0] + 1)


@dataclass(frozen=True)
class Inputs:
    """Generated input of one workload; ``tape`` is None when there is no file."""

    path: Path | None
    span_ticks: int
    tape: Tape | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (seed, path, size factor) -> inputs; the factor shrinks a self-test.
    make_inputs: Callable[[int, Path, float], Inputs]
    #: (inputs, output directory, seed) -> CLI arguments after ``mbstat``.
    args: Callable[[Inputs, Path, int], list[str]]
    outputs: tuple[str, ...]
    check: Callable[[Inputs, dict[str, bytes], int], None]
    #: The workload's own ``--threads``; None for a command without the flag.
    threads: int | None = 1

    def argv(self, inputs: Inputs, out_dir: Path, seed: int,
             threads: int | None = None) -> list[str]:
        args = self.args(inputs, out_dir, seed)
        if self.threads is not None:
            args += ["--threads", str(threads or self.threads)]
        return args


# --------------------------------------------------------------------------
# Input generation


def _ar1(rng: np.random.Generator, n: int, tau: float, sigma: float) -> np.ndarray:
    """Stationary zero-mean AR(1) path with e-folding scale tau, sd sigma."""
    phi = math.exp(-1.0 / tau)
    innov = (rng.standard_normal(n) * (sigma * math.sqrt(1.0 - phi * phi))).tolist()
    x = sigma * float(rng.standard_normal())
    out = []
    for z in innov:
        x = phi * x + z
        out.append(x)
    return np.array(out)


def _write_csv(path: Path, header: str, ticks, a, b) -> None:
    lines = [header]
    lines.extend(f"{t},{x!r},{y!r}" for t, x, y in zip(ticks.tolist(), a.tolist(), b.tolist()))
    path.write_text("\n".join(lines) + "\n")


def _pv_levels(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Price and volume levels from exponentiated AR(1) logs, tau 10 / 40."""
    price = np.exp(_ar1(rng, n, 10.0, 0.1))
    volume = np.exp(_ar1(rng, n, 40.0, 0.1))
    return price, volume


def _value_volume_tape(seed: int, path: Path, n_ticks: int, gap_prob: float) -> Inputs:
    rng = np.random.default_rng(seed)
    price, volume = _pv_levels(rng, n_ticks)
    keep = rng.random(n_ticks) >= gap_prob
    keep[0] = keep[-1] = True
    ticks = np.flatnonzero(keep)
    value, volume = price[keep] * volume[keep], volume[keep]
    _write_csv(path, "tick,value,volume", ticks, value, volume)
    tape = Tape(ticks, value, volume)
    return Inputs(path, tape.span_ticks, tape)


def _trade_tape(seed: int, path: Path, n_ticks: int) -> Inputs:
    """Several trades per tick (1 + Poisson), about 10% of ticks empty."""
    rng = np.random.default_rng(seed)
    price, volume = _pv_levels(rng, n_ticks)
    counts = 1 + rng.poisson(TRADES_EXTRA_MEAN, n_ticks)
    counts[rng.random(n_ticks) < EMPTY_TICK_PROB] = 0
    counts[0] = counts[-1] = 1
    ticks = np.repeat(np.arange(n_ticks), counts)
    row_price = price[ticks] * np.exp(0.002 * rng.standard_normal(ticks.size))
    row_volume = volume[ticks] * rng.lognormal(0.0, 0.5, ticks.size) / 3.0
    _write_csv(path, "tick,price,volume", ticks, row_price, row_volume)
    # What parse_csv + bucket should produce: value = price * volume per
    # row, summed per tick.
    row_value = row_price * row_volume
    present = np.flatnonzero(counts)
    tape = Tape(
        present,
        np.bincount(ticks, weights=row_value, minlength=n_ticks)[present],
        np.bincount(ticks, weights=row_volume, minlength=n_ticks)[present],
    )
    return Inputs(path, tape.span_ticks, tape)


# --------------------------------------------------------------------------
# Checks


def _close(got, want, scale, what: str) -> None:
    """Element-wise |got - want| <= REL_TOL * max(|want|, |scale|)."""
    got, want, scale = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (got, want, scale)))
    ok = np.abs(got - want) <= REL_TOL * np.maximum(np.abs(want), np.abs(scale))
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        raise CheckError(f"{what} at {tuple(map(int, i))}: got {float(got[i])!r}, "
                         f"want {float(want[i])!r}")


def _centers(tape: Tape, n: int, step: int) -> np.ndarray:
    h = (n - 1) // 2
    first, last = int(tape.ticks[0]), int(tape.ticks[-1])
    return np.arange(math.ceil((first + h) / step), math.floor((last - h) / step) + 1) * step


def _lagged_window_sums(tape: Tape, n: int, max_lag: int, window_sums):
    """Per lag, the seven sums over each window's surviving pairs.

    ``window_sums(x, lo)`` sums x over [lo, lo + n) for each window start.
    Yields (tau, count, sum c*c', sum u*u', sum c, sum c', sum u, sum u').
    """
    span = tape.span_ticks
    first = int(tape.ticks[0])
    c, u = np.zeros(span + max_lag), np.zeros(span + max_lag)
    present = np.zeros(span + max_lag)
    c[tape.ticks - first], u[tape.ticks - first] = tape.values, tape.volumes
    present[tape.ticks - first] = 1.0
    lo = _centers(tape, n, 1) - (n - 1) // 2 - first
    cn, un, pn = c[:span], u[:span], present[:span]
    for tau in range(max_lag + 1):
        cl, ul = c[tau : tau + span], u[tau : tau + span]
        m = pn * present[tau : tau + span]
        yield tau, *(window_sums(x, lo) for x in (m, cn * cl, un * ul, cn * m, cl * m, un * m, ul * m))


def _lag_stats(cnt, cc, uu, c1, c1l, u1, u1l) -> dict[str, np.ndarray]:
    """The lagged moments and autocorrelations from their window sums."""
    lag2_c, lag2_u = cc / cnt, uu / cnt
    c1, c1l, u1, u1l = c1 / cnt, c1l / cnt, u1 / cnt, u1l / cnt
    return {
        "b_value": lag2_c - c1 * c1l,
        "b_volume": lag2_u - u1 * u1l,
        "b_price": lag2_c / lag2_u - (c1 * c1l) / (u1 * u1l),
        "lag2_value": lag2_c,
        "lag2_volume": lag2_u,
        "lag2_price": lag2_c / lag2_u,
    }


#: A B value is compared relative to the second moment it is formed from,
#: because B itself passes through zero.
_SCALE_OF = {"b_value": "lag2_value", "b_volume": "lag2_volume", "b_price": "lag2_price"}


def _compare_stats(got: dict, want: dict, what: str) -> None:
    for key, value in want.items():
        _close(got[key], value, want[_SCALE_OF.get(key, key)], f"{what} {key}")


def _load_curve(out: dict[str, bytes], n: int, max_lag: int, aggregate: str) -> dict:
    """Parse curve.json, check its header fields and that curve.csv matches it."""
    doc = json.loads(out["curve.json"])
    expect = {"window_n": n, "lag_step_ticks": 1, "max_lag_ticks": max_lag, "aggregate": aggregate}
    for key, value in expect.items():
        if doc.get(key) != value:
            raise CheckError(f"curve.json {key} is {doc.get(key)!r}, want {value!r}")
    per_center = aggregate == "per-center"
    lines = [("center_tick," if per_center else "") + "lag,b_value,b_volume,b_price,pair_count"]
    for p in doc["points"]:
        row = f"{p['lag_ticks']},{p['b_value']!r},{p['b_volume']!r},{p['b_price']!r},{p['pair_count']}"
        lines.append((f"{p['center_tick']}," if per_center else "") + row)
    if out["curve.csv"].decode() != "\n".join(lines) + "\n":
        raise CheckError("curve.csv does not match the points of curve.json")
    return doc


def _columns(points: list[dict]) -> dict[str, np.ndarray]:
    return {key: np.array([p[key] for p in points]) for key in points[0]} if points else {}


def _scale(lags: list[int], b: list[float], threshold: float) -> int | None:
    """Smallest lag where |B| falls to threshold * |B(0)|, as documented."""
    if b[0] == 0:
        return 0
    return next((lag for lag, x in zip(lags, b) if abs(x) <= threshold * abs(b[0])), None)


def _check_acf_mean(inputs: Inputs, out: dict[str, bytes], n: int, max_lag: int) -> None:
    """Every lag of the mean curve against a float64 prefix-sum reference.

    The reference takes each window's sums as differences of plain float64
    prefix sums, then the pair-count-weighted mean over windows.
    """
    doc = _load_curve(out, n, max_lag, "mean")
    got = _columns(doc["points"])
    if got["lag_ticks"].tolist() != list(range(max_lag + 1)):
        raise CheckError("mean curve does not hold one point per lag")

    def window_sums(x, lo):
        ps = np.concatenate(([0.0], np.cumsum(x)))
        return ps[lo + n] - ps[lo]

    want: dict[str, list] = {}
    for tau, cnt, *sums in _lagged_window_sums(inputs.tape, n, max_lag, window_sums):
        ok = cnt >= 1
        stats = _lag_stats(cnt[ok], *(s[ok] for s in sums))
        w = cnt[ok]
        want.setdefault("pair_count", []).append(w.sum())
        for key, values in stats.items():
            want.setdefault(key, []).append(np.dot(values, w) / w.sum())
    want = {key: np.array(values) for key, values in want.items()}
    if not np.array_equal(got["pair_count"], want.pop("pair_count")):
        raise CheckError("mean curve pair counts differ from the reference")
    _compare_stats(got, want, "mean curve")
    lags = got["lag_ticks"].tolist()
    for key in ("value", "volume", "price"):
        scale = _scale(lags, got[f"b_{key}"].tolist(), doc["threshold"])
        if doc[f"scale_{key}"] != scale:
            raise CheckError(f"scale_{key} is {doc[f'scale_{key}']}, the curve gives {scale}")


def _check_acf_per_center(inputs: Inputs, out: dict[str, bytes], n: int, max_lag: int) -> None:
    """Every (center, lag) point against direct sums over its window."""
    doc = _load_curve(out, n, max_lag, "per-center")
    got = _columns(doc["points"])

    def window_sums(x, lo):
        return np.lib.stride_tricks.sliding_window_view(x, n)[lo].sum(axis=1)

    centers = _centers(inputs.tape, n, 1)
    per_lag = list(_lagged_window_sums(inputs.tape, n, max_lag, window_sums))
    # Points are ordered by center, then lag; (center, lag) with no pairs is absent.
    cnt = np.stack([sums[1] for sums in per_lag], axis=1)
    rows, taus = np.nonzero(cnt)
    keys = {"center_tick": centers[rows], "lag_ticks": taus, "pair_count": cnt[rows, taus]}
    for key, value in keys.items():
        if not np.array_equal(got.get(key, np.array([])), value):
            raise CheckError(f"per-center {key} column differs from the reference")
    sums = [np.stack([s[k] for s in per_lag], axis=1)[rows, taus] for k in range(1, 8)]
    _compare_stats(got, _lag_stats(*sums), "per-center")


def _check_stats(inputs: Inputs, out: dict[str, bytes], n: int, step: int, order: int = 4) -> None:
    """Every window against exact per-window means of the bucketed records."""
    lines = out["stats.jsonl"].decode().splitlines()
    tape = inputs.tape
    h = (n - 1) // 2
    centers = _centers(tape, n, step).tolist()
    if len(lines) != len(centers):
        raise CheckError(f"stats has {len(lines)} windows, want {len(centers)}")
    for line, center in zip(lines, centers):
        rep = json.loads(line)
        lo, hi = np.searchsorted(tape.ticks, [center - h, center + h + 1])
        vals, vols = tape.values[lo:hi].tolist(), tape.volumes[lo:hi].tolist()
        prices = [a / b for a, b in zip(vals, vols)]
        k = len(vals)
        if rep["center_tick"] != center or rep["effective_count"] != k:
            raise CheckError(f"window {center}: center/count {rep['center_tick']}/{rep['effective_count']}")

        def mom(xs, p):
            return math.fsum(x**p for x in xs) / k

        want = {
            "value": [mom(vals, p) for p in range(1, order + 1)],
            "volume": [mom(vols, p) for p in range(1, order + 1)],
            "freq_price": [mom(prices, p) for p in range(1, order + 1)],
        }
        want["market_price"] = [a / b for a, b in zip(want["value"], want["volume"])]
        for key, values in want.items():
            _close(rep[key], values, values, f"window {center} {key}")
        p1, p2 = want["market_price"][:2]
        _close(rep["vwap"], p1, p1, f"window {center} vwap")
        _close(rep["market_volatility"], p2 - p1 * p1, p2, f"window {center} volatility")
        if rep["volatility_negative"] != (rep["market_volatility"] < 0):
            raise CheckError(f"window {center}: volatility_negative flag is wrong")


def _synth_reference(seed: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented generator: PCG64 children of SeedSequence(seed), AR(1) logs."""
    out = []
    for seq, tau in zip(np.random.SeedSequence(seed).spawn(2), (SYNTH_TAU_A, SYNTH_TAU_B)):
        z = np.random.Generator(np.random.PCG64(seq)).standard_normal(length).tolist()
        phi = math.exp(-1.0 / tau)
        sd = 0.1 * math.sqrt(1.0 - phi * phi)
        x = [0.1 * z[0]]
        for zi in z[1:]:
            x.append(phi * x[-1] + sd * zi)
        out.append(np.exp(np.array(x)))
    price, volume = out
    return price * volume, volume


def _check_synth(inputs: Inputs, out: dict[str, bytes], seed: int) -> None:
    """Every row against the documented generator."""
    length = inputs.span_ticks
    lines = out["tape.csv"].decode().splitlines()
    if lines[0] != "tick,value,volume" or len(lines) != length + 1:
        raise CheckError(f"synth tape has header {lines[0]!r} and {len(lines) - 1} rows")
    rows = np.array([line.split(",") for line in lines[1:]])
    if not np.array_equal(rows[:, 0].astype(np.int64), np.arange(length)):
        raise CheckError("synth ticks are not 0..len-1")
    value, volume = _synth_reference(seed, length)
    _close(rows[:, 1].astype(float), value, value, "synth value")
    _close(rows[:, 2].astype(float), volume, volume, "synth volume")


# --------------------------------------------------------------------------
# Workloads

#: Sizes are chosen so that one CLI call takes about 1-2 s on a 2-core box,
#: which gives a 25 s run 12-25 samples to take a median over.
SWEEP_TICKS = 20_000
SWEEP_N = 2001
SWEEP_MAX_LAG = 300

TRADE_TICKS = 15_000
TRADES_EXTRA_MEAN = 2.2
EMPTY_TICK_PROB = 0.10
STATS_N = 101
STATS_STEP = 10

CENTERS_TICKS = 1_500
CENTERS_GAP_PROB = 0.12
CENTERS_N = 101
CENTERS_MAX_LAG = 20

SYNTH_LEN = 100_000
SYNTH_TAU_A = 10
SYNTH_TAU_B = 40


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acf-sweep",
            "criterion-07 lag sweep, 2 threads: the lagstats prefix-sum kernel dominates",
            lambda seed, path, scale: _value_volume_tape(seed, path, int(SWEEP_TICKS * scale), 0.0),
            lambda inp, out, seed: [
                "acf", "--input", str(inp.path), "--window-n", str(SWEEP_N), "--lag-step", "1",
                "--max-lag", str(SWEEP_MAX_LAG), "--aggregate", "mean",
                "--output", str(out / "curve"),
            ],
            ("curve.json", "curve.csv"),
            lambda inp, out, seed: _check_acf_mean(inp, out, SWEEP_N, SWEEP_MAX_LAG),
            threads=2,
        ),
        Workload(
            "stats-trades",
            "raw multi-trade tape: tape parse/bucket and moments.compute_report dominate",
            lambda seed, path, scale: _trade_tape(seed, path, int(TRADE_TICKS * scale)),
            lambda inp, out, seed: [
                "stats", "--input", str(inp.path), "--format", "tick-price-volume",
                "--window-n", str(STATS_N), "--lag-step", str(STATS_STEP),
                "--output", str(out / "stats.jsonl"),
            ],
            ("stats.jsonl",),
            lambda inp, out, seed: _check_stats(inp, out, STATS_N, STATS_STEP),
        ),
        Workload(
            "acf-centers",
            "per-center acf on a gappy tape: building and serializing points dominates",
            lambda seed, path, scale: _value_volume_tape(
                seed, path, int(CENTERS_TICKS * scale), CENTERS_GAP_PROB),
            lambda inp, out, seed: [
                "acf", "--input", str(inp.path), "--window-n", str(CENTERS_N), "--lag-step", "1",
                "--max-lag", str(CENTERS_MAX_LAG), "--aggregate", "per-center",
                "--output", str(out / "curve"),
            ],
            ("curve.json", "curve.csv"),
            lambda inp, out, seed: _check_acf_per_center(
                inp, out, CENTERS_N, CENTERS_MAX_LAG),
        ),
        Workload(
            "synth-emit",
            "synth to a file: the synth AR(1) loop and tape.emit_csv, the write side of tape",
            lambda seed, path, scale: Inputs(None, int(SYNTH_LEN * scale), None),
            lambda inp, out, seed: [
                "synth", "--mode", "pv", "--len", str(inp.span_ticks), "--tau-a", str(SYNTH_TAU_A),
                "--tau-b", str(SYNTH_TAU_B), "--seed", str(seed), "--output", str(out / "tape.csv"),
            ],
            ("tape.csv",),
            lambda inp, out, seed: _check_synth(inp, out, seed),
            threads=None,
        ),
    )
}


def pinned_digests(workload: str) -> dict[str, str] | None:
    with open(Path(__file__).with_name("digests.json")) as fh:
        return json.load(fh).get(workload)


class OutputChecker:
    """Checks every output of a run: pinned digests, reference values, same bytes.

    The first outputs get the full check.  Later outputs must be the same
    bytes, and then share the first verdict.
    """

    def __init__(self, wl: Workload, inputs: Inputs, seed: int):
        self.wl, self.inputs, self.seed = wl, inputs, seed
        self.first: dict[str, str] | None = None
        self.verdict: str | None = None

    def check(self, out: dict[str, bytes]) -> str | None:
        """Return None when the outputs are right, else why they are not."""
        got = digest(out)
        if self.first is not None:
            return self.verdict if got == self.first else "output bytes differ from the run's first"
        self.first = got
        self.verdict = self._full_check(out, got)
        return self.verdict

    def _full_check(self, out: dict[str, bytes], got: dict[str, str]) -> str | None:
        if self.seed == DEFAULT_SEED and got != pinned_digests(self.wl.name):
            return "output digest differs from the one pinned for the default seed"
        try:
            self.wl.check(self.inputs, out, self.seed)
        except CheckError as exc:
            return f"reference check: {exc}"
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            return f"malformed output: {exc!r}"
        return None


def read_outputs(wl: Workload, out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in wl.outputs}


def clear_outputs(wl: Workload, out_dir: Path) -> None:
    for name in wl.outputs:
        (out_dir / name).unlink(missing_ok=True)


def digest(out: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(out.items())}
