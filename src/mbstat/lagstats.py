"""Lagged second moments, autocorrelations and n-point moments.

For a window centered at t and a lag tau, the lagged second moment of a
series is the mean of products series(t_i) * series(t_i + tau) over window
members whose lagged partner exists on the tape.  Value and volume
autocorrelations subtract the product of the one-sided means; the price
autocorrelation is built from the value and volume moments:

    B_p = C(t,t+tau)/U(t,t+tau) - C1*C1'/(U1*U1')

Base-time and lagged means are both taken over the surviving pairs, so the
numerator and subtrahend always share one sample even when the tape has
gaps; on a dense tape this coincides with full-window means.

``acf_curve`` is the one implementation of these lagged statistics: it
sweeps every window and lag at once, per center or as the pair-weighted
mean.  ``npoint_moment`` and ``market_price_npoint`` take the n-point
generalisation for one window; ``regime_acf`` and ``correlation_scale``
work on a curve's values.
"""

from __future__ import annotations

import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, TextIO

import numpy as np

from .errors import DomainError, NoDataError
from .tape import TradeTape
from .windows import Window, WindowSpec, window_grid

SERIES2 = ("value", "volume")


def regime_acf(
    kind: str,
    b_other: float,
    lag2_volume: float,
    c1_now: float,
    c1_lagged: float,
    u1_now: float,
    u1_lagged: float,
) -> float:
    """Closed-form price autocorrelation when one autocorrelation vanishes.

    volume_dominated: value already decorrelated, b_other is the volume
    autocorrelation; the result has the opposite sign.  value_dominated:
    volume decorrelated, b_other is the value autocorrelation; same sign.
    """
    if kind == "volume_dominated":
        if lag2_volume == 0 or u1_now == 0 or u1_lagged == 0:
            raise DomainError("zero denominator in volume_dominated regime")
        return -(b_other / lag2_volume) * (c1_now * c1_lagged) / (u1_now * u1_lagged)
    if kind == "value_dominated":
        if u1_now == 0 or u1_lagged == 0:
            raise DomainError("zero denominator in value_dominated regime")
        return b_other / (u1_now * u1_lagged)
    raise ValueError(f"unknown regime kind {kind!r}")


def correlation_scale(
    lags: list[int], b_values: list[float], threshold_fraction: float = 0.05
) -> int | None:
    """Smallest lag where |B| falls to threshold_fraction of |B(0)|.

    Returns 0 when B(0) == 0 (already decorrelated), None when the curve
    never reaches the threshold.
    """
    if not (0 < threshold_fraction < 1):
        raise ValueError(f"threshold must be in (0,1), got {threshold_fraction}")
    if not lags:
        raise ValueError("empty curve")
    if lags[0] != 0:
        raise ValueError("curve must start at lag 0")
    b0 = abs(b_values[0])
    if b0 == 0:
        return 0
    floor = threshold_fraction * b0
    for lag, b in zip(lags, b_values):
        if abs(b) <= floor:
            return lag
    return None


class AcfPoint(NamedTuple):
    """One lag of the autocorrelation curve (per center, or center-mean)."""

    lag_ticks: int
    b_value: float
    b_volume: float
    b_price: float
    lag2_value: float
    lag2_volume: float
    lag2_price: float
    pair_count: int
    center_tick: int | None = None

    def to_dict(self) -> dict:
        d = self._asdict()
        if self.center_tick is None:
            del d["center_tick"]
        return d


#: The float fields of a curve point, in ``AcfPoint`` order.
STATS = AcfPoint._fields[1:-2]
_HEADER = ("window_n", "lag_step_ticks", "max_lag_ticks", "aggregate", "threshold",
           "scale_value", "scale_volume", "scale_price")
#: Rows formatted per write; bounds the text held at once.
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class AcfCurve:
    """Autocorrelation curve with detected correlation scales, stored as columns.

    Row ``i`` is one point: ``lag[i]``, the ``STATS`` fields ``stats[:, i]``,
    ``pair_count[i]`` and, in per-center mode, ``center[i]`` (``center`` is
    None in mean mode).  Rows are ordered by lag (mean mode) or by center
    then lag (per-center mode).  Scales are detected on the
    pair-count-weighted mean curve in both modes.
    """

    window_n: int
    lag_step_ticks: int
    max_lag_ticks: int
    aggregate: str
    threshold: float
    scale_value: int | None
    scale_volume: int | None
    scale_price: int | None
    lag: np.ndarray
    stats: np.ndarray
    pair_count: np.ndarray
    center: np.ndarray | None

    def __eq__(self, other):
        if not isinstance(other, AcfCurve):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @cached_property
    def points(self) -> tuple[AcfPoint, ...]:
        """One ``AcfPoint`` per row, built on first use and then kept."""
        centers = () if self.center is None else (self.center.tolist(),)
        cols = self.lag.tolist(), *self.stats.tolist(), self.pair_count.tolist(), *centers
        return tuple(map(AcfPoint, *cols))

    def to_dict(self) -> dict:
        d = {key: getattr(self, key) for key in _HEADER}
        d["points"] = [p.to_dict() for p in self.points]
        return d

    def __post_init__(self):
        """Raise ValueError naming the field, lag and center of the first non-finite value."""
        rows, ks = np.nonzero(~np.isfinite(self.stats.T))
        if len(rows):
            i, k = rows[0], ks[0]
            where = "the mean curve" if self.center is None else f"center tick {self.center[i]}"
            value = float(self.stats[k, i])
            raise ValueError(f"{STATS[k]} is {value!r} at lag {self.lag[i]} of {where}")

    def write(self, json_out: TextIO | None = None, csv_out: TextIO | None = None) -> None:
        """Write the curve to text streams, as JSON and/or as flat plot-ready CSV.

        The JSON is the bytes of ``json.dumps(self.to_dict(), indent=2)`` plus a
        newline; the CSV has one row per point, and per-center mode adds a
        center_tick column.  Rows go out in blocks, and each float is formatted
        once for both outputs.  A curve holds only finite values: building one
        with a value that is not raises ValueError.
        """
        per_center = self.center is not None
        if json_out is not None:
            head = json.dumps({key: getattr(self, key) for key in _HEADER}, indent=2)
            json_out.write(head[:-2] + ',\n  "points": [')
        if csv_out is not None:
            head = "lag,b_value,b_volume,b_price,pair_count\n"
            csv_out.write(("center_tick," if per_center else "") + head)
        # %-templates of one point: JSON in ``indent=2`` layout, comma first.
        names = AcfPoint._fields if per_center else AcfPoint._fields[:-1]
        json_point = ",\n    {\n" + ",\n".join(f'      "{k}": %s' for k in names) + "\n    }"
        csv_row = ",".join(["%s"] * (5 + per_center)) + "\n"
        for lo in range(0, len(self.lag), _BLOCK):
            cut = slice(lo, lo + _BLOCK)
            lag, count = self.lag[cut].tolist(), self.pair_count[cut].tolist()
            b_c, b_u, b_p, *lag2 = (list(map(float.__repr__, x))
                                    for x in self.stats[:, cut].tolist())
            center = [self.center[cut].tolist()] if per_center else []
            if json_out is not None:
                cols = zip(lag, b_c, b_u, b_p, *lag2, count, *center)
                rows = list(map(json_point.__mod__, cols))
                if lo == 0:
                    rows[0] = rows[0][1:]
                json_out.writelines(rows)
            if csv_out is not None:
                csv_out.writelines(map(csv_row.__mod__, zip(*center, lag, b_c, b_u, b_p, count)))
        if json_out is not None:
            json_out.write("\n  ]\n}\n")

    def to_csv(self) -> str:
        """The CSV that ``write`` produces, as a string."""
        buf = io.StringIO()
        self.write(csv_out=buf)
        return buf.getvalue()


def acf_curve(
    tape: TradeTape,
    spec: WindowSpec,
    max_lag_ticks: int,
    aggregate: str = "per-center",
    threshold: float = 0.05,
    threads: int = 1,
) -> AcfCurve:
    """Sweep the autocorrelations over lags 0, l, 2l, ... up to max_lag.

    Uses prefix sums over a dense tick-indexed array, so one lag costs
    O(span).  Centers step by the lag step, so every window sum is one
    strided slice difference of the prefix block.  On a dense tape (one
    record per tick) the pair-count, value and volume prefixes are the lag-0
    ones held flat past span - lag, so a lag needs 4 cumulative sums, not 7.
    Lags of span ticks or more have no pairs and are not swept.  Lags are
    computed independently (optionally across threads, at most one per lag
    and per CPU), and each reduces its own row of the pair-count-weighted
    mean, so output is identical for any thread count.  Mean mode holds
    O(span) per thread plus O(lags); per-center mode also holds its output,
    the (lags, 7, centers) block.
    """
    if aggregate not in ("per-center", "mean"):
        raise ValueError(f"unknown aggregate mode {aggregate!r}")
    spec.check_max_lag(max_lag_ticks)
    first = tape.first_tick
    span = tape.last_tick - first + 1
    step = spec.lag_step_ticks
    centers, rec_lo, rec_hi = window_grid(tape, spec)
    if not len(centers):
        raise NoDataError("tape span shorter than the averaging window")
    # A window with fewer than min_trades records (its lag-0 pair count) gets
    # a zero pair count at every lag, so it drops out as stats drops it.
    dropped = np.flatnonzero(rec_hi - rec_lo < spec.min_trades)
    lags = range(0, min(max_lag_ticks, span - 1) + 1, step)
    dense = len(tape.ticks) == span

    # Zero-padded by the largest lag, so a lagged series is a view.
    c_arr, u_arr, present = np.zeros((3, span + lags[-1]))
    idx = tape.ticks - first
    c_arr[idx], u_arr[idx], present[idx] = tape.value, tape.volume, 1.0
    c0, u0, p0 = c_arr[:span], u_arr[:span], present[:span]
    # Window i sums prefix rows lo0 + i * step up to lo0 + i * step + N.
    lo0 = int(centers[0]) - spec.half_width - first
    stop = lo0 + (len(centers) - 1) * step + 1
    lo, hi = slice(lo0, stop, step), slice(lo0 + spec.n_ticks, stop + spec.n_ticks, step)
    threads = max(1, min(threads, len(lags), os.cpu_count() or 1))
    # mean[j]: the pair-count-weighted mean at lags[j] of AcfPoint's float
    # fields, then the total pair count (0 when the lag has no pairs): the
    # mean-mode output, and the curve the scales are detected on in both modes.
    mean = np.zeros((len(lags), 7))
    # sweep[j]: per-center rows of the same fields at lags[j] (per-center mode only).
    sweep = np.empty((len(lags), 7, len(centers))) if aggregate == "per-center" else None

    @np.errstate(all="ignore")
    def sweep_lags(start: int) -> None:
        """Fill mean[j] (and sweep[j]) for j = start, start + threads, ....

        One set of buffers serves all the worker's lags: buffers allocated per
        lag would go back to the OS and fault in again on every lag.  Extended
        precision: prefix magnitudes grow with the tape span and plain double
        cumsum would lose ~span/window relative digits in the windowed
        differences.
        """
        # Prefix rows of m, c0·m, u0·m, c0·cl, u0·ul, cl·m, ul·m, with m the pair mask.
        ps = np.zeros((7, span + 1), dtype=np.longdouble)
        m, x = np.empty((2, span))
        d = np.empty((7, len(centers)), dtype=np.longdouble)
        buf = np.empty((7, len(centers)))
        for j in range(start, len(lags), threads):
            tau = lags[j]
            cl, ul = c_arr[tau : tau + span], u_arr[tau : tau + span]
            np.multiply(p0, present[tau : tau + span], out=m)
            # On a dense tape m is 1 up to span - tau and 0 past it, so after the
            # worker's first lag the rows of m, c0·m and u0·m only need to be held
            # flat past span - tau; lags only grow, so their heads stay valid.
            held = dense and j > start
            if held:
                ps[:3, span - tau + 1 :] = ps[:3, span - tau, None]
            else:
                np.cumsum(m, dtype=np.longdouble, out=ps[0, 1:])
            pairs = zip(ps[1:], (c0, u0, c0, u0, cl, ul), (m, m, cl, ul, m, m))
            for row, a, b in list(pairs)[2 * held :]:
                np.cumsum(np.multiply(a, b, out=x), dtype=np.longdouble, out=row[1:])
            # Window sums, then the six means in place.
            np.subtract(ps[:, hi], ps[:, lo], out=d)
            n, c1, u1, lag2_c, lag2_u, c1l, u1l = d
            np.divide(d[1:], n, out=d[1:])
            c_means = np.multiply(c1, c1l, out=c1)
            u_means = np.multiply(u1, u1l, out=u1)
            lag2_p = np.divide(lag2_c, lag2_u, out=c1l)
            out = buf if sweep is None else sweep[j]
            np.subtract(lag2_c, c_means, out=out[0])
            np.subtract(lag2_u, u_means, out=out[1])
            np.subtract(lag2_p, np.divide(c_means, u_means, out=u1l), out=out[2])
            out[3], out[4], out[5], out[6] = lag2_c, lag2_u, lag2_p, n
            out[6, dropped] = 0
            ok = out[6] >= 1
            if np.any(ok):
                w = out[6, ok]
                wtot = w.sum()
                mean[j] = [*((col[ok] * w).sum() / wtot for col in out[:-1]), wtot]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(sweep_lags, range(threads)))
    else:
        sweep_lags(0)

    has = mean[:, -1] >= 1
    if not np.any(has):
        raise NoDataError("no window produced any lag pairs")
    lag_arr = np.array(lags)
    mean_lags, mean_block = lag_arr[has], mean[has].T

    if sweep is None:
        lag, block, center = mean_lags, mean_block, None
    else:
        # centers x lags; row-major nonzero gives (center, lag) order.
        grid = sweep.transpose(1, 2, 0)
        ci, li = np.nonzero(grid[-1] >= 1)
        lag, block, center = lag_arr[li], grid[:, ci, li], centers[ci]

    scales = [correlation_scale(mean_lags.tolist(), b, threshold) for b in mean_block[:3].tolist()]
    return AcfCurve(
        window_n=spec.n_ticks,
        lag_step_ticks=step,
        max_lag_ticks=max_lag_ticks,
        aggregate=aggregate,
        threshold=threshold,
        scale_value=scales[0],
        scale_volume=scales[1],
        scale_price=scales[2],
        lag=lag,
        stats=block[:-1],
        pair_count=block[-1].astype(np.int64),
        center=center,
    )


MAX_NPOINT = 4


def npoint_moment(
    window: Window, tape: TradeTape, series: str, lags: list[int]
) -> float:
    """Mean product of the series at offsets 0, tau_1, ..., tau_n.

    Members whose full offset tuple is not present on the tape are dropped;
    the divisor is the survivor count.
    """
    if series not in SERIES2:
        raise ValueError(f"unknown series {series!r}; expected one of {SERIES2}")
    if len(lags) > MAX_NPOINT:
        raise ValueError(f"at most {MAX_NPOINT} lags supported, got {len(lags)}")
    if any(b <= a for a, b in zip(lags, lags[1:])) or any(t <= 0 for t in lags):
        raise ValueError("lags must be strictly ascending positive integers")
    products = []
    for t in window.member_ticks:
        recs = [tape.record_at(t + tau) for tau in (0, *lags)]
        if any(r is None for r in recs):
            continue
        products.append(math.prod(getattr(r, series) for r in recs))
    if not products:
        raise NoDataError("no member has all lagged partners on the tape")
    return math.fsum(products) / len(products)


def market_price_npoint(window: Window, tape: TradeTape, lags: list[int]) -> float:
    """n-point market-based price moment: value product over volume product."""
    return npoint_moment(window, tape, "value", lags) / npoint_moment(
        window, tape, "volume", lags
    )
