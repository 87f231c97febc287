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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoDataError
from .tape import TradeRecord, TradeTape
from .windows import Window, WindowSpec, window_grid

SERIES2 = ("value", "volume")


@dataclass(frozen=True)
class LagPairSet:
    """Pairs (record at t_i, record at t_i + lag) surviving on the tape."""

    center_tick: int
    lag_ticks: int
    pairs: tuple[tuple[TradeRecord, TradeRecord], ...]

    @property
    def pair_count(self) -> int:
        return len(self.pairs)


def lag_pairs(window: Window, tape: TradeTape, lag_ticks: int) -> LagPairSet:
    """Pair each window member with the record lag_ticks later, if present."""
    if lag_ticks < 0:
        raise ValueError(f"lag must be nonnegative, got {lag_ticks}")
    pairs = []
    for t in window.member_ticks:
        partner = tape.record_at(t + lag_ticks)
        if partner is not None:
            pairs.append((tape.record_at(t), partner))
    return LagPairSet(window.center_tick, lag_ticks, tuple(pairs))


def _products(pairs: LagPairSet, series: str) -> list[float]:
    if series == "value":
        return [a.value * b.value for a, b in pairs.pairs]
    if series == "volume":
        return [a.volume * b.volume for a, b in pairs.pairs]
    raise ValueError(f"unknown series {series!r}; expected one of {SERIES2}")


def lag_moment2(pairs: LagPairSet, series: str) -> float:
    """Mean product of the series at the two times, over surviving pairs."""
    xs = _products(pairs, series)
    if not xs:
        raise NoDataError("lag_moment2 with no surviving pairs")
    return math.fsum(xs) / len(xs)


def market_price_lag_moment(pairs: LagPairSet) -> float:
    """Lagged second price moment: value product mean over volume product mean."""
    return lag_moment2(pairs, "value") / lag_moment2(pairs, "volume")


def _pair_means(pairs: LagPairSet, attr: str) -> tuple[float, float]:
    n = pairs.pair_count
    now = math.fsum(getattr(a, attr) for a, _ in pairs.pairs) / n
    lagged = math.fsum(getattr(b, attr) for _, b in pairs.pairs) / n
    return now, lagged


def acf(pairs: LagPairSet, series: str) -> float:
    """Autocorrelation of value, volume or price at the pair set's lag."""
    if pairs.pair_count == 0:
        raise NoDataError("acf with no surviving pairs")
    if series in SERIES2:
        now, lagged = _pair_means(pairs, series)
        return lag_moment2(pairs, series) - now * lagged
    if series == "price":
        c1, c1l = _pair_means(pairs, "value")
        u1, u1l = _pair_means(pairs, "volume")
        return market_price_lag_moment(pairs) - (c1 * c1l) / (u1 * u1l)
    raise ValueError(f"unknown series {series!r}")


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


@dataclass(frozen=True)
class AcfPoint:
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
        d = dict(vars(self))
        if self.center_tick is None:
            del d["center_tick"]
        return d


@dataclass(frozen=True)
class AcfCurve:
    """Autocorrelation curve with detected correlation scales.

    ``points`` are ordered by lag (mean mode) or by center then lag
    (per-center mode).  Scales are detected on the pair-count-weighted
    mean curve in both modes; ``mean`` holds that curve.
    """

    window_n: int
    lag_step_ticks: int
    max_lag_ticks: int
    aggregate: str
    threshold: float
    points: tuple[AcfPoint, ...]
    scale_value: int | None
    scale_volume: int | None
    scale_price: int | None
    mean: tuple[AcfPoint, ...] = field(repr=False)

    def mean_points(self) -> list[AcfPoint]:
        """The pair-count-weighted mean curve, one point per lag, in any mode.

        This is the mean-mode reduction itself: in per-center mode it equals
        the ``points`` that mean mode would return for the same inputs.
        """
        return list(self.mean)

    def to_dict(self) -> dict:
        return {
            "window_n": self.window_n,
            "lag_step_ticks": self.lag_step_ticks,
            "max_lag_ticks": self.max_lag_ticks,
            "aggregate": self.aggregate,
            "threshold": self.threshold,
            "scale_value": self.scale_value,
            "scale_volume": self.scale_volume,
            "scale_price": self.scale_price,
            "points": [p.to_dict() for p in self.points],
        }

    def to_csv(self) -> str:
        """Flat plot-ready CSV; per-center mode adds a center_tick column."""
        per_center = self.aggregate == "per-center"
        header = "lag,b_value,b_volume,b_price,pair_count"
        if per_center:
            header = "center_tick," + header
        lines = [header]
        for p in self.points:
            row = f"{p.lag_ticks},{p.b_value!r},{p.b_volume!r},{p.b_price!r},{p.pair_count}"
            if per_center:
                row = f"{p.center_tick}," + row
            lines.append(row)
        return "\n".join(lines) + "\n"


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
    O(span).  Lags of span ticks or more have no pairs and are not swept.
    Lags are computed independently (optionally across threads, at most one
    per lag and per CPU) and merged in lag order, so output is identical
    for any thread count.
    """
    if aggregate not in ("per-center", "mean"):
        raise ValueError(f"unknown aggregate mode {aggregate!r}")
    if max_lag_ticks < 0 or max_lag_ticks % spec.lag_step_ticks != 0:
        raise ValueError("max lag must be a nonnegative multiple of the lag step")
    first = tape.first_tick
    span = tape.last_tick - first + 1
    step = spec.lag_step_ticks
    centers, rec_lo, rec_hi = window_grid(tape, spec)
    if not len(centers):
        raise NoDataError("tape span shorter than the averaging window")
    # A window with fewer than min_trades records (its lag-0 pair count) is
    # dropped at every lag, as stats drops it.
    centers = centers[rec_hi - rec_lo >= spec.min_trades]
    lags = range(0, min(max_lag_ticks, span - 1) + 1, step)

    # Zero-padded by the largest lag, so a lagged series is a view.
    c_arr, u_arr, present = np.zeros((3, span + lags[-1]))
    idx = tape.ticks - first
    c_arr[idx], u_arr[idx], present[idx] = tape.value, tape.volume, 1.0
    c0, u0, p0 = c_arr[:span], u_arr[:span], present[:span]
    lo = centers - spec.half_width - first
    hi = lo + spec.n_ticks

    def one_lag(tau: int) -> np.ndarray:
        """Per-center stats at one lag: AcfPoint's float fields, then the pair count."""
        with np.errstate(all="ignore"):
            cl, ul = c_arr[tau : tau + span], u_arr[tau : tau + span]
            m = p0 * present[tau : tau + span]
            # Extended precision: prefix magnitudes grow with the tape span and
            # plain double cumsum would lose ~span/window relative digits in the
            # windowed differences.
            ps = np.empty((7, span + 1), dtype=np.longdouble)
            ps[:, 0] = 0
            for row, x in zip(ps, (m, c0 * cl, u0 * ul, c0 * m, cl * m, u0 * m, ul * m)):
                np.cumsum(x, dtype=np.longdouble, out=row[1:])
            n, cc, uu, c1, c1l, u1, u1l = (row[hi] - row[lo] for row in ps)
            lag2_c, lag2_u, c1, c1l, u1, u1l = (x / n for x in (cc, uu, c1, c1l, u1, u1l))
            b_c = lag2_c - c1 * c1l
            b_u = lag2_u - u1 * u1l
            lag2_p = lag2_c / lag2_u
            b_p = lag2_p - (c1 * c1l) / (u1 * u1l)
            return np.array((b_c, b_u, b_p, lag2_c, lag2_u, lag2_p, n), dtype=np.float64)

    threads = min(threads, len(lags), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_lag = list(pool.map(one_lag, lags))
    else:
        per_lag = [one_lag(tau) for tau in lags]

    # One pair-count-weighted mean point per lag: the mean-mode output, and
    # the curve the scales are detected on in both modes.
    mean: list[AcfPoint] = []
    for tau, cols in zip(lags, per_lag):
        n = cols[-1]
        ok = n >= 1
        if not np.any(ok):
            continue
        w = n[ok]
        wtot = w.sum()
        stats = (float((x[ok] * w).sum() / wtot) for x in cols[:-1])
        mean.append(AcfPoint(tau, *stats, int(wtot)))
    if not mean:
        raise NoDataError("no window produced any lag pairs")

    if aggregate == "mean":
        points = mean
    else:
        # centers x lags; row-major nonzero gives (center, lag) order.
        grid = np.array(per_lag).transpose(1, 2, 0)
        ci, li = np.nonzero(grid[-1] >= 1)
        values = grid[:-1, ci, li].tolist()
        counts = grid[-1, ci, li].astype(np.int64).tolist()
        lag_col = np.array(lags)[li].tolist()
        points = list(map(AcfPoint, lag_col, *values, counts, centers[ci].tolist()))

    mean_lags = [p.lag_ticks for p in mean]
    scales = {
        key: correlation_scale(mean_lags, [getattr(p, key) for p in mean], threshold)
        for key in ("b_value", "b_volume", "b_price")
    }

    return AcfCurve(
        window_n=spec.n_ticks,
        lag_step_ticks=step,
        max_lag_ticks=max_lag_ticks,
        aggregate=aggregate,
        threshold=threshold,
        points=tuple(points),
        scale_value=scales["b_value"],
        scale_volume=scales["b_volume"],
        scale_price=scales["b_price"],
        mean=tuple(mean),
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
