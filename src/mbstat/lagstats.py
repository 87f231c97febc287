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
import operator
import os
import threading
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterator, NamedTuple, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NoDataError
from .tape import WRITE_BLOCK_ROWS, TradeTape, write_rows
from .windows import Window, WindowSpec, valid_grid

SERIES2 = ("value", "volume")

#: The factors (x, y) of the seven window sums of ``acf_curve``, each the sum
#: of series[x](t) * series[y](t + tau) over a window's ticks t, with series
#: 0, 1, 2 the presence, value and volume: the pair count n, n·c1, n·u1, the
#: lagged product of value, n·c1', the lagged product of volume and n·u1'.
PAIRS = ((0, 0), (1, 0), (2, 0), (1, 1), (0, 1), (2, 2), (0, 2))
#: float64 values in the bytes of one longdouble.
_F64_PER_WIDE = np.dtype(np.longdouble).itemsize // 8


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


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless 0 < threshold < 1 (NaN fails too)."""
    if not (0 < threshold < 1):
        raise ValueError(f"threshold must be in (0,1), got {threshold}")


def correlation_scale(
    lags: list[int], b_values: list[float], threshold_fraction: float = 0.05
) -> int | None:
    """Smallest lag where |B| falls to threshold_fraction of |B(0)|.

    Returns 0 when B(0) == 0 (already decorrelated), None when the curve
    never reaches the threshold.
    """
    check_threshold(threshold_fraction)
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


class Columns(NamedTuple):
    """Consecutive rows of a curve: int64 ``lag`` and ``pair_count``, the
    ``STATS`` fields as one (6, rows) float64 block ``stats``, and int64
    ``center`` in per-center mode (None in mean mode)."""

    lag: np.ndarray
    stats: np.ndarray
    pair_count: np.ndarray
    center: np.ndarray | None


#: The float fields of a curve point, in ``AcfPoint`` order.
STATS = AcfPoint._fields[1:-2]
_HEADER = ("window_n", "lag_step_ticks", "max_lag_ticks", "aggregate", "threshold",
           "scale_value", "scale_volume", "scale_price")


@dataclass(frozen=True, eq=False)
class AcfCurve:
    """Autocorrelation curve with detected correlation scales.

    ``blocks()`` yields the rows as consecutive ``Columns`` blocks, ordered by
    lag (mean mode, one block) or by center then lag (per-center mode, one
    block per run of centers, computed as it is read).  Scales are detected
    on the pair-count-weighted mean curve in both modes.  The whole
    ``columns`` (their ``center`` None in mean mode) and the ``points`` are
    built from the blocks on first use and then kept; ``write`` reads the
    blocks and keeps none of them.
    """

    window_n: int
    lag_step_ticks: int
    max_lag_ticks: int
    aggregate: str
    threshold: float
    scale_value: int | None
    scale_volume: int | None
    scale_price: int | None
    blocks: Callable[[], Iterator[Columns]]

    @cached_property
    def columns(self) -> Columns:
        """Every row of the curve as one ``Columns``."""
        parts = list(self.blocks())
        center = None if parts[0].center is None else np.concatenate([p.center for p in parts])
        return Columns(np.concatenate([p.lag for p in parts]),
                       np.concatenate([p.stats for p in parts], axis=1),
                       np.concatenate([p.pair_count for p in parts]), center)

    def __eq__(self, other):
        if not isinstance(other, AcfCurve):
            return NotImplemented
        return (all(getattr(self, key) == getattr(other, key) for key in _HEADER)
                and all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns)))

    @cached_property
    def points(self) -> tuple[AcfPoint, ...]:
        """One ``AcfPoint`` per row, built on first use and then kept."""
        c = self.columns
        centers = () if c.center is None else (c.center.tolist(),)
        cols = c.lag.tolist(), *c.stats.tolist(), c.pair_count.tolist(), *centers
        return tuple(map(AcfPoint, *cols))

    def to_dict(self) -> dict:
        d = {key: getattr(self, key) for key in _HEADER}
        d["points"] = [p.to_dict() for p in self.points]
        return d

    def write(self, json_out: TextIO | None = None, csv_out: TextIO | None = None) -> None:
        """Write the curve to text streams, as JSON and/or as flat plot-ready CSV.

        The JSON is the bytes of ``json.dumps(self.to_dict(), indent=2)`` plus a
        newline; the CSV has one row per point, and per-center mode adds a
        center_tick column.  The blocks of ``blocks()`` go through one
        :func:`~mbstat.tape.write_rows` call with a row template per output,
        so each float is turned into text once for both.
        """
        per_center = self.aggregate == "per-center"
        outputs = []
        if json_out is not None:
            head = json.dumps({key: getattr(self, key) for key in _HEADER}, indent=2)
            json_out.write(head[:-2] + ',\n  "points": [')
            # One point in ``indent=2`` layout.
            names = AcfPoint._fields[:8 + per_center]
            point = "\n    {\n" + ",\n".join(f'      "{k}": %s' for k in names) + "\n    }"
            outputs.append((json_out, point, range(len(names)), ","))
        if csv_out is not None:
            csv_out.write("center_tick," * per_center + "lag,b_value,b_volume,b_price,pair_count\n")
            outputs.append((csv_out, "%s," * per_center + "%s,%s,%s,%s,%s\n",
                            [8] * per_center + [0, 1, 2, 3, 7], ""))
        # The columns in AcfPoint order; mean mode has no center.
        write_rows(((b.lag, *b.stats, b.pair_count, b.center)[:8 + per_center]
                    for b in self.blocks()), *outputs)
        if json_out is not None:
            json_out.write("\n  ]\n}\n")

    def to_csv(self) -> str:
        """The CSV that ``write`` produces, as a string."""
        buf = io.StringIO()
        self.write(csv_out=buf)
        return buf.getvalue()


def _first_nonfinite(stats: np.ndarray) -> tuple[int, int] | None:
    """(row, field) of the first non-finite value of ``stats`` (6, rows), in row
    then field order; None when there is none."""
    rows, ks = np.nonzero(~np.isfinite(stats.T))
    return (int(rows[0]), int(ks[0])) if len(rows) else None


def _empty(n: np.ndarray) -> np.ndarray | None:
    """Mask of the windows with no pairs (pair count ``n`` of 0), or None when
    every window has pairs; the common case costs one reduction."""
    return None if n.all() else n == 0


def _divisor(x: np.ndarray, empty: np.ndarray | None) -> np.ndarray:
    """``x`` as the divisor of sums over pairs, with 1 added in the ``empty``
    windows, where ``x`` and the sums are 0.  Their rows are 0/1, finite and
    never written (pair count 0), where 0/0 would be NaN, on which x87
    arithmetic is very slow."""
    return x if empty is None else x + empty


def _means(d: np.ndarray) -> None:
    """Turn the window sums of ``PAIRS[:3]`` in ``d`` (3 rows) into the pair
    count n and the one-sided means c1 and u1, in place."""
    np.divide(d[1:], _divisor(d[0], _empty(d[0])), out=d[1:])


def _center_rows(m: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with the per-center rows b_value, b_volume, b_price,
    lag2_value, lag2_volume, lag2_price and the pair count n.

    ``m`` (3 rows) holds the windows' pair counts n and one-sided means c1
    and u1 (see ``_means``).  ``s`` (4 rows) holds the window sums of
    ``PAIRS[3:]``, and takes their means, then c1·c1' and u1·u1' in place of
    c1' and u1', then the price moment and ratio in place of the volume rows.
    All but ``out`` are longdouble.
    """
    n = m[0]
    empty = _empty(n)
    np.divide(s, _divisor(n, empty), out=s)
    # Rows lag2_c, c_means, lag2_u, u_means.
    np.multiply(m[1:], s[1::2], out=s[1::2])
    np.subtract(s[::2], s[1::2], out=out[:2])
    out[3:5] = s[::2]
    # Rows lag2_c, c_means, lag2_p, ratio.
    np.divide(s[:2], _divisor(s[2:], empty), out=s[2:])
    np.subtract(s[2], s[3], out=out[2])
    out[5], out[6] = s[2], n


def _window_sum(x, y, prod: np.ndarray, ps: np.ndarray, lo: slice, hi: slice, out: np.ndarray,
                carry: np.ndarray | None = None) -> None:
    """Sum the float64 products x·y over windows into ``out``.

    The products go, widened, into the longdouble product row ``prod[..., 1:]``,
    which is summed along the ticks into the prefix row ``ps[..., 1:]`` (one
    row of each per lag); window i is the difference of the i-th prefixes of
    ``hi`` and ``lo``.  Column 0 of ``ps`` is 0.0, or ``carry``, the prefix of
    the ticks before, which the sums continue: a longdouble cumsum is
    sequential, so bit for bit.  Extended precision, because prefix
    magnitudes grow with the tape span, and a float64 cumsum would lose
    ~span/window relative digits in the windowed differences.

    The accumulate is out of place, and 1-D when there is one lag: numpy
    holds the GIL for an accumulate whose output overlaps its input or which
    is not 1-D, and the mean sweep's threads would take turns on it.
    """
    # The float64 product, widened: the ufunc loop follows its inputs.
    np.multiply(x, y, out=prod[..., 1:])
    if carry is None:
        src, dst = prod[..., 1:], ps[..., 1:]
    else:
        prod[..., 0] = carry
        src, dst = prod, ps
    if len(dst) == 1:
        src, dst = src[0], dst[0]
    np.cumsum(src, axis=-1, out=dst)
    np.subtract(ps[..., hi], ps[..., lo], out=out)


def _weighted_mean(col: np.ndarray, w: np.ndarray, wtot: float) -> float:
    """The ``w``-weighted mean of ``col``, as ``(col * w).sum() / wtot``.  Where
    those products overflow although every value is finite, the weights are
    scaled down first, so a finite curve has a finite mean."""
    mean = (col * w).sum() / wtot
    if not np.isfinite(mean) and np.isfinite(col).all():
        mean = (col * (w / wtot)).sum()
    return mean


def _block_centers(n_lags: int, n_ticks: int, step: int) -> int:
    """Centers per per-center block: about ``WRITE_BLOCK_ROWS`` rows, which
    ``write_rows`` turns into text in one run (9 columns, ``WRITE_CELLS``),
    and at least a window's width of ticks, so that the window each block
    sums again costs at most as much as the block's own ticks."""
    return max(WRITE_BLOCK_ROWS // n_lags, -(-n_ticks // step))


def acf_curve(
    tape: TradeTape,
    spec: WindowSpec,
    max_lag_ticks: int,
    aggregate: str = "per-center",
    threshold: float = 0.05,
    threads: int = 1,
) -> AcfCurve:
    """Sweep the autocorrelations over lags 0, l, 2l, ... up to max_lag.

    The tape becomes one zero-padded tick-indexed block, ``series``, of its
    presence, value and volume (0.0 at an absent tick), and every statistic
    comes from the seven window sums of lagged products of its rows that
    ``PAIRS`` lists.  Centers step by the lag step, so a window sum is one
    strided slice difference of a longdouble prefix row, and a lag costs
    O(span).  One routine, ``center_rows``, gives the seven rows of a run of
    consecutive centers at a run of lags.  On a dense tape (one record per
    tick) the first three sums at lag tau are lag 0's with both window ends
    clipped at span - tau: they come from the series' cumulative sums, of
    which only the tail that clipped windows read is kept, so the routine
    sums 4 products there.

    The mean sweep, in both modes, calls it for all centers at one lag.
    Lags of span ticks or more have no pairs and are not swept.  Lags are
    computed independently, and each reduces its own row of the
    pair-count-weighted mean, so output is identical for any thread count.
    ``threads`` is clamped to the lags and the CPUs; the calling thread
    sweeps every ``threads``-th lag from lag 0, and ``threads - 1`` helper
    threads take the other shares.  A thread holds one prefix row over the
    span, and its window sums and 7 rows over the centers, whose memory
    also holds its product row; its accumulates are 1-D, so the threads run
    them at once.  When one thread fails, or the caller is interrupted, the
    others stop before their next lag, and the caller raises the first
    error once the helpers are joined.  This gives the mean curve and its
    scales.  Per-center mode
    then calls it as the rows are read, on the calling thread, for one
    block of consecutive centers at all lags.  A block sums over its own
    ticks only, continuing the prefixes carried over from the previous
    block; a longdouble cumsum is sequential, so each prefix equals the
    full-span one, and so does every output byte.  A block holds
    O(lags x (block + window)) values.

    A per-center row with pairs enters its lag's mean with a weight of at
    least 1, so a finite mean curve proves every row finite.  Only when the
    mean curve is not finite are the rows read, in output order, to name the
    first non-finite value; that error comes before any output.
    """
    if aggregate not in ("per-center", "mean"):
        raise ValueError(f"unknown aggregate mode {aggregate!r}")
    check_threshold(threshold)
    spec.check_max_lag(max_lag_ticks)
    first = tape.first_tick
    span = tape.last_tick - first + 1
    step, n_ticks = spec.lag_step_ticks, spec.n_ticks
    centers, _, _, valid = valid_grid(tape, spec)
    n_centers = len(centers)
    lags = range(0, min(max_lag_ticks, span - 1) + 1, step)
    lag_arr = np.array(lags)
    dense = len(tape.ticks) == span

    # Rows presence, value and volume, zero-padded by the largest lag, so the
    # lagged block is a view: views[:, j] is ``series`` from tick lags[j] on.
    series = np.zeros((3, span + lags[-1]))
    presence, value, volume = series
    idx = tape.ticks - first
    presence[idx], value[idx], volume[idx] = 1.0, tape.value, tape.volume
    views = sliding_window_view(series, span, axis=1)[:, ::step]
    # Window i sums prefix columns lo0 + i * step up to lo0 + i * step + N.
    lo0 = int(centers[0]) - spec.half_width - first

    # On a dense tape the window sums of PAIRS[:3] are lag_free's, the pair
    # count and one-sided means of every window at lag 0, or come from
    # ``tail``, their prefixes (the series' cumulative sums) from the first
    # column that a window clipped at span - lags[-1] can read.  Every
    # center_rows call shares both read-only.
    first_pair = 3 if dense else 0
    if dense:
        tail0 = max(0, span - lags[-1] - n_ticks)
        ps = np.zeros((3, span + 1), dtype=np.longdouble)
        np.cumsum(series[:, :span], axis=1, dtype=np.longdouble, out=ps[:, 1:])
        lo = slice(lo0, lo0 + (n_centers - 1) * step + 1, step)
        lag_free = ps[:, lo.start + n_ticks : lo.stop + n_ticks : step] - ps[:, lo]
        _means(lag_free)  # every window holds N ticks, so n >= 1
        tail = ps[:, tail0:].copy()
        del ps

    def buffers(n_lags: int, k: int) -> tuple:
        """``center_rows`` buffers for up to ``k`` centers at ``n_lags`` lags:
        prefix rows over the widest run of ticks, the longdouble window sums,
        the float64 rows, and longdouble memory that holds the rows and the
        product rows over those ticks.

        The product rows reuse the rows' memory: the rows are written after
        the last window sum of a ``center_rows`` call, and its caller reads
        or copies them out before the next call."""
        widest = lo0 + (k - 1) * step + n_ticks
        shared = np.empty(max(n_lags * (widest + 1), -(-7 * n_lags * k // _F64_PER_WIDE)),
                          dtype=np.longdouble)
        return (np.zeros((n_lags, widest + 1), dtype=np.longdouble),
                np.empty((7 - first_pair, n_lags, k), dtype=np.longdouble),
                shared.view(np.float64)[: 7 * n_lags * k].reshape(7, n_lags, k), shared)

    # Under errstate per call, not in the per-center generator, whose state
    # would hold in the reader's code between yields.
    @np.errstate(all="ignore")
    def center_rows(a: int, b: int, js: slice, bufs: tuple, carry=None) -> np.ndarray:
        """The (7, lags, centers) rows of centers a..b-1 at ``lags[js]``, in ``bufs``.

        The sums run over the ticks from lo of window a (tick 0 when a is 0)
        to hi of window b - 1.  When a > 0 they continue the prefixes in
        ``carry``, one per product and lag; a given ``carry`` then takes the
        prefixes at lo of window b, where the next block starts.
        """
        ps, d, out, shared = bufs
        s = 0 if a == 0 else lo0 + a * step  # the tick of prefix column 0
        width = lo0 + (b - 1) * step + n_ticks - s
        base, lagged = series[:, s : s + width], views[:, js, s : s + width]
        first_lo = lo0 + a * step - s
        lo = slice(first_lo, first_lo + (b - a - 1) * step + 1, step)
        hi = slice(lo.start + n_ticks, lo.stop + n_ticks, step)
        seg, sums, rows = ps[:, : width + 1], d[..., : b - a], out[..., : b - a]
        prod = shared[: seg.size].reshape(seg.shape)
        for i, (x, y) in enumerate(PAIRS[first_pair:]):
            _window_sum(base[x], lagged[y], prod, seg, lo, hi, sums[i], carry[i] if a else None)
            if carry is not None:
                carry[i] = seg[:, first_lo + (b - a) * step]
        if dense:
            # Windows that end by span - tau at every lag have lag 0's n, c1
            # and u1; the later ones take theirs from both ends clipped there.
            h = min(b, max(a, (span - lags[js][-1] - n_ticks - lo0) // step + 1)) - a
            _center_rows(lag_free[:, None, a : a + h], sums[..., :h], rows[..., :h])
            if a + h < b:
                clip = span - tail0 - lag_arr[js, None]
                los = lo0 - tail0 + step * np.arange(a + h, b)
                clipped = tail[:, np.minimum(los + n_ticks, clip)] - tail[:, np.minimum(los, clip)]
                _means(clipped)
                _center_rows(clipped, sums[..., h:], rows[..., h:])
        else:
            _means(sums[:3])
            _center_rows(sums[:3], sums[3:], rows)
        # A window with fewer than min_trades records (its lag-0 pair count)
        # gets a zero pair count at every lag, so it drops out as stats drops it.
        rows[6][:, ~valid[a:b]] = 0
        return rows

    threads = max(1, min(threads, len(lags), os.cpu_count() or 1))
    # mean[j]: the pair-count-weighted mean at lags[j] of AcfPoint's float
    # fields, then the total pair count (0 when the lag has no pairs): the
    # mean-mode output, and the curve the scales are detected on in both modes.
    mean = np.zeros((len(lags), 7))
    # Set when a sweeper fails or the caller is interrupted: the other
    # sweepers then stop before their next lag instead of sweeping all of
    # theirs.  ``errors`` keeps the sweepers' errors in the order raised.
    stop = threading.Event()
    errors: list[BaseException] = []

    @np.errstate(all="ignore")
    def sweep_lags(start: int) -> None:
        """Fill mean[j] for j = start, start + threads, ..., until ``stop`` is set.

        One set of buffers serves all the sweeper's lags: buffers allocated
        per lag would go back to the OS and fault in again on every lag.
        """
        try:
            bufs = buffers(1, n_centers)
            for j in range(start, len(lags), threads):
                if stop.is_set():
                    return
                rows = center_rows(0, n_centers, slice(j, j + 1), bufs)[:, 0]
                ok = rows[6] >= 1
                if np.any(ok):
                    cut = slice(None) if ok.all() else ok
                    w = rows[6, cut]
                    wtot = w.sum()
                    mean[j] = [*(_weighted_mean(col[cut], w, wtot) for col in rows[:-1]), wtot]
        except BaseException as error:  # raised again by the caller
            stop.set()
            errors.append(error)

    # The calling thread sweeps the first share, threads - 1 helpers the others.
    helpers = [threading.Thread(target=sweep_lags, args=(i,)) for i in range(1, threads)]
    try:
        for helper in helpers:
            helper.start()
        sweep_lags(0)
        for helper in helpers:
            helper.join()
    except BaseException:  # Ctrl-C outside the caller's own share
        stop.set()
        raise
    if errors:
        raise errors[0]

    # A valid window pairs each of its records with itself at lag 0.
    has = mean[:, -1] >= 1
    mean_lags, mean_block = lag_arr[has], mean[has].T
    scales = [correlation_scale(mean_lags.tolist(), b, threshold) for b in mean_block[:3].tolist()]

    def center_blocks() -> Iterator[Columns]:
        """The per-center rows, one block of consecutive centers at a time."""
        k = min(_block_centers(len(lags), n_ticks, step), n_centers)
        bufs = buffers(len(lags), k)
        carry = np.empty((7 - first_pair, len(lags)), dtype=np.longdouble)
        for a in range(0, n_centers, k):
            rows = center_rows(a, min(a + k, n_centers), slice(None), bufs, carry)
            # centers x lags; row-major nonzero gives (center, lag) order.
            grid = rows.transpose(0, 2, 1)
            ci, li = np.nonzero(grid[6] >= 1)
            yield Columns(lag_arr[li], grid[:6, ci, li], grid[6, ci, li].astype(np.int64),
                          centers[a + ci])

    if aggregate == "per-center":
        blocks = center_blocks
    else:
        mean_columns = Columns(mean_lags, mean_block[:-1], mean_block[-1].astype(np.int64), None)
        blocks = lambda: iter((mean_columns,))  # noqa: E731
    if _first_nonfinite(mean_block[:-1]):
        for cols in blocks():
            if bad := _first_nonfinite(cols.stats):
                i, k = bad
                at = "the mean curve" if cols.center is None else f"center tick {cols.center[i]}"
                raise ValueError(
                    f"{STATS[k]} is {float(cols.stats[k, i])!r} at lag {cols.lag[i]} of {at}")
    return AcfCurve(
        window_n=n_ticks,
        lag_step_ticks=step,
        max_lag_ticks=max_lag_ticks,
        aggregate=aggregate,
        threshold=threshold,
        scale_value=scales[0],
        scale_volume=scales[1],
        scale_price=scales[2],
        blocks=blocks,
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
    ticks = np.array(window.member_ticks, dtype=np.int64)
    partners = [tape._find(ticks, tau) for tau in (0, *lags)]
    keep = np.logical_and.reduce([found for _, found in partners])
    col = getattr(tape, series)
    with np.errstate(over="ignore", invalid="ignore"):
        # Each member's x0 * x1 * ..., multiplied in offset order.
        products = reduce(operator.mul, [col[rows[keep]] for rows, _ in partners]).tolist()
    if not products:
        raise NoDataError("no member has all lagged partners on the tape")
    return math.fsum(products) / len(products)


def market_price_npoint(window: Window, tape: TradeTape, lags: list[int]) -> float:
    """n-point market-based price moment: value product over volume product."""
    return npoint_moment(window, tape, "value", lags) / npoint_moment(
        window, tape, "volume", lags
    )
