"""Per-window moments: frequency-based, market-based, VWAP and volatility.

Frequency-based moments are plain arithmetic means of n-th powers over the
trades in a window.  Market-based price moments are the ratio of the value
moment to the volume moment of the same order, which weights each trade by
its size instead of counting trades equally.  Every within-window sum is the
correctly rounded exact sum, so results are independent of member order
down to the last bit: the per-record functions use ``math.fsum``, and
:func:`window_columns` takes each window's sum as a difference of exact
integer prefix sums (:func:`window_means`), which gives the same bits.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .errors import NoDataError
from .tape import WRITE_BLOCK_ROWS, TradeRecord, TradeTape, reprs
from .windows import Window, members  # noqa: F401  (perfbench traces moments.members)

SERIES = ("value", "volume", "price")

#: Powers of raw currency values overflow doubles quickly on real tapes;
#: requests above the cap are rejected, not truncated.
DEFAULT_MAX_ORDER = 8


def _values(records: Sequence[TradeRecord], series: str) -> list[float]:
    if series == "value":
        return [r.value for r in records]
    if series == "volume":
        return [r.volume for r in records]
    if series == "price":
        return [r.value / r.volume for r in records]
    raise ValueError(f"unknown series {series!r}; expected one of {SERIES}")


def check_order(n: int) -> None:
    """Raise ValueError unless 1 <= n <= DEFAULT_MAX_ORDER."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    if n > DEFAULT_MAX_ORDER:
        raise ValueError(f"moment order {n} exceeds cap {DEFAULT_MAX_ORDER}")


def _power_mean(xs: list[float], n: int, series: str) -> float:
    try:
        return math.fsum(x**n for x in xs) / len(xs)
    except OverflowError:
        raise OverflowError(f"{series} moment of order {n} overflows") from None


def freq_moment(records: Sequence[TradeRecord], series: str, n: int) -> float:
    """Mean of the n-th powers of the chosen per-trade series."""
    check_order(n)
    xs = _values(records, series)
    if not xs:
        raise NoDataError("freq_moment over empty window")
    return _power_mean(xs, n, series)


def market_price_moment(records: Sequence[TradeRecord], n: int) -> float:
    """n-th market-based price moment: value moment over volume moment."""
    return freq_moment(records, "value", n) / freq_moment(records, "volume", n)


def vwap(records: Sequence[TradeRecord]) -> float:
    """Volume weighted average price; identical to market_price_moment(1)."""
    return market_price_moment(records, 1)


def market_volatility(records: Sequence[TradeRecord]) -> float:
    """Market-based price variance; may legitimately be negative."""
    return market_price_moment(records, 2) - market_price_moment(records, 1) ** 2


def char_fn_taylor(records: Sequence[TradeRecord], x: float, order: int) -> complex:
    """Truncated Taylor series of the price characteristic function.

    1 + sum_{n=1..order} (i^n / n!) * p(n) * x^n, with p(n) the
    market-based price moments.
    """
    check_order(order)
    if not records:
        raise NoDataError("char_fn_taylor over empty window")
    total = complex(1.0, 0.0)
    for n in range(1, order + 1):
        p_n = market_price_moment(records, n)
        total += (1j**n / math.factorial(n)) * p_n * x**n
    return total


@dataclass(frozen=True)
class MomentReport:
    """Per-window frequency and market-based moments, orders 1..max."""

    center_tick: int
    effective_count: int
    freq_price: tuple[float, ...]
    value: tuple[float, ...]
    volume: tuple[float, ...]
    market_price: tuple[float, ...]
    vwap: float
    market_volatility: float

    @property
    def volatility_negative(self) -> bool:
        return self.market_volatility < 0

    def to_dict(self) -> dict:
        return {
            "center_tick": self.center_tick,
            "effective_count": self.effective_count,
            "vwap": self.vwap,
            "market_volatility": self.market_volatility,
            "volatility_negative": self.volatility_negative,
            "freq_price": list(self.freq_price),
            "value": list(self.value),
            "volume": list(self.volume),
            "market_price": list(self.market_price),
        }


def _or_nan(fn, *args) -> float:
    """``fn(*args)``, or NaN if it overflows (no real moment here is NaN)."""
    try:
        return fn(*args)
    except OverflowError:
        return math.nan


def _int_prefix(col: np.ndarray) -> tuple[list[int], int]:
    """Exact prefix sums of finite ``col`` as Python ints ``P``, and the scale
    ``2**s`` for which ``P[b] - P[a]`` is ``sum(col[a:b]) * 2**s``."""
    mant, exp = np.frexp(col)
    nonzero = mant != 0
    shift = max(0, 53 - int(exp[nonzero].min())) if nonzero.any() else 0
    ints = (mant * 2.0**53).astype(np.int64).tolist()
    shifts = np.where(nonzero, exp + (shift - 53), 0).tolist()
    return list(itertools.accumulate(map(int.__lshift__, ints, shifts), initial=0)), 1 << shift


def window_means(col: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``math.fsum(col[a:b]) / (b - a)`` for each window [a, b) of ``lo``/``hi``,
    bit for bit where that ``fsum`` is finite, and NaN where the exact sum
    overflows.

    Each finite value is an integer times ``2**-s``, for one shift ``s >= 0``
    of the whole column, so the integers' prefix sums are exact and a window's sum
    is one Python int true division, which is correctly rounded as ``fsum``
    is.  It raises OverflowError, and the window gets NaN, only where the
    exact sum overflows: ``fsum`` also raises where only a partial sum does,
    so for [1e308, 1e308, -1e308] this gives 1e308 / 3 where ``fsum``
    raises.  No tape column reaches that case, as tape values are never
    negative.  This takes
    O(rows + windows) for any window width.  A window holding an inf is
    summed by ``fsum`` itself, whose result there depends on where the inf
    sits; a window holding a NaN and no inf is NaN, as its ``fsum`` is, found
    from a prefix count of the NaNs.
    """
    finite = np.isfinite(col)
    prefix, scale = _int_prefix(np.where(finite, col, 0.0))
    starts, stops = lo.tolist(), hi.tolist()
    try:
        sums = [(prefix[b] - prefix[a]) / scale for a, b in zip(starts, stops)]
    except OverflowError:
        sums = [_or_nan(operator.truediv, prefix[b] - prefix[a], scale)
                for a, b in zip(starts, stops)]
    sums = np.array(sums)
    if not finite.all():
        # A NaN makes ``fsum`` NaN (or an OverflowError, which is NaN here) unless
        # the window also holds both infinities; only windows with an inf need it.
        nans, infs = (np.concatenate(([0], np.cumsum(mask)))
                      for mask in (np.isnan(col), np.isinf(col)))
        has_inf = infs[hi] > infs[lo]
        sums[(nans[hi] > nans[lo]) & ~has_inf] = math.nan
        for i in np.flatnonzero(has_inf).tolist():
            sums[i] = _or_nan(math.fsum, col[starts[i]:stops[i]].tolist())
    return sums / (hi - lo)


def _pow_or_nan(xs: list[float], n: int) -> list[float]:
    """``[x**n for x in xs]`` (the libm ``pow``), with NaN where a power overflows."""
    try:
        return [x**n for x in xs]
    except OverflowError:
        return [_or_nan(pow, x, n) for x in xs]


class WindowColumns(NamedTuple):
    """The fields of ``MomentReport`` as columns, one entry per window.

    ``center`` and ``count`` (the window's rows) are int64.  ``freq_price``,
    ``value``, ``volume`` and ``market_price`` are float64 ``(max_order,
    windows)`` blocks of the moments of orders 1..max_order, and
    ``volatility`` is the market volatility (None where it was not asked
    for); a window's VWAP is its ``market_price`` of order 1.
    """

    center: np.ndarray
    count: np.ndarray
    freq_price: np.ndarray
    value: np.ndarray
    volume: np.ndarray
    market_price: np.ndarray
    volatility: np.ndarray | None

    def reports(self) -> list[MomentReport]:
        """One ``MomentReport`` per window (``market_volatility`` None when
        ``volatility`` is)."""
        freq, value, volume, market = (list(zip(*rows.tolist())) for rows in (
            self.freq_price, self.value, self.volume, self.market_price))
        vols = [None] * len(self.center) if self.volatility is None else self.volatility.tolist()
        return [MomentReport(c, n, f, v, u, mp, mp[0], vol) for c, n, f, v, u, mp, vol in zip(
            self.center.tolist(), self.count.tolist(), freq, value, volume, market, vols)]

    def write_jsonl(self, out: TextIO) -> None:
        """Write one JSON object per window: for each report the bytes of
        ``json.dumps(report.to_dict(), allow_nan=False)`` plus a newline,
        ``WRITE_BLOCK_ROWS`` windows at a time."""
        floats = "[" + ", ".join(["%s"] * len(self.value)) + "]"
        line = ('{"center_tick": %d, "effective_count": %d, "vwap": %s, '
                '"market_volatility": %s, "volatility_negative": %s, '
                f'"freq_price": {floats}, "value": {floats}, "volume": {floats}, '
                f'"market_price": {floats}}}\n')
        for lo in range(0, len(self.center), WRITE_BLOCK_ROWS):
            cut = slice(lo, lo + WRITE_BLOCK_ROWS)
            freq, value, volume, market = ([reprs(row) for row in rows[:, cut]] for rows in (
                self.freq_price, self.value, self.volume, self.market_price))
            negative = ["true" if x else "false" for x in (self.volatility[cut] < 0).tolist()]
            # The VWAP is market_price[0]: formatted once, written twice.
            cols = zip(self.center[cut].tolist(), self.count[cut].tolist(), market[0],
                       reprs(self.volatility[cut]), negative, *freq, *value, *volume, *market)
            out.write("".join(map(line.__mod__, cols)))

    def write_compare_csv(self, out: TextIO) -> None:
        """Write the frequency and market-based price moments of each window
        and order, and their difference, as CSV rows."""
        out.write("center_tick,n,freq_price,market_price,difference\n")
        m = len(self.value)
        orders = list(range(1, m + 1))
        for lo in range(0, len(self.center), WRITE_BLOCK_ROWS):
            cut = slice(lo, lo + WRITE_BLOCK_ROWS)
            freq, market = self.freq_price[:, cut].T, self.market_price[:, cut].T
            center = np.repeat(self.center[cut], m).tolist()
            cols = (center, orders * len(freq), reprs(freq.ravel()), reprs(market.ravel()),
                    reprs((freq - market).ravel()))
            out.write("".join(map("%d,%d,%s,%s,%s\n".__mod__, zip(*cols))))


def window_columns(tape: TradeTape, centers, lo, hi, max_order: int = 4,
                   volatility: bool = True) -> WindowColumns:
    """Moment columns of the windows centered at ``centers`` holding tape rows [lo, hi).

    Each record's value, volume and price is raised to each order once, for
    all the windows that hold it (Python ``x**n``, the libm ``pow``); every
    window mean is the exact-sum mean of :func:`window_means`.  A window with
    no rows is not allowed.  Every window is checked before this returns,
    against one table of vectorised masks; the first window, in order, that
    fails raises at its first failing check: an overflowing moment
    (OverflowError, by series then order), a volume moment that underflows
    to 0 (ZeroDivisionError), a price moment that is not finite
    (OverflowError naming the field and order) or a VWAP whose square, in
    the volatility, overflows (OverflowError, "market volatility overflows").
    Without ``volatility`` there is no volatility and no moment beyond
    max_order, to compute or to check.
    """
    check_order(max_order)
    # Value and volume moments of orders up to 2 at least with the volatility,
    # which needs the second ones even when the report holds only the first.
    # Price moments go up to max_order.  Every order computed is checked.
    orders = range(1, max(max_order, 2 if volatility else 1) + 1)
    centers, lo, hi = (np.asarray(x, dtype=np.int64) for x in (centers, lo, hi))
    if len(centers) > 1:  # a failing first window raises before the full pass
        window_columns(tape, centers[:1], lo[:1], hi[:1], max_order, volatility)
    start, stop = int(lo[0]), int(hi[-1])
    value, volume = tape.value[start:stop], tape.volume[start:stop]
    with np.errstate(over="ignore"):
        price = value / volume  # may overflow to inf, as Python's float division does
    lo, hi = lo - start, hi - start
    # (orders, windows) blocks of the value, volume and price moments; NaN marks an overflow.
    means = [np.empty((k, len(centers))) for k in (len(orders), len(orders), max_order)]
    for block, xs in zip(means, map(np.ndarray.tolist, (value, volume, price))):
        for row, n in zip(block, orders):
            col = _pow_or_nan(xs, n)
            row[:] = window_means(np.array(col), lo, hi)
            del col  # one power column at a time
    value_m, volume_m, price_m = means
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        market = value_m / volume_m
    with np.errstate(invalid="ignore"):
        vol = market[1] - _pow_or_nan(market[0].tolist(), 2) if volatility else None
    # The failure table, in check order: (error, message, values, mask), each
    # block (rows, windows).  The first failing window raises at its first
    # flagged row, by table entry then order.
    table = [(OverflowError, f"{series} moment of order {{n}} overflows", ms, np.isnan(ms))
             for series, ms in zip(SERIES, means)]
    table += [(ZeroDivisionError, "volume moment of order {n} underflows to 0", volume_m,
               volume_m == 0),
              *((OverflowError, f"{name} moment of order {{n}} is {{x!r}}", ms, ~np.isfinite(ms))
                for name, ms in (("freq_price", price_m), ("market_price", market)))]
    if vol is not None:
        table.append((OverflowError, "market volatility overflows", vol[None], np.isnan(vol)[None]))
    failing = np.logical_or.reduce([mask.any(axis=0) for *_, mask in table])
    if failing.any():
        i = int(failing.argmax())
        error, message, values, mask = next(row for row in table if row[3][:, i].any())
        n = int(mask[:, i].argmax())
        raise error(f"window at tick {centers[i]}: "
                    + message.format(n=n + 1, x=float(values[n, i])))
    return WindowColumns(centers, hi - lo, price_m, value_m[:max_order],
                         volume_m[:max_order], market[:max_order], vol)


def compute_report(window: Window, tape: TradeTape, max_order: int = 4) -> MomentReport:
    """Evaluate all moments of orders 1..max_order for one window.

    The one-window case of :func:`window_columns`, with the same errors.
    """
    if not window.member_ticks:
        raise NoDataError(f"window at tick {window.center_tick} has no records")
    lo = int(tape.ticks.searchsorted(window.member_ticks[0]))
    hi = int(tape.ticks.searchsorted(window.member_ticks[-1], side="right"))
    return window_columns(tape, [window.center_tick], [lo], [hi], max_order).reports()[0]
