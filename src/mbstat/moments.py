"""Per-window moments: frequency-based, market-based, VWAP and volatility.

Frequency-based moments are plain arithmetic means of n-th powers over the
trades in a window.  Market-based price moments are the ratio of the value
moment to the volume moment of the same order, which weights each trade by
its size instead of counting trades equally.  Every power is the libm
``pow``: Python's ``x**n`` per record, and one ``np.float_power`` call per
column in :func:`window_columns`.  Every within-window sum is the
correctly rounded exact sum, so results are independent of member order
down to the last bit: the per-record functions use ``math.fsum``, and
:func:`window_columns` takes each window's sum as a difference of exact
prefix sums held in int64 base-``2**32`` digits (:func:`window_means`),
rounded once, which gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .errors import NoDataError
from .tape import WRITE_BLOCK_ROWS, TradeRecord, TradeTape, write_rows
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


#: Bytes of int64 digits that :func:`window_means` holds at once, for one
#: block of rows or of windows; a block holds at least one row or window.
DIGIT_BLOCK_BYTES = 2**17

_MASK = 2**32 - 1


def _digits(x: np.ndarray, emin: int, width: int) -> np.ndarray:
    """``(width, len(x) + 1)`` int64 digit rows whose column ``i + 1`` holds
    the integer ``x[i] * 2**(53 - emin)`` in signed base-``2**32`` digits,
    and whose column 0 is 0.  ``x`` is finite, and ``2**emin`` is at most
    twice its smallest nonzero magnitude.

    A value's 53-bit mantissa, shifted left by its exponent's offset from
    ``emin`` mod 32, spans three consecutive digits.
    """
    mant, exp = np.frexp(x)
    m = (mant * 2.0**53).astype(np.int64)
    k = np.where(m != 0, exp - emin, 0)
    v = np.abs(m).view(np.uint64)
    r = (k % 32).astype(np.uint64)
    low = v << r  # its low 64 bits: the two lower digits
    out = np.zeros((width, len(x) + 1), np.int64)
    rows, cols, neg = k // 32, np.arange(1, len(x) + 1), m < 0
    for i, part in enumerate((low & _MASK, low >> 32, (v >> 32) >> (32 - r))):
        part = part.view(np.int64)
        out[rows + i, cols] = np.negative(part, where=neg, out=part)
    return out


def _carried(s: np.ndarray) -> np.ndarray:
    """``s`` (int64 base-``2**32`` digit rows, one number per column) with every
    digit but the top one in [0, 2**32); the top digit takes the sign.

    Each pass carries every digit row at once; after pass ``p`` the lowest
    ``p`` rows are final, so a carry that ripples through a run of
    ``0xFFFFFFFF`` digits takes at most one pass a row.
    """
    while (high := s[:-1] >> 32).any():
        s[:-1] &= _MASK
        s[1:] += high
    return s


def _quotient(s: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``s`` (carried nonnegative digit rows) times ``2**96``, long-divided by
    each column's ``count`` (below ``2**31``), with the lowest bit set where a
    remainder is left: a sticky bit below the top 64 bits of any nonzero
    quotient, which is at least ``2**65``.

    A remainder below ``2**31`` times ``2**32``, plus a digit, stays inside int64.
    """
    q = np.concatenate((np.zeros((3, s.shape[1]), np.int64), s))
    rem = np.zeros(s.shape[1], np.int64)
    for d in range(len(q) - 1, -1, -1):
        q[d], rem = np.divmod((rem << 32) + q[d], count)
    q[0] |= rem != 0
    return q


def _rounded(s: np.ndarray, exp0: int, count: np.ndarray | None = None) -> np.ndarray:
    """The float64 nearest (ties to even) to each column's
    ``sum(s[d] * 2**(32 * d)) * 2**exp0``, divided first by the column's
    ``count`` when that is given, or NaN where that rounds to ``2**1024`` or
    more.  ``s`` is int64 digit rows whose top digit has room for every
    carry; it is overwritten.

    The top 64 bits of the magnitude, with a sticky bit for every bit below
    them, round to the nearest float64 in the uint64 conversion.  A sum in
    the subnormal range is a multiple of ``2**-1074`` (so is every float64),
    which it then holds exactly.
    """
    _carried(s)
    neg = s[-1] < 0
    if neg.any():
        s[:, neg] = _carried(-s[:, neg])
    if count is not None:
        s, exp0 = _quotient(s, count), exp0 - 96
    # Three zero digits below: the top 64 bits take the bit length ``b`` of the
    # highest nonzero digit ``h``, all of digit h - 1 and the top 32 - b bits of h - 2.
    d = np.concatenate((np.zeros((3, s.shape[1]), np.int64), s)).view(np.uint64)
    nonzero = d != 0
    h = len(d) - 1 - np.argmax(nonzero[::-1], axis=0)
    top, mid, low = (np.take_along_axis(d, (h - i)[None], axis=0)[0] for i in range(3))
    b = np.maximum(np.frexp(top.astype(np.float64))[1], 1).astype(np.uint64)
    below = np.logical_or.accumulate(nonzero, axis=0)
    sticky = ((low & ((1 << b) - 1)) != 0) | np.take_along_axis(below, (h - 3)[None], axis=0)[0]
    bits = (top << (64 - b)) | (mid << (32 - b)) | (low >> b) | sticky
    with np.errstate(over="ignore"):
        out = np.ldexp(bits.astype(np.float64), 32 * (h - 5) + b.astype(np.int64) + exp0)
    out[np.isinf(out)] = math.nan
    return np.negative(out, where=neg, out=out)


class _Prefixes:
    """Exact prefix sums of a finite column, as int64 digit rows
    (:func:`_digits`), one block of ``block`` rows at a time.

    ``at(j)`` gives the prefix sums at rows ``j * block`` to ``(j + 1) *
    block``: the cumulative digit sums of block j's rows, plus the digit
    sums of every row before it, which are kept for each block passed.  The
    last ``KEPT`` blocks are kept too, so windows in row order turn each
    block into digits once; a block that no window end falls in is only summed.
    """

    KEPT = 4

    def __init__(self, x: np.ndarray, emin: int, width: int, block: int):
        self.x, self.emin, self.width, self.block = x, emin, width, block
        self.starts = [np.zeros(width, np.int64)]  # the digit sums before block j
        self.kept: dict[int, np.ndarray] = {}

    def _block_digits(self, j: int) -> np.ndarray:
        return _digits(self.x[j * self.block:(j + 1) * self.block], self.emin, self.width)

    def at(self, j: int) -> np.ndarray:
        if j not in self.kept:
            while len(self.starts) < j + 1:
                self.starts.append(self.starts[-1] + self._block_digits(len(self.starts) - 1).sum(axis=1))
            digits = self._block_digits(j)
            cum = np.cumsum(digits, axis=1, out=digits)
            cum += self.starts[j][:, None]
            if len(self.starts) == j + 1:
                self.starts.append(cum[:, -1].copy())
            self.kept[j] = cum
            if len(self.kept) > self.KEPT:
                del self.kept[next(iter(self.kept))]
        return self.kept[j]


def _exact_sums(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                count: np.ndarray | None = None) -> np.ndarray:
    """The float64 nearest to the exact ``sum(x[a:b])`` of each window [a, b)
    of ``lo``/``hi``, or to that sum over the window's ``count`` when that is
    given, NaN where that rounds past the float64 range; ``x`` is finite and
    has fewer than ``2**31`` rows.

    Every value is an integer times ``2**(emin - 53)``, for the smallest
    exponent ``emin`` of the column, held in int64 base-``2**32`` digits, so
    ``np.cumsum`` gives exact prefix sums and a window's digit sums are a
    difference of two.  Rows are turned into digits, and windows rounded,
    in blocks of ``DIGIT_BLOCK_BYTES`` of digits.
    """
    mag = np.abs(x)
    top = mag.max(initial=0.0)
    if top == 0:
        return np.zeros(len(lo))
    emin = int(np.frexp(mag.min(initial=top, where=mag > 0))[1])
    # Room for a mantissa at the top exponent times up to 2**31 rows.
    width = (int(np.frexp(top)[1]) - emin) // 32 + 4
    del mag
    block = max(1, DIGIT_BLOCK_BYTES // (8 * width))
    prefixes = _Prefixes(x, emin, width, block)
    sums = np.empty(len(lo))
    for w in range(0, len(lo), block):
        ends = np.concatenate((hi[w:w + block], lo[w:w + block]))
        # The prefix at row p comes from the block of row p - 1 (p = 0 from block 0).
        j = np.maximum(ends - 1, 0) // block
        at = np.empty((width, len(ends)), np.int64)
        for b in np.flatnonzero(np.bincount(j)).tolist():  # np.unique would import numpy.ma
            sel = np.flatnonzero(j == b)
            at[:, sel] = prefixes.at(b)[:, ends[sel] - b * block]
        n = len(ends) // 2
        sums[w:w + n] = _rounded(at[:, :n] - at[:, n:], emin - 53,
                                 None if count is None else count[w:w + n])
    return sums


def window_means(col: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``math.fsum(col[a:b]) / (b - a)`` for each window [a, b) of ``lo``/``hi``,
    bit for bit where that ``fsum`` is finite.

    A window's sum is the correctly rounded exact sum of its finite values,
    as ``fsum``'s is, taken from exact int64 digit prefix sums
    (:func:`_exact_sums`).  Where the exact sum rounds past the float64
    range, ``fsum`` raises, but the mean is finite: its digits are divided
    by the count before their one rounding, so [1.7e308, 1.7e308] gives
    1.7e308.  ``fsum`` also raises where only a partial sum overflows, so
    for [1e308, 1e308, -1e308] this gives 1e308 / 3.  No tape column
    reaches that case, as tape values are never negative.  This takes
    O(rows + windows) for any window width.  A window holding an inf is
    summed by ``fsum`` itself, whose result there depends on where the inf
    sits, and is NaN where that raises OverflowError; a window holding a NaN
    and no inf is NaN, as its ``fsum`` is, found from a prefix count of the
    NaNs.
    """
    finite = np.isfinite(col)
    means = _exact_sums(np.where(finite, col, 0.0), lo, hi) / (hi - lo)
    if (over := np.flatnonzero(np.isnan(means))).size:
        means[over] = _exact_sums(np.where(finite, col, 0.0), lo[over], hi[over],
                                  (hi - lo)[over])
    if not finite.all():
        # A NaN makes ``fsum`` NaN (or an OverflowError, which is NaN here) unless
        # the window also holds both infinities; only windows with an inf need it.
        nans, infs = (np.concatenate(([0], np.cumsum(mask)))
                      for mask in (np.isnan(col), np.isinf(col)))
        has_inf = infs[hi] > infs[lo]
        means[(nans[hi] > nans[lo]) & ~has_inf] = math.nan
        for i in np.flatnonzero(has_inf).tolist():
            try:
                means[i] = math.fsum(col[lo[i]:hi[i]].tolist()) / (hi[i] - lo[i])
            except OverflowError:  # NaN marks an overflow: no real moment here is NaN
                means[i] = math.nan
    return means


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """``x**n`` of each entry (the libm ``pow``, as Python's ``float ** int``),
    with NaN where the power of a finite entry overflows."""
    # Not np.power: numpy may send it to a SIMD kernel whose last bits differ from libm's.
    with np.errstate(over="ignore"):
        out = np.float_power(x, n)
    out[np.isinf(out) & np.isfinite(x)] = math.nan
    return out


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
        ``json.dumps(report.to_dict(), allow_nan=False)`` plus a newline, by
        :func:`~mbstat.tape.write_rows`."""
        m = len(self.value)
        floats = "[" + ", ".join(["%s"] * m) + "]"
        line = ('{"center_tick": %s, "effective_count": %s, "vwap": %s, '
                '"market_volatility": %s, "volatility_negative": %s, '
                f'"freq_price": {floats}, "value": {floats}, "volume": {floats}, '
                f'"market_price": {floats}}}\n')
        cols = (self.center, self.count, self.volatility, self.volatility < 0, *self.freq_price,
                *self.value, *self.volume, *self.market_price)
        # The VWAP is market_price[0], column 4 + 3m: turned into text once, written twice.
        write_rows([cols], (out, line, [0, 1, 4 + 3 * m, *range(2, len(cols))], ""))

    def write_compare_csv(self, out: TextIO) -> None:
        """Write the frequency and market-based price moments of each window
        and order, and their difference, as CSV rows, by
        :func:`~mbstat.tape.write_rows`.  The rows of ``WRITE_BLOCK_ROWS``
        windows at a time are built as columns, not those of every window."""
        out.write("center_tick,n,freq_price,market_price,difference\n")
        m = len(self.value)

        def blocks():
            for lo in range(0, len(self.center), WRITE_BLOCK_ROWS):
                cut = slice(lo, lo + WRITE_BLOCK_ROWS)
                freq, market = self.freq_price[:, cut].T, self.market_price[:, cut].T
                yield (np.repeat(self.center[cut], m), np.tile(np.arange(1, m + 1), len(freq)),
                       freq.ravel(), market.ravel(), (freq - market).ravel())

        write_rows(blocks(), (out, "%s,%s,%s,%s,%s\n", range(5), ""))


def window_columns(tape: TradeTape, centers, lo, hi, max_order: int = 4,
                   volatility: bool = True) -> WindowColumns:
    """Moment columns of the windows centered at ``centers`` holding tape rows [lo, hi).

    Each record's value, volume and price is raised to each order once, for
    all the windows that hold it, one column per series and order
    (:func:`_power`, the libm ``pow``); every window mean is the exact-sum
    mean of :func:`window_means`.  A window with no rows is not allowed.
    Every window is checked before this returns, against one table of
    vectorised masks; the first window, in order, that fails raises at its
    first failing check: an overflowing moment
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
    for block, x in zip(means, (value, volume, price)):
        for row, n in zip(block, orders):
            row[:] = window_means(_power(x, n), lo, hi)
    value_m, volume_m, price_m = means
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        market = value_m / volume_m
    with np.errstate(invalid="ignore"):
        vol = market[1] - _power(market[0], 2) if volatility else None
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
