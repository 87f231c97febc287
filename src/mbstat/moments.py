"""Per-window moments: frequency-based, market-based, VWAP and volatility.

Frequency-based moments are plain arithmetic means of n-th powers over the
trades in a window.  Market-based price moments are the ratio of the value
moment to the volume moment of the same order, which weights each trade by
its size instead of counting trades equally.  All within-window sums use
``math.fsum`` (exact accumulation), so results are independent of member
order down to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NoDataError
from .tape import TradeRecord, TradeTape
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


def window_reports(tape: TradeTape, centers: list[int], lo: list[int], hi: list[int],
                   max_order: int = 4) -> list[MomentReport]:
    """Reports of the windows centered at ``centers`` holding tape rows [lo, hi).

    Each record's value, volume and price is raised to each order once, for
    all the windows that hold it; every window mean is an exact ``fsum``
    over its rows.  A window with no rows is not allowed.  The first window,
    in order, whose moments fail raises: an overflowing moment
    (OverflowError, by series then order), a volume moment that underflows
    to 0 (ZeroDivisionError) or a price moment that is not finite
    (OverflowError naming the field and order).
    """
    check_order(max_order)
    # Orders up to 2 at least: the volatility needs the second moment even
    # when the report holds only the first.
    orders = range(1, max(max_order, 2) + 1)
    start = lo[0]
    value, volume = tape.value[start:hi[-1]].tolist(), tape.volume[start:hi[-1]].tolist()
    price = [c / u for c, u in zip(value, volume)]
    bounds = [(a - start, b - start) for a, b in zip(lo, hi)]
    means = []  # one list per (series, order), over the windows; NaN marks an overflow
    for xs in (value, volume, price):
        for n in orders:
            try:
                col = [x**n for x in xs]
            except OverflowError:
                col = [_or_nan(pow, x, n) for x in xs]
            means.append([_or_nan(math.fsum, col[a:b]) / (b - a) for a, b in bounds])
            del col  # one power column at a time
    k = len(orders)
    return [_report(c, b - a, row[:k], row[k:2 * k], row[2 * k:], max_order)
            for c, (a, b), row in zip(centers, bounds, zip(*means))]


def _report(center: int, count: int, value_m, volume_m, freq_price, max_order: int):
    for series, ms in zip(SERIES, (value_m, volume_m, freq_price)):
        for n, m in enumerate(ms, start=1):
            if math.isnan(m):
                raise OverflowError(
                    f"window at tick {center}: {series} moment of order {n} overflows")
    try:
        market_price = tuple(c / u for c, u in zip(value_m, volume_m))
    except ZeroDivisionError:
        n = volume_m.index(0.0) + 1
        raise ZeroDivisionError(
            f"window at tick {center}: volume moment of order {n} underflows to 0"
        ) from None
    for name, xs in (("freq_price", freq_price), ("market_price", market_price)):
        for n, x in enumerate(xs, start=1):
            if not math.isfinite(x):
                raise OverflowError(f"window at tick {center}: {name} moment "
                                    f"of order {n} is {x!r}")
    return MomentReport(
        center_tick=center,
        effective_count=count,
        freq_price=freq_price[:max_order],
        value=value_m[:max_order],
        volume=volume_m[:max_order],
        market_price=market_price[:max_order],
        vwap=market_price[0],
        market_volatility=market_price[1] - market_price[0] ** 2,
    )


def compute_report(window: Window, tape: TradeTape, max_order: int = 4) -> MomentReport:
    """Evaluate all moments of orders 1..max_order for one window.

    The one-window case of :func:`window_reports`, with the same errors.
    """
    check_order(max_order)
    if not window.member_ticks:
        raise NoDataError(f"window at tick {window.center_tick} has no records")
    lo = int(tape.ticks.searchsorted(window.member_ticks[0]))
    hi = int(tape.ticks.searchsorted(window.member_ticks[-1], side="right"))
    return window_reports(tape, [window.center_tick], [lo], [hi], max_order)[0]
