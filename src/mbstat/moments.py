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


def _check_order(n: int, max_order: int) -> None:
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    if n > max_order:
        raise ValueError(f"moment order {n} exceeds cap {max_order}")


def _power_mean(xs: list[float], n: int, series: str) -> float:
    try:
        return math.fsum(x**n for x in xs) / len(xs)
    except OverflowError:
        raise OverflowError(f"{series} moment of order {n} overflows") from None


def freq_moment(
    records: Sequence[TradeRecord],
    series: str,
    n: int,
    max_order: int = DEFAULT_MAX_ORDER,
) -> float:
    """Mean of the n-th powers of the chosen per-trade series."""
    _check_order(n, max_order)
    xs = _values(records, series)
    if not xs:
        raise NoDataError("freq_moment over empty window")
    return _power_mean(xs, n, series)


def market_price_moment(
    records: Sequence[TradeRecord], n: int, max_order: int = DEFAULT_MAX_ORDER
) -> float:
    """n-th market-based price moment: value moment over volume moment."""
    return freq_moment(records, "value", n, max_order) / freq_moment(
        records, "volume", n, max_order
    )


def vwap(records: Sequence[TradeRecord]) -> float:
    """Volume weighted average price; identical to market_price_moment(1)."""
    return market_price_moment(records, 1)


def market_volatility(records: Sequence[TradeRecord]) -> float:
    """Market-based price variance; may legitimately be negative."""
    return market_price_moment(records, 2) - market_price_moment(records, 1) ** 2


def char_fn_taylor(
    records: Sequence[TradeRecord],
    x: float,
    order: int,
    max_order: int = DEFAULT_MAX_ORDER,
) -> complex:
    """Truncated Taylor series of the price characteristic function.

    1 + sum_{n=1..order} (i^n / n!) * p(n) * x^n, with p(n) the
    market-based price moments.
    """
    _check_order(order, max_order)
    if not records:
        raise NoDataError("char_fn_taylor over empty window")
    total = complex(1.0, 0.0)
    for n in range(1, order + 1):
        p_n = market_price_moment(records, n, max_order)
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


def compute_report(
    window: Window,
    tape: TradeTape,
    max_order: int = 4,
    order_cap: int = DEFAULT_MAX_ORDER,
) -> MomentReport:
    """Evaluate all moments of orders 1..max_order for one window."""
    _check_order(max_order, order_cap)
    if not window.member_ticks:
        raise NoDataError(f"window at tick {window.center_tick} has no records")
    lo, hi = tape.ticks.searchsorted((window.member_ticks[0], window.member_ticks[-1] + 1))
    value, volume = tape.value[lo:hi].tolist(), tape.volume[lo:hi].tolist()
    # Orders up to 2 at least: the volatility needs the second moment even
    # when the report holds only the first.
    orders = range(1, max(max_order, 2) + 1)
    price = [c / u for c, u in zip(value, volume)]
    try:
        value_m, volume_m, freq_price = (
            tuple(_power_mean(xs, n, series) for n in orders)
            for series, xs in zip(SERIES, (value, volume, price))
        )
    except OverflowError as exc:
        raise OverflowError(f"window at tick {window.center_tick}: {exc}") from None
    market_price = tuple(c / u for c, u in zip(value_m, volume_m))
    return MomentReport(
        center_tick=window.center_tick,
        effective_count=int(hi - lo),
        freq_price=freq_price[:max_order],
        value=value_m[:max_order],
        volume=volume_m[:max_order],
        market_price=market_price[:max_order],
        vwap=market_price[0],
        market_volatility=market_price[1] - market_price[0] ** 2,
    )
