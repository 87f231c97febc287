"""Trade tape: per-tick records, grid bucketing and CSV round-trip.

A tape is a time-ordered sequence of aggregated trades on a uniform grid
with quantum ``epsilon`` seconds per tick.  Each record carries the traded
value (currency) and volume (asset units); the trade price is always the
derived ratio value/volume and is never stored.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable

from .errors import FormatError

FORMATS = ("tick-value-volume", "tick-price-volume")

_HEADERS = {
    "tick-value-volume": ("tick", "value", "volume"),
    "tick-price-volume": ("tick", "price", "volume"),
}


@dataclass(frozen=True)
class TradeRecord:
    """One aggregated trade at grid tick ``tick`` (time = epsilon * tick)."""

    tick: int
    value: float
    volume: float

    def __post_init__(self):
        if not (self.volume > 0 and math.isfinite(self.volume)):
            raise ValueError(f"volume must be positive and finite, got {self.volume}")
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise ValueError(f"value must be nonnegative and finite, got {self.value}")

    @property
    def price(self) -> float:
        return self.value / self.volume


@dataclass(frozen=True)
class TradeTape:
    """Immutable, strictly tick-ordered sequence of trades on the epsilon grid.

    Gaps are allowed; at most one record per tick.
    """

    epsilon: float
    records: tuple[TradeRecord, ...]
    _by_tick: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "records", tuple(self.records))
        ticks = [r.tick for r in self.records]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("records must be strictly increasing in tick")
        object.__setattr__(self, "_by_tick", {r.tick: r for r in self.records})

    def __len__(self) -> int:
        return len(self.records)

    def has(self, tick: int) -> bool:
        return tick in self._by_tick

    def record_at(self, tick: int) -> TradeRecord | None:
        return self._by_tick.get(tick)

    @property
    def first_tick(self) -> int:
        if not self.records:
            raise ValueError("empty tape has no first tick")
        return self.records[0].tick

    @property
    def last_tick(self) -> int:
        if not self.records:
            raise ValueError("empty tape has no last tick")
        return self.records[-1].tick

    @property
    def span_ticks(self) -> int:
        """Horizon of the tape in ticks (last - first)."""
        return self.last_tick - self.first_tick


def quantize_tick(time_seconds: float, epsilon: float) -> int:
    """Map an irregular timestamp onto the grid, round-half-to-even."""
    return round(time_seconds / epsilon)


def bucket(raw: Iterable[TradeRecord], epsilon: float) -> TradeTape:
    """Merge records sharing a tick by summing values and volumes.

    Total value and total volume are conserved; the result has one record
    per tick, sorted.
    """
    sums: dict[int, list[float]] = {}
    for r in raw:
        acc = sums.setdefault(r.tick, [0.0, 0.0])
        acc[0] += r.value
        acc[1] += r.volume
    records = [TradeRecord(t, c, u) for t, (c, u) in sorted(sums.items())]
    return TradeTape(epsilon, tuple(records))


def parse_csv(text, format: str = "tick-value-volume", epsilon: float = 1.0) -> TradeTape:
    """Parse a tape from CSV text or a file-like object.

    The header row must match the chosen format exactly.  In price form the
    record value is price * volume.  Duplicate ticks are merged by bucket.
    Malformed rows raise :class:`FormatError` with their line number.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if isinstance(text, str):
        text = io.StringIO(text)
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("missing header row", line=1)
    expected = _HEADERS[format]
    if tuple(h.strip() for h in header) != expected:
        raise FormatError(f"header must be {','.join(expected)}", line=1)

    raw: list[TradeRecord] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise FormatError(f"expected 3 fields, got {len(row)}", line=lineno)
        try:
            tick = int(row[0])
            a = float(row[1])
            volume = float(row[2])
            value = a * volume if format == "tick-price-volume" else a
            raw.append(TradeRecord(tick, value, volume))
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno) from None
    return bucket(raw, epsilon)


def emit_csv(tape: TradeTape, format: str = "tick-value-volume") -> str:
    """Serialize a tape to CSV with shortest round-tripping decimals."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    lines = [",".join(_HEADERS[format])]
    for r in tape.records:
        second = r.price if format == "tick-price-volume" else r.value
        lines.append(f"{r.tick},{second!r},{r.volume!r}")
    return "\n".join(lines) + "\n"
