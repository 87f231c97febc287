"""Trade tape: tick/value/volume columns, grid bucketing and CSV round-trip.

A tape is a time-ordered sequence of aggregated trades on a uniform time
grid, stored as columns: the integer tick, traded value (currency) and
volume (asset units) of each record.  The trade price is always the derived
ratio value/volume and is never stored.  The engine works in ticks: every
statistic and every output field is in ticks.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np
import orjson

from .errors import FormatError, NoDataError

FORMATS = ("tick-value-volume", "tick-price-volume")

_HEADERS = {
    "tick-value-volume": ("tick", "value", "volume"),
    "tick-price-volume": ("tick", "price", "volume"),
}


@dataclass(frozen=True)
class TradeRecord:
    """One aggregated trade at grid tick ``tick``."""

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


def _valid_rows(value: np.ndarray, volume: np.ndarray) -> np.ndarray:
    """Mask of the rows that pass TradeRecord's checks: volume > 0, value >= 0, both finite."""
    return (volume > 0) & np.isfinite(volume) & (value >= 0) & np.isfinite(value)


@dataclass(frozen=True, eq=False)
class TradeTape:
    """Immutable, strictly tick-ordered trades on the tick grid.

    ``ticks`` (int64), ``value`` and ``volume`` (float64) are read-only
    columns of equal length.  Gaps are allowed; at most one record per tick.
    """

    ticks: np.ndarray
    value: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        # A copy: the columns are made read-only, and a caller's arrays stay writeable.
        self._adopt(np.array(self.ticks, dtype=np.int64), np.array(self.value, dtype=np.float64),
                    np.array(self.volume, dtype=np.float64))

    @classmethod
    def _owning(cls, ticks: np.ndarray, value: np.ndarray, volume: np.ndarray) -> TradeTape:
        """Tape that takes over fresh columns no one else holds, copying one
        only where its dtype is not int64/float64; checked as the constructor checks."""
        tape = object.__new__(cls)
        tape._adopt(np.asarray(ticks, dtype=np.int64), np.asarray(value, dtype=np.float64),
                    np.asarray(volume, dtype=np.float64))
        return tape

    def _adopt(self, ticks: np.ndarray, value: np.ndarray, volume: np.ndarray) -> None:
        """Check the columns, make them read-only and set them as this tape's."""
        if not (ticks.ndim == 1 and ticks.shape == value.shape == volume.shape):
            raise ValueError("ticks, value and volume must be 1-D columns of one length")
        if np.any(ticks[1:] <= ticks[:-1]):
            raise ValueError("records must be strictly increasing in tick")
        ok = _valid_rows(value, volume)
        if not ok.all():
            # The first bad row fails TradeRecord's checks; name its tick.
            i = int(np.argmin(ok))
            try:
                TradeRecord(int(ticks[i]), float(value[i]), float(volume[i]))
            except ValueError as exc:
                raise ValueError(f"tick {ticks[i]}: {exc}") from None
        for name, col in (("ticks", ticks), ("value", value), ("volume", volume)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @classmethod
    def from_records(cls, records: Iterable[TradeRecord]) -> TradeTape:
        """Tape of records that already hold one trade per tick, in tick order."""
        return cls(*_columns(list(records)))

    def __len__(self) -> int:
        return len(self.ticks)

    def _find(self, ticks: np.ndarray, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The row of each int64 ``ticks + offset`` (offset >= 0) and a mask of
        those on the tape; a sum past the int64 top is off the tape, not wrapped."""
        top = np.iinfo(np.int64).max - offset
        rows = np.searchsorted(self.ticks, np.minimum(ticks, top) + offset)
        found = (ticks <= top) & (rows < len(self))
        found[found] = self.ticks[rows[found]] == ticks[found] + offset
        return rows, found

    @property
    def first_tick(self) -> int:
        if not len(self):
            raise NoDataError("tape is empty")
        return int(self.ticks[0])

    @property
    def last_tick(self) -> int:
        if not len(self):
            raise NoDataError("tape is empty")
        return int(self.ticks[-1])


#: Rows that ``parse_csv`` converts at a time.  Small blocks keep the
#: parse's peak memory low; a block that fails a check is walked row by
#: row, which names the line of its first bad row.
PARSE_BLOCK_ROWS = 1024


def _columns(records: list[TradeRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tick, value and volume columns of the records, in their order."""
    return (np.array([r.tick for r in records], dtype=np.int64),
            np.array([r.value for r in records], dtype=np.float64),
            np.array([r.volume for r in records], dtype=np.float64))


def _merged(ticks, value, volume) -> TradeTape:
    """Tape with one record per distinct tick, in tick order.

    The values (and volumes) of a tick are summed in input order starting
    from 0.0, so a lone -0.0 comes back as 0.0.
    """
    unique, index = np.unique(ticks, return_inverse=True)
    # An overflowing sum is rejected by the tape, naming its tick.
    value, volume = (np.bincount(index, weights=col, minlength=len(unique))
                     for col in (value, volume))
    return TradeTape._owning(unique, value, volume)


def bucket(raw: Iterable[TradeRecord]) -> TradeTape:
    """Merge records sharing a tick by summing values and volumes.

    Total value and total volume are conserved; the result has one record
    per tick, sorted.  A merged sum that overflows is rejected by the tape,
    naming its tick.
    """
    return _merged(*_columns(list(raw)))


def _blank(row: list[str]) -> bool:
    """Whether a CSV row is a blank line, which the parse skips."""
    return not row or (len(row) == 1 and not row[0].strip())


def _block_columns(rows: list[list[str]], price_form: bool):
    """Tick, value and volume columns of a block of rows, skipping blank ones,
    or None if a row fails a check."""
    if set(map(len, rows)) - {3}:
        rows = [row for row in rows if not _blank(row)]
        if set(map(len, rows)) - {3}:
            return None
    ticks, first, second = zip(*rows) if rows else ((), (), ())
    try:
        # numpy converts each str with Python's int or float, as a row-by-row parse does.
        ticks = np.array(ticks, dtype=np.int64)
        a = np.array(first, dtype=np.float64)
        volume = np.array(second, dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        value = a * volume if price_form else a
    return (ticks, value, volume) if _valid_rows(value, volume).all() else None


def _raise_first_bad_row(rows: list[list[str]], line: int, price_form: bool) -> None:
    """Raise FormatError naming the first row that fails a check, and its file
    line; ``line`` is the first row's.  Rows are checked one at a time, with
    TradeRecord's checks."""
    for row in rows:
        lineno = line  # then step past this row's quoted line breaks too (CRLF is one)
        line += 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
        if _blank(row):
            continue
        if len(row) != 3:
            raise FormatError(f"expected 3 fields, got {len(row)}", line=lineno)
        try:
            tick = int(row[0])
            if not -(2**63) <= tick < 2**63:
                raise ValueError(f"tick {tick} is outside the int64 range")
            a = float(row[1])
            volume = float(row[2])
            TradeRecord(tick, a * volume if price_form else a, volume)
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno) from None


def parse_csv(text, format: str = "tick-value-volume") -> TradeTape:
    """Parse a tape from CSV text or a file-like object.

    The header row must match the chosen format exactly.  In price form the
    record value is price * volume.  Duplicate ticks are merged as by
    bucket.  Malformed rows raise :class:`FormatError` with their line number.
    Rows are converted in blocks of ``PARSE_BLOCK_ROWS``, with the same
    ``int``/``float`` calls and checks as a row-by-row parse.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if isinstance(text, str):
        # UTF-8 bytes (a StringIO holds UCS-4), split into lines as open(newline="") does.
        text = io.TextIOWrapper(io.BytesIO(text.encode(errors="surrogatepass")),
                                encoding="utf-8", errors="surrogatepass", newline="")
    reader = csv.reader(text)
    price_form = format == "tick-price-volume"
    blocks = [(np.array([], np.int64), np.array([]), np.array([]))]  # a header-only file
    try:
        if (header := next(reader, None)) is None:
            raise FormatError("missing header row", line=1)
        expected = _HEADERS[format]
        if tuple(h.strip() for h in header) != expected:
            raise FormatError(f"header must be {','.join(expected)}", line=1)
        line = reader.line_num + 1  # the physical line of the block's first row
        while rows := list(itertools.islice(reader, PARSE_BLOCK_ROWS)):
            if (cols := _block_columns(rows, price_form)) is None:
                _raise_first_bad_row(rows, line, price_form)
            blocks.append(cols)
            line = reader.line_num + 1
    except csv.Error as exc:  # a field over the module's size limit, say
        raise FormatError(str(exc), line=reader.line_num) from None
    return _merged(*map(np.concatenate, zip(*blocks)))


#: Rows formatted per ``write`` call by the writers.
WRITE_BLOCK_ROWS = 1024


def reprs(a: np.ndarray) -> list[str]:
    """``float.__repr__`` of each element of the 1-D float64 array ``a``, bit for bit.

    orjson's Ryu shortest round-trip digits are ``repr``'s digits, and its
    text equals ``repr``'s for ±0.0 and every finite x with 1e-4 <= |x| <
    1e16.  The other elements, whose ``repr`` has an exponent (orjson writes
    ``1e16`` and ``0.00001`` for ``1e+16`` and ``1e-05``) or which are not
    finite (orjson writes ``null``), take ``float.__repr__`` itself.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    if not len(a):
        return []
    out = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    with np.errstate(invalid="ignore"):
        other = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (a != 0))
    for i, x in zip(other.tolist(), a[other].tolist()):
        out[i] = repr(x)
    return out


def write_csv(tape: TradeTape, out: TextIO) -> None:
    """Write a tape to a text stream as tick,value,volume CSV with shortest
    round-tripping decimals (:func:`reprs`), ``WRITE_BLOCK_ROWS`` rows at a time."""
    out.write(",".join(_HEADERS["tick-value-volume"]) + "\n")
    for lo in range(0, len(tape), WRITE_BLOCK_ROWS):
        cut = slice(lo, lo + WRITE_BLOCK_ROWS)
        cols = tape.ticks[cut].tolist(), reprs(tape.value[cut]), reprs(tape.volume[cut])
        out.write("".join([f"{t},{v},{u}\n" for t, v, u in zip(*cols)]))


def emit_csv(tape: TradeTape) -> str:
    """The CSV that ``write_csv`` writes, as a string."""
    buf = io.StringIO()
    write_csv(tape, buf)
    return buf.getvalue()
