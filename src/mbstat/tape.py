"""Trade tape: tick/value/volume columns, grid bucketing and CSV round-trip.

A tape is a time-ordered sequence of aggregated trades on a uniform time
grid, stored as columns: the integer tick, traded value (currency) and
volume (asset units) of each record.  The trade price is always the derived
ratio value/volume and is never stored.  The engine works in ticks: every
statistic and every output field is in ticks.

``parse_csv`` reads blocks of plain numeric lines with numpy's C reader.
Each other block goes through ``csv.reader``, which reads past the block
only while a quoted field runs on; numpy's reader converts its rows again
once their fields are joined by commas, and a block that it turns down is
walked row by row.  Each path gives the tape, or the error line, that a
row-by-row ``int``/``float`` parse gives.

``write_rows`` is the one writer of every command's output: it turns
blocks of columns into text with ``reprs`` and fills one row template per
output stream.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

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


#: The bytes of a block that numpy's C reader converts: ASCII digits, the
#: float characters, commas, space, tab, CR and LF.  Over them it gives what
#: ``int`` and ``float`` give (all three drop the spaces and tabs around a
#: number, and numpy's reader rejects a line break inside a line); outside
#: them it can differ (``float('\x1c1')`` raises, where numpy reads 1.0).
_PLAIN = b"0123456789.eE+-, \t\r\n"
_PLAIN_ROW = np.dtype([("tick", np.int64), ("a", np.float64), ("volume", np.float64)])


def _plain_columns(lines: list[str], price_form: bool):
    """Tick, value and volume columns of a block of lines, read by
    ``np.loadtxt``, or None unless the block holds only ``_PLAIN`` bytes,
    each line is one row of three numbers that ``int``/``float`` accept and
    every row passes the checks.  In price form value = price * volume is
    written over the block's own price column.

    No line may be longer than the csv field size limit, or than the digits
    ``int`` converts (``sys.get_int_max_str_digits``), which numpy's reader
    does not enforce.
    """
    block = "".join(lines)
    digits = getattr(sys, "get_int_max_str_digits", int)() or math.inf  # 0: no limit
    if (not block.isascii() or block.encode().translate(None, _PLAIN)
            or max(map(len, lines)) > min(csv.field_size_limit(), digits)):
        return None
    try:
        with warnings.catch_warnings():
            # A warning ends the read: a block of blank lines warns that it holds
            # no data, and some numpy versions read an integral float ("1.0") as
            # an int64 with a DeprecationWarning, where ``int`` rejects it.
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, delimiter=",", dtype=_PLAIN_ROW, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(rows) != len(lines):  # a blank line
        return None
    ticks, a, volume = rows["tick"], rows["a"], rows["volume"]
    if price_form:
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(a, volume, out=a)
    return (ticks, a, volume) if _valid_rows(a, volume).all() else None


def _row_columns(rows: list[tuple[int, list[str]]], price_form: bool):
    """Tick, value and volume columns of the ``(line, fields)`` rows, skipping
    blank ones, each converted with ``int``/``float`` and checked with
    TradeRecord's checks; or raise FormatError naming the first row that
    fails, and the file line it starts on."""
    records = []
    for line, row in rows:
        if _blank(row):
            continue
        if len(row) != 3:
            raise FormatError(f"expected 3 fields, got {len(row)}", line=line)
        try:
            tick = int(row[0])
            if not -(2**63) <= tick < 2**63:
                raise ValueError(f"tick {tick} is outside the int64 range")
            a, volume = float(row[1]), float(row[2])
            records.append(TradeRecord(tick, a * volume if price_form else a, volume))
        except ValueError as exc:
            raise FormatError(str(exc), line=line) from None
    return _columns(records)


def _csv_rows(lines: Iterable[str], line: int, stop: int, price_form: bool):
    """The ``(line, fields)`` rows that ``csv.reader`` reads from ``lines``,
    each with the file line it starts on (``line`` is the first's), until it
    has read ``stop`` lines, or more while a quoted field runs on; and the
    number of lines it read.  A ``csv.Error`` (a field over the module's size
    limit, say) is a FormatError naming its line, once the rows before it
    pass ``_row_columns``: a bad row before it is the first error."""
    reader, rows, read = csv.reader(lines), [], 0
    try:
        for row in reader:
            rows.append((line + read, row))
            if (read := reader.line_num) >= stop:
                break
    except csv.Error as exc:
        _row_columns(rows, price_form)
        raise FormatError(str(exc), line=line - 1 + reader.line_num) from None
    return rows, read


def parse_csv(text, format: str = "tick-value-volume") -> TradeTape:
    """Parse a tape from CSV text or a file-like object.

    The header row must match the chosen format exactly.  In price form the
    record value is price * volume.  Duplicate ticks are merged as by
    bucket.  Malformed rows raise :class:`FormatError` with their line number.
    One leading U+FEFF (the byte-order mark of Excel's "CSV UTF-8") is
    dropped from the first line, quoted header or not.

    Lines are read ``PARSE_BLOCK_ROWS`` at a time, and each block picks its
    own reader.  A block that holds only plain numbers (``_plain_columns``:
    digits, float characters, commas, spaces, tabs and line ends) is
    converted by numpy's C reader.  Any other block goes through
    ``csv.reader`` (``_csv_rows``), which reads past the block's end only
    while a quoted field runs on.  Its rows, blank ones dropped and fields
    joined by commas, go to numpy's reader again, and a block that it turns
    down is converted, or its first bad row named, by ``_row_columns``: the
    ``int``/``float`` calls and checks of a row-by-row parse.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if isinstance(text, str):
        # UTF-8 bytes (a StringIO holds UCS-4), split into lines as open(newline="") does.
        text = io.TextIOWrapper(io.BytesIO(text.encode(errors="surrogatepass")),
                                encoding="utf-8", errors="surrogatepass", newline="")
    lines = iter(text)
    # Excel's byte-order mark goes before csv.reader reads the line, which
    # unquotes only a field that starts with the quote.
    first_line = [line.removeprefix("\ufeff") for line in itertools.islice(lines, 1)]
    price_form = format == "tick-price-volume"
    header, read = _csv_rows(itertools.chain(first_line, lines), 1, 1, price_form)
    if not header:
        raise FormatError("missing header row", line=1)
    expected = _HEADERS[format]
    if tuple(h.strip() for h in header[0][1]) != expected:
        raise FormatError(f"header must be {','.join(expected)}", line=1)
    blocks = [(np.array([], np.int64), np.array([]), np.array([]))]  # a header-only file
    line = 1 + read  # the physical line of the block's first row
    while block := list(itertools.islice(lines, PARSE_BLOCK_ROWS)):
        cols, read = _plain_columns(block, price_form), len(block)
        if cols is None:
            rows, read = _csv_rows(itertools.chain(block, lines), line, len(block), price_form)
            joined = [",".join(row) for _, row in rows if len(row) == 3]
            # Every other row must be blank: numpy's reader would split a quoted
            # comma.  Blank rows alone add the empty columns.
            if len(joined) == len(rows) or all(len(row) == 3 or _blank(row) for _, row in rows):
                cols = _plain_columns(joined, price_form) if joined else blocks[0]
            cols = _row_columns(rows, price_form) if cols is None else cols
        blocks.append(cols)
        line += read
    return _merged(*map(np.concatenate, zip(*blocks)))


#: Rows that ``write_rows`` turns into text at a time; the writers that
#: build their columns a block at a time (per-center ``acf``, ``compare``)
#: build about as many rows, or windows, at once.
WRITE_BLOCK_ROWS = 1024
#: Rows that ``write_rows`` joins into one string and writes at a time: a
#: quarter of a block is as fast, and holds a quarter of the text.
TEXT_ROWS = 256


def reprs(a: np.ndarray) -> list[str]:
    """The text of each element of the 1-D int, float64 or bool array ``a``:
    its ``repr``, bit for bit, or JSON's ``true``/``false`` for a bool.

    orjson writes ints and bools so.  Its Ryu shortest round-trip digits
    are ``float.__repr__``'s digits, and its text equals ``repr``'s for ±0.0
    and every finite x with 1e-4 <= |x| < 1e16.  The other nonzero elements,
    whose ``repr`` has an exponent (orjson writes ``1e16`` and ``0.00001``
    for ``1e+16`` and ``1e-05``) or which are not finite (orjson writes
    ``null``), take ``repr`` itself; so does an int of 1e16 or more in
    magnitude, whose ``repr`` is orjson's text too, and no bool.
    """
    a = np.ascontiguousarray(a)
    if not len(a):
        return []
    out = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    with np.errstate(invalid="ignore"):
        other = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (a != 0))
    for i, x in zip(other.tolist(), a[other].tolist()):
        out[i] = repr(x)
    return out


def write_rows(blocks: Iterable[Sequence[np.ndarray]],
               *outputs: tuple[TextIO, str, Sequence[int], str]) -> None:
    """Write the rows of blocks of columns to text streams: the one writer of
    every output.

    Each block is a sequence of 1-D arrays of one length, its columns.  Its
    rows are cut ``WRITE_BLOCK_ROWS`` at a time, and each column of a cut
    turned into text once, by :func:`reprs`.  Each output ``(out, row,
    fields, sep)`` writes, for each row, the template ``row`` with its
    ``%s`` fields (its only ``%``) filled in order with the text of the
    columns at ``fields``, and ``sep`` between rows, across cuts and blocks
    too.  So every output of one call shares the text of a column, however
    often it writes it.  ``TEXT_ROWS`` rows at a time, the pieces of the
    template and the text go into one list, in row order, and one
    ``str.join`` of it is written.
    """
    first = True
    for block in blocks:
        for lo in range(0, len(block[0]), WRITE_BLOCK_ROWS):
            text = [reprs(col[lo:lo + WRITE_BLOCK_ROWS]) for col in block]
            for a in range(0, len(text[0]), TEXT_ROWS):
                n = min(TEXT_ROWS, len(text[0]) - a)
                for out, row, fields, sep in outputs:
                    # A row is its first piece (after sep), then each field and the piece after it.
                    pieces, w = row.split("%s"), 2 * len(fields) + 1
                    parts = [sep + pieces[0]] * (n * w)
                    for i, f in enumerate(fields):
                        parts[2 * i + 1::w] = text[f][a:a + n]
                        parts[2 * i + 2::w] = [pieces[i + 1]] * n
                    if first:
                        parts[0] = pieces[0]
                    out.write("".join(parts))
                first = False


def write_csv(tape: TradeTape, out: TextIO) -> None:
    """Write a tape to a text stream as tick,value,volume CSV with shortest
    round-tripping decimals, by :func:`write_rows`."""
    out.write(",".join(_HEADERS["tick-value-volume"]) + "\n")
    write_rows([(tape.ticks, tape.value, tape.volume)], (out, "%s,%s,%s\n", range(3), ""))


def emit_csv(tape: TradeTape) -> str:
    """The CSV that ``write_csv`` writes, as a string."""
    buf = io.StringIO()
    write_csv(tape, buf)
    return buf.getvalue()
