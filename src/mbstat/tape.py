"""Trade tape: tick/value/volume columns, grid bucketing and CSV round-trip.

A tape is a time-ordered sequence of aggregated trades on a uniform time
grid, stored as columns: the integer tick, traded value (currency) and
volume (asset units) of each record.  The trade price is always the derived
ratio value/volume and is never stored.  The engine works in ticks: every
statistic and every output field is in ticks.

``parse_csv`` reads blocks of plain numeric lines with numpy's C reader,
and folds the rows it has read into one record per tick as it goes.
Every other block is walked row by row as ``csv.reader`` reads it, which
reads past the block only while a quoted field runs on.  Each path gives
the tape, or the error line, that a row-by-row ``int``/``float`` parse
gives.

``write_rows`` is the one writer of every command's output: it turns
blocks of columns into text with ``reprs``, a run of about ``WRITE_CELLS``
cells at a time, and fills one row template per output stream.
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


#: Rows that ``parse_csv`` converts at a time: a block that fails a check
#: is walked row by row, which names the line of its first bad row.
#: ``parse_csv`` holds the records of the rows it has folded and the rows
#: of at most 16 blocks, or of as many rows as those records, besides.
PARSE_BLOCK_ROWS = 1024


def _columns(records: list[TradeRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tick, value and volume columns of the records, in their order."""
    return (np.array([r.tick for r in records], dtype=np.int64),
            np.array([r.value for r in records], dtype=np.float64),
            np.array([r.volume for r in records], dtype=np.float64))


def _sums(ticks, value, volume) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of one record per distinct tick, in tick order, unchecked.

    The values (and volumes) of a tick are summed in input order starting
    from 0.0, so a lone -0.0 comes back as 0.0, and no sum is -0.0.  Summing
    again a tick's sum of its earlier rows followed by its later rows then
    gives the bits of summing all its rows, as 0.0 + sum == sum.
    """
    unique, index = np.unique(ticks, return_inverse=True)
    return unique, *(np.bincount(index, weights=col, minlength=len(unique))
                     for col in (value, volume))


def _merged(ticks, value, volume) -> TradeTape:
    """Tape of ``_sums``' records; an overflowing sum is rejected by the
    tape, naming its tick."""
    return TradeTape._owning(*_sums(ticks, value, volume))


def bucket(raw: Iterable[TradeRecord]) -> TradeTape:
    """Merge records sharing a tick by summing values and volumes.

    Total value and total volume are conserved; the result has one record
    per tick, sorted.  A merged sum that overflows is rejected by the tape,
    naming its tick.
    """
    return _merged(*_columns(list(raw)))


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
    each line is empty or one row of three numbers that ``int``/``float``
    accept, and every row passes the checks.  numpy's reader skips an empty
    line (a bare LF, CRLF or CR), as ``csv.reader``'s blank-row rule does,
    and turns down a line of spaces or tabs.  In price form value = price *
    volume is written over the block's own price column.

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
            # A warning ends the read, bar the one that a block of empty lines
            # holds no data: some numpy versions read an integral float ("1.0")
            # as an int64 with a DeprecationWarning, where ``int`` rejects it.
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(lines, delimiter=",", dtype=_PLAIN_ROW, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    ticks, a, volume = rows["tick"], rows["a"], rows["volume"]
    if price_form:
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(a, volume, out=a)
    return (ticks, a, volume) if _valid_rows(a, volume).all() else None


def _csv_columns(lines: Iterable[str], line: int, stop: int, price_form: bool):
    """Tick, value and volume columns of the rows that ``csv.reader`` reads
    from ``lines``, whose first is file line ``line``, until it has read
    ``stop`` lines, or more while a quoted field runs on; and the number of
    lines it read.  Blank rows are skipped, and each other row is
    converted with ``int``/``float`` and checked with TradeRecord's checks
    as it is read: the first row that fails, or a ``csv.Error`` (a field
    over the module's size limit, say), is a FormatError naming the file
    line it starts on."""
    reader, records, read = csv.reader(lines), [], 0
    try:
        for row in reader:
            at, read = line + read, reader.line_num  # the file line the row starts on
            if row and (len(row) > 1 or row[0].strip()):  # not a blank line
                if len(row) != 3:
                    raise FormatError(f"expected 3 fields, got {len(row)}", line=at)
                try:
                    tick = int(row[0])
                    if not -(2**63) <= tick < 2**63:
                        raise ValueError(f"tick {tick} is outside the int64 range")
                    a, volume = float(row[1]), float(row[2])
                    records.append(TradeRecord(tick, a * volume if price_form else a, volume))
                except ValueError as exc:
                    raise FormatError(str(exc), line=at) from None
            if read >= stop:
                break
    except csv.Error as exc:
        raise FormatError(str(exc), line=line - 1 + reader.line_num) from None
    return _columns(records), read


def parse_csv(text, format: str = "tick-value-volume") -> TradeTape:
    """Parse a tape from CSV text or a file-like object.

    The header row must match the chosen format exactly.  In price form the
    record value is price * volume.  Duplicate ticks are merged as by
    bucket.  Malformed rows raise :class:`FormatError` with their line number.
    One leading U+FEFF (the byte-order mark of Excel's "CSV UTF-8") is
    dropped from the first line, quoted header or not.

    Lines are read ``PARSE_BLOCK_ROWS`` at a time, and each block takes one
    of two readers.  numpy's C reader (``_plain_columns``) keeps a block
    that holds only plain numbers (digits, float characters, commas,
    spaces, tabs and line ends) and empty lines, which it skips as
    ``csv.reader`` does.  Every other block, one with a quote, an
    underscore, a bad row or a line of spaces, say, goes through one
    ``csv.reader`` walk (``_csv_columns``): the ``int``/``float`` calls and
    checks of a row-by-row parse, which name the first bad row's line.  It
    reads past the block's end only while a quoted field runs on.  The
    header has its own ``csv.reader``, whose ``line_num`` gives the first
    block's line.

    The converted rows are folded into one record per tick, as they are
    read, whenever those not yet folded reach 16 blocks and the number of
    records held: the records held go first into ``_sums``' merge, so the
    fold gives the bits of one merge of every row, and memory grows with
    the records, not with the rows.  A fold runs no check, so a bad row
    later in the file is the error, before an overflowing sum; the last
    merge checks the records as ``bucket`` does.
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
    reader = csv.reader(itertools.chain(first_line, lines))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise FormatError(str(exc), line=reader.line_num) from None
    if header is None:
        raise FormatError("missing header row", line=1)
    expected = _HEADERS[format]
    if tuple(h.strip() for h in header) != expected:
        raise FormatError(f"header must be {','.join(expected)}", line=1)
    # The records of the rows folded so far, then the blocks read since.
    blocks, unfolded = [_columns([])], 0
    line = 1 + reader.line_num  # the physical line of the block's first row
    while block := list(itertools.islice(lines, PARSE_BLOCK_ROWS)):
        cols, read = _plain_columns(block, price_form), len(block)
        if cols is None:
            cols, read = _csv_columns(itertools.chain(block, lines), line, len(block), price_form)
        blocks.append(cols)
        unfolded += len(cols[0])
        line += read
        if unfolded >= max(len(blocks[0][0]), 16 * PARSE_BLOCK_ROWS):
            # Unchecked: a bad row later in the file is the error, not an overflow.
            blocks, unfolded = [_sums(*_joined(blocks))], 0
    return _merged(*_joined(blocks))


def _joined(blocks: list) -> list[np.ndarray]:
    """The columns of the blocks, each joined into one; ``blocks`` is
    emptied, so the merge that takes them holds each row once."""
    cols = [np.concatenate(col) for col in zip(*blocks)]
    blocks.clear()
    return cols


#: The most rows that ``write_rows`` turns into text at a time; the writers
#: that build their columns a block at a time (per-center ``acf``,
#: ``compare``) build about as many rows, or windows, at once.
WRITE_BLOCK_ROWS = 1024
#: Cells (rows times columns) that ``write_rows`` turns into text at a time,
#: whatever a block's column count: 1,024 rows of up to 9 columns (every
#: ``acf`` and ``synth`` output), fewer of more (``stats`` JSONL has 20
#: columns at ``--max-order 4``, 460 rows, and 36 at 8, 256 rows).
WRITE_CELLS = 9 * 1024
#: Rows that ``write_rows`` joins into one string and writes at a time, and
#: the fewest it turns into text at a time: a quarter of 1,024 rows is as
#: fast as all of them, and holds a quarter of the joined text.
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
    rows are cut into runs of ``WRITE_CELLS`` cells, of at least
    ``TEXT_ROWS`` and at most ``WRITE_BLOCK_ROWS`` rows, and each column of
    a run is turned into text once, by :func:`reprs`: the text held is
    about ``WRITE_CELLS`` cells, whatever the block's length, and
    ``TEXT_ROWS`` rows past 36 columns.  Each output ``(out, row, fields,
    sep)`` writes, for each row, the template ``row`` with its ``%s``
    fields (its only ``%``) filled in order with the text of the columns at
    ``fields``, and ``sep`` between rows, across runs and blocks too.  So
    every output of one call shares the text of a column, however often it
    writes it.  ``TEXT_ROWS`` rows at a time, the pieces of the template and
    the text go into one list, in row order, and one ``str.join`` of it is
    written.
    """
    first = True
    for block in blocks:
        run = min(WRITE_BLOCK_ROWS, max(TEXT_ROWS, WRITE_CELLS // len(block)))
        for lo in range(0, len(block[0]), run):
            # A call: no text of this run is left once the next run's is made.
            _write_run([reprs(col[lo:lo + run]) for col in block], outputs, first)
            first = False


def _write_run(text: list[list[str]], outputs, first: bool) -> None:
    """Write the rows of one run, the text of each of its columns, to the
    outputs of :func:`write_rows`; ``first``: its first row is the first of
    the call, with no ``sep`` before it."""
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
