"""Tape ingestion, bucketing and CSV round-trip."""

import contextlib
import csv
import io
import math
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbstat import (FormatError, NoDataError, SynthParams, TradeRecord, TradeTape, bucket, emit_csv,
                    gen_tape, parse_csv)
from mbstat import tape as tape_mod
from mbstat.tape import reprs


def rows(tape):
    """The tape's (tick, value, volume) rows, read from its columns."""
    return list(zip(tape.ticks.tolist(), tape.value.tolist(), tape.volume.tolist()))


def test_parse_value_volume():
    t = parse_csv("tick,value,volume\n0,10,2\n1,6,2\n")
    assert len(t) == 2
    assert (t.value / t.volume).tolist() == [5.0, 3.0]


def test_parse_price_volume_converts_to_value():
    t = parse_csv("tick,price,volume\n0,5,2\n", format="tick-price-volume")
    assert t.value[0] == 10.0
    assert t.volume[0] == 2.0


def test_parse_rejects_nonpositive_volume_with_line_number():
    with pytest.raises(FormatError, match="line 2"):
        parse_csv("tick,value,volume\n0,10,0\n")


def test_parse_rejects_negative_value():
    with pytest.raises(FormatError, match="line 3"):
        parse_csv("tick,value,volume\n0,10,1\n1,-3,1\n")


def test_parse_price_volume_overflow_reports_line():
    with pytest.raises(FormatError, match="line 3"):
        parse_csv("tick,price,volume\n0,1,1\n1,1e200,1e200\n", format="tick-price-volume")


@pytest.mark.parametrize("tick", [2**63, -(2**63) - 1, 10**20])
def test_parse_rejects_tick_outside_int64_with_line_number(tick):
    with pytest.raises(FormatError, match=f"^line 3: tick {tick} is outside the int64 range$"):
        parse_csv(f"tick,value,volume\n0,1,1\n{tick},1,1\n")


def test_parse_accepts_int64_extreme_ticks():
    t = parse_csv(f"tick,value,volume\n{-(2**63)},1,1\n{2**63 - 1},1,1\n")
    assert t.ticks.tolist() == [-(2**63), 2**63 - 1]


def test_parse_rejects_wrong_header():
    with pytest.raises(FormatError, match="header"):
        parse_csv("time,value,volume\n0,10,1\n")
    with pytest.raises(FormatError, match="^line 1: missing header row$"):
        parse_csv("")
    with pytest.raises(ValueError, match=r"^unknown format 'csv'; expected one of "
                                         r"\('tick-value-volume', 'tick-price-volume'\)$"):
        parse_csv("tick,value,volume\n0,10,1\n", format="csv")


@pytest.mark.parametrize("format, header", [("tick-value-volume", '"tick","value","volume"'),
                                            ("tick-price-volume", '"tick","price","volume"')])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_byte_order_mark_before_a_quoted_header_is_dropped(format, header, newline):
    """Excel's byte-order mark comes before the header's first quote, which
    ``csv.reader`` unquotes only when it starts the field."""
    body = newline.join([header, '0,"2",1', "3,4,2", ""])
    assert rows(parse_csv("\ufeff" + body, format)) == rows(parse_csv(body, format))
    # Error lines are those of the file without the mark.
    bad = body + "5,x,1" + newline
    with pytest.raises(FormatError, match="^line 4: could not convert string to float: 'x'$"):
        parse_csv("\ufeff" + bad, format)
    # Only one mark, and only at the start of the file, is dropped.
    with pytest.raises(FormatError, match="^line 1: header must be tick,"):
        parse_csv("\ufeff\ufeff" + body, format)
    with pytest.raises(FormatError, match="^line 2: "):
        parse_csv(header + newline + "\ufeff0,1,1" + newline, format)


def test_parse_rejects_malformed_row():
    with pytest.raises(FormatError, match="line 2"):
        parse_csv("tick,value,volume\n0,abc,1\n")


def test_parse_merges_duplicate_ticks():
    t = parse_csv("tick,value,volume\n5,1,1\n5,3,1\n")
    assert len(t) == 1
    assert t.value[0] == 4.0
    assert t.volume[0] == 2.0


def test_bucket_merges_shared_ticks():
    raw = [TradeRecord(5, 1, 1), TradeRecord(5, 3, 1)]
    t = bucket(raw)
    assert rows(t) == [(5, 4.0, 2.0)]
    assert t.value[0] / t.volume[0] == 2.0


def test_bucket_identity_on_unique_ticks():
    raw = [TradeRecord(0, 1, 1), TradeRecord(2, 3, 2)]
    t = bucket(raw)
    assert rows(t) == [(0, 1, 1), (2, 3, 2)]


def test_bucket_three_trades_same_tick():
    raw = [TradeRecord(0, 2, 1), TradeRecord(0, 2, 1), TradeRecord(0, 2, 2)]
    t = bucket(raw)
    assert rows(t) == [(0, 6.0, 4.0)]
    assert t.value[0] / t.volume[0] == 1.5


def test_price_of():
    assert TradeRecord(0, 10, 2).price == 5.0
    assert TradeRecord(0, 0, 3).price == 0.0
    assert TradeRecord(0, 6, 3).price == 2.0


def test_record_invariants():
    with pytest.raises(ValueError):
        TradeRecord(0, 1, 0)
    with pytest.raises(ValueError):
        TradeRecord(0, -1, 1)
    TradeRecord(0, 0, 1)  # zero value is allowed


def test_tape_requires_increasing_ticks():
    with pytest.raises(ValueError):
        TradeTape.from_records((TradeRecord(1, 1, 1), TradeRecord(0, 1, 1)))


def test_tape_columns_read_only_and_validated_with_tick():
    t = TradeTape([0, 3], [2.0, 4.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        t.value[0] = 5.0
    assert (t.value / t.volume).tolist() == [2.0, 2.0]
    with pytest.raises(ValueError, match="tick 3: volume must be positive"):
        TradeTape([0, 3], [2.0, 4.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="^ticks, value and volume must be 1-D columns "
                                         "of one length$"):
        TradeTape([0, 3], [2.0], [1.0, 2.0])
    with pytest.raises(NoDataError, match="^tape is empty$"):
        TradeTape([], [], []).last_tick


def test_tape_leaves_the_callers_arrays_writeable():
    ticks, value, volume = np.array([0, 3]), np.array([2.0, 4.0]), np.array([1.0, 2.0])
    t = TradeTape(ticks, value, volume)
    assert all(col.flags.writeable for col in (ticks, value, volume))
    value[0] = 5.0
    assert t.value.tolist() == [2.0, 4.0] and not t.value.flags.writeable


records_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@given(records_strategy)
@settings(max_examples=100)
def test_bucket_conserves_totals(triples):
    raw = [TradeRecord(t, c, u) for t, c, u in triples]
    tp = bucket(raw)
    assert math.isclose(
        sum(tp.value.tolist()), math.fsum(c for _, c, _ in triples), rel_tol=1e-12
    )
    assert math.isclose(
        sum(tp.volume.tolist()), math.fsum(u for _, _, u in triples), rel_tol=1e-12
    )


@given(records_strategy)
@settings(max_examples=100)
def test_bucket_idempotent(triples):
    raw = [TradeRecord(t, c, u) for t, c, u in triples]
    once = bucket(raw)
    twice = bucket(TradeRecord(*row) for row in rows(once))
    assert rows(once) == rows(twice)


@given(records_strategy)
@settings(max_examples=100)
def test_csv_round_trip(triples):
    tp = bucket([TradeRecord(t, c, u) for t, c, u in triples])
    again = parse_csv(emit_csv(tp))
    assert rows(again) == rows(tp)


# --------------------------------------------------------------------------
# The block-parsed, array-merged path against the row-by-row one it replaced.


def reference_bucket(raw):
    """Dict merge of records sharing a tick, kept as a reference."""
    sums = {}
    for r in raw:
        acc = sums.setdefault(r.tick, [0.0, 0.0])
        acc[0] += r.value
        acc[1] += r.volume
    ticks = sorted(sums)
    return TradeTape(ticks, [sums[t][0] for t in ticks], [sums[t][1] for t in ticks])


def reference_parse_csv(text, format="tick-value-volume"):
    """Row-by-row parse into TradeRecords, then the dict merge, kept as a
    reference.  Lines split as open(newline="") splits them, and a row's line
    is the physical line it starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError("missing header row", line=1)
        expected = tape_mod._HEADERS[format]
        if tuple(h.strip() for h in header) != expected:
            raise FormatError(f"header must be {','.join(expected)}", line=1)
        raw = []
        lineno = reader.line_num + 1
        for row in reader:
            if row and not (len(row) == 1 and not row[0].strip()):
                if len(row) != 3:
                    raise FormatError(f"expected 3 fields, got {len(row)}", line=lineno)
                try:
                    tick = int(row[0])
                    if not -(2**63) <= tick < 2**63:
                        raise ValueError(f"tick {tick} is outside the int64 range")
                    a = float(row[1])
                    volume = float(row[2])
                    value = a * volume if format == "tick-price-volume" else a
                    raw.append(TradeRecord(tick, value, volume))
                except ValueError as exc:
                    raise FormatError(str(exc), line=lineno) from None
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise FormatError(str(exc), line=reader.line_num) from None
    return reference_bucket(raw)


def outcome(fn, *args, **kwargs):
    """Column bytes of the tape ``fn`` returns, or the type and message of what it raises."""
    try:
        tp = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    return tp.ticks.tobytes(), tp.value.tobytes(), tp.volume.tobytes()


magnitudes = st.one_of(
    st.floats(min_value=1e-200, max_value=1e200),
    st.floats(min_value=0.01, max_value=100.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, 1.7976931348623157e308]),
)
#: Spellings that ``int``/``float`` accept or reject, beside ``repr`` of a float.
odd_tokens = st.sampled_from(
    ["-0", "-0.0", "1_0", " 7 ", "+3", "inf", "nan", "-1", "abc", "", "1e999"])


@st.composite
def raw_rows(draw):
    """CSV rows in input order: duplicate and crowded ticks, gaps, odd fields and shapes."""
    ticks = draw(st.lists(st.integers(min_value=-3, max_value=40), max_size=40))
    crowd_tick = draw(st.integers(min_value=-3, max_value=40))
    ticks += [crowd_tick] * draw(st.integers(min_value=0, max_value=14))
    ticks = draw(st.permutations(ticks))
    rows = []
    for t in ticks:
        fields = [str(t), repr(draw(magnitudes)), repr(abs(draw(magnitudes)))]
        if draw(st.integers(min_value=0, max_value=39)) == 0:
            fields[draw(st.integers(min_value=0, max_value=2))] = draw(odd_tokens)
        shape = draw(st.integers(min_value=0, max_value=79))
        if shape == 0:
            fields = fields[:2]
        elif shape == 1:
            fields = fields + ["1"]
        elif shape == 2:
            fields = [" "] if draw(st.booleans()) else []
        rows.append(",".join(fields))
    return rows


@given(raw_rows(), st.sampled_from(tape_mod.FORMATS), st.sampled_from([1, 2, 5, 1024]))
@settings(max_examples=300, deadline=None)
def test_parse_equals_row_by_row_reference(rows, fmt, block_rows):
    header = ",".join(tape_mod._HEADERS[fmt])
    text = "\n".join([header, *rows]) + "\n"
    with patch.object(tape_mod, "PARSE_BLOCK_ROWS", block_rows):
        got = outcome(parse_csv, text, format=fmt)
    assert got == outcome(reference_parse_csv, text, format=fmt)


#: The characters of a field that numpy's reader converts (``tape._PLAIN``
#: less the comma and the line ends).
PLAIN_CHARS = tape_mod._PLAIN.decode().translate(str.maketrans("", "", ",\r\n"))
plain_tokens = st.one_of(
    st.text(alphabet=PLAIN_CHARS, max_size=8),
    st.from_regex(r"\A[+-]?[0-9]{0,21}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,4})?\Z"),
    st.integers(min_value=-(2**64), max_value=2**64).map(str),
    magnitudes.map(repr),
    # int rejects a tick of more than 4300 digits; numpy's reader reads it.
    st.sampled_from(["1e999", "-1e999", "1e-400", "+5", "-0", "00017", "1.", ".5", "e5",
                     "0" * 4301 + "7", "0" * 300 + "1.5"]),
)
EOLS = ["\n", "\r\n", "\r"]


def plain_rows(draw):
    """Rows of plain fields: mostly valid, some with a token that ``int`` or
    ``float`` rejects or that fails a check, some with 2 or 4 fields."""
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        fields = [str(draw(st.integers(min_value=-3, max_value=40))), repr(draw(magnitudes)),
                  repr(draw(st.floats(min_value=1e-3, max_value=1e3)))]
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            fields[draw(st.integers(min_value=0, max_value=2))] = draw(plain_tokens)
        if draw(st.integers(min_value=0, max_value=19)) == 0:
            fields = fields[:2] if draw(st.booleans()) else [*fields, "1"]
        rows.append(",".join(fields))
    return rows


@st.composite
def plain_text(draw, header):
    """A tape of plain rows with LF line ends, the last one optional."""
    return "\n".join([header, *plain_rows(draw)]) + draw(st.sampled_from(["\n", ""]))


#: Lines just outside the plain bytes, for a tick t: quotes, a quoted LF,
#: quoted padding and CRLF, a quoted comma in a 2-field row, a quoted
#: 3-field row, NUL, \x1c, "_", non-ASCII digits, blank and whitespace-only
#: lines, a leading space, a 2-field row then a 4-field row, a field over the
#: csv field size limit and a line over it whose fields are under it.
OUTSIDE = [
    lambda t: [f'"{t}",1.5,2'], lambda t: [f'{t},"2.5\n",1'], lambda t: [f'{t},1.5,"\t2\r\n"'],
    lambda t: [f'{t},"1,5"'], lambda t: [f'"{t},1,1"'], lambda t: [f"{t},1\x00,2"],
    lambda t: [f"{t},\x1c1,2"], lambda t: [f"{t},1_0,2"], lambda t: [f"{t},١.٥,2"],
    lambda t: ["١٢,1,1"], lambda t: [""], lambda t: ["  "], lambda t: ["\t"],
    lambda t: [f" {t},1,1"], lambda t: [f"{t},1", f"{t},1,1,1"],
    lambda t: [f"{t},{'1' * 131_073},1"], lambda t: [f"{t},{'0' * 70_000}1.5,{'0' * 70_000}2"],
]


@st.composite
def near_plain_text(draw, header):
    """Plain rows with lines just outside the plain bytes among them, and LF,
    CRLF or bare CR line ends, mostly one kind to a file."""
    rows = plain_rows(draw)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        rows[at:at] = draw(st.sampled_from(OUTSIDE))(draw(st.integers(min_value=0, max_value=40)))
    eol = draw(st.sampled_from(EOLS))
    return "".join(line + (eol if draw(st.integers(min_value=0, max_value=9)) else
                           draw(st.sampled_from(EOLS))) for line in [header, *rows])


@given(st.sampled_from(tape_mod.FORMATS).flatmap(lambda fmt: st.tuples(st.just(fmt), st.one_of(
    plain_text(",".join(tape_mod._HEADERS[fmt])),
    near_plain_text(",".join(tape_mod._HEADERS[fmt]))))), st.sampled_from([1, 3, 1024]))
@settings(max_examples=400, deadline=None)
def test_plain_and_csv_blocks_parse_as_the_row_by_row_reference(case, block_rows):
    """numpy's reader takes the blocks of plain lines, and csv.reader the
    first other block and all after it: the tape, or the FormatError and
    its line, is the row-by-row parse's."""
    fmt, text = case
    with patch.object(tape_mod, "PARSE_BLOCK_ROWS", block_rows):
        got = outcome(parse_csv, text, format=fmt)
    assert got == outcome(reference_parse_csv, text, format=fmt)


padding = st.text(alphabet=" \t", max_size=3)


@given(st.lists(st.tuples(padding, plain_tokens.filter(lambda f: len(f) <= 40), padding).map(
    "".join), min_size=3, max_size=3), st.sampled_from([*EOLS, ""]))
@settings(max_examples=1000, deadline=None)
def test_numpy_reader_agrees_with_int_and_float_over_the_plain_bytes(fields, eol):
    """Whatever ``np.loadtxt`` reads from a line of three short plain fields,
    spaces and tabs around them, and an LF, CRLF, CR or no line end, ``int``
    and ``float`` read too, to the same value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            row = np.loadtxt([",".join(fields) + eol], delimiter=",",
                             dtype=tape_mod._PLAIN_ROW, comments=None, ndmin=1)
        except (ValueError, Warning):
            return
    tick, a, volume = row.tolist()[0]
    assert (tick, a.hex(), volume.hex()) == (int(fields[0]), float(fields[1]).hex(),
                                             float(fields[2]).hex())


def test_plain_blocks_skip_the_csv_reader_and_other_blocks_take_it_from_their_line():
    lines = [f"{i},{1 + i % 7}.5,{1 + i % 3}" for i in range(3000)]
    plain = "\n".join(["tick,value,volume", *lines]) + "\n"
    calls = []
    real = tape_mod._csv_rows

    def spy(lines, line, stop, price_form):
        if line > 1:  # past the header, which csv.reader reads too
            calls.append(line)
        return real(lines, line, stop, price_form)

    with patch.object(tape_mod, "_csv_rows", spy):
        want = rows(parse_csv(plain))
        assert calls == []
        lines[2500] = '"2500",' + lines[2500].split(",", 1)[1]  # line 2502, in the third block
        assert rows(parse_csv("\n".join(["tick,value,volume", *lines]) + "\n")) == want
        assert calls == [2 + 2 * tape_mod.PARSE_BLOCK_ROWS]


@contextlib.contextmanager
def csv_reader_lines():
    """The list of every line that ``csv.reader`` reads while the context runs."""
    read, real = [], csv.reader

    def reader(lines):
        return real(read.append(line) or line for line in lines)

    with patch.object(csv, "reader", reader):
        yield read


def test_a_quoted_first_line_sends_only_its_block_through_the_csv_reader():
    lines = [line + "\n" for line in ["tick,value,volume", *PLAIN_LINES]]
    lines[1] = '"0"' + lines[1][1:]
    raw, real = [], tape_mod._plain_columns

    def plain(block, price_form):
        cols = real(block, price_form)
        if cols is not None and block[0].endswith("\n"):  # raw lines, not joined rows
            raw.extend(block)
        return cols

    with csv_reader_lines() as read, patch.object(tape_mod, "_plain_columns", plain):
        got = outcome(parse_csv, "".join(lines))
    assert got == outcome(reference_parse_csv, "".join(lines))
    block_rows = tape_mod.PARSE_BLOCK_ROWS
    assert read == lines[:1 + block_rows]
    assert raw == lines[1 + block_rows:]


@pytest.mark.parametrize("newline", EOLS, ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("block_rows", [1, 3, 1024])
@pytest.mark.parametrize("bad", [None, "crossing", "later"])
def test_a_quoted_line_break_across_a_block_end_leaves_later_blocks_to_numpy(
        newline, block_rows, bad):
    """The quoted field of the first block's last line ends on the next
    line; csv.reader reads that line too, numpy's raw-line reader each plain
    block after it, and csv.reader again the block of a bad row.  The error
    names the line a bad row starts on, the crossing row's too."""
    b = block_rows
    data = [f"{i},{1 + i % 7}.5,{1 + i % 3}" for i in range(4 * b + 3)]
    data[b - 1] = f'{b - 1},"1.5{newline}",{0 if bad == "crossing" else 2}'  # lines b+1, b+2
    if bad == "later":
        data[3 * b - 1] = f"{3 * b - 1},1.5,0"  # line 3b + 2, the last of its block
    text = newline.join(["tick,value,volume", *data]) + newline
    lines = io.StringIO(text, newline="").readlines()
    with patch.object(tape_mod, "PARSE_BLOCK_ROWS", b), csv_reader_lines() as read:
        got = outcome(parse_csv, text)
    assert got == outcome(reference_parse_csv, text)
    error = "volume must be positive and finite, got 0.0"
    if bad == "later":
        assert got == (FormatError, f"line {3 * b + 2}: {error}")
        assert read == lines[:b + 2] + lines[2 * b + 2:3 * b + 2]
    else:
        assert bad is None or got == (FormatError, f"line {b + 1}: {error}")
        assert read == lines[:b + 2]


#: A 3,000-row plain tape, the line of each row without its line end.
PLAIN_LINES = [f"{i},{1 + i % 7}.5,{1 + i % 3}" for i in range(3000)]


@pytest.mark.parametrize("render, csv_calls, walk_calls", [
    (lambda i, line: line + "\r\n", 0, 0),
    (lambda i, line: line.replace(",", ", ") + "\n", 0, 0),
    (lambda i, line: "\t" + line.replace(",", "\t,\t") + "\t\n", 0, 0),
    (lambda i, line: ('"0"' + line[1:] if i == 0 else line) + "\n", 1, 0),
    (lambda i, line: (line.replace("1000", "1_000", 1) if i == 1000 else line) + "\n", 1, 1),
], ids=["crlf", "comma-space", "tab-padded", "quoted-tick", "underscored-tick"])
def test_each_dialect_takes_its_own_path(render, csv_calls, walk_calls):
    """CRLF files and fields padded with spaces or tabs stay on numpy's raw-line
    reader; csv.reader's unquoted rows go to numpy's reader too, and only a
    block that it turns down, here one holding a "1_000" tick, is walked."""
    want = outcome(parse_csv, "\n".join(["tick,value,volume", *PLAIN_LINES]) + "\n")
    text = "tick,value,volume\n" + "".join(render(i, line) for i, line in enumerate(PLAIN_LINES))
    with patch.object(tape_mod, "_csv_rows", wraps=tape_mod._csv_rows) as csv_rows, \
            patch.object(tape_mod, "_row_columns", wraps=tape_mod._row_columns) as walk:
        assert outcome(parse_csv, text) == want
    blocks = sum(call.args[1] > 1 for call in csv_rows.call_args_list)  # past the header's
    assert (blocks, walk.call_count) == (csv_calls, walk_calls)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=12), magnitudes, magnitudes),
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_bucket_equals_dict_reference(triples):
    raw = [TradeRecord(t, c, abs(u) or 1.0) for t, c, u in triples]
    assert outcome(bucket, raw) == outcome(reference_bucket, raw)


# --------------------------------------------------------------------------
# Parse edge cases


@pytest.mark.parametrize("bad", ["abc,1,1", "3000,1,0", f"{2**63},1,1", "3000,1", "3000,1,1,1"])
def test_bad_row_past_first_block_names_its_line(bad):
    rows = [f"{i},1.5,2" for i in range(5000)]
    rows[2999] = bad  # data row 3000 sits on line 3001, in the third block
    with pytest.raises(FormatError, match="^line 3001: "):
        parse_csv("\n".join(["tick,value,volume", *rows]) + "\n")


def test_negative_zero_values_merge_to_positive_zero():
    t = parse_csv("tick,value,volume\n0,-0.0,1\n1,-0,2\n2,0,1\n2,-0.0,1\n")
    assert t.value.tolist() == [0.0, 0.0, 0.0]
    assert all(math.copysign(1.0, v) == 1.0 for v in t.value.tolist())
    t = parse_csv("tick,price,volume\n0,-0.0,3\n", format="tick-price-volume")
    assert math.copysign(1.0, t.value[0]) == 1.0


def test_fields_parse_as_int_and_float_parse_them():
    t = parse_csv("tick,value,volume\n1_0, 7 ,1_0\n +3,1e2,2.5\n")
    assert t.ticks.tolist() == [int(" +3"), int("1_0")]
    assert t.value.tolist() == [float("1e2"), float(" 7 ")]
    assert t.volume.tolist() == [2.5, float("1_0")]


@pytest.mark.parametrize("field", ["1_0", " 1.5 ", "\t2\t", "١٢", "Infinity", "1e400",
                                   "1.5e-320", "-0", "0x1p3", str(2**63)])
def test_block_conversion_accepts_what_int_and_float_accept(field):
    """A csv.reader row converts its tick with ``int`` and its value and
    volume with ``float``: a field that either rejects, or whose result fails
    a check, is a FormatError, and every other field keeps that call's value
    (the merge sums a tick's values from 0.0, so a -0.0 comes back as 0.0)."""
    def parsed(fn):
        try:
            return fn(field)
        except ValueError:
            return None

    x, tick = parsed(float), parsed(int)
    finite = x is not None and math.isfinite(x)
    in_range = tick is not None and -(2**63) <= tick < 2**63
    cases = [([field, "1", "1"], (tick, 1.0, 1.0) if in_range else None),
             (["0", field, "1"], (0, 0.0 + x, 1.0) if finite and x >= 0 else None),
             (["0", "1", field], (0, 1.0, x) if finite and x > 0 else None)]
    for row, want in cases:
        # The quoted tick sends the row to the csv stage.
        text = 'tick,value,volume\n"{}",{},{}\n'.format(*row)
        try:
            (got,) = rows(parse_csv(text))
        except FormatError:
            got = None
        assert repr(got) == repr(want)


def test_header_only_and_blank_lines():
    for text in ("tick,value,volume\n", "tick,value,volume", "tick,value,volume\n\n  \n"):
        t = parse_csv(text)
        assert len(t) == 0 and t.ticks.dtype == np.int64
    t = parse_csv("tick,value,volume\n\n0,1,1\n   \n\n2,3,1\n\n")
    assert t.ticks.tolist() == [0, 2]
    with pytest.raises(FormatError, match="^line 4: "):
        parse_csv("tick,value,volume\n\n0,1,1\n1,-1,1\n")


@pytest.mark.parametrize("block_rows", [1, 1024])
def test_blank_lines_are_skipped_by_the_block_conversion(block_rows):
    lines = [f"{i},{1 + i % 7}.5,{1 + i % 3}" for i in range(3000)]
    text = "\n".join(["tick,value,volume", *lines]) + "\n"
    blanks = ["", "  ", "\t", '""']
    spaced = "\n".join(["tick,value,volume", *(f"{line}\n{blanks[i % 4]}" if i % 250 == 0 else line
                                                 for i, line in enumerate(lines))]) + "\n\n"

    def walk(*args):
        raise AssertionError("a block with blank lines was walked row by row")

    with patch.object(tape_mod, "PARSE_BLOCK_ROWS", block_rows), \
            patch.object(tape_mod, "_row_columns", walk):
        assert rows(parse_csv(spaced)) == rows(parse_csv(text))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_bad_row_after_a_quoted_line_break_names_its_line(newline):
    # Row 0's value spans lines 2-3, so the bad row sits on line 4.
    with pytest.raises(FormatError, match="^line 4: could not convert string to float: 'x'$"):
        parse_csv(f'tick,value,volume{newline}0,"1{newline}",1{newline}1,x,1{newline}')


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("quoted, bad, line", [
    (10, 500, 504),  # both in the first block: the row-by-row parse counts the breaks
    (10, 1500, 1504),  # the bad row's block starts below the first block's breaks
], ids=["same-block", "later-block"])
def test_quoted_line_breaks_move_later_rows_down(newline, quoted, bad, line):
    rows = [f"{i},1.5,2" for i in range(2000)]
    # Data row i sits on line i + 2; two line breaks in one field move later rows down 2.
    rows[quoted] = f'{quoted},"1.5{newline}{newline}",2'
    rows[bad] = f"{bad},1.5,0"
    with pytest.raises(FormatError, match=f"^line {line}: volume must be positive"):
        parse_csv(newline.join(["tick,value,volume", *rows]) + newline)


def parse_result(text_or_file):
    """The tape's rows, or the type and message of the FormatError raised."""
    try:
        return rows(parse_csv(text_or_file))
    except FormatError as exc:
        return FormatError, str(exc)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("lines, want", [
    (["tick,value,volume", "0,10,2", '1,"6",2', "", "3,1,1"],
     [(0, 10.0, 2.0), (1, 6.0, 2.0), (3, 1.0, 1.0)]),
    (["tick,value,volume", "0,10,2", "", "1,-1,2"],
     (FormatError, "line 4: value must be nonnegative and finite, got -1.0")),
])
def test_parse_text_equals_parse_of_the_file(tmp_path, newline, lines, want):
    text = newline.join(lines) + newline
    path = tmp_path / "tape.csv"
    path.write_bytes(text.encode())
    with open(path, newline="") as fh:
        assert parse_result(fh) == want
    assert parse_result(text) == want


def test_parse_text_holds_no_ucs4_copy():
    # A StringIO of the text held it as UCS-4, four bytes a character: the
    # parse then peaked above 6 times the text's length.
    text = emit_csv(gen_tape(SynthParams("price_volume", 100_000, 5.0, 20.0, seed=1)))
    tracemalloc.start()
    try:
        parse_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


def test_csv_module_error_names_line():
    with pytest.raises(FormatError, match=r"^line 3: field larger than field limit \(131072\)$"):
        parse_csv("tick,value,volume\n0,1,1\n1," + "1" * 200_000 + ",1\n")


@pytest.mark.parametrize("row, n", [("0,1", 2), ("0,1,1,1", 4)])
def test_wrong_field_count_names_line(row, n):
    with pytest.raises(FormatError, match=f"^line 3: expected 3 fields, got {n}$"):
        parse_csv(f"tick,value,volume\n0,1,1\n{row}\n")


def test_overflows_raise_errors_not_runtime_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        not_finite = "value must be nonnegative and finite, got inf$"
        with pytest.raises(FormatError, match="^line 3: " + not_finite):
            parse_csv("tick,price,volume\n0,1,1\n1,1e200,1e200\n", format="tick-price-volume")
        with pytest.raises(ValueError, match="^tick 4: " + not_finite):
            parse_csv("tick,value,volume\n4,1e308,1\n4,1e308,1\n")
        with pytest.raises(FormatError, match="^line 2: volume must be positive"):
            parse_csv("tick,price,volume\n0,inf,0\n", format="tick-price-volume")


# --------------------------------------------------------------------------
# reprs: float.__repr__ of every element, from orjson's shortest digits.


def repr_reference(a):
    return list(map(float.__repr__, np.asarray(a, dtype=np.float64).tolist()))


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=50))
@settings(max_examples=500, deadline=None)
def test_reprs_equal_float_repr(xs):
    a = np.array(xs, dtype=np.float64)
    assert reprs(a) == repr_reference(a)


def test_reprs_equal_float_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20220218)
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
    a = bits.view(np.float64)
    assert reprs(a) == repr_reference(a)
    # Patterns that mostly land inside the band orjson formats by itself.
    b = rng.standard_normal(200_000) * 10.0 ** rng.integers(-6, 19, 200_000)
    assert reprs(b) == repr_reference(b)


def test_reprs_equal_float_repr_at_powers_of_ten_and_band_edges():
    tens = np.array([float(f"1e{k}") for k in range(-6, 18)])
    xs = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    xs = np.concatenate([xs, -xs, [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max,
                                    np.finfo(float).tiny, np.inf, -np.inf, np.nan]])
    assert reprs(xs) == repr_reference(xs)
    assert reprs(np.array([])) == []
    # A strided view formats as its elements.
    assert reprs(xs[::3]) == repr_reference(xs[::3])


@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50))
@settings(max_examples=200, deadline=None)
def test_reprs_of_ints_equal_int_repr(xs):
    edges = [0, -1, 10**16 - 1, 10**16, -(10**16), 2**63 - 1, -(2**63)]
    a = np.array(xs + edges, dtype=np.int64)
    assert reprs(a) == list(map(repr, xs + edges))
    assert reprs(a[::2]) == list(map(repr, (xs + edges)[::2]))


def test_reprs_of_bools_are_json_literals():
    assert reprs(np.array([True, False, False, True])) == ["true", "false", "false", "true"]
    assert reprs(np.array([], dtype=bool)) == []


def test_write_csv_bytes_equal_row_wise_repr_reference():
    value = [1e-05, 9.99e-05, 0.0001, 0.1, 1e15, 1e16, 1.2345e17, 1.7e308, 5e-324, 0.0]
    volume = [2.5e-05, 1e16, 3.0, 1e-300, 7.5e21, 1e-04, 0.5, 1.0, 2e-310, 4e18]
    ticks = list(range(-3, 3 * len(value) - 3, 3))
    t = TradeTape(ticks, value, volume)
    want = "tick,value,volume\n" + "".join(map("%d,%r,%r\n".__mod__, zip(ticks, value, volume)))
    for block_rows, text_rows in ((1, 1), (3, 2), (1024, 3), (1024, 256)):
        with patch.object(tape_mod, "WRITE_BLOCK_ROWS", block_rows), \
                patch.object(tape_mod, "TEXT_ROWS", text_rows):
            assert emit_csv(t) == want
