"""Tape ingestion, bucketing and CSV round-trip."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mbstat import FormatError, TradeRecord, TradeTape, bucket, emit_csv, parse_csv, quantize_tick


def test_parse_value_volume():
    t = parse_csv("tick,value,volume\n0,10,2\n1,6,2\n")
    assert len(t) == 2
    assert [r.price for r in t.records] == [5.0, 3.0]


def test_parse_price_volume_converts_to_value():
    t = parse_csv("tick,price,volume\n0,5,2\n", format="tick-price-volume")
    assert t.records[0].value == 10.0
    assert t.records[0].volume == 2.0


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


def test_parse_rejects_malformed_row():
    with pytest.raises(FormatError, match="line 2"):
        parse_csv("tick,value,volume\n0,abc,1\n")


def test_parse_merges_duplicate_ticks():
    t = parse_csv("tick,value,volume\n5,1,1\n5,3,1\n")
    assert len(t) == 1
    assert t.records[0].value == 4.0
    assert t.records[0].volume == 2.0


def test_bucket_merges_shared_ticks():
    raw = [TradeRecord(5, 1, 1), TradeRecord(5, 3, 1)]
    t = bucket(raw, 1.0)
    (r,) = t.records
    assert (r.value, r.volume, r.price) == (4.0, 2.0, 2.0)


def test_bucket_identity_on_unique_ticks():
    raw = [TradeRecord(0, 1, 1), TradeRecord(2, 3, 2)]
    t = bucket(raw, 1.0)
    assert [(r.tick, r.value, r.volume) for r in t.records] == [(0, 1, 1), (2, 3, 2)]


def test_bucket_three_trades_same_tick():
    raw = [TradeRecord(0, 2, 1), TradeRecord(0, 2, 1), TradeRecord(0, 2, 2)]
    t = bucket(raw, 1.0)
    (r,) = t.records
    assert (r.value, r.volume) == (6.0, 4.0)
    assert r.price == 1.5


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
        TradeTape.from_records(1.0, (TradeRecord(1, 1, 1), TradeRecord(0, 1, 1)))


def test_tape_columns_read_only_and_validated_with_tick():
    t = TradeTape(1.0, [0, 3], [2.0, 4.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        t.value[0] = 5.0
    assert [r.price for r in t.records] == [2.0, 2.0]
    assert t.record_at(3) is t.records[1] and t.record_at(1) is None
    with pytest.raises(ValueError, match="tick 3: volume must be positive"):
        TradeTape(1.0, [0, 3], [2.0, 4.0], [1.0, 0.0])


def test_quantize_round_half_even():
    assert quantize_tick(2.5, 1.0) == 2
    assert quantize_tick(3.5, 1.0) == 4
    assert quantize_tick(1.2, 0.5) == 2


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
    tp = bucket(raw, 1.0)
    assert math.isclose(
        sum(r.value for r in tp.records), math.fsum(c for _, c, _ in triples), rel_tol=1e-12
    )
    assert math.isclose(
        sum(r.volume for r in tp.records), math.fsum(u for _, _, u in triples), rel_tol=1e-12
    )


@given(records_strategy)
@settings(max_examples=100)
def test_bucket_idempotent(triples):
    raw = [TradeRecord(t, c, u) for t, c, u in triples]
    once = bucket(raw, 1.0)
    twice = bucket(once.records, 1.0)
    assert once.records == twice.records


@given(records_strategy)
@settings(max_examples=100)
def test_csv_round_trip(triples):
    tp = bucket([TradeRecord(t, c, u) for t, c, u in triples], 1.0)
    again = parse_csv(emit_csv(tp))
    assert again.records == tp.records
