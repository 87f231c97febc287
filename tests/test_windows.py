"""Window planning and membership resolution."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbstat import (NoDataError, SynthParams, TradeRecord, TradeTape, Window, WindowSpec, gen_tape,
                    members, plan_windows)
from mbstat.windows import valid_grid, window_grid

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def dense_tape(ticks):
    return TradeTape.from_records(tuple(TradeRecord(t, 1.0, 1.0) for t in ticks))


def test_plan_centers_advance_by_lag_step():
    tape = dense_tape(range(10))
    wins = plan_windows(tape, WindowSpec(n_ticks=5, lag_step_ticks=2))
    assert [w.center_tick for w in wins] == [2, 4, 6]
    assert [(w.member_ticks[0], w.member_ticks[-1]) for w in wins] == [(0, 4), (2, 6), (4, 8)]


def test_plan_with_lag_step_equal_width_tiles():
    tape = dense_tape(range(10))
    wins = plan_windows(tape, WindowSpec(n_ticks=5, lag_step_ticks=5))
    assert [w.center_tick for w in wins] == [5]
    assert wins[0].member_ticks == (3, 4, 5, 6, 7)


def test_plan_short_tape_is_empty():
    tape = dense_tape(range(3))
    assert plan_windows(tape, WindowSpec(n_ticks=5, lag_step_ticks=1)) == []


def test_plan_flags_sparse_windows_invalid():
    tape = TradeTape.from_records((TradeRecord(0, 1, 1), TradeRecord(10, 1, 1)))
    wins = plan_windows(tape, WindowSpec(n_ticks=3, lag_step_ticks=3, min_trades=2))
    assert wins
    assert all(not w.valid for w in wins)


def test_members_dense():
    tape = dense_tape(range(10))
    w = Window(2, (0, 1, 2, 3, 4), True)
    assert [r.tick for r in members(w, tape)] == [0, 1, 2, 3, 4]


def test_members_with_gap():
    tape = dense_tape([0, 1, 2, 4, 5, 6])
    wins = plan_windows(tape, WindowSpec(n_ticks=5, lag_step_ticks=2))
    w = next(w for w in wins if w.center_tick == 2)
    assert w.member_ticks == (0, 1, 2, 4)
    assert w.count == 4


def test_members_empty_window():
    tape = dense_tape(range(10))
    assert members(Window(2, (), False), tape) == []


def test_members_builds_records_of_its_window_only():
    tape = gen_tape(SynthParams("price_volume", 100_000, 5.0, 20.0, seed=1))
    w = Window(50_000, tuple(range(49_950, 50_051)), True)
    tracemalloc.start()
    try:
        recs = members(w, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert [(r.tick, r.value, r.volume) for r in recs] == list(zip(
        w.member_ticks, tape.value[49_950:50_051].tolist(), tape.volume[49_950:50_051].tolist()))


def test_members_none_off_the_tape():
    tape = dense_tape([0, 1, 2, 4])
    assert [r and r.tick for r in members(Window(3, (4, 3, 2, 9, -1, 2), True), tape)] == [
        4, None, 2, None, None, 2]
    assert members(Window(0, (0,), True), TradeTape([], [], [])) == [None]


def test_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(n_ticks=4, lag_step_ticks=1)
    with pytest.raises(ValueError):
        WindowSpec(n_ticks=5, lag_step_ticks=6)
    with pytest.raises(ValueError):
        WindowSpec(n_ticks=5, lag_step_ticks=0)
    with pytest.raises(ValueError, match="^min_trades must be >= 1, got 0$"):
        WindowSpec(n_ticks=5, lag_step_ticks=1, min_trades=0)
    spec = WindowSpec(n_ticks=5, lag_step_ticks=2)
    spec.check_max_lag(0)
    spec.check_max_lag(4)
    for bad in (-2, 3):
        with pytest.raises(ValueError, match="nonnegative multiple of the lag step"):
            spec.check_max_lag(bad)


def test_overlap_property_dense():
    tape = dense_tape(range(30))
    spec = WindowSpec(n_ticks=7, lag_step_ticks=3)
    wins = plan_windows(tape, spec)
    for a, b in zip(wins, wins[1:]):
        assert b.center_tick - a.center_tick == spec.lag_step_ticks
        overlap = set(a.member_ticks) & set(b.member_ticks)
        assert len(overlap) == spec.n_ticks - spec.lag_step_ticks


def test_every_member_inside_span():
    tape = dense_tape([0, 2, 3, 5, 8, 9, 11, 14])
    spec = WindowSpec(n_ticks=5, lag_step_ticks=2)
    for w in plan_windows(tape, spec):
        h = spec.half_width
        assert all(w.center_tick - h <= t <= w.center_tick + h for t in w.member_ticks)


@st.composite
def grid_cases(draw):
    """(ticks, N, step, min_trades): a gappy tape of up to 61 ticks, at 0 or
    at either int64 bound, with N up to 71 or beyond int64; or a tape from
    the int64 minimum to its maximum, with N so wide that at most 22 ticks
    can be centers, and steps up to N (past 2**63)."""
    if draw(st.booleans()):
        base = draw(st.sampled_from([INT64_MIN, -30, 0, INT64_MAX - 60]))
        ticks = sorted(base + t for t in draw(st.sets(st.integers(0, 60), min_size=1)))
        n = draw(st.integers(0, 35).map(lambda h: 2 * h + 1) | st.just(10**23 + 1))
    else:
        ticks = sorted({INT64_MIN, INT64_MAX, *draw(st.sets(st.integers(-30, 30)))})
        n = 2**64 - 1 - 2 * draw(st.integers(0, 10))
    return ticks, n, draw(st.integers(1, n)), draw(st.integers(1, 4))


@given(grid_cases())
@settings(max_examples=300, deadline=None)
def test_grid_equals_brute_force(case):
    """The centers are every lag-step multiple in [first + h, last - h], each
    with the rows of its window; valid_grid names the first cause of having
    no valid window, in the order: span, lag step, min_trades."""
    ticks, n, step, min_trades = case
    tape = TradeTape(ticks, [1.0] * len(ticks), [1.0] * len(ticks))
    spec = WindowSpec(n, step, min_trades)
    h = spec.half_width
    want = [c for c in range(ticks[0] + h, ticks[-1] - h + 1) if c % step == 0]
    lo = [sum(t < c - h for t in ticks) for c in want]
    hi = [sum(t <= c + h for t in ticks) for c in want]
    centers, got_lo, got_hi = window_grid(tape, spec)
    assert centers.dtype == np.int64
    assert (centers.tolist(), got_lo.tolist(), got_hi.tolist()) == (want, lo, hi)
    valid = [b - a >= min_trades for a, b in zip(lo, hi)]
    if ticks[-1] - ticks[0] + 1 < n:
        cause = "tape span shorter than the averaging window"
    elif not want:
        cause = f"no window fits at a multiple of the lag step ({step})"
    elif not any(valid):
        cause = "no valid windows on this tape"
    else:
        grid = valid_grid(tape, spec)
        assert [x.tolist() for x in grid] == [want, lo, hi, valid]
        return
    with pytest.raises(NoDataError, match=f"^{re.escape(cause)}$"):
        valid_grid(tape, spec)
