"""Lagged moments, autocorrelations, regimes, scales and n-point moments."""

import dataclasses
import io
import itertools
import json
import math
import random
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from mbstat import (
    AcfPoint,
    DomainError,
    NoDataError,
    TradeRecord,
    TradeTape,
    WindowSpec,
    acf_curve,
    correlation_scale,
    market_price_npoint,
    market_volatility,
    npoint_moment,
    parse_csv,
    plan_windows,
    regime_acf,
)
from mbstat import lagstats, tape as tape_mod
from mbstat.moments import freq_moment
from mbstat.windows import Window, members, window_grid

from oracle import oracle_curve
from test_tape import rows


def dense_tape(n, value=1.0, volume=1.0):
    return TradeTape.from_records(tuple(TradeRecord(t, value, volume) for t in range(n)))


def point_at(tape, spec, center, lag):
    """The per-center curve's point at ``center`` and ``lag``, swept up to that lag."""
    curve = acf_curve(tape, spec, lag)
    (p,) = [p for p in curve.points if (p.center_tick, p.lag_ticks) == (center, lag)]
    return p


def rising_tape(ticks):
    """Records of value t + 1 and volume 1 at the given ticks."""
    return TradeTape.from_records(tuple(TradeRecord(t, float(t + 1), 1.0) for t in ticks))


def test_acf_curve_pair_count_dense():
    # Members 0..4 of the window at tick 2 pair with ticks 2..6.
    p = point_at(rising_tape(range(10)), WindowSpec(5, 1), 2, 2)
    assert p.pair_count == 5
    assert p.lag2_value == pytest.approx(sum((i + 1) * (i + 3) for i in range(5)) / 5, rel=1e-14)
    curve = acf_curve(dense_tape(10), WindowSpec(5, 1), 2)
    counts = {p.center_tick: p.pair_count for p in curve.points if p.lag_ticks == 2}
    assert counts == {c: min(5, 10 - c) for c in range(2, 8)}  # a partner past tick 9 is lost


def test_acf_curve_lag0_pairs_every_member():
    tape = rising_tape(range(10))
    curve = acf_curve(tape, WindowSpec(5, 1), 0)
    windows = plan_windows(tape, WindowSpec(5, 1))
    assert [(p.center_tick, p.pair_count) for p in curve.points] == [
        (w.center_tick, w.count) for w in windows]
    for p, w in zip(curve.points, windows):
        assert p.lag2_value == pytest.approx(freq_moment(members(w, tape), "value", 2), rel=1e-14)


def test_acf_curve_gap_drops_pair():
    # Tick 6 is missing, so member 4 of the window at tick 2 has no partner at lag 2.
    p = point_at(rising_tape([t for t in range(10) if t != 6]), WindowSpec(5, 1), 2, 2)
    assert p.pair_count == 4
    assert p.lag2_value == pytest.approx(sum((i + 1) * (i + 3) for i in range(4)) / 4, rel=1e-14)


def test_acf_curve_lag2_value_examples():
    assert point_at(dense_tape(8, value=2.0), WindowSpec(5, 1), 2, 3).lag2_value == 4.0
    p = point_at(rising_tape(range(5)), WindowSpec(5, 1), 2, 1)
    assert p.lag2_value == (1 * 2 + 2 * 3 + 3 * 4 + 4 * 5) / 4


def test_acf_curve_drops_points_without_pairs():
    # Records at ticks 0 and 4 only: the window at tick 2 is empty, and lags
    # 1 to 3 pair no member with a record.
    tape = TradeTape.from_records((TradeRecord(0, 2.0, 1.0), TradeRecord(4, 3.0, 1.0)))
    curve = acf_curve(tape, WindowSpec(3, 1), 4)
    assert [(p.center_tick, p.lag_ticks, p.pair_count) for p in curve.points] == [
        (1, 0, 1), (1, 4, 1), (3, 0, 1)]
    assert acf_curve(tape, WindowSpec(3, 1), 4, aggregate="mean").columns.lag.tolist() == [0, 4]
    with pytest.raises(NoDataError):
        acf_curve(tape, WindowSpec(3, 1, min_trades=2), 4)


def test_no_valid_window_fails_before_the_sweep(monkeypatch):
    """Without a valid window acf_curve fails as stats does, before it sums
    any lag: a valid window always pairs with itself at lag 0."""
    calls, real = [], lagstats._center_rows
    monkeypatch.setattr(lagstats, "_center_rows", lambda *a: calls.append(1) or real(*a))
    tape = random_tape(random.Random(3), 200, 0.5)
    for aggregate in ("per-center", "mean"):
        with pytest.raises(NoDataError, match="^no valid windows on this tape$"):
            acf_curve(tape, WindowSpec(11, 1, min_trades=12), 20, aggregate=aggregate,
                      threads=2)
    assert calls == []
    acf_curve(tape, WindowSpec(11, 1), 20, aggregate="mean")
    assert calls


def test_acf_curve_lag2_price_examples():
    # constant price 3, varying volumes
    tape = TradeTape.from_records(tuple(TradeRecord(t, 3.0 * (t + 1), t + 1.0) for t in range(6)))
    assert point_at(tape, WindowSpec(5, 1), 2, 1).lag2_price == pytest.approx(9.0, rel=1e-14)
    # At lag 1 the window at tick 1 pairs ticks (0, 1) and (1, 2): values 10, 6, 10.
    tape = TradeTape.from_records((TradeRecord(0, 10, 2), TradeRecord(1, 6, 2),
                                   TradeRecord(2, 10, 2)))
    assert point_at(tape, WindowSpec(3, 1), 1, 1).lag2_price == 15.0


def test_acf_examples():
    tape = TradeTape.from_records((TradeRecord(0, 10, 2), TradeRecord(1, 6, 2),
                                   TradeRecord(2, 10, 2)))
    assert point_at(tape, WindowSpec(3, 1), 1, 1).b_price == pytest.approx(-1.0, rel=1e-14)
    # constant series decorrelates exactly
    for p in acf_curve(dense_tape(10, value=3.0, volume=2.0), WindowSpec(7, 1), 2).points:
        assert p.b_value == pytest.approx(0.0, abs=1e-14)
        assert p.b_volume == pytest.approx(0.0, abs=1e-14)


def test_acf_zero_lag_is_volatility():
    rng = random.Random(7)
    recs = [
        TradeRecord(t, rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)) for t in range(9)
    ]
    tape = TradeTape.from_records(tuple(recs))
    assert point_at(tape, WindowSpec(9, 1), 4, 0).b_price == pytest.approx(
        market_volatility(recs), rel=1e-12
    )


def test_regime_acf_examples():
    assert regime_acf("volume_dominated", 2.0, 4.0, 3.0, 3.0, 1.0, 1.0) == -4.5
    assert regime_acf("volume_dominated", 0.0, 4.0, 3.0, 3.0, 1.0, 1.0) == 0.0
    assert regime_acf("value_dominated", 6.0, 1.0, 0.0, 0.0, 2.0, 3.0) == 1.0
    with pytest.raises(DomainError):
        regime_acf("volume_dominated", 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="^zero denominator in value_dominated regime$"):
        regime_acf("value_dominated", 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="^unknown regime kind 'price_dominated'$"):
        regime_acf("price_dominated", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_regime_identity_value_decorrelated():
    rng = random.Random(1)
    for _ in range(200):
        c1, c1l = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
        u1, u1l = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
        lag2_u = rng.uniform(0.5, 4)
        lag2_c = c1 * c1l  # forces the value autocorrelation to zero
        b_u = lag2_u - u1 * u1l
        direct = lag2_c / lag2_u - (c1 * c1l) / (u1 * u1l)
        closed = regime_acf("volume_dominated", b_u, lag2_u, c1, c1l, u1, u1l)
        assert closed == pytest.approx(direct, rel=1e-12, abs=1e-15)
        if b_u > 0:
            assert closed < 0


def test_regime_identity_volume_decorrelated():
    rng = random.Random(2)
    for _ in range(200):
        c1, c1l = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
        u1, u1l = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
        lag2_c = rng.uniform(0.5, 4)
        lag2_u = u1 * u1l  # forces the volume autocorrelation to zero
        b_c = lag2_c - c1 * c1l
        direct = lag2_c / lag2_u - (c1 * c1l) / (u1 * u1l)
        closed = regime_acf("value_dominated", b_c, lag2_u, c1, c1l, u1, u1l)
        assert closed == pytest.approx(direct, rel=1e-12, abs=1e-15)
        assert (closed > 0) == (b_c > 0) or b_c == 0


def test_correlation_scale_examples():
    assert correlation_scale([0, 2, 4, 6], [1.0, 0.5, 0.1, 0.02], 0.05) == 6
    assert correlation_scale([0, 1, 2], [0.0, 0.0, 0.0], 0.05) == 0
    assert correlation_scale([0, 1, 2], [1.0, 0.9, 0.8], 0.05) is None
    with pytest.raises(ValueError, match="^empty curve$"):
        correlation_scale([], [], 0.05)
    with pytest.raises(ValueError, match="^curve must start at lag 0$"):
        correlation_scale([1, 2], [1.0, 0.5], 0.05)


def test_acf_curve_constant_tape():
    tape = dense_tape(40, value=6.0, volume=2.0)
    curve = acf_curve(tape, WindowSpec(5, 1), 10, aggregate="mean")
    for p in curve.points:
        assert p.b_value == pytest.approx(0.0, abs=1e-12)
        assert p.b_volume == pytest.approx(0.0, abs=1e-12)
        assert p.b_price == pytest.approx(0.0, abs=1e-12)
    assert curve.scale_value == 0
    assert curve.scale_volume == 0
    assert curve.scale_price == 0


def test_acf_curve_lag0_matches_volatility():
    rng = random.Random(5)
    recs = [
        TradeRecord(t, rng.uniform(0.5, 4), rng.uniform(0.5, 4)) for t in range(60)
    ]
    tape = TradeTape.from_records(tuple(recs))
    spec = WindowSpec(11, 2)
    curve = acf_curve(tape, spec, 10, aggregate="per-center")
    vols = {
        w.center_tick: market_volatility(members(w, tape))
        for w in plan_windows(tape, spec)
    }
    lag0 = [p for p in curve.points if p.lag_ticks == 0]
    assert lag0
    for p in lag0:
        assert p.b_price == pytest.approx(vols[p.center_tick], rel=1e-12)


def random_tape(rng, n, gap_prob=0.0):
    recs = [
        TradeRecord(t, rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
        for t in range(n)
        if rng.random() >= gap_prob
    ]
    return TradeTape.from_records(tuple(recs))


@pytest.mark.parametrize("gap_prob", [0.0, 0.15])
def test_acf_curve_matches_oracle(gap_prob):
    rng = random.Random(11)
    tape = random_tape(rng, 400, gap_prob)
    spec = WindowSpec(51, 1)
    curve = acf_curve(tape, spec, 20, aggregate="per-center")
    ref = oracle_curve(rows(tape), 51, 1, 20)
    checked = 0
    for p in curve.points:
        n, b_c, b_u, b_p = ref[(p.center_tick, p.lag_ticks)]
        assert p.pair_count == n
        assert p.b_value == pytest.approx(b_c, rel=1e-10, abs=1e-10)
        assert p.b_volume == pytest.approx(b_u, rel=1e-10, abs=1e-10)
        assert p.b_price == pytest.approx(b_p, rel=1e-10, abs=1e-10)
        checked += 1
    assert checked > 100


@pytest.mark.xfail(strict=True, reason="window sums are differences of longdouble prefix sums "
                   "over the whole tape (README, Known limitation)")
def test_one_large_value_leaves_later_windows_exact():
    # The product 1e24 sits in every later prefix, whose 64-bit mantissa
    # then cannot hold a window's sum of about 10.
    tape = random_tape(random.Random(11), 400)
    value = tape.value.copy()
    value[50] = 1e12
    tape = TradeTape(tape.ticks, value, tape.volume)
    (p,) = [p for p in acf_curve(tape, WindowSpec(11, 1), 0).points if p.center_tick == 300]
    rows = list(zip(tape.ticks.tolist(), value.tolist(), tape.volume.tolist()))
    n, b_c, _, _ = oracle_curve(rows, 11, 1, 0)[(300, 0)]
    assert p.pair_count == n
    assert p.b_value == pytest.approx(b_c, rel=1e-10, abs=1e-10)


def test_acf_curve_joint_rescaling():
    rng = random.Random(3)
    recs = [(t, rng.uniform(0.5, 4), rng.uniform(0.5, 4)) for t in range(80)]
    lam = 3.7
    spec = WindowSpec(11, 1)

    def curve_of(scale_c, scale_u):
        tape = TradeTape.from_records(
            tuple(TradeRecord(t, c * scale_c, u * scale_u) for t, c, u in recs)
        )
        return acf_curve(tape, spec, 8, aggregate="mean")

    base = curve_of(1, 1)
    both = curve_of(lam, lam)
    values_only = curve_of(lam, 1)
    for p0, pb, pv in zip(base.points, both.points, values_only.points):
        assert pb.b_price == pytest.approx(p0.b_price, rel=1e-12, abs=1e-13)
        assert pv.b_price == pytest.approx(p0.b_price * lam * lam, rel=1e-12)


def test_acf_curve_threads_deterministic():
    rng = random.Random(9)
    tape = random_tape(rng, 300)
    spec = WindowSpec(21, 1)
    one = acf_curve(tape, spec, 12, aggregate="mean", threads=1)
    four = acf_curve(tape, spec, 12, aggregate="mean", threads=4)
    assert one == four


def test_acf_curve_rejects_bad_max_lag():
    tape = dense_tape(50)
    with pytest.raises(ValueError):
        acf_curve(tape, WindowSpec(5, 2), 7)


def test_acf_curve_rejects_unknown_aggregate():
    with pytest.raises(ValueError, match="^unknown aggregate mode 'median'$"):
        acf_curve(dense_tape(50), WindowSpec(5, 1), 2, aggregate="median")


def test_acf_curve_lags_past_span_have_no_pairs():
    tape = dense_tape(5, value=2.0)
    spec = WindowSpec(3, 1)
    huge = acf_curve(tape, spec, 10**12)
    assert huge.max_lag_ticks == 10**12
    assert huge.points == acf_curve(tape, spec, 4).points


@pytest.mark.parametrize(
    "threads, cpus, max_lag, helpers",
    [(64, 8, 2, 2), (64, 8, 20, 7), (3, 8, 20, 2), (64, None, 20, 0), (64, 8, 0, 0),
     (0, 8, 20, 0), (-3, 8, 20, 0)],
    ids=["lags", "cpus", "requested", "no-cpu-count", "one-lag", "zero", "negative"],
)
def test_acf_curve_clamps_threads(monkeypatch, threads, cpus, max_lag, helpers):
    """The sweep runs on the clamped thread count: the calling thread and
    ``threads - 1`` helper threads."""
    started = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(1) or real(self))
    monkeypatch.setattr(lagstats.os, "cpu_count", lambda: cpus)
    tape = random_tape(random.Random(5), 60, 0.1)
    curve = acf_curve(tape, WindowSpec(5, 1), max_lag, threads=threads)
    assert len(started) == helpers
    assert curve.points == acf_curve(tape, WindowSpec(5, 1), max_lag).points


def test_npoint_moment_examples():
    rng = random.Random(4)
    recs = [
        TradeRecord(t, rng.uniform(0.5, 3), rng.uniform(0.5, 3)) for t in range(12)
    ]
    tape = TradeTape.from_records(tuple(recs))
    w = Window(3, tuple(range(7)), True)
    assert npoint_moment(w, tape, "value", []) == pytest.approx(
        freq_moment(members(w, tape), "value", 1), rel=1e-14
    )
    assert npoint_moment(w, tape, "value", [2]) == pytest.approx(
        point_at(tape, WindowSpec(7, 1), 3, 2).lag2_value, rel=1e-14
    )
    const = dense_tape(12, value=2.0)
    assert npoint_moment(Window(3, tuple(range(7)), True), const, "value", [1, 3]) == 8.0


def test_market_price_npoint_examples():
    const = dense_tape(12, value=6.0, volume=2.0)  # constant price 3
    w = Window(3, tuple(range(7)), True)
    assert market_price_npoint(w, const, [1, 2]) == pytest.approx(27.0, rel=1e-14)

    recs = (TradeRecord(0, 10, 2), TradeRecord(1, 6, 2), TradeRecord(2, 5, 1))
    tape = TradeTape.from_records(recs)
    w = Window(1, (0, 1, 2), True)
    assert market_price_npoint(w, tape, [1, 2]) == pytest.approx(75.0, rel=1e-14)

    rng = random.Random(8)
    recs = [TradeRecord(t, rng.uniform(1, 2), rng.uniform(1, 2)) for t in range(9)]
    tape = TradeTape.from_records(tuple(recs))
    w = Window(4, tuple(range(9)), True)
    assert market_price_npoint(w, tape, [1]) == pytest.approx(
        point_at(tape, WindowSpec(9, 1), 4, 1).lag2_price, rel=1e-12
    )


def reference_npoint_moment(window, tape, series, lags):
    """The per-record loop that ``npoint_moment`` replaced, kept as a reference."""
    at = {t: TradeRecord(t, c, u) for t, c, u in rows(tape)}
    products = []
    for t in window.member_ticks:
        recs = [at.get(t + tau) for tau in (0, *lags)]
        if any(r is None for r in recs):
            continue
        products.append(math.prod(getattr(r, series) for r in recs))
    if not products:
        raise NoDataError("no member has all lagged partners on the tape")
    return math.fsum(products) / len(products)


def reference_members(window, tape):
    at = {t: TradeRecord(t, c, u) for t, c, u in rows(tape)}
    return [at.get(t) for t in window.member_ticks]


def npoint_outcome(fn, *args):
    """``repr`` of what ``fn`` returns (NaN included), or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


sized = st.one_of(st.floats(min_value=0.01, max_value=100.0),
                  st.sampled_from([1e-200, 1e-160, 1e150, 1e200]))


@st.composite
def npoint_cases(draw):
    """A gappy tape, maybe at either end of int64, and a window planned on its run of
    ticks or built by hand."""
    gaps = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=40))
    offsets = np.cumsum([0, *gaps[1:]]).tolist()
    first = draw(st.sampled_from([0, -17, 2**63 - 1 - offsets[-1], -(2**63)]))
    ticks = [first + o for o in offsets]
    near = st.integers(max(ticks[0] - 4, -(2**63)), min(ticks[-1] + 4, 2**63 - 1))
    ones, spec = [1.0] * len(ticks), WindowSpec(2 * draw(st.integers(0, 6)) + 1, 1)
    windows = plan_windows(TradeTape(ticks, ones, ones), spec)
    if ticks[-1] == 2**63 - 1 and draw(st.booleans()):
        ticks = [-(2**63), -(2**63) + 1, -(2**63) + 2, *ticks]  # where a wrapped sum lands
    value = [draw(st.one_of(sized, st.just(0.0))) for _ in ticks]
    tape = TradeTape(ticks, value, [draw(sized) for _ in ticks])
    if windows and draw(st.booleans()):
        window = draw(st.sampled_from(windows))
    else:
        window = Window(0, tuple(draw(st.lists(near, max_size=12))), True)
    lags = sorted(draw(st.sets(st.integers(1, 12), max_size=lagstats.MAX_NPOINT)))
    return tape, window, lags


@given(npoint_cases())
@settings(max_examples=300, deadline=None)
def test_members_and_npoint_equal_per_record_reference(case):
    tape, window, lags = case
    assert members(window, tape) == reference_members(window, tape)
    for series in ("value", "volume"):
        assert (npoint_outcome(npoint_moment, window, tape, series, lags)
                == npoint_outcome(reference_npoint_moment, window, tape, series, lags))
    assert (npoint_outcome(market_price_npoint, window, tape, lags)
            == npoint_outcome(lambda: reference_npoint_moment(window, tape, "value", lags)
                              / reference_npoint_moment(window, tape, "volume", lags)))


def test_npoint_moment_multiplies_as_python_floats_in_offset_order():
    def one_member(values, lags):
        tape = TradeTape(range(len(values)), values, [1.0] * len(values))
        return npoint_moment(Window(0, (0,), True), tape, "value", lags)

    # (0.1 * 0.2) * 0.3 is 0.006000000000000001; 0.1 * (0.2 * 0.3) and (0.3 * 0.2) * 0.1 are 0.006.
    assert one_member([0.1, 0.2, 0.3], [1, 2]) == (0.1 * 0.2) * 0.3 != 0.006
    # 1e200 * 1e200 overflows to inf, and inf * 0.0 is NaN, as with Python floats.
    assert one_member([1e200, 1e200], [1]) == math.inf
    assert math.isnan(one_member([1e200, 1e200, 0.0], [1, 2]))


def test_npoint_moment_at_the_int64_top():
    # t + tau past 2**63 - 1 has no partner; the sum must not wrap to a tape tick.
    top = 2**63 - 1
    tape = TradeTape([top - 2, top - 1, top], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    w = Window(top - 1, (top - 2, top - 1, top), True)
    assert npoint_moment(w, tape, "value", [1]) == 4.0
    assert npoint_moment(w, tape, "value", [2]) == 3.0
    with pytest.raises(NoDataError):
        npoint_moment(w, tape, "value", [3])
    wrapping = TradeTape([-(2**63), top], [5.0, 7.0], [1.0, 1.0])
    with pytest.raises(NoDataError):
        npoint_moment(Window(0, (top,), True), wrapping, "value", [1])


def test_npoint_validation():
    tape = dense_tape(12)
    w = Window(3, tuple(range(7)), True)
    with pytest.raises(ValueError):
        npoint_moment(w, tape, "value", [3, 1])
    with pytest.raises(ValueError):
        npoint_moment(w, tape, "value", [1, 2, 3, 4, 5])
    with pytest.raises(NoDataError):
        npoint_moment(w, tape, "value", [100])
    with pytest.raises(ValueError, match=r"^unknown series 'price'; expected one of "
                                         r"\('value', 'volume'\)$"):
        npoint_moment(w, tape, "price", [1])
    with pytest.raises(ValueError, match=r"^unknown series 'tick'; expected one of "
                                         r"\('value', 'volume', 'price'\)$"):
        freq_moment(members(w, tape), "tick", 1)


def test_curve_rejects_non_finite_values(monkeypatch):
    """acf_curve names the field, lag and center of the first non-finite
    per-center value, in (center, lag, field) order, before it returns, for any
    thread count and wherever the value lands in the blocks of centers; mean
    mode names the first one of the mean curve.  Each tape is 300 dense ticks
    of ones with a few large values, swept with N=11 and step 5."""
    cases = [
        # An earlier (center, lag) row wins: 1e154 * 1e155 overflows at lag 5 in
        # window 90..100 before 1e155 ** 2 overflows at lag 0 in window 95..105.
        # Within that row b_value, b_price, lag2_value and lag2_price are all inf.
        ({100: 1e154, 105: 1e155}, {}, 1.0, 20, "b_value is inf at lag 5 of center tick 95",
         "b_value is nan at lag 0"),
        # With volumes of 1e-10, lag2_price overflows at lag 0 in window 90..100:
        # the earlier lag wins over lag 5, whose b_value is inf, and so does the
        # earlier center over window 95..105's b_value at lag 0.
        ({100: 1e154, 105: 1e155}, {}, 1e-10, 20, "b_price is inf at lag 0 of center tick 95",
         "b_value is nan at lag 0"),
        # 1e155 ** 2 overflows lag2_volume and then b_volume: the first field wins.
        ({}, {105: 1e155}, 1.0, 5, "b_volume is inf at lag 0 of center tick 100",
         "b_volume is nan at lag 0"),
    ]
    spec = WindowSpec(11, 5)
    for values, volumes, base_volume, max_lag, message, mean_message in cases:
        value, volume = np.ones(300), np.full(300, base_volume)
        value[list(values)], volume[list(volumes)] = list(values.values()), list(volumes.values())
        tape = TradeTape(np.arange(300), value, volume)
        with pytest.raises(ValueError, match=f"^{mean_message} of the mean curve$"):
            acf_curve(tape, spec, max_lag, aggregate="mean")
        for block, threads in itertools.product([None, 1, 2, 3], [1, 2]):
            with monkeypatch.context() as patched:
                if block is not None:  # then centers 95 and 100 are in a later block
                    patched.setattr(lagstats, "_block_centers", lambda *_: block)
                with pytest.raises(ValueError, match=f"^{message}$"):
                    acf_curve(tape, spec, max_lag, threads=threads)


def test_finite_curve_computes_no_center_block_before_it_returns(monkeypatch):
    """The non-finite check reads the per-center rows only when the mean curve is
    not finite: a finite per-center curve returns after the mean sweep alone."""
    calls = []
    real = lagstats._center_rows
    monkeypatch.setattr(lagstats, "_center_rows", lambda *args: calls.append(1) or real(*args))
    tape, spec = golden_tape(), WindowSpec(101, 25)
    counts = {}
    for aggregate in ("mean", "per-center"):
        calls.clear()
        curve = acf_curve(tape, spec, 50, aggregate=aggregate)
        counts[aggregate] = len(calls)
    # The golden tape is dense: one call at lag 0, then one for the windows that
    # end by span - lag and one for the later ones at each of lags 25 and 50.
    assert counts == {"mean": 5, "per-center": 5}
    curve.write(io.StringIO())
    assert len(calls) > 5


def test_rows_of_windows_without_pairs_are_finite(monkeypatch):
    """A window with no pairs divides its zero sums by 1, not 0, so its rows
    are finite (x87 arithmetic on NaN is very slow); its pair count of 0 keeps
    them out of the curve.  One tape has a gap wider than the window, the
    other is dense and swept past the window width, so that windows near its
    end have no partners."""
    seen = []
    real = lagstats._center_rows

    def spy(*args):
        real(*args)
        seen.append(args[2].reshape(7, -1).copy())

    monkeypatch.setattr(lagstats, "_center_rows", spy)
    for tape, max_lag in ((rising_tape([*range(10), *range(30, 40)]), 4), (dense_tape(40), 20)):
        for aggregate in ("mean", "per-center"):
            seen.clear()
            acf_curve(tape, WindowSpec(5, 1), max_lag, aggregate=aggregate).columns
            rows = np.concatenate(seen, axis=1)
            empty = rows[6] == 0
            assert empty.any()
            assert np.isfinite(rows[:, empty]).all()


@pytest.mark.parametrize("ticks, sums", [(range(60), 4), ([*range(30), *range(31, 61)], 7)],
                         ids=["dense", "gappy"])
def test_center_block_sums_four_products_on_a_dense_tape(monkeypatch, ticks, sums):
    """A per-center block on a dense tape takes its windows' pair counts and
    one-sided means from the lag-0 sums, as the mean sweep does, and sums
    only the four lagged products; on a gappy tape it sums all seven."""
    curve = acf_curve(rising_tape(ticks), WindowSpec(5, 1), 8)
    calls = []
    real = lagstats._window_sum
    monkeypatch.setattr(lagstats, "_window_sum", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(lagstats, "_block_centers", lambda *_: 10)
    per_block = []
    for _ in curve.blocks():
        per_block.append(len(calls))
        calls.clear()
    assert per_block == [sums] * 6


@pytest.mark.parametrize("aggregate", ["mean", "per-center"])
def test_window_sums_take_only_views_of_one_series_block(monkeypatch, aggregate):
    """On a gappy tape every factor of every window sum is a view of one
    (presence, value, volume) block: no pair mask or other product is built."""
    roots = []

    def root(a):
        while a.base is not None:  # a strided view's base is a wrapper with a .base
            a = a.base
        return a

    real = lagstats._window_sum

    def spy(x, y, *args):
        roots.extend((root(x), root(y)))
        real(x, y, *args)

    monkeypatch.setattr(lagstats, "_window_sum", spy)
    acf_curve(rising_tape([*range(30), *range(31, 61)]), WindowSpec(5, 1), 8,
              aggregate=aggregate).columns
    assert len(roots) == 2 * 7 * (9 if aggregate == "mean" else 10)
    assert roots[0].shape == (3, 61 + 8)
    assert all(r is roots[0] for r in roots)


@pytest.mark.parametrize("threads", [1, 2])
def test_first_non_finite_value_is_named_for_any_thread_count(threads):
    # 1e154 * 1e155 overflows at lag 5 in window 90..100 (swept by the second
    # thread), before 1e155 ** 2 overflows at lag 0 in window 95..105.
    value, volume = np.ones(300), np.ones(300)
    value[100], value[105] = 1e154, 1e155
    tape = TradeTape(np.arange(300), value, volume)
    with pytest.raises(ValueError, match="^b_value is inf at lag 5 of center tick 95$"):
        acf_curve(tape, WindowSpec(11, 5), 20, threads=threads)


def test_mean_of_large_finite_rows_is_finite():
    """Rows of 9e306 have a finite pair-weighted mean, although their products
    with the pair counts overflow, and both modes detect the same scales on it."""
    tape = TradeTape(np.arange(400), np.full(400, 3e153), np.ones(400))
    spec = WindowSpec(101, 1)
    mean = acf_curve(tape, spec, 5, aggregate="mean")
    per_center = acf_curve(tape, spec, 5)
    assert np.isfinite(mean.columns.stats).all() and np.isfinite(per_center.columns.stats).all()
    assert mean.columns.stats[3].tolist() == pytest.approx([9e306] * 6, rel=1e-12)
    scales = [(c.scale_value, c.scale_volume, c.scale_price) for c in (mean, per_center)]
    assert scales[0] == scales[1]


def test_curve_serialization():
    tape = dense_tape(30, value=2.0)
    curve = acf_curve(tape, WindowSpec(5, 1), 4, aggregate="mean")
    d = curve.to_dict()
    assert d["aggregate"] == "mean"
    assert len(d["points"]) == 5
    csv_text = curve.to_csv()
    assert csv_text.splitlines()[0] == "lag,b_value,b_volume,b_price,pair_count"
    per_center = acf_curve(tape, WindowSpec(5, 1), 4, aggregate="per-center")
    assert per_center.to_csv().splitlines()[0].startswith("center_tick,")


def golden_tape():
    return parse_csv((Path(__file__).parent / "data" / "golden_tape.csv").read_text())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "make_tape, spec, max_lag",
    [
        (golden_tape, WindowSpec(101, 1), 50),
        (lambda: random_tape(random.Random(13), 400, 0.15), WindowSpec(31, 1), 20),
        (lambda: random_tape(random.Random(17), 400, 0.15), WindowSpec(31, 2, 27), 20),
    ],
    ids=["golden", "gaps", "min-trades"],
)
def test_per_center_mean_points_equal_mean_mode(make_tape, spec, max_lag, threads):
    """Mean mode is, bit for bit, the pair-weighted mean of the per-center rows of each lag."""
    tape = make_tape()
    mean = acf_curve(tape, spec, max_lag, aggregate="mean", threads=threads)
    per_center = acf_curve(tape, spec, max_lag, aggregate="per-center", threads=threads)
    m, c = mean.columns, per_center.columns
    if spec.min_trades > 1:
        windows = plan_windows(tape, spec)
        assert 0 < len(set(c.center.tolist())) == sum(w.valid for w in windows) < len(windows)
    lags = np.unique(c.lag)
    assert m.lag.tolist() == lags.tolist()
    for i, tau in enumerate(lags):
        rows = c.lag == tau  # in center order
        w = c.pair_count[rows]
        assert w.sum() == m.pair_count[i]
        for k, x in enumerate(c.stats[:, rows]):
            assert (x * w).sum() / w.sum() == m.stats[k, i]
    assert (per_center.scale_value, per_center.scale_volume, per_center.scale_price) == (
        mean.scale_value, mean.scale_volume, mean.scale_price)


def rowwise_csv(curve):
    """The CSV as ``AcfCurve.to_csv`` built it row by row from the points."""
    per_center = curve.aggregate == "per-center"
    header = "lag,b_value,b_volume,b_price,pair_count"
    if per_center:
        header = "center_tick," + header
    lines = [header]
    for p in curve.points:
        row = f"{p.lag_ticks},{p.b_value!r},{p.b_volume!r},{p.b_price!r},{p.pair_count}"
        if per_center:
            row = f"{p.center_tick}," + row
        lines.append(row)
    return "\n".join(lines) + "\n"


#: Floats whose repr has an exponent, is subnormal or is a negative zero.
ODD_FLOATS = (1e16, 5e-324, -0.0, 1e-05, 1.5e300, 0.1)
SCALE = st.none() | st.integers(0, 30)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ticks=st.integers(20, 160),
    gap_prob=st.sampled_from([0.0, 0.1, 0.3]),
    half_width=st.integers(1, 6),
    step=st.integers(1, 3),
    n_lags=st.integers(1, 7),
    min_trades=st.integers(1, 5),
    aggregate=st.sampled_from(["per-center", "mean"]),
    threshold=st.sampled_from([1e-9, 0.05, 0.5]),
    odd=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 10**6), st.sampled_from(ODD_FLOATS)),
                 max_size=8),
    scales=st.none() | st.tuples(SCALE, SCALE, SCALE),
    block=st.integers(1, 40),
    text_rows=st.integers(1, 40),
    cuts=st.lists(st.integers(0, 10**6), max_size=4),
)
def test_writer_bytes_equal_json_dumps_and_rowwise_csv(
    seed, n_ticks, gap_prob, half_width, step, n_lags, min_trades, aggregate, threshold, odd,
    scales, block, text_rows, cuts,
):
    """Both outputs at once, and each alone, across the cuts of the column
    blocks, of ``write_rows``'s blocks (``block`` rows) and of its text
    (``text_rows`` rows): the JSON's separator between points is right at each."""
    tape = random_tape(random.Random(seed), n_ticks, gap_prob)
    spec = WindowSpec(2 * half_width + 1, step, min_trades)
    try:
        curve = acf_curve(tape, spec, (n_lags - 1) * step, aggregate=aggregate,
                          threshold=threshold)
    except NoDataError:
        reject()
    stats = curve.columns.stats.copy()
    for k, i, x in odd:
        stats[k, i % stats.shape[1]] = x
    # The rows, split into column blocks at the cuts.
    cols = curve.columns._replace(stats=stats)
    bounds = [0, *sorted(c % (len(cols.lag) + 1) for c in cuts), len(cols.lag)]
    parts = [lagstats.Columns(*(None if x is None else x[..., a:b] for x in cols))
             for a, b in zip(bounds, bounds[1:])]
    changes = {"blocks": lambda: iter(parts)}
    if scales is not None:
        changes.update(zip(("scale_value", "scale_volume", "scale_price"), scales))
    curve = dataclasses.replace(curve, **changes)
    json_out, csv_out, json_alone, csv_alone = (io.StringIO() for _ in range(4))
    with mock.patch.object(tape_mod, "WRITE_BLOCK_ROWS", block), \
            mock.patch.object(tape_mod, "TEXT_ROWS", text_rows):
        curve.write(json_out, csv_out)
        curve.write(json_alone)
        curve.write(csv_out=csv_alone)
    want_json = json.dumps(curve.to_dict(), indent=2, allow_nan=False) + "\n"
    assert json_out.getvalue() == json_alone.getvalue() == want_json
    assert csv_out.getvalue() == csv_alone.getvalue() == rowwise_csv(curve) == curve.to_csv()


@pytest.mark.parametrize("aggregate, step, golden", [("per-center", 25, "golden_acf_centers.json"),
                                                     ("mean", 1, "golden_acf.json")])
def test_points_are_a_lazy_cached_view(aggregate, step, golden):
    curve = acf_curve(golden_tape(), WindowSpec(101, step), 50, aggregate=aggregate)
    curve.write(io.StringIO(), io.StringIO())
    assert "points" not in vars(curve)
    points = curve.points
    assert curve.points is points
    want = json.loads((Path(__file__).parent / "data" / golden).read_text())["points"]
    assert points == tuple(AcfPoint(**d) for d in want)
    for p in points:
        assert type(p.lag_ticks) is type(p.pair_count) is int
        assert all(type(getattr(p, key)) is float for key in lagstats.STATS)
        assert type(p.center_tick) is (int if aggregate == "per-center" else type(None))


def reference_columns(tape, spec, max_lag, aggregate):
    """The lag sweep as first written: gathered window sums, seven cumulative sums
    per lag, every center's rows held, then one weighted-mean loop over the lags.

    Returns the curve's ``lag``, ``center``, ``pair_count`` and ``stats`` columns.
    """
    first = tape.first_tick
    span = tape.last_tick - first + 1
    centers, rec_lo, rec_hi = window_grid(tape, spec)
    centers = centers[rec_hi - rec_lo >= spec.min_trades]
    lags = range(0, min(max_lag, span - 1) + 1, spec.lag_step_ticks)
    c_arr, u_arr, present = np.zeros((3, span + lags[-1]))
    idx = tape.ticks - first
    c_arr[idx], u_arr[idx], present[idx] = tape.value, tape.volume, 1.0
    c0, u0, p0 = c_arr[:span], u_arr[:span], present[:span]
    lo = centers - spec.half_width - first
    hi = lo + spec.n_ticks
    sweep = np.empty((len(lags), 7, len(centers)))
    ps = np.zeros((7, span + 1), dtype=np.longdouble)
    with np.errstate(all="ignore"):
        for j, tau in enumerate(lags):
            cl, ul = c_arr[tau : tau + span], u_arr[tau : tau + span]
            m = p0 * present[tau : tau + span]
            np.cumsum(m, dtype=np.longdouble, out=ps[0, 1:])
            for row, a, b in zip(ps[1:], (c0, u0, c0, cl, u0, ul), (cl, ul, m, m, m, m)):
                np.cumsum(a * b, dtype=np.longdouble, out=row[1:])
            d = ps[:, hi] - ps[:, lo]
            n, lag2_c, lag2_u, c1, c1l, u1, u1l = d
            d[1:] /= n
            c_means, u_means = c1 * c1l, u1 * u1l
            lag2_p = lag2_c / lag2_u
            sweep[j] = (lag2_c - c_means, lag2_u - u_means, lag2_p - c_means / u_means,
                        lag2_c, lag2_u, lag2_p, n)
    mean_lags, mean_rows = [], []
    for tau, cols in zip(lags, sweep):
        ok = cols[-1] >= 1
        if np.any(ok):
            w = cols[-1, ok]
            wtot = w.sum()
            mean_lags.append(tau)
            mean_rows.append([*((x[ok] * w).sum() / wtot for x in cols[:-1]), wtot])
    if aggregate == "mean":
        block = np.array(mean_rows).T
        return np.array(mean_lags), None, block[-1].astype(np.int64), block[:-1]
    grid = sweep.transpose(1, 2, 0)
    ci, li = np.nonzero(grid[-1] >= 1)
    block = grid[:, ci, li]
    return np.array(lags)[li], centers[ci], block[-1].astype(np.int64), block[:-1]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ticks=st.integers(12, 160),
    gap_prob=st.sampled_from([0.0, 0.15, 0.7]),
    half_width=st.integers(0, 8),
    step=st.integers(1, 6),
    n_lags=st.integers(1, 40),
    min_trades=st.integers(1, 5),
    aggregate=st.sampled_from(["per-center", "mean"]),
    threads=st.sampled_from([1, 2]),
    neg_zeros=st.integers(0, 12),
    block=st.sampled_from([None, 1, 2, 3, 7]),
)
def test_sweep_equals_reference_kernel(seed, n_ticks, gap_prob, half_width, step, n_lags,
                                       min_trades, aggregate, threads, neg_zeros, block):
    """The strided, dense-prefix, reduce-per-lag sweep is exactly the reference sweep.

    A head of -0.0 values checks that no sign of zero differs where a dense
    prefix is held flat instead of summed, or where a per-center block of
    ``block`` centers (None: the default size) starts from a carried prefix.
    """
    tape = random_tape(random.Random(seed), n_ticks, gap_prob)
    value = np.where(np.arange(len(tape)) < neg_zeros, -0.0, tape.value)
    tape = TradeTape(tape.ticks, value, tape.volume)
    spec = WindowSpec(2 * half_width + 1, max(1, min(step, 2 * half_width + 1)), min_trades)
    max_lag = (n_lags - 1) * spec.lag_step_ticks
    try:
        curve = acf_curve(tape, spec, max_lag, aggregate=aggregate, threads=threads)
    except NoDataError:
        reject()
    if block is not None:
        with mock.patch.object(lagstats, "_block_centers", lambda *_: block):
            blocks = list(curve.blocks())
        n_centers = len(window_grid(tape, spec)[0])
        assert len(blocks) == (1 if aggregate == "mean" else -(-n_centers // block))
        curve = dataclasses.replace(curve, blocks=lambda: iter(blocks))
    lag, center, pair_count, stats = reference_columns(tape, spec, max_lag, aggregate)
    got = curve.columns
    assert got.lag.tolist() == lag.tolist()
    assert got.pair_count.tolist() == pair_count.tolist()
    assert (got.center is None) == (center is None)
    if center is not None:
        assert got.center.tolist() == center.tolist()
    assert got.stats.shape == stats.shape
    assert got.stats.tobytes() == stats.tobytes()


def test_mean_mode_memory_is_bounded_by_span_not_lags_times_centers():
    """Mean mode holds O(span) per thread plus O(lags); a (lags, 7, centers) block is ~51 MB."""
    tape = random_tape(random.Random(21), 5000)
    tracemalloc.start()
    try:
        acf_curve(tape, WindowSpec(501, 1), 200, aggregate="mean", threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_mean_sweep_thread_holds_one_prefix_row(monkeypatch):
    """A thread of the mean sweep over a dense tape holds one longdouble prefix
    row over the span, and 4 longdouble window-sum rows and 7 float64 rows
    over the centers: the traced peak with 2 threads less the one with 1 is
    within 10% of those buffers.  With a 7-row prefix block and 7 window-sum
    rows per thread, the difference was 5.6 MB here, against 2.5 MB."""
    monkeypatch.setattr(lagstats.os, "cpu_count", lambda: 2)
    n = 20_000
    rng = np.random.default_rng(7)
    tape = TradeTape(np.arange(n), rng.uniform(0.1, 5, n), rng.uniform(0.1, 5, n))
    spec = WindowSpec(2001, 1)
    peaks = []
    for threads in (1, 2):
        tracemalloc.start()
        try:
            acf_curve(tape, spec, 40, aggregate="mean", threads=threads)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    n_centers = len(window_grid(tape, spec)[0])
    wide = np.dtype(np.longdouble).itemsize
    buffers = (n + 1) * wide + 4 * n_centers * wide + 7 * n_centers * 8
    assert peaks[1] - peaks[0] <= 1.1 * buffers


@pytest.mark.parametrize("ticks, calls", [(range(60), 4 * 9), ([*range(30), *range(31, 61)], 7 * 9)],
                         ids=["dense", "gappy"])
def test_mean_sweep_workers_accumulate_one_row_out_of_place(monkeypatch, ticks, calls):
    """Every prefix sum that a mean sweeper takes, on the calling thread or a
    helper, is a 1-D accumulate into another array of the same dtype: numpy
    holds the GIL for an accumulate in place or over more than one dimension,
    and the sweepers would take turns.  The dense tape's set-up cumsum, outside
    ``_window_sum``, is 2-D."""
    monkeypatch.setattr(lagstats.os, "cpu_count", lambda: 2)
    seen, summing = [], threading.local()
    real_cumsum, real_sum = np.cumsum, lagstats._window_sum

    def window_sum(*args):
        summing.on = True
        try:
            real_sum(*args)
        finally:
            summing.on = False

    def spy(a, *args, out=None, **kwargs):
        if getattr(summing, "on", False):
            seen.append((a.ndim, out.ndim, a.dtype == out.dtype, np.shares_memory(a, out)))
        return real_cumsum(a, *args, out=out, **kwargs)

    monkeypatch.setattr(lagstats, "_window_sum", window_sum)
    monkeypatch.setattr(np, "cumsum", spy)
    acf_curve(rising_tape(ticks), WindowSpec(5, 1), 8, aggregate="mean", threads=2)
    assert seen == [(1, 1, True, False)] * calls


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_failing_sweep_worker_stops_the_other(monkeypatch, raiser, error):
    """When one mean sweeper raises, on the helper thread or on the calling
    thread, the error reaches the caller, and the other sweeper stops before
    its next lag instead of sweeping its share.  A gappy tape takes one
    ``_center_rows`` call per lag; the raiser raises at its first, and the
    other holds its first lag open until then."""
    monkeypatch.setattr(lagstats.os, "cpu_count", lambda: 2)
    caller = threading.current_thread()
    real = lagstats._center_rows
    lock, raised = threading.Lock(), threading.Event()
    lags = {"caller": 0, "helper": 0}

    def spy(*args):
        role = "caller" if threading.current_thread() is caller else "helper"
        with lock:
            lags[role] += 1
            first = lags[role] == 1
        if role == raiser:
            raised.set()
            raise error("sweeper failed")
        if first:
            raised.wait(timeout=5)
        real(*args)

    monkeypatch.setattr(lagstats, "_center_rows", spy)
    tape = random_tape(random.Random(3), 3000, 0.1)
    with pytest.raises(error, match="^sweeper failed$"):
        acf_curve(tape, WindowSpec(101, 1), 99, aggregate="mean", threads=2)
    other = "helper" if raiser == "caller" else "caller"
    # Each share is 50 lags; the other sweeper finishes the lag it is in.
    assert lags[raiser] == 1 and lags[other] <= 1


def test_sweep_runs_on_at_most_threads_os_threads(monkeypatch):
    """Two sweep threads are the calling thread and one helper: no idle thread
    waits on a pool."""
    monkeypatch.setattr(lagstats.os, "cpu_count", lambda: 2)
    before = threading.active_count()
    counts = []
    real = lagstats._center_rows
    monkeypatch.setattr(lagstats, "_center_rows",
                        lambda *args: counts.append(threading.active_count()) or real(*args))
    tape = random_tape(random.Random(3), 400, 0.1)
    acf_curve(tape, WindowSpec(11, 1), 20, aggregate="mean", threads=2)
    assert len(counts) == 21 and max(counts) <= before + 1


@pytest.mark.parametrize("aggregate", ["mean", "per-center"])
@pytest.mark.parametrize("ticks", [range(300), [*range(100), *range(103, 200), *range(207, 300)]],
                         ids=["dense", "gappy"])
def test_uneven_shares_give_the_same_bytes(monkeypatch, ticks, aggregate):
    """Three and four sweep threads over 23 lags (shares of 8, 8, 7 and of 6,
    6, 6, 5) give the bytes of one thread, with the interpreter switching
    threads every microsecond: a lost or misplaced row of the mean would show."""
    monkeypatch.setattr(lagstats.os, "cpu_count", lambda: 4)
    rng = random.Random(8)
    ticks = np.array(ticks)
    tape = TradeTape(ticks, np.array([rng.uniform(0.1, 5) for _ in ticks]),
                     np.array([rng.uniform(0.1, 5) for _ in ticks]))
    spec, max_lag = WindowSpec(31, 1), 22
    one = acf_curve(tape, spec, max_lag, aggregate=aggregate, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        curves = [acf_curve(tape, spec, max_lag, aggregate=aggregate, threads=threads)
                  for threads in (3, 4)]
    finally:
        sys.setswitchinterval(interval)
    for curve in curves:
        assert curve == one
        assert [c.tobytes() for c in curve.columns if c is not None] == [
            c.tobytes() for c in one.columns if c is not None]


class Discard(io.TextIOBase):
    """A text stream that keeps nothing."""

    def write(self, text):
        return len(text)


def test_per_center_memory_is_bounded_by_blocks_not_lags_times_centers():
    """Per-center mode holds O(span) per sweep thread, then one block of centers
    and one block of text at a time.  Holding all 29,500 rows (the sweep block,
    its gather and the columns), then writing 4,096 rows at a time, peaked at 8.2 MB."""
    tape = random_tape(random.Random(21), 600)
    tracemalloc.start()
    try:
        acf_curve(tape, WindowSpec(11, 1), 49, threads=2).write(Discard(), Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("threshold", [math.nan, 0.0, 1.0, -0.5, 1.5])
def test_threshold_is_checked_before_the_tape(threshold):
    short = dense_tape(3)  # shorter than the window: NoDataError once the grid is planned
    with pytest.raises(ValueError, match="^threshold must be in"):
        acf_curve(short, WindowSpec(5, 1), 0, threshold=threshold)
    with pytest.raises(ValueError, match="^threshold must be in"):
        correlation_scale([0, 1], [1.0, 0.0], threshold)
