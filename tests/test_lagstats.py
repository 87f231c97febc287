"""Lagged moments, autocorrelations, regimes, scales and n-point moments."""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from mbstat import (
    DomainError,
    NoDataError,
    TradeRecord,
    TradeTape,
    WindowSpec,
    acf,
    acf_curve,
    correlation_scale,
    lag_moment2,
    lag_pairs,
    market_price_lag_moment,
    market_price_npoint,
    market_volatility,
    npoint_moment,
    parse_csv,
    plan_windows,
    regime_acf,
)
from mbstat import lagstats
from mbstat.lagstats import LagPairSet
from mbstat.moments import freq_moment
from mbstat.windows import Window, members

from oracle import oracle_curve


def dense_tape(n, value=1.0, volume=1.0):
    return TradeTape.from_records(1.0, tuple(TradeRecord(t, value, volume) for t in range(n)))


def pairset(pairs, lag=1):
    return LagPairSet(0, lag, tuple(pairs))


def test_lag_pairs_dense():
    tape = dense_tape(10)
    w = Window(2, tuple(range(5)), True)
    ps = lag_pairs(w, tape, 2)
    assert ps.pair_count == 5
    assert [(a.tick, b.tick) for a, b in ps.pairs] == [(i, i + 2) for i in range(5)]


def test_lag_pairs_zero_lag_identity():
    tape = dense_tape(10)
    w = Window(2, tuple(range(5)), True)
    ps = lag_pairs(w, tape, 0)
    assert ps.pair_count == w.count
    assert all(a is b for a, b in ps.pairs)


def test_lag_pairs_gap_drops_member():
    ticks = [t for t in range(10) if t != 6]
    tape = TradeTape.from_records(1.0, tuple(TradeRecord(t, 1, 1) for t in ticks))
    w = Window(2, tuple(range(5)), True)
    ps = lag_pairs(w, tape, 2)
    assert ps.pair_count == 4
    assert all(b.tick != 6 for _, b in ps.pairs)


def test_lag_moment2_examples():
    tape = dense_tape(8, value=2.0)
    w = Window(2, tuple(range(5)), True)
    assert lag_moment2(lag_pairs(w, tape, 3), "value") == 4.0

    recs = [TradeRecord(t, float(t + 1), 1.0) for t in range(5)]
    tape2 = TradeTape.from_records(1.0, tuple(recs))
    ps = pairset([(recs[i], recs[i + 1]) for i in range(4)])
    assert lag_moment2(ps, "value") == (1 * 2 + 2 * 3 + 3 * 4 + 4 * 5) / 4

    ps0 = lag_pairs(Window(2, tuple(range(5)), True), tape2, 0)
    assert lag_moment2(ps0, "value") == freq_moment(recs, "value", 2)


def test_lag_moment2_no_pairs():
    with pytest.raises(NoDataError):
        lag_moment2(pairset([]), "value")


def test_market_price_lag_moment_examples():
    # constant price, varying volumes
    recs = [TradeRecord(t, 3.0 * (t + 1), float(t + 1)) for t in range(6)]
    tape = TradeTape.from_records(1.0, tuple(recs))
    ps = lag_pairs(Window(2, tuple(range(5)), True), tape, 1)
    assert market_price_lag_moment(ps) == pytest.approx(9.0, rel=1e-14)

    a, b = TradeRecord(0, 10, 2), TradeRecord(1, 6, 2)
    ps = pairset([(a, b), (b, a)])
    assert market_price_lag_moment(ps) == 15.0


def test_acf_examples():
    a, b = TradeRecord(0, 10, 2), TradeRecord(1, 6, 2)
    ps = pairset([(a, b), (b, a)])
    assert acf(ps, "price") == pytest.approx(-1.0, rel=1e-14)
    # constant series decorrelates exactly
    tape = dense_tape(10, value=3.0, volume=2.0)
    psc = lag_pairs(Window(3, tuple(range(7)), True), tape, 2)
    assert acf(psc, "value") == pytest.approx(0.0, abs=1e-14)
    assert acf(psc, "volume") == pytest.approx(0.0, abs=1e-14)


def test_acf_zero_lag_is_volatility():
    rng = random.Random(7)
    recs = [
        TradeRecord(t, rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)) for t in range(9)
    ]
    tape = TradeTape.from_records(1.0, tuple(recs))
    w = Window(4, tuple(range(9)), True)
    ps = lag_pairs(w, tape, 0)
    assert acf(ps, "price") == pytest.approx(
        market_volatility(members(w, tape)), rel=1e-12
    )


def test_regime_acf_examples():
    assert regime_acf("volume_dominated", 2.0, 4.0, 3.0, 3.0, 1.0, 1.0) == -4.5
    assert regime_acf("volume_dominated", 0.0, 4.0, 3.0, 3.0, 1.0, 1.0) == 0.0
    assert regime_acf("value_dominated", 6.0, 1.0, 0.0, 0.0, 2.0, 3.0) == 1.0
    with pytest.raises(DomainError):
        regime_acf("volume_dominated", 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)


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
    tape = TradeTape.from_records(1.0, tuple(recs))
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
    return TradeTape.from_records(1.0, tuple(recs))


@pytest.mark.parametrize("gap_prob", [0.0, 0.15])
def test_acf_curve_matches_oracle(gap_prob):
    rng = random.Random(11)
    tape = random_tape(rng, 400, gap_prob)
    spec = WindowSpec(51, 1)
    curve = acf_curve(tape, spec, 20, aggregate="per-center")
    ref = oracle_curve(
        [(r.tick, r.value, r.volume) for r in tape.records], 51, 1, 20
    )
    checked = 0
    for p in curve.points:
        n, b_c, b_u, b_p = ref[(p.center_tick, p.lag_ticks)]
        assert p.pair_count == n
        assert p.b_value == pytest.approx(b_c, rel=1e-10, abs=1e-10)
        assert p.b_volume == pytest.approx(b_u, rel=1e-10, abs=1e-10)
        assert p.b_price == pytest.approx(b_p, rel=1e-10, abs=1e-10)
        checked += 1
    assert checked > 100


def test_acf_curve_joint_rescaling():
    rng = random.Random(3)
    recs = [(t, rng.uniform(0.5, 4), rng.uniform(0.5, 4)) for t in range(80)]
    lam = 3.7
    spec = WindowSpec(11, 1)

    def curve_of(scale_c, scale_u):
        tape = TradeTape.from_records(
            1.0, tuple(TradeRecord(t, c * scale_c, u * scale_u) for t, c, u in recs)
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


def test_acf_curve_lags_past_span_have_no_pairs():
    tape = dense_tape(5, value=2.0)
    spec = WindowSpec(3, 1)
    huge = acf_curve(tape, spec, 10**12)
    assert huge.max_lag_ticks == 10**12
    assert huge.points == acf_curve(tape, spec, 4).points


@pytest.mark.parametrize(
    "threads, cpus, max_lag, pools",
    [(64, 8, 2, [3]), (64, 8, 20, [8]), (3, 8, 20, [3]), (64, None, 20, []), (64, 8, 0, [])],
    ids=["lags", "cpus", "requested", "no-cpu-count", "one-lag"],
)
def test_acf_curve_clamps_threads(monkeypatch, threads, cpus, max_lag, pools):
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(lagstats, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(lagstats.os, "cpu_count", lambda: cpus)
    tape = random_tape(random.Random(5), 60, 0.1)
    curve = acf_curve(tape, WindowSpec(5, 1), max_lag, threads=threads)
    assert made == pools
    assert curve.points == acf_curve(tape, WindowSpec(5, 1), max_lag).points


def test_npoint_moment_examples():
    rng = random.Random(4)
    recs = [
        TradeRecord(t, rng.uniform(0.5, 3), rng.uniform(0.5, 3)) for t in range(12)
    ]
    tape = TradeTape.from_records(1.0, tuple(recs))
    w = Window(3, tuple(range(7)), True)
    assert npoint_moment(w, tape, "value", []) == pytest.approx(
        freq_moment(members(w, tape), "value", 1), rel=1e-14
    )
    assert npoint_moment(w, tape, "value", [2]) == pytest.approx(
        lag_moment2(lag_pairs(w, tape, 2), "value"), rel=1e-14
    )
    const = dense_tape(12, value=2.0)
    assert npoint_moment(Window(3, tuple(range(7)), True), const, "value", [1, 3]) == 8.0


def test_market_price_npoint_examples():
    const = dense_tape(12, value=6.0, volume=2.0)  # constant price 3
    w = Window(3, tuple(range(7)), True)
    assert market_price_npoint(w, const, [1, 2]) == pytest.approx(27.0, rel=1e-14)

    recs = (TradeRecord(0, 10, 2), TradeRecord(1, 6, 2), TradeRecord(2, 5, 1))
    tape = TradeTape.from_records(1.0, recs)
    w = Window(1, (0, 1, 2), True)
    assert market_price_npoint(w, tape, [1, 2]) == pytest.approx(75.0, rel=1e-14)

    rng = random.Random(8)
    recs = [TradeRecord(t, rng.uniform(1, 2), rng.uniform(1, 2)) for t in range(9)]
    tape = TradeTape.from_records(1.0, tuple(recs))
    w = Window(4, tuple(range(9)), True)
    assert market_price_npoint(w, tape, [1]) == pytest.approx(
        market_price_lag_moment(lag_pairs(w, tape, 1)), rel=1e-12
    )


def test_npoint_validation():
    tape = dense_tape(12)
    w = Window(3, tuple(range(7)), True)
    with pytest.raises(ValueError):
        npoint_moment(w, tape, "value", [3, 1])
    with pytest.raises(ValueError):
        npoint_moment(w, tape, "value", [1, 2, 3, 4, 5])
    with pytest.raises(NoDataError):
        npoint_moment(w, tape, "value", [100])


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
    agg = per_center.mean_points()
    for a, b in zip(agg, curve.points):
        assert a.b_price == pytest.approx(b.b_price, rel=1e-12, abs=1e-14)


def golden_tape():
    return parse_csv((Path(__file__).parent / "data" / "golden_tape.csv").read_text())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "make_tape, spec, max_lag",
    [
        (golden_tape, WindowSpec(101, 1), 50),
        (lambda: random_tape(random.Random(13), 400, 0.15), WindowSpec(31, 1), 20),
    ],
    ids=["golden", "gaps"],
)
def test_per_center_mean_points_equal_mean_mode(make_tape, spec, max_lag, threads):
    tape = make_tape()
    mean = acf_curve(tape, spec, max_lag, aggregate="mean", threads=threads)
    per_center = acf_curve(tape, spec, max_lag, aggregate="per-center", threads=threads)
    assert per_center.mean_points() == list(mean.points)
    assert (per_center.scale_value, per_center.scale_volume, per_center.scale_price) == (
        mean.scale_value, mean.scale_volume, mean.scale_price)
