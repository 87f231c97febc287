"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import cmath
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mbstat import (
    SynthParams,
    TradeRecord,
    TradeTape,
    WindowSpec,
    acf_curve,
    char_fn_taylor,
    freq_moment,
    gen_tape,
    market_price_moment,
    market_volatility,
    members,
    plan_windows,
    regime_acf,
    vwap,
)
from mbstat.cli import main as cli_main
from mbstat.moments import compute_report
from mbstat.windows import Window

from oracle import oracle_curve
from test_tape import rows

DATA = Path(__file__).parent / "data"
EFOLD_THRESHOLD = -math.log(0.05)  # lag at which exp decay hits the 5% floor


def announce(num, name, passed=True):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}")


def random_members(rng, n, volume=None):
    return [
        TradeRecord(
            i,
            rng.uniform(0.1, 5.0),
            volume if volume is not None else rng.uniform(0.1, 5.0),
        )
        for i in range(n)
    ]


def test_criterion_01_vwap_first_moment_identity():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(100):
        tape = TradeTape.from_records(
            tuple(
                TradeRecord(t, rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
                for t in range(202)
            ),
        )
        wins = plan_windows(tape, WindowSpec(101, 101))
        assert wins
        for w in wins:
            recs = members(w, tape)
            direct = math.fsum(r.price * r.volume for r in recs) / math.fsum(
                r.volume for r in recs
            )
            v = vwap(recs)
            assert v == market_price_moment(recs, 1)
            assert v == pytest.approx(direct, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, f"VWAP/first-moment identity ({elapsed:.2f}s)")


def test_criterion_02_equal_volume_equivalence():
    rng = random.Random(102)
    for _ in range(100):
        recs = random_members(rng, rng.randint(1, 80), volume=rng.uniform(0.5, 3.0))
        for n in range(1, 5):
            assert market_price_moment(recs, n) == pytest.approx(
                freq_moment(recs, "price", n), rel=1e-12
            )
    announce(2, "equal-volume equivalence")


def test_criterion_03_zero_lag_is_volatility():
    rng = random.Random(103)
    checked = 0
    for _ in range(50):
        recs = tuple(
            TradeRecord(t, rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
            for t in range(60)
            if rng.random() > 0.1
        )
        tape = TradeTape.from_records(recs)
        spec = WindowSpec(11, 3)
        curve = acf_curve(tape, spec, 0, aggregate="per-center")
        valid = [w for w in plan_windows(tape, spec) if w.valid]
        assert curve.columns.center.tolist() == [w.center_tick for w in valid]
        for p, w in zip(curve.points, valid):
            assert p.b_price == pytest.approx(
                market_volatility(members(w, tape)), rel=1e-12
            )
            checked += 1
    assert checked > 500
    announce(3, f"zero-lag acf equals volatility ({checked} windows)")


def test_criterion_04_regime_algebraic_identities():
    rng = random.Random(104)
    for _ in range(1000):
        c1, c1l = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        u1, u1l = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        # value decorrelated: closed form from the volume autocorrelation
        lag2_u = rng.uniform(0.2, 5.0)
        lag2_c = c1 * c1l
        direct = lag2_c / lag2_u - (c1 * c1l) / (u1 * u1l)
        closed = regime_acf(
            "volume_dominated", lag2_u - u1 * u1l, lag2_u, c1, c1l, u1, u1l
        )
        assert closed == pytest.approx(direct, rel=1e-12, abs=1e-14)
        # volume decorrelated: closed form from the value autocorrelation
        lag2_c = rng.uniform(0.2, 5.0)
        lag2_u = u1 * u1l
        direct = lag2_c / lag2_u - (c1 * c1l) / (u1 * u1l)
        closed = regime_acf(
            "value_dominated", lag2_c - c1 * c1l, lag2_u, c1, c1l, u1, u1l
        )
        assert closed == pytest.approx(direct, rel=1e-12, abs=1e-14)
    announce(4, "regime algebraic identities (1000 tuples each)")


def test_criterion_05_brute_force_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(105)
    cases = [(2001, 0.0), (1201, 0.12)]
    for length, gap_prob in cases:
        recs = tuple(
            TradeRecord(t, rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
            for t in range(length)
            if rng.random() >= gap_prob
        )
        tape = TradeTape.from_records(recs)
        curve = acf_curve(tape, WindowSpec(101, 1), 50, aggregate="per-center")
        ref = oracle_curve(rows(tape), 101, 1, 50)
        for p in curve.points:
            n, b_c, b_u, b_p = ref[(p.center_tick, p.lag_ticks)]
            assert p.pair_count == n
            # 1e-10 relative to the scale of the moments the B values are
            # formed from; the B values themselves pass through zero
            for got, want, scale in (
                (p.b_value, b_c, p.lag2_value),
                (p.b_volume, b_u, p.lag2_volume),
                (p.b_price, b_p, p.lag2_price),
            ):
                assert abs(got - want) <= 1e-10 * max(abs(want), abs(scale))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(5, f"brute-force oracle equivalence ({elapsed:.2f}s)")


def test_criterion_06_sign_prediction_in_band():
    start = time.perf_counter()
    params = SynthParams(
        mode="value_volume",
        length_ticks=100_000,
        persistence_a_ticks=5.0,
        persistence_b_ticks=50.0,
        sigma_a=0.1,
        sigma_b=0.1,
        seed=1,
    )
    tape = gen_tape(params)
    curve = acf_curve(tape, WindowSpec(1001, 1), 50, aggregate="mean")
    pts = {p.lag_ticks: p for p in curve.points}
    band = [lag for lag in range(16, 50) if pts[lag].b_volume > 0]
    assert band
    negative = [lag for lag in band if pts[lag].b_price < 0]
    frac = len(negative) / len(band)
    elapsed = time.perf_counter() - start
    assert frac >= 0.80
    assert elapsed < 10.0
    announce(6, f"sign prediction in band ({frac:.0%} negative, {elapsed:.1f}s)")


@pytest.fixture(scope="module")
def pv_scale_curve():
    params = SynthParams(
        mode="price_volume",
        length_ticks=100_000,
        persistence_a_ticks=10.0,
        persistence_b_ticks=40.0,
        sigma_a=0.1,
        sigma_b=0.1,
        seed=1,
    )
    tape = gen_tape(params)
    return acf_curve(tape, WindowSpec(2001, 1), 300, aggregate="mean")


def test_criterion_07a_volume_scale_recovery(pv_scale_curve):
    expected = 40.0 * EFOLD_THRESHOLD
    tau_u = pv_scale_curve.scale_volume
    assert tau_u is not None
    ok = abs(tau_u - expected) / expected <= 0.25
    announce(7, f"volume scale recovery (tau_U={tau_u}, expect ~{expected:.0f})", ok)
    assert ok


def test_criterion_07b_max_scale_claim(pv_scale_curve):
    tau_c = pv_scale_curve.scale_value
    tau_u = pv_scale_curve.scale_volume
    tau_p = pv_scale_curve.scale_price
    assert tau_c is not None and tau_u is not None and tau_p is not None
    biggest = max(tau_c, tau_u)
    ok = abs(tau_p - biggest) / biggest <= 0.25
    announce(7, f"max-scale claim (tau_p={tau_p}, max(tau_C,tau_U)={biggest})", ok)
    assert ok


def test_criterion_08_char_fn_remainder():
    rng = random.Random(108)
    prices = [rng.uniform(0.05, 2.0) for _ in range(200)]
    recs = [TradeRecord(i, p, 1.0) for i, p in enumerate(prices)]
    k = 8
    grid = [x for x in np.linspace(0.2, 0.5, 10)]
    grid += [-x for x in grid]
    assert len(grid) == 20
    for x in grid:
        approx = char_fn_taylor(recs, x, k)
        empirical = sum(cmath.exp(1j * p * x) for p in prices) / len(prices)
        bound = (max(prices) * abs(x)) ** (k + 1) / math.factorial(k + 1)
        # 1e-14 cushion for double roundoff in the empirical sum
        assert abs(approx - empirical) <= bound + 1e-14
    announce(8, "characteristic-function remainder bound")


def test_criterion_09_homogeneity_invariance_suite():
    rng = random.Random(109)
    for _ in range(50):
        recs = random_members(rng, rng.randint(2, 60))
        lam = rng.uniform(0.2, 5.0)
        values_scaled = [TradeRecord(r.tick, r.value * lam, r.volume) for r in recs]
        both_scaled = [
            TradeRecord(r.tick, r.value * lam, r.volume * lam) for r in recs
        ]
        shuffled = recs[:]
        rng.shuffle(shuffled)
        for n in range(1, 5):
            base = market_price_moment(recs, n)
            assert market_price_moment(values_scaled, n) == pytest.approx(
                base * lam**n, rel=1e-12
            )
            assert market_price_moment(both_scaled, n) == pytest.approx(
                base, rel=1e-12
            )
            assert market_price_moment(shuffled, n) == base
        assert market_volatility(shuffled) == market_volatility(recs)
    announce(9, "homogeneity and invariance suite")


def test_criterion_10_determinism_and_golden_file(tmp_path):
    runner = CliRunner()
    blobs = []
    for threads in (1, 4, 8):
        base = tmp_path / f"curve{threads}"
        res = runner.invoke(
            cli_main,
            [
                "acf", "--input", str(DATA / "golden_tape.csv"),
                "--window-n", "101", "--lag-step", "1", "--max-lag", "50",
                "--aggregate", "mean", "--threads", str(threads),
                "--output", str(base),
            ],
            catch_exceptions=False,
        )
        assert res.exit_code == 0
        blobs.append(
            (base.with_suffix(".json").read_bytes(), base.with_suffix(".csv").read_bytes())
        )
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0][0] == (DATA / "golden_acf.json").read_bytes()
    assert blobs[0][1] == (DATA / "golden_acf.csv").read_bytes()
    announce(10, "thread determinism and golden file")


def test_criterion_11_negative_volatility_surfaced():
    w2 = TradeTape.from_records((TradeRecord(0, 10, 1), TradeRecord(1, 6, 3)))
    rep = compute_report(Window(0, (0, 1), True), w2, max_order=2)
    assert rep.market_volatility == pytest.approx(-2.4, rel=1e-12)
    assert rep.volatility_negative is True
    announce(11, "negative volatility surfaced, not clamped")
