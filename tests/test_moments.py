"""Frequency and market-based moments on reference windows.

W1 = {(C=10,U=2),(C=6,U=2)} has prices (5,3); W2 = {(C=10,U=1),(C=6,U=3)}
has prices (10,2).
"""

import cmath
import json
import math
import random
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from mbstat import (
    NoDataError,
    TradeRecord,
    char_fn_taylor,
    freq_moment,
    market_price_moment,
    market_volatility,
    vwap,
)
from mbstat import emit_csv, moments, parse_csv, tape as tape_mod
from mbstat.cli import main
from mbstat.moments import MomentReport, compute_report, window_columns, window_means
from mbstat.tape import TradeTape
from mbstat.windows import Window, WindowSpec, plan_windows, window_grid

from test_lagstats import Discard

W1 = [TradeRecord(0, 10, 2), TradeRecord(1, 6, 2)]
W2 = [TradeRecord(0, 10, 1), TradeRecord(1, 6, 3)]


def test_freq_moment_examples():
    assert freq_moment(W1, "price", 1) == 4.0
    assert freq_moment(W1, "value", 2) == 68.0
    assert freq_moment(W2, "volume", 1) == 2.0


def test_market_price_moment_examples():
    assert market_price_moment(W1, 2) == 17.0
    assert market_price_moment(W2, 1) == 4.0
    assert market_price_moment(W2, 2) == pytest.approx(13.6, rel=1e-15)


def test_vwap_examples():
    assert vwap(W1) == 4.0
    assert vwap([TradeRecord(0, 10, 2)]) == 5.0
    assert vwap(W2) == 4.0


def test_market_volatility_examples():
    assert market_volatility([TradeRecord(0, 10, 2)]) == 0.0
    assert market_volatility(W1) == 1.0
    assert market_volatility(W2) == pytest.approx(-2.4, rel=1e-14)


def test_char_fn_at_zero():
    assert char_fn_taylor(W1, 0.0, 4) == 1 + 0j


def test_char_fn_constant_price_one():
    members = [TradeRecord(0, 1, 1), TradeRecord(1, 1, 1)]
    got = char_fn_taylor(members, 0.1, 2)
    assert got == pytest.approx(complex(1 - 0.005, 0.1), rel=1e-15)


def test_char_fn_w1_quadratic():
    x = 0.3
    got = char_fn_taylor(W1, x, 2)
    assert got == pytest.approx(complex(1 - 8.5 * x * x, 4 * x), rel=1e-15)


def test_empty_window_raises():
    with pytest.raises(NoDataError):
        freq_moment([], "price", 1)
    with pytest.raises(NoDataError):
        vwap([])
    with pytest.raises(NoDataError):
        char_fn_taylor([], 0.1, 2)
    tape = TradeTape.from_records(tuple(W1))
    with pytest.raises(NoDataError, match="^window at tick 5 has no records$"):
        compute_report(Window(5, (), False), tape)


def test_order_cap_rejected():
    with pytest.raises(ValueError, match="cap"):
        freq_moment(W1, "price", 9)
    with pytest.raises(ValueError):
        freq_moment(W1, "price", 0)


def test_report_fields_and_identities():
    tape = TradeTape.from_records(tuple(W2))
    rep = compute_report(Window(0, (0, 1), True), tape, max_order=2)
    assert rep.effective_count == 2
    assert rep.market_price[0] == rep.vwap
    assert rep.market_volatility == pytest.approx(-2.4, rel=1e-14)
    assert rep.volatility_negative
    d = rep.to_dict()
    assert d["volatility_negative"] is True
    assert len(d["market_price"]) == 2


members_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=1e3),
        st.floats(min_value=0.01, max_value=1e3),
    ),
    min_size=1,
    max_size=30,
)


@given(members_strategy)
@settings(max_examples=100)
def test_equal_volume_equivalence(pairs):
    members = [TradeRecord(i, c, 2.5) for i, (c, _) in enumerate(pairs)]
    for n in range(1, 5):
        assert market_price_moment(members, n) == pytest.approx(
            freq_moment(members, "price", n), rel=1e-12
        )


@given(members_strategy)
@settings(max_examples=100)
def test_vwap_identity(pairs):
    members = [TradeRecord(i, c, u) for i, (c, u) in enumerate(pairs)]
    direct = math.fsum(r.price * r.volume for r in members) / math.fsum(
        r.volume for r in members
    )
    assert vwap(members) == market_price_moment(members, 1)
    assert vwap(members) == pytest.approx(direct, rel=1e-12)


@given(members_strategy, st.floats(min_value=0.1, max_value=10))
@settings(max_examples=100)
def test_homogeneity(pairs, lam):
    members = [TradeRecord(i, c, u) for i, (c, u) in enumerate(pairs)]
    scaled_values = [TradeRecord(i, c * lam, u) for i, (c, u) in enumerate(pairs)]
    scaled_both = [TradeRecord(i, c * lam, u * lam) for i, (c, u) in enumerate(pairs)]
    for n in range(1, 4):
        base = market_price_moment(members, n)
        assert market_price_moment(scaled_values, n) == pytest.approx(
            base * lam**n, rel=1e-12
        )
        assert market_price_moment(scaled_both, n) == pytest.approx(base, rel=1e-12)


@given(members_strategy)
@settings(max_examples=50)
def test_permutation_invariance_bit_exact(pairs):
    members = [TradeRecord(i, c, u) for i, (c, u) in enumerate(pairs)]
    shuffled = members[:]
    random.Random(0).shuffle(shuffled)
    for n in range(1, 4):
        assert market_price_moment(members, n) == market_price_moment(shuffled, n)
    assert market_volatility(members) == market_volatility(shuffled)


@given(
    st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=1, max_size=40),
    st.floats(min_value=-0.5, max_value=0.5),
)
@settings(max_examples=60)
def test_char_fn_taylor_remainder(prices, x):
    members = [TradeRecord(i, p, 1.0) for i, p in enumerate(prices)]
    k = 8
    approx = char_fn_taylor(members, x, k)
    empirical = sum(cmath.exp(1j * p * x) for p in prices) / len(prices)
    bound = (max(prices) * abs(x)) ** (k + 1) / math.factorial(k + 1)
    assert abs(approx - empirical) <= bound + 1e-15


@given(members_strategy, st.integers(min_value=1, max_value=4))
@settings(max_examples=100)
def test_report_matches_reference_functions_bit_exact(pairs, max_order):
    members = [TradeRecord(i, c, u) for i, (c, u) in enumerate(pairs)]
    tape = TradeTape.from_records(tuple(members))
    rep = compute_report(Window(0, tuple(range(len(members))), True), tape, max_order)
    assert rep.vwap == vwap(members)
    assert rep.market_volatility == market_volatility(members)
    assert len(rep.market_price) == max_order
    for n in range(1, max_order + 1):
        assert rep.market_price[n - 1] == market_price_moment(members, n)


# --------------------------------------------------------------------------
# Shared-power reports against the per-window path they replaced.


def _reference_power_mean(xs, n, series):
    try:
        return math.fsum(x**n for x in xs) / len(xs)
    except OverflowError:
        raise OverflowError(f"{series} moment of order {n} overflows") from None


def reference_compute_report(window, tape, max_order=4):
    """Per-window moments, each power taken inside its window, kept as a reference.

    Value and volume moments go to order 2 at least, which the volatility
    needs; price moments go to max_order."""
    lo = tape.ticks.searchsorted(window.member_ticks[0])
    hi = tape.ticks.searchsorted(window.member_ticks[-1], side="right")
    value, volume = tape.value[lo:hi].tolist(), tape.volume[lo:hi].tolist()
    orders = range(1, max(max_order, 2) + 1)
    price = [c / u for c, u in zip(value, volume)]
    try:
        value_m, volume_m, freq_price = (
            tuple(_reference_power_mean(xs, n, series) for n in orders[:top])
            for series, xs, top in zip(("value", "volume", "price"), (value, volume, price),
                                       (None, None, max_order))
        )
    except OverflowError as exc:
        raise OverflowError(f"window at tick {window.center_tick}: {exc}") from None
    try:
        market_price = tuple(c / u for c, u in zip(value_m, volume_m))
    except ZeroDivisionError:
        n = volume_m.index(0.0) + 1
        raise ZeroDivisionError(
            f"window at tick {window.center_tick}: volume moment of order {n} underflows to 0"
        ) from None
    for name, xs in (("freq_price", freq_price), ("market_price", market_price)):
        for n, x in enumerate(xs, start=1):
            if not math.isfinite(x):
                raise OverflowError(f"window at tick {window.center_tick}: {name} moment "
                                    f"of order {n} is {x!r}")
    try:
        volatility = market_price[1] - market_price[0] ** 2
    except OverflowError:
        raise OverflowError(
            f"window at tick {window.center_tick}: market volatility overflows") from None
    return MomentReport(
        center_tick=window.center_tick,
        effective_count=int(hi - lo),
        freq_price=freq_price[:max_order],
        value=value_m[:max_order],
        volume=volume_m[:max_order],
        market_price=market_price[:max_order],
        vwap=market_price[0],
        market_volatility=volatility,
    )


def report_outcome(fn, *args):
    """``repr`` of every report ``fn`` returns, or the type and message of what it raises."""
    try:
        reports = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    return [repr(r) for r in reports]


moderate = st.floats(min_value=0.01, max_value=100.0)
extreme = st.one_of(st.floats(min_value=1e-200, max_value=1e200),
                    st.sampled_from([0.0, -0.0, 5e-324, 1e-160, 1e160]))


@st.composite
def gappy_tapes(draw):
    """Tapes with gaps; a per-tape share of values from 1e-200 to 1e200 reaches every error."""
    gaps = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=5, max_size=70))
    ticks = np.cumsum(gaps) + draw(st.integers(min_value=-50, max_value=50))
    rate = draw(st.sampled_from([0, 3, 20, 100]))  # percent of extreme values

    def size():
        return draw(extreme if draw(st.integers(min_value=0, max_value=99)) < rate else moderate)

    value = [size() for _ in gaps]
    volume = [abs(size()) or 1.0 for _ in gaps]
    return TradeTape(ticks, value, volume)


@given(gappy_tapes(), st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=15),
       st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=8))
@settings(max_examples=300, deadline=None)
def test_window_reports_equal_per_window_reference(tape, half, step, min_trades, max_order):
    min_trades = min(min_trades, half + 1)  # most draws then hold a valid window
    spec = WindowSpec(2 * half + 1, min(step, 2 * half + 1), min_trades)
    valid = [w for w in plan_windows(tape, spec) if w.valid]
    centers, lo, hi = window_grid(tape, spec)
    keep = hi - lo >= min_trades
    assert [w.center_tick for w in valid] == centers[keep].tolist()
    if not valid:
        return
    want = report_outcome(lambda: [reference_compute_report(w, tape, max_order) for w in valid])
    got = report_outcome(lambda: window_columns(tape, centers[keep].tolist(), lo[keep].tolist(),
                                                hi[keep].tolist(), max_order).reports())
    assert got == want
    for w in valid:  # the one-window case powers only its own rows
        assert (report_outcome(lambda: [compute_report(w, tape, max_order)])
                == report_outcome(lambda: [reference_compute_report(w, tape, max_order)]))


@pytest.mark.parametrize("big, center, sizes", [(0, 1, {1}), (50, 49, {1, 98})],
                         ids=["first-window", "later-window"])
def test_first_window_fails_before_the_full_pass(monkeypatch, big, center, sizes):
    # 1e40**8 overflows; the first window alone raises before all 98 are computed.
    value = np.ones(100)
    value[big] = 1e40
    tape = TradeTape(np.arange(100), value, np.ones(100))
    centers, lo, hi = window_grid(tape, WindowSpec(3, 1))
    seen = set()
    means = moments.window_means
    monkeypatch.setattr(moments, "window_means",
                        lambda col, lo, hi: seen.add(len(lo)) or means(col, lo, hi))
    with pytest.raises(OverflowError,
                       match=f"^window at tick {center}: value moment of order 8 overflows$"):
        window_columns(tape, centers, lo, hi, 8)
    assert seen == sizes


# --------------------------------------------------------------------------
# Column powers against Python's float ** int.


def python_power(x, n):
    """``x**n``, NaN where it raises OverflowError."""
    try:
        return x**n
    except OverflowError:
        return math.nan


#: Nonnegative float64s: bit patterns from 0.0 to inf, so every exponent is as
#: likely (subnormals too), and each side of ``2**(1024 / n)``, where ``x**n``
#: starts to overflow.
nonnegative_floats = st.one_of(
    st.integers(min_value=0, max_value=0x7FF0000000000000).map(
        lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(min_value=0.0),
    st.sampled_from([math.nextafter(2.0 ** (1024 / n), to)
                     for n in range(2, 9) for to in (0.0, math.inf)]))


@given(st.lists(nonnegative_floats, min_size=1, max_size=200), st.integers(min_value=1, max_value=8))
@settings(max_examples=400, deadline=None)
def test_power_equals_python_float_power_bit_for_bit(xs, n):
    """``_power`` is ``x**n``, NaN where that raises OverflowError and inf
    where ``x`` is inf; ``np.power``, on an AVX-512 numpy build, is not."""
    got = moments._power(np.array(xs), n)
    assert list(map(float.hex, got.tolist())) == [float.hex(python_power(x, n)) for x in xs]


# --------------------------------------------------------------------------
# Exact integer-prefix window means against fsum.

#: Values where an exact sum matters: signed zeros, the smallest subnormal,
#: widely apart magnitudes, and 1.7e308, two of which overflow a sum.
SPECIAL = [0.0, -0.0, 5e-324, 1e-200, 1e200, 1.7e308]


def fsum_mean(xs):
    """``math.fsum(xs) / len(xs)``.  Where ``fsum`` overflows, NaN if ``xs``
    holds a non-finite value, and else the exact mean, rounded once."""
    try:
        return math.fsum(xs) / len(xs)
    except OverflowError:
        if not all(map(math.isfinite, xs)):
            return math.nan
        return float(sum(map(Fraction, xs), Fraction(0)) / len(xs))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 3, 101, 2001]),
       st.sampled_from([0.0, 0.01, 0.3, 1.0]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_window_means_equal_fsum_bit_for_bit(seed, max_width, special_share, nonfinite):
    rng = np.random.default_rng(seed)
    n = max_width + int(rng.integers(0, 2 * max_width + 50))
    col = rng.lognormal(0.0, 5.0, n)
    pick = rng.random(n) < special_share
    col[pick] = rng.choice(SPECIAL + ([math.inf, math.nan] if nonfinite else []), pick.sum())
    width = rng.integers(1, max_width + 1, 300)
    lo = rng.integers(0, n - width + 1)
    hi = lo + width
    got = window_means(col, lo, hi)
    want = [fsum_mean(col[a:b].tolist()) for a, b in zip(lo.tolist(), hi.tolist())]
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))


def test_window_means_overflow_is_nan_and_inf_follows_fsum():
    """[1.7e308, 1.7e308] has the finite mean 1.7e308, although ``math.fsum``
    raises OverflowError on it: a finite window's exact sum is divided by its
    count before it is rounded.  A window holding an inf follows ``fsum``,
    and is NaN where that raises."""
    col = np.array([1.7e308, 1.7e308, 1.0, math.inf, 1.7e308, 1.0, 1.7e308])
    lo, hi = np.array([0, 1, 0, 2, 1, 3]), np.array([2, 3, 4, 5, 6, 7])
    with pytest.raises(OverflowError):
        math.fsum(col[:2].tolist())
    # [1.7e308, 1.7e308, ..., inf] overflows before fsum reaches the inf;
    # [1.7e308, inf, 1.7e308] does not, and sums to inf.
    want = [1.7e308, 1.7e308 / 2, math.nan, math.inf, math.inf, math.nan]
    assert list(map(float.hex, window_means(col, lo, hi).tolist())) == list(map(float.hex, want))


def test_window_means_nan_windows_without_inf_are_nan_and_both_infs_raise_as_fsum():
    col = np.array([1.0, math.nan, 2.0, math.inf, 3.0, -math.inf, 1.7e308, 1.7e308])
    lo, hi = np.array([0, 1, 0, 1, 5, 4]), np.array([2, 3, 3, 4, 8, 8])
    want = [math.nan, math.nan, math.nan, math.nan, math.nan, math.nan]
    assert list(map(float.hex, window_means(col, lo, hi).tolist())) == list(map(float.hex, want))
    for a, b in ((1, 6), (3, 6)):
        with pytest.raises(ValueError) as ref:
            math.fsum(col[a:b].tolist())
        with pytest.raises(ValueError, match=re.escape(str(ref.value))):
            window_means(col, np.array([a]), np.array([b]))


def fraction_mean(xs):
    """The exact sum of ``xs``, rounded once to float64, over its count; where
    that sum rounds to 2**1024 or more, the exact mean, rounded once."""
    exact = sum(map(Fraction, xs), Fraction(0))
    try:
        return float(exact) / len(xs)
    except OverflowError:
        return float(exact / len(xs))


def _signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


#: Columns of up to 80 values: (name, column of n values from an rng).
EXACT_CASES = {
    # Signed values over 2**-60..2**60, whose sums cancel.
    "signed": lambda rng, n: _signs(rng, n) * rng.lognormal(0.0, 14.0, n),
    "signed-zeros": lambda rng, n: rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324], n),
    # Multiples of 2**-1074 around 2**-1022, some far larger: sums that land subnormal.
    "subnormal": lambda rng, n: _signs(rng, n) * rng.integers(0, 2**53, n) * 2.0**-1074
    * 2.0 ** (rng.integers(0, 80, n) * (rng.random(n) < 0.2)),
    # Sums at and past 2**1024, some cancelled back below it.
    "overflow": lambda rng, n: rng.choice([-1.0, 1.0, 1.0], n) * rng.uniform(0.5, 1.0, n)
    * 2.0**1023,
    # Exponents from -1074 to 1023: 69 digits of 32 bits a value.
    "wide": lambda rng, n: np.concatenate(([5e-324, 1.7e308], _signs(rng, n) * rng.random(n)
                                           * 2.0 ** rng.integers(-1074, 1024, n)))[:n],
    # Sums such as 2**100 - 2**-100 and their negatives, whose digits run
    # through 0xFFFFFFFF: a carry ripples from the lowest digit to the top.
    "carry-chain": lambda rng, n: rng.choice([-1.0, 1.0], n)
    * 2.0 ** (rng.choice([100, 500], n) * rng.choice([-1, 1], n)),
    # Halfway cases and sticky bits of the rounding.
    "ties": lambda rng, n: rng.choice([1.0, 2.0**53, -(2.0**53), 2.0**-53, -(2.0**-53), 2.0**-54,
                                       3 * 2.0**-54, 1 + 2.0**-52, 2.0**-1074], n),
}


@pytest.mark.parametrize("case", EXACT_CASES)
@pytest.mark.parametrize("block_bytes", [moments.DIGIT_BLOCK_BYTES, 1, 1000])
def test_window_means_equal_the_exact_rational_mean(case, block_bytes):
    """Also with one row, or window, to a digit block, and with a few."""
    rng = np.random.default_rng(sorted(EXACT_CASES).index(case))
    with mock.patch.object(moments, "DIGIT_BLOCK_BYTES", block_bytes):
        for _ in range(25):
            n = int(rng.integers(2, 81))
            col = EXACT_CASES[case](rng, n)
            width = rng.integers(1, n + 1, 40)
            lo = rng.integers(0, n - width + 1)
            hi = lo + width
            got = window_means(col, lo, hi)
            want = [fraction_mean(col[a:b].tolist()) for a, b in zip(lo.tolist(), hi.tolist())]
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3, 40, 300]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_window_means_past_2_1024_are_the_exact_mean_rounded_once(seed, max_width, signed):
    """Windows whose exact sums pass 2**1024, while their means cannot (``fsum``
    raises on them), give the exact rational mean rounded once; a few small
    values put the lowest bits many digits below the top."""
    rng = np.random.default_rng(seed)
    n = max_width + int(rng.integers(0, 2 * max_width + 50))
    col = rng.uniform(0.5, 1.0, n) * 2.0 ** rng.integers(1018, 1024, n)
    small = rng.random(n) < 0.2
    col[small] = rng.lognormal(0.0, 20.0, small.sum())
    if signed:
        col *= rng.choice([-1.0, 1.0, 1.0, 1.0], n)
    width = rng.integers(2, max_width + 1, 60)
    lo = rng.integers(0, n - width + 1)
    hi = lo + width
    prefix = [Fraction(0)]
    for x in col.tolist():
        prefix.append(prefix[-1] + Fraction(x))
    exact = [prefix[b] - prefix[a] for a, b in zip(lo.tolist(), hi.tolist())]
    past = [abs(e) >= 2**1024 for e in exact]
    assume(any(past))
    got = window_means(col, lo, hi).tolist()
    want = [float(e / w) for e, w in zip(exact, width.tolist())]
    assert [g.hex() for g, p in zip(got, past) if p] == [w.hex() for w, p in zip(want, past) if p]


@pytest.mark.parametrize("seed", range(4))
def test_rounded_divides_by_counts_up_to_2_31(seed):
    """The long division stays exact for any count below 2**31: the remainder
    times 2**32, plus a digit, fits an int64.  1 / 2147470547, times 2**96,
    is a tie in its top 64 bits with only 0 bits below them, and its
    remainder's sticky bit rounds it up."""
    rng = np.random.default_rng(seed)
    width, exp0 = 40, -300
    values = [int(rng.integers(-(2**62), 2**62)) * 2 ** int(rng.integers(0, 32 * 36 - 64))
              for _ in range(60)]
    values[:2] = [1, -1]
    counts = rng.integers(1, 2**31, 60)
    counts[:6] = [2147470547, 2147470547, 1, 2**31 - 1, 2**31 - 2, 3]
    s = np.zeros((width, len(values)), np.int64)
    for j, v in enumerate(values):
        for d in range(width - 4):
            s[d, j] = (abs(v) >> (32 * d)) & 0xFFFFFFFF
        s[:, j] *= -1 if v < 0 else 1
    got = moments._rounded(s, exp0, counts).tolist()
    want = [float(Fraction(v) * Fraction(2) ** exp0 / int(c)) for v, c in zip(values, counts)]
    assert [g.hex() for g in got] == [w.hex() for w in want]


def test_compare_passes_a_window_whose_sum_passes_2_1024(tmp_path):
    """``compare`` on 100 ticks of 1.0 with 1e308 at ticks 50 and 51: the value
    sum of the window at tick 45 passes 2**1024, and its mean is finite."""
    inp = tmp_path / "tape.csv"
    inp.write_text("tick,value,volume\n" + "".join(
        f"{t},{1e308 if t in (50, 51) else 1.0},1.0\n" for t in range(100)))
    res = CliRunner().invoke(main, ["compare", "--input", str(inp), "--window-n", "21",
                                    "--lag-step", "5", "--max-order", "1"])
    assert res.exit_code == 0, res.output
    mean = float((2 * Fraction(1e308) + 19) / 21)
    assert f"45,1,{mean!r},{mean!r},0.0" in res.output.splitlines()


def test_window_means_memory_on_a_wide_column():
    """A 200,000-row column spanning 1e-300..1e300 takes 66 digits a value.
    On it, the Python-int prefix sums that this replaced peaked at 76.5 MiB
    in ``_int_prefix`` alone (82.6 MiB for ``window_means``); digit blocks
    keep the peak near that of the column-sized arrays, about 5 MiB."""
    rng = np.random.default_rng(5)
    n = 200_000
    col = 10.0 ** rng.uniform(-300, 300, n)
    lo = np.arange(n - 100)
    hi = lo + 101
    tracemalloc.start()
    try:
        got = window_means(col, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for i in rng.integers(0, len(lo), 50).tolist():
        assert got[i] == math.fsum(col[lo[i]:hi[i]].tolist()) / 101


# --------------------------------------------------------------------------
# The columnar writers against the per-report serialization they replaced.


def _report_lines(command, reports):
    if command == "stats":
        return "".join(json.dumps(rep.to_dict(), allow_nan=False) + "\n" for rep in reports)
    return "center_tick,n,freq_price,market_price,difference\n" + "".join(
        f"{rep.center_tick},{n},{freq!r},{market!r},{freq - market!r}\n"
        for rep in reports
        for n, (freq, market) in enumerate(zip(rep.freq_price, rep.market_price), start=1))


@given(gappy_tapes(), st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=15),
       st.integers(min_value=1, max_value=8), st.sampled_from(["stats", "compare"]))
@settings(max_examples=150, deadline=None)
def test_writers_equal_per_report_serialization(tape, half, step, max_order, command):
    spec = WindowSpec(2 * half + 1, min(step, 2 * half + 1))
    text = emit_csv(tape)
    parsed = parse_csv(text)  # the CLI sees the tape through its CSV
    centers, lo, hi = window_grid(parsed, spec)
    keep = hi - lo >= 1
    assume(keep.any())
    try:
        want = _report_lines(command, window_columns(
            parsed, centers[keep].tolist(), lo[keep].tolist(), hi[keep].tolist(),
            max_order, volatility=(command == "stats")).reports())
        error = None
    except ArithmeticError as exc:
        error = f"Error: {type(exc).__name__}: {exc}"
    # One row a cut, one row of text a write, and compare's columns one window at a time.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(tape_mod, "WRITE_BLOCK_ROWS", 1), \
            mock.patch.object(tape_mod, "TEXT_ROWS", 1), \
            mock.patch.object(moments, "WRITE_BLOCK_ROWS", 1):
        inp, out = Path(tmp) / "tape.csv", Path(tmp) / "out"
        inp.write_text(text)
        res = CliRunner().invoke(main, [
            command, "--input", str(inp), "--window-n", str(spec.n_ticks), "--lag-step",
            str(spec.lag_step_ticks), "--max-order", str(max_order), "--output", str(out)])
        if error is None:
            assert res.exit_code == 0
            assert out.read_text() == want
        else:
            assert res.exit_code == 1
            assert res.output.splitlines() == [error]
            assert not out.exists()


# --------------------------------------------------------------------------
# Memory


def test_stats_memory_is_bounded_by_columns_and_one_block():
    """Columns of 20,000 windows, one power column and one block of text
    peak at about 6.4 MB.  One report object per window, each serialized by
    ``json.dumps``, peaked at 18.9 MB."""
    rng = np.random.default_rng(4)
    n = 20_100
    tape = TradeTape(np.arange(n), rng.lognormal(0.0, 0.5, n), rng.lognormal(0.0, 0.5, n))
    centers, lo, hi = window_grid(tape, WindowSpec(101, 1))
    assert len(centers) >= 20_000
    tracemalloc.start()
    try:
        window_columns(tape, centers, lo, hi, 2).write_jsonl(Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_window_columns_holds_no_per_row_python_objects():
    """Every 50th window of 200,100 dense rows (4,000 windows) at max_order 4
    peaks at about 7 MiB (36 B a row): a few float64 columns and digit blocks.
    Powers taken one Python float at a time peaked at 19.2 MiB (100 B a row)."""
    rng = np.random.default_rng(6)
    n = 200_100
    tape = TradeTape(np.arange(n), rng.lognormal(0.0, 0.5, n), rng.lognormal(0.0, 0.5, n))
    centers, lo, hi = (col[::50] for col in window_grid(tape, WindowSpec(101, 1)))
    assert len(centers) == 4_000
    tracemalloc.start()
    try:
        window_columns(tape, centers, lo, hi, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
