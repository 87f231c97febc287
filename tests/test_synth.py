"""Synthetic tape generator and its reference autocovariance."""

import math
import tracemalloc

import numpy as np
import pytest

from mbstat import SynthParams, gen_tape, synth, tape, theoretical_log_acf

from test_lagstats import Discard
from test_tape import rows


def params(**kw):
    base = dict(
        mode="price_volume",
        length_ticks=500,
        persistence_a_ticks=5.0,
        persistence_b_ticks=20.0,
        seed=1,
    )
    base.update(kw)
    return SynthParams(**base)


def test_same_seed_same_tape():
    a = gen_tape(params())
    b = gen_tape(params())
    assert rows(a) == rows(b)


def test_different_seed_differs():
    assert rows(gen_tape(params())) != rows(gen_tape(params(seed=2)))


def test_zero_sigma_constant_levels():
    t = gen_tape(params(sigma_a=0.0, sigma_b=0.0, mean_a=1.0, mean_b=0.5))
    assert t.value / t.volume == pytest.approx(math.e)
    assert t.volume == pytest.approx(math.exp(0.5))


def test_tape_is_dense_and_positive():
    t = gen_tape(params(length_ticks=300))
    assert t.ticks.tolist() == list(range(300))
    assert (t.value > 0).all() and (t.volume > 0).all()


def test_value_volume_mode_value_is_exp_a():
    pv = gen_tape(params(seed=3))
    vv = gen_tape(params(seed=3, mode="value_volume"))
    # same streams: pv value = price * volume, vv value = price process alone
    assert pv.volume.tolist() == vv.volume.tolist()
    assert pv.value == pytest.approx(vv.value * pv.volume, rel=1e-12)


def test_log_volume_stationary_mean():
    p = params(length_ticks=100_000, mean_b=0.7, persistence_b_ticks=20.0)
    t = gen_tape(p)
    logs = np.log(t.volume)
    # effective sample size for an AR(1) with e-folding scale tau is about
    # n / (2 tau); allow four standard errors
    n_eff = p.length_ticks / (2 * p.persistence_b_ticks)
    assert abs(logs.mean() - 0.7) < 4 * p.sigma_b / math.sqrt(n_eff)


def test_log_acf_matches_theory():
    p = params(length_ticks=100_000, persistence_a_ticks=10.0)
    t = gen_tape(p)
    x = np.log(t.value / t.volume)
    x = x - x.mean()
    for lag in (0, 5, 10, 20):
        emp = float(np.dot(x[: len(x) - lag], x[lag:]) / (len(x) - lag))
        assert emp == pytest.approx(
            theoretical_log_acf(10.0, p.sigma_a, lag), abs=6e-4
        )


def test_theoretical_log_acf_examples():
    assert theoretical_log_acf(7.0, 0.3, 0) == pytest.approx(0.09)
    assert theoretical_log_acf(7.0, 0.3, 7) == pytest.approx(0.09 / math.e)
    assert theoretical_log_acf(5.0, 1.0, 100) < 1e-8


def test_param_validation():
    with pytest.raises(ValueError):
        params(mode="nope")
    with pytest.raises(ValueError):
        params(length_ticks=1)
    with pytest.raises(ValueError):
        params(persistence_a_ticks=0)
    with pytest.raises(ValueError, match="^sigmas must be nonnegative$"):
        params(sigma_b=-0.1)
    for persistence in (0.0, -1.0):
        with pytest.raises(ValueError, match="^persistence must be positive$"):
            theoretical_log_acf(persistence, 0.1, 1)


@pytest.mark.parametrize("field,value,message", [
    ("persistence_a_ticks", math.nan, "persistence_a_ticks must not be NaN"),
    ("persistence_b_ticks", math.nan, "persistence_b_ticks must not be NaN"),
    ("sigma_a", math.nan, "sigma_a must be finite, got nan"),
    ("sigma_b", math.inf, "sigma_b must be finite, got inf"),
    ("mean_a", -math.inf, "mean_a must be finite, got -inf"),
    ("mean_b", math.nan, "mean_b must be finite, got nan"),
])
def test_param_validation_names_nonfinite_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        params(**{field: value})


@pytest.mark.parametrize("mode", ["price_volume", "value_volume"])
def test_overflowing_level_fails_in_the_tape_without_warning(mode):
    # Warnings are errors under pytest: exp(1e300) and inf * volume must not warn.
    with pytest.raises(ValueError, match="^tick 0: value must be nonnegative and finite, got inf$"):
        gen_tape(params(mode=mode, mean_a=1e300))
    with pytest.raises(ValueError, match="^tick 0: value must be nonnegative and finite, got inf$"):
        gen_tape(params(mode="price_volume", mean_a=400.0, mean_b=400.0))


def _numpy_scalar_ar1(rng, n, persistence, sigma, mean):
    """The AR(1) loop on numpy scalars: the reference for the Python-float loop."""
    phi = math.exp(-1.0 / persistence)
    z = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = mean + sigma * z[0]
    innov_sd = sigma * math.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = mean + phi * (x[i - 1] - mean) + innov_sd * z[i]
    return x


@pytest.mark.parametrize("mode", ["price_volume", "value_volume"])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_ar1_on_python_floats_is_bit_identical(monkeypatch, mode, seed):
    p = params(mode=mode, seed=seed, length_ticks=2000, sigma_a=0.3, mean_a=1.5, mean_b=-0.25)
    got = gen_tape(p)
    monkeypatch.setattr(synth, "_ar1_log_levels", _numpy_scalar_ar1)
    want = gen_tape(p)
    for name in ("ticks", "value", "volume"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _one_shot_tape(p):
    """The generator as one draw of each whole path, with levels taken out of
    place: the reference for the chunked draws and the in-place levels."""
    paths = []
    for seq, tau, sigma, mean in zip(np.random.SeedSequence(p.seed).spawn(2),
                                     (p.persistence_a_ticks, p.persistence_b_ticks),
                                     (p.sigma_a, p.sigma_b), (p.mean_a, p.mean_b)):
        rng = np.random.Generator(np.random.PCG64(seq))
        z = iter(rng.standard_normal(p.length_ticks).tolist())
        phi = math.exp(-1.0 / tau)
        innov_sd = sigma * math.sqrt(1.0 - phi * phi)
        prev = mean + sigma * next(z)
        x = [prev]
        for zi in z:
            prev = mean + phi * (prev - mean) + innov_sd * zi
            x.append(prev)
        paths.append(np.array(x))
    a, volume = np.exp(paths[0]), np.exp(paths[1])
    value = a * volume if p.mode == "price_volume" else a
    return np.arange(p.length_ticks), value, volume


@pytest.mark.parametrize("mode", ["price_volume", "value_volume"])
@pytest.mark.parametrize("length", [2, synth.DRAW_BLOCK - 1, synth.DRAW_BLOCK,
                                    synth.DRAW_BLOCK + 1, 2 * synth.DRAW_BLOCK + 1])
def test_chunked_draws_equal_one_shot_path(mode, length):
    p = params(mode=mode, length_ticks=length, seed=5, sigma_a=0.2, mean_a=0.75, mean_b=-1.25)
    got = gen_tape(p)
    for col, want in zip((got.ticks, got.value, got.volume), _one_shot_tape(p)):
        assert col.tobytes() == want.tobytes()


def test_gen_tape_hands_its_columns_to_the_tape_without_a_copy():
    """The tape takes over the three columns gen_tape builds: the peak is
    those columns and one block of draws (2.6 MB at 100k ticks), where a
    copy of each column put it at 4.9 MB."""
    n = 100_000
    p = params(length_ticks=n, persistence_a_ticks=10.0, persistence_b_ticks=40.0)
    tracemalloc.start()
    try:
        gen_tape(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * n


def test_gen_and_write_memory_is_bounded_by_blocks():
    """Generating and writing 100k ticks holds the tape's columns and one
    block of draws and of text, about 5.6 MB; whole Python-float paths and
    the whole CSV text, then written at once, peaked at 22.4 MB."""
    p = params(length_ticks=100_000, persistence_a_ticks=10.0, persistence_b_ticks=40.0)
    tracemalloc.start()
    try:
        tape.write_csv(gen_tape(p), Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
