"""Deterministic synthetic tapes with controllable correlation scales.

Two independent stationary AR(1) processes drive log levels; levels are
their exponentials, which keeps prices and volumes strictly positive and
leaves a closed-form reference autocovariance for the logs.  In
price_volume mode the tape's price and volume are independent by
construction; value_volume mode instead makes value and volume the
independent pair, which decouples the value correlation scale from the
volume scale.

Randomness comes from NumPy's PCG64 seeded through SeedSequence(seed)
spawning one child stream per process, so identical seeds reproduce tapes
bit-for-bit across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tape import TradeTape

MODES = ("price_volume", "value_volume")


@dataclass(frozen=True)
class SynthParams:
    """Generator parameters; a/b are the two log-level AR(1) processes.

    In price_volume mode a drives the price and b the volume; in
    value_volume mode a drives the value.  Persistence is the e-folding
    scale in ticks; sigma the stationary standard deviation of the log.
    """

    mode: str
    length_ticks: int
    persistence_a_ticks: float
    persistence_b_ticks: float
    sigma_a: float = 0.1
    sigma_b: float = 0.1
    mean_a: float = 0.0
    mean_b: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("persistence_a_ticks", "persistence_b_ticks"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        for name in ("sigma_a", "sigma_b", "mean_a", "mean_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.length_ticks < 2:
            raise ValueError(f"length must be >= 2, got {self.length_ticks}")
        if self.persistence_a_ticks <= 0 or self.persistence_b_ticks <= 0:
            raise ValueError("persistence scales must be positive")
        if self.sigma_a < 0 or self.sigma_b < 0:
            raise ValueError("sigmas must be nonnegative")


#: Normal draws taken from the generator at a time.  PCG64 draws in chunks
#: are the same numbers as one draw of the whole path.
DRAW_BLOCK = 4096


def _ar1_log_levels(
    rng: np.random.Generator, n: int, persistence: float, sigma: float, mean: float
) -> np.ndarray:
    """Stationary AR(1) path: phi = exp(-1/persistence), sd sigma, mean mean."""
    phi = math.exp(-1.0 / persistence)
    innov_sd = sigma * math.sqrt(1.0 - phi * phi)
    x = np.empty(n)
    # The loop runs on Python floats: the same double operations as on
    # numpy scalars, in the same order, but without their overhead.
    z = rng.standard_normal(min(DRAW_BLOCK, n)).tolist()
    prev = x[0] = mean + sigma * z[0]
    done, z = 1, z[1:]
    while z:
        x[done:done + len(z)] = [prev := mean + phi * (prev - mean) + innov_sd * zi for zi in z]
        done += len(z)
        z = rng.standard_normal(min(DRAW_BLOCK, n - done)).tolist()
    return x


def gen_tape(params: SynthParams) -> TradeTape:
    """Dense tape on ticks 0..length-1; identical seeds give identical tapes."""
    seq_a, seq_b = np.random.SeedSequence(params.seed).spawn(2)
    a = _ar1_log_levels(
        np.random.Generator(np.random.PCG64(seq_a)),
        params.length_ticks,
        params.persistence_a_ticks,
        params.sigma_a,
        params.mean_a,
    )
    volume = _ar1_log_levels(
        np.random.Generator(np.random.PCG64(seq_b)),
        params.length_ticks,
        params.persistence_b_ticks,
        params.sigma_b,
        params.mean_b,
    )
    # Levels are taken in place.  A level that overflows to inf is left to
    # the tape's own check.
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
        np.exp(volume, out=volume)
        if params.mode == "price_volume":
            np.multiply(a, volume, out=a)
    return TradeTape._owning(np.arange(params.length_ticks), a, volume)


def theoretical_log_acf(persistence_ticks: float, sigma: float, lag_ticks: int) -> float:
    """Autocovariance of the stationary log-level AR(1) at the given lag."""
    if persistence_ticks <= 0:
        raise ValueError("persistence must be positive")
    return sigma * sigma * math.exp(-lag_ticks / persistence_ticks)
