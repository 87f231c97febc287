"""Averaging-window planning over a trade tape.

Windows have odd width N ticks and centers that advance by the moving
average lag step.  Only windows fully contained in the tape span are
emitted; windows with fewer records than ``min_trades`` are flagged
invalid rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoDataError
from .tape import TradeRecord, TradeTape


@dataclass(frozen=True)
class WindowSpec:
    """Window width N (odd, in ticks), center stride and validity floor."""

    n_ticks: int
    lag_step_ticks: int
    min_trades: int = 1

    def __post_init__(self):
        if self.n_ticks < 1 or self.n_ticks % 2 == 0:
            raise ValueError(f"window width must be odd and >= 1, got {self.n_ticks}")
        if not (1 <= self.lag_step_ticks <= self.n_ticks):
            raise ValueError(
                f"lag step must satisfy 1 <= step <= {self.n_ticks}, got {self.lag_step_ticks}"
            )
        if self.min_trades < 1:
            raise ValueError(f"min_trades must be >= 1, got {self.min_trades}")

    def check_max_lag(self, max_lag_ticks: int) -> None:
        """Raise ValueError unless the largest swept lag is a nonnegative multiple of the step."""
        if max_lag_ticks < 0 or max_lag_ticks % self.lag_step_ticks != 0:
            raise ValueError("max lag must be a nonnegative multiple of the lag step")

    def valid(self, counts):
        """Whether a window of ``counts`` records (an int, or an array of
        counts) is valid: it holds at least ``min_trades`` records."""
        return counts >= self.min_trades

    @property
    def half_width(self) -> int:
        return (self.n_ticks - 1) // 2


@dataclass(frozen=True)
class Window:
    """Resolved window: center, member ticks (every tape tick inside it), validity."""

    center_tick: int
    member_ticks: tuple[int, ...]
    valid: bool

    @property
    def count(self) -> int:
        return len(self.member_ticks)


def window_grid(tape: TradeTape, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers (multiples of the lag step) of the windows fully inside the tape.

    Also returns, per center, the [lo, hi) range of its rows in the tape columns.
    """
    h, step = spec.half_width, spec.lag_step_ticks
    k_lo = -(-(tape.first_tick + h) // step)
    k_hi = (tape.last_tick - h) // step
    centers = np.arange(k_lo, k_hi + 1, dtype=np.int64) * step
    lo = np.searchsorted(tape.ticks, centers - h)
    hi = np.searchsorted(tape.ticks, centers + h, side="right")
    return centers, lo, hi


def nonempty_grid(tape: TradeTape, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``window_grid``, or NoDataError when the tape has no window at all."""
    grid = window_grid(tape, spec)
    if not len(grid[0]):
        raise NoDataError("tape span shorter than the averaging window")
    return grid


def plan_windows(tape: TradeTape, spec: WindowSpec) -> list[Window]:
    """Windows centered at multiples of the lag step, fully inside the tape.

    Returns an empty list when the tape span is shorter than the window.
    """
    centers, lo, hi = window_grid(tape, spec)
    return [
        Window(c, tuple(tape.ticks[a:b].tolist()), valid=spec.valid(b - a))
        for c, a, b in zip(centers.tolist(), lo.tolist(), hi.tolist())
    ]


def members(window: Window, tape: TradeTape) -> list[TradeRecord | None]:
    """Records at the window's member ticks, in their order; None for a tick not on the tape."""
    rows, found = tape._find(np.array(window.member_ticks, dtype=np.int64))
    cols = (col[rows[found]].tolist() for col in (tape.ticks, tape.value, tape.volume))
    recs = map(TradeRecord, *cols)
    return [next(recs) if f else None for f in found.tolist()]
