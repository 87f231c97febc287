"""Averaging-window planning over a trade tape.

Windows have odd width N ticks and centers that advance by the moving
average lag step.  Only windows fully contained in the tape span are
emitted; windows with fewer records than ``min_trades`` are flagged
invalid rather than dropped.  ``valid_grid`` is the one plan the commands
share: it names why a tape has no window, or no valid one.
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
    # Python ints: a window wider than the int64 range leaves no center.
    k_lo = -(-(tape.first_tick + h) // step)
    k_hi = (tape.last_tick - h) // step
    if k_lo > k_hi:
        return (np.empty(0, dtype=np.int64),) * 3
    count = k_hi - k_lo + 1
    # np.arange raises for fewer centers, but returns no center from 2**63 on.
    if count * np.dtype(np.uint64).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"the window grid has {count} centers, more than an array can hold")
    # Each center's offset from the first fits uint64, and uint64 arithmetic
    # wraps modulo 2**64, so the int64 view is exact even for a step past int64.
    offsets = np.arange(count, dtype=np.uint64) * step
    centers = (offsets + k_lo * step % 2**64).view(np.int64)
    lo = np.searchsorted(tape.ticks, centers - h)
    hi = np.searchsorted(tape.ticks, centers + h, side="right")
    return centers, lo, hi


def valid_grid(tape: TradeTape, spec: WindowSpec) -> tuple[np.ndarray, ...]:
    """``window_grid``'s centers, lo and hi, and the mask of its valid windows.

    Raises NoDataError naming the first cause that leaves no valid window:
    a span shorter than the window, no lag-step multiple that fits as a
    center, or no window that holds ``min_trades`` records.
    """
    centers, lo, hi = window_grid(tape, spec)
    if not len(centers):
        if tape.last_tick - tape.first_tick + 1 < spec.n_ticks:
            raise NoDataError("tape span shorter than the averaging window")
        raise NoDataError(f"no window fits at a multiple of the lag step ({spec.lag_step_ticks})")
    valid = spec.valid(hi - lo)
    if not valid.any():
        raise NoDataError("no valid windows on this tape")
    return centers, lo, hi, valid


def plan_windows(tape: TradeTape, spec: WindowSpec) -> list[Window]:
    """Windows centered at multiples of the lag step, fully inside the tape.

    Returns an empty list when no window fits.
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
