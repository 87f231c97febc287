"""Brute-force reference for the lagged autocorrelation curve.

Deliberately independent of the engine: works straight from the defining
sums on (tick, value, volume) triples, with no window planning or prefix
sum machinery shared with the package.  Per window center and lag it takes
plain means over the surviving index set; the lags of one center are taken
together, as the rows of one (lags, window) index array.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_curve(records, window_n, lag_step, max_lag):
    """Per-center lagged stats, straight from the definitions.

    records: iterable of (tick, value, volume).
    Returns {(center, lag): (pair_count, b_value, b_volume, b_price)}.
    """
    ticks = [t for t, _, _ in records]
    first, last = min(ticks), max(ticks)
    size = last - first + 1 + max_lag + 1
    C = np.zeros(size)
    U = np.zeros(size)
    present = np.zeros(size, dtype=bool)
    for t, c, u in records:
        C[t - first] = c
        U[t - first] = u
        present[t - first] = True

    h = (window_n - 1) // 2
    out = {}
    taus = np.arange(0, max_lag + 1, lag_step)
    for k in range(math.ceil((first + h) / lag_step), math.floor((last - h) / lag_step) + 1):
        center = k * lag_step
        # All lags of one center at once: row j holds lag taus[j].
        idx = np.arange(center - h, center + h + 1) - first
        lagged = idx[None, :] + taus[:, None]
        mask = present[idx][None, :] & present[lagged]
        n = mask.sum(axis=1)
        c_now = np.where(mask, C[idx][None, :], 0.0)
        u_now = np.where(mask, U[idx][None, :], 0.0)
        c_lag = np.where(mask, C[lagged], 0.0)
        u_lag = np.where(mask, U[lagged], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lag2_c = (c_now * c_lag).sum(axis=1) / n
            lag2_u = (u_now * u_lag).sum(axis=1) / n
            c1, c1l = c_now.sum(axis=1) / n, c_lag.sum(axis=1) / n
            u1, u1l = u_now.sum(axis=1) / n, u_lag.sum(axis=1) / n
            b_c = lag2_c - c1 * c1l
            b_u = lag2_u - u1 * u1l
            b_p = lag2_c / lag2_u - (c1 * c1l) / (u1 * u1l)
        for tau, n_j, row in zip(taus.tolist(), n.tolist(),
                                 zip(b_c.tolist(), b_u.tolist(), b_p.tolist())):
            out[(center, tau)] = (n_j, *row) if n_j else (0, None, None, None)
    return out
