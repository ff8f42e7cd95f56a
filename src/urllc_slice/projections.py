"""Euclidean projection used by the projected-gradient placement solver."""

from __future__ import annotations

import numpy as np


def project_box_halfspace(
    y: np.ndarray,
    a: np.ndarray,
    floor: float,
    upper: np.ndarray,
) -> np.ndarray:
    """Project ``y`` onto {x : 0 <= x <= upper, a @ x >= floor} with a >= 0.

    The KKT point is clip(y + lam * a, 0, upper) for the smallest lam >= 0
    meeting the floor. g(lam) = a @ clip(y + lam * a, 0, upper) is piecewise
    linear and nondecreasing with breakpoints where a coordinate enters the
    box interior or saturates, so lam solves exactly on one segment.
    Requires the set to be nonempty (a @ upper >= floor).
    """
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), y.shape)
    x = np.clip(y, 0.0, upper)
    if a @ x >= floor:
        return x
    if a @ upper < floor:
        raise ValueError("infeasible projection: a @ upper < floor")

    pos = a > 0.0
    bps = np.concatenate(((-y[pos] / a[pos]), (upper[pos] - y[pos]) / a[pos]))
    bps = np.unique(bps[bps > 0.0])

    def g(lam: float) -> float:
        return float(a @ np.clip(y + lam * a, 0.0, upper))

    g_bps = (np.clip(y[None, :] + bps[:, None] * a[None, :], 0.0, upper) @ a)
    hit = np.flatnonzero(g_bps >= floor)
    if hit.size == 0:
        # beyond the last breakpoint g is constant at its feasible maximum
        return np.clip(y + bps[-1] * a, 0.0, upper)
    j = int(hit[0])
    lam_lo = 0.0 if j == 0 else float(bps[j - 1])
    lam_hi = float(bps[j])
    g_lo = g(lam_lo)
    mid = 0.5 * (lam_lo + lam_hi)
    z = y + mid * a
    free = (z > 0.0) & (z < upper)
    slope = float((a[free] ** 2).sum())
    lam = lam_hi if slope <= 0.0 else min(lam_hi, lam_lo + (floor - g_lo) / slope)
    out = np.clip(y + lam * a, 0.0, upper)
    # guard against float shortfall right at the segment solution
    while a @ out < floor and lam < lam_hi:
        lam = min(lam_hi, lam + max(1e-16, 1e-12 * (lam_hi - lam_lo)))
        out = np.clip(y + lam * a, 0.0, upper)
    return out
