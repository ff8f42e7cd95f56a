"""Proportional-fair RB assignment for broadband users.

``solve_fractional`` maximizes the sum of log mean rates over the relaxed
assignment polytope (per-RB user shares in [0,1] summing to at most 1). The
objective sum_u log(c_u * phi_u) splits into sum_u log c_u + sum_u log phi_u,
so the rate coefficients c_u (channel gains and puncture weights alike) do not
move the maximizer: every active user gets an equal share of every RB.
``round_to_binary`` turns a fractional assignment into a whole-RB assignment
by greedy largest-remaining-claim rounding, memoized on its inputs because
equal-share inputs repeat from round to round and slot to slot.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .model import (
    ChannelRealization,
    PunctureWeights,
    SchedulingMatrix,
    SystemConfig,
    _weights_vec,
    spectral_efficiencies,
)

logger = logging.getLogger(__name__)

# Distinct (bandwidth, fractional assignment) inputs kept by round_to_binary;
# a run sees one per active set, so a handful suffices.
_ROUNDING_CACHE_SIZE = 8


def rate_coefficients(
    cfg: SystemConfig,
    chan: ChannelRealization,
    weights: PunctureWeights | np.ndarray | None = None,
) -> np.ndarray:
    """Per-user mean rate per Hz of assigned bandwidth: spectral efficiency
    discounted by the expected puncturing loss."""
    eff = spectral_efficiencies(cfg, chan)[0]
    if weights is None:
        return eff.copy()
    return _array_rate_coefficients(eff, _weights_vec(weights), cfg.expected_load_fraction())


def _array_rate_coefficients(eff: np.ndarray, w: np.ndarray, load_fraction: float) -> np.ndarray:
    """``rate_coefficients`` from the spectral efficiencies and weights themselves."""
    return eff * (1.0 - w * load_fraction)


def active_user_mask(
    cfg: SystemConfig,
    chan: ChannelRealization,
    weights: PunctureWeights | np.ndarray | None = None,
) -> np.ndarray:
    """Users with a positive rate coefficient; the rest cannot appear inside a
    log objective and are excluded with zero bandwidth."""
    return rate_coefficients(cfg, chan, weights) > 0.0


def proportional_fair_objective(
    cfg: SystemConfig,
    chan: ChannelRealization,
    mat: SchedulingMatrix,
    weights: PunctureWeights | np.ndarray | None = None,
) -> float:
    """Sum of log mean rates over active users (natural log)."""
    coeff = rate_coefficients(cfg, chan, weights)
    active = coeff > 0.0
    phi = mat.user_bandwidth(cfg.rb_bandwidth)
    vals = phi[active] * coeff[active]
    if np.any(vals <= 0.0):
        return -np.inf
    return float(np.log(vals).sum())


def solve_fractional(
    cfg: SystemConfig,
    chan: ChannelRealization,
    weights: PunctureWeights | np.ndarray | None = None,
) -> SchedulingMatrix:
    """Fractional proportional-fair assignment in closed form.

    Every active user holds a 1/n_active share of every RB, which gives each
    the same bandwidth whatever its rate coefficient. Degenerate users (zero
    gain, or fully punctured in expectation) are excluded with zero bandwidth
    and logged rather than crashing the log objective.
    """
    active = active_user_mask(cfg, chan, weights)
    n_active = np.count_nonzero(active)
    if n_active < cfg.num_embb_users:
        logger.warning(
            "excluding %d degenerate user(s) from scheduling: %s",
            cfg.num_embb_users - n_active,
            np.flatnonzero(~active).tolist(),
        )
    return _equal_shares(cfg, active)


def _equal_shares(cfg: SystemConfig, active: np.ndarray) -> SchedulingMatrix:
    """``solve_fractional``'s assignment for the users in ``active``: a
    1/n_active share of every RB each."""
    n_active = np.count_nonzero(active)
    share = np.where(active, 1.0 / n_active, 0.0) if n_active else np.zeros(cfg.num_embb_users)
    entries = np.empty((cfg.num_rbs, cfg.num_embb_users))
    entries[:] = share
    return SchedulingMatrix(entries)


def round_to_binary(frac: SchedulingMatrix, cfg: SystemConfig) -> SchedulingMatrix:
    """Assign each RB wholly to one user by greedy rounding.

    RBs are visited in descending bandwidth order; each goes to the user with
    the largest remaining fractional bandwidth claim among users holding a
    positive fractional share of that RB (an all-zero RB column stays
    unassigned). Ties break toward the lower user index. Per-user bandwidth
    lands within max(rb_bandwidth) of the fractional allocation. The result
    depends only on ``rb_bandwidth`` and the fractional entries and is
    memoized on them; each call returns a fresh matrix. A matrix that repeats
    one row on every RB, as ``solve_fractional``'s 1/n_active shares on the
    active users do, is keyed on that row alone, so the key costs O(U) bytes
    rather than O(B*U).
    """
    f_b = np.ascontiguousarray(cfg.rb_bandwidth, dtype=float)
    e = np.ascontiguousarray(frac.entries, dtype=float)
    rows = e[:1] if e.ndim == 2 and e.shape[0] and (e == e[0]).all() else e
    return SchedulingMatrix(_greedy_rounding(f_b.tobytes(), e.shape, rows.tobytes()).copy())


@functools.lru_cache(maxsize=_ROUNDING_CACHE_SIZE)
def _greedy_rounding(f_b_bytes: bytes, shape: tuple, rows_bytes: bytes) -> np.ndarray:
    f_b = np.frombuffer(f_b_bytes)
    # a contiguous copy, so the claims are summed exactly as for the caller's matrix
    frac = np.broadcast_to(np.frombuffer(rows_bytes).reshape(-1, *shape[1:]), shape).copy()
    claims = f_b @ frac
    entries = np.zeros(shape)
    order = np.argsort(-f_b, kind="stable")
    for b in order:
        eligible = frac[b] > 0.0
        if not np.any(eligible):
            continue
        masked = np.where(eligible, claims, -np.inf)
        winner = int(np.argmax(masked))
        entries[b, winner] = 1.0
        claims[winner] -= f_b[b]
    return entries
