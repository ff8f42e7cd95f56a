"""Puncturing-weight placement for a fixed RB assignment.

``solve_placement`` maximizes the sum of log mean broadband rates minus a
risk penalty on their total, subject to the relaxed reliability floor on the
mean URLLC rate (a linear constraint) and per-user box bounds. The two
auxiliary risk variables are eliminated analytically: minimizing
``gamma + excess/(1-alpha)`` subject to ``excess >= E[R] - gamma, excess >= 0``
pins ``gamma`` to the mean total rate and ``excess`` to zero, leaving a
separable concave problem in the weights alone. Its KKT point is a
water-filling in the one floor multiplier, found exactly by a breakpoint
search and a Newton solve on one segment.

``solve_baseline1`` is the same problem with the risk penalty off;
``solve_baseline2`` maximizes the linear sum of mean rates instead, which a
greedy exchange argument solves exactly: puncture users in ascending order of
spectral efficiency until the reliability floor holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ChannelRealization,
    PunctureWeights,
    SchedulingMatrix,
    SystemConfig,
    _weights_vec,
    spectral_efficiencies,
)

# Newton aims this far (relative) above the reliability floor, so its iterates,
# which approach their target from below, cross the floor after finitely many
# steps; the returned weights meet the floor and exceed it by about this much.
_REL_TOL = 1e-13


@dataclass
class PlacementSolution:
    """Solver output. When ``feasible`` is False even full puncturing cannot
    meet the reliability floor; ``weights`` then holds the full-puncture
    fallback and ``max_achievable_urllc_rate`` the best attainable mean rate.
    """

    weights: PunctureWeights
    feasible: bool
    objective: float
    max_achievable_urllc_rate: float
    iterations: int = 0


@dataclass
class _Problem:
    """Precomputed coefficients of the placement problem for one slot."""

    phi: np.ndarray            # Hz per user
    rate_per_hz: np.ndarray    # unpunctured bits/s/Hz per user
    rate: np.ndarray           # unpunctured bits/s per user, phi * rate_per_hz
    load_fraction: float       # mean load / l_max; scales every weight
    floor: float               # required mean URLLC rate, bits/s
    floor_coeff: np.ndarray    # mean URLLC rate contributed per unit weight
    caps: np.ndarray           # per-user upper bounds keeping mean rates > 0
    active: np.ndarray         # users that appear in the log objective
    penalty: float             # risk weight / risk rate scale, 1/(bits/s)


def _build_problem(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> _Problem:
    phi = mat.user_bandwidth(cfg.rb_bandwidth)
    return _array_problem(cfg, phi, *spectral_efficiencies(cfg, chan))


def _array_problem(cfg: SystemConfig, phi: np.ndarray, eff: np.ndarray, urllc_eff: float) -> _Problem:
    """The placement problem of user bandwidths ``phi`` at broadband spectral
    efficiencies ``eff`` and mean URLLC spectral efficiency ``urllc_eff``."""
    kappa = cfg.expected_load_fraction()
    cap = min(1.0, (1.0 - 1e-12) / kappa) if kappa > 0 else 1.0
    return _Problem(
        phi=phi,
        rate_per_hz=eff,
        rate=phi * eff,
        load_fraction=kappa,
        floor=cfg.markov_rate_floor() if cfg.puncture_prob > 0 else 0.0,
        floor_coeff=phi * kappa * urllc_eff,
        caps=np.full(cfg.num_embb_users, cap),
        active=(phi > 0.0) & (eff > 0.0),
        penalty=cfg.risk_weight / cfg.risk_rate_scale,
    )


def _active_rates(prob: _Problem, w: np.ndarray) -> np.ndarray:
    """Mean rates of the users in the log objective."""
    return (prob.rate * (1.0 - prob.load_fraction * w))[prob.active]


def _objective(rates: np.ndarray, total: float, penalty: float) -> float:
    if (rates <= 0.0).any():
        return -np.inf
    return float(np.log(rates).sum() - penalty * total)


def placement_objective(
    cfg: SystemConfig,
    chan: ChannelRealization,
    mat: SchedulingMatrix,
    weights: PunctureWeights | np.ndarray,
) -> float:
    """Objective value of the placement problem at the given weights (risk
    variables at their pinned optimum)."""
    return _problem_objective(_build_problem(cfg, chan, mat), _weights_vec(weights))


def _problem_objective(prob: _Problem, w: np.ndarray) -> float:
    """``placement_objective`` of a built problem."""
    rates = _active_rates(prob, w)
    return _objective(rates, float(rates.sum()), prob.penalty)


def _finish(prob: _Problem, w: np.ndarray, feasible: bool, iters: int) -> PlacementSolution:
    rates = _active_rates(prob, w)
    mean_total = float(rates.sum())
    return PlacementSolution(
        weights=PunctureWeights(weights=w, var_level=mean_total, excess=0.0),
        feasible=feasible,
        objective=_objective(rates, mean_total, prob.penalty),
        max_achievable_urllc_rate=float(prob.floor_coeff @ prob.caps),
        iterations=iters,
    )


def solve_placement(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> PlacementSolution:
    """Risk-aware puncturing weights for a fixed assignment matrix.

    With ``c_u`` the unpunctured rate coefficient, ``d_u`` the floor
    coefficient and ``s_u = kappa*penalty*c_u/d_u``, stationarity of the
    Lagrangian gives each active user ``w_u(lam) = clip(1/kappa -
    1/(d_u*(s_u + lam)), 0, cap_u)`` for the floor multiplier ``lam >= 0``.
    If ``lam = 0`` already meets the floor it is optimal (users with
    ``penalty*c_u > 1`` puncture voluntarily). Otherwise the floor binds:
    ``d @ w(lam)`` rises through the sorted breakpoints where users leave 0 or
    reach their caps, and on the bracketing segment ``sum_free 1/(s_u + lam)``
    is convex and decreasing in ``lam``, so Newton's method from the
    segment's left end climbs to the root without overshooting. It aims
    ``_REL_TOL`` above the floor and stops at the first iterate that meets
    the floor, which keeps the result feasible; with the penalty off, the
    start is already the root of the floor itself. Users outside the log
    objective cost nothing, so any positive multiplier sends them to their
    caps. ``iterations`` counts the Newton steps.
    """
    return _solve(_build_problem(cfg, chan, mat))


def _solve(prob: _Problem) -> PlacementSolution:
    """The water-filling of ``solve_placement`` on a built problem; the risk
    penalty enters only through ``prob.penalty``."""
    w = np.zeros(prob.caps.size)
    if prob.floor <= 0.0:
        return _finish(prob, w, feasible=True, iters=0)
    if float(prob.floor_coeff @ prob.caps) < prob.floor:
        return _finish(prob, prob.caps.copy(), feasible=False, iters=0)

    kappa, a = prob.load_fraction, prob.active
    d, cap = prob.floor_coeff[a], prob.caps[a]
    s = kappa * prob.penalty * prob.rate[a] / d

    def active_weights(lam):
        with np.errstate(divide="ignore"):  # s + lam = 0: weight clips to 0
            return np.clip(1.0 / kappa - 1.0 / (d * (s + lam)), 0.0, cap)

    w[a] = active_weights(0.0)
    if prob.floor_coeff @ w >= prob.floor:
        return _finish(prob, w, feasible=True, iters=0)

    outside = ~a & (prob.floor_coeff > 0.0)
    w[outside] = prob.caps[outside]
    fixed = float(prob.floor_coeff[outside] @ prob.caps[outside])
    enter = kappa / d - s
    full = 1.0 / (d * (1.0 / kappa - cap)) - s
    bps = np.sort(np.concatenate((enter, full)))
    bps = bps[bps > 0.0]
    if bps.size == 0 or d @ w[a] + fixed >= prob.floor:
        return _finish(prob, w, feasible=True, iters=0)

    at_bps = active_weights(bps[:, None]) @ d + fixed
    k = min(int(np.count_nonzero(at_bps < prob.floor)), bps.size - 1)
    lam_lo, lam_hi = (float(bps[k - 1]) if k else 0.0), float(bps[k])
    free, capped = (enter <= lam_lo) & (full >= lam_hi), full <= lam_lo
    if not free.any():
        # Only rounding leaves the segment without a free user: with 1/kappa
        # far above the caps, a user's two breakpoints can coincide or swap,
        # and active_weights cancels to 0 or to its cap. The supply then
        # jumps at lam_hi, where every user whose cap point is reached holds
        # its cap.
        w[a] = np.where(full <= lam_hi, cap, 0.0)
        return _finish(prob, w, feasible=bool(prob.floor_coeff @ w >= prob.floor), iters=0)
    s_free = s[free]
    target = d[free].sum() / kappa + d[capped] @ cap[capped] + fixed - prob.floor
    # At the root sum_free 1/(s_u + lam) = target, which is at least
    # n_free/(max s + lam) and at least 1/(min s + lam): both bound lam below.
    lam = max(lam_lo, s_free.size / target - s_free.max(), 1.0 / target - s_free.min())
    goal = prob.floor * (1.0 + _REL_TOL)
    iters = 0
    while True:
        w[a] = active_weights(lam)
        supplied = float(prob.floor_coeff @ w)
        if supplied >= prob.floor:
            break
        iters += 1
        slope = float(np.sum((s_free + lam) ** -2.0))
        # at least one ulp a step, in case rounding makes the Newton step vanish
        lam = max(lam + (goal - supplied) / slope, float(np.nextafter(lam, np.inf)))
    return _finish(prob, w, feasible=True, iters=iters)


def solve_baseline1(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> PlacementSolution:
    """Placement without the risk penalty (risk weight zero): pure
    proportional fairness, which punctures everyone as little and as evenly
    as the reliability floor allows."""
    return _solve(replace(_build_problem(cfg, chan, mat), penalty=0.0))


def solve_baseline2(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> PlacementSolution:
    """Linear sum-rate-maximizing placement.

    Puncturing user u costs mean rate in proportion to its spectral
    efficiency but buys floor coverage in proportion to its bandwidth alone,
    so the exact optimum loads users in ascending spectral-efficiency order
    (low-rate users first), stable by index, until the floor is met.
    """
    prob = _build_problem(cfg, chan, mat)
    w = np.zeros(cfg.num_embb_users)
    if prob.floor <= 0.0:
        return _finish(prob, w, feasible=True, iters=0)
    if float(prob.floor_coeff @ prob.caps) < prob.floor:
        return _finish(prob, prob.caps.copy(), feasible=False, iters=0)

    need = prob.floor
    for u in np.argsort(prob.rate_per_hz, kind="stable"):
        if need <= 0.0:
            break
        if prob.floor_coeff[u] <= 0.0:
            continue
        w[u] = min(prob.caps[u], need / prob.floor_coeff[u])
        need -= prob.floor_coeff[u] * w[u]
    return _finish(prob, w, feasible=True, iters=0)
