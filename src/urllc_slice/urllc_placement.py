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

from dataclasses import dataclass
from typing import NamedTuple

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


class _ConfigTerms(NamedTuple):
    """The placement problem's terms that depend on the configuration alone,
    so one serves every slot of a run."""

    load_fraction: float       # kappa
    floor: float
    caps: np.ndarray           # read-only; a solution copies it
    penalty: float


def _config_terms(cfg: SystemConfig) -> _ConfigTerms:
    kappa = cfg.expected_load_fraction()
    cap = min(1.0, (1.0 - 1e-12) / kappa) if kappa > 0 else 1.0
    caps = np.full(cfg.num_embb_users, cap)
    caps.flags.writeable = False
    return _ConfigTerms(
        load_fraction=kappa,
        floor=cfg.markov_rate_floor() if cfg.puncture_prob > 0 else 0.0,
        caps=caps,
        penalty=cfg.risk_weight / cfg.risk_rate_scale,
    )


def _build_problem(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> _Problem:
    phi = mat.user_bandwidth(cfg.rb_bandwidth)
    return _array_problem(_config_terms(cfg), phi, *spectral_efficiencies(cfg, chan))


def _array_problem(terms: _ConfigTerms, phi: np.ndarray, eff: np.ndarray, urllc_eff: float) -> _Problem:
    """The placement problem of user bandwidths ``phi`` at broadband spectral
    efficiencies ``eff`` and mean URLLC spectral efficiency ``urllc_eff``,
    under a configuration's ``_config_terms``."""
    kappa = terms.load_fraction
    return _Problem(
        phi=phi,
        rate_per_hz=eff,
        rate=phi * eff,
        load_fraction=kappa,
        floor=terms.floor,
        floor_coeff=phi * kappa * urllc_eff,
        caps=terms.caps,
        active=(phi > 0.0) & (eff > 0.0),
        penalty=terms.penalty,
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
    penalty enters only through ``prob.penalty``. It decides the closed-form
    cases (no floor, caps below the floor, the ``lam = 0`` weights meeting
    it) and leaves the rest to ``_multiplier_step``."""
    w = np.zeros(prob.caps.size)
    if prob.floor <= 0.0:
        return _finish(prob, w, feasible=True, iters=0)
    if float(prob.floor_coeff @ prob.caps) < prob.floor:
        return _finish(prob, prob.caps.copy(), feasible=False, iters=0)

    kappa, a = prob.load_fraction, prob.active
    d = prob.floor_coeff[a]
    s = kappa * prob.penalty * prob.rate[a] / d
    w[a] = _weights_at(kappa, d, s, 0.0, prob.caps[a])
    if prob.floor_coeff @ w >= prob.floor:
        return _finish(prob, w, feasible=True, iters=0)
    return _finish(prob, *_multiplier_step(kappa, prob.floor, prob.caps, a, prob.floor_coeff, s, w))


def _multiplier_step(kappa, floor, caps, active, floor_coeff, s, w):
    """The weights, feasibility and Newton-step count of one placement
    problem whose ``lam = 0`` weights ``w`` miss the floor (or supply NaN):
    ``solve_placement``'s breakpoint search and Newton solve. ``floor_coeff``
    and ``w`` hold every user, ``s`` the users in ``active`` alone; ``w`` is
    overwritten and returned. ``kappa``, ``floor`` and ``caps`` are the
    configuration's terms."""
    d, cap = floor_coeff[active], caps[active]

    def active_weights(lam):
        return _weights_at(kappa, d, s, lam, cap)

    outside = ~active & (floor_coeff > 0.0)
    w[outside] = caps[outside]
    fixed = float(floor_coeff[outside] @ caps[outside])
    enter = kappa / d - s
    full = 1.0 / (d * (1.0 / kappa - cap)) - s
    bps = np.sort(np.concatenate((enter, full)))
    bps = bps[bps > 0.0]
    if bps.size == 0 or d @ w[active] + fixed >= floor:
        return w, True, 0

    at_bps = active_weights(bps[:, None]) @ d + fixed
    k = min(int(np.count_nonzero(at_bps < floor)), bps.size - 1)
    lam_lo, lam_hi = (float(bps[k - 1]) if k else 0.0), float(bps[k])
    free, capped = (enter <= lam_lo) & (full >= lam_hi), full <= lam_lo
    if not free.any():
        # Only rounding leaves the segment without a free user: with 1/kappa
        # far above the caps, a user's two breakpoints can coincide or swap,
        # and active_weights cancels to 0 or to its cap. The supply then
        # jumps at lam_hi, where every user whose cap point is reached holds
        # its cap.
        w[active] = np.where(full <= lam_hi, cap, 0.0)
        return w, bool(floor_coeff @ w >= floor), 0
    s_free = s[free]
    target = d[free].sum() / kappa + d[capped] @ cap[capped] + fixed - floor
    # At the root sum_free 1/(s_u + lam) = target, which is at least
    # n_free/(max s + lam) and at least 1/(min s + lam): both bound lam below.
    lam = max(lam_lo, s_free.size / target - s_free.max(), 1.0 / target - s_free.min())
    goal = floor * (1.0 + _REL_TOL)
    iters = 0
    while True:
        w[active] = active_weights(lam)
        supplied = float(floor_coeff @ w)
        if supplied >= floor:
            break
        iters += 1
        slope = float(np.sum((s_free + lam) ** -2.0))
        # at least one ulp a step, in case rounding makes the Newton step vanish
        lam = max(lam + (goal - supplied) / slope, float(np.nextafter(lam, np.inf)))
    return w, True, iters


def _weights_at(kappa, d, s, lam, cap):
    """The water-filling weights ``clip(1/kappa - 1/(d*(s + lam)), 0, cap)``,
    elementwise. Its exceptions are expected and silenced: ``s + lam = 0``
    (penalty off, at ``lam = 0``) divides by zero and the weight clips to 0,
    and a load fraction near the smallest float overflows ``1/(d*(s + lam))``,
    where ``inf - inf`` leaves a NaN weight that meets no floor test. A load
    fraction that underflowed to 0 (every row's caps then fall below the
    floor, and its weights are discarded) divides as a NumPy float, not as
    a Python one, which would raise."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.clip(np.float64(1.0) / kappa - 1.0 / (d * (s + lam)), 0.0, cap)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` (or ``a[i] @ b`` for a vector ``b``) for every row i of
    ``a``, through a batched ``np.matmul`` that reduces each row as ``@``
    reduces one vector, bit for bit."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _row_objectives(rate, w, kappa, penalty, active):
    """``_problem_objective`` and the mean total rate of every row of the S x U
    ``rate`` and ``w``, the users in the log objective being the columns in
    ``active``. Rows are summed only C-contiguous, as ``sum`` sums one vector:
    summing a column selection in place changes the last bit of some rows."""
    rates = rate * (1.0 - kappa * w)
    if not active.all():
        rates = np.ascontiguousarray(rates[:, active])
    total = rates.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # such rows read -inf
        objective = np.log(rates).sum(axis=1) - penalty * total
    return np.where((rates <= 0.0).any(axis=1), -np.inf, objective), total


class _Rows(NamedTuple):
    """``_solve``'s solutions of many placement problems, one row each."""

    weights: np.ndarray        # S x U
    feasible: np.ndarray
    objective: np.ndarray
    var_level: np.ndarray      # the mean total rate
    max_achievable_urllc_rate: np.ndarray
    iterations: np.ndarray


def _solve_rows(terms: _ConfigTerms, phi: np.ndarray, eff: np.ndarray, urllc_eff: np.ndarray) -> _Rows:
    """``_solve(_array_problem(terms, phi, eff[i], urllc_eff[i]))`` for every
    row i of the S x U ``eff`` whose entries are all positive, and the S
    ``urllc_eff``: the same values, bit for bit. The rows that ``_solve``
    decides in closed form (no floor, caps below the floor, or the
    ``lam = 0`` weights meeting it) are computed together as arrays, with
    every ``@`` of ``_solve`` and ``_finish`` a ``_row_dots``; a row that
    needs the multiplier goes through ``_multiplier_step``, one row at a
    time, on its slices of the chunk's arrays. A row with a zero (or NaN)
    efficiency, for the caller to discard, is solved at efficiencies of ones
    and no URLLC efficiency: finite, and out of the multiplier search."""
    kappa, floor, caps, penalty = terms
    ok = (eff > 0.0).all(axis=1)
    if not ok.all():
        eff, urllc_eff = np.where(ok[:, None], eff, 1.0), np.where(ok, urllc_eff, 0.0)
    rate = phi * eff
    floor_coeff = phi * kappa * urllc_eff[:, None]
    max_rate = _row_dots(floor_coeff, caps)
    w = np.zeros(eff.shape)
    feasible = np.ones(len(eff), dtype=bool)
    iterations = np.zeros(len(eff), dtype=int)
    if floor > 0.0:
        short = max_rate < floor
        active = phi > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):  # d = 0: a user or row not used
            s = kappa * penalty * rate / floor_coeff
        w = np.where(active, _weights_at(kappa, floor_coeff, s, 0.0, caps), 0.0)
        # not (supply >= floor), as in _solve: a NaN supply goes on to the multiplier
        multiplier = ~short & ~(_row_dots(floor_coeff, w) >= floor)
        w[short] = caps
        feasible = ~short
        for i in np.flatnonzero(multiplier).tolist():
            _, feasible[i], iterations[i] = _multiplier_step(  # overwrites row i of w
                kappa, floor, caps, active, floor_coeff[i], s[i, active], w[i]
            )
    objective, var_level = _row_objectives(rate, w, kappa, penalty, phi > 0.0)
    return _Rows(w, feasible, objective, var_level, max_rate, iterations)


def solve_baseline1(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> PlacementSolution:
    """Placement without the risk penalty (risk weight zero): pure
    proportional fairness, which punctures everyone as little and as evenly
    as the reliability floor allows."""
    terms = _config_terms(cfg)._replace(penalty=0.0)
    return _solve(_array_problem(terms, mat.user_bandwidth(cfg.rb_bandwidth), *spectral_efficiencies(cfg, chan)))


def solve_baseline2(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> PlacementSolution:
    """Linear sum-rate-maximizing placement.

    Puncturing user u costs mean rate in proportion to its spectral
    efficiency but buys floor coverage in proportion to its bandwidth alone,
    so the exact optimum loads users in ascending spectral-efficiency order
    (low-rate users first), stable by index, until the floor is met. This is
    ``_baseline2_rows`` on the slot's one row.
    """
    terms = _config_terms(cfg)
    eff, urllc_eff = spectral_efficiencies(cfg, chan)
    prob = _array_problem(terms, mat.user_bandwidth(cfg.rb_bandwidth), eff, urllc_eff)
    w, feasible = _baseline2_rows(terms, prob.phi, eff[None, :], np.array([urllc_eff]))
    return _finish(prob, w[0], feasible=bool(feasible[0]), iters=0)


def _baseline2_rows(terms: _ConfigTerms, phi: np.ndarray, eff: np.ndarray, urllc_eff: np.ndarray):
    """``solve_baseline2``'s weights (S x U) and feasibility (S) for every row
    i of the S x U ``eff`` and the S ``urllc_eff``, at user bandwidths
    ``phi``. The greedy takes one position of every row's stable ``argsort``
    at a time, on the rows whose need is not yet met, with the scalar
    operations of a sequential loop: a row often goes on past its partial
    user, whose share leaves a need of a few ulps, and gives the next user a
    tiny weight. A NaN takes the branch it takes in ``min(cap, need / d)``
    and ``<= 0``."""
    kappa, floor, caps, _ = terms
    d = phi * kappa * urllc_eff[:, None]
    w = np.zeros(d.shape)
    if floor <= 0.0:
        return w, np.ones(len(d), dtype=bool)
    feasible = ~(_row_dots(d, caps) < floor)
    w[~feasible] = caps
    need = np.full(len(d), floor)
    walking = np.flatnonzero(feasible)
    order = np.argsort(eff, axis=1, kind="stable")
    for k in range(d.shape[1]):
        if walking.size == 0:
            break
        u = order[walking, k]
        du = d[walking, u]
        take = ~(du <= 0.0)
        r, u, du = walking[take], u[take], du[take]
        share = need[r] / du
        weight = np.where(share < caps[u], share, caps[u])  # min(cap, share)
        w[r, u] = weight
        need[r] -= du * weight
        walking = walking[~(need[walking] <= 0.0)]
    return w, feasible
