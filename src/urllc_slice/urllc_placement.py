"""Puncturing-weight placement for a fixed RB assignment.

``solve_placement`` maximizes the sum of log mean broadband rates minus a
risk penalty on their total, subject to the relaxed reliability floor on the
mean URLLC rate (a linear constraint) and per-user box bounds. The two
auxiliary risk variables are eliminated analytically: minimizing
``gamma + excess/(1-alpha)`` subject to ``excess >= E[R] - gamma, excess >= 0``
pins ``gamma`` to the mean total rate and ``excess`` to zero, leaving a
separable concave problem in the weights alone. Its KKT point is a
water-filling in the one floor multiplier (derived in ``solve_placement``),
found exactly by a breakpoint search and a Newton solve on one segment.

``solve_baseline1`` is the same problem with the risk penalty off;
``solve_baseline2`` maximizes the linear sum of mean rates instead, which a
greedy exchange argument solves exactly: puncture users in ascending order of
spectral efficiency until the reliability floor holds.

``_solve_rows`` and ``_baseline2_rows`` solve S slots' problems as S x U
arrays; the per-slot functions are their one-row calls (``_slot_rows``).
``_solve_rows`` computes the multiplier's fixed-shape terms and every row's
breakpoint bracket (``_brackets``) once for all the rows that need it, over
every user of a row; ``_multiplier_step`` solves each row's bracketing
segment, and every floor test sums the supply as one dot over the row.
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


def _slot_rows(cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix):
    """One slot's placement problem as a chunk of one row: the configuration
    terms, the user bandwidths and the 1 x U and 1 spectral efficiencies."""
    eff, urllc_eff = spectral_efficiencies(cfg, chan)
    return _config_terms(cfg), mat.user_bandwidth(cfg.rb_bandwidth), eff[None, :], np.array([urllc_eff])


def _log_users(phi: np.ndarray, eff: np.ndarray) -> np.ndarray:
    """The users in the log objective, of positive bandwidth and spectral
    efficiency: one U mask when every row of the S x U ``eff`` has the same
    (every one-row call does), else one mask a row (S x U)."""
    active = (phi > 0.0) & (eff > 0.0)
    return active[0] if len(active) and (active == active[0]).all() else active


def placement_objective(
    cfg: SystemConfig,
    chan: ChannelRealization,
    mat: SchedulingMatrix,
    weights: PunctureWeights | np.ndarray,
) -> float:
    """Objective value of the placement problem at the given weights (risk
    variables at their pinned optimum)."""
    terms, phi, eff, _ = _slot_rows(cfg, chan, mat)
    w = _weights_vec(weights)[None, :]
    return _row_objectives(phi * eff, w, terms.load_fraction, terms.penalty, _log_users(phi, eff))[0].item(0)


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
    caps. ``iterations`` counts the Newton steps. This is ``_solve_rows`` on
    the slot's one row.
    """
    return _solve_rows(*_slot_rows(cfg, chan, mat)).solution(0)


def _multiplier_step(kappa, floor, cap, w, d, s, enter, full, bracket):
    """The feasibility and Newton-step count of one placement problem whose
    ``lam = 0`` weights miss the floor (or supply NaN): ``solve_placement``'s
    solve on the segment ``bracket = (lam_lo, lam_hi)`` that ``_brackets``
    found, which writes the row's weights into ``w`` (None, where the search
    stops, keeps them). Every other argument holds every user of the row:
    their caps, floor coefficients, penalties and entry and cap breakpoints,
    as ``_solve_rows`` computes them, ``w`` the ``lam = 0`` weights with the
    users outside the log objective at their caps. Every floor test sums the
    supply as one dot over the row, so the search, the early exit, the
    no-free-user branch and Newton round it alike. It runs inside
    ``_solve_rows``'s ``np.errstate``, which its ``_weights_at`` calls
    need."""
    if bracket is None:
        return True, 0
    lam_lo, lam_hi = bracket
    free, capped = (enter <= lam_lo) & (full >= lam_hi), full <= lam_lo
    if not free.any():
        # Only rounding leaves the segment without a free user: with 1/kappa
        # far above the caps, a user's two breakpoints can coincide or swap,
        # and its weight cancels to 0 or to its cap. The supply then jumps at
        # lam_hi, where every user whose cap point is reached holds its cap.
        # Where that misses the floor, rounding may still leave the user
        # entering at lam_hi a weight of a few ulps there: the weights at
        # lam_hi supply what the search found there, which meets the floor.
        w[:] = np.where(full <= lam_hi, cap, 0.0)
        if not d @ w >= floor:
            w[:] = _weights_at(kappa, d, s, lam_hi, cap)
        return bool(d @ w >= floor), 0
    s_free = s[free]
    target = d[free].sum() / kappa + d[capped] @ cap[capped] - floor
    # At the root sum_free 1/(s_u + lam) = target, which is at least
    # n_free/(max s + lam) and at least 1/(min s + lam): both bound lam below.
    lam = max(lam_lo, s_free.size / target - s_free.max(), 1.0 / target - s_free.min())
    goal = floor * (1.0 + _REL_TOL)
    iters = 0
    while True:
        w[:] = _weights_at(kappa, d, s, lam, cap)
        supplied = float(d @ w)
        if supplied >= floor:
            break
        iters += 1
        slope = float(((s_free + lam) ** -2.0).sum())
        # at least one ulp a step, in case rounding makes the Newton step vanish
        lam = max(lam + (goal - supplied) / slope, float(np.nextafter(lam, np.inf)))
    return True, iters


# The breakpoint search holds a block of rows' weights at their positive
# breakpoints, at most 2U x U values a row, as the per-row search held one
# row's: up to 3 200 at 40 users. Blocks of 4 096 values keep it that size
# (32 KiB an array) at any chunk length, and take 20 rows of 10 users at once.
_BRACKET_VALUES = 4096


def _brackets(kappa, floor, cap, d, s, bps, met):
    """The breakpoint search of every row of the R x U ``d`` and ``s``, the
    R x 2U sorted breakpoints ``bps`` and the R early-exit tests ``met``:
    each row's index k among its positive breakpoints of the first whose
    supply meets the floor (its last if none does), -1 where it has none or
    ``met``, and the R x 2 ends (lam_lo, lam_hi) of its bracketing segment,
    lam_lo = 0 at k = 0. Each supply is the row's ``_row_dots`` of the
    weights at one breakpoint with its ``d``, as the one-row search sums it,
    and every positive breakpoint is counted: rounding and NaN supplies are
    not monotone in lam, so no bisection."""
    take = (bps > 0.0) & ~met[:, None]
    below = np.zeros(bps.shape, dtype=bool)
    block = max(1, _BRACKET_VALUES // bps[0].size // d[0].size)
    for b in range(0, len(bps), block):
        rows = slice(b, b + block)
        r = b + np.nonzero(take[rows])[0]
        lam = bps[rows][take[rows]][:, None]
        below[rows][take[rows]] = _row_dots(_weights_at(kappa, d[r], s[r], lam, cap), d[r]) < floor
    k = np.minimum(np.count_nonzero(below, axis=1), np.count_nonzero(take, axis=1) - 1)
    # a row's positive breakpoints follow the others (its NaNs sort last)
    i, at = np.arange(len(bps)), np.count_nonzero(bps <= 0.0, axis=1) + k
    return k, np.stack((np.where(k > 0, bps[i, at - 1], 0.0), bps[i, at]), axis=1)


def _weights_at(kappa, d, s, lam, cap):
    """The water-filling weights ``clip(1/kappa - 1/(d*(s + lam)), 0, cap)``,
    elementwise, for a caller inside ``_solve_rows``'s ``np.errstate``, which
    silences its expected exceptions: ``s + lam = 0`` (penalty off, at
    ``lam = 0``) divides by zero and the weight clips to 0, and a load
    fraction near the smallest float overflows ``1/(d*(s + lam))``, where
    ``inf - inf`` leaves a NaN weight that meets no floor test. A load
    fraction that underflowed to 0 (every row's caps then fall below the
    floor, and its weights are discarded) divides as a NumPy float, not as a
    Python one, which would raise. The two ufuncs clip as ``np.clip`` does,
    bit for bit, NaN included: the difference is never -0.0, as ``1/kappa``
    is positive."""
    return np.minimum(np.maximum(np.float64(1.0) / kappa - 1.0 / (d * (s + lam)), 0.0), cap)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` (or ``a[i] @ b`` for a vector ``b``) for every row i of
    ``a``, through a batched ``np.matmul`` that reduces each row as ``@``
    reduces one vector, bit for bit."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _row_groups(rows: np.ndarray):
    """``np.unique(rows, axis=0, return_inverse=True)`` of the S x U boolean
    ``rows``: their distinct rows, sorted, and each row's index among them.
    Each row is sorted as one U-byte key, which orders them as ``np.unique``'s
    one field a column does, at a fraction of its cost."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1])))[:, 0]
    distinct, group = np.unique(keys, return_inverse=True)
    return distinct.view(bool).reshape(-1, rows.shape[1]), group


def _row_objectives(rate, w, kappa, penalty, active):
    """The log objective (risk variables at their pinned optimum) and the
    mean total rate of every row of the S x U ``rate`` and ``w``, the users in
    the log objective being the columns in ``active``: one U mask for every
    row, or one mask a row (S x U), taken a group of rows with equal masks at
    a time. Rows are summed only C-contiguous, as ``sum`` sums one vector:
    summing a column selection in place changes the last bit of some rows."""
    rates = rate * (1.0 - kappa * w)
    if active.ndim == 2:  # at weights 0 the group's rates pass unchanged
        objective, total = np.empty(len(rates)), np.empty(len(rates))
        masks, group = _row_groups(active)
        for g, mask in enumerate(masks):
            rows = group == g
            objective[rows], total[rows] = _row_objectives(rates[rows], 0.0, kappa, penalty, mask)
        return objective, total
    if not active.all():
        rates = np.ascontiguousarray(rates[:, active])
    total = rates.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # such rows read -inf
        objective = np.log(rates).sum(axis=1) - penalty * total
    return np.where((rates <= 0.0).any(axis=1), -np.inf, objective), total


class _Rows(NamedTuple):
    """The solutions of many placement problems, one row each."""

    weights: np.ndarray        # S x U
    feasible: np.ndarray
    objective: np.ndarray
    var_level: np.ndarray      # the mean total rate
    max_achievable_urllc_rate: np.ndarray
    iterations: np.ndarray

    def solution(self, i: int) -> PlacementSolution:
        """Row ``i`` as a ``PlacementSolution`` of Python scalars."""
        weights = PunctureWeights(self.weights[i], self.var_level.item(i), excess=0.0)
        scalars = self.feasible.item(i), self.objective.item(i), self.max_achievable_urllc_rate.item(i)
        return PlacementSolution(weights, *scalars, self.iterations.item(i))


def _solve_rows(terms: _ConfigTerms, phi: np.ndarray, eff: np.ndarray, urllc_eff: np.ndarray) -> _Rows:
    """``solve_placement`` of every row of the S x U broadband and S mean
    URLLC spectral efficiencies ``eff`` and ``urllc_eff``, at user bandwidths
    ``phi`` under a configuration's ``_config_terms`` (its penalty, 0 for
    baseline 1). The rows decided in closed form (no floor, caps below the
    floor, or the ``lam = 0`` weights meeting it) are computed together, every
    ``@`` of one row a ``_row_dots``. For the rows that need the multiplier
    the R x U penalties, breakpoints and sorted breakpoints, the early-exit
    test and the brackets (``_brackets``, in blocks of rows) are computed at
    once, over every user, and each row then goes through
    ``_multiplier_step`` on its bracket and its rows of these arrays, with
    every operand and summation order of the one-row solver. One
    ``np.errstate`` holds the ``lam = 0`` weights and the multiplier terms,
    search and loop, so every ``_weights_at`` call of the chunk runs inside
    it."""
    kappa, floor, caps, penalty = terms
    active = _log_users(phi, eff)
    rate = phi * eff
    floor_coeff = phi * kappa * urllc_eff[:, None]
    max_rate = _row_dots(floor_coeff, caps)
    w = np.zeros(eff.shape)
    feasible = np.ones(len(eff), dtype=bool)
    iterations = np.zeros(len(eff), dtype=int)
    if floor > 0.0:
        short = max_rate < floor
        # one errstate for every _weights_at call of the chunk; d = 0 (a user
        # or row not used) also divides by zero in s
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = kappa * penalty * rate / floor_coeff
            w = np.where(active, _weights_at(kappa, floor_coeff, s, 0.0, caps), 0.0)
            # not (supply >= floor): a NaN supply goes on to the multiplier
            rows = np.flatnonzero(~short & ~(_row_dots(floor_coeff, w) >= floor))
            w[short] = caps
            feasible = ~short
            if rows.size:
                # Every user of a row takes part. A user outside the log
                # objective costs nothing, so any lam > 0 sends it to its
                # cap: s = inf puts both its breakpoints at -inf (capped)
                # where its floor coefficient is positive, and it starts at
                # its cap. Without floor coverage (d = 0, or a NaN URLLC
                # efficiency) they are NaN instead, so it is never free or
                # capped, and it holds 0: where d = 0, s = 0 keeps it there.
                d, inside = floor_coeff[rows], np.broadcast_to(active, w.shape)[rows]
                held = ~inside & (d > 0.0)
                s = np.where(inside, s[rows], np.inf)
                enter, full = kappa / d - s, 1.0 / (d * (1.0 / kappa - caps)) - s
                bps = np.sort(np.concatenate((enter, full), axis=1), axis=1)
                s[~inside & ~held] = 0.0
                w[rows] = start = np.where(held, caps, w[rows])
                k, ends = _brackets(kappa, floor, caps, d, s, bps, _row_dots(d, start) >= floor)
                brackets = [e if j >= 0 else None for j, e in zip(k.tolist(), ends.tolist())]
                for i, *row in zip(rows.tolist(), d, s, enter, full, brackets):
                    # overwrites row i of w
                    feasible[i], iterations[i] = _multiplier_step(kappa, floor, caps, w[i], *row)
    objective, var_level = _row_objectives(rate, w, kappa, penalty, active)
    return _Rows(w, feasible, objective, var_level, max_rate, iterations)


def solve_baseline1(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> PlacementSolution:
    """Placement without the risk penalty (risk weight zero): pure
    proportional fairness, which punctures everyone as little and as evenly
    as the reliability floor allows. This is ``_solve_rows`` on the slot's
    one row, with the penalty off."""
    terms, phi, eff, urllc_eff = _slot_rows(cfg, chan, mat)
    return _solve_rows(terms._replace(penalty=0.0), phi, eff, urllc_eff).solution(0)


def solve_baseline2(
    cfg: SystemConfig, chan: ChannelRealization, mat: SchedulingMatrix
) -> PlacementSolution:
    """Linear sum-rate-maximizing placement.

    Puncturing user u costs mean rate in proportion to its spectral
    efficiency but buys floor coverage in proportion to its bandwidth alone,
    so the exact optimum loads users in ascending spectral-efficiency order
    (low-rate users first), stable by index, until the floor is met. This is
    ``_baseline2_rows`` on the slot's one row; its objective is the proposed
    placement's, at these weights.
    """
    terms, phi, eff, urllc_eff = _slot_rows(cfg, chan, mat)
    kappa, _, caps, penalty = terms
    w, feasible = _baseline2_rows(terms, phi, eff, urllc_eff)
    objective, var_level = _row_objectives(phi * eff, w, kappa, penalty, _log_users(phi, eff))
    max_rate = _row_dots(phi * kappa * urllc_eff[:, None], caps)
    return _Rows(w, feasible, objective, var_level, max_rate, np.zeros(1, dtype=int)).solution(0)


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
