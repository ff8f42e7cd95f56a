"""Alternating optimization: RB assignment and puncturing weights.

Starting from the initial weights, repeat: solve the fractional
proportional-fair assignment for the current weights, round it to whole RBs,
then solve the weight placement for the rounded assignment. Stops when both
blocks stop moving or after ``max_iters`` rounds.

The assignment is closed form and depends on the weights only through which
users stay active, and placement is a pure function of the configuration,
channel and assignment it is given. So a round is keyed on its active set:
when it equals the previous round's, the round reuses the previous
assignment, rounding, placement and trace values instead of computing them
again. Placement keeps every user active, so from zero puncturing the second
round repeats the first and the loop stops at its fixed point after two
rounds, having solved each block once. Given round 1's assignment
(``all_active_assignment`` when every user is active), such a run returns
those two rounds without entering the loop; ``_all_active_rounds`` computes
them for a whole chunk of slots at once, as arrays. Because rounding is
interleaved, block ascent is monotone in the objective evaluated on the
fractional assignment; the rounded objective is recorded alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .embb_scheduler import (
    _array_rate_coefficients,
    _equal_shares,
    _log_excluded,
    active_user_mask,
    round_to_binary,
    solve_fractional,
)
from .model import (
    ChannelRealization,
    ConfigError,
    SchedulingMatrix,
    SystemConfig,
    spectral_efficiencies,
)
from .urllc_placement import (
    PlacementSolution,
    _config_terms,
    _ConfigTerms,
    _row_objectives,
    _Rows,
    _solve_rows,
    placement_objective,
    solve_placement,
)

OMEGA_TOL = 1e-6


@dataclass
class TraceEntry:
    iteration: int
    fractional_objective: float
    rounded_objective: float
    weights: list[float]
    user_bandwidth: list[float]
    placement_feasible: bool


@dataclass
class AlternationTrace:
    iterations: list[TraceEntry] = field(default_factory=list)
    converged: bool = False
    reason: str = "max-iterations"

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "reason": self.reason,
            "iterations": [vars(e) for e in self.iterations],
        }


@dataclass(frozen=True)
class AllActive:
    """Round 1's assignment of a zero-initialised ``run`` whose active set is
    ``mask``, the users it leaves out, its user bandwidths (as floats in
    ``rounded_values``, which answered trace entries copy) and the placement
    problem's configuration terms: one serves every slot of a run with that
    active set. ``_row_assignments`` stacks a chunk's rows: S x U masks and
    bandwidths, the rest None but the terms."""

    mask: np.ndarray
    excluded: list | None
    binary: SchedulingMatrix | None
    fractional_bandwidth: np.ndarray
    rounded_bandwidth: np.ndarray
    rounded_values: tuple | None
    placement_terms: _ConfigTerms


def all_active_assignment(cfg: SystemConfig) -> AllActive:
    """The ``AllActive`` of ``cfg`` with every user active."""
    return _assignment(cfg, np.ones(cfg.num_embb_users, dtype=bool), _config_terms(cfg))


def _assignment(cfg: SystemConfig, mask: np.ndarray, terms: _ConfigTerms) -> AllActive:
    """The ``AllActive`` of ``cfg`` whose active set is ``mask``."""
    frac = _equal_shares(cfg, mask)
    binary = round_to_binary(frac, cfg)
    rounded = binary.user_bandwidth(cfg.rb_bandwidth)
    excluded, fractional = np.flatnonzero(~mask).tolist(), frac.user_bandwidth(cfg.rb_bandwidth)
    return AllActive(mask, excluded, binary, fractional, rounded, tuple(rounded.tolist()), terms)


def _row_assignments(cfg: SystemConfig, all_active: AllActive, eff: np.ndarray):
    """Round 1's ``AllActive`` for every row of the S x U spectral
    efficiencies ``eff``, whose active set is the row's positive ones: a list
    of one a row, made once per distinct set (``all_active`` for every user),
    and their stack for ``_all_active_rounds``."""
    positive = eff > 0.0
    if positive.all():
        return [all_active] * len(eff), all_active
    masks, group = np.unique(positive, axis=0, return_inverse=True)
    group = group.reshape(-1)  # NumPy 2.0.0 gives it a trailing axis
    distinct = [all_active if m.all() else _assignment(cfg, m, all_active.placement_terms) for m in masks]
    frac = np.array([a.fractional_bandwidth for a in distinct])[group]
    rounded = np.array([a.rounded_bandwidth for a in distinct])[group]
    stacked = AllActive(positive, None, None, frac, rounded, None, all_active.placement_terms)
    return [distinct[g] for g in group.tolist()], stacked


def _initial_weights(cfg: SystemConfig, init: str, rng) -> np.ndarray:
    if init == "zero":
        return np.zeros(cfg.num_embb_users)
    if init == "one":
        return np.ones(cfg.num_embb_users)
    if init == "random":
        if rng is None:
            raise ValueError("init='random' requires an rng")
        return rng.random(cfg.num_embb_users)
    raise ValueError(f"unknown init {init!r}")


def run(
    cfg: SystemConfig,
    chan: ChannelRealization,
    max_iters: int = 50,
    init: str = "zero",
    rng=None,
    post_round: bool = False,
    all_active: AllActive | None = None,
    row: tuple[AllActiveRounds, int] | None = None,
) -> tuple[SchedulingMatrix, PlacementSolution, AlternationTrace]:
    """Alternate assignment and placement until neither block moves.

    With ``post_round`` the placement sees the fractional assignment each
    round and rounding happens once at the end; otherwise rounding is inside
    the loop. An infeasible placement already returns its caps, each at most
    1, so they are the round's weights as they stand; the trace flags the
    round. A round whose active set equals the previous round's reuses that
    round's assignment, placement and trace values, so from ``init="zero"``
    each call solves each block once.
    ``init="one"`` with a mean load fraction of 1 or more deactivates every
    user in round 1 (an empty assignment), so there round 2 genuinely differs
    and solves again. The trace objective of the matrix that placement solved
    on is the placement's own objective; only the other matrix's is evaluated.

    ``all_active``, an ``AllActive`` of ``cfg``, lets a call from
    ``init="zero"`` skip the loop when its two rounds at that assignment
    answer the slot (``_all_active_rounds``); the matrix it returns is then
    ``all_active.binary`` itself. The result is the same, bit for bit, the
    log included. ``row``, ``(rounds, i)``, hands over those rounds when the
    caller has computed them for a chunk of slots, ``rounds`` being the
    chunk's ``_all_active_rounds`` at the same ``post_round`` and this slot
    its row ``i``; without it the call computes its own one-row case.
    """
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if all_active is not None and init == "zero" and max_iters >= 2:
        if row is None:
            eff, urllc_eff = spectral_efficiencies(cfg, chan)
            row = _all_active_rounds(all_active, eff[None, :], np.array([urllc_eff]), post_round), 0
        rounds, i = row
        if rounds.answered[i]:
            _log_excluded(all_active.excluded)
            return _answered_run(all_active, rounds, i)
    weights = _initial_weights(cfg, init, rng)
    trace = AlternationTrace()
    prev_active = None
    binary = None
    placement: PlacementSolution | None = None

    for it in range(1, max_iters + 1):
        active = active_user_mask(cfg, chan, weights)
        binary_moved = False
        if prev_active is None or not (active == prev_active).all():
            frac = solve_fractional(cfg, chan, weights)
            new_binary = round_to_binary(frac, cfg)
            # a new active set can still round to the previous assignment
            binary_moved = binary is None or not np.array_equal(
                new_binary.entries, binary.entries
            )
            binary = new_binary
            placement = solve_placement(cfg, chan, frac if post_round else binary)
            new_weights = placement.weights.weights
            other = placement_objective(cfg, chan, binary if post_round else frac, new_weights)
            objectives = (placement.objective, other) if post_round else (other, placement.objective)
            user_bandwidth = binary.user_bandwidth(cfg.rb_bandwidth).tolist()
        trace.iterations.append(
            TraceEntry(
                iteration=it,
                fractional_objective=objectives[0],
                rounded_objective=objectives[1],
                weights=new_weights.tolist(),
                user_bandwidth=list(user_bandwidth),
                placement_feasible=placement.feasible,
            )
        )
        weights_moved = float(np.abs(new_weights - weights).max())
        weights = new_weights
        prev_active = active
        if weights_moved < OMEGA_TOL and not binary_moved:
            trace.converged = True
            trace.reason = "tolerance"
            break

    return binary, placement, trace


class AllActiveRounds(NamedTuple):
    """``run``'s first two rounds from zero weights for every slot (row) of
    a chunk, as arrays: whether they answer the slot, the placement they
    solve, and each row's fractional and rounded trace objectives (S x 2)."""

    answered: np.ndarray
    placement: _Rows
    objectives: np.ndarray


def _all_active_rounds(all_active: AllActive, eff: np.ndarray, urllc_eff: np.ndarray, post_round: bool):
    """The ``AllActiveRounds`` at ``all_active`` (or at its stacked rows) of
    the slots whose S x U broadband and S mean URLLC spectral efficiencies
    are ``eff`` and ``urllc_eff``. Round 1 assigns ``all_active`` to a row
    whose positive efficiencies are its mask; round 2 repeats it, and the
    loop stops converged, exactly when round 1's weights keep those users
    active (``active_user_mask``'s test): those rows are answered, with the
    loop's values bit for bit (``_solve_rows``)."""
    terms = all_active.placement_terms
    placed, other = all_active.fractional_bandwidth, all_active.rounded_bandwidth
    if not post_round:
        placed, other = other, placed
    rows = _solve_rows(terms, placed, eff, urllc_eff)
    kappa = terms.load_fraction
    other_objective = _row_objectives(other * eff, rows.weights, kappa, terms.penalty, other > 0.0)[0]
    objectives = (rows.objective, other_objective) if post_round else (other_objective, rows.objective)
    coeff, mask = _array_rate_coefficients(eff, rows.weights, kappa), all_active.mask
    answered = ((eff > 0.0) == mask).all(axis=1) & ((coeff > 0.0) == mask).all(axis=1)
    return AllActiveRounds(answered, rows, np.stack(objectives, axis=1))


def _answered_run(all_active: AllActive, rounds: AllActiveRounds, i: int):
    """``run``'s result for row ``i`` of ``rounds``, which answers it: its
    two trace entries hold the same values, in distinct lists."""
    placement = rounds.placement.solution(i)
    objectives, weights = rounds.objectives[i].tolist(), placement.weights.weights.tolist()
    bandwidth, feasible = all_active.rounded_values, placement.feasible
    entries = [TraceEntry(it, *objectives, list(weights), list(bandwidth), feasible) for it in (1, 2)]
    return all_active.binary, placement, AlternationTrace(entries, converged=True, reason="tolerance")
