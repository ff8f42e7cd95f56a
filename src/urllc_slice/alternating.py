"""Alternating optimization: RB assignment and puncturing weights.

Starting from the initial weights, repeat: solve the fractional
proportional-fair assignment for the current weights, round it to whole RBs,
then solve the weight placement for the rounded assignment. Stops when both
blocks stop moving or after ``max_iters`` rounds.

The assignment is closed form and depends on the weights only through which
users stay active. Placement keeps every user active, so from zero
puncturing the second round sees the same assignment as the first and the
loop stops at its fixed point after two rounds. Placement is a pure function
of the configuration, channel and assignment it is given, so a repeated
assignment reuses the previous solution instead of solving again. Because
rounding is interleaved, block ascent is monotone in the objective evaluated
on the fractional assignment; the rounded objective is recorded alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embb_scheduler import round_to_binary, solve_fractional
from .model import ChannelRealization, PunctureWeights, SchedulingMatrix, SystemConfig
from .urllc_placement import PlacementSolution, placement_objective, solve_placement

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
) -> tuple[SchedulingMatrix, PlacementSolution, AlternationTrace]:
    """Alternate assignment and placement until neither block moves.

    With ``post_round`` the placement sees the fractional assignment each
    round and rounding happens once at the end; otherwise rounding is inside
    the loop. An infeasible placement clamps the weights to their caps for
    that round and is flagged in the trace. When a round's placement input
    equals the previous round's, the previous placement is reused, so from
    ``init="zero"`` each call solves placement once. ``init="one"`` with a
    mean load fraction of 1 or more deactivates every user in round 1 (an
    empty assignment), so there round 2 genuinely differs and solves again.
    A round whose assignment and weights both repeat the previous round's
    copies that round's two trace objectives instead of evaluating them again.
    """
    weights = _initial_weights(cfg, init, rng)
    trace = AlternationTrace()
    prev_frac = None
    prev_binary = None
    binary = None
    prev_input = None
    placement: PlacementSolution | None = None

    for it in range(1, max_iters + 1):
        frac = solve_fractional(cfg, chan, weights)
        binary = round_to_binary(frac, cfg)
        placement_input = frac if post_round else binary
        if prev_input is None or not np.array_equal(placement_input.entries, prev_input.entries):
            placement = solve_placement(cfg, chan, placement_input)
        prev_input = placement_input
        new_weights = (
            placement.weights.weights
            if placement.feasible
            else np.minimum(np.ones_like(weights), placement.weights.weights)
        )
        binary_moved = prev_binary is None or not np.array_equal(
            binary.entries, prev_binary.entries
        )
        if (
            binary_moved
            or not np.array_equal(frac.entries, prev_frac.entries)
            or not np.array_equal(new_weights, weights)
        ):
            objectives = (
                placement_objective(cfg, chan, frac, new_weights),
                placement_objective(cfg, chan, binary, new_weights),
            )
        trace.iterations.append(
            TraceEntry(
                iteration=it,
                fractional_objective=objectives[0],
                rounded_objective=objectives[1],
                weights=new_weights.tolist(),
                user_bandwidth=binary.user_bandwidth(cfg.rb_bandwidth).tolist(),
                placement_feasible=placement.feasible,
            )
        )
        weights_moved = float(np.max(np.abs(new_weights - weights)))
        weights = new_weights
        prev_frac = frac
        prev_binary = binary
        if weights_moved < OMEGA_TOL and not binary_moved:
            trace.converged = True
            trace.reason = "tolerance"
            break

    return binary, placement, trace
