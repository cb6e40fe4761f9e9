"""Socially optimal assignments: guarded brute force and a block DP.

The block solver relies on an exchange argument, not only on equilibrium
structure: if two agents with ``x_a < x_b`` are assigned facilities with
``loc(s_a) > loc(s_b)``, swapping their facilities leaves every facility's
load (hence every share) unchanged and can only shrink total distance on a
line. Repeating the swap yields an optimum in which sorted agents use
facilities in non-decreasing location order, i.e. consecutive blocks, which
is exactly the search space of :mod:`facshare._blockdp` with unit size
weights. The brute-force path double-checks this reasoning wherever the
search space fits under the guard.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._blockdp import (BruteForceLimitError, _block_assignment, _brute_force_min,
                       _unit_weights)
from .costs import _social_cost
from .model import Assignment, Instance

__all__ = [
    "BruteForceLimitError",
    "OptResult",
    "optimal_brute_force",
    "optimal_block_dp",
]


@dataclass(frozen=True)
class OptResult:
    assignment: Assignment
    social_cost: float
    method: str  # "brute_force" | "block_dp"


def optimal_brute_force(instance: Instance, *, limit: int = 10_000_000) -> OptResult:
    """Exhaustively enumerate all ``m**n`` assignments.

    Returns the lexicographically smallest minimizer. Uses the facility-form
    identity (total cost = building costs of used facilities + total
    distance) for the vectorized scan; the reported value is recomputed from
    the per-agent definition.
    """
    _, assignment = _brute_force_min(instance, _unit_weights(instance.n), limit)
    value = _social_cost(instance.profile.positions, assignment.choices,
                         instance.environment)
    return OptResult(assignment, value, "brute_force")


def optimal_block_dp(instance: Instance) -> OptResult:
    """Consecutive-block dynamic program for the optimal social cost, in
    O(m^2 + n * m) time after sorting. Each facility's layer works only on
    the window of agents that some near-optimal assignment may send there,
    found in O(m^2) for all facilities by the rule the equilibrium uses; the
    windows change no result (see :mod:`facshare._blockdp`)."""
    assignment = _block_assignment(instance, _unit_weights(instance.n))
    value = _social_cost(instance.profile.positions, assignment.choices,
                         instance.environment)
    return OptResult(assignment, value, "block_dp")
