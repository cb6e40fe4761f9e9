"""Cost arithmetic: per-agent cost, social cost and the exact potential.

An agent pays her distance plus an equal share of her facility's building
cost. The private array helpers below price agents. Only the mechanism
audits price inline, with the same float expressions: every agent's cost at
every facility at load n, facility first; the cost after a misreport; and
the share at the facility a report moves the agent to.

``EPS_CMP`` is the global absolute tolerance for cost-equality tests. Strict
comparisons inside algorithms use raw floating-point values: ties are
meaningful because equilibrium is defined through weak inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Assignment, Environment, Profile, _integer

__all__ = [
    "EPS_CMP",
    "harmonic_numbers",
    "agent_cost",
    "AgentCost",
    "CostBreakdown",
    "social_cost",
    "potential",
]

EPS_CMP: float = 1e-9


def harmonic_numbers(n: int) -> np.ndarray:
    """Array ``H`` with ``H[k] = 1 + 1/2 + ... + 1/k`` and ``H[0] = 0``.

    Computed by direct summation; no closed-form approximation is used
    anywhere, so harmonic terms are exact up to float rounding.
    """
    out = np.zeros(_integer(n, "n", 0) + 1)
    if n >= 1:
        out[1:] = np.cumsum(1.0 / np.arange(1, n + 1, dtype=float))
    return out


def _loads(choices, m: int) -> np.ndarray:
    """Load of each agent's facility, for 1-based ``choices`` of shape
    ``(..., n)``. One ``bincount`` counts every (row, facility) slot."""
    idx = np.asarray(choices) - 1
    rows = idx.reshape(-1, idx.shape[-1])
    slots = rows + m * np.arange(len(rows))[:, None]
    counts = np.bincount(slots.ravel(), minlength=m * len(rows))
    return counts[slots].reshape(idx.shape)


def _split_costs(positions, choices, env: Environment) -> tuple[np.ndarray, np.ndarray]:
    """Each agent's distance to her facility and her equal share of its
    building cost, for positions and 1-based choices of shape ``(..., n)``."""
    idx = np.asarray(choices) - 1
    locs = np.asarray(env.locations)
    b = np.asarray(env.building_costs)
    distance = np.abs(np.asarray(positions, dtype=float) - locs[idx])
    return distance, b[idx] / _loads(choices, env.m)


def _facility_costs(positions, env: Environment, users) -> np.ndarray:
    """Cost of each position at each facility when ``users`` agents share
    it; ``users`` broadcasts against the result shape ``positions.shape + (m,)``."""
    x = np.asarray(positions, dtype=float)[..., None]
    return np.abs(x - np.asarray(env.locations)) + np.asarray(env.building_costs) / users


def _deviation_costs(positions, choices, env: Environment,
                     agents=slice(None)) -> np.ndarray:
    """``(k, m)`` matrix of each listed agent's cost at each facility, the
    other agents fixed: joining a facility other than her own raises its
    load by one. ``agents`` indexes the agent axis (all agents by default)."""
    idx = np.asarray(choices) - 1
    users = np.bincount(idx, minlength=env.m) + (np.arange(env.m) != idx[agents, None])
    return _facility_costs(np.asarray(positions, dtype=float)[agents], env, users)


def agent_cost(agent: int, profile: Profile, assignment: Assignment,
               env: Environment) -> float:
    """Distance to the chosen facility plus an equal share of its building cost.

    ``agent`` is a 0-based index into the profile.
    """
    assignment.validate_for(profile, env)
    if not 0 <= agent < profile.n:
        raise IndexError(f"agent index {agent} out of range for n={profile.n}")
    distance, share = _split_costs(profile.positions, assignment.choices, env)
    return float(distance[agent] + share[agent])


@dataclass(frozen=True)
class AgentCost:
    distance: float
    share: float
    total: float


@dataclass(frozen=True)
class CostBreakdown:
    per_agent: tuple[AgentCost, ...]
    social_cost: float


def social_cost(profile: Profile, assignment: Assignment,
                env: Environment) -> CostBreakdown:
    """Sum of all agents' costs, with the per-agent distance/share split."""
    assignment.validate_for(profile, env)
    distance, share = _split_costs(profile.positions, assignment.choices, env)
    total = (distance + share).tolist()
    per = tuple(map(AgentCost, distance.tolist(), share.tolist(), total))
    return CostBreakdown(per, sum(total))


def _social_cost(positions, choices, env: Environment) -> float:
    """:func:`social_cost`'s total for checked arrays, by the same builtin ``sum``."""
    distance, share = _split_costs(positions, choices, env)
    return sum((distance + share).tolist())


def potential(profile: Profile, assignment: Assignment,
              env: Environment) -> float:
    """Exact potential of an assignment.

    For every used facility, its building cost times the harmonic number of
    its load, plus every agent's connection distance. Any unilateral deviation
    changes this value by exactly the deviator's cost change, so minimizers
    are equilibria.
    """
    assignment.validate_for(profile, env)
    return _potential(profile.positions, assignment.choices, env,
                      harmonic_numbers(profile.n))


def _potential(positions, choices, env: Environment, harmonic: np.ndarray) -> float:
    """:func:`potential` for checked arrays. ``harmonic`` is
    ``harmonic_numbers(k)`` for any ``k`` at least the largest load: the
    cumulative sum's prefixes do not depend on its length."""
    choices = np.asarray(choices)
    counts = np.bincount(choices - 1, minlength=env.m)
    used = counts > 0
    building = np.asarray(env.building_costs)[used] * harmonic[counts[used]]
    distance, _ = _split_costs(positions, choices, env)
    # cumsum adds strictly left to right: facilities first, then agents.
    return float(np.cumsum(np.concatenate((building, distance)))[-1])
