"""Equilibrium computation and verification.

The solver exploits two structural facts about this game. First, it is an
exact-potential game: a unilateral deviation changes the potential (see
:func:`facshare.costs.potential`) by exactly the deviator's cost change, so
any assignment minimizing the potential is a pure Nash equilibrium and
best-response dynamics cannot cycle. Second, in any equilibrium agents sorted
by position use facilities sorted by location (the no-cross property), so a
potential minimizer can be found by dynamic programming over consecutive
agent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blockdp import _block_assignment, _brute_force_min
from .costs import (EPS_CMP, _deviation_costs, _potential, _social_cost,
                    harmonic_numbers)
from .model import Assignment, Environment, Instance, Profile, ValidationError, _integer

__all__ = [
    "Deviation",
    "PneVerdict",
    "is_pne",
    "best_response",
    "DynamicsStep",
    "DynamicsTrace",
    "run_dynamics",
    "compute_pne_dp",
    "brute_force_min_potential",
    "CrossingWitness",
    "NoCrossVerdict",
    "check_no_cross",
    "consecutive_blocks_ok",
    "HarmonicBoundReport",
    "check_harmonic_bound",
]

_CHUNK_CELLS = 1 << 20  # deviation-matrix cells per is_pne chunk (8 MiB of floats)


@dataclass(frozen=True)
class Deviation:
    """A strictly improving unilateral move: ``agent`` (0-based) switching to
    ``better_facility`` (1-based) saves ``improvement`` > 0."""

    agent: int
    better_facility: int
    improvement: float


@dataclass(frozen=True)
class PneVerdict:
    is_equilibrium: bool
    witness: Deviation | None = None

    def __bool__(self) -> bool:
        return self.is_equilibrium


def is_pne(profile: Profile, assignment: Assignment, env: Environment,
           tol: float = EPS_CMP) -> PneVerdict:
    """Weak-inequality equilibrium check; ties never refute.

    A negative verdict carries the first improving deviation found (scanning
    agents, then facilities, in order).
    """
    assignment.validate_for(profile, env)
    positions = np.asarray(profile.positions)
    choices = np.asarray(assignment.choices)
    # Agents are scanned in chunks so the deviation matrix stays bounded.
    rows = max(1, _CHUNK_CELLS // env.m)
    for start in range(0, profile.n, rows):
        agents = slice(start, start + rows)
        dev = _deviation_costs(positions, choices, env, agents)
        local, own = np.arange(len(dev)), choices[agents] - 1
        gains = dev[local, own][:, None] - dev
        improving = gains > tol
        improving[local, own] = False  # staying put is not a deviation
        if improving.any():
            i, g = np.unravel_index(np.argmax(improving), improving.shape)
            return PneVerdict(False, Deviation(start + int(i), int(g) + 1,
                                               float(gains[i, g])))
    return PneVerdict(True)


def best_response(agent: int, profile: Profile, assignment: Assignment,
                  env: Environment) -> int:
    """Facility minimizing the agent's deviation cost (raw comparisons).

    The current facility wins ties; otherwise the smallest minimizing index
    is returned. ``agent`` is 0-based, the result 1-based.
    """
    assignment.validate_for(profile, env)
    if not 0 <= agent < profile.n:
        raise IndexError(f"agent index {agent} out of range for n={profile.n}")
    costs = _deviation_costs(profile.positions, assignment.choices, env,
                             slice(agent, agent + 1))[0]
    f = assignment.choices[agent]
    if costs[f - 1] <= costs.min():
        return f
    return int(np.argmin(costs)) + 1


@dataclass(frozen=True)
class DynamicsStep:
    agent: int
    from_facility: int
    to_facility: int
    cost_delta: float
    potential_after: float


@dataclass(frozen=True)
class DynamicsTrace:
    steps: tuple[DynamicsStep, ...]
    converged: bool
    final_assignment: Assignment
    initial_potential: float


_ORDERS = ("round-robin", "max-gain", "seeded-random")


def run_dynamics(instance: Instance, start: Assignment,
                 order: str = "round-robin", max_steps: int = 100_000,
                 seed: int | None = None, tol: float = EPS_CMP) -> DynamicsTrace:
    """Iterate strict best-response improvements until none exists.

    ``order`` picks the deviator each step: ``round-robin`` cycles agents and
    moves the first improver, ``max-gain`` moves the agent with the largest
    saving (smallest agent index on ties), ``seeded-random`` draws uniformly
    among improvers and requires ``seed``. Non-convergence within
    ``max_steps`` is reported, not raised. The potential strictly decreases
    at every step, which is why the iteration cannot cycle.
    """
    if order not in _ORDERS:
        raise ValidationError(f"unknown order {order!r}; expected one of {_ORDERS}")
    if order == "seeded-random" and seed is None:
        raise ValidationError("seeded-random order requires an explicit seed")
    if seed is not None:
        seed = _integer(seed, "seed", 0)
    max_steps = _integer(max_steps, "max_steps", 0)
    profile, env = instance.profile, instance.environment
    start.validate_for(profile, env)
    rng = np.random.default_rng(seed) if order == "seeded-random" else None

    positions = np.asarray(profile.positions)
    choices = np.array(start.choices)
    agents = np.arange(profile.n)
    harmonic = harmonic_numbers(profile.n)
    steps: list[DynamicsStep] = []
    initial_potential = _potential(positions, choices, env, harmonic)
    pointer = 0
    converged = False
    while True:
        dev = _deviation_costs(positions, choices, env)
        gains = dev[agents, choices - 1][:, None] - dev
        best = gains.max(axis=1)  # each agent's largest saving, 0 when none
        improvers = np.flatnonzero(best > tol)
        if len(improvers) == 0:
            converged = True
            break
        if len(steps) >= max_steps:
            break
        if order == "round-robin":
            i = improvers[np.searchsorted(improvers, pointer) % len(improvers)]
        elif order == "max-gain":
            i = np.argmax(best)
        else:
            i = improvers[int(rng.integers(len(improvers)))]
        i, old = int(i), int(choices[i])
        # The first facility with the largest saving; without one she stays.
        fac = int(np.argmax(gains[i])) + 1 if best[i] > 0 else old
        choices[i] = fac
        pointer = (i + 1) % profile.n
        steps.append(DynamicsStep(
            agent=i, from_facility=old, to_facility=fac, cost_delta=-float(best[i]),
            potential_after=_potential(positions, choices, env, harmonic),
        ))
    return DynamicsTrace(tuple(steps), converged, Assignment._trusted(choices.tolist()),
                         initial_potential)


def compute_pne_dp(instance: Instance) -> Assignment:
    """Compute a potential-minimizing assignment, which is always a pure Nash
    equilibrium, in O(m^2 + m * n log^2 n) time after sorting (see
    :mod:`facshare._blockdp` for each path's cost).

    Agents are sorted by position (stable, so co-located agents keep input
    order and land in one block), facilities are already location-sorted, and
    the consecutive-block dynamic program of :mod:`facshare._blockdp` is run
    with harmonic size weights. The minimizer it returns is an equilibrium,
    so each facility's layer prices only the window of agents that the
    equilibrium condition allows it, found in O(m^2) for all facilities; the
    windows change no result. The result is mapped back to the caller's
    agent order. Every call, ``python -O`` included, then checks the result
    with :func:`is_pne` and raises ``RuntimeError`` naming the instance and
    the improving deviation if the check fails.
    """
    assignment = _block_assignment(instance, harmonic_numbers(instance.n), windows=True)
    verdict = is_pne(instance.profile, assignment, instance.environment)
    if not verdict:
        raise RuntimeError(
            f"internal error: solver output admits an improving deviation "
            f"{verdict.witness} on instance {instance.name!r} "
            f"(n={instance.n}, m={instance.m})")
    return assignment


def brute_force_min_potential(instance: Instance, *, limit: int = 10_000_000) -> float:
    """Minimum potential over all ``m**n`` assignments (guarded exhaustive scan)."""
    return _brute_force_min(instance, harmonic_numbers(instance.n), limit)[0]


@dataclass(frozen=True)
class CrossingWitness:
    """Agents (0-based) with ``x[left_agent] < x[right_agent]`` whose facilities
    are in the opposite location order."""

    left_agent: int
    right_agent: int


@dataclass(frozen=True)
class NoCrossVerdict:
    ok: bool
    witness: CrossingWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_no_cross(profile: Profile, assignment: Assignment,
                   env: Environment) -> NoCrossVerdict:
    """Verify the no-cross property: strictly left agents never use a strictly
    righter facility location. Equal positions are unconstrained."""
    assignment.validate_for(profile, env)
    order = np.argsort(profile.positions, kind="stable")
    x = np.asarray(profile.positions)[order]
    loc = np.asarray(env.locations)[np.asarray(assignment.choices)[order] - 1]
    # Each agent is held against the largest location among the agents
    # strictly to her left: those sorted before the first one at her position.
    left_max = np.r_[-np.inf, np.maximum.accumulate(loc)][np.searchsorted(x, x)]
    crossing = np.flatnonzero(loc < left_max)
    if len(crossing) == 0:
        return NoCrossVerdict(True)
    t = crossing[0]
    # The witness's left agent is the first one holding that location.
    left = int(np.argmax(loc == left_max[t]))
    return NoCrossVerdict(False, CrossingWitness(int(order[left]), int(order[t])))


def consecutive_blocks_ok(profile: Profile, assignment: Assignment) -> bool:
    """True when every facility's users form one consecutive run after a
    stable sort of agents by position."""
    order = np.argsort(profile.positions, kind="stable")
    seq = np.asarray(assignment.choices)[order]
    runs = seq[np.r_[True, seq[1:] != seq[:-1]]]  # each run's facility
    return len(np.unique(runs)) == len(runs)


@dataclass(frozen=True)
class HarmonicBoundReport:
    ratio: float
    bound: float
    holds: bool


def check_harmonic_bound(instance: Instance, pne: Assignment,
                         opt: Assignment) -> HarmonicBoundReport:
    """Compare the equilibrium's social cost against the harmonic-number bound
    H_n times the optimum (the logarithmic price-of-stability guarantee; H_n
    rather than ln n so the statement is meaningful at n = 1)."""
    profile, env = instance.profile, instance.environment
    for assignment in (pne, opt):
        assignment.validate_for(profile, env)
    return _harmonic_report(_social_cost(profile.positions, pne.choices, env),
                            _social_cost(profile.positions, opt.choices, env), instance.n)


def _harmonic_report(pne_cost: float, opt_cost: float, n: int) -> HarmonicBoundReport:
    """The bound check of :func:`check_harmonic_bound` on the two social costs."""
    ratio = pne_cost / opt_cost
    bound = float(harmonic_numbers(n)[n])
    return HarmonicBoundReport(ratio, bound, ratio <= bound + EPS_CMP)
