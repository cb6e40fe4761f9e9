"""Exact search for both objectives: the block DP and the guarded enumerator.

The potential and the social cost differ only in how a facility with ``s``
users is priced. Both searches take that price as a size-weight vector ``w``
with ``w[0] = 0`` (harmonic numbers for the potential, ``w[s >= 1] = 1`` for
the social cost), so an assignment costs ``sum_f b_f * w[load_f]`` plus its
agents' distances.

The DP searches the family of assignments in which, after sorting agents by
position, every used facility serves one consecutive block and blocks take
facilities in strictly increasing index order (facilities themselves are
location-sorted). The table ``G[t, k]`` holds the cheapest partition of the
first ``t`` sorted agents using facilities ``1..k`` only. ``G[t, 0]`` is
infeasible (+inf) for ``t >= 1``: agents cannot be left unassigned. The
transposed candidate matrix for the rightmost block is scanned with
cumulative minima, which keeps the whole solve at O(n*m) vectorized element
operations per agent prefix, O(n^2 * m) overall, after an O(n*m)
distance-prefix precomputation.

Tie rule: the DP takes the widest rightmost block among cost minimizers, then
the smallest facility index (agents are sorted stably, so co-located agents
keep input order); the enumerator returns the lexicographically smallest
minimizer in the caller's agent order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Assignment, Instance

__all__ = ["BruteForceLimitError", "distance_prefix", "PartitionSolution",
           "solve_block_partition"]


class BruteForceLimitError(RuntimeError):
    """The exhaustive search space exceeds the configured guard."""


def distance_prefix(sorted_x: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """``D[f, t] = sum_{a < t} |sorted_x[a] - locations[f]|`` for every facility."""
    d = np.abs(sorted_x[None, :] - locations[:, None])
    out = np.zeros((len(locations), len(sorted_x) + 1))
    np.cumsum(d, axis=1, out=out[:, 1:])
    return out


@dataclass(frozen=True)
class PartitionSolution:
    """Blocks are ``(start, stop, facility)``: 0-based half-open agent ranges in
    sorted order with 1-based, strictly increasing facility indices."""

    value: float
    blocks: tuple[tuple[int, int, int], ...]


def solve_block_partition(sorted_x: np.ndarray, locations: np.ndarray,
                          building_costs: np.ndarray,
                          size_weight: np.ndarray) -> PartitionSolution:
    n = len(sorted_x)
    m = len(locations)
    dist = distance_prefix(sorted_x, locations)
    weight = np.asarray(size_weight, dtype=float)

    table = np.full((n + 1, m + 1), math.inf)
    table[0, :] = 0.0

    def candidates(j: int, cap: int) -> np.ndarray:
        # cand[f-1, i-1]: close with block [i..j] at facility f, remainder
        # solved over facilities 1..f-1. Row/column minima realize the
        # recurrence's two branches.
        sizes = np.arange(j, 0, -1)
        phi = (building_costs[:cap, None] * weight[sizes][None, :]
               + (dist[:cap, j][:, None] - dist[:cap, :j]))
        return phi + table[:j, :cap].T

    for j in range(1, n + 1):
        cand = candidates(j, m)
        rowmin = cand.min(axis=1)
        np.minimum.accumulate(rowmin, out=rowmin)
        table[j, 1:] = rowmin

    value = float(table[n, m])

    blocks: list[tuple[int, int, int]] = []
    j, cap = n, m
    while j > 0:
        cand = candidates(j, cap)
        start = int(np.argmin(cand.min(axis=0)))      # smallest start: widest block
        fac = int(np.argmin(cand[:, start]))          # then smallest facility
        blocks.append((start, j, fac + 1))
        j, cap = start, fac
    blocks.reverse()
    return PartitionSolution(value, tuple(blocks))


def _block_assignment(instance: Instance, size_weight: np.ndarray) -> Assignment:
    """Solve the block DP on stably sorted agents and map the blocks back to
    the caller's agent order."""
    positions = np.asarray(instance.profile.positions, dtype=float)
    env = instance.environment
    order = np.argsort(positions, kind="stable")
    solution = solve_block_partition(
        positions[order],
        np.asarray(env.locations, dtype=float),
        np.asarray(env.building_costs, dtype=float),
        size_weight,
    )
    choices = np.empty(len(positions), dtype=int)
    for lo, hi, fac in solution.blocks:
        choices[order[lo:hi]] = fac
    return Assignment(tuple(choices.tolist()))


def _brute_force_min(instance: Instance, size_weight: np.ndarray,
                     limit: int) -> tuple[float, Assignment]:
    """Minimum cost over all ``m**n`` assignments and the lexicographically
    smallest assignment attaining it, scanned in chunks of 2**16."""
    n, m = instance.n, instance.m
    total = m ** n
    if total > limit:
        raise BruteForceLimitError(
            f"{m}**{n} = {total} assignments exceed the brute-force guard {limit}")
    x = np.asarray(instance.profile.positions, dtype=float)
    locs = np.asarray(instance.environment.locations, dtype=float)
    b = np.asarray(instance.environment.building_costs, dtype=float)
    divisors = (m ** np.arange(n - 1, -1, -1)).astype(np.int64)

    best_value = math.inf
    best_id = 0
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = (ids[:, None] // divisors[None, :]) % m
        value = np.abs(x[None, :] - locs[digits]).sum(axis=1)
        for fac in range(m):
            value += b[fac] * size_weight[(digits == fac).sum(axis=1)]
        at = int(np.argmin(value))
        if value[at] < best_value:
            best_value = float(value[at])
            best_id = int(ids[at])
    digits = (best_id // divisors) % m
    return best_value, Assignment(tuple((digits + 1).tolist()))
