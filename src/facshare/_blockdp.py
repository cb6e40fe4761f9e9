"""Exact search for both objectives: the block DP and the guarded enumerator.

The potential and the social cost differ only in how a facility with ``s``
users is priced. Both searches take that price as a size-weight vector ``w``
with ``w[0] = 0`` (harmonic numbers for the potential, ``w[s >= 1] = 1`` for
the social cost), so an assignment costs ``sum_f b_f * w[load_f]`` plus its
agents' distances.

The DP searches the family of assignments in which, after sorting agents by
position, every used facility serves one consecutive block and blocks take
facilities in strictly increasing index order (facilities themselves are
location-sorted). ``G_f[t]`` is the cheapest partition of the first ``t``
sorted agents over facilities ``1..f``; ``G_0[0] = 0`` and ``G_0[t] = +inf``
for ``t >= 1`` (agents cannot be left unassigned). With ``D_f[t]`` the
summed distance of the first ``t`` agents to facility ``f``, there is one
layer per facility::

    cand_f(t, i) = (b_f * w[t - i] + (D_f[t] - D_f[i])) + G_{f-1}[i]
    R_f[t] = min_{i < t} cand_f(t, i)
    G_f[t] = min(G_{f-1}[t], R_f[t])

``cand_f(t, i)`` closes the rightmost block ``[i, t)`` at facility ``f``.
``G_{f-1}`` is complete before layer ``f`` starts, so every layer is an
offline row-minima problem over the lower triangle ``i < t``. Each layer
stores ``R_f`` and its smallest argmin ``A_f``. Every candidate any path
prices is that float expression, and a minimum of floats is exact, so the
table does not depend on the path. The flat and monotone paths locate the
argmin through structure that ``cand_f`` has in exact arithmetic, so the
tests compare every path with an exhaustive scan of all candidates, bit for
bit, on instances with exact ties. The path follows from ``w`` and ``n``:

* Flat ``w`` on ``s >= 1`` (the social cost): ``b_f * w[t - i]`` does not
  depend on ``i``, so the argmin of row ``t`` is the first argmin of
  ``G_{f-1}[i] - D_f[i]`` over ``i < t``, a running prefix minimum (the
  classic line facility-location DP of Hassin and Tamir, 1991). The chosen
  argmin is priced with the expression above. O(n) per layer.
* ``n * n`` at most ``_DENSE_CELLS``: one broadcast prices the square
  ``t in 1..n, i in 0..n-1``, the upper triangle held at +inf, and takes its
  row minima. O(n^2) per layer, with a fixed memory bound.
* Otherwise ``w`` must be concave on ``s >= 1``, as the harmonic weights
  are: ``w[s+1] - w[s]`` does not increase. For ``i1 < i2`` and ``t1 < t2`` with every ``i < t``,
  ``cand(t1, i2) + cand(t2, i1) <= cand(t1, i1) + cand(t2, i2)`` (inverse
  Monge), so the smallest argmin of a row does not increase as ``t`` grows
  (Galil and Park, 1990). A CDQ split halves the index range ``[0, n]``
  recursively: each interval ``[lo, hi)`` with midpoint ``mid`` gives the
  rectangle of rows ``mid..hi-1`` and columns ``lo..mid-1``, and every pair
  ``i < t`` lies in exactly one rectangle. Each rectangle is solved by the
  monotone divide and conquer: price the middle row over its column range,
  then search the earlier rows from that argmin rightwards and the later
  rows from it leftwards. All rectangles of all depths run together, one
  recursion level at a time, each level one ragged ``np.minimum.reduceat``.
  A row's minimum over its rectangles is the least value, taken from the
  shallowest rectangle on ties: shallower rectangles hold smaller columns.
  O(n log^2 n) per layer in O(log n) vectorised levels.

Traceback at ``(t, cap)``: the least ``R_f[t]`` over ``f <= cap``, then the
smallest stored argmin among the layers attaining it, then the smallest such
``f``, which is the block ``[A_f[t], t)`` at ``f``; continue at
``(A_f[t], f - 1)``. That is the widest rightmost block among cost
minimizers, then the smallest facility index, in O(m) per block. Agents are
sorted stably, so co-located agents keep input order. The enumerator
returns the lexicographically smallest minimizer in the caller's agent
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import Assignment, Instance

__all__ = ["BruteForceLimitError", "distance_prefix", "PartitionSolution",
           "solve_block_partition"]


_DENSE_CELLS = 1 << 17  # candidate cells of one dense layer scan


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
    """Cheapest consecutive-block partition of ``sorted_x`` (ascending) over
    the location-sorted facilities, priced by ``size_weight`` (``w[0] = 0``,
    at least ``n + 1`` entries, flat or concave on ``s >= 1``)."""
    n = len(sorted_x)
    m = len(locations)
    dist = distance_prefix(sorted_x, locations)
    weight = np.asarray(size_weight, dtype=float)[:n + 1]
    if np.all(weight[1:] == weight[1:2]):
        layer = partial(_prefix_minima, weight=weight)
    elif n * n <= _DENSE_CELLS:
        layer = _DenseMinima(weight)
    else:
        layer = _MonotoneMinima(weight)

    # rowmin[f - 1, t] = R_f[t], argmin[f - 1, t] = A_f[t]; column 0 unused.
    rowmin = np.full((m, n + 1), math.inf)
    argmin = np.zeros((m, n + 1), dtype=np.intp)
    table = np.full(n + 1, math.inf)
    table[0] = 0.0
    for f in range(m):
        rowmin[f, 1:], argmin[f, 1:] = layer(table, dist[f], building_costs[f])
        np.minimum(table, rowmin[f], out=table)
    value = float(table[n])

    blocks: list[tuple[int, int, int]] = []
    j, cap = n, m
    while j > 0:
        values = rowmin[:cap, j]
        starts = argmin[:cap, j]
        tied = values == values.min()
        start = int(starts[tied].min())                            # widest block
        fac = int(np.flatnonzero(tied & (starts == start))[0])     # then smallest facility
        blocks.append((start, j, fac + 1))
        j, cap = start, fac
    blocks.reverse()
    return PartitionSolution(value, tuple(blocks))


def _prefix_minima(table: np.ndarray, dist: np.ndarray, b: float,
                   weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row minima for flat weights: each row's argmin is the first argmin of
    ``table - dist`` over its columns, tracked as a running prefix minimum."""
    n = len(table) - 1
    key = table[:n] - dist[:n]
    run = np.minimum.accumulate(key)
    new = np.ones(n, dtype=bool)
    np.less(key[1:], run[:-1], out=new[1:])
    arg = np.maximum.accumulate(np.where(new, np.arange(n), 0))
    # weight[t] == weight[t - arg] here: the same float as the scan's.
    return (b * weight[1:] + (dist[1:] - dist[arg])) + table[arg], arg


class _DenseMinima:
    """Row minima of the whole candidate square, upper triangle at +inf."""

    def __init__(self, weight: np.ndarray):
        n = len(weight) - 1
        sizes = np.arange(1, n + 1)[:, None] - np.arange(n)
        self.block_weight = np.where(sizes > 0, weight[sizes.clip(0)], math.inf)
        self.cand = np.empty((n, n))
        self.diff = np.empty((n, n))
        self.rows = np.arange(n)

    def __call__(self, table, dist, b):
        n = len(self.rows)
        cand = np.multiply(self.block_weight, b, out=self.cand)
        cand += np.subtract.outer(dist[1:], dist[:n], out=self.diff)
        cand += table[:n]
        arg = cand.argmin(axis=1)
        return cand[self.rows, arg], arg


class _MonotoneMinima:
    """Row minima for concave weights by the monotone divide and conquer on
    every CDQ rectangle at once, one recursion level per pass."""

    def __init__(self, weight: np.ndarray):
        n = len(weight) - 1
        self.weight = weight
        # One task per rectangle: rows rlo..rhi, columns clo..chi (inclusive)
        # and the base of its depth's slots in the per-depth result buffers.
        lo, hi = np.array([0]), np.array([n + 1])
        tasks = []
        while len(lo):
            keep = hi - lo >= 2
            lo, hi = lo[keep], hi[keep]
            mid = (lo + hi) >> 1
            tasks.append(np.stack([mid, hi - 1, lo, mid - 1,
                                   np.full_like(lo, len(tasks) * (n + 1))]))
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        self.tasks = np.concatenate(tasks, axis=1)
        self.shape = (len(tasks), n + 1)

    def __call__(self, table, dist, b):
        bw = b * self.weight
        best = np.full(self.shape[0] * self.shape[1], math.inf)
        where = np.zeros(len(best), dtype=np.intp)
        tasks = self.tasks
        while tasks.shape[1]:
            rlo, rhi, clo, chi, base = tasks
            t = (rlo + rhi) >> 1
            width = chi - clo + 1
            ends = width.cumsum()
            starts = ends - width
            cols = np.arange(ends[-1]) - (starts - clo).repeat(width)
            cand = ((bw[t.repeat(width) - cols] + (dist[t].repeat(width) - dist[cols]))
                    + table[cols])
            low = np.minimum.reduceat(cand, starts)
            hits = np.flatnonzero(cand == low.repeat(width))
            arg = cols[hits[hits.searchsorted(starts)]]     # smallest argmin
            best[base + t] = low
            where[base + t] = arg
            # Earlier rows rlo..t-1 search arg..chi, later rows t+1..rhi clo..arg.
            k = len(t)
            tasks = np.concatenate((tasks, tasks), axis=1)
            tasks[1, :k] = t - 1
            tasks[2, :k] = arg
            tasks[0, k:] = t + 1
            tasks[3, k:] = arg
            tasks = tasks.compress(tasks[0] <= tasks[1], axis=1)
        best = best.reshape(self.shape)
        depth = best.argmin(axis=0)[1:]                     # shallowest on ties
        t = np.arange(1, self.shape[1])
        return best[depth, t], where.reshape(self.shape)[depth, t]


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
