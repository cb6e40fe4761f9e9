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
bit, on instances with exact ties and with near-ties.

Layer 1 is closed form on every path: ``G_0`` is finite only at 0, so
``R_1[t] = (b_1 * w[t] + (D_1[t] - D_1[0])) + 0.0`` and ``A_1[t] = 0``,
the float the scan itself gives. The later layers follow from ``w`` and
``n``:

* Flat ``w`` on ``s >= 1`` (the social cost): ``b_f * w[t - i]`` does not
  depend on ``i``, so the argmin of row ``t`` is the first argmin of
  ``G_{f-1}[i] - D_f[i]`` over ``i < t``, a running prefix minimum (the
  classic line facility-location DP of Hassin and Tamir, 1991). The chosen
  argmin is priced with the expression above. O(n) per layer, O(k) on a
  window of ``k`` agents.
  ``_block_values`` runs these layers on a batch of profiles at once, for
  the values only.
* Otherwise (the harmonic weights) a layer prices only its live rows, those
  that pass the row bound below. If ``n * n`` is at most ``_DENSE_CELLS``
  (one choice per solve; over runs, below, ``u * u``), one broadcast prices
  each live row against every column of the layer, the cells with ``i >=
  t`` held at +inf, and takes its minimum. O(n^2) per layer, with a fixed
  memory bound.
* Otherwise ``w`` must be concave on ``s >= 1``, as the harmonic weights
  are: ``w[s+1] - w[s]`` does not increase. For ``i1 < i2`` and ``t1 < t2``
  with every ``i < t``, ``cand(t1, i2) + cand(t2, i1) <= cand(t1, i1) +
  cand(t2, i2)`` (inverse Monge), so the smallest argmin of a row does not
  increase as ``t`` grows (Galil and Park, 1990), also over any subset of
  the rows. A CDQ split halves the index range ``[0, n]`` recursively: each
  interval ``[lo, hi)`` with midpoint ``mid`` gives the rectangle of rows
  ``mid..hi-1`` and columns ``lo..mid-1``, and every pair ``i < t`` lies in
  exactly one rectangle. Two ``searchsorted`` calls on the live rows give
  each rectangle's live rows, and the rectangle bound below drops those
  that cannot hold the row's minimum, or cannot reach the value the row
  already holds. A task is a run of remaining rows with a
  column range; each rectangle starts as one. All tasks of all rectangles
  run together, one level per pass, each pass one ragged
  ``np.minimum.reduceat``. A pass whose tasks hold at most
  ``_FINISH_CELLS`` cells in all (rows times columns, summed over the
  tasks) prices every cell and ends the layer. In any other pass a task of
  one row or one column prices every cell. In the first pass any other
  rectangle prices its first and last remaining rows over all its columns,
  and the rows between them search ``A(last)..A(first)``: the two-sided
  search. In later passes any other task prices its middle row, then
  searches the earlier rows from that argmin rightwards and the later rows
  from it leftwards. A row's minimum over its rectangles is the least
  value, taken from the shallowest rectangle on ties: shallower rectangles
  hold smaller columns. O(n log^2 n) per layer in O(log n) passes in the
  worst case, plus at most ``_FINISH_CELLS`` cells in the last pass.

Row bound. Every input is nonnegative, ``D_f`` is nondecreasing from
``D_f[0] = 0`` and ``G_{f-1}[0] = 0``. With ``p = fl(b_f * min(w[1:]))``
and any set ``I`` of columns below ``t``, in exact arithmetic::

    min_{i in I} cand_f(t, i) >= p + D_f[t] + min_{i in I} (G_{f-1}[i] - D_f[i])

A row is dead when this bound over all ``i < t`` exceeds ``G_{f-1}[t]`` by
more than the margin ``1e-9 * (1 + G_{f-1}[t] + D_f[t])``; its ``R_f[t]``
is stored as +inf. A dead row's every float candidate is strictly above
``G_{f-1}[t]``, which an earlier layer attains at ``t``, so neither ``G_f``
nor the traceback (least ``R``, then smallest argmin, then smallest ``f``)
can pick it, and every result stays bit-identical. The rectangle bound is
the same test over a rectangle's columns against the lesser of ``U[t]`` and
the row's cap ``G_{f-1}[t]``, ``U[t]`` the candidate at the first argmin of
``G_{f-1}[i] - D_f[i]`` over ``i < t``, which is at least ``R_f[t]``. A
rectangle that fails it holds no candidate at or below that lesser value.
So a row with ``R_f[t] <= G_{f-1}[t]`` keeps its minimum and smallest
argmin; any other row gets some value at least ``R_f[t]``, so above
``G_{f-1}[t]``, which, like a dead row's +inf, neither ``G_f`` nor the
traceback can pick. It is size-aware: a column ``i <= mid - 1`` of row
``t`` closes a block of ``t - i >= t - mid + 1`` agents, so the rectangle
bound uses ``p = fl(b_f * least[t - mid + 1])``, ``least[s]`` the least
``w[s']`` over ``s' >= s``, and ``p <= fl(b_f * w[t - i])`` still holds for
every column by monotone rounding. The margin's argument, with ``u =
2**-53`` and ``h`` the value tested against (``G_{f-1}[t]``, or the lesser
of it and ``U[t]``): suppose a float candidate ``c = cand_f(t, i) <= h``.
Its three roundings act on nonnegative operands and rounding is monotone,
so ``p <= fl(b_f * w[t - i]) <= c`` and, exactly, ``p + (D_f[t] - D_f[i]) +
G_{f-1}[i] <= c / (1 - u)**3 <= h * (1 + 4u)``. Every key ``G_{f-1}[j] -
D_f[j]`` is at least ``-D_f[t]``, and the one at ``i`` at most ``h -
D_f[t]``, so each of the three roundings in the float bound (the key, ``p +
D_f[t]`` and their sum) errs by at most about ``u * (h + D_f[t])``. The
float bound is then at most ``h + 7u * (h + D_f[t])``, far inside the
margin; the margin's absolute term covers subnormal sums. A row with
``G_{f-1}[t] = +inf`` is always live. Each layer computes the keys and
their running minimum once, for the row bound, ``U`` and the rectangle
floors (the least key over each rectangle's columns). The floors come from
one ``np.minimum.reduceat``: the rectangles are stored by midpoint, which
runs over ``1..n``, and the next rectangle's ``lo`` is below its midpoint
``mid + 1``, so the cuts ``lo, mid`` of consecutive rectangles ascend only
within a rectangle's columns. The bound holds over any set of columns below
``t``, so a layer that prices only some columns (the windows below) applies
it over those.

Windows. Take an assignment whose objective ``sum_f b_f * w[load_f]`` plus
distances is within ``e`` of the least, and move one agent at ``x`` from
``f`` (load ``a``) to ``g`` (load ``c``). The objective changes by ``|x -
l_g| - |x - l_f| + b_g * (w[c + 1] - w[c]) - b_f * (w[a] - w[a - 1])``,
which is at least ``-e``. With ``W+`` the largest and ``W-`` the smallest
marginal weight ``w[s + 1] - w[s]`` over ``0 <= s < n``, every agent of
such an assignment passes, for every ``g``::

    |x - l_f| - |x - l_g| <= c_fg = b_g * W+ - b_f * W- + e

The harmonic weights have ``W+ = 1`` and ``W- = 1/n``: an agent of a pure
Nash equilibrium pays at least ``|x - l_f| + b_f / n`` and would pay at
most ``|x - l_g| + b_g`` after leaving. The unit weights (the social cost)
have ``W+ = 1`` and ``W- = 0`` for ``n >= 2``. The float ``W+`` and ``W-``
are the extremes of the float marginals, which the margin below absorbs.
The left side is monotone in ``x``: it falls from ``l_f - l_g`` to ``l_g -
l_f`` as ``x`` crosses ``[l_g, l_f]`` when ``l_g < l_f``, and rises when
``l_g > l_f``. So each test holds on a ray ``x >= (l_f + l_g - c_fg) / 2``
(resp. ``x <= (l_f + l_g + c_fg) / 2``), on every ``x`` when that point lies
beyond ``l_g``, and on none when it lies beyond ``l_f``; with ``l_g = l_f``
it holds for all ``x`` or for none. Facility ``f``'s window is the
intersection over ``g``, one interval, and two ``searchsorted`` calls on the
sorted agents turn it into a range of agents ``first_f .. stop_f - 1``.
``_windows`` computes them in O(m^2) for any weights whose marginals lie in
``[0, 1]``, and ``_block_assignment`` passes them for both objectives. A
block ``[i, t)`` at ``f`` lies inside the window only if ``first_f <= i <
t <= stop_f``, so layer ``f`` in 2..m works on ``G_{f-1}[cut:end]`` and
``D_f[cut:end]`` with ``cut = first_f`` and ``end = stop_f + 1``: the same
layer problem on ``end - cut`` indices (a block's size and its candidate
are unchanged by the shift), written back shifted by ``cut``. The dense
scan prices columns ``cut..t-1``; the monotone path takes the rectangles
with ``mid`` in ``cut + 1..end - 1``, which hold every pair of the slice,
clipped to it. Rows outside the window keep +inf and argmin 0. Layer 1
stays whole, as it is closed form and a finite ``G_1`` only helps later
row bounds. ``_block_values`` takes no windows: they would differ per
profile.

Why the windowed table gives the same result. Let ``P`` be the path the
unwindowed traceback follows and suppose its every block lies inside its
facility's window. Windowing stores +inf in some rows, drops columns, and
float operations are monotone, so with concave layers every windowed ``R'``
and ``G'`` is at least the unwindowed one (a row above its cap holds at
least its minimum). Along ``P``, from the left, each state's inputs are
unchanged and its block's start column is kept, so its chosen candidate is
priced to the same float (its row is exact, as the chosen value is at most
every earlier layer's there, so at most the cap), the windowed table holds
the same value there, and the stored argmin is the same: a smaller column
tying in ``R'`` would tie in ``R``. At a traceback state every other
layer's windowed minimum is at least its old one, and where it ties, its
argmin is at least the old argmin. The old choice, the least value, then
the smallest argmin, then the smallest ``f``, therefore still wins: the
traceback picks the same blocks and ``G'_m[n] = G_m[n]``. Ties need nothing
more: whichever tied candidate the tie rule picks lies on ``P``, and ``P``
is a float minimizer of the objective, so it lies inside the windows (the
margin below). The row bound then acts on the windowed table as on any
other. A flat layer's ``R'`` is not a priced minimum but the candidate at
the first argmin of ``G' - D``, and that key is at least the old one only
in exact arithmetic: the candidate at a later argmin may round below the
old one. So for the social cost the argument holds in exact arithmetic
only, and the tests compare windowed and unwindowed solves bit for bit.

The margin. ``P`` minimizes the float DP, which differs from the exact
objective of any block partition by at most ``E``: a first-order sum over
the roundings of each distance, of the sequential prefix sums ``D_f`` (a
block's ``D_f[t] - D_f[i]`` errs by at most ``(t - i) * u * D_f[n]``), of
the harmonic sums and of each candidate's three operations, ``E <= u * (n *
max_f D_f[n] + (n + m + 5) * objective)``; the unit weights are exact. Some
exact minimizer is a block partition, so ``P``'s exact objective is within
``2E`` of the least, and ``e = 2E`` above makes every agent of ``P`` pass.
With ``S = n * (reach + min_f b_f)``, ``reach`` the largest distance
between an end agent and a facility, both ``max_f D_f[n]`` and the least
objective (all agents at the cheapest facility, ``w[n] <= n``) are at most
``S``, for the potential and for the social cost alike, so ``2E <= 2u *
(2n + m + 5) * S``, below ``1e-9 * S`` for ``n`` up to about ``2 * 10**6``.
The window test adds the margin ``1e-9 * ((1 + S) + (|l_f| + b_f) + (|l_g|
+ b_g))`` to ``c_fg``, in the style of the row bound's margin; its pair
term covers the few roundings of the ray's end point, which err by ``u``
times the operands' magnitudes (``W+ <= 1``), and the float ``W-`` and
``W+``, which differ from the exact ones by about ``u * w[n]``. Every
rounded end point then lies on the far side of the exact one, so the float
windows contain the exact ones, and every float near-minimizer, ``P``
included, lies inside them.

Runs. In a pure Nash equilibrium co-located agents share a facility: if
two agents at ``x`` used ``f != g`` with loads ``a`` and ``c``, neither
moving, ``|x - l_f| + b_f / a <= |x - l_g| + b_g / (c + 1)`` and ``|x -
l_g| + b_g / c <= |x - l_f| + b_f / (a + 1)`` add up to ``b_f / (a * (a +
1)) + b_g / (c * (c + 1)) <= 0``, impossible for positive costs. The DP
uses the form of this for any weights and near-minimizers. With ``kappa(s)
= 2 * w[s] - w[s - 1] - w[s + 1]``, moving one agent at ``x`` from ``f`` to
``g`` and moving one from ``g`` to ``f`` change the objective by amounts
that sum to ``-(b_f * kappa(a) + b_g * kappa(c))``, so one of the two
lowers it by ``delta >= min_f b_f * min_s kappa(s)`` over the loads ``1 <=
s <= n - 1`` (``a + c <= n``); the harmonic weights have ``kappa(s) = 1 /
(s * (s + 1))``. The traceback's path ``P`` has an exact objective within
``2E`` of the least (the margin above), so when ``delta > 2E`` no move
lowers it by ``delta``: ``P`` splits no run of equal sorted positions.
``P``'s blocks lie inside their windows, so its loads are also at most the
longest window. :func:`_whole_runs` is that guard: ``delta`` from the float
``kappa`` over ``1 <= s <= min(n - 1, longest window)``, less ``8u *
w[n]`` for the roundings of the float second difference and of the
harmonic sums' last additions, against ``2E <= 2u * (2n + m + 5) * S``.
The windows' margin ``1e-9 * S`` is far too coarse for it, as ``delta`` is
about ``min_f b_f / n^2``. When the guard holds, the layers work on the
run boundaries ``0 = N[0] < ... < N[u] = n`` alone: index ``t`` stands for
agent ``N[t]``, the tables are ``(m, u + 1)``, ``D_f`` is the agent-level
prefix gathered at ``N`` (the same floats), a block ``[i, t)`` holds ``N[t]
- N[i]`` agents and is priced with ``w[N[t] - N[i]]``, and the windows,
whose ends are run boundaries as ``searchsorted`` puts equal positions on
one side, map to run indices by ``searchsorted(N, windows)``. The sizes
keep each layer inverse Monge: for ``i1 < i2`` and ``t1 < t2`` the sizes
``N[t1] - N[i2]`` and ``N[t2] - N[i1]`` have the sum of ``N[t1] - N[i1]``
and ``N[t2] - N[i2]`` and lie outside them, so concave ``w`` prices them at
most as high. So both kernels apply; the rectangle bound reads
``least[N[t] - N[mid - 1]]``, the size of a rectangle's smallest block, and
the dense rule tests ``u * u``. The result is the same, by the windows'
argument: keeping only the run boundaries' rows and columns raises every
``R`` and ``G`` or leaves it, ``P``'s states keep their inputs and start
columns, so the traceback picks ``P``'s blocks, mapped back through ``N``,
and the same value. A solve then costs O(m^2 + m * u log^2 u) after
sorting. When the guard fails, or every run is one agent, the solve runs
per agent. The social cost is never grouped: the unit weights have
``kappa(s) = 0`` for ``s >= 2``, and a flat layer carries the windows'
argument in exact arithmetic only, so :func:`_whole_runs` declines flat
weights.

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

from .model import Assignment, Instance, _integer

__all__ = ["BruteForceLimitError", "distance_prefix", "PartitionSolution",
           "solve_block_partition"]


_DENSE_CELLS = 1 << 17  # candidate cells of one dense layer scan
_FINISH_CELLS = 1 << 13  # a monotone search pass with this few cells left prices them all


class BruteForceLimitError(RuntimeError):
    """The exhaustive search space exceeds the configured guard."""


def distance_prefix(sorted_x: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """``D[..., f, t] = sum_{a < t} |sorted_x[..., a] - locations[f]|`` for
    every facility, over any leading batch axes of ``sorted_x``."""
    d = np.abs(sorted_x[..., None, :] - locations[:, None])
    out = np.zeros(d.shape[:-1] + (d.shape[-1] + 1,))
    np.cumsum(d, axis=-1, out=out[..., 1:])
    return out


def _unit_weights(n: int) -> np.ndarray:
    # A used facility costs its full building cost whatever its load.
    return (np.arange(n + 1) > 0).astype(float)


@dataclass(frozen=True)
class PartitionSolution:
    """Blocks are ``(start, stop, facility)``: 0-based half-open agent ranges in
    sorted order with 1-based, strictly increasing facility indices."""

    value: float
    blocks: tuple[tuple[int, int, int], ...]


def solve_block_partition(sorted_x: np.ndarray, locations: np.ndarray,
                          building_costs: np.ndarray, size_weight: np.ndarray,
                          windows: np.ndarray | None = None,
                          dist: np.ndarray | None = None,
                          runs: np.ndarray | None = None) -> PartitionSolution:
    """Cheapest consecutive-block partition of ``sorted_x`` (ascending) over
    the location-sorted facilities, priced by ``size_weight`` (``w[0] = 0``,
    at least ``n + 1`` entries, nonnegative, flat or concave on ``s >= 1``).

    ``windows``, an ``(m, 2)`` array, promises that the block the traceback
    picks at facility ``f`` lies inside agents ``windows[f - 1, 0] ..
    windows[f - 1, 1] - 1``, as :func:`_windows` does. Layers 2..m then
    price no other block; the result is the same. ``dist`` is
    :func:`distance_prefix` of ``sorted_x`` and ``locations``, built here
    when not given.

    ``runs``, the boundaries ``0 = N[0] < ... < N[u] = n`` of the runs of
    equal positions, promises that the traceback's blocks split no run, as
    :func:`_whole_runs` does. The layers then work on the ``u + 1``
    boundaries alone; the result is the same."""
    n = len(sorted_x)
    m = len(locations)
    if dist is None:
        dist = distance_prefix(sorted_x, locations)
    weight = np.asarray(size_weight, dtype=float)[:n + 1]
    # Index t of the tables stands for agent bounds[t]: over runs a block
    # [i, t) holds runs[t] - runs[i] agents, and windows start and stop at
    # run boundaries.
    bounds = np.arange(n + 1) if runs is None else runs
    if runs is not None:
        dist = dist[:, runs]
        if windows is not None:
            windows = runs.searchsorted(windows)
    size = len(bounds) - 1
    flat = _flat(weight)
    if flat:
        layer = partial(_prefix_minima, weight=weight)
    else:
        layer = (_DenseMinima if size * size <= _DENSE_CELLS else _MonotoneMinima)(weight, runs)
        lightest = weight[1:].min()

    # rowmin[f - 1, t] = R_f[t], argmin[f - 1, t] = A_f[t]; column 0 unused.
    rowmin = np.full((m, size + 1), math.inf)
    argmin = np.zeros((m, size + 1), dtype=np.intp)
    # Layer 1: G_0 is finite only at 0, so every row's argmin is 0.
    rowmin[0, 1:] = (building_costs[0] * weight[bounds[1:]] + (dist[0, 1:] - dist[0, 0])) + 0.0
    table = rowmin[0].copy()
    table[0] = 0.0
    for f in range(1, m):
        # Layer f works on the blocks inside agents cut..end - 2: columns
        # cut..end - 2 and rows cut + 1..end - 1, indexed from cut.
        cut, end = (0, size + 1) if windows is None else (windows[f, 0], windows[f, 1] + 1)
        if end - cut < 2:  # no block fits: the layer keeps +inf and 0
            continue
        held, dist_f, b = table[cut:end], dist[f, cut:end], building_costs[f]
        if flat:
            rows = slice(cut + 1, end)
            low, arg = layer(held, dist_f, b)
        else:
            keys = _keys(held, dist_f)
            live = _live_rows(held, dist_f, b * lightest, keys[1])
            if not len(live):
                continue
            rows = live + cut
            # A row's kernel value need only be exact where it may reach the
            # value the row already holds.
            low, arg = layer(held, dist_f, b, live, keys, cut, held[live])
        rowmin[f, rows] = low
        argmin[f, rows] = arg + cut
        table[rows] = np.minimum(table[rows], low)
    value = float(table[size])

    blocks: list[tuple[int, int, int]] = []
    j, cap = size, m
    while j > 0:
        values = rowmin[:cap, j]
        starts = argmin[:cap, j]
        tied = values == values.min()
        start = int(starts[tied].min())                            # widest block
        fac = int(np.flatnonzero(tied & (starts == start))[0])     # then smallest facility
        blocks.append((int(bounds[start]), int(bounds[j]), fac + 1))
        j, cap = start, fac
    blocks.reverse()
    return PartitionSolution(value, tuple(blocks))


def _flat(weight: np.ndarray) -> bool:
    """Whether ``weight`` is flat on ``s >= 1``, as the unit weights are."""
    return bool(np.all(weight[1:] == weight[1:2]))


def _block_sizes(t: np.ndarray, i: np.ndarray, runs: np.ndarray | None) -> np.ndarray:
    """The agents in the blocks ``[i, t)``: ``t - i``, or ``runs[t] - runs[i]``
    when the indices count runs from ``runs[0]``."""
    return t - i if runs is None else runs[t] - runs[i]


def _keys(table: np.ndarray, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The key ``table - dist`` of every column and its running minimum."""
    key = table - dist
    return key, np.minimum.accumulate(key, axis=-1)


def _running_argmin(key: np.ndarray, run: np.ndarray) -> np.ndarray:
    """The first argmin of ``key[..., :j + 1]`` for every ``j``, from the
    running minimum ``run`` of ``key``."""
    new = np.ones(key.shape, dtype=bool)
    np.less(key[..., 1:], run[..., :-1], out=new[..., 1:])
    return np.maximum.accumulate(np.where(new, np.arange(key.shape[-1]), 0), axis=-1)


def _live_rows(table: np.ndarray, dist: np.ndarray, cheapest: float,
               run: np.ndarray) -> np.ndarray:
    """The rows ``t`` whose candidates may attain or tie ``table[t]``: all but
    those whose lower bound ``cheapest + D[t] + min_{i < t}(table[i] - D[i])``
    exceeds ``table[t]`` by the rounding margin (see the module docstring).
    ``run`` is the running minimum of ``table - dist``."""
    n = len(table) - 1
    bound = (cheapest + dist[1:]) + run[:n]
    return np.flatnonzero(_may_reach(bound, table[1:], dist[1:])) + 1


def _may_reach(bound: np.ndarray, held: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """``bound <= held`` up to the rounding margin ``1e-9 * (1 + held + D[t])``
    of the module docstring, ``dist`` holding each row's ``D[t]``."""
    return bound <= held + 1e-9 * ((1.0 + held) + dist)


def _scale(sorted_x: np.ndarray, locations: np.ndarray, building_costs: np.ndarray) -> float:
    """``S = n * (reach + min_f b_f)`` of the module docstring, ``reach`` the
    largest distance between an end agent and a facility: a bound on every
    ``D_f[n]`` and on the least objective."""
    reach = np.maximum(abs(sorted_x[0] - locations), abs(sorted_x[-1] - locations)).max()
    return len(sorted_x) * (reach + building_costs.min())


def _windows(sorted_x: np.ndarray, locations: np.ndarray, building_costs: np.ndarray,
             size_weight: np.ndarray) -> np.ndarray:
    """The ``windows`` of :func:`solve_block_partition` for weights whose
    marginals lie in ``[0, 1]``: ``windows[f - 1]`` holds the first agent and
    one past the last agent who may use facility ``f`` in a near-minimizer of
    the objective (see the module docstring). O(m^2)."""
    n = len(sorted_x)
    loc, b = locations, building_costs
    step = np.diff(np.asarray(size_weight, dtype=float)[:n + 1])
    size = abs(loc) + b
    margin = 1e-9 * ((1.0 + _scale(sorted_x, loc, b)) + np.add.outer(size, size))
    # Row f, column g: an agent at x may stay at f only if |x - l_f| - |x -
    # l_g| <= c. For l_g <= l_f that is x >= half, for l_g > l_f x <= half,
    # unless half lies beyond l_g (every x) or beyond l_f (none). The
    # diagonal, with c > 0, holds every x.
    c = (b * step.max() - (b * step.min())[:, None]) + margin
    lf, lg = loc[:, None], loc[None, :]
    left = lg <= lf
    half = np.where(left, (lf + lg) - c, (lf + lg) + c) / 2
    lo = np.where(left & (half > lg), np.where(half > lf, math.inf, half), -math.inf)
    hi = np.where(~left & (half < lg), np.where(half < lf, -math.inf, half), math.inf)
    first = sorted_x.searchsorted(lo.max(axis=1), "left")
    stop = sorted_x.searchsorted(hi.min(axis=1), "right")
    return np.stack((first, stop), axis=1)


def _prefix_minima(table: np.ndarray, dist: np.ndarray, b: float,
                   weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row minima and smallest argmins of a layer with flat ``weight``:
    each row's candidate at the first argmin of ``table - dist`` over its
    columns, tracked as a running prefix minimum. Every ``w[t - arg]`` is
    ``w[1]``. Leading axes of ``table`` and ``dist`` are batch axes; one flat
    index, ``arg`` plus each row's offset, gathers from both."""
    n = table.shape[-1] - 1
    arg = _running_argmin(*_keys(table[..., :n], dist[..., :n]))
    at = arg + np.arange(0, table.size, n + 1).reshape(table.shape[:-1] + (1,))
    return (b * weight[1] + (dist[..., 1:] - dist.take(at))) + table.take(at), arg


def _block_values(sorted_profiles: np.ndarray, locations: np.ndarray,
                  building_costs: np.ndarray, size_weight: np.ndarray) -> np.ndarray:
    """``solve_block_partition(row, ...).value`` for every row of the
    ``(P, n)`` ascending profiles under flat ``size_weight``: the same layers
    on a ``(P, n + 1)`` table, without the traceback."""
    n = sorted_profiles.shape[-1]
    dist = distance_prefix(sorted_profiles, locations)
    weight = np.asarray(size_weight, dtype=float)[:n + 1]
    table = np.zeros(dist[:, 0].shape)
    table[:, 1:] = (building_costs[0] * weight[1:] + (dist[:, 0, 1:] - dist[:, 0, :1])) + 0.0
    for f in range(1, len(locations)):
        rowmin = _prefix_minima(table, dist[:, f], building_costs[f], weight)[0]
        np.minimum(table[:, 1:], rowmin, out=table[:, 1:])
    return table[:, n]


class _DenseMinima:
    """Row minima over the candidate square, the cells ``i >= t`` at +inf."""

    def __init__(self, weight: np.ndarray, runs: np.ndarray | None = None):
        # block_weight[t - 1, i] is the weight of the block [i, t), +inf for
        # i >= t.
        if runs is None:
            # Row t - 1 is w[t - i] for i < t, then +inf: the window at n - t
            # of w[n], ..., w[1], +inf, ..., +inf.
            n = len(weight) - 1
            sizes = np.concatenate((weight[:0:-1], np.full(n - 1, math.inf)))
            self.block_weight = np.lib.stride_tricks.sliding_window_view(sizes, n)[::-1]
        else:
            size = np.subtract.outer(runs[1:], runs[:-1])
            self.block_weight = np.where(size > 0, weight[size], math.inf)

    def __call__(self, table, dist, b, rows, keys, cut, cap):
        """Minima and smallest argmins of ``rows`` (ascending, within
        ``1..len(table) - 1``) over the columns below them, on every row.
        The scan needs neither ``keys`` nor ``cap``."""
        width = len(table) - 1
        cand = self.block_weight[rows + (cut - 1), cut:cut + width] * b
        cand += np.subtract.outer(dist[rows], dist[:width])
        cand += table[:width]
        arg = cand.argmin(axis=1)
        return cand[np.arange(len(rows)), arg], arg


class _MonotoneMinima:
    """Row minima for concave weights by the monotone divide and conquer on
    every CDQ rectangle at once, one recursion level per pass."""

    def __init__(self, weight: np.ndarray, runs: np.ndarray | None = None):
        n = len(weight) - 1 if runs is None else len(runs) - 1
        self.weight, self.runs = weight, runs
        # least[s]: the least weight of a block of at least s agents.
        self.least = np.minimum.accumulate(weight[::-1])[::-1]
        # One rectangle per CDQ interval: rows mid..hi-1, columns lo..mid-1,
        # and its depth. The n midpoints are 1..n; over runs n counts runs.
        lo, hi = np.array([0]), np.array([n + 1])
        rects = []
        while len(lo):
            keep = hi - lo >= 2
            lo, hi = lo[keep], hi[keep]
            mid = (lo + hi) >> 1
            rects.append(np.stack([mid, hi, lo, np.full_like(lo, len(rects))]))
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        self.depths = len(rects)
        # By midpoint, so that column mid - 1 holds the rectangle of mid.
        rects = np.concatenate(rects, axis=1)
        self.rects = rects[:, rects[0].argsort()]

    def _rectangles(self, cut: int, end: int) -> tuple[np.ndarray, ...]:
        """The rectangles that hold the pairs ``cut <= i < t < end``, those
        with ``mid`` in ``cut + 1..end - 1``, clipped to the pairs and
        indexed from ``cut``: rows ``mid, hi``, columns ``lo`` and depth."""
        mid, hi, lo, depth = self.rects[:, cut:end - 1]
        return mid - cut, np.minimum(hi, end) - cut, np.maximum(lo, cut) - cut, depth

    @staticmethod
    def _floors(key: np.ndarray, rects: tuple[np.ndarray, ...]) -> np.ndarray:
        """The least ``key[i]`` over each rectangle's columns: one reduceat
        over the cuts lo, mid, lo', mid', ... of rectangles by midpoint
        gives them at the even slots; an odd slot reads one key, as lo' <
        mid' = mid + 1."""
        mid, _, lo, _ = rects
        cuts = np.empty(2 * len(mid), dtype=np.intp)
        cuts[::2], cuts[1::2] = lo, mid
        return np.minimum.reduceat(key, cuts)[::2]

    def _pairs(self, table, dist, b, given, keys, rects, cap, runs=None):
        """Every (rectangle, row) pair of the rows ``given``, as an index into
        ``given``, grouped by rectangle: ``count`` pairs from ``start`` each.
        ``keep`` marks the pairs whose row bound over the rectangle's columns
        may reach the lesser of the row's ``cap`` and its upper bound U, a
        candidate at or above its minimum; no other pair can hold the row's
        minimum if that minimum is at most the cap. ``runs`` are the run
        boundaries from the table's first index, if it counts runs."""
        key, run = keys
        # A rectangle's rows mid..hi-1 are given[head:head + count].
        mid, hi = rects[:2]
        head = given.searchsorted(mid)
        count = given.searchsorted(hi) - head
        start = count.cumsum() - count
        pair = np.arange(start[-1] + count[-1]) + (head - start).repeat(count)
        at = _running_argmin(key, run)[given - 1]
        upper = np.minimum((b * self.weight[_block_sizes(given, at, runs)]
                            + (dist[given] - dist[at])) + table[at], cap)[pair]
        t = given[pair]
        reach = dist[t]
        # Row t's smallest block in this rectangle is [mid - 1, t).
        bound = ((b * self.least[_block_sizes(t, mid.repeat(count) - 1, runs)] + reach)
                 + self._floors(key, rects).repeat(count))
        return pair, start, count, _may_reach(bound, upper, reach)

    def __call__(self, table, dist, b, rows, keys, cut, cap):
        """Minima and smallest argmins of ``rows`` (ascending, within
        ``1..len(table) - 1``) over the columns below them, on every row
        whose minimum is at most its ``cap``; every other row gets some value
        above its cap. ``keys`` is ``table - dist`` and its running minimum;
        ``table[0]`` is index ``cut`` of the rectangles' range ``[0, n]``."""
        size = len(rows)
        runs = None if self.runs is None else self.runs[cut:]
        rects = self._rectangles(cut, cut + len(table))
        pair, start, count, keep = self._pairs(table, dist, b, rows, keys, rects, cap, runs)
        kept = np.zeros(len(pair) + 1, dtype=np.intp)
        np.cumsum(keep, out=kept[1:])
        pair = pair[keep]
        # A task: kept pairs ra..rb and columns clo..chi, all inclusive, and
        # the base of its depth's slots in the result buffers.
        mid, _, lo, depth = rects
        tasks = np.stack([kept[start], kept[start + count] - 1, lo, mid - 1, depth * size])
        tasks = tasks.compress(tasks[0] <= tasks[1], axis=1)
        bw = b * self.weight
        best = np.full((self.depths, size), math.inf)
        where = np.zeros((self.depths, size), dtype=np.intp)
        ends_first = True
        while tasks.shape[1]:
            ra, rb, clo, chi, base = tasks
            count = rb - ra + 1
            width = chi - clo + 1
            # The pass that finds the remaining cells within the budget
            # prices them all; until then only one-row and one-column tasks
            # finish. A rectangle that does not finish prices its first and
            # last rows, a later task its middle row. seg: the priced pairs.
            last = count @ width <= _FINISH_CELLS
            done = True if last else np.minimum(count, width) == 1
            if ends_first:
                first, per = ra, np.where(done, count, 2)
                stride = np.where(done, 1, count - 1)
            else:
                first, per = np.where(done, ra, (ra + rb) >> 1), np.where(done, count, 1)
            offset = per.cumsum() - per
            owner = np.arange(len(per)).repeat(per)
            seg = np.arange(len(owner)) - offset[owner]
            if ends_first:
                seg *= stride[owner]
            seg += first[owner]
            seg = pair[seg]
            low, arg = _price(rows[seg], clo[owner], width[owner], table, dist, bw, runs)
            seg += base[owner]
            best.reshape(-1)[seg] = low
            where.reshape(-1)[seg] = arg
            if last:
                break

            split = np.flatnonzero(~done)
            lead = arg[offset[split]]
            tasks = tasks[:, split]
            if ends_first:
                # The rows between the ends search A(last)..A(first); min and
                # max keep that range whole should rounding ever swap the two.
                trail = arg[offset[split] + 1]
                tasks[0] += 1
                tasks[1] -= 1
                tasks[2] = np.minimum(lead, trail)
                tasks[3] = np.maximum(lead, trail)
            else:
                # Rows ra..k-1 search A(k)..chi, rows k+1..rb search clo..A(k).
                k = first[split]
                h = len(k)
                tasks = np.concatenate((tasks, tasks), axis=1)
                tasks[1, :h] = k - 1
                tasks[2, :h] = lead
                tasks[0, h:] = k + 1
                tasks[3, h:] = lead
            tasks = tasks.compress(tasks[0] <= tasks[1], axis=1)
            ends_first = False
        # A row's minimum over its rectangles, from the shallowest on ties:
        # shallower rectangles hold smaller columns.
        low = best.min(axis=0)
        return low, where[(best == low).argmax(axis=0), np.arange(size)]


def _price(t, lo, width, table, dist, bw, runs=None):
    """The least candidate of each row ``t[j]`` over the columns ``lo[j]``
    to ``lo[j] + width[j] - 1``, and its smallest argmin; ``bw`` is ``b * w``
    and ``runs`` as in :meth:`_MonotoneMinima._pairs`. One pass of the
    monotone search."""
    ends = width.cumsum()
    starts = ends - width
    cols = np.arange(ends[-1]) - (starts - lo).repeat(width)
    cand = ((bw[_block_sizes(t.repeat(width), cols, runs)]
             + (dist[t].repeat(width) - dist[cols])) + table[cols])
    low = np.minimum.reduceat(cand, starts)
    hits = np.flatnonzero(cand == low.repeat(width))
    return low, cols[hits[hits.searchsorted(starts)]]


@dataclass(frozen=True)
class _SortedView:
    """An instance's agent order after a stable sort by position, the sorted
    positions, its facilities' locations and building costs, the distance
    prefix of the sorted agents, and the boundaries ``runs`` of the runs of
    equal sorted positions (``0 = runs[0] < ... < runs[u] = n``); every
    array read-only."""

    order: np.ndarray
    x: np.ndarray
    locations: np.ndarray
    costs: np.ndarray
    dist: np.ndarray
    runs: np.ndarray


def _sorted_view(instance: Instance) -> _SortedView:
    """The :class:`_SortedView` of this very object, built on first use and
    kept on it outside its fields: both solves of one instance share it, it
    is no part of the instance's value and goes with the object. An equal
    but distinct instance builds its own. Its ``dist`` is built here, once
    per object, by :func:`distance_prefix` of the sorted agents."""
    view = getattr(instance, "_block_view", None)
    if view is not None:
        return view
    positions = np.asarray(instance.profile.positions, dtype=float)
    env = instance.environment
    order = np.argsort(positions, kind="stable")
    sorted_x = positions[order]
    locations = np.asarray(env.locations, dtype=float)
    view = _SortedView(order, sorted_x, locations,
                       np.asarray(env.building_costs, dtype=float),
                       distance_prefix(sorted_x, locations),
                       np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1], True]))
    for array in (view.order, view.x, view.locations, view.costs, view.dist, view.runs):
        array.flags.writeable = False
    object.__setattr__(instance, "_block_view", view)
    return view


def _whole_runs(view: _SortedView, size_weight: np.ndarray,
                windows: np.ndarray) -> np.ndarray | None:
    """``view.runs`` when no near-minimizer of the objective splits a run of
    co-located agents, else None: the guard of the module docstring. It
    declines for flat weights and when every run is one agent."""
    n, m = len(view.x), len(view.locations)
    weight = np.asarray(size_weight, dtype=float)[:n + 1]
    if len(view.runs) == n + 1 or _flat(weight):
        return None
    # A split run's loads s lie in 1..n - 1 and inside their windows.
    top = min(n - 1, int((windows[:, 1] - windows[:, 0]).max()))
    kappa = (2.0 * weight[1:top + 1] - weight[:top]) - weight[2:top + 2]
    gap = view.costs.min() * (kappa.min() - 2.0 ** -50 * weight[n])
    error = 2.0 ** -52 * (2 * n + m + 5) * _scale(view.x, view.locations, view.costs)
    return view.runs if gap > error else None


def _block_assignment(instance: Instance, size_weight: np.ndarray) -> Assignment:
    """Solve the block DP on stably sorted agents, each layer on its
    :func:`_windows` and over runs of co-located agents where
    :func:`_whole_runs` allows it, and map the blocks back to the caller's
    agent order. ``size_weight``'s marginals must lie in ``[0, 1]``. The
    sorted agents, their distance prefix and runs come from the instance's
    :func:`_sorted_view`, and the prefix is passed to
    :func:`solve_block_partition`."""
    view = _sorted_view(instance)
    windows = _windows(view.x, view.locations, view.costs, size_weight)
    solution = solve_block_partition(view.x, view.locations, view.costs, size_weight,
                                     windows, view.dist,
                                     _whole_runs(view, size_weight, windows))
    choices = np.empty(len(view.x), dtype=int)
    for lo, hi, fac in solution.blocks:
        choices[view.order[lo:hi]] = fac
    return Assignment._trusted(choices.tolist())


def _brute_force_min(instance: Instance, size_weight: np.ndarray,
                     limit: int) -> tuple[float, Assignment]:
    """Minimum cost over all ``m**n`` assignments and the lexicographically
    smallest assignment attaining it, scanned in chunks of 2**16."""
    n, m = instance.n, instance.m
    total = m ** n
    if total > _integer(limit, "limit", 0):
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
    return best_value, Assignment._trusted((digits + 1).tolist())
