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
  argmin is priced with the expression above. O(n) per layer.
  ``_block_values`` runs these layers on a batch of profiles at once, for
  the values only.
* Otherwise (the harmonic weights) a layer prices only its live rows, those
  that pass the row bound below and, for the equilibrium, lie in its window
  (the equilibrium windows below). If ``n * n`` is at most ``_DENSE_CELLS``,
  one broadcast prices each live row against ``i in 0..n-1``, the cells
  with ``i >= t`` held at +inf, and takes its minimum. O(n^2) per layer,
  with a fixed memory bound.
* Otherwise ``w`` must be concave on ``s >= 1``, as the harmonic weights
  are: ``w[s+1] - w[s]`` does not increase. For ``i1 < i2`` and ``t1 < t2``
  with every ``i < t``, ``cand(t1, i2) + cand(t2, i1) <= cand(t1, i1) +
  cand(t2, i2)`` (inverse Monge), so the smallest argmin of a row does not
  increase as ``t`` grows (Galil and Park, 1990), also over any subset of
  the rows. A CDQ split halves the index range ``[0, n]`` recursively: each
  interval ``[lo, hi)`` with midpoint ``mid`` gives the rectangle of rows
  ``mid..hi-1`` and columns ``lo..mid-1``, and every pair ``i < t`` lies in
  exactly one rectangle. A prefix count of the live rows gives each
  rectangle's live rows, and the rectangle bound below drops those that
  cannot hold the row's minimum. A task is a run of remaining rows with a
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

A row is dead when this bound over all ``i < t`` exceeds ``G_{f-1}[t]``
by more than the margin ``1e-9 * (1 + G_{f-1}[t] + D_f[t])``; its
``R_f[t]`` is stored as +inf. A dead row's every float candidate is
strictly above ``G_{f-1}[t]``, which an earlier layer attains at ``t``, so
neither ``G_f`` nor the traceback (least ``R``, then smallest argmin, then
smallest ``f``) can pick it, and every result stays bit-identical. The
rectangle bound is the same test over a rectangle's columns against
``U[t]``, the candidate at the first argmin of ``G_{f-1}[i] - D_f[i]``
over ``i < t``, which is at least ``R_f[t]``: a rectangle that fails it
holds no candidate at or below the row's minimum, so the row's minimum and
smallest argmin are unchanged. It is size-aware: a column ``i <= mid - 1``
of row ``t`` closes a block of ``t - i >= t - mid + 1`` agents, so the
rectangle bound uses ``p = fl(b_f * least[t - mid + 1])``, ``least[s]``
the least ``w[s']`` over ``s' >= s``, and ``p <= fl(b_f * w[t - i])``
still holds for every column by monotone rounding. The margin's argument,
with ``u = 2**-53`` and ``h`` the held value (``G_{f-1}[t]`` or
``U[t]``): suppose a float candidate ``c = cand_f(t, i) <= h``. Its three
roundings act on nonnegative operands and rounding is monotone, so ``p <=
fl(b_f * w[t - i]) <= c`` and, exactly, ``p + (D_f[t] - D_f[i]) +
G_{f-1}[i] <= c / (1 - u)**3 <= h * (1 + 4u)``. Every key ``G_{f-1}[j] -
D_f[j]`` is at least ``-D_f[t]``, and the one at ``i`` at most ``h -
D_f[t]``, so each of the three roundings in the float bound (the key, ``p
+ D_f[t]`` and their sum) errs by at most about ``u * (h + D_f[t])``. The
float bound is then at most ``h + 7u * (h + D_f[t])``, far inside the
margin; the margin's absolute term covers subnormal sums. A row with
``G_{f-1}[t] = +inf`` is always live. Each layer computes the keys and
their running minimum once, for the row bound, ``U`` and the rectangle
floors (the least key over each rectangle's columns). The floors come from
one ``np.minimum.reduceat``: the rectangles are stored by decreasing
``lo``, so the cuts ``lo, mid`` of consecutive rectangles ascend only
within a rectangle's columns.

Equilibrium windows (the harmonic weights only). An agent at ``x`` who uses
facility ``f`` in a pure Nash equilibrium pays at least ``|x - l_f| + b_f /
n``, and leaving for any ``g != f`` would cost her at most ``|x - l_g| +
b_g``. A deviation changes the potential by exactly the deviator's cost
change, so in an assignment whose potential is within ``e`` of the least
every agent passes, for every ``g``::

    |x - l_f| - |x - l_g| <= c_fg = b_g - b_f / n + e

The left side is monotone in ``x``: it falls from ``l_f - l_g`` to ``l_g -
l_f`` as ``x`` crosses ``[l_g, l_f]`` when ``l_g < l_f``, and rises when
``l_g > l_f``. So each test holds on a ray ``x >= (l_f + l_g - c_fg) / 2``
(resp. ``x <= (l_f + l_g + c_fg) / 2``), on every ``x`` when that point lies
beyond ``l_g``, and on none when it lies beyond ``l_f``; with ``l_g = l_f``
it holds for all ``x`` or for none. Facility ``f``'s window is the
intersection over ``g``, one interval, and two ``searchsorted`` calls on the
sorted agents turn it into a range of agents ``first_f .. stop_f - 1``. A
block ``[i, t)`` at ``f`` lies inside it only if ``first_f + 1 <= t <=
stop_f``: the window's rows. ``_equilibrium_windows`` computes them in
O(m^2); ``compute_pne_dp`` passes them, and a concave layer 2..m intersects
its live rows with them. The optimum and ``_block_values`` take none: the
test is a property of the potential, not of other weights. Layer 1 stays
whole, as it is closed form and a finite ``G_1`` only helps later row bounds.

Why the windowed table gives the same result. Let ``P`` be the path the
unwindowed traceback follows and suppose its every block ends at a
window's row. Windowing stores +inf in some rows and float operations are
monotone, so every windowed ``R'`` and ``G'`` is at least the unwindowed
one. Along ``P``, from the left, each state's inputs are unchanged, so its
chosen candidate is priced to the same float, the windowed table holds the
same value there, and the stored argmin is the same: a smaller column
tying in ``R'`` would tie in ``R``. At a traceback state every other
layer's windowed minimum is at least its old one, and where it ties, its
argmin is at least the old argmin. The old choice, the least value, then
the smallest argmin, then the smallest ``f``, therefore still wins: the
traceback picks the same blocks and ``G'_m[n] = G_m[n]``. Ties need nothing
more: whichever tied candidate the tie rule picks lies on ``P``, and ``P``
is a float minimizer of the potential, so it lies inside the windows (the
margin below). The row bound then acts on the windowed table as on any
other.

The margin. ``P`` minimizes the float DP, which differs from the exact
potential of any block partition by at most ``E``: a first-order sum over
the roundings of each distance, of the sequential prefix sums ``D_f`` (a
block's ``D_f[t] - D_f[i]`` errs by at most ``(t - i) * u * D_f[n]``), of
the harmonic sums and of each candidate's three operations, ``E <= u * (n *
max_f D_f[n] + (n + m + 5) * potential)``. Some exact minimizer is a block
partition, so ``P``'s exact potential is within ``2E`` of the least, and
``e = 2E`` above makes every agent of ``P`` pass. With ``S = n * (reach +
min_f b_f)``, ``reach`` the largest distance between an end agent and a
facility, both ``max_f D_f[n]`` and the least potential (all agents at the
cheapest facility) are at most ``S``, so ``2E <= 2u * (2n + m + 5) * S``,
below ``1e-9 * S`` for ``n`` up to about ``2 * 10**6``. The window test
adds the margin ``1e-9 * ((1 + S) + (|l_f| + b_f) + (|l_g| + b_g))`` to
``c_fg``, in the style of the row bound's margin; its pair term covers the
few roundings of the ray's end point, which err by ``u`` times the operands'
magnitudes. Every rounded end point then lies on the far side of the exact
one, so the float windows contain the exact ones, and every float
near-minimizer, ``P`` included, lies inside them.

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
                          rows: np.ndarray | None = None) -> PartitionSolution:
    """Cheapest consecutive-block partition of ``sorted_x`` (ascending) over
    the location-sorted facilities, priced by ``size_weight`` (``w[0] = 0``,
    at least ``n + 1`` entries, nonnegative, flat or concave on ``s >= 1``).

    ``rows``, an ``(m, 2)`` array, promises that the block the traceback
    picks at facility ``f`` ends at a row ``t`` with ``rows[f - 1, 0] <= t <
    rows[f - 1, 1]``, as :func:`_equilibrium_windows` does for the harmonic
    weights. The concave layers 2..m then price no other row; the result is
    the same."""
    n = len(sorted_x)
    m = len(locations)
    dist = distance_prefix(sorted_x, locations)
    weight = np.asarray(size_weight, dtype=float)[:n + 1]
    flat = np.all(weight[1:] == weight[1:2])
    if flat:
        layer = partial(_prefix_minima, weight=weight)
    else:
        layer = (_DenseMinima if n * n <= _DENSE_CELLS else _MonotoneMinima)(weight)
        lightest = weight[1:].min()

    # rowmin[f - 1, t] = R_f[t], argmin[f - 1, t] = A_f[t]; column 0 unused.
    rowmin = np.full((m, n + 1), math.inf)
    argmin = np.zeros((m, n + 1), dtype=np.intp)
    # Layer 1: G_0 is finite only at 0, so every row's argmin is 0.
    rowmin[0, 1:] = (building_costs[0] * weight[1:] + (dist[0, 1:] - dist[0, 0])) + 0.0
    table = rowmin[0].copy()
    table[0] = 0.0
    for f in range(1, m):
        if flat:
            rowmin[f, 1:], argmin[f, 1:] = layer(table, dist[f], building_costs[f])
        else:
            keys = _keys(table, dist[f])
            live = _live_rows(table, dist[f], building_costs[f] * lightest, keys[1])
            if rows is not None:
                live = live[live.searchsorted(rows[f, 0]):live.searchsorted(rows[f, 1])]
            if len(live):  # a layer without live rows keeps +inf and 0
                rowmin[f, 1:], argmin[f, 1:] = layer(table, dist[f], building_costs[f],
                                                     live, keys)
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


def _equilibrium_windows(sorted_x: np.ndarray, locations: np.ndarray,
                         building_costs: np.ndarray) -> np.ndarray:
    """The ``rows`` of :func:`solve_block_partition` for the harmonic weights:
    ``rows[f - 1]`` holds the rows ``t`` of the blocks ``[i, t)`` that lie
    inside facility ``f``'s window, the agents that may use ``f`` in a
    near-minimizer of the potential (see the module docstring). O(m^2)."""
    n = len(sorted_x)
    loc, b = locations, building_costs
    reach = np.maximum(abs(sorted_x[0] - loc), abs(sorted_x[-1] - loc)).max()
    size = abs(loc) + b
    margin = 1e-9 * ((1.0 + n * (reach + b.min())) + np.add.outer(size, size))
    # Row f, column g: an agent at x may stay at f only if |x - l_f| - |x -
    # l_g| <= c. For l_g <= l_f that is x >= half, for l_g > l_f x <= half,
    # unless half lies beyond l_g (every x) or beyond l_f (none). The
    # diagonal, with c > 0, holds every x.
    c = (b - (b / n)[:, None]) + margin
    lf, lg = loc[:, None], loc[None, :]
    left = lg <= lf
    half = np.where(left, (lf + lg) - c, (lf + lg) + c) / 2
    lo = np.where(left & (half > lg), np.where(half > lf, math.inf, half), -math.inf)
    hi = np.where(~left & (half < lg), np.where(half < lf, -math.inf, half), math.inf)
    first = sorted_x.searchsorted(lo.max(axis=1), "left")
    stop = sorted_x.searchsorted(hi.min(axis=1), "right")
    return np.stack((first + 1, stop + 1), axis=1)


def _prefix_minima(table: np.ndarray, dist: np.ndarray, b: float,
                   weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidate at the first argmin of ``table - dist`` over its
    columns, tracked as a running prefix minimum: the row minimum for flat
    weights, and at least the row minimum for any weights. Leading axes of
    ``table`` and ``dist`` are batch axes."""
    n = table.shape[-1] - 1
    arg = _running_argmin(*_keys(table[..., :n], dist[..., :n]))
    return ((b * weight[np.arange(1, n + 1) - arg]
             + (dist[..., 1:] - np.take_along_axis(dist, arg, -1)))
            + np.take_along_axis(table, arg, -1)), arg


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


def _spread(n: int, rows: np.ndarray, low: np.ndarray,
            arg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minima and argmins of ``rows`` placed among rows ``1..n``; the other
    rows get +inf and 0."""
    out, at = np.full(n, math.inf), np.zeros(n, dtype=np.intp)
    out[rows - 1] = low
    at[rows - 1] = arg
    return out, at


class _DenseMinima:
    """Row minima over the candidate square, the cells ``i >= t`` at +inf."""

    def __init__(self, weight: np.ndarray):
        n = len(weight) - 1
        # Row t of the square is w[t - i] for i < t, then +inf: the window
        # at n - t of w[n], ..., w[1], +inf, ..., +inf.
        sizes = np.concatenate((weight[:0:-1], np.full(n - 1, math.inf)))
        self.block_weight = np.lib.stride_tricks.sliding_window_view(sizes, n)

    def __call__(self, table, dist, b, rows, keys):
        """Minima and smallest argmins of ``rows`` (ascending, within
        ``1..n``), ``+inf`` and 0 on every other row. The scan needs no
        ``keys``."""
        n = len(table) - 1
        cand = self.block_weight[n - rows] * b
        cand += np.subtract.outer(dist[rows], dist[:n])
        cand += table[:n]
        arg = cand.argmin(axis=1)
        return _spread(n, rows, cand[np.arange(len(rows)), arg], arg)


class _MonotoneMinima:
    """Row minima for concave weights by the monotone divide and conquer on
    every CDQ rectangle at once, one recursion level per pass."""

    def __init__(self, weight: np.ndarray):
        n = len(weight) - 1
        self.weight = weight
        # least[s]: the least weight of a block of at least s agents.
        self.least = np.minimum.accumulate(weight[::-1])[::-1]
        # One rectangle per CDQ interval: rows mid..hi-1, columns lo..mid-1,
        # and its depth.
        lo, hi = np.array([0]), np.array([n + 1])
        rects = []
        while len(lo):
            keep = hi - lo >= 2
            lo, hi = lo[keep], hi[keep]
            mid = (lo + hi) >> 1
            rects.append(np.stack([mid, hi, lo, mid - 1, np.full_like(lo, len(rects))]))
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        self.depths = len(rects)
        # By decreasing lo, so that one reduceat over the cuts lo, mid, lo',
        # mid', ... gives every floor at the even slots; an odd slot reads
        # one key, as mid > lo >= lo'.
        rects = np.concatenate(rects, axis=1)
        self.rects = rects[:, np.lexsort((rects[0], -rects[2]))]
        self.cuts = self.rects[[2, 0]].T.ravel()

    def _floors(self, key: np.ndarray) -> np.ndarray:
        """The least ``key[i]`` over each rectangle's columns."""
        return np.minimum.reduceat(key, self.cuts)[::2]

    def _pairs(self, table, dist, b, given, keys):
        """Every (rectangle, row) pair of the rows ``given``, as an index into
        ``given``, grouped by rectangle: ``count`` pairs from ``start`` each.
        ``keep`` marks the pairs whose row bound over the rectangle's columns
        may reach the row's upper bound U, a candidate at or above its
        minimum; no other pair can hold the row's minimum."""
        key, run = keys
        # below[k]: how many given rows lie below row k, so a rectangle's
        # rows mid..hi-1 are given[below[mid]:below[hi]].
        below = np.zeros(len(table) + 1, dtype=np.intp)
        below[given + 1] = 1
        np.cumsum(below, out=below)
        mid, hi = self.rects[:2]
        head = below[mid]
        count = below[hi] - head
        start = count.cumsum() - count
        pair = np.arange(start[-1] + count[-1]) + (head - start).repeat(count)
        at = _running_argmin(key, run)[given - 1]
        upper = ((b * self.weight[given - at] + (dist[given] - dist[at]))
                 + table[at])[pair]
        t = given[pair]
        reach = dist[t]
        # Row t closes a block of at least t - mid + 1 agents in this rectangle.
        bound = ((b * self.least[t - mid.repeat(count) + 1] + reach)
                 + self._floors(key).repeat(count))
        return pair, start, count, _may_reach(bound, upper, reach)

    def __call__(self, table, dist, b, rows, keys):
        """Minima and smallest argmins of ``rows`` (ascending, within
        ``1..n``), ``+inf`` and 0 on every other row. ``keys`` is
        ``table - dist`` and its running minimum."""
        size = len(rows)
        pair, start, count, keep = self._pairs(table, dist, b, rows, keys)
        kept = np.zeros(len(pair) + 1, dtype=np.intp)
        np.cumsum(keep, out=kept[1:])
        pair = pair[keep]
        # A task: kept pairs ra..rb and columns clo..chi, all inclusive, and
        # the base of its depth's slots in the result buffers.
        _, _, clo, chi, depth = self.rects
        tasks = np.stack([kept[start], kept[start + count] - 1, clo, chi, depth * size])
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
            low, arg = _price(rows[seg], clo[owner], width[owner], table, dist, bw)
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
        arg = where[(best == low).argmax(axis=0), np.arange(size)]
        return _spread(len(table) - 1, rows, low, arg)


def _price(t, lo, width, table, dist, bw):
    """The least candidate of each row ``t[j]`` over the columns ``lo[j]``
    to ``lo[j] + width[j] - 1``, and its smallest argmin; ``bw`` is ``b * w``.
    One pass of the monotone search."""
    ends = width.cumsum()
    starts = ends - width
    cols = np.arange(ends[-1]) - (starts - lo).repeat(width)
    cand = ((bw[t.repeat(width) - cols] + (dist[t].repeat(width) - dist[cols]))
            + table[cols])
    low = np.minimum.reduceat(cand, starts)
    hits = np.flatnonzero(cand == low.repeat(width))
    return low, cols[hits[hits.searchsorted(starts)]]


def _block_assignment(instance: Instance, size_weight: np.ndarray, *,
                      windows: bool = False) -> Assignment:
    """Solve the block DP on stably sorted agents and map the blocks back to
    the caller's agent order. ``windows`` restricts the layers to
    :func:`_equilibrium_windows`, valid only for the harmonic weights."""
    positions = np.asarray(instance.profile.positions, dtype=float)
    env = instance.environment
    order = np.argsort(positions, kind="stable")
    sorted_x = positions[order]
    locations = np.asarray(env.locations, dtype=float)
    costs = np.asarray(env.building_costs, dtype=float)
    rows = _equilibrium_windows(sorted_x, locations, costs) if windows else None
    solution = solve_block_partition(sorted_x, locations, costs, size_weight, rows)
    choices = np.empty(len(positions), dtype=int)
    for lo, hi, fac in solution.blocks:
        choices[order[lo:hi]] = fac
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
