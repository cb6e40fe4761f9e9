"""Differential tests of the layered block DP against the exhaustive scan.

``oracle_block_partition`` prices every rightmost-block candidate of every
agent prefix with the library's float expression, so the layered kernel must
return the same value and the same blocks, compared with ``==``, for both
size weights and on every path: the running prefix minimum (unit weights),
the dense square scan (small ``n``) and the monotone divide and conquer.
Exact ties come from integer lattices. Near-ties come from the same lattices
moved by a few ulps: there the harmonic layers' row bound and its rounding
margin must not drop a row that can still win.
"""

import ast
import copy
import gc
import itertools
import json
import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import facshare as fs
from facshare import _blockdp, cli
from facshare.model import instance_to_dict
from oracles import (lattice_instance, oracle_block_partition, oracle_min_social_cost,
                     oracle_windows, suite_dims)

DENSE_N = int(_blockdp._DENSE_CELLS ** 0.5)  # largest n on the dense path


def partition_args(inst):
    positions = np.asarray(inst.profile.positions, dtype=float)
    env = inst.environment
    return (np.sort(positions, kind="stable"), np.asarray(env.locations, dtype=float),
            np.asarray(env.building_costs, dtype=float))


def weights(n):
    return {"harmonic": fs.harmonic_numbers(n),
            "unit": (np.arange(n + 1) > 0).astype(float)}


def assert_same_partition(instances):
    """Compare every instance under both weights; return the oracle's count
    of blocks that were chosen among tied candidates."""
    ties = 0
    for inst in instances:
        args = partition_args(inst)
        for name, w in weights(inst.n).items():
            value, blocks, tied = oracle_block_partition(*args, w)
            got = _blockdp.solve_block_partition(*args, w)
            assert (got.value, got.blocks) == (value, blocks), (inst, name)
            ties += tied
    return ties


def clustered_instance(rng, n, m):
    """Agents in 3 to 6 tight clusters on a 0.01 lattice, as in the
    benchmark's clustered workload: many agents share a position."""
    centers = rng.uniform(0.5, 9.5, size=int(rng.integers(3, 7)))
    x = np.round(centers[rng.integers(len(centers), size=n)]
                 + rng.normal(0.0, 0.05, size=n), 2)
    env = fs.Environment(tuple(rng.uniform(0.0, 10.0, size=m).tolist()),
                         tuple(rng.uniform(0.5, 5.0, size=m).tolist()))
    return fs.Instance(env, fs.Profile(tuple(x.tolist())))


def lattice_cases():
    rng = np.random.default_rng(55)
    return [lattice_instance(rng, int(rng.integers(1, 41)), int(rng.integers(1, 7)))
            for _ in range(600)]


def test_suite500_matches_exhaustive_scan(suite500):
    assert_same_partition(suite500)


def test_lattice_ties_match_exhaustive_scan():
    assert assert_same_partition(lattice_cases()) >= 500


def test_lattice_ties_on_monotone_path(monkeypatch):
    # With no dense budget every harmonic layer takes the monotone path.
    monkeypatch.setattr(_blockdp, "_DENSE_CELLS", 0)
    assert assert_same_partition(lattice_cases()) >= 500


def test_clustered_matches_exhaustive_scan():
    rng = np.random.default_rng(77)
    sizes = [(int(rng.integers(2, 2 * DENSE_N)), int(rng.integers(1, 12)))
             for _ in range(40)]
    assert_same_partition([clustered_instance(rng, n, m) for n, m in sizes])


def large_random_cases():
    rng = np.random.default_rng(99)
    return [fs.generate_instance(int(rng.integers(DENSE_N + 1, 2 * DENSE_N)),
                                 int(rng.integers(1, 12)), seed=seed) for seed in range(24)]


def test_large_random_matches_exhaustive_scan():
    instances = large_random_cases()
    assert all(inst.n > DENSE_N for inst in instances)
    assert_same_partition(instances)


@pytest.mark.parametrize("n", [DENSE_N, DENSE_N + 1])
def test_dense_budget_boundary(n):
    assert_same_partition([fs.generate_instance(n, 4, seed=n)])


@pytest.mark.parametrize("n", [30, DENSE_N + 1])
def test_layer_without_live_rows_runs_no_kernel(monkeypatch, n):
    # A far, costly third facility: no row of its layer can reach the table,
    # so only the second layer's kernel runs, and the partition is still the
    # exhaustive scan's.
    sizes = []
    for kernel in (_blockdp._DenseMinima, _blockdp._MonotoneMinima):
        def spy(self, table, dist, b, rows, keys, cut, cap, price=kernel.__call__):
            sizes.append(len(rows))
            return price(self, table, dist, b, rows, keys, cut, cap)
        monkeypatch.setattr(kernel, "__call__", spy)
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    locations, costs = np.array([0.2, 0.8, 1000.0]), np.array([1.0, 1.0, 1000.0])
    w = fs.harmonic_numbers(n)
    value, blocks, _ = oracle_block_partition(x, locations, costs, w)
    got = _blockdp.solve_block_partition(x, locations, costs, w)
    assert (got.value, got.blocks) == (value, blocks)
    assert len(sizes) == 1 and sizes[0] > 0


def uncapped(rows):
    """A kernel ``cap`` of +inf on every row: every row's minimum is exact."""
    return np.full(len(rows), np.inf)


def scan_layer(table, dist, b, weight, cut=0):
    """Row minima and smallest argmins of one layer, row by row, over the
    columns at or after ``cut``: rows ``cut + 1..``."""
    best, arg = [], []
    for t in range(cut + 1, len(table)):
        i = np.arange(cut, t)
        cand = (b * weight[t - i] + (dist[t] - dist[i])) + table[i]
        best.append(cand.min())
        arg.append(cut + int(np.argmin(cand)))
    return best, arg


def slices(rng, n):
    """``(cut, end)`` of the whole layer and of two windows of at least one
    block inside it."""
    ends = [(0, n + 1)]
    for _ in range(2):
        cut = int(rng.integers(0, n))
        ends.append((cut, int(rng.integers(cut + 2, n + 2))))
    return ends


@pytest.mark.parametrize("kind", ["unit", "capped", "harmonic"])
def test_layer_kernels_match_row_scan(kind):
    # Integer data keep every candidate exact, so rows tie often, also across
    # the monotone path's rectangles; unit and capped weights are concave.
    # A window's layer works on table[cut:end] and must find the scan's
    # minima over the columns at or after the cut.
    rng = np.random.default_rng(len(kind))
    windowed = 0
    for n in (1, 2, 3, 7, 40, 130):
        sizes = np.arange(n + 1)
        weight = {"unit": (sizes > 0).astype(float),
                  "capped": np.minimum(sizes, 4).astype(float),
                  "harmonic": 60.0 * fs.harmonic_numbers(n)}[kind]
        for _ in range(20):
            table = rng.integers(0, 12, size=n + 1).astype(float)
            table[rng.random(n + 1) < 0.1] = np.inf
            table[0] = 0.0
            dist = np.cumsum(rng.integers(0, 3, size=n + 1)).astype(float)
            b = float(rng.integers(1, 4))
            for cut, end in slices(rng, n):
                windowed += cut > 0
                held, dist_f = table[cut:end], dist[cut:end]
                expected = scan_layer(table[:end], dist[:end], b, weight, cut)
                rows = np.arange(1, end - cut)
                given = dict(rows=rows, keys=_blockdp._keys(held, dist_f), cut=cut,
                             cap=uncapped(rows))
                kernels = [partial(_blockdp._DenseMinima(weight), **given),
                           partial(_blockdp._MonotoneMinima(weight), **given)]
                if kind == "unit":
                    kernels.append(partial(_blockdp._prefix_minima, weight=weight))
                for layer in kernels:
                    best, arg = layer(held, dist_f, b)
                    assert (best.tolist(), (arg + cut).tolist()) == expected, (layer, n, cut)
    assert windowed > 100


FINISH_BUDGETS = [0, _blockdp._FINISH_CELLS, 1 << 20]


def integer_layer(rng, n, kind):
    """One random layer with integer data, so that candidates tie often."""
    sizes = np.arange(n + 1)
    weight = {"unit": (sizes > 0).astype(float),
              "capped": np.minimum(sizes, 4).astype(float),
              "harmonic": 60.0 * fs.harmonic_numbers(n)}[kind]
    table = rng.integers(0, 12, size=n + 1).astype(float)
    table[rng.random(n + 1) < 0.1] = np.inf
    table[0] = 0.0
    dist = np.cumsum(rng.integers(0, 3, size=n + 1)).astype(float)
    return table, dist, float(rng.integers(1, 4)), weight


def near_tie_layer(rng, n, scale):
    """One random harmonic layer in which about half the rows hold a value
    within a few ulps of their row bound, so that the rounding margin
    decides them; the other rows hold their bound times 0.5 to 1.5."""
    weight = fs.harmonic_numbers(n) * float(rng.integers(1, 4))
    b = float(rng.uniform(0.5, 5.0)) * scale
    dist = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 3.0, n)))) * scale
    table = np.zeros(n + 1)
    floor = 0.0  # min over i < t of table[i] - dist[i]
    for t in range(1, n + 1):
        bound = (b * weight[1] + dist[t]) + floor
        if rng.random() < 0.5:
            table[t] = bound + rng.integers(-4, 5) * np.spacing(bound)
        else:
            table[t] = bound * rng.uniform(0.5, 1.5)
        floor = min(floor, table[t] - dist[t])
    return table, dist, b, weight


# 256 also ends the search on a small budget, after several passes.
@pytest.mark.parametrize("budget", [0, 256, *FINISH_BUDGETS[1:]])
@pytest.mark.parametrize("kind", ["unit", "capped", "harmonic", "near-tie", "near-tie-1e8"])
def test_harmonic_kernels_on_row_subsets(monkeypatch, budget, kind):
    # Each harmonic kernel returns the row scan's minima and smallest argmins
    # on exactly the rows it is given, also on a window's slice, where the
    # scan runs over the columns at or after the cut.
    monkeypatch.setattr(_blockdp, "_FINISH_CELLS", budget)
    rng = np.random.default_rng(budget + len(kind))
    for n in (1, 2, 3, 7, 40, 130):
        for _ in range(12):
            if kind.startswith("near-tie"):
                table, dist, b, weight = near_tie_layer(rng, n, 1e8 if "1e8" in kind else 1.0)
            else:
                table, dist, b, weight = integer_layer(rng, n, kind)
            for cut, end in slices(rng, n):
                best, arg = map(np.array, scan_layer(table[:end], dist[:end], b, weight, cut))
                rows = np.flatnonzero(rng.random(end - cut - 1) < rng.random()) + 1
                held, dist_f = table[cut:end], dist[cut:end]
                for layer in (_blockdp._DenseMinima(weight), _blockdp._MonotoneMinima(weight)):
                    got, at = layer(held, dist_f, b, rows, _blockdp._keys(held, dist_f), cut,
                                    uncapped(rows))
                    assert got.tolist() == best[rows - 1].tolist(), (layer, n, cut)
                    assert (at + cut).tolist() == arg[rows - 1].tolist(), (layer, n, cut)


@pytest.mark.parametrize("budget", [0, 1 << 20])
def test_lattice_ties_on_monotone_path_finishing_budget(monkeypatch, budget):
    monkeypatch.setattr(_blockdp, "_DENSE_CELLS", 0)
    monkeypatch.setattr(_blockdp, "_FINISH_CELLS", budget)
    assert assert_same_partition(lattice_cases()) >= 500


def nudged(rng, values, scale):
    """``values * scale``, each moved by up to 3 ulps either way."""
    v = np.asarray(values, dtype=float) * scale
    return tuple((v + rng.integers(-3, 4, size=len(v)) * np.spacing(v)).tolist())


def near_tie_cases(scale):
    """Lattice instances, whose exact ties the solver breaks by its rule,
    scaled and then moved off the lattice by a few ulps."""
    rng = np.random.default_rng(int(scale) % 1000 + 7)
    cases = []
    for _ in range(300):
        inst = lattice_instance(rng, int(rng.integers(1, 41)), int(rng.integers(1, 7)))
        env = fs.Environment(nudged(rng, inst.environment.locations, scale),
                             nudged(rng, inst.environment.building_costs, scale))
        cases.append(fs.Instance(env, fs.Profile(nudged(rng, inst.profile.positions, scale))))
    return cases


def assert_same_harmonic_partition(instances):
    for inst in instances:
        args = partition_args(inst)
        w = fs.harmonic_numbers(inst.n)
        value, blocks, _ = oracle_block_partition(*args, w)
        got = _blockdp.solve_block_partition(*args, w)
        assert (got.value, got.blocks) == (value, blocks), inst


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_near_ties_on_monotone_path(monkeypatch, scale):
    monkeypatch.setattr(_blockdp, "_DENSE_CELLS", 0)
    assert_same_harmonic_partition(near_tie_cases(scale))


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_near_ties_on_dense_path(scale):
    assert_same_harmonic_partition(near_tie_cases(scale))


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_row_bound_drops_only_rows_that_cannot_win(scale):
    # Every row the bound drops has every candidate strictly above the value
    # it holds.
    rng = np.random.default_rng(int(scale) % 1000)
    dropped = 0
    for n in (2, 7, 40, 130):
        for _ in range(40):
            table, dist, b, weight = near_tie_layer(rng, n, scale)
            live = _blockdp._live_rows(table, dist, b * weight[1],
                                       _blockdp._keys(table, dist)[1])
            best, _ = scan_layer(table, dist, b, weight)
            drop = np.setdiff1d(np.arange(1, n + 1), live)
            assert all(best[t - 1] > table[t] for t in drop), (n, scale)
            dropped += len(drop)
    assert dropped > 1000


def profile_batches(rng, max_n):
    """``(sorted profiles, locations, building costs)`` batches: every n and m
    up to the bounds, a third on a half-unit lattice (exact ties), plus
    batches of co-located agents, some on a facility."""
    for case in range(240):
        n, m = case % max_n + 1, (case // max_n) % 6 + 1
        if case % 3 == 0:
            x = rng.integers(0, 12, size=(20, n)) / 2.0
            locs = np.sort(rng.integers(0, 12, size=m) / 2.0)
            b = rng.integers(1, 6, size=m) / 2.0
        else:
            x = rng.uniform(-5.0, 10.0, size=(20, n))
            locs = np.sort(rng.uniform(0.0, 10.0, size=m))
            b = rng.uniform(0.1, 5.0, size=m)
        if case % 5 == 0:
            x[:] = x[:, :1]
            x[:4] = locs[rng.integers(m, size=4)][:, None]
        yield np.sort(x, axis=1), locs, b


def test_batch_values_equal_per_profile_solve():
    rng = np.random.default_rng(71)
    for sorted_x, locs, b in profile_batches(rng, 30):
        w = _blockdp._unit_weights(sorted_x.shape[1])
        got = _blockdp._block_values(sorted_x, locs, b, w)
        dist = _blockdp.distance_prefix(sorted_x, locs)
        for row, value, row_dist in zip(sorted_x, got, dist):
            assert value == _blockdp.solve_block_partition(row, locs, b, w).value
            assert (row_dist == _blockdp.distance_prefix(row, locs)).all()


def test_batch_values_match_brute_force_optimum():
    rng = np.random.default_rng(73)
    for sorted_x, locs, b in profile_batches(rng, 6):
        if len(locs) > 4:
            continue
        w = _blockdp._unit_weights(sorted_x.shape[1])
        got = _blockdp._block_values(sorted_x, locs, b, w)
        for row, value in zip(sorted_x[::5], got[::5]):
            best, _ = oracle_min_social_cost(row.tolist(), locs.tolist(), b.tolist())
            assert value == pytest.approx(best, rel=1e-12)


def test_rectangle_floors_are_column_minima():
    # One reduceat over the cuts gives every rectangle's least key, and the
    # rectangles hold every pair i < t exactly once, also when clipped to a
    # window's slice cut..end - 1 and indexed from the cut.
    rng = np.random.default_rng(13)
    sizes = [*range(1, 71), *(2 ** k + d for k in range(7, 11) for d in (-1, 1))]
    for n in sizes:
        kernel = _blockdp._MonotoneMinima(fs.harmonic_numbers(n))
        for cut, end in slices(rng, n):
            rects = kernel._rectangles(cut, end)
            mid, hi, lo, _ = rects
            key = rng.integers(-20, 20, size=end - cut).astype(float)
            key[rng.random(end - cut) < 0.1] = np.inf
            assert (kernel._floors(key, rects).tolist()
                    == [key[a:b].min() for a, b in zip(lo, mid)]), (n, cut)
            if n <= 70:
                cover = np.zeros((end - cut, end - cut), dtype=int)
                for a, b, c in zip(lo, mid, hi):
                    cover[b:c, a:b] += 1
                assert (cover == np.tri(end - cut, k=-1, dtype=int)).all(), (n, cut)


def monotone_layers(seed, count):
    """``(kernel, table, dist, b, rows, cut)`` of every harmonic layer that
    the monotone path solves on ``count`` clustered instances, n in
    100..299, half of them windowed."""
    layers = []
    call = _blockdp._MonotoneMinima.__call__

    def record(self, table, dist, b, rows, keys, cut, cap):
        layers.append((self, table.copy(), dist, b, rows, cut))
        return call(self, table, dist, b, rows, keys, cut, cap)

    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_blockdp, "_DENSE_CELLS", 0)
        patch.setattr(_blockdp._MonotoneMinima, "__call__", record)
        for case in range(count):
            inst = clustered_instance(rng, int(rng.integers(100, 300)), 8)
            args = partition_args(inst)
            w = fs.harmonic_numbers(inst.n)
            windows = _blockdp._windows(*args, w) if case % 2 else None
            _blockdp.solve_block_partition(*args, w, windows)
    assert any(layer[-1] > 0 for layer in layers)
    return layers


def upper_bounds(table, dist, b, weight):
    """Each row's U: its candidate at the first argmin of ``table - dist``."""
    n = len(table) - 1
    at = _blockdp._running_argmin(*_blockdp._keys(table[:n], dist[:n]))
    return (b * weight[np.arange(1, n + 1) - at] + (dist[1:] - dist[at])) + table[at]


def rectangle_pairs(kernel, table, dist, b, rows, cut, cap=None):
    """Each (rectangle, row) pair of ``rows``: its rectangle, its row, the
    lesser of the row's U and its ``cap`` (+inf by default), and whether the
    rectangle bound keeps it."""
    cap = uncapped(rows) if cap is None else cap
    rects = kernel._rectangles(cut, cut + len(table))
    pair, _, count, keep = kernel._pairs(table, dist, b, rows, _blockdp._keys(table, dist),
                                         rects, cap)
    t = rows[pair]
    upper = np.minimum(upper_bounds(table, dist, b, kernel.weight)[t - 1], cap[pair])
    return np.arange(len(count)).repeat(count), t, upper, keep


def assert_drops_only_pairs_that_cannot_win(kernel, table, dist, b, rows, cut, cap=None):
    """Every pair the rectangle bound drops has every candidate over the
    rectangle's columns strictly above the lesser of the row's U and its
    ``cap``; returns their count."""
    mid, _, lo, _ = kernel._rectangles(cut, cut + len(table))
    rect, t, upper, keep = rectangle_pairs(kernel, table, dist, b, rows, cut, cap)
    for r, row, u in zip(rect[~keep], t[~keep], upper[~keep]):
        i = np.arange(lo[r], mid[r])
        cand = (b * kernel.weight[row - i] + (dist[row] - dist[i])) + table[i]
        assert cand.min() > u, (r, row)
    return int((~keep).sum())


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_rectangle_bound_drops_only_pairs_that_cannot_win(scale):
    # Also on windows' slices, whose first key and distance are not 0.
    rng = np.random.default_rng(int(scale) % 1000 + 3)
    dropped = windowed = 0
    for n in (2, 7, 40, 130):
        for _ in range(40):
            table, dist, b, weight = near_tie_layer(rng, n, scale)
            kernel = _blockdp._MonotoneMinima(weight)
            for cut, end in slices(rng, n):
                held, dist_f = table[cut:end], dist[cut:end]
                rows = _blockdp._live_rows(held, dist_f, b * weight[1],
                                           _blockdp._keys(held, dist_f)[1])
                count = assert_drops_only_pairs_that_cannot_win(kernel, held, dist_f, b, rows,
                                                                cut)
                dropped += count
                windowed += count if cut else 0
    assert dropped > 5000 and windowed > 500


def test_size_aware_bound_drops_more_pairs_than_the_lightest_weight():
    # On clustered instances the bound b * least[t - mid + 1] drops every
    # pair that b * min(w[1:]) drops, and more, and still none that can win.
    flat_dropped = dropped = 0
    for kernel, table, dist, b, rows, cut in monotone_layers(17, 6):
        rect, t, upper, keep = rectangle_pairs(kernel, table, dist, b, rows, cut)
        floors = kernel._floors(_blockdp._keys(table, dist)[0],
                                kernel._rectangles(cut, cut + len(table)))
        flat = (b * kernel.weight[1:].min() + dist[t]) + floors[rect]
        flat_keep = _blockdp._may_reach(flat, upper, dist[t])
        assert not (keep & ~flat_keep).any()
        flat_dropped += int((~flat_keep).sum())
        dropped += assert_drops_only_pairs_that_cannot_win(kernel, table, dist, b, rows, cut)
    assert dropped > flat_dropped > 0


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_capped_rectangle_bound_drops_only_pairs_that_cannot_win(scale):
    # Against the lesser of U and the value each row holds, as the solver
    # calls the kernel, the bound drops more pairs, and still none that
    # holds a candidate at or below that lesser value.
    rng = np.random.default_rng(int(scale) % 1000 + 5)
    dropped = {False: 0, True: 0}
    for n in (2, 7, 40, 130):
        for _ in range(40):
            table, dist, b, weight = near_tie_layer(rng, n, scale)
            kernel = _blockdp._MonotoneMinima(weight)
            for cut, end in slices(rng, n):
                held, dist_f = table[cut:end], dist[cut:end]
                rows = _blockdp._live_rows(held, dist_f, b * weight[1],
                                           _blockdp._keys(held, dist_f)[1])
                for capped in (False, True):
                    cap = held[rows] if capped else None
                    dropped[capped] += assert_drops_only_pairs_that_cannot_win(
                        kernel, held, dist_f, b, rows, cut, cap)
    assert dropped[True] > dropped[False] > 5000


def random_caps(rng, held, best):
    """Per row: the value it holds, its scanned minimum moved by up to 2 ulps
    either way, that minimum times 0.5 to 1.5, or +inf."""
    pick = rng.integers(4, size=len(best))
    ulp = np.spacing(np.where(np.isfinite(best), best, 0.0))
    nudged_best = best + rng.integers(-2, 3, size=len(best)) * ulp
    scaled = best * rng.uniform(0.5, 1.5, size=len(best))
    return np.choose(pick, [held, nudged_best, scaled, np.full(len(best), np.inf)])


@pytest.mark.parametrize("budget", FINISH_BUDGETS)
@pytest.mark.parametrize("kind", ["harmonic", "capped", "near-tie", "near-tie-1e8"])
def test_capped_monotone_kernel_matches_row_scan(monkeypatch, budget, kind):
    # Rows whose scanned minimum is at most their cap get that minimum and
    # its smallest argmin bit for bit; every other row reads above its cap.
    # Caps are the values the rows hold, as the solver passes them, or
    # random, with +inf entries; also on windows' slices.
    monkeypatch.setattr(_blockdp, "_FINISH_CELLS", budget)
    rng = np.random.default_rng(budget + 7 * len(kind))
    exact = above = 0
    for n in (1, 2, 3, 7, 40, 130, 400):
        for _ in range(12 if n < 400 else 3):
            if kind.startswith("near-tie"):
                table, dist, b, weight = near_tie_layer(rng, n, 1e8 if "1e8" in kind else 1.0)
            else:
                table, dist, b, weight = integer_layer(rng, n, kind)
            kernel = _blockdp._MonotoneMinima(weight)
            for cut, end in slices(rng, n):
                best, arg = map(np.array, scan_layer(table[:end], dist[:end], b, weight, cut))
                rows = np.flatnonzero(rng.random(end - cut - 1) < rng.random()) + 1
                held, dist_f = table[cut:end], dist[cut:end]
                best, arg = best[rows - 1], arg[rows - 1]
                for cap in (held[rows], random_caps(rng, held[rows], best)):
                    got, at = kernel(held, dist_f, b, rows, _blockdp._keys(held, dist_f), cut,
                                     cap)
                    fits = best <= cap
                    assert got[fits].tolist() == best[fits].tolist(), (n, cut)
                    assert (at[fits] + cut).tolist() == arg[fits].tolist(), (n, cut)
                    assert (got[~fits] > cap[~fits]).all(), (n, cut)
                    exact += int(fits.sum())
                    above += int((~fits).sum())
    assert exact > 1000 and above > 1000


def test_held_value_cap_keeps_fewer_pairs():
    # On a large instance at the default dense budget, the cap the solver
    # passes keeps strictly fewer (rectangle, row) pairs than no cap, and
    # the partition is the same.
    kept = {False: 0, True: 0}
    capped = [True]
    pairs, call = _blockdp._MonotoneMinima._pairs, _blockdp._MonotoneMinima.__call__

    def count(self, *args):
        out = pairs(self, *args)
        kept[capped[0]] += int(out[3].sum())
        return out

    def maybe_uncapped(self, table, dist, b, rows, keys, cut, cap):
        return call(self, table, dist, b, rows, keys, cut, cap if capped[0] else uncapped(rows))

    inst = fs.generate_instance(1000, 100, seed=4)
    args = partition_args(inst)
    w = fs.harmonic_numbers(inst.n)
    windows = _blockdp._windows(*args, w)
    solves = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_blockdp._MonotoneMinima, "_pairs", count)
        patch.setattr(_blockdp._MonotoneMinima, "__call__", maybe_uncapped)
        for capped[0] in (False, True):
            got = _blockdp.solve_block_partition(*args, w, windows)
            solves[capped[0]] = (got.value, got.blocks)
    assert solves[True] == solves[False]
    assert 0 < kept[True] < kept[False]


@pytest.mark.parametrize("budget", FINISH_BUDGETS)
def test_first_pass_prices_rectangle_ends_unless_all_cells_fit(monkeypatch, budget):
    # The first pass prices every kept cell when they total at most the
    # budget. Otherwise it prices one-row and one-column rectangles whole and
    # the first and last kept rows of every other rectangle.
    monkeypatch.setattr(_blockdp, "_FINISH_CELLS", budget)
    priced = []  # cells priced by each pass
    price = _blockdp._price

    def record(t, lo, width, *rest):
        priced.append(int(width.sum()))
        return price(t, lo, width, *rest)

    monkeypatch.setattr(_blockdp, "_price", record)
    split = single = 0
    for kernel, table, dist, b, rows, cut in monotone_layers(19, 3):
        mid, _, lo, _ = kernel._rectangles(cut, cut + len(table))
        rect, _, _, keep = rectangle_pairs(kernel, table, dist, b, rows, cut)
        count = np.bincount(rect[keep], minlength=len(mid))
        width = mid - lo
        total = int(count @ width)
        ends = np.where(np.minimum(count, width) == 1, count * width,
                        np.minimum(count, 2) * width)
        priced.clear()
        got = kernel(table, dist, b, rows, _blockdp._keys(table, dist), cut, uncapped(rows))
        if total <= budget:
            assert priced == ([total] if total else [])
            single += 1
        else:
            assert priced[0] == ends.sum() and len(priced) > 1
            split += 1
        best, arg = map(np.array, scan_layer(table, dist, b, kernel.weight))
        assert got[0].tolist() == best[rows - 1].tolist()
        assert got[1].tolist() == arg[rows - 1].tolist()
    assert (split > 3 or budget > 1 << 16) and (single > 3 or budget == 0)


def test_solver_assignments_equal_checked_ones(suite500):
    # The solvers build their assignments without the public constructor's
    # entry checks; each must still equal, and hash as, a checked one.
    for inst in suite500[::10]:
        for got in (fs.compute_pne_dp(inst), fs.optimal_block_dp(inst).assignment,
                    fs.optimal_brute_force(inst).assignment):
            checked = fs.Assignment(got.choices)
            assert got == checked and hash(got) == hash(checked)
            assert all(type(c) is int and 1 <= c <= inst.m for c in got.choices)


def test_solve_both_builds_one_distance_prefix(monkeypatch, tmp_path):
    # `solve --mode both` sorts the agents and builds their distance prefix
    # once: both solvers of one instance object share a read-only view.
    calls = []
    prefix = _blockdp.distance_prefix

    def spy(sorted_x, locations):
        calls.append(len(sorted_x))
        return prefix(sorted_x, locations)

    monkeypatch.setattr(_blockdp, "distance_prefix", spy)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(fs.generate_instance(500, 20, seed=6))),
                    encoding="utf-8")
    assert cli.main(["solve", str(path), "--mode", "both", "-o", str(tmp_path / "out.json")]) == 0
    assert calls == [500]


def test_sorted_view_belongs_to_one_instance_object(monkeypatch):
    # An equal but distinct instance (here one agent at -0.0 instead of 0.0)
    # gets its own view, with the same results; the view is read-only, no
    # part of the instance's value, and is freed with its instance.
    calls = []
    prefix = _blockdp.distance_prefix
    monkeypatch.setattr(_blockdp, "distance_prefix",
                        lambda *args: calls.append(1) or prefix(*args))
    base = fs.generate_instance(400, 12, seed=3)
    x = list(base.profile.positions)
    x[5] = 0.0
    first = fs.Instance(base.environment, fs.Profile(tuple(x)))
    x[5] = -0.0
    twin = fs.Instance(base.environment, fs.Profile(tuple(x)))
    assert first == twin
    unsolved = fs.Instance(first.environment, first.profile)
    solves = []
    for inst in (first, first, twin, twin):
        solves.append((fs.compute_pne_dp(inst), fs.optimal_block_dp(inst)))
        view = _blockdp._sorted_view(inst)
        assert np.signbit(view.x).any() == (inst is twin)
        assert not any(a.flags.writeable for a in (view.order, view.x, view.locations,
                                                    view.costs, view.dist))
    assert len(calls) == 2 and solves.count(solves[0]) == 4
    assert first == unsolved and hash(first) == hash(unsolved)
    assert repr(first) == repr(unsolved) and pickle.dumps(first) == pickle.dumps(unsolved)
    for again in (copy.copy(first), pickle.loads(pickle.dumps(first))):
        assert (fs.compute_pne_dp(again), fs.optimal_block_dp(again)) == solves[0]
    ref = weakref.ref(_blockdp._sorted_view(first))
    del first, inst
    gc.collect()
    assert ref() is None


def test_concurrent_solves_keep_their_own_results():
    # Threads that solve different instances at once, and eight threads that
    # race to build the first view of one unsolved instance object, each
    # get that instance's own results.
    instances = [fs.generate_instance(60 + 7 * k, 5, seed=k) for k in range(4)]
    shared = fs.generate_instance(90, 6, seed=9)

    def solve(inst):
        return {(fs.compute_pne_dp(inst), fs.optimal_block_dp(inst)) for _ in range(40)}

    expected = [{next(iter(solve(inst)))} for inst in instances]
    alone = {next(iter(solve(fs.Instance(shared.environment, shared.profile))))}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(solve, inst) for inst in instances * 2]
            got = [future.result(timeout=60) for future in futures]
            futures = [pool.submit(solve, shared) for _ in range(8)]
            raced = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 2
    assert raced == [alone] * 8


def test_library_keeps_no_process_wide_state():
    """No module rebinds a global or an enclosing name, or imports
    ``weakref``: what a solver keeps between calls lives on the objects it
    is given."""
    for path in sorted(Path(fs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, (ast.Global, ast.Nonlocal)), path.name
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None)] + [a.name for a in node.names]
                assert "weakref" not in modules, path.name


def window_agents(windows):
    """Each facility's window as the list of its sorted agents."""
    return [list(range(first, stop)) for first, stop in windows]


def windowed_solves(inst, w):
    """``(windows, unwindowed, windowed)`` solves of ``inst`` under ``w``."""
    args = partition_args(inst)
    windows = _blockdp._windows(*args, w)
    return (windows, _blockdp.solve_block_partition(*args, w),
            _blockdp.solve_block_partition(*args, w, windows))


def replaced(inst, x=None, locations=None):
    """``inst`` with new agent positions or facility locations."""
    env = inst.environment
    return fs.Instance(fs.Environment(tuple(env.locations if locations is None else locations),
                                      env.building_costs),
                       fs.Profile(tuple(inst.profile.positions if x is None else x)))


def edge_windows():
    """A facility whose window holds every agent (the costly rivals never
    tempt anyone), one with an empty window (far and costly) and one with an
    empty window behind a cheaper facility at the same location."""
    rng = np.random.default_rng(5)
    cases = []
    for n in (3, 50, DENSE_N + 5):
        x = tuple(rng.uniform(0.0, 1.0, size=n).tolist())
        cases.append(fs.Instance(fs.Environment((0.0, 1.0, 1000.0), (1.0, 100.0, 1000.0)),
                                 fs.Profile(x)))
        cases.append(fs.Instance(fs.Environment((0.2, 0.2, 0.7), (0.5, 400.0, 0.5)),
                                 fs.Profile(x)))
    return cases


def binding_near_tie_cases():
    """Positions and locations on an integer lattice of span 6 to 60 with
    one shared building cost, each moved by up to 3 ulps: the far
    facilities' windows exclude many agents, and the near-ties sit at the
    windows' edges."""
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(400):
        span, n, m = int(rng.integers(6, 61)), int(rng.integers(1, 41)), int(rng.integers(2, 7))
        b = float(rng.integers(1, 4))
        env = fs.Environment(nudged(rng, rng.integers(0, span + 1, size=m), 1.0),
                             nudged(rng, [b] * m, 1.0))
        cases.append(fs.Instance(env, fs.Profile(nudged(rng, rng.integers(0, span + 1, size=n),
                                                        1.0))))
    return cases


def window_cases(kind):
    rng = np.random.default_rng(len(kind))
    if kind.startswith("near-tie-1"):
        return near_tie_cases(1e8 if kind.endswith("1e8") else 1.0)
    if kind == "near-tie-binding":
        return binding_near_tie_cases()
    if kind == "lattice":
        return lattice_cases()
    if kind == "suite500":
        return [fs.generate_instance(*suite_dims(seed), seed=seed) for seed in range(500)]
    if kind == "large-random":
        return large_random_cases()
    if kind == "clustered":
        return [clustered_instance(rng, int(rng.integers(2, 2 * DENSE_N)),
                                   int(rng.integers(1, 12))) for _ in range(30)]
    if kind == "co-located":
        # Everyone at one point, or every agent on a facility's location.
        cases = []
        for seed in range(40):
            inst = fs.generate_instance(int(rng.integers(1, 60)), int(rng.integers(1, 6)),
                                        seed=seed)
            locs = np.asarray(inst.environment.locations)
            x = (np.full(inst.n, rng.uniform(0.0, 10.0)) if seed % 2
                 else locs[rng.integers(inst.m, size=inst.n)])
            cases.append(replaced(inst, x=x.tolist()))
        return cases
    if kind == "one-facility":
        return [fs.generate_instance(n, 1, seed=n) for n in (1, 2, 7, 90, DENSE_N + 3)]
    if kind == "duplicate-locations":
        cases = []
        for seed in range(40):
            inst = fs.generate_instance(int(rng.integers(2, 80)), int(rng.integers(2, 8)),
                                        seed=seed)
            locs = np.asarray(inst.environment.locations)
            cases.append(replaced(inst, locations=locs[rng.integers(2, size=inst.m)].tolist()))
        return cases
    if kind == "large":
        return [fs.generate_instance(int(rng.integers(DENSE_N + 1, 2 * DENSE_N)),
                                     int(rng.integers(2, 30)), seed=seed) for seed in range(6)]
    assert kind == "edges"
    return edge_windows()


WINDOW_KINDS = ["near-tie-1", "near-tie-1e8", "near-tie-binding", "lattice", "suite500",
                "large-random", "clustered", "co-located", "one-facility",
                "duplicate-locations", "large", "edges"]
def assert_windows_change_no_partition(kind, objective):
    """The windowed solve returns the unwindowed value and blocks, compared
    with ==, and every block lies inside its facility's window."""
    cut = binding = 0
    for inst in window_cases(kind):
        windows, whole, got = windowed_solves(inst, weights(inst.n)[objective])
        assert (got.value, got.blocks) == (whole.value, whole.blocks), inst
        assert all(windows[f - 1, 0] <= i and t <= windows[f - 1, 1]
                   for i, t, f in got.blocks), inst
        excluded = sum(inst.n - len(agents) for agents in window_agents(windows))
        cut += excluded
        binding += excluded > 0
    assert cut > 0 or kind == "one-facility"
    if kind == "near-tie-binding":
        assert binding > 300


@pytest.mark.parametrize("path", ["default", "monotone"])
@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_windows_change_no_partition(monkeypatch, kind, path):
    # The potential's windows. With no dense budget the monotone path also
    # sees windows at small n.
    if path == "monotone":
        monkeypatch.setattr(_blockdp, "_DENSE_CELLS", 0)
    assert_windows_change_no_partition(kind, "harmonic")


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_social_cost_windows_change_no_partition(kind):
    # The social cost's windows, on its flat layers.
    assert_windows_change_no_partition(kind, "unit")


def test_edge_windows_hold_all_or_no_agents():
    for inst in edge_windows():
        windows = window_agents(windowed_solves(inst, fs.harmonic_numbers(inst.n))[0])
        everyone = list(range(inst.n))
        if inst.environment.locations[2] == 1000.0:
            assert windows[0] == everyone and windows[2] == []
        else:
            assert windows[1] == [] and windows[0] and windows[2]


def window_rule(inst, objective):
    """``(stay, leave)`` of the per-agent test: ``b_f * W-`` and ``b_g * W+``
    of the potential (``W- = 1/n``, ``W+ = 1``) or of the social cost
    (``W- = 0`` for ``n >= 2``, ``W+ = 1``)."""
    b = list(inst.environment.building_costs)
    if objective == "harmonic":
        return [bf / inst.n for bf in b], b
    return ([0.0] * inst.m if inst.n >= 2 else b), b


def assert_windows_match_per_agent_test(kind, objective):
    """The closed form agrees with the agent-by-agent test, and so every
    window is one run of sorted agents."""
    rng = np.random.default_rng(31 + len(kind))
    if kind == "random":
        cases = [fs.generate_instance(int(rng.integers(1, 150)), int(rng.integers(1, 13)),
                                      seed=seed) for seed in range(40)]
    elif kind == "lattice":
        cases = [lattice_instance(rng, int(rng.integers(1, 41)), int(rng.integers(1, 7)))
                 for _ in range(200)]
    else:
        cases = window_cases(kind)
    cut = 0
    for inst in cases:
        args = partition_args(inst)
        windows = window_agents(_blockdp._windows(*args, weights(inst.n)[objective]))
        expected = oracle_windows(*map(list, args), *window_rule(inst, objective))
        assert windows == expected, inst
        cut += sum(inst.n - len(agents) for agents in windows)
    assert cut > 0


WINDOW_TEST_KINDS = ["random", "lattice", "clustered", "duplicate-locations"]


@pytest.mark.parametrize("kind", WINDOW_TEST_KINDS)
def test_windows_match_per_agent_test(kind):
    assert_windows_match_per_agent_test(kind, "harmonic")


@pytest.mark.parametrize("kind", WINDOW_TEST_KINDS)
def test_social_cost_windows_match_per_agent_test(kind):
    assert_windows_match_per_agent_test(kind, "unit")


def minimizers(inst, weight):
    """Every assignment (0-based facilities, caller's agent order) whose
    objective under ``weight`` is within 1e-12 of the least, by
    enumeration."""
    x = np.asarray(inst.profile.positions)
    locs = np.asarray(inst.environment.locations)
    b = np.asarray(inst.environment.building_costs)
    digits = np.array(list(itertools.product(range(inst.m), repeat=inst.n)))
    loads = (digits[:, :, None] == np.arange(inst.m)).sum(axis=1)
    value = np.abs(x - locs[digits]).sum(axis=1) + (b * weight[loads]).sum(axis=1)
    return digits[value <= value.min() * (1.0 + 1e-12)]


def small_window_cases():
    rng = np.random.default_rng(41)
    cases = [lattice_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 5)))
             for _ in range(120)]
    cases += [fs.generate_instance(*suite_dims(seed), seed=seed) for seed in range(0, 500, 5)]
    # Lattice cases moved by a few ulps: a near-minimizer may then miss the
    # window test by a rounding error, which the margin must absorb.
    cases += near_tie_cases(1.0) + near_tie_cases(1e8)
    return [inst for inst in cases if inst.n <= 8 and inst.m <= 4]


def assert_minimizers_inside_windows(objective):
    """Every minimizer, all ties included, lies inside the windows of the
    objective's weights; returns how many cases had tied minimizers."""
    tied = 0
    for inst in small_window_cases():
        weight = weights(inst.n)[objective]
        windows = window_agents(_blockdp._windows(*partition_args(inst), weight))
        rank = np.argsort(np.argsort(inst.profile.positions, kind="stable"), kind="stable")
        found = minimizers(inst, weight)
        tied += len(found) > 1
        for choice in found:
            assert all(rank[a] in windows[f] for a, f in enumerate(choice)), (inst, choice)
    return tied


def test_every_potential_minimizer_lies_inside_the_windows():
    assert assert_minimizers_inside_windows("harmonic") > 10


def test_every_social_cost_minimizer_lies_inside_the_windows():
    assert assert_minimizers_inside_windows("unit") > 10


def test_both_solvers_take_windows(monkeypatch):
    # compute_pne_dp and optimal_block_dp each pass the windows of their
    # weights; the batch values take none.
    given, calls = [], []
    solve, windows = _blockdp.solve_block_partition, _blockdp._windows

    def record_solve(*args):
        given.append(args[4] if len(args) > 4 else None)
        return solve(*args)

    def record_windows(*args):
        calls.append(args[3].tolist())
        return windows(*args)

    monkeypatch.setattr(_blockdp, "solve_block_partition", record_solve)
    monkeypatch.setattr(_blockdp, "_windows", record_windows)
    inst = fs.generate_instance(40, 5, seed=2)
    args = partition_args(inst)
    fs.compute_pne_dp(inst)
    fs.optimal_block_dp(inst)
    assert calls == [weights(inst.n)["harmonic"].tolist(), weights(inst.n)["unit"].tolist()]
    assert [g.tolist() for g in given] == [windows(*args, w).tolist()
                                           for w in weights(inst.n).values()]
    _blockdp._block_values(args[0][None], *args[1:], _blockdp._unit_weights(inst.n))
    assert len(given) == 2 and len(calls) == 2


def test_windowed_layers_price_only_window_rows(monkeypatch):
    # A windowed layer hands its kernel only its window's slice of the
    # table, from the window's first agent, so no column below that agent
    # is priced, and only rows inside the window. On clustered instances the
    # windowed solves price under half the rows.
    given = []
    for kernel in (_blockdp._DenseMinima, _blockdp._MonotoneMinima):
        def spy(self, table, dist, b, rows, keys, cut, cap, price=kernel.__call__):
            given.append((b, rows, cut, len(table)))
            return price(self, table, dist, b, rows, keys, cut, cap)
        monkeypatch.setattr(kernel, "__call__", spy)
    rng = np.random.default_rng(8)
    priced = {False: 0, True: 0}
    for _ in range(6):
        inst = clustered_instance(rng, int(rng.integers(200, 500)), 30)
        args = partition_args(inst)
        windows = _blockdp._windows(*args, fs.harmonic_numbers(inst.n))
        for windowed in (False, True):
            given.clear()
            _blockdp.solve_block_partition(*args, fs.harmonic_numbers(inst.n),
                                           windows if windowed else None)
            priced[windowed] += sum(len(live) for _, live, _, _ in given)
        for b, live, cut, size in given:  # the building costs tell the layers apart
            first, stop = windows[list(args[2]).index(b)]
            assert cut == first and size == stop - first + 1
            assert 1 <= live.min() and live.max() + cut <= stop
    assert priced[True] < priced[False] / 2


def test_windowed_flat_layers_work_on_window_slices(monkeypatch):
    # The optimum's layers take only their window's slice too; on clustered
    # instances these hold under half the agents.
    sizes = []
    prefix = _blockdp._prefix_minima

    def spy(table, dist, b, weight):
        sizes.append((b, len(table)))
        return prefix(table, dist, b, weight)

    monkeypatch.setattr(_blockdp, "_prefix_minima", spy)
    rng = np.random.default_rng(9)
    total = {False: 0, True: 0}
    for _ in range(6):
        inst = clustered_instance(rng, int(rng.integers(200, 500)), 30)
        args = partition_args(inst)
        w = _blockdp._unit_weights(inst.n)
        windows = _blockdp._windows(*args, w)
        for windowed in (False, True):
            sizes.clear()
            _blockdp.solve_block_partition(*args, w, windows if windowed else None)
            total[windowed] += sum(size for _, size in sizes)
        for b, size in sizes:
            first, stop = windows[list(args[2]).index(b)]
            assert size == stop - first + 1
    assert total[True] < total[False] / 2
