"""Differential tests of the layered block DP against the exhaustive scan.

``oracle_block_partition`` prices every rightmost-block candidate of every
agent prefix with the library's float expression, so the layered kernel must
return the same value and the same blocks, compared with ``==``, for both
size weights and on every path: the running prefix minimum (unit weights),
the dense square scan (small ``n``) and the monotone divide and conquer.
"""

from functools import partial

import numpy as np
import pytest

import facshare as fs
from facshare import _blockdp
from oracles import lattice_instance, oracle_block_partition

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


def test_large_random_matches_exhaustive_scan():
    rng = np.random.default_rng(99)
    instances = [fs.generate_instance(int(rng.integers(DENSE_N + 1, 2 * DENSE_N)),
                                      int(rng.integers(1, 12)), seed=seed)
                 for seed in range(24)]
    assert all(inst.n > DENSE_N for inst in instances)
    assert_same_partition(instances)


@pytest.mark.parametrize("n", [DENSE_N, DENSE_N + 1])
def test_dense_budget_boundary(n):
    assert_same_partition([fs.generate_instance(n, 4, seed=n)])


def scan_layer(table, dist, b, weight):
    """Row minima and smallest argmins of one layer, row by row."""
    best, arg = [], []
    for t in range(1, len(table)):
        i = np.arange(t)
        cand = (b * weight[t - i] + (dist[t] - dist[i])) + table[i]
        best.append(cand.min())
        arg.append(int(np.argmin(cand)))
    return best, arg


@pytest.mark.parametrize("kind", ["unit", "capped", "harmonic"])
def test_layer_kernels_match_row_scan(kind):
    # Integer data keep every candidate exact, so rows tie often, also across
    # the monotone path's rectangles; unit and capped weights are concave.
    rng = np.random.default_rng(len(kind))
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
            expected = scan_layer(table, dist, b, weight)
            kernels = [_blockdp._DenseMinima(weight), _blockdp._MonotoneMinima(weight)]
            if kind == "unit":
                kernels.append(partial(_blockdp._prefix_minima, weight=weight))
            for layer in kernels:
                best, arg = layer(table, dist, b)
                assert (best.tolist(), arg.tolist()) == expected, (layer, n)
