"""Metamorphic properties of both solvers: translation, scaling by a power of
two, agent permutation and reflection.

Each property runs twice: with the dense scan as configured, and with the
dense budget at 0, which sends every harmonic layer down the monotone path.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facshare as fs
from facshare import _blockdp

BUDGETS = pytest.mark.parametrize("dense_cells", [_blockdp._DENSE_CELLS, 0],
                                  ids=["configured", "monotone"])


def solve_both(instance, dense_cells):
    with mock.patch.object(_blockdp, "_DENSE_CELLS", dense_cells):
        return fs.compute_pne_dp(instance), fs.optimal_block_dp(instance)


def instance(positions, locations, costs):
    return fs.Instance(fs.Environment(tuple(locations), tuple(costs)),
                       fs.Profile(tuple(positions)))


@st.composite
def lattice_instances(draw):
    """Integer positions and locations and integer costs: exact ties abound."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    return (draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 8), min_size=m, max_size=m)),
            draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))


@st.composite
def float_instances(draw, distinct_positions=False):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    # Rounded so that no difference of two coordinates is subnormal.
    coords = st.floats(-100, 100).map(lambda v: round(v, 6))
    return (draw(st.lists(coords, min_size=n, max_size=n, unique=distinct_positions)),
            draw(st.lists(coords, min_size=m, max_size=m)),
            draw(st.lists(st.floats(0.1, 20), min_size=m, max_size=m)))


@BUDGETS
@settings(max_examples=80, deadline=None)
@given(case=lattice_instances(), shift=st.integers(-10**6, 10**6))
def test_integer_translation_keeps_assignments(dense_cells, case, shift):
    positions, locations, costs = case
    moved = instance([x + shift for x in positions], [v + shift for v in locations], costs)
    pne, opt = solve_both(instance(positions, locations, costs), dense_cells)
    moved_pne, moved_opt = solve_both(moved, dense_cells)
    assert moved_pne == pne
    assert moved_opt.assignment == opt.assignment


@BUDGETS
@settings(max_examples=80, deadline=None)
@given(case=float_instances(), power=st.integers(-8, 8))
def test_power_of_two_scaling_keeps_assignments(dense_cells, case, power):
    # Scaling every input by 2**power scales every float the DP forms exactly.
    positions, locations, costs = case
    k = 2.0 ** power
    scaled = instance([x * k for x in positions], [v * k for v in locations],
                      [c * k for c in costs])
    pne, opt = solve_both(instance(positions, locations, costs), dense_cells)
    scaled_pne, scaled_opt = solve_both(scaled, dense_cells)
    assert scaled_pne == pne
    assert scaled_opt.assignment == opt.assignment


@BUDGETS
@settings(max_examples=80, deadline=None)
@given(case=float_instances(distinct_positions=True), data=st.data())
def test_permuting_distinct_agents_permutes_assignments(dense_cells, case, data):
    positions, locations, costs = case
    perm = data.draw(st.permutations(range(len(positions))))
    pne, opt = solve_both(instance(positions, locations, costs), dense_cells)
    moved_pne, moved_opt = solve_both(
        instance([positions[k] for k in perm], locations, costs), dense_cells)
    assert moved_pne.choices == tuple(pne.choices[k] for k in perm)
    assert moved_opt.assignment.choices == tuple(opt.assignment.choices[k] for k in perm)


@BUDGETS
@settings(max_examples=80, deadline=None)
@given(case=float_instances())
def test_reflection_keeps_potential_and_optimum(dense_cells, case):
    # The tie rule is not mirror-symmetric, so only the values must agree.
    positions, locations, costs = case
    inst = instance(positions, locations, costs)
    mirror = instance([-x for x in positions], [-v for v in locations], costs)
    pne, opt = solve_both(inst, dense_cells)
    mirror_pne, mirror_opt = solve_both(mirror, dense_cells)
    assert fs.potential(mirror.profile, mirror_pne, mirror.environment) == pytest.approx(
        fs.potential(inst.profile, pne, inst.environment), rel=1e-12)
    assert mirror_opt.social_cost == pytest.approx(opt.social_cost, rel=1e-12)
