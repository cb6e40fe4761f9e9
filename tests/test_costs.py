import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import facshare as fs
import facshare.equilibrium as equilibrium
from facshare.costs import _deviation_costs, _loads
from oracles import (
    oracle_block_cost,
    oracle_deviation_costs,
    oracle_potential_grouped,
    random_assignment,
    suite_dims,
    used_facilities,
)

ENV = fs.Environment((0.0, 3.0), (2.0, 4.0))
PROF = fs.Profile((0.0, 3.0))


def test_harmonic_numbers_direct():
    h = fs.harmonic_numbers(4)
    assert h[0] == 0.0
    assert h[1] == 1.0
    assert h[2] == 1.5
    assert h[4] == pytest.approx(1 + 1 / 2 + 1 / 3 + 1 / 4, abs=0)


def test_agent_cost_examples():
    assert fs.agent_cost(1, PROF, fs.Assignment((1, 1)), ENV) == 4.0
    assert fs.agent_cost(0, PROF, fs.Assignment((1, 2)), ENV) == 2.0
    solo_env = fs.Environment((5.0,), (1.0,))
    assert fs.agent_cost(0, fs.Profile((5.0,)), fs.Assignment((1,)), solo_env) == 1.0
    with pytest.raises(IndexError):
        fs.agent_cost(2, PROF, fs.Assignment((1, 1)), ENV)


def test_social_cost_examples():
    assert fs.social_cost(PROF, fs.Assignment((1, 1)), ENV).social_cost == 5.0
    assert fs.social_cost(PROF, fs.Assignment((1, 2)), ENV).social_cost == 6.0
    assert fs.social_cost(PROF, fs.Assignment((2, 1)), ENV).social_cost == 12.0


def test_cost_breakdown_invariants():
    rng = np.random.default_rng(3)
    for seed in range(100):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        a = random_assignment(rng, inst.n, inst.m)
        bd = fs.social_cost(inst.profile, a, inst.environment)
        assert bd.social_cost == sum(e.total for e in bd.per_agent)
        for entry in bd.per_agent:
            assert entry.total == entry.distance + entry.share
            assert entry.share > 0
            assert entry.distance >= 0


def test_social_cost_facility_form_identity():
    # total cost = building costs of used facilities + total distance
    rng = np.random.default_rng(4)
    for seed in range(200):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        env, prof = inst.environment, inst.profile
        a = random_assignment(rng, inst.n, inst.m)
        direct = fs.social_cost(prof, a, env).social_cost
        facility_form = sum(env.building_costs[f - 1] for f in used_facilities(a))
        facility_form += sum(abs(x - env.locations[f - 1])
                             for x, f in zip(prof.positions, a.choices))
        assert direct == pytest.approx(facility_form, abs=1e-9)


def test_potential_examples():
    assert fs.potential(PROF, fs.Assignment((1, 1)), ENV) == 6.0
    assert fs.potential(PROF, fs.Assignment((1, 2)), ENV) == 6.0
    assert fs.potential(PROF, fs.Assignment((2, 1)), ENV) == 12.0


def test_potential_matches_grouped_form():
    rng = np.random.default_rng(5)
    for seed in range(300):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        a = random_assignment(rng, inst.n, inst.m)
        lib = fs.potential(inst.profile, a, inst.environment)
        ref = oracle_potential_grouped(inst.profile.positions, a.choices,
                                       inst.environment.locations,
                                       inst.environment.building_costs)
        assert lib == pytest.approx(ref, rel=1e-9)


def test_deviation_identity():
    # potential change under a unilateral move equals the mover's cost change
    rng = np.random.default_rng(6)
    for seed in range(300):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        prof, env = inst.profile, inst.environment
        a = random_assignment(rng, inst.n, inst.m)
        i = int(rng.integers(inst.n))
        new = int(rng.integers(1, inst.m + 1))
        moved = list(a.choices)
        moved[i] = new
        b = fs.Assignment(tuple(moved))
        lhs = fs.potential(prof, a, env) - fs.potential(prof, b, env)
        rhs = fs.agent_cost(i, prof, a, env) - fs.agent_cost(i, prof, b, env)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def per_cell_deviation_costs(positions, choices, env, agents=slice(None)):
    return oracle_deviation_costs(positions, choices, env.locations, env.building_costs,
                                  agents)


def test_deviation_costs_equal_the_per_cell_formula(suite500, monkeypatch):
    # Bit for bit, on all agents and on random chunks of them; so is_pne's
    # and best_response's answers, witnesses included, are the ones the
    # per-cell matrix gives.
    rng = np.random.default_rng(23)
    instances = suite500 + [fs.generate_instance(300, 10, seed=s) for s in range(4)]
    cases = []
    for inst in instances:
        for a in (random_assignment(rng, inst.n, inst.m), fs.compute_pne_dp(inst)):
            x, c, env = inst.profile.positions, a.choices, inst.environment
            lo = int(rng.integers(inst.n))
            for agents in (slice(None), slice(lo, int(rng.integers(lo + 1, inst.n + 1)))):
                assert (_deviation_costs(x, c, env, agents).tolist()
                        == per_cell_deviation_costs(x, c, env, agents).tolist())
            cases.append((inst, a, int(rng.integers(inst.n))))

    def answers():
        return [(fs.is_pne(inst.profile, a, inst.environment),
                 fs.best_response(i, inst.profile, a, inst.environment)) for inst, a, i in cases]

    got = answers()
    monkeypatch.setattr(equilibrium, "_deviation_costs", per_cell_deviation_costs)
    assert got == answers()
    assert sum(verdict.witness is not None for verdict, _ in got) > 300


def test_block_cost_examples():
    sorted_x = (0.0, 3.0)
    assert oracle_block_cost(sorted_x, 0, 2, 1, ENV) == 6.0
    assert oracle_block_cost(sorted_x, 1, 2, 2, ENV) == 4.0
    solo_env = fs.Environment((5.0,), (1.0,))
    assert oracle_block_cost((5.0,), 0, 1, 1, solo_env) == 1.0


def test_block_cost_errors():
    with pytest.raises(fs.ValidationError, match="empty agent range"):
        oracle_block_cost((0.0, 3.0), 1, 1, 1, ENV)
    with pytest.raises(fs.ValidationError, match="sorted"):
        oracle_block_cost((3.0, 0.0), 0, 2, 1, ENV)
    with pytest.raises(fs.ValidationError, match="facility index"):
        oracle_block_cost((0.0, 3.0), 0, 2, 3, ENV)


def test_potential_decomposes_into_blocks():
    # on consecutive-block assignments the potential is the sum of block costs
    for seed in range(80):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        prof, env = inst.profile, inst.environment
        a = fs.compute_pne_dp(inst)
        order = sorted(range(prof.n), key=lambda i: prof.positions[i])
        sorted_x = tuple(prof.positions[i] for i in order)
        sorted_choice = [a.choices[i] for i in order]
        total = 0.0
        start = 0
        for stop in range(1, prof.n + 1):
            if stop == prof.n or sorted_choice[stop] != sorted_choice[start]:
                total += oracle_block_cost(sorted_x, start, stop,
                                           sorted_choice[start], env)
                start = stop
        assert fs.potential(prof, a, env) == pytest.approx(total, rel=1e-9)


def test_batched_loads_match_row_counts():
    rng = np.random.default_rng(8)
    for m in (1, 2, 5):
        batch = rng.integers(1, m + 1, size=(40, 6))
        expected = [[list(row).count(f) for f in row] for row in batch]
        assert _loads(batch, m).tolist() == expected
        assert _loads(batch[0], m).tolist() == expected[0]


@st.composite
def priced_assignments(draw):
    """Facilities at distinct ascending locations, agents and their choices."""
    m = draw(st.integers(1, 4))
    locations = sorted(draw(st.lists(st.floats(-100, 100), min_size=m,
                                     max_size=m, unique=True)))
    costs = draw(st.lists(st.floats(0.1, 20), min_size=m, max_size=m))
    n = draw(st.integers(1, 8))
    positions = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    choices = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    return positions, locations, costs, choices


@settings(max_examples=150, deadline=None)
@given(case=priced_assignments(), data=st.data())
def test_permuting_agents_permutes_per_agent_results(case, data):
    positions, locations, costs, choices = case
    perm = data.draw(st.permutations(range(len(positions))))
    env = fs.Environment(tuple(locations), tuple(costs))
    prof, a = fs.Profile(tuple(positions)), fs.Assignment(tuple(choices))
    pprof = fs.Profile(tuple(positions[k] for k in perm))
    pa = fs.Assignment(tuple(choices[k] for k in perm))

    base = fs.social_cost(prof, a, env).per_agent
    assert fs.social_cost(pprof, pa, env).per_agent == tuple(base[k] for k in perm)
    assert _loads(pa.choices, env.m).tolist() == _loads(a.choices, env.m)[perm].tolist()
    assert ([fs.best_response(j, pprof, pa, env) for j in range(len(perm))]
            == [fs.best_response(k, prof, a, env) for k in perm])
    assert bool(fs.is_pne(pprof, pa, env)) == bool(fs.is_pne(prof, a, env))


@settings(max_examples=150, deadline=None)
@given(case=priced_assignments(), shift=st.floats(-1e4, 1e4))
def test_translation_keeps_social_cost_and_potential(case, shift):
    positions, locations, costs, choices = case
    moved_locations = tuple(v + shift for v in locations)
    assume(len(set(moved_locations)) == len(locations))  # facility order kept
    a = fs.Assignment(tuple(choices))
    env = fs.Environment(tuple(locations), tuple(costs))
    prof = fs.Profile(tuple(positions))
    moved_env = fs.Environment(moved_locations, tuple(costs))
    moved_prof = fs.Profile(tuple(x + shift for x in positions))
    assert fs.social_cost(moved_prof, a, moved_env).social_cost == pytest.approx(
        fs.social_cost(prof, a, env).social_cost, rel=1e-9)
    assert fs.potential(moved_prof, a, moved_env) == pytest.approx(
        fs.potential(prof, a, env), rel=1e-9)
