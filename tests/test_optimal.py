import numpy as np
import pytest

import facshare as fs
from oracles import oracle_min_social_cost, random_assignment, suite_dims


def test_brute_force_running_instance(running_instance):
    result = fs.optimal_brute_force(running_instance)
    assert result.assignment == fs.Assignment((1, 1))
    assert result.social_cost == 5.0
    assert result.method == "brute_force"


def test_brute_force_single_agent():
    env = fs.Environment((0.0, 3.0), (2.0, 4.0))
    inst = fs.Instance(env, fs.Profile((10.0,)))
    # 10 + 2 = 12 at the left facility beats 7 + 4 = 11 at the right? no:
    # right facility wins, total 11.
    result = fs.optimal_brute_force(inst)
    assert result.assignment == fs.Assignment((2,))
    assert result.social_cost == pytest.approx(11.0)


def test_brute_force_single_facility():
    env = fs.Environment((1.0,), (2.0,))
    inst = fs.Instance(env, fs.Profile((0.0, 5.0)))
    result = fs.optimal_brute_force(inst)
    assert result.assignment == fs.Assignment((1, 1))


def test_brute_force_guard():
    inst = fs.generate_instance(30, 4, seed=0)
    with pytest.raises(fs.BruteForceLimitError):
        fs.optimal_brute_force(inst, limit=1000)


def test_brute_force_lexicographic_tie():
    env = fs.Environment((0.0, 2.0), (1.0, 1.0))
    inst = fs.Instance(env, fs.Profile((1.0, 1.0)))
    # pooling on either facility costs 3; the lexicographically smaller wins
    result = fs.optimal_brute_force(inst)
    assert result.assignment == fs.Assignment((1, 1))
    # the block DP agrees: widest rightmost block, then smallest facility
    assert fs.optimal_block_dp(inst).assignment == fs.Assignment((1, 1))
    # the potential ties exactly too (2 + 1.5 on either facility)
    assert fs.brute_force_min_potential(inst) == 3.5
    assert fs.compute_pne_dp(inst) == fs.Assignment((1, 1))

    # (1, 1, 2) and (1, 2, 2) tie in both objectives: the enumerator keeps the
    # lexicographically smaller one, the block DP the wider rightmost block
    env = fs.Environment((0.0, 3.0), (2.0, 2.0))
    inst = fs.Instance(env, fs.Profile((0.0, 1.5, 3.0)))
    result = fs.optimal_brute_force(inst)
    assert (result.assignment, result.social_cost) == (fs.Assignment((1, 1, 2)), 5.5)
    result = fs.optimal_block_dp(inst)
    assert (result.assignment, result.social_cost) == (fs.Assignment((1, 2, 2)), 5.5)
    assert fs.brute_force_min_potential(inst) == 6.5
    assert fs.compute_pne_dp(inst) == fs.Assignment((1, 2, 2))


def test_block_dp_matches_brute_force():
    for seed in range(150):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        brute = fs.optimal_brute_force(inst)
        dp = fs.optimal_block_dp(inst)
        assert dp.social_cost == pytest.approx(brute.social_cost, rel=1e-9)
        assert dp.method == "block_dp"


def test_brute_force_matches_independent_oracle():
    for seed in range(60):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        value, _ = oracle_min_social_cost(inst.profile.positions,
                                          inst.environment.locations,
                                          inst.environment.building_costs)
        assert fs.optimal_brute_force(inst).social_cost == pytest.approx(
            value, rel=1e-9)


def test_opt_result_value_recomputes():
    for seed in range(30):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        for result in (fs.optimal_brute_force(inst), fs.optimal_block_dp(inst)):
            again = fs.social_cost(inst.profile, result.assignment,
                                   inst.environment).social_cost
            assert result.social_cost == again


def test_opt_lower_bounds_random_assignments():
    rng = np.random.default_rng(9)
    for seed in range(30):
        inst = fs.generate_instance(*suite_dims(seed), seed=seed)
        opt = fs.optimal_block_dp(inst).social_cost
        for _ in range(100):
            a = random_assignment(rng, inst.n, inst.m)
            sc = fs.social_cost(inst.profile, a, inst.environment).social_cost
            assert opt <= sc + 1e-9


def test_all_colocated_agents_single_block():
    env = fs.Environment((0.0, 1.0), (5.0, 1.0))
    inst = fs.Instance(env, fs.Profile((0.0, 0.0, 0.0)))
    # min over facilities of n*distance + cost: 3*0+5=5 vs 3*1+1=4
    result = fs.optimal_block_dp(inst)
    assert result.assignment == fs.Assignment((2, 2, 2))
