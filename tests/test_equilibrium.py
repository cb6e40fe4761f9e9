import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facshare as fs
import facshare.equilibrium as equilibrium
from oracles import (build_dp_table, lattice_instance, oracle_best_move,
                     oracle_best_response, oracle_consecutive_blocks,
                     oracle_deviation_gain, oracle_is_pne, oracle_min_potential,
                     oracle_no_cross, random_assignment, suite_dims)

ENV = fs.Environment((0.0, 3.0), (2.0, 4.0))
PROF = fs.Profile((0.0, 3.0))


class TestIsPne:
    def test_pooled_assignment_is_equilibrium(self):
        assert fs.is_pne(PROF, fs.Assignment((1, 1)), ENV)

    def test_tie_does_not_refute(self):
        # agent 2's switch to facility 1 would cost exactly the same
        assert fs.is_pne(PROF, fs.Assignment((1, 2)), ENV)

    def test_crossed_assignment_fails_with_witness(self):
        verdict = fs.is_pne(PROF, fs.Assignment((2, 1)), ENV)
        assert not verdict
        assert verdict.witness.agent == 0
        assert verdict.witness.better_facility == 1
        assert verdict.witness.improvement == pytest.approx(6.0)


def oracle_cases(suite500):
    """Each suite500 instance and an integer-lattice, equal-cost instance of
    the same size, each with a random assignment."""
    rng = np.random.default_rng(17)
    for seed, inst in enumerate(suite500):
        lattice = lattice_instance(rng, *suite_dims(seed))
        for case in (inst, lattice):
            yield case, random_assignment(rng, case.n, case.m)


def plain(inst):
    env = inst.environment
    return inst.profile.positions, env.locations, env.building_costs


class TestOracleAgreement:
    def test_is_pne_and_best_response_match_oracle(self, suite500):
        exact_ties = 0
        for inst, a in oracle_cases(suite500):
            x, locs, b = plain(inst)
            for tol in (fs.EPS_CMP, 0.0, -1.0):
                w = fs.is_pne(inst.profile, a, inst.environment, tol=tol).witness
                got = None if w is None else (w.agent, w.better_facility, w.improvement)
                assert repr(got) == repr(oracle_is_pne(x, a.choices, locs, b, tol))
            for i in range(inst.n):
                assert (fs.best_response(i, inst.profile, a, inst.environment)
                        == oracle_best_response(x, a.choices, locs, b, i))
                exact_ties += sum(
                    oracle_deviation_gain(x, a.choices, locs, b, i, g) == 0.0
                    for g in range(1, inst.m + 1) if g != a.choices[i])
        assert exact_ties > 100

    def test_chunked_scan_keeps_first_witness(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_CHUNK_CELLS", 1)  # one agent per chunk
        rng = np.random.default_rng(19)
        for _ in range(200):
            n, m = (int(v) for v in rng.integers(1, (12, 5)))
            inst = lattice_instance(rng, n, m)
            x, locs, b = plain(inst)
            a = random_assignment(rng, inst.n, inst.m)
            w = fs.is_pne(inst.profile, a, inst.environment).witness
            got = None if w is None else (w.agent, w.better_facility, w.improvement)
            assert repr(got) == repr(oracle_is_pne(x, a.choices, locs, b, fs.EPS_CMP))

    @pytest.mark.parametrize("order", ["round-robin", "max-gain"])
    def test_dynamics_movers_match_oracle_scan(self, suite500, order):
        for inst, start in oracle_cases(suite500):
            x, locs, b = plain(inst)
            trace = fs.run_dynamics(inst, start, order=order)
            choices, pointer = list(start.choices), 0
            for step in trace.steps:
                moves = [oracle_best_move(x, choices, locs, b, i) for i in range(inst.n)]
                improvers = [i for i, (gain, _) in enumerate(moves) if gain > fs.EPS_CMP]
                if order == "round-robin":  # first improver at or after the pointer
                    agent = min(improvers, key=lambda i: (i < pointer, i))
                else:  # largest saving, smallest index on ties
                    agent = max(improvers, key=lambda i: (moves[i][0], -i))
                gain, fac = moves[agent]
                assert (step.agent, step.from_facility, step.to_facility) == (
                    agent, choices[agent], fac)
                assert repr(step.cost_delta) == repr(-gain)
                choices[agent] = fac
                pointer = (agent + 1) % inst.n
            assert trace.converged
            assert list(trace.final_assignment.choices) == choices
            assert oracle_is_pne(x, choices, locs, b, fs.EPS_CMP) is None

    def test_structural_checks_match_oracle(self, suite500):
        rng = np.random.default_rng(23)
        cases = list(oracle_cases(suite500))
        for _ in range(300):  # wider lattice cases: long groups of equal positions
            n, m = (int(v) for v in rng.integers(1, (31, 6)))
            cases.append((lattice_instance(rng, n, m), random_assignment(rng, n, m)))
        crossings = colocated = split = 0
        for inst, a in cases:
            x, locs, _ = plain(inst)
            for case in (a, fs.compute_pne_dp(inst)):
                verdict = fs.check_no_cross(inst.profile, case, inst.environment)
                w = verdict.witness
                got = None if w is None else (w.left_agent, w.right_agent)
                expected = oracle_no_cross(x, case.choices, locs)
                assert repr((verdict.ok, got)) == repr((expected is None, expected))
                blocks = oracle_consecutive_blocks(x, case.choices)
                assert fs.consecutive_blocks_ok(inst.profile, case) is blocks
                crossings += expected is not None
                split += not blocks
            colocated += len(set(x)) < len(x)
        assert crossings > 400 and split > 400 and colocated > 300


class TestBestResponse:
    def test_strict_improvement(self):
        assert fs.best_response(0, PROF, fs.Assignment((2, 1)), ENV) == 1

    def test_tie_stays(self):
        assert fs.best_response(1, PROF, fs.Assignment((1, 1)), ENV) == 1

    def test_single_facility(self):
        env = fs.Environment((0.0,), (1.0,))
        assert fs.best_response(0, fs.Profile((5.0,)), fs.Assignment((1,)), env) == 1


class TestDynamics:
    def test_converges_from_crossed_start(self, running_instance):
        trace = fs.run_dynamics(running_instance, fs.Assignment((2, 1)))
        assert trace.converged
        assert fs.is_pne(running_instance.profile, trace.final_assignment,
                         running_instance.environment)
        assert len(trace.steps) >= 1

    def test_zero_steps_at_equilibrium(self, running_instance):
        trace = fs.run_dynamics(running_instance, fs.Assignment((1, 1)))
        assert trace.converged
        assert trace.steps == ()
        assert trace.final_assignment == fs.Assignment((1, 1))

    def test_budget_exhausted(self, running_instance):
        trace = fs.run_dynamics(running_instance, fs.Assignment((2, 1)), max_steps=0)
        assert not trace.converged
        assert trace.steps == ()

    def test_potential_strictly_decreasing_all_orders(self):
        rng = np.random.default_rng(11)
        for seed in range(40):
            inst = fs.generate_instance(*suite_dims(seed), seed=seed)
            start = random_assignment(rng, inst.n, inst.m)
            for order in ("round-robin", "max-gain", "seeded-random"):
                trace = fs.run_dynamics(inst, start, order=order, seed=3)
                values = [trace.initial_potential] + [s.potential_after
                                                      for s in trace.steps]
                assert all(a > b for a, b in zip(values, values[1:]))
                assert trace.converged
                assert fs.is_pne(inst.profile, trace.final_assignment,
                                 inst.environment)

    def test_step_delta_matches_potential_drop(self, running_instance):
        trace = fs.run_dynamics(running_instance, fs.Assignment((2, 1)))
        values = [trace.initial_potential] + [s.potential_after for s in trace.steps]
        for step, before, after in zip(trace.steps, values, values[1:]):
            assert step.cost_delta == pytest.approx(after - before, abs=1e-9)

    def test_negative_budget_rejected(self, running_instance):
        with pytest.raises(fs.ValidationError, match="max_steps"):
            fs.run_dynamics(running_instance, fs.Assignment((2, 1)), max_steps=-1)

    def test_seeded_random_requires_seed(self, running_instance):
        with pytest.raises(fs.ValidationError, match="seed"):
            fs.run_dynamics(running_instance, fs.Assignment((1, 1)),
                            order="seeded-random")

    @pytest.mark.parametrize("order", ["round-robin", "seeded-random"])
    def test_negative_seed_rejected(self, running_instance, order):
        # round-robin never draws, yet a given seed obeys the same rule
        with pytest.raises(fs.ValidationError, match="seed must be ≥ 0, got -2"):
            fs.run_dynamics(running_instance, fs.Assignment((1, 1)),
                            order=order, seed=-2)

    def test_unknown_order(self, running_instance):
        with pytest.raises(fs.ValidationError, match="order"):
            fs.run_dynamics(running_instance, fs.Assignment((1, 1)), order="bogus")


class TestComputePneDp:
    def test_running_instance_tie_break(self, running_instance):
        # both (1,1) and (1,2) minimize the potential; wider blocks win ties
        a = fs.compute_pne_dp(running_instance)
        assert a == fs.Assignment((1, 1))
        assert fs.potential(PROF, a, ENV) == 6.0
        assert fs.brute_force_min_potential(running_instance) == 6.0
        # the social optimum (1, 1) is unique here
        opt = fs.optimal_block_dp(running_instance)
        assert opt.assignment == fs.Assignment((1, 1))
        assert opt.assignment == fs.optimal_brute_force(running_instance).assignment

    def test_single_agent_picks_cheaper_total(self):
        inst = fs.Instance(ENV, fs.Profile((10.0,)))
        assert fs.compute_pne_dp(inst) == fs.Assignment((2,))

    def test_colocated_agents_pool_on_cheap_facility(self):
        env = fs.Environment((0.0, 5.0), (1.0, 4.0))
        inst = fs.Instance(env, fs.Profile((0.0, 0.0, 0.0)))
        assert fs.compute_pne_dp(inst) == fs.Assignment((1, 1, 1))

    def test_agent_order_restored(self):
        env = fs.Environment((0.0, 10.0), (1.0, 1.0))
        inst = fs.Instance(env, fs.Profile((10.0, 0.0)))
        a = fs.compute_pne_dp(inst)
        assert a == fs.Assignment((2, 1))

    def test_matches_bruteforce_oracle_small(self):
        for seed in range(120):
            inst = fs.generate_instance(*suite_dims(seed), seed=seed)
            a = fs.compute_pne_dp(inst)
            value = fs.potential(inst.profile, a, inst.environment)
            oracle = oracle_min_potential(inst.profile.positions,
                                          inst.environment.locations,
                                          inst.environment.building_costs)
            assert value == pytest.approx(oracle, rel=1e-9)
            assert fs.is_pne(inst.profile, a, inst.environment)

    def test_reference_table_agrees_with_fast_path(self):
        for seed in range(60):
            inst = fs.generate_instance(*suite_dims(seed), seed=seed)
            table = build_dp_table(inst)
            fast = fs.compute_pne_dp(inst)
            assert table.assignment() == fast
            assert table.min_potential == pytest.approx(
                fs.potential(inst.profile, fast, inst.environment), rel=1e-12)

    def test_reference_table_base_semantics(self, running_instance):
        table = build_dp_table(running_instance)
        # feasible base: no agents left; infeasible: agents without facilities
        assert table.memo[(table.n, table.n, table.m)] == 6.0
        assert all(v is not None for v in table.memo.values())
        assert all(not math.isnan(v) for v in table.memo.values())


    def test_internal_error_names_the_instance(self, running_instance, monkeypatch):
        # agent 0 at the left facility saves 3 by leaving the right one
        monkeypatch.setattr(equilibrium, "_block_assignment",
                            lambda instance, w: fs.Assignment((2, 2)))
        with pytest.raises(RuntimeError, match=r"Deviation\(agent=0.*"
                           r"on instance 'running' \(n=2, m=2\)"):
            fs.compute_pne_dp(running_instance)

    def test_self_check_runs_under_optimize_flag(self, running_instance, tmp_path):
        path = tmp_path / "running.json"
        fs.save_instance(running_instance, path)
        script = (
            "import sys\n"
            "import facshare as fs\n"
            "from facshare import equilibrium\n"
            "assert not __debug__\n"
            "equilibrium._block_assignment = lambda instance, w: fs.Assignment((2, 2))\n"
            "try:\n"
            "    fs.compute_pne_dp(fs.load_instance(sys.argv[1]))\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    sys.exit('no RuntimeError')\n")
        src = os.path.dirname(os.path.dirname(fs.__file__))
        run = subprocess.run([sys.executable, "-O", "-c", script, str(path)],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert "on instance 'running' (n=2, m=2)" in run.stdout


class TestBruteForcePotential:
    def test_matches_library_potential_min(self, running_instance):
        assert fs.brute_force_min_potential(running_instance) == 6.0

    def test_guard(self):
        inst = fs.generate_instance(30, 4, seed=0)
        with pytest.raises(fs.BruteForceLimitError):
            fs.brute_force_min_potential(inst, limit=1000)


class TestNoCross:
    def test_ordered_ok(self):
        assert fs.check_no_cross(PROF, fs.Assignment((1, 2)), ENV)

    def test_crossing_witness(self):
        verdict = fs.check_no_cross(PROF, fs.Assignment((2, 1)), ENV)
        assert not verdict
        assert verdict.witness == fs.equilibrium.CrossingWitness(0, 1)

    def test_equal_positions_unconstrained(self):
        prof = fs.Profile((1.0, 1.0))
        assert fs.check_no_cross(prof, fs.Assignment((2, 1)), ENV)

    def test_dp_outputs_never_cross(self):
        for seed in range(80):
            inst = fs.generate_instance(*suite_dims(seed), seed=seed)
            a = fs.compute_pne_dp(inst)
            assert fs.check_no_cross(inst.profile, a, inst.environment)
            assert fs.consecutive_blocks_ok(inst.profile, a)

    def test_consecutive_blocks_detects_split(self):
        prof = fs.Profile((0.0, 1.0, 2.0))
        assert not fs.consecutive_blocks_ok(prof, fs.Assignment((1, 2, 1)))


class TestReusedTotalsExact:
    """Internal callers reuse the array totals of ``costs``; each reported
    value must equal, bit for bit, the public function's value for the same
    assignment. At n >= 8 a numpy ``sum`` or a previous-minus-gain update
    rounds differently, so ``==`` catches either."""

    @staticmethod
    def cases(n_range=(8, 60), m_range=(2, 8), count=40):
        rng = np.random.default_rng(29)
        for k in range(count):
            n, m = int(rng.integers(*n_range)), int(rng.integers(*m_range))
            inst = (fs.generate_instance(n, m, seed=k) if k % 2
                    else lattice_instance(rng, n, m))
            yield inst, random_assignment(rng, n, m)

    @pytest.mark.parametrize("order", ["round-robin", "max-gain", "seeded-random"])
    def test_dynamics_potentials_equal_recomputed(self, order):
        steps = 0
        for inst, start in self.cases():
            profile, env = inst.profile, inst.environment
            trace = fs.run_dynamics(inst, start, order=order, seed=5)
            assert trace.initial_potential == fs.potential(profile, start, env)
            choices = list(start.choices)
            for step in trace.steps:
                choices[step.agent] = step.to_facility
                replayed = fs.Assignment(tuple(choices))
                assert step.potential_after == fs.potential(profile, replayed, env)
            steps += len(trace.steps)
        assert steps > 500

    @staticmethod
    def check_optimum(inst, other, opt):
        def sc(assignment):
            return fs.social_cost(inst.profile, assignment, inst.environment).social_cost

        assert opt.social_cost == sc(opt.assignment)
        for a in (fs.compute_pne_dp(inst), other):
            report = fs.check_harmonic_bound(inst, a, opt.assignment)
            assert report.ratio == sc(a) / sc(opt.assignment)

    def test_optima_and_ratio_equal_social_cost(self):
        for inst, a in self.cases():
            self.check_optimum(inst, a, fs.optimal_block_dp(inst))
        for inst, a in self.cases(n_range=(8, 11), m_range=(2, 4), count=12):
            self.check_optimum(inst, a, fs.optimal_brute_force(inst))


class TestHarmonicBound:
    def test_running_instance(self, running_instance):
        pne = fs.compute_pne_dp(running_instance)
        opt = fs.optimal_block_dp(running_instance).assignment
        report = fs.check_harmonic_bound(running_instance, pne, opt)
        assert report.ratio == pytest.approx(1.0)
        assert report.bound == pytest.approx(1.5)
        assert report.holds

    def test_single_agent(self):
        inst = fs.Instance(ENV, fs.Profile((10.0,)))
        pne = fs.compute_pne_dp(inst)
        opt = fs.optimal_block_dp(inst).assignment
        report = fs.check_harmonic_bound(inst, pne, opt)
        assert report.ratio == pytest.approx(1.0)
        assert report.bound == 1.0
        assert report.holds


@settings(max_examples=120, deadline=None)
@given(
    positions=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=5),
    locations=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=3),
    data=st.data(),
)
def test_dp_output_is_equilibrium_property(positions, locations, data):
    costs = tuple(
        data.draw(st.floats(0.1, 20, allow_nan=False)) for _ in locations)
    inst = fs.Instance(fs.Environment(tuple(locations), costs),
                       fs.Profile(tuple(positions)))
    a = fs.compute_pne_dp(inst)
    assert fs.is_pne(inst.profile, a, inst.environment)
    assert fs.check_no_cross(inst.profile, a, inst.environment)
