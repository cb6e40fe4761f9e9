"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its measured numbers. Run with ``pytest tests/test_acceptance.py -v``
(the summary lines print even under capture)."""

import math
import time

import numpy as np

import facshare as fs
from facshare.mechanisms import MechanismSpec
from oracles import (
    oracle_agent_cost,
    oracle_min_potential,
    oracle_potential_grouped,
    random_assignment,
    random_environment,
)

REL = 1e-9
ABS = 1e-9


def report(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_equilibrium_oracle_equivalence(suite500, capsys):
    started = time.perf_counter()
    worst_gap = 0.0
    pne_failures = 0
    for inst in suite500:
        a = fs.compute_pne_dp(inst)
        value = fs.potential(inst.profile, a, inst.environment)
        oracle = oracle_min_potential(inst.profile.positions,
                                      inst.environment.locations,
                                      inst.environment.building_costs)
        worst_gap = max(worst_gap, abs(value - oracle) / max(1.0, abs(oracle)))
        if not fs.is_pne(inst.profile, a, inst.environment):
            pne_failures += 1
    elapsed = time.perf_counter() - started
    ok = worst_gap <= REL and pne_failures == 0 and elapsed < 30.0
    report(capsys, ok, "01 equilibrium-oracle-equivalence",
           f"500 instances, max rel gap {worst_gap:.2e}, "
           f"{pne_failures} equilibrium failures, {elapsed:.1f}s")


def test_02_optimum_oracle_equivalence(suite500, capsys):
    started = time.perf_counter()
    worst_gap = 0.0
    for inst in suite500:
        brute = fs.optimal_brute_force(inst)
        block = fs.optimal_block_dp(inst)
        gap = abs(brute.social_cost - block.social_cost) / max(
            1.0, abs(brute.social_cost))
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - started
    ok = worst_gap <= REL and elapsed < 30.0
    report(capsys, ok, "02 optimum-oracle-equivalence",
           f"500 instances, max rel gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_03_potential_identities(suite500, capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_form = 0.0
    worst_dev = 0.0
    trials = 10_000
    for t in range(trials):
        inst = suite500[t % len(suite500)]
        prof, env = inst.profile, inst.environment
        a = random_assignment(rng, inst.n, inst.m)
        lib = fs.potential(prof, a, env)
        grouped = oracle_potential_grouped(prof.positions, a.choices,
                                           env.locations, env.building_costs)
        worst_form = max(worst_form, abs(lib - grouped) / max(1.0, abs(grouped)))
        i = int(rng.integers(inst.n))
        moved = list(a.choices)
        moved[i] = int(rng.integers(1, inst.m + 1))
        b = fs.Assignment(tuple(moved))
        lhs = lib - fs.potential(prof, b, env)
        rhs = (oracle_agent_cost(prof.positions, a.choices, env.locations,
                                 env.building_costs, i)
               - oracle_agent_cost(prof.positions, b.choices, env.locations,
                                   env.building_costs, i))
        worst_dev = max(worst_dev, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    ok = worst_form <= REL and worst_dev <= ABS and elapsed < 10.0
    report(capsys, ok, "03 potential-identities",
           f"{trials} triples, max form gap {worst_form:.2e}, "
           f"max deviation gap {worst_dev:.2e}, {elapsed:.1f}s")


def test_04_equilibrium_structure(suite500, capsys):
    violations = 0
    for inst in suite500:
        a = fs.compute_pne_dp(inst)
        if not fs.check_no_cross(inst.profile, a, inst.environment):
            violations += 1
        if not fs.consecutive_blocks_ok(inst.profile, a):
            violations += 1
    report(capsys, violations == 0, "04 equilibrium-structure",
           f"500 instances, {violations} no-cross/consecutiveness violations")


def test_05_harmonic_bound(suite500, capsys):
    worst_ratio = 0.0
    worst_slack = -math.inf
    failures = 0
    for inst in suite500:
        pne = fs.compute_pne_dp(inst)
        opt = fs.optimal_block_dp(inst).assignment
        rep = fs.check_harmonic_bound(inst, pne, opt)
        worst_ratio = max(worst_ratio, rep.ratio)
        worst_slack = max(worst_slack, rep.ratio - rep.bound)
        if not rep.holds:
            failures += 1
    report(capsys, failures == 0, "05 harmonic-price-of-stability",
           f"500 instances, max observed ratio {worst_ratio:.4f}, "
           f"max ratio-bound slack {worst_slack:.2e}, {failures} failures")


def test_06_unbounded_ratio_family(capsys):
    started = time.perf_counter()
    expected = {0.5: 2.0, 0.2: 12.5, 0.1: 50.0, 0.05: 200.0}
    ok = True
    details = []
    for eps, reference in expected.items():
        env = fs.Environment((0.0, 1.0 / eps - eps), (eps, eps))
        pooling, threshold = fs.ratio_lower_bound_terms(env)
        bound = fs.ratio_lower_bound(env)
        ok &= abs(pooling - reference) <= REL * reference
        ok &= abs(reference - 1.0 / (2.0 * eps * eps)) <= REL * reference
        ok &= bound >= reference - REL * reference
        ok &= bound == max(pooling, threshold)
        if threshold <= pooling:
            ok &= abs(bound - reference) <= REL * reference
        details.append(f"eps={eps}: pooling={pooling:.6g} bound={bound:.6g}")
    elapsed = time.perf_counter() - started
    # the full bound exceeds the 1/(2 eps^2) reference at eps=0.5 (2.2 > 2):
    # equality is asserted on the pooling term, which reproduces 2/12.5/50/200
    report(capsys, ok and elapsed < 1.0, "06 unbounded-ratio-family",
           "; ".join(details) + f", {elapsed:.2f}s")


def _constructible_specs(env):
    admitted = fs.classify_environment(env).admitted_types
    specs = [MechanismSpec("type1", target=1), MechanismSpec("type1", target=2)]
    if "type2" in admitted:
        specs += [MechanismSpec("type2", diag_choice=c) for c in (1, 2)]
    if "type3" in admitted:
        specs += [MechanismSpec("type3", diag_choice=c) for c in (1, 2)]
    if "type4" in admitted:
        specs += [MechanismSpec("type4", boundary_choice=c) for c in (1, 2)]
    if "type5" in admitted:
        specs += [MechanismSpec("type5", boundary_choice=c) for c in (1, 2)]
    return specs


def test_07_mechanism_audits(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    bad = []

    # the characterized two-agent families over 200 environments (the two
    # equality families are sampled explicitly; they have measure zero)
    audited_specs = 0
    for idx in range(200):
        force = None if idx < 100 else ("M0" if idx < 150 else "Mdelta")
        env = random_environment(rng, force=force)
        grid = fs.default_audit_grid(env)
        for spec in _constructible_specs(env):
            audited_specs += 1
            if not fs.audit_strategyproof(spec, env, grid, n=2).passed:
                bad.append(("sp", spec.kind, idx))
            if not fs.audit_anonymous(spec, env, grid, n=2).passed:
                bad.append(("anon", spec.kind, idx))
            if spec.kind != "type1":
                if not fs.audit_unanimous(spec, env, grid, n=2).passed:
                    bad.append(("unanimous", spec.kind, idx))

    # the k-rank family for k <= n <= 5, m <= 4, over 200 environments
    audited_krank = 0
    for idx in range(200):
        n = 2 + idx % 4
        m = 1 + idx % 4
        env = random_environment(rng, m=m)
        grid = fs.default_audit_grid(env)
        cap = 2048 if n == 2 else 256
        for k in range(1, n + 1):
            audited_krank += 1
            spec = MechanismSpec("krank", k=k)
            if not fs.audit_strategyproof(spec, env, grid, n=n,
                                          max_profiles=cap, seed=idx).passed:
                bad.append(("sp", f"krank{k}", idx))
            if not fs.audit_anonymous(spec, env, grid, n=n, max_profiles=cap,
                                      seed=idx).passed:
                bad.append(("anon", f"krank{k}", idx))
            if not fs.audit_unanimous(spec, env, grid, n=n, max_profiles=cap,
                                      seed=idx).passed:
                bad.append(("unanimous", f"krank{k}", idx))

    # negative control: the natural greedy must fail on the eps environment
    eps_env = fs.Environment((0.0, 9.9), (0.1, 0.1))
    greedy_report = fs.audit_strategyproof(
        fs.nearest_facility_mechanism(eps_env), eps_env, n=2)
    greedy_caught = (not greedy_report.passed
                     and len(greedy_report.counterexamples) >= 1)

    elapsed = time.perf_counter() - started
    ok = not bad and greedy_caught and elapsed < 300.0
    report(capsys, ok, "07 mechanism-audits",
           f"{audited_specs} characterized specs + {audited_krank} k-rank specs "
           f"clean, greedy counterexamples "
           f"{len(greedy_report.counterexamples)}, {elapsed:.1f}s"
           + (f", failures: {bad[:5]}" if bad else ""))


def test_08_threshold_table_consistency(capsys):
    started = time.perf_counter()
    tol = fs.EPS_CMP
    rng = np.random.default_rng(4242)

    total = 10_000
    b1 = rng.uniform(0.1, 5.0, size=total)
    b2 = rng.uniform(0.1, 5.0, size=total)
    delta = rng.uniform(0.0, 5.0, size=total)
    # pin the two equality families on 30% of the samples (measure zero
    # under the uniform draw)
    b1[7000:8500] = b2[7000:8500] + 2.0 * delta[7000:8500]
    b2[8500:] = b1[8500:] + 2.0 * delta[8500:]

    m_val = 0.5 * delta + 0.25 * b2 - 0.25 * b1
    def6_m0 = np.abs(m_val) <= tol
    def6_md = np.abs(m_val - delta) <= tol
    def6_int = (m_val > tol) & (m_val < delta - tol)

    # the same three conditions in table form, on the 2*delta scale (the
    # identity M = (2*delta - (b1 - b2)) / 4 scales the band by 4)
    low = 2.0 * delta - (b1 - b2)
    high = 2.0 * delta - (b2 - b1)
    alg_m0 = np.abs(low) <= 4.0 * tol
    alg_md = np.abs(high) <= 4.0 * tol
    alg_int = (low > 4.0 * tol) & (high > 4.0 * tol)

    mismatches = int((def6_m0 != alg_m0).sum() + (def6_md != alg_md).sum()
                     + (def6_int != alg_int).sum())

    # spot-check that constructor preconditions agree with the classifier on
    # actual Environment objects
    object_mismatches = 0
    for idx in range(300):
        force = (None, "M0", "Mdelta")[idx % 3]
        env = random_environment(rng, force=force)
        admitted = set(fs.classify_environment(env).admitted_types)
        for kind, spec in [
            ("type2", MechanismSpec("type2", diag_choice=1)),
            ("type3", MechanismSpec("type3", diag_choice=1)),
            ("type4", MechanismSpec("type4", boundary_choice=1)),
        ]:
            try:
                fs.validate_spec(spec, env)
                constructible = True
            except fs.MechanismPreconditionError:
                constructible = False
            if constructible != (kind in admitted):
                object_mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and object_mismatches == 0
    report(capsys, ok, "08 threshold-table-consistency",
           f"{total} sampled parameter triples, {mismatches} condition "
           f"mismatches, {object_mismatches} constructor mismatches, "
           f"{elapsed:.1f}s")


def test_09_dynamics_convergence(suite500, capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    runs = 0
    failures = 0
    for inst in suite500:
        for _ in range(10):
            start = random_assignment(rng, inst.n, inst.m)
            trace = fs.run_dynamics(inst, start, max_steps=10_000)
            runs += 1
            values = [trace.initial_potential] + [s.potential_after
                                                  for s in trace.steps]
            decreasing = all(a > b for a, b in zip(values, values[1:]))
            converged_to_pne = trace.converged and bool(
                fs.is_pne(inst.profile, trace.final_assignment,
                          inst.environment))
            if not (decreasing and converged_to_pne):
                failures += 1
    elapsed = time.perf_counter() - started
    report(capsys, failures == 0, "09 dynamics-convergence",
           f"{runs} runs (10 random starts x 500 instances), "
           f"{failures} failures, {elapsed:.1f}s")


def test_10_dp_scaling(capsys):
    import statistics

    instances = [fs.generate_instance(n, 10, seed=1234) for n in (200, 400)]
    for inst in instances:
        fs.compute_pne_dp(inst)
        fs.compute_pne_dp(inst)  # warm-up
    # The sizes alternate, so drift in host speed lands on both alike.
    times = ([], [])
    for _ in range(20):
        for inst, sample in zip(instances, times):
            t0 = time.perf_counter()
            fs.compute_pne_dp(inst)
            sample.append((time.perf_counter() - t0) * 1000.0)
    small, large = map(statistics.median, times)
    ratio = large / small
    ok = 2.0 <= ratio <= 6.0
    report(capsys, ok, "10 dp-scaling",
           f"median (200,10) {small:.2f}ms, (400,10) {large:.2f}ms, "
           f"ratio {ratio:.2f} in [2, 6]")
