"""Golden output: one sha256 over the ``repr`` of a fixed, seeded record set.

The records cover the solvers (``compute_pne_dp``, both optima), the cost
functions (``social_cost`` with its per-agent split, ``potential``), the
verdicts and witnesses of ``is_pne``, ``check_no_cross`` and
``consecutive_blocks_ok``, ``check_harmonic_bound``, ``run_dynamics`` traces
in all three orders, and the JSON of ``solve --mode both --verify``,
``dynamics`` and ``mech`` on instance files whose facilities are not listed
in location order (``elapsed_ms`` dropped).

A second hash, ``AUDIT_EXPECTED``, covers the mechanism audits: the reports of
``audit_strategyproof``, ``audit_anonymous``, ``audit_unanimous`` and
``audit_lemma_properties`` plus ``empirical_ratio``, for every constructible
two-agent spec (non-monotone ``diag_choice`` callables included), k-rank for
n <= 6 and m <= 4 on full-grid and sampled profiles with off-grid misreports,
and the greedy control. Counterexample order and ``checked`` counts are part
of the hash.

A third, ``MECH_AUDIT_EXPECTED``, covers the path ``facshare mech --audit``
runs: one draw and one spec form shared by sp, anon, unanimous and props,
for type2-type5 and k-rank, on grids where both draws are exhaustive, only
sp's is, and neither (``elapsed_ms`` dropped).

The test pins every reported float, assignment and witness bit for bit, so a
refactor that claims to change no behaviour can prove it. Changing
``EXPECTED`` is a behaviour change: state it, and why, in CHANGES.md.
"""

import hashlib
import json

import numpy as np

import facshare as fs
from facshare import _blockdp, cli, mechanisms
from facshare.model import instance_to_dict
from facshare.mechanisms import MechanismSpec
from oracles import lattice_instance, random_assignment, random_environment, suite_dims

EXPECTED = "98039938f02eef721e7024b45c0e9415370842e676dfda99413ac740cdc737ce"
AUDIT_EXPECTED = "732053857878459a96d030933aa7c3aa6e2bdd37ccbca25293b259adfed098ac"
MONOTONE_EXPECTED = "c5548f49ff5423047a8fdc4dfd72a15f6f50570e7423f0806fb8151aa26fb344"
MECH_AUDIT_EXPECTED = "7a5398896a2aa20c227a52d458871701c2b397a09ed22d5e2ea715b6dbb55701"

ORDERS = ("round-robin", "max-gain", "seeded-random")


def library_records():
    rng = np.random.default_rng(2024)
    instances = [fs.generate_instance(*suite_dims(s), seed=s) for s in range(0, 500, 5)]
    instances += [lattice_instance(rng, int(rng.integers(1, 8)), int(rng.integers(1, 5)))
                  for _ in range(60)]
    instances += [fs.generate_instance(60, 5, seed=7), fs.generate_instance(150, 8, seed=8)]
    for inst in instances:
        profile, env = inst.profile, inst.environment
        pne = fs.compute_pne_dp(inst)
        opt = fs.optimal_block_dp(inst)
        yield pne
        yield opt
        if inst.m ** inst.n <= 4096:
            yield fs.optimal_brute_force(inst)
        yield fs.check_harmonic_bound(inst, pne, opt.assignment)
        start = random_assignment(rng, inst.n, inst.m)
        for a in (pne, opt.assignment, start):
            yield fs.social_cost(profile, a, env)
            yield fs.potential(profile, a, env)
            yield fs.is_pne(profile, a, env)
            yield fs.check_no_cross(profile, a, env)
            yield fs.consecutive_blocks_ok(profile, a)
        for order in ORDERS:
            yield fs.run_dynamics(inst, start, order=order, seed=3)


def cli_records(tmp_path):
    paths = []
    for k, (n, m) in enumerate(((7, 3), (40, 6), (300, 10))):
        doc = instance_to_dict(fs.generate_instance(n, m, seed=100 + k))
        doc["facilities"].reverse()  # file numbering differs from sorted numbering
        path = tmp_path / f"inst{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    runs = [["solve", path, "--mode", "both", "--verify"] for path in paths]
    for path in paths[:2]:
        runs += [["dynamics", path, "--start", "random:5", "--order", order, "--seed", "9"]
                 for order in ORDERS]
        runs.append(["mech", path, "--mech", '{"kind": "krank", "params": {"k": 2}}'])
    yield from cli_outputs(runs, tmp_path)


def cli_outputs(runs, tmp_path):
    """Each run's JSON output with ``elapsed_ms`` dropped."""
    out = tmp_path / "out.json"
    for argv in runs:
        assert cli.main([*argv, "-o", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc.pop("elapsed_ms")
        yield json.dumps(doc, sort_keys=True)


def test_golden_output(tmp_path):
    text = "\n".join(map(repr, library_records())) + "\n" + "\n".join(cli_records(tmp_path))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED


def monotone_instances():
    """The benchmark's three large shapes, and one with agents on a 0.01
    lattice, so that many share a position: every equilibrium layer after
    the first takes the monotone path."""
    instances = [fs.generate_instance(n, m, seed=300 + k)
                 for k, (n, m) in enumerate(((1000, 100), (2000, 30), (3000, 10)))]
    inst = fs.generate_instance(2000, 30, seed=303)
    x = np.round(inst.profile.positions, 2)
    return instances + [fs.Instance(inst.environment, fs.Profile(tuple(x.tolist())))]


def test_monotone_golden_output(tmp_path):
    # EXPECTED's instances all have n <= 300 and take the dense path.
    instances = monotone_instances()
    assert all(inst.n ** 2 > _blockdp._DENSE_CELLS for inst in instances)
    assert len(set(instances[-1].profile.positions)) < instances[-1].n / 2
    paths = []
    for k, inst in enumerate(instances):
        path = tmp_path / f"large{k}.json"
        path.write_text(json.dumps(instance_to_dict(inst)), encoding="utf-8")
        paths.append(str(path))
    text = "\n".join(cli_outputs([["solve", path, "--mode", "both"] for path in paths],
                                 tmp_path))
    assert hashlib.sha256(text.encode()).hexdigest() == MONOTONE_EXPECTED


def two_agent_specs(env):
    """Every constructible two-agent spec, with monotone and island-shaped
    ``diag_choice`` callables on the equality environments."""
    admitted = fs.classify_environment(env).admitted_types
    l1, l2 = env.locations
    specs = [MechanismSpec("type1", target=t) for t in (1, 2)]
    if "type2" in admitted:
        specs += [MechanismSpec("type2", diag_choice=c) for c in (
            1, 2, lambda x: 1 if x < l1 - 1.0 else 2,
            lambda x: 1 if l1 - 1.0 <= x <= l1 else 2)]
    if "type3" in admitted:
        specs += [MechanismSpec("type3", diag_choice=c) for c in (
            1, 2, lambda x: 1 if l2 + 0.5 <= x <= l2 + 1.0 else 2)]
    for kind in ("type4", "type5"):
        if kind in admitted:
            specs += [MechanismSpec(kind, boundary_choice=c) for c in (1, 2)]
    return specs


def audits(mechanism, env, n, grid, misreports=None, max_profiles=2048, seed=0):
    yield fs.audit_strategyproof(mechanism, env, grid, misreports, n=n,
                                 max_profiles=max_profiles, seed=seed)
    yield fs.audit_anonymous(mechanism, env, grid, n=n,
                             max_profiles=max_profiles, seed=seed)
    yield fs.audit_unanimous(mechanism, env, grid, n=n,
                             max_profiles=max_profiles, seed=seed)
    yield fs.audit_lemma_properties(mechanism, env, grid, n=n,
                                    max_profiles=min(max_profiles, 512), seed=seed)
    yield fs.empirical_ratio(mechanism, env, grid, n=n,
                             max_profiles=max_profiles, seed=seed)


def audit_records():
    rng = np.random.default_rng(606)
    envs = [fs.Environment(locs, costs) for locs, costs in (
        ((0.0, 3.0), (2.0, 4.0)), ((0.0, 1.0), (4.0, 2.0)),
        ((0.0, 1.0), (2.0, 4.0)), ((0.0, 9.9), (0.1, 0.1)))]
    envs += [random_environment(rng, force=force) for force in (None, "M0", "Mdelta") * 2]
    for env in envs:
        grid = fs.default_audit_grid(env)
        for spec in two_agent_specs(env):
            yield from audits(spec, env, 2, grid)
        yield from audits(fs.nearest_facility_mechanism(env), env, 2, grid)
    for n in range(1, 7):
        for m in range(1, 5):
            env = random_environment(rng, m=m)
            grid = fs.default_audit_grid(env)
            size = min(len(grid), int(300 ** (1 / n)))
            full = tuple(sorted(rng.choice(grid, size=size, replace=False).tolist()))
            off_grid = [grid[0] - 1.0, *rng.uniform(grid[0], grid[-1], size=4).tolist(),
                        grid[len(grid) // 2], grid[-1] + 1.0]
            for k in sorted({1, n, int(rng.integers(1, n + 1))}):
                spec = MechanismSpec("krank", k=k)
                yield from audits(spec, env, n, full, max_profiles=300, seed=n)
                yield from audits(spec, env, n, grid, off_grid, max_profiles=200,
                                  seed=10 * n + m)
            if n <= 3:
                yield from audits(fs.nearest_facility_mechanism(env), env, n, grid,
                                  off_grid, max_profiles=200, seed=m)


def test_audit_golden():
    text = "\n".join(map(repr, audit_records()))
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_EXPECTED


def mech_audit_runs(tmp_path):
    """``mech --audit`` argv with their environment and n: type2-type5 on
    environments at M = 0, 0 < M < delta and M = delta, and k-rank at n = 3
    and 5 on m = 2..4, each with and without ``--grid-extra 5``."""
    rng = np.random.default_rng(909)
    runs = []
    for locs, costs, kind, key in (((0.0, 1.0), (6.0, 4.0), "type2", "diag_choice"),
                                   ((0.0, 3.0), (2.0, 4.0), "type4", "boundary_choice"),
                                   ((0.0, 3.0), (2.0, 4.0), "type5", "boundary_choice"),
                                   ((0.0, 1.0), (4.0, 6.0), "type3", "diag_choice")):
        for choice in (1, 2):
            value = f"fac{choice}" if key == "diag_choice" else choice
            runs.append((fs.Environment(locs, costs), (-0.5, 0.7),
                         {"kind": kind, "params": {key: value}}))
    for n in (3, 5):
        for m in (2, 3, 4):
            env = random_environment(rng, m=m)
            positions = tuple(rng.uniform(-1.0, 11.0, size=n).tolist())
            for k in sorted({1, n, int(rng.integers(1, n + 1))}):
                runs.append((env, positions, {"kind": "krank", "params": {"k": k}}))
    for case, (env, positions, spec) in enumerate(runs):
        doc = instance_to_dict(fs.Instance(env, fs.Profile(positions)))
        doc["facilities"].reverse()  # file numbering differs from sorted numbering
        path = tmp_path / f"mech{case}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["mech", str(path), "--mech", json.dumps(spec),
                "--audit", "sp,anon,unanimous,props", "--seed", str(case)]
        yield argv, env, len(positions), 0
        yield argv + ["--grid-extra", "5"], env, len(positions), 5


def test_mech_audit_golden(tmp_path):
    # AUDIT_EXPECTED hashes the public audits, each on its own draw; this
    # hashes the one draw and one spec form a `mech --audit` op shares.
    runs = list(mech_audit_runs(tmp_path))
    regimes = {(g ** n <= 512, g ** n <= 2048) for g, n in (
        (len(fs.default_audit_grid(env, extra=extra)), n) for _, env, n, extra in runs)}
    # both draws exhaustive, only sp's, and neither
    assert regimes == {(True, True), (False, True), (False, False)}
    text = "\n".join(cli_outputs([argv for argv, *_ in runs], tmp_path))
    assert hashlib.sha256(text.encode()).hexdigest() == MECH_AUDIT_EXPECTED


def test_reach_flag_equals_top_on_mech_audit_draws(tmp_path, monkeypatch):
    # sp reads whether some report reaches a facility from the form's
    # per-value tables without building top; on every draw the golden's
    # `mech --audit` ops price, that flag is exactly top >= 0.
    forms = []
    sp_rows = mechanisms._sp_rows
    monkeypatch.setattr(mechanisms, "_sp_rows",
                        lambda form, *args: forms.append(form) or sp_rows(form, *args))
    runs = list(mech_audit_runs(tmp_path))
    for _ in cli_outputs([argv for argv, *_ in runs], tmp_path):
        pass
    assert len(forms) == len(runs)
    reached = [form.reached for form in forms]
    assert all(np.array_equal(flag, form.top >= 0) for flag, form in zip(reached, forms))
    flags = np.concatenate([flag.ravel() for flag in reached])
    assert flags.any() and not flags.all()
