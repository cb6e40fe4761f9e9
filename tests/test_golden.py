"""Golden output: one sha256 over the ``repr`` of a fixed, seeded record set.

The records cover the solvers (``compute_pne_dp``, both optima), the cost
functions (``social_cost`` with its per-agent split, ``potential``), the
verdicts and witnesses of ``is_pne``, ``check_no_cross`` and
``consecutive_blocks_ok``, ``check_harmonic_bound``, ``run_dynamics`` traces
in all three orders, and the JSON of ``solve --mode both --verify``,
``dynamics`` and ``mech`` on instance files whose facilities are not listed
in location order (``elapsed_ms`` dropped).

The test pins every reported float, assignment and witness bit for bit, so a
refactor that claims to change no behaviour can prove it. Changing
``EXPECTED`` is a behaviour change: state it, and why, in CHANGES.md.
"""

import hashlib
import json

import numpy as np

import facshare as fs
from facshare import cli
from facshare.model import instance_to_dict
from oracles import lattice_instance, random_assignment, suite_dims

EXPECTED = "98039938f02eef721e7024b45c0e9415370842e676dfda99413ac740cdc737ce"

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
    out = tmp_path / "out.json"
    for argv in runs:
        assert cli.main([*argv, "-o", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc.pop("elapsed_ms")
        yield json.dumps(doc, sort_keys=True)


def test_golden_output(tmp_path):
    text = "\n".join(map(repr, library_records())) + "\n" + "\n".join(cli_records(tmp_path))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED
