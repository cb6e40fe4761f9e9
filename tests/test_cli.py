import argparse
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import facshare as fs
from facshare import cli
from facshare.cli import main
from facshare.model import dumps_instance


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


@pytest.fixture
def running_file(tmp_path, running_instance):
    path = tmp_path / "running.json"
    fs.save_instance(running_instance, path)
    return str(path)


class TestGen:
    def test_writes_valid_instance(self, capsys, tmp_path):
        out_path = tmp_path / "inst.json"
        code, out, _ = run_cli(capsys, "gen", "-n", "4", "-m", "2",
                               "--seed", "42", "-o", str(out_path))
        assert code == 0
        inst = fs.load_instance(out_path)
        assert inst.n == 4 and inst.m == 2
        doc = parse(out)
        assert doc["command"] == "gen"
        assert doc["outputs"]["path"] == str(out_path)

    def test_byte_identical_for_same_flags(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "gen", "-n", "4", "-m", "2", "--seed", "42", "-o", str(a))
        run_cli(capsys, "gen", "-n", "4", "-m", "2", "--seed", "42", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_zero_agents(self, capsys):
        code, _, err = run_cli(capsys, "gen", "-n", "0", "-m", "2", "--seed", "1")
        assert code == 2
        assert "n must be" in err

    def test_stdout_document_when_no_output_path(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "-n", "2", "-m", "2", "--seed", "5")
        assert code == 0
        doc = parse(out)["outputs"]["instance"]
        assert len(doc["agents"]) == 2


class TestSolve:
    def test_both_mode_running_instance(self, capsys, running_file,
                                        running_instance):
        code, out, _ = run_cli(capsys, "solve", running_file, "--mode", "both")
        assert code == 0
        doc = parse(out)
        outs = doc["outputs"]
        assert outs["pne"]["assignment"] == [1, 1]
        assert outs["ratio"] == pytest.approx(1.0)
        assert outs["harmonic_bound"] == pytest.approx(1.5)
        assert outs["bound_holds"] is True
        # every numeric field re-validates against library recomputation
        prof, env = running_instance.profile, running_instance.environment
        pne = fs.Assignment(tuple(outs["pne"]["assignment"]))
        assert outs["pne"]["social_cost"] == pytest.approx(
            fs.social_cost(prof, pne, env).social_cost, abs=1e-9)
        assert outs["pne"]["potential"] == pytest.approx(
            fs.potential(prof, pne, env), abs=1e-9)
        opt = fs.Assignment(tuple(outs["opt"]["assignment"]))
        assert outs["opt"]["social_cost"] == pytest.approx(
            fs.social_cost(prof, opt, env).social_cost, abs=1e-9)
        assert outs["ratio"] == pytest.approx(
            outs["pne"]["social_cost"] / outs["opt"]["social_cost"], abs=1e-9)

    def test_verify_flag(self, capsys, running_file):
        code, out, _ = run_cli(capsys, "solve", running_file, "--mode", "both",
                               "--verify")
        assert code == 0
        verified = parse(out)["outputs"]["verified"]
        assert verified["pne_check"] is True
        assert verified["no_cross"] is True
        assert verified["potential_matches_bruteforce"] is True
        assert verified["opt_matches_bruteforce"] is True

    def test_verify_skips_oracle_on_large_instance(self, capsys, tmp_path):
        inst = fs.generate_instance(40, 4, seed=3)
        path = tmp_path / "big.json"
        fs.save_instance(inst, path)
        code, out, err = run_cli(capsys, "solve", str(path), "--mode", "pne",
                                 "--verify")
        assert code == 0
        verified = parse(out)["outputs"]["verified"]
        assert verified["pne_check"] is True
        assert verified["potential_matches_bruteforce"] == "skipped"
        assert "partial verification" in err

    def test_facility_indices_reported_in_input_order(self, capsys, tmp_path):
        # facilities listed right-to-left in the file: outputs use file numbering
        doc = {"facilities": [{"location": 3, "building_cost": 4},
                              {"location": 0, "building_cost": 2}],
               "agents": [0, 3]}
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "solve", str(path), "--mode", "pne")
        assert code == 0
        # normalized solution pools on the left facility, which the input
        # file numbered 2
        assert parse(out)["outputs"]["pne"]["assignment"] == [2, 2]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/inst.json")
        assert code == 1
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, _ = run_cli(capsys, "solve", str(path))
        assert code == 2

    def test_multiple_inputs_ndjson(self, capsys, tmp_path):
        paths = []
        for seed in (1, 2, 3):
            p = tmp_path / f"i{seed}.json"
            fs.save_instance(fs.generate_instance(3, 2, seed=seed), p)
            paths.append(str(p))
        code, out, _ = run_cli(capsys, "solve", *paths, "--mode", "pne")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [d["instance_name"] for d in lines] == [
            "gen-n3-m2-s1", "gen-n3-m2-s2", "gen-n3-m2-s3"]

    def test_jobs_flag_is_not_accepted(self, capsys, running_file):
        code, out, err = run_cli(capsys, "solve", running_file, "--jobs", "2")
        assert code == 2
        assert out == "" and "--jobs" in err

    def test_out_file_takes_the_stdout_layout(self, capsys, tmp_path):
        # One JSON line per input, a single input included.
        paths = []
        for seed in (1, 2):
            p = tmp_path / f"o{seed}.json"
            fs.save_instance(fs.generate_instance(3, 2, seed=seed), p)
            paths.append(str(p))
        out_path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "solve", *paths, "-o", str(out_path))
        assert code == 0 and out == ""
        lines = out_path.read_text().splitlines()
        assert [json.loads(line)["instance_name"] for line in lines] == [
            "gen-n3-m2-s1", "gen-n3-m2-s2"]
        code, out, _ = run_cli(capsys, "solve", paths[0], "-o", str(out_path))
        assert code == 0 and out == ""
        text = out_path.read_text()
        assert text.startswith('{"command": "solve",') and text.endswith("}\n")
        assert text.count("\n") == 1
        assert parse(text)["instance_name"] == "gen-n3-m2-s1"


class TestDynamics:
    def test_all_one_start_converges(self, capsys, running_file):
        code, out, _ = run_cli(capsys, "dynamics", running_file,
                               "--start", "all-1")
        assert code == 0
        outs = parse(out)["outputs"]
        assert outs["converged"] is True
        assert outs["final_is_equilibrium"] is True

    def test_equilibrium_start_zero_steps(self, capsys, tmp_path,
                                          running_instance):
        path = tmp_path / "r.json"
        fs.save_instance(running_instance, path)
        start = tmp_path / "start.json"
        start.write_text("[1, 1]")
        code, out, _ = run_cli(capsys, "dynamics", str(path),
                               "--start", f"file:{start}")
        assert code == 0
        outs = parse(out)["outputs"]
        assert outs["steps_taken"] == 0 and outs["converged"] is True

    def test_budget_zero_reports_not_converged(self, capsys, tmp_path,
                                               running_instance):
        path = tmp_path / "r.json"
        fs.save_instance(running_instance, path)
        start = tmp_path / "start.json"
        start.write_text("[2, 1]")
        code, out, _ = run_cli(capsys, "dynamics", str(path),
                               "--start", f"file:{start}", "--max-steps", "0")
        assert code == 0
        outs = parse(out)["outputs"]
        assert outs["converged"] is False and outs["steps_taken"] == 0

    def test_random_start_and_seeded_order(self, capsys, running_file):
        code, out, _ = run_cli(capsys, "dynamics", running_file,
                               "--start", "random:9",
                               "--order", "seeded-random", "--seed", "4")
        assert code == 0
        assert parse(out)["outputs"]["converged"] is True

    def test_seeded_random_without_seed(self, capsys, running_file):
        code, _, err = run_cli(capsys, "dynamics", running_file,
                               "--start", "all-1", "--order", "seeded-random")
        assert code == 2
        assert "seed" in err

    def test_unsorted_file_uses_file_numbering(self, capsys, tmp_path):
        # facilities listed right-to-left: start, steps and final assignment
        # all use the file's numbering, so replaying the steps from the start
        # reproduces the final assignment
        doc = {"facilities": [{"location": 10.0, "building_cost": 1.0},
                              {"location": 0.0, "building_cost": 1.0}],
               "agents": [0.0, 0.5, 10.0]}
        path = tmp_path / "unsorted.json"
        path.write_text(json.dumps(doc))
        start = tmp_path / "start.json"
        start.write_text("[1, 1, 1]")
        code, out, _ = run_cli(capsys, "dynamics", str(path),
                               "--start", f"file:{start}")
        assert code == 0
        outs = parse(out)["outputs"]
        assert outs["start"] == [1, 1, 1]
        assert [(s["agent"], s["from_facility"], s["to_facility"])
                for s in outs["steps"]] == [(0, 1, 2), (1, 1, 2)]
        replay = list(outs["start"])
        for step in outs["steps"]:
            assert replay[step["agent"]] == step["from_facility"]
            replay[step["agent"]] = step["to_facility"]
        assert replay == outs["final_assignment"] == [2, 2, 1]

    @pytest.mark.parametrize("entries", ["[1.7, 1]", "[true, 1]", '["1", 1]'])
    def test_start_file_rejects_non_integers(self, capsys, running_file,
                                             tmp_path, entries):
        start = tmp_path / "start.json"
        start.write_text(entries)
        code, _, err = run_cli(capsys, "dynamics", running_file,
                               "--start", f"file:{start}")
        assert code == 2
        assert "integers" in err

    def test_invalid_start_spec(self, capsys, running_file):
        code, _, _ = run_cli(capsys, "dynamics", running_file,
                             "--start", "everything-at-2")
        assert code == 2

    @pytest.mark.parametrize("spec", ["random:-3", "random:abc", "random:"])
    def test_random_start_seed_rule(self, capsys, running_file, spec):
        # The seed of random:SEED follows the --seed rule, and the message
        # names the start spec rather than numpy's or int()'s complaint.
        code, out, err = run_cli(capsys, "dynamics", running_file, "--start", spec)
        assert (code, out) == (2, "")
        assert err == (f"error: invalid start spec {spec!r}: "
                       f"SEED must be an integer >= 0\n")


class TestMech:
    def test_krank_inline_spec(self, capsys, running_file):
        code, out, _ = run_cli(capsys, "mech", running_file,
                               "--mech", '{"kind": "krank", "params": {"k": 1}}')
        assert code == 0
        assert parse(out)["outputs"]["assignment"] == [1, 1]

    def test_spec_file_with_audits(self, capsys, running_file, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"kind": "krank", "params": {"k": 2}}))
        code, out, _ = run_cli(capsys, "mech", running_file,
                               "--mech", str(spec_path),
                               "--audit", "sp,anon,unanimous")
        assert code == 0
        audits = parse(out)["outputs"]["audits"]
        assert audits["strategyproof"]["passed"] is True
        assert audits["anonymous"]["passed"] is True
        assert audits["unanimous"]["passed"] is True

    def test_unanimity_deviation_uses_file_numbering(self, capsys, tmp_path):
        # Facilities listed right-to-left. The spec's target names facilities
        # in location order, so target 1 is the facility at 0, which the file
        # numbers 2; profiles near 6 all favour the file's facility 1.
        doc = {"facilities": [{"location": 6.0, "building_cost": 2.0},
                              {"location": 0.0, "building_cost": 2.0}],
               "agents": [5.5, 6.5]}
        path = tmp_path / "right-to-left.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "mech", str(path), "--mech",
                               '{"kind": "type1", "params": {"target": 1}}',
                               "--audit", "unanimous")
        assert code == 0
        outputs = parse(out)["outputs"]
        assert outputs["assignment"] == [2, 2]
        examples = outputs["audits"]["unanimous"]["examples"]
        assert examples and all(e["deviation"] == "1" for e in examples)
        assert all(min(e["profile"]) > 3.0 for e in examples)

    def test_precondition_mismatch_exit_code(self, capsys, tmp_path):
        inst = fs.Instance(fs.Environment((0.0, 1.0), (4.0, 2.0)),
                           fs.Profile((0.0, 1.0)))  # M = 0 environment
        path = tmp_path / "m0.json"
        fs.save_instance(inst, path)
        code, _, err = run_cli(capsys, "mech", str(path),
                               "--mech", '{"kind": "type4", "params": {"boundary_choice": 1}}')
        assert code == 3
        assert "0 < M < delta" in err

    @pytest.mark.parametrize("params", [
        '{"k": true}', '{"k": 2.5}', '{"k": "2"}',
    ])
    def test_krank_k_must_be_an_integer(self, capsys, running_file, params):
        code, _, err = run_cli(capsys, "mech", running_file, "--mech",
                               f'{{"kind": "krank", "params": {params}}}')
        assert code == 2
        assert "k must be an integer" in err

    @pytest.mark.parametrize("kind, params, field", [
        ("type1", '{"target": true}', "target"),
        ("type1", '{"target": 1.0}', "target"),
        ("type4", '{"boundary_choice": true}', "boundary_choice"),
        ("type2", '{"diag_choice": true}', "diag_choice"),
        ("type2", '{"diag_choice": 2.0}', "diag_choice"),
    ])
    def test_spec_fields_reject_non_integers(self, capsys, running_file, kind,
                                             params, field):
        code, _, err = run_cli(capsys, "mech", running_file, "--mech",
                               f'{{"kind": "{kind}", "params": {params}}}')
        assert code == 2
        assert field in err

    def test_unknown_audit_token(self, capsys, running_file):
        code, _, _ = run_cli(capsys, "mech", running_file,
                             "--mech", '{"kind": "krank", "params": {"k": 1}}',
                             "--audit", "sp,frobnicate")
        assert code == 2

    # (environment, positions, spec) per spec kind: one draw serves sp, anon
    # and unanimous, so every audit order must report what each audit does
    # on its own.
    SHARED_DRAW_CASES = {
        "type1": (((0.0, 3.0), (2.0, 4.0)), (0.5, 2.0), {"kind": "type1",
                                                          "params": {"target": 2}}),
        "type2": (((0.0, 1.0), (4.0, 2.0)), (-0.5, 0.7),
                  {"kind": "type2", "params": {"diag_choice": "fac1"}}),
        "type3": (((0.0, 1.0), (2.0, 4.0)), (0.2, 1.5),
                  {"kind": "type3", "params": {"diag_choice": "fac2"}}),
        "type4": (((0.0, 3.0), (2.0, 4.0)), (0.5, 2.0),
                  {"kind": "type4", "params": {"boundary_choice": 1}}),
        "type5": (((0.0, 3.0), (2.0, 4.0)), (0.5, 2.0),
                  {"kind": "type5", "params": {"boundary_choice": 2}}),
        "krank-n3": (((0.0, 2.0, 5.0), (1.0, 3.0, 2.0)), (0.5, 2.5, 4.0),
                     {"kind": "krank", "params": {"k": 2}}),
        "krank-n5": (((0.0, 1.0, 4.0, 6.0), (2.0, 1.0, 3.0, 0.5)),
                     (0.5, 1.0, 3.5, 5.0, 6.5), {"kind": "krank", "params": {"k": 3}}),
    }

    @pytest.mark.parametrize("case", sorted(SHARED_DRAW_CASES))
    def test_every_audit_order_matches_the_audits_alone(self, capsys, tmp_path, case):
        (locs, costs), positions, doc = self.SHARED_DRAW_CASES[case]
        env = fs.Environment(locs, costs)
        path = tmp_path / "inst.json"
        fs.save_instance(fs.Instance(env, fs.Profile(positions)), path)
        spec, n, seed = fs.spec_from_dict(doc), len(positions), 7
        grid = fs.default_audit_grid(env)
        props = fs.audit_lemma_properties(spec, env, grid, n=n, seed=seed)
        alone = {
            "sp": ("strategyproof", cli._audit_summary(
                fs.audit_strategyproof(spec, env, grid, n=n, seed=seed))),
            "anon": ("anonymous", cli._audit_summary(
                fs.audit_anonymous(spec, env, grid, n=n, seed=seed))),
            "unanimous": ("unanimous", cli._audit_summary(
                fs.audit_unanimous(spec, env, grid, n=n, seed=seed))),
            "props": ("properties", {
                name: None if r is None else cli._audit_summary(r)
                for name, r in (("P1", props.p1), ("P2", props.p2), ("P3", props.p3),
                                ("P4", props.p4), ("P5", props.p5))}),
        }
        alone = json.loads(json.dumps(alone))
        for size in range(1, 5):
            for order in itertools.permutations(alone, size):
                code, out, _ = run_cli(capsys, "mech", str(path), "--mech", json.dumps(doc),
                                       "--audit", ",".join(order), "--seed", str(seed))
                assert code == 0
                audits = parse(out)["outputs"]["audits"]
                assert list(audits.items()) == [tuple(alone[t]) for t in order], order

    def test_audit_list_is_checked_before_any_audit_runs(self, capsys, running_file,
                                                         monkeypatch):
        ran = []
        for name in ("_audit_sp", "_audit_anon", "_audit_unanimous",
                     "audit_lemma_properties"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: ran.append(name))
        code, out, err = run_cli(capsys, "mech", running_file,
                                 "--mech", '{"kind": "krank", "params": {"k": 1}}',
                                 "--audit", "sp,props,bogus")
        assert code == 2 and out == "" and ran == []
        assert "unknown audit 'bogus'; expected sp, anon, unanimous, props" in err


class TestRatio:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--epsilon", "0.1", "0.5")
        assert code == 0
        rows = parse(out)["outputs"]["rows"]
        by_eps = {r["epsilon"]: r for r in rows}
        assert by_eps[0.1]["pooling_term"] == pytest.approx(50.0, rel=1e-9)
        assert by_eps[0.1]["matches"] is True
        assert by_eps[0.5]["pooling_term"] == pytest.approx(2.0, rel=1e-9)
        assert by_eps[0.5]["lower_bound"] == pytest.approx(2.2, rel=1e-9)
        assert by_eps[0.5]["matches"] is True

    def test_epsilon_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "ratio", "--epsilon", "1.5")
        assert code == 2
        assert "epsilon" in err

    @pytest.mark.parametrize("eps", ["1e-200", "1e-160"])
    def test_epsilon_whose_reference_overflows(self, capsys, eps):
        # 1/(2 eps^2) is not a finite float: eps^2 underflows to 0 at 1e-200,
        # and the reference overflows at 1e-160. Nothing is printed.
        code, out, err = run_cli(capsys, "ratio", "--epsilon", "0.5", eps)
        assert (code, out) == (2, "")
        assert err == (f"error: epsilon must be in (0, 1) with 1/(2 eps^2) a "
                       f"finite float, got {float(eps)}\n")

    def test_smallest_epsilon_matches(self, capsys):
        eps = 5.273843307431501e-155  # the next float down is rejected
        code, out, _ = run_cli(capsys, "ratio", "--epsilon", repr(eps))
        (row,) = parse(out)["outputs"]["rows"]
        assert code == 0 and row["matches"] is True
        assert row["reference"] == 1 / (2 * eps * eps) < float("inf")


def test_python_m_runs_the_cli(capsys):
    # `python -m facshare` from a checkout, with only the source tree on the path
    src = os.path.dirname(os.path.dirname(fs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = [sys.executable, "-m", "facshare"]
    helped = subprocess.run([*run, "--help"], env=env, capture_output=True, text=True)
    assert helped.returncode == 0 and "usage: facshare" in helped.stdout
    ratio = subprocess.run([*run, "ratio", "--epsilon", "0.5"], env=env,
                           capture_output=True, text=True)
    assert ratio.returncode == 0
    code, out, _ = run_cli(capsys, "ratio", "--epsilon", "0.5")
    assert code == 0
    by_module, in_process = parse(ratio.stdout), parse(out)
    del by_module["elapsed_ms"], in_process["elapsed_ms"]
    assert by_module == in_process


def test_bad_flags_exit_code(capsys):
    code, _, _ = run_cli(capsys, "solve")  # missing input
    assert code == 2


@pytest.mark.parametrize("args", [
    ("dynamics", "--start", "all-1", "--max-steps", "-1"),
    ("mech", "--mech", '{"kind": "krank", "params": {"k": 1}}',
     "--grid-extra", "-1"),
    ("dynamics", "--start", "all-1", "--max-steps", "-4"),
    ("mech", "--mech", '{"kind": "krank", "params": {"k": 1}}',
     "--grid-extra", "-5"),
    ("gen", "-n", "2", "-m", "2", "--seed", "-1"),
    ("dynamics", "--start", "all-1", "--seed", "-2"),
    ("dynamics", "--start", "all-1", "--order", "seeded-random", "--seed", "-2"),
    ("mech", "--mech", '{"kind": "krank", "params": {"k": 1}}',
     "--audit", "sp", "--seed", "-5"),
])
def test_count_flags_reject_out_of_range(capsys, running_file, args):
    inputs = () if args[0] == "gen" else (running_file,)
    code, _, err = run_cli(capsys, args[0], *inputs, *args[1:])
    assert code == 2
    assert "must be >=" in err


def test_readme_command_line_flags_exist():
    # Every --flag the README's "Command line" section names is an option of
    # some subcommand, so a removed option cannot linger in the docs.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", readme, re.S | re.M).group(1)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    known = {flag for sub in subparsers.choices.values()
             for flag in sub._option_string_actions}
    assert named and named <= known, named - known


def test_readme_command_line_runs(capsys, tmp_path, monkeypatch):
    # Every `facshare ...` line of the section's command block runs as written
    # and prints one JSON line; `gen ... -o inst.json` comes first.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", readme, re.S | re.M).group(1)
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands[0][:2] == ["facshare", "gen"] and "inst.json" in commands[0]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "facshare"
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)
        assert out.count("\n") == 1 and out.endswith("}\n"), argv
        parse(out)


class TestJsonLines:
    """Every command writes each result as one compact JSON line, to stdout
    or to ``-o``."""

    ARGV = {
        "solve-1": lambda paths: ("solve", paths[0]),
        "solve-3": lambda paths: ("solve", *paths),
        "dynamics": lambda paths: ("dynamics", paths[0], "--start", "random:3",
                                   "--order", "max-gain"),
        "mech": lambda paths: ("mech", paths[0], "--mech",
                               '{"kind": "krank", "params": {"k": 1}}',
                               "--audit", "sp,anon,unanimous,props"),
        "ratio": lambda paths: ("ratio", "--epsilon", "0.5", "0.2"),
    }

    @staticmethod
    def lines(text, results):
        assert text.endswith("\n") and text.count("\n") == results
        docs = [json.loads(line) for line in text.splitlines()]
        # compact: each line is exactly what json.dumps writes, no indent
        assert text == "".join(json.dumps(doc) + "\n" for doc in docs)
        return docs

    @pytest.mark.parametrize("command", list(ARGV))
    def test_stdout_and_out_file(self, capsys, tmp_path, command):
        paths = []
        for seed in (1, 2, 3):
            path = tmp_path / f"i{seed}.json"
            fs.save_instance(fs.generate_instance(5, 3, seed=seed), path)
            paths.append(str(path))
        argv = self.ARGV[command](paths)
        results = 3 if command == "solve-3" else 1
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        shown = self.lines(out, results)
        out_path = tmp_path / "out.jsonl"
        code, out, _ = run_cli(capsys, *argv, "-o", str(out_path))
        assert code == 0 and out == ""
        written = self.lines(out_path.read_text(encoding="utf-8"), results)
        for doc in shown + written:
            doc.pop("elapsed_ms")
        assert written == shown

    def test_gen(self, capsys, tmp_path):
        # gen's -o names the instance file; the result line stays on stdout
        flags = ("gen", "-n", "4", "-m", "2", "--seed", "9")
        code, out, _ = run_cli(capsys, *flags)
        assert code == 0
        [shown] = self.lines(out, 1)
        path = tmp_path / "inst.json"
        code, out, _ = run_cli(capsys, *flags, "-o", str(path))
        assert code == 0
        [written] = self.lines(out, 1)
        assert written["outputs"]["path"] == str(path)
        # the instance file is an input format and keeps its own layout
        text = path.read_text(encoding="utf-8")
        assert text == dumps_instance(fs.load_instance(path))
        assert json.loads(text) == shown["outputs"]["instance"]


class TestParserReuse:
    """``main`` builds the argparse tree once per process and reuses it."""

    @staticmethod
    def outputs(capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        doc = parse(out)
        doc.pop("elapsed_ms")
        return code, doc, err

    def test_outputs_match_fresh_parser(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        fs.save_instance(fs.generate_instance(9, 3, seed=8), path)
        path = str(path)
        runs = [
            ("solve", path, "--mode", "pne"),
            ("mech", path, "--mech", '{"kind": "krank", "params": {"k": 2}}',
             "--audit", "sp,props", "--grid-extra", "2", "--seed", "3"),
            ("dynamics", path, "--start", "random:5", "--order", "seeded-random",
             "--seed", "4", "--max-steps", "3"),
            ("solve", path, "--verify"),
            ("mech", path, "--mech", '{"kind": "krank", "params": {"k": 1}}'),
            ("dynamics", path, "--start", "all-1"),
        ]
        reused = [self.outputs(capsys, argv) for argv in runs]
        assert cli._parser() is cli._parser()
        fresh = []
        for argv in runs:
            cli._parser.cache_clear()
            fresh.append(self.outputs(capsys, argv))
        assert reused == fresh

    @pytest.mark.parametrize("command", [(), ("gen",), ("solve",), ("dynamics",),
                                         ("mech",), ("ratio",)])
    def test_help_matches_fresh_parser(self, capsys, command):
        run_cli(capsys, "solve", "--mode", "pne")  # a failed parse first
        code, reused, _ = run_cli(capsys, *command, "--help")
        assert code == 0
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([*command, "--help"])
        assert capsys.readouterr().out == reused
