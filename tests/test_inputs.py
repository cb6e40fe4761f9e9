"""One rule per kind of outside number, at every public entry point.

A real (a position, a location, a building cost, a bound) is a
``numbers.Real`` that is not a bool and whose float is finite. A count (a
seed, a size, a limit, an index) is a ``numbers.Integral`` that is not a bool
and at least its minimum. Anything else raises ``ValidationError``, and
exits with code 2 from the command line. An agent index out of range raises
``IndexError``, as for a sequence. The numbers an entry point prices must
keep its cost scale within a quarter of the largest float. Every outside
JSON document is read by one reader, whose errors name the document.

Each case below was accepted, coerced or raised some other exception before
the rule was shared; negative counts that were already rejected are tested
where they were.
"""

import ast
import inspect
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import facshare as fs
from facshare.cli import main
from facshare.mechanisms import MechanismSpec
from facshare.model import instance_from_dict, instance_to_dict

ENV = fs.Environment((0.0, 3.0), (2.0, 4.0))
SPEC = MechanismSpec("krank", k=1)
RUNNING = fs.Instance(ENV, fs.Profile((0.0, 3.0)), name="running")

# each value and the rule it breaks
NOT_REALS = {"1.5": "real numbers", True: "real numbers", Decimal("1.5"): "real numbers",
             None: "real numbers", 10 ** 400: "finite"}

REAL_ENTRY_POINTS = {
    "Profile": lambda v: fs.Profile((0.0, v)),
    "Environment-locations": lambda v: fs.Environment((0.0, v), (1.0, 1.0)),
    "Environment-costs": lambda v: fs.Environment((0.0, 1.0), (1.0, v)),
    "audit-grid": lambda v: fs.audit_strategyproof(SPEC, ENV, (0.0, v, 3.0), n=2),
    "props-grid": lambda v: fs.audit_lemma_properties(SPEC, ENV, (0.0, v, 3.0), n=2),
    "misreports": lambda v: fs.audit_strategyproof(SPEC, ENV, misreports=(0.0, v), n=2),
    "position_range": lambda v: fs.generate_instance(2, 2, 1, position_range=(0.0, v)),
    "cost_range": lambda v: fs.generate_instance(2, 2, 1, cost_range=(0.5, v)),
    "best_facility-x": lambda v: fs.best_facility(v, ENV, 2),
}


@pytest.mark.parametrize("value", NOT_REALS,
                         ids=["str", "bool", "Decimal", "None", "400-digit-int"])
@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_reals_rule(entry, value):
    with pytest.raises(fs.ValidationError, match=f"must be {NOT_REALS[value]}"):
        REAL_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("field", ["location", "building_cost", "agent"])
@pytest.mark.parametrize("token", ['"1.5"', "true", "1" + "0" * 400],
                         ids=["string", "true", "400-digit-int"])
def test_instance_file_reals_exit_2(capsys, tmp_path, field, token):
    values = {"location": "0", "building_cost": "1", "agent": "0", field: token}
    path = tmp_path / "inst.json"
    path.write_text('{"facilities": [{"location": %(location)s, "building_cost": '
                    '%(building_cost)s}], "agents": [%(agent)s]}' % values)
    with pytest.raises(fs.ValidationError, match="must be (real numbers|finite)"):
        fs.load_instance(path)
    code = main(["solve", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", [np.float32(1.5), np.float64(1.5), np.int64(1),
                                   Fraction(3, 2), 1, 1.5], ids=repr)
def test_every_real_type_is_taken_as_a_float(value):
    assert fs.Profile((value,)).positions == (float(value),)
    env = fs.Environment((value,), (value,))
    assert env.locations == env.building_costs == (float(value),)
    assert all(type(v) is float
               for v in (*env.locations, *env.building_costs,
                         *fs.Profile((value,)).positions))


COUNT_ENTRY_POINTS = {
    "generate_instance-n": (lambda v: fs.generate_instance(v, 2, 1), [True, 1.5]),
    "generate_instance-m": (lambda v: fs.generate_instance(2, v, 1), [True, 1.5]),
    "generate_instance-seed": (lambda v: fs.generate_instance(2, 2, v), [True, 1.5]),
    "run_dynamics-seed": (lambda v: fs.run_dynamics(RUNNING, fs.Assignment((1, 1)),
                                                    seed=v), [True, 1.5]),
    "run_dynamics-max_steps": (lambda v: fs.run_dynamics(
        RUNNING, fs.Assignment((1, 1)), max_steps=v), [True, 1.5]),
    "audit-seed": (lambda v: fs.audit_strategyproof(SPEC, ENV, n=3, seed=v), [True, 1.5]),
    "audit-max_profiles": (lambda v: fs.audit_unanimous(SPEC, ENV, n=3, max_profiles=v),
                           [True, 1.5]),
    "audit-n": (lambda v: fs.audit_anonymous(SPEC, ENV, n=v), [True, 1.5, -1]),
    "empirical_ratio-n": (lambda v: fs.empirical_ratio(SPEC, ENV, n=v), [True, 1.5, -1]),
    "audit_anonymous-max_permutations": (lambda v: fs.audit_anonymous(
        MechanismSpec("krank", k=2), ENV, n=6, max_permutations=v), [True, 1.5]),
    "default_audit_grid-extra": (lambda v: fs.default_audit_grid(ENV, extra=v),
                                 [True, 1.5, -1]),
    "best_facility-n": (lambda v: fs.best_facility(1.0, ENV, v), [True, 1.5]),
    "k_rank-k": (lambda v: fs.k_rank(fs.Profile((0.0, 1.0)), ENV, v), [True, 1.5]),
    "MechanismSpec-target": (lambda v: MechanismSpec("krank", k=1, target=v), [-1]),
    "harmonic_numbers-n": (fs.harmonic_numbers, [True, 1.5, -1]),
    "brute_force_min_potential-limit": (lambda v: fs.brute_force_min_potential(
        RUNNING, limit=v), [True, 1.5, -1]),
    "optimal_brute_force-limit": (lambda v: fs.optimal_brute_force(RUNNING, limit=v),
                                  [True, 1.5, -1]),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, values) in COUNT_ENTRY_POINTS.items() for value in values])
def test_counts_rule(entry, value):
    call = COUNT_ENTRY_POINTS[entry][0]
    match = "must be ≥" if value == -1 else "must be an integer"
    with pytest.raises(fs.ValidationError, match=match):
        call(value)


def test_counts_take_numpy_integers():
    assert fs.generate_instance(np.int64(2), np.int32(2), np.uint8(1)) == \
        fs.generate_instance(2, 2, 1)
    assert fs.harmonic_numbers(np.int64(2)).tolist() == [0.0, 1.0, 1.5]
    profile = fs.Profile((0.0, 1.0))
    assert fs.k_rank(profile, ENV, np.int64(2)) == fs.k_rank(profile, ENV, 2)
    split = fs.Assignment((1, 2))
    assert fs.agent_cost(np.int64(1), profile, split, ENV) == \
        fs.agent_cost(1, profile, split, ENV)
    assert fs.best_response(np.int64(1), profile, split, ENV) == \
        fs.best_response(1, profile, split, ENV)


class TestCostScale:
    """``Instance`` rejects an instance whose cost scale ``n * (2X + B)``
    exceeds a quarter of the largest float (see ``Instance``)."""

    @staticmethod
    def edge(tmp_path, factor):
        """Agents at -X, X, 0 and facilities at +-X with b = X: scale 9X."""
        x = sys.float_info.max / 36 * factor
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({
            "name": "edge", "agents": [-x, x, 0.0],
            "facilities": [{"location": -x, "building_cost": x},
                           {"location": x, "building_cost": x}]}))
        return str(path)

    def test_just_inside_solves(self, capsys, tmp_path):
        code = main(["solve", self.edge(tmp_path, 1 - 1e-12), "--verify"])
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert code == 0
        assert outputs["pne"]["assignment"] == outputs["opt"]["assignment"] == [1, 2, 2]
        assert all(v is True for v in outputs["verified"].values())

    def test_just_outside_exits_2(self, capsys, tmp_path):
        path = self.edge(tmp_path, 1 + 1e-12)
        with pytest.raises(fs.ValidationError, match="instance 'edge': cost scale"):
            fs.load_instance(path)
        code = main(["solve", path])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: instance 'edge': cost scale")

    def test_overflowing_instance_exits_2(self, capsys, tmp_path):
        # every value finite, but the distances between them overflow
        doc = {"facilities": [{"location": -1e308, "building_cost": 1e308},
                              {"location": 1e308, "building_cost": 1e308}],
               "agents": [-1e308, 1e308, 0.0]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "cost scale" in err

    def test_just_inside_audits(self, capsys, tmp_path):
        code = main(["mech", self.edge(tmp_path, 1 - 1e-12), "--mech",
                     '{"kind": "krank", "params": {"k": 1}}',
                     "--audit", "sp,anon,unanimous,props"])
        audits = json.loads(capsys.readouterr().out)["outputs"]["audits"]
        assert code == 0
        assert set(audits) == {"strategyproof", "anonymous", "unanimous", "properties"}


# A valid environment with a profile, a grid and a position x whose costs
# overflow in it, and environments no instance could use. Each case below
# overflowed, warned or answered wrongly before the cost-scale rule was shared.
WIDE = fs.Environment((-1e307, 1e307), (1.0, 1.0))
FAR = (-1.79e308, 0.0, 1.79e308)
FAR_PROFILE = fs.Profile(FAR)
FAR_CHOICES = fs.Assignment((1, 1, 2))

SCALE_ENTRY_POINTS = {
    # a profile and an environment that could not form an Instance
    "agent_cost": lambda: fs.agent_cost(0, FAR_PROFILE, FAR_CHOICES, WIDE),
    "social_cost": lambda: fs.social_cost(FAR_PROFILE, FAR_CHOICES, WIDE),
    "potential": lambda: fs.potential(FAR_PROFILE, FAR_CHOICES, WIDE),
    "is_pne": lambda: fs.is_pne(FAR_PROFILE, FAR_CHOICES, WIDE),
    "best_response": lambda: fs.best_response(0, FAR_PROFILE, FAR_CHOICES, WIDE),
    "check_no_cross": lambda: fs.check_no_cross(FAR_PROFILE, FAR_CHOICES, WIDE),
    "apply_mechanism": lambda: fs.apply_mechanism(SPEC, FAR_PROFILE, WIDE),
    "k_rank": lambda: fs.k_rank(FAR_PROFILE, WIDE, 1),
    # audit positions, priced one agent at a time
    "audit_strategyproof": lambda: fs.audit_strategyproof(SPEC, WIDE, FAR, n=2),
    "audit_strategyproof-misreports": lambda: fs.audit_strategyproof(
        SPEC, WIDE, misreports=FAR, n=2),
    "audit_anonymous": lambda: fs.audit_anonymous(SPEC, WIDE, FAR, n=2),
    "audit_unanimous": lambda: fs.audit_unanimous(SPEC, WIDE, FAR, n=2),
    "audit_lemma_properties": lambda: fs.audit_lemma_properties(SPEC, WIDE, FAR, n=2),
    "best_facility": lambda: fs.best_facility(FAR[-1], WIDE, 1),
    # audit positions whose n costs are summed
    "empirical_ratio": lambda: fs.empirical_ratio(SPEC, ENV, (-1e308, 0.0, 1e308), n=2),
    # an environment alone
    "env_params": lambda: fs.env_params(fs.Environment((-1e308, 1e308), (1.0, 1.0))),
    "classify_environment": lambda: fs.classify_environment(
        fs.Environment((-1e308, 1e308), (1.0, 1.0))),
    "validate_spec": lambda: fs.validate_spec(
        SPEC, fs.Environment((-1e308, 1e308), (1e308, 1e308))),
    "resolve_x_star": lambda: fs.resolve_x_star(
        SPEC, fs.Environment((-1e308, 1e308), (1e308, 1e308))),
    "default_audit_grid": lambda: fs.default_audit_grid(
        fs.Environment((-1e308, 1e308), (1.0, 1.0))),
    "ratio_lower_bound_terms": lambda: fs.ratio_lower_bound_terms(
        fs.Environment((0.0, 1e308), (1e308, 1e308))),
    "ratio_lower_bound": lambda: fs.ratio_lower_bound(
        fs.Environment((0.0, 1e308), (1e308, 1e308))),
}


@pytest.mark.parametrize("entry", SCALE_ENTRY_POINTS)
def test_cost_scale_rule(entry):
    with pytest.raises(fs.ValidationError, match="cost scale"):
        SCALE_ENTRY_POINTS[entry]()


@pytest.mark.parametrize("env, kwargs, error", [
    (ENV, {"grid": (0.0, "x")}, "audit grid positions must be real numbers"),
    (WIDE, {"grid": FAR}, "cost scale"),
    (ENV, {"max_profiles": 0}, "max_profiles must be ≥ 1"),
    (ENV, {"seed": -1}, "seed must be ≥ 0"),
], ids=["grid", "grid-scale", "max_profiles", "seed"])
def test_misreports_are_checked_after_the_draw(env, kwargs, error):
    # A bad misreport passed with a bad grid, cap or seed raises the other's
    # error: the draw checks its misreports last.
    with pytest.raises(fs.ValidationError, match=error):
        fs.audit_strategyproof(SPEC, env, misreports=(0.0, "x"), n=2, **kwargs)


# -1 and n raised this IndexError before the rule too; the other values did not.
AGENT_ENTRY_POINTS = {
    "agent_cost": lambda a: fs.agent_cost(a, RUNNING.profile, fs.Assignment((1, 2)), ENV),
    "best_response": lambda a: fs.best_response(a, RUNNING.profile,
                                                fs.Assignment((1, 2)), ENV),
}


@pytest.mark.parametrize("value, error", [
    (True, fs.ValidationError), (1.5, fs.ValidationError), ("0", fs.ValidationError),
    (-1, IndexError), (2, IndexError)], ids=["True", "1.5", "str", "-1", "n"])
@pytest.mark.parametrize("entry", AGENT_ENTRY_POINTS)
def test_agent_index_rule(entry, value, error):
    with pytest.raises(error, match="agent index"):
        AGENT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("choices", [(1, 2, 1, 1, 1), (1, 2)], ids=["longer", "shorter"])
def test_consecutive_blocks_ok_checks_length(choices):
    with pytest.raises(fs.ValidationError, match="assignment length"):
        fs.consecutive_blocks_ok(fs.Profile((0.0, 1.0, 2.0)), fs.Assignment(choices))


# Public functions that take such a parameter without pricing it themselves.
UNPRICED = {
    "nearest_facility_mechanism": "returns a batch callable; the audit draw checks "
                                  "the positions it is given",
}


def test_every_entry_point_is_in_a_rule_table():
    """A public function taking an env, profile, agent, grid or x is tested
    above, or listed in UNPRICED with a reason."""
    guarded = {name for name, obj in vars(fs).items()
               if not name.startswith("_") and inspect.isfunction(obj)
               and {"env", "profile", "agent", "grid", "x"}
               & set(inspect.signature(obj).parameters)}
    tested = {entry.split("-")[0] for entry in SCALE_ENTRY_POINTS}
    tested |= set(AGENT_ENTRY_POINTS) | {"consecutive_blocks_ok"}
    assert guarded - set(UNPRICED) == tested
    assert set(UNPRICED) <= guarded


@pytest.mark.parametrize("flag, what", [("--pos-range", "position_range"),
                                        ("--cost-range", "cost_range")])
def test_range_width_must_be_a_finite_float(capsys, flag, what):
    # numpy raised OverflowError for a range whose width overflows
    with pytest.raises(fs.ValidationError, match=f"{what} width"):
        fs.generate_instance(3, 2, 1, **{what: (-1e308, 1e308)})
    code = main(["gen", "-n", "3", "-m", "2", "--seed", "1", flag, " -1e308", "1e308"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid bounds: {what} width")


ENV_M0 = fs.Environment((0.0, 1.0), (4.0, 2.0))  # M = 0
ENV_MD = fs.Environment((0.0, 1.0), (2.0, 4.0))  # M = delta
FACILITY = {"facilities": [{"location": 0.0, "building_cost": 1.0}]}

# Error paths and constant diagonal callables, each as documented; each
# entry is (call, outcome), where an outcome (error, match) means it raises.
DOCUMENTED_PATHS = {
    "instance-not-object": (lambda: instance_from_dict([]),
                            (fs.InstanceParseError, "document must be an object")),
    "instance-name": (lambda: instance_from_dict({**FACILITY, "name": 1, "agents": [0.0]}),
                      (fs.InstanceParseError, "'name' must be a string")),
    "instance-facility": (lambda: instance_from_dict({"facilities": [1], "agents": [0.0]}),
                          (fs.InstanceParseError, "each facility must be an object")),
    "instance-agents": (lambda: instance_from_dict({**FACILITY, "agents": 0.0}),
                        (fs.InstanceParseError, "'agents' must be an array")),
    "spec-diag_choice": (lambda: MechanismSpec("type2", diag_choice=3),
                         (fs.ValidationError, "diag_choice in")),
    "spec_from_dict-params": (lambda: fs.spec_from_dict({"kind": "type1", "params": [1]}),
                              (fs.ValidationError, "'params' must be an object")),
    "audit-empty-grid": (lambda: fs.audit_strategyproof(SPEC, ENV, ()),
                         (fs.ValidationError, "audit grid must be nonempty")),
    "audit-mechanism": (lambda: fs.audit_strategyproof(3, ENV),
                        (fs.ValidationError, "MechanismSpec or a batch callable")),
    "validate_spec-target": (lambda: fs.validate_spec(
        MechanismSpec("type1", target=2), fs.Environment((0.0,), (1.0,))),
        (fs.MechanismPreconditionError, "type1 target 2 exceeds m=1")),
    "validate_spec-type1-n": (lambda: fs.validate_spec(
        MechanismSpec("type1", target=1), ENV, n=3),
        (fs.MechanismPreconditionError, "type1 is defined for n = 2")),
    "validate_spec-type4-m": (lambda: fs.validate_spec(
        MechanismSpec("type4", boundary_choice=1), fs.Environment((0.0, 1.0, 2.0), (1.0,) * 3)),
        (fs.MechanismPreconditionError, "type4 requires m = 2")),
    # a constant callable is bracketed: type2's region ends at or left of l1,
    # type3's at or right of l2
    "x_star-type2-always-1": (lambda: fs.resolve_x_star(
        MechanismSpec("type2", diag_choice=lambda x: 1), ENV_M0), 0.0),
    "x_star-type2-always-2": (lambda: fs.resolve_x_star(
        MechanismSpec("type2", diag_choice=lambda x: 2), ENV_M0), -math.inf),
    "x_star-type3-always-1": (lambda: fs.resolve_x_star(
        MechanismSpec("type3", diag_choice=lambda x: 1), ENV_MD), math.inf),
    "x_star-type3-always-2": (lambda: fs.resolve_x_star(
        MechanismSpec("type3", diag_choice=lambda x: 2), ENV_MD), 1.0),
}


@pytest.mark.parametrize("entry", DOCUMENTED_PATHS)
def test_documented_paths(entry):
    call, outcome = DOCUMENTED_PATHS[entry]
    if isinstance(outcome, tuple):
        with pytest.raises(outcome[0], match=outcome[1]):
            call()
    else:
        assert call() == outcome


def test_dynamics_start_file_object_exits_2(capsys, tmp_path):
    instance, start = tmp_path / "running.json", tmp_path / "start.json"
    fs.save_instance(RUNNING, instance)
    start.write_text('{"choices": [1, 2]}')
    code = main(["dynamics", str(instance), "--start", f"file:{start}"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: assignment file must be a JSON array\n"


# One reader for every outside JSON document. Each malformed kind, as text;
# a file holds its UTF-8 bytes, where a lone surrogate stands for a byte
# that is not UTF-8, as Python decodes such a byte in a command argument.
DEPTH = 100_000
MALFORMED = {
    "truncated": "[1, ",
    "NaN": "[NaN]",
    "deep": "[" * DEPTH + "]" * DEPTH,
    "non-UTF-8": '["\udcff"]',
}
INLINE_SPEC = '{"kind": "krank", "params": {"k": 1}}'

# Each document input: (argv, source), given a good instance file and the
# malformed document as a file and as inline text.
DOCUMENT_INPUTS = {
    "solve-INSTANCE": lambda good, bad, text: (["solve", good, bad], bad),
    "dynamics-INSTANCE": lambda good, bad, text: (
        ["dynamics", bad, "--start", "all-1"], bad),
    "mech-INSTANCE": lambda good, bad, text: (["mech", bad, "--mech", INLINE_SPEC], bad),
    "mech---mech-inline": lambda good, bad, text: (
        ["mech", good, "--mech", '{"x": %s}' % text], "--mech"),
    "mech---mech-PATH": lambda good, bad, text: (["mech", good, "--mech", bad], bad),
    "dynamics---start-file": lambda good, bad, text: (
        ["dynamics", good, "--start", f"file:{bad}"], bad),
}


def write_malformed(tmp_path, kind):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED[kind].encode("utf-8", "surrogateescape"))
    return str(path)


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("entry", DOCUMENT_INPUTS)
def test_malformed_document_exits_2_naming_its_source(capsys, tmp_path, entry, kind):
    good = tmp_path / "good.json"
    fs.save_instance(RUNNING, good)
    argv, source = DOCUMENT_INPUTS[entry](str(good), write_malformed(tmp_path, kind),
                                          MALFORMED[kind])
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {source}: invalid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", MALFORMED)
def test_load_instance_names_a_malformed_file(tmp_path, kind):
    path = write_malformed(tmp_path, kind)
    with pytest.raises(fs.InstanceParseError, match=f"^{re.escape(path)}: invalid JSON: "):
        fs.load_instance(path)


def test_solve_names_the_invalid_file_among_several(capsys, tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    fs.save_instance(RUNNING, good)
    doc = instance_to_dict(RUNNING)
    doc["facilities"][1]["building_cost"] = -1.0
    bad.write_text(json.dumps(doc))
    with pytest.raises(fs.ValidationError, match=f"^{re.escape(str(bad))}: building cost"):
        fs.load_instance(bad)
    code = main(["solve", str(good), str(bad)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: building cost must be > 0\n"


def reader_calls(node, where=None):
    """``(function, method)`` for each call of a method that reads or
    parses text, under ``node``; ``function`` is the innermost enclosing
    function's name, or None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from reader_calls(child, child.name)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in {"load", "loads", "read_text", "read_bytes"}):
            yield where, child.func.attr
        yield from reader_calls(child, where)


def test_one_reader_parses_every_document():
    """Only ``model._read_json`` reads a document file or parses JSON
    text, so no input can bypass its rules."""
    found = []
    for path in sorted(Path(fs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "json"
                       for node in ast.walk(tree))
        found += [(path.name, *call) for call in reader_calls(tree)]
    assert sorted(found) == [("model.py", "_read_json", "loads"),
                             ("model.py", "_read_json", "read_text")]
