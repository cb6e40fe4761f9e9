"""One rule per kind of outside number, at every public entry point.

A real (a position, a location, a building cost, a bound) is a
``numbers.Real`` that is not a bool and whose float is finite. A count (a
seed, a size, a limit, an index) is a ``numbers.Integral`` that is not a bool
and at least its minimum. Anything else raises ``ValidationError``, and
exits with code 2 from the command line.

Each case below was accepted, coerced or raised some other exception before
the rule was shared; negative counts that were already rejected are tested
where they were.
"""

import json
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import facshare as fs
from facshare.cli import main
from facshare.mechanisms import MechanismSpec

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
        assert err.startswith("error: instance 'edge': cost scale")

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
