import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facshare as fs
from facshare.model import dumps_instance, instance_from_dict, instance_to_dict
from oracles import agents_of, assignment_counts, used_facilities


def test_environment_sorted_by_location():
    env = fs.Environment((3.0, 0.0), (4.0, 2.0))
    assert env.locations == (0.0, 3.0)
    assert env.building_costs == (2.0, 4.0)
    assert env.input_order == (1, 0)
    assert env.to_input_facility(1) == 2
    assert env.to_input_facility(2) == 1


def test_environment_location_ties_sorted_by_cost_then_input():
    env = fs.Environment((1.0, 1.0, 1.0), (5.0, 2.0, 2.0))
    assert env.building_costs == (2.0, 2.0, 5.0)
    assert env.input_order == (1, 2, 0)


def test_environment_delta():
    env = fs.Environment((0.0, 3.0), (2.0, 4.0))
    assert env.delta == 3.0
    with pytest.raises(fs.ValidationError):
        _ = fs.Environment((0.0,), (1.0,)).delta


def test_nonpositive_building_cost_rejected():
    with pytest.raises(fs.ValidationError, match="building cost must be > 0"):
        fs.Environment((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(fs.ValidationError, match="building cost must be > 0"):
        fs.Environment((0.0,), (-2.0,))


def test_environment_shape_errors():
    with pytest.raises(fs.ValidationError):
        fs.Environment((0.0, 1.0), (1.0,))
    with pytest.raises(fs.ValidationError):
        fs.Environment((), ())
    with pytest.raises(fs.ValidationError):
        fs.Environment((float("nan"),), (1.0,))


def test_profile_validation():
    assert fs.Profile((1.5,)).n == 1
    with pytest.raises(fs.ValidationError):
        fs.Profile(())
    with pytest.raises(fs.ValidationError):
        fs.Profile((float("inf"),))


def test_assignment_accessors():
    a = fs.Assignment((2, 1, 2))
    assert a.n == 3
    assert assignment_counts(a, 3) == (1, 2, 0)
    assert used_facilities(a) == (1, 2)
    assert agents_of(a, 2) == (0, 2)


def test_assignment_validation():
    env = fs.Environment((0.0, 3.0), (2.0, 4.0))
    prof = fs.Profile((0.0, 3.0))
    with pytest.raises(fs.ValidationError):
        fs.Assignment((0, 1))
    with pytest.raises(fs.ValidationError):
        fs.Assignment((1.5, 1))
    # Entries must be int or numpy integers, never bool or integral floats,
    # the rule the CLI applies to --start files.
    with pytest.raises(fs.ValidationError, match="integers, got 1.0"):
        fs.Assignment((1.0, 1))
    with pytest.raises(fs.ValidationError, match="integers, got True"):
        fs.Assignment((True, 1))
    a = fs.Assignment((np.int64(1), 2))
    assert a.choices == (1, 2)
    assert all(type(c) is int for c in a.choices)
    with pytest.raises(fs.ValidationError, match="length"):
        fs.Assignment((1,)).validate_for(prof, env)
    with pytest.raises(fs.ValidationError, match="out of range"):
        fs.Assignment((1, 3)).validate_for(prof, env)


def test_load_running_instance(tmp_path):
    doc = {
        "name": "running",
        "facilities": [{"location": 0, "building_cost": 2},
                       {"location": 3, "building_cost": 4}],
        "agents": [0, 3],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst = fs.load_instance(path)
    assert inst.environment.delta == 3.0
    assert inst.profile.positions == (0.0, 3.0)
    assert inst.name == "running"


def test_load_normalizes_facility_order(tmp_path):
    doc = {"facilities": [{"location": 3, "building_cost": 4},
                          {"location": 0, "building_cost": 2}],
           "agents": [1]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst = fs.load_instance(path)
    assert inst.environment.locations == (0.0, 3.0)
    assert inst.environment.building_costs == (2.0, 4.0)
    assert inst.environment.input_order == (1, 0)


def test_load_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(fs.InstanceParseError):
        fs.load_instance(path)
    path.write_text(json.dumps({"facilities": "x", "agents": []}))
    with pytest.raises(fs.InstanceParseError):
        fs.load_instance(path)
    path.write_text('{"facilities": [{"location": NaN, "building_cost": 1}], "agents": [0]}')
    with pytest.raises(fs.InstanceParseError):
        fs.load_instance(path)


def test_load_rejects_nonpositive_cost(tmp_path):
    doc = {"facilities": [{"location": 0, "building_cost": 0},
                          {"location": 1, "building_cost": 1}],
           "agents": [0.5]}
    path = tmp_path / "zero_cost.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fs.ValidationError, match="building cost must be > 0"):
        fs.load_instance(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        fs.load_instance(tmp_path / "nope.json")


def test_save_load_roundtrip_file(tmp_path, running_instance):
    path = tmp_path / "x.json"
    fs.save_instance(running_instance, path)
    assert fs.load_instance(path) == running_instance


def test_roundtrip_1000_random_instances():
    for seed in range(1000):
        inst = fs.generate_instance((seed % 6) + 1, (seed % 4) + 1, seed=seed)
        again = instance_from_dict(json.loads(dumps_instance(inst)))
        assert again == inst


def test_normalization_idempotent_on_generated():
    for seed in range(50):
        env = fs.generate_instance(1, 5, seed=seed).environment
        again = fs.Environment(env.locations, env.building_costs)
        assert again.locations == env.locations
        assert again.building_costs == env.building_costs
        assert again.input_order == tuple(range(env.m))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(1e-6, 1e6, allow_nan=False)), min_size=1, max_size=8))
def test_normalization_idempotence_property(pairs):
    locs = tuple(p[0] for p in pairs)
    costs = tuple(p[1] for p in pairs)
    env = fs.Environment(locs, costs)
    again = fs.Environment(env.locations, env.building_costs)
    assert (again.locations, again.building_costs) == (env.locations, env.building_costs)
    assert list(env.locations) == sorted(env.locations)


def test_generate_deterministic():
    assert fs.generate_instance(3, 2, seed=7) == fs.generate_instance(3, 2, seed=7)
    assert fs.generate_instance(3, 2, seed=7) != fs.generate_instance(3, 2, seed=8)


def test_generate_minimal_and_suite_member():
    tiny = fs.generate_instance(1, 1, seed=0)
    assert tiny.n == 1 and tiny.m == 1
    inst = fs.generate_instance(6, 4, seed=1)
    assert inst.n == 6 and inst.m == 4
    assert all(c > 0 for c in inst.environment.building_costs)
    assert list(inst.environment.locations) == sorted(inst.environment.locations)


def test_generate_validation():
    with pytest.raises(fs.ValidationError, match="n must be"):
        fs.generate_instance(0, 2, seed=1)
    with pytest.raises(fs.ValidationError, match="m must be"):
        fs.generate_instance(2, 0, seed=1)
    with pytest.raises(fs.ValidationError, match="invalid bounds"):
        fs.generate_instance(2, 2, seed=1, cost_range=(0.0, 1.0))
    with pytest.raises(fs.ValidationError, match="invalid bounds"):
        fs.generate_instance(2, 2, seed=1, position_range=(5.0, 1.0))
    with pytest.raises(fs.ValidationError, match="invalid bounds"):
        fs.generate_instance(2, 2, seed=1, position_range=(0.0, float("inf")))


def test_generate_rejects_negative_seed():
    with pytest.raises(fs.ValidationError, match="seed must be ≥ 0, got -1"):
        fs.generate_instance(2, 2, seed=-1)


def test_instance_dict_omits_missing_name(running_instance):
    doc = instance_to_dict(fs.Instance(running_instance.environment,
                                       running_instance.profile))
    assert "name" not in doc
