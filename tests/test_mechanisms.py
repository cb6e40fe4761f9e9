import hashlib
import inspect
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facshare as fs
import facshare.mechanisms as mechanisms
from facshare.mechanisms import Counterexample, MechanismSpec
from oracles import (oracle_form_changes, oracle_p1_breaks, oracle_spec_form, oracle_unanimous,
                     random_environment)

ENV = fs.Environment((0.0, 3.0), (2.0, 4.0))          # 0 < M < delta
ENV_M0 = fs.Environment((0.0, 1.0), (4.0, 2.0))       # M = 0
ENV_MD = fs.Environment((0.0, 1.0), (2.0, 4.0))       # M = delta
ENV_EPS = fs.Environment((0.0, 9.9), (0.1, 0.1))      # the unbounded-ratio family, eps=0.1


def draw_profiles(grid, n, max_profiles, seed):
    """The ``(P, n)`` profiles an audit draws on ``grid``."""
    return np.asarray(grid, dtype=float)[
        mechanisms._grid_indices(len(grid), n, max_profiles, seed)]


def profile_form(spec, env, profiles, reports):
    """A spec's form on ``profiles`` themselves: each entry is its own point,
    so the value space is the distinct profile and report values."""
    return mechanisms._SpecForm(spec, env, profiles.ravel(),
                                np.arange(profiles.size).reshape(profiles.shape),
                                np.asarray(reports))


class TestEnvParams:
    def test_running_environment(self):
        p = fs.env_params(ENV)
        assert (p.L, p.M, p.R) == (1.5, 2.0, 3.0)
        assert p.delta == 3.0

    def test_eps_environment(self):
        p = fs.env_params(ENV_EPS)
        assert p.L == pytest.approx(4.925)
        assert p.M == pytest.approx(4.95)
        assert p.R == pytest.approx(4.975)

    def test_colocated_symmetric(self):
        env = fs.Environment((2.0, 2.0), (1.0, 1.0))
        p = fs.env_params(env)
        assert p.L == -0.25 and p.M == 0.0 and p.R == 0.25
        assert p.L < p.M < p.R

    def test_requires_two_facilities(self):
        with pytest.raises(fs.MechanismPreconditionError):
            fs.env_params(fs.Environment((0.0,), (1.0,)))

    @settings(max_examples=150, deadline=None)
    @given(
        l1=st.floats(-1e3, 1e3, allow_nan=False),
        gap=st.floats(0, 1e3, allow_nan=False),
        b1=st.floats(1e-3, 1e3, allow_nan=False),
        b2=st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_ordering_property(self, l1, gap, b1, b2):
        p = fs.env_params(fs.Environment((l1, l1 + gap), (b1, b2)))
        assert p.L < p.M < p.R


# The case split's rows and the families each admits besides type1.
FAMILIES = {"M < 0": (), "M = 0": ("type2",), "0 < M < delta": ("type4", "type5"),
            "M = delta": ("type3",), "M > delta": ()}
TOL = 1e-9


def head_admitted(m, delta, tol=TOL):
    """The admitted families from the three tests on M, written out apart
    from the case-split table."""
    return (("type1",) + ("type2",) * (abs(m) <= tol) + ("type3",) * (abs(m - delta) <= tol)
            + ("type4", "type5") * (tol < m < delta - tol))


def partition_breaks(cls):
    """What ``cls`` gets wrong about the partition: a row count other than
    one (or both equality rows when delta <= 2*tol), or ``admitted_types``
    other than type1 plus the families of its rows."""
    rows = cls.conditions
    one_row = len(rows) == 1 and rows[0] in FAMILIES
    both = rows == ("M = 0", "M = delta") and cls.params.delta <= 2.0 * TOL
    breaks = [] if one_row or both else [("rows", rows)]
    families = tuple(kind for row in rows for kind in FAMILIES.get(row, ()))
    if cls.admitted_types != ("type1",) + families:
        breaks.append(("admitted", cls.admitted_types))
    return breaks


class TestClassify:
    def test_interior_environment_row(self):
        cls = fs.classify_environment(ENV)
        assert cls.conditions == ("0 < M < delta",)
        assert cls.admitted_types == ("type1", "type4", "type5")

    def test_equality_row_low(self):
        cls = fs.classify_environment(ENV_M0)
        assert cls.conditions == ("M = 0",)
        assert cls.admitted_types == ("type1", "type2")
        assert cls.boundary_gaps["M=0"] <= 1e-9

    def test_equality_row_high(self):
        cls = fs.classify_environment(ENV_MD)
        assert cls.conditions == ("M = delta",)
        assert cls.admitted_types == ("type1", "type3")

    def test_trivial_only_row(self):
        env = fs.Environment((0.0, 1.0), (10.0, 2.0))  # 2*delta < b1 - b2
        cls = fs.classify_environment(env)
        assert cls.conditions == ("M < 0",)
        assert cls.admitted_types == ("type1",)

    def test_costly_left_facility_row(self):
        env = fs.Environment((0.0, 1.0), (1.0, 10.0))  # M = 2.75 > delta = 1
        cls = fs.classify_environment(env)
        assert cls.conditions == ("M > delta",)
        assert cls.admitted_types == ("type1",)

    def test_colocated_facilities_take_both_equality_rows(self):
        cls = fs.classify_environment(fs.Environment((2.0, 2.0), (1.0, 1.0)))
        assert cls.conditions == ("M = 0", "M = delta")
        assert cls.admitted_types == ("type1", "type2", "type3")

    def test_every_environment_satisfies_some_row(self):
        # M drawn from well below 0 to well above delta, plus the two bands.
        rng = np.random.default_rng(3)
        left, delta = rng.uniform(-10.0, 10.0, 4000), rng.uniform(0.0, 5.0, 4000)
        b2 = rng.uniform(0.1, 20.0, 4000)
        b1 = b2 + rng.uniform(-4.0, 4.0, 4000) * delta
        b1[:400] = b2[:400] + 2.0 * delta[:400]
        b1[400:800] = b2[400:800] - 2.0 * delta[400:800]
        seen = set()
        for l, d, c1, c2 in zip(left, delta, b1, b2):
            if c1 <= 0.0:
                continue
            cls = fs.classify_environment(fs.Environment((l, l + d), (c1, c2)))
            assert partition_breaks(cls) == [], cls
            seen.update(cls.conditions)
        assert seen == set(FAMILIES)

    # Each sat within rounding of the tolerance band, where the scaled row
    # tests once disagreed with the tests on M; the ids name the row those
    # scaled tests gave, the third entry the row the tests on M give.
    EDGE = [((7.894317243923471, 12.12725914430839), (14.365009404989477, 5.89912560021964),
             "M = 0"),
            ((9.922823802372559, 12.362546290792768), (7.455550970439174, 2.576105997598756),
             "M = 0"),
            ((-2.804261470147795, 3.6144592890131824), (16.6534470918599, 3.8160055775379442),
             "0 < M < delta")]

    @pytest.mark.parametrize("locations, costs, row", EDGE, ids=["M<0", "interior", "M=0"])
    def test_rows_agree_with_admitted_types_at_the_band_edge(self, locations, costs, row):
        cls = fs.classify_environment(fs.Environment(locations, costs))
        assert cls.conditions == (row,) and partition_breaks(cls) == []

    def test_rows_agree_with_admitted_types_on_an_edge_sample(self):
        # b1 = b2 +- 2 delta +- 4e-9 (1 +- 1e-6): M within rounding of +-tol
        # from 0 or delta
        rng = np.random.default_rng(1)
        size = 5000
        delta, b2 = rng.uniform(0.0, 10.0, size), rng.uniform(0.1, 10.0, size)
        sign, side, nudge = rng.choice([-1.0, 1.0], (3, size))
        b1 = b2 + sign * 2.0 * delta + side * 4e-9 * (1.0 + nudge * 1e-6)
        left = rng.uniform(-10.0, 10.0, size)
        envs = [fs.Environment((l, l + d), (c1, c2))
                for l, d, c1, c2 in zip(left, delta, b1, b2) if c1 > 0]
        bad = [(env, breaks) for env in envs
               if (breaks := partition_breaks(fs.classify_environment(env)))]
        assert len(envs) > 2500 and bad == []

    def test_case_split_partitions_a_guard_sweep(self):
        rng = np.random.default_rng(23)
        size = 14000
        left, b2 = rng.uniform(-10.0, 10.0, size), rng.uniform(0.1, 20.0, size)
        delta = rng.uniform(0.0, 5.0, size)
        m = rng.uniform(-1.0, 2.0, size) * delta  # M uniform over [-delta, 2 delta]
        b1 = b2 + 2.0 * delta - 4.0 * m
        # On the lines M = 0 and M = delta, nudged to within rounding of the
        # tolerance band's edges, as in the edge sample.
        sign, side, nudge = rng.choice([-1.0, 1.0], (3, 5000))
        b1[:5000] = (b2[:5000] + sign * 2.0 * delta[:5000]
                     + side * 4e-9 * (1.0 + nudge * 1e-6))
        # delta <= 2*tol and a little above, with M around 0 and delta.
        delta[5000:5600] = rng.uniform(0.0, 3e-9, 600)
        b1[5000:5600] = b2[5000:5600] + 2.0 * delta[5000:5600] - rng.uniform(-8e-9, 1.6e-8, 600)
        specs = {"type2": MechanismSpec("type2", diag_choice=1),
                 "type3": MechanismSpec("type3", diag_choice=1),
                 "type4": MechanismSpec("type4", boundary_choice=1),
                 "type5": MechanismSpec("type5", boundary_choice=1)}
        checked, between, seen = 0, 0, set()
        for l, d, c1, c2 in zip(left, delta, b1, b2):
            if c1 <= 0.0:
                continue
            env = fs.Environment((l, l + d), (c1, c2))
            cls = fs.classify_environment(env)
            assert partition_breaks(cls) == [], cls
            m, d = cls.params.M, cls.params.delta
            assert cls.admitted_types == head_admitted(m, d), cls
            # M equal to the rounded delta - tol or delta + tol, which no test
            # on M but the fallback "M > delta" takes
            between += (head_admitted(m, d) == ("type1",)
                        and not (m < -TOL or m > d + TOL))
            for kind, spec in specs.items():
                try:
                    fs.validate_spec(spec, env)
                    accepted = True
                except fs.MechanismPreconditionError:
                    accepted = False
                assert accepted == any(kind in FAMILIES[row] for row in cls.conditions)
            checked += 1
            seen.add(cls.conditions)
        assert checked >= 10_000 and between > 0
        assert seen == {(row,) for row in FAMILIES} | {("M = 0", "M = delta")}


class TestSpecValidation:
    def test_spec_shape_errors(self):
        with pytest.raises(fs.ValidationError):
            MechanismSpec("type1")
        with pytest.raises(fs.ValidationError):
            MechanismSpec("type4", boundary_choice=3)
        with pytest.raises(fs.ValidationError):
            MechanismSpec("krank")
        with pytest.raises(fs.ValidationError):
            MechanismSpec("nope", target=1)

    def test_environment_preconditions(self):
        fs.validate_spec(MechanismSpec("type2", diag_choice=1), ENV_M0)
        with pytest.raises(fs.MechanismPreconditionError, match="M = 0"):
            fs.validate_spec(MechanismSpec("type2", diag_choice=1), ENV)
        with pytest.raises(fs.MechanismPreconditionError, match="M = delta"):
            fs.validate_spec(MechanismSpec("type3", diag_choice=1), ENV)
        with pytest.raises(fs.MechanismPreconditionError, match="0 < M < delta"):
            fs.validate_spec(MechanismSpec("type4", boundary_choice=1), ENV_M0)
        fs.validate_spec(MechanismSpec("type4", boundary_choice=1), ENV)

    def test_profile_size_preconditions(self):
        with pytest.raises(fs.MechanismPreconditionError, match="n = 2"):
            fs.apply_mechanism(MechanismSpec("type4", boundary_choice=1),
                               fs.Profile((0.0, 1.0, 2.0)), ENV)
        with pytest.raises(fs.MechanismPreconditionError, match="k"):
            fs.apply_mechanism(MechanismSpec("krank", k=4),
                               fs.Profile((0.0, 1.0)), ENV)

    def test_constructibility_matches_classifier(self):
        rng = np.random.default_rng(0)
        for idx in range(200):
            force = (None, "M0", "Mdelta")[idx % 3]
            env = random_environment(rng, force=force)
            admitted = set(fs.classify_environment(env).admitted_types)
            for kind, spec in [
                ("type2", MechanismSpec("type2", diag_choice=1)),
                ("type3", MechanismSpec("type3", diag_choice=1)),
                ("type4", MechanismSpec("type4", boundary_choice=1)),
                ("type5", MechanismSpec("type5", boundary_choice=1)),
            ]:
                try:
                    fs.validate_spec(spec, env)
                    constructible = True
                except fs.MechanismPreconditionError:
                    constructible = False
                assert constructible == (kind in admitted)


class TestApply:
    def test_type4_examples(self):
        env = fs.Environment((0.0, 2.0), (1.0, 1.0))  # M = 1
        spec = MechanismSpec("type4", boundary_choice=1)
        assert fs.apply_mechanism(spec, fs.Profile((0.5, 1.7)), env).choices == (1, 1)
        assert fs.apply_mechanism(spec, fs.Profile((1.4, 1.8)), env).choices == (2, 2)

    def test_type4_boundary_choice(self):
        env = fs.Environment((0.0, 2.0), (1.0, 1.0))
        for choice in (1, 2):
            spec = MechanismSpec("type4", boundary_choice=choice)
            out = fs.apply_mechanism(spec, fs.Profile((1.0, 1.5)), env)
            assert out.choices == (choice, choice)

    def test_type5_uses_rightmost(self):
        env = fs.Environment((0.0, 2.0), (1.0, 1.0))
        spec = MechanismSpec("type5", boundary_choice=2)
        assert fs.apply_mechanism(spec, fs.Profile((0.2, 0.5)), env).choices == (1, 1)
        assert fs.apply_mechanism(spec, fs.Profile((0.2, 1.5)), env).choices == (2, 2)

    def test_type1_constant(self):
        spec = MechanismSpec("type1", target=2)
        assert fs.apply_mechanism(spec, fs.Profile((-5.0, 100.0)), ENV).choices == (2, 2)

    def test_type2_clauses(self):
        spec1 = MechanismSpec("type2", diag_choice=1)
        spec2 = MechanismSpec("type2", diag_choice=2)
        below = fs.Profile((-1.0, 5.0))
        above = fs.Profile((0.5, 5.0))
        assert fs.apply_mechanism(spec1, below, ENV_M0).choices == (1, 1)
        assert fs.apply_mechanism(spec2, below, ENV_M0).choices == (2, 2)
        assert fs.apply_mechanism(spec1, above, ENV_M0).choices == (2, 2)

    def test_type3_clauses(self):
        spec1 = MechanismSpec("type3", diag_choice=1)
        spec2 = MechanismSpec("type3", diag_choice=2)
        below = fs.Profile((0.5, 5.0))
        above = fs.Profile((1.5, 5.0))
        assert fs.apply_mechanism(spec1, below, ENV_MD).choices == (1, 1)
        assert fs.apply_mechanism(spec2, above, ENV_MD).choices == (2, 2)
        assert fs.apply_mechanism(spec1, above, ENV_MD).choices == (1, 1)

    def test_order_symmetric(self):
        env = fs.Environment((0.0, 2.0), (1.0, 1.0))
        spec = MechanismSpec("type4", boundary_choice=1)
        a = fs.apply_mechanism(spec, fs.Profile((1.7, 0.5)), env)
        b = fs.apply_mechanism(spec, fs.Profile((0.5, 1.7)), env)
        assert a == b == fs.Assignment((1, 1))


class TestSpecFromDict:
    def test_parses_all_kinds(self):
        assert fs.spec_from_dict({"kind": "type1", "params": {"target": 1}}).target == 1
        spec = fs.spec_from_dict({"kind": "type2", "params": {"diag_choice": "fac2"}})
        assert spec.diag_choice == 2
        spec = fs.spec_from_dict({"kind": "krank", "params": {"k": 3}})
        assert spec.k == 3

    def test_rejects_bad_documents(self):
        with pytest.raises(fs.ValidationError):
            fs.spec_from_dict({"params": {}})
        with pytest.raises(fs.ValidationError):
            fs.spec_from_dict({"kind": "type2", "params": {"diag_choice": "fac3"}})


class TestBestFacilityAndKRank:
    def test_best_facility_examples(self):
        assert fs.best_facility(0.0, ENV, 2) == 1
        assert fs.best_facility(3.0, ENV, 2) == 2
        assert fs.best_facility(7.0, fs.Environment((1.0,), (2.0,)), 3) == 1

    def test_best_facility_tie_prefers_small_index(self):
        env = fs.Environment((0.0, 2.0), (1.0, 1.0))
        assert fs.best_facility(1.0, env, 2) == 1

    def test_k_rank_examples(self):
        prof = fs.Profile((0.0, 3.0))
        assert fs.k_rank(prof, ENV, 1).choices == (1, 1)
        assert fs.k_rank(prof, ENV, 2).choices == (2, 2)

    def test_k_rank_equal_positions(self):
        prof = fs.Profile((1.0, 1.0, 1.0))
        outs = {fs.k_rank(prof, ENV, k) for k in (1, 2, 3)}
        assert len(outs) == 1

    def test_k_rank_range(self):
        with pytest.raises(fs.ValidationError, match="k out of range"):
            fs.k_rank(fs.Profile((0.0, 1.0)), ENV, 3)

    def test_k_rank_is_the_best_facility_of_the_kth_smallest(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            env = random_environment(rng, m=int(rng.integers(1, 5)))
            n = int(rng.integers(1, 7))
            # a lattice with signed zeros, so ties and -0.0 occur
            positions = tuple(float(v) for v in rng.integers(-2, 12, n) / 2.0
                              * rng.choice([-1.0, 1.0], n))
            profile = fs.Profile(positions)
            for k in range(1, n + 1):
                best = fs.best_facility(sorted(positions)[k - 1], env, n)
                assert fs.k_rank(profile, env, k).choices == (best,) * n


class TestXStar:
    def diagonal_sup(self, spec, env, lo=-40.0, hi=40.0, steps=4001):
        """Numeric sup-search over the diagonal, for validating the analytic
        values."""
        best = -math.inf
        for x in np.linspace(lo, hi, steps):
            out = fs.apply_mechanism(spec, fs.Profile((float(x), float(x))), env)
            if out.choices == (1, 1):
                best = max(best, float(x))
        return best

    def test_type1(self):
        assert fs.resolve_x_star(MechanismSpec("type1", target=1), ENV) == math.inf
        assert fs.resolve_x_star(MechanismSpec("type1", target=2), ENV) == -math.inf

    def test_type4_and_5(self):
        for kind in ("type4", "type5"):
            spec = MechanismSpec(kind, boundary_choice=1)
            assert fs.resolve_x_star(spec, ENV) == pytest.approx(2.0)  # l1 + M

    def test_type2_constants_match_sup_search(self):
        s1 = MechanismSpec("type2", diag_choice=1)
        s2 = MechanismSpec("type2", diag_choice=2)
        assert fs.resolve_x_star(s1, ENV_M0) == 0.0  # the left facility
        assert fs.resolve_x_star(s2, ENV_M0) == -math.inf
        assert self.diagonal_sup(s1, ENV_M0) == pytest.approx(0.0, abs=0.05)
        assert self.diagonal_sup(s2, ENV_M0) == -math.inf

    def test_type3_constants_match_sup_search(self):
        s1 = MechanismSpec("type3", diag_choice=1)
        s2 = MechanismSpec("type3", diag_choice=2)
        assert fs.resolve_x_star(s1, ENV_MD) == math.inf
        assert fs.resolve_x_star(s2, ENV_MD) == 1.0  # the right facility
        assert self.diagonal_sup(s2, ENV_MD) == pytest.approx(1.0, abs=0.05)

    def test_type4_sup_search(self):
        spec = MechanismSpec("type4", boundary_choice=1)
        assert self.diagonal_sup(spec, ENV) == pytest.approx(2.0, abs=0.05)

    def test_krank_has_no_x_star(self):
        # its diagonal outcome depends on n, which x* does not take
        for env, k in ((ENV, 1), (fs.Environment((0.0, 4.0, 7.0), (1.0, 3.0, 2.0)), 2)):
            with pytest.raises(fs.MechanismPreconditionError, match="krank"):
                fs.resolve_x_star(MechanismSpec("krank", k=k), env)

    def test_callable_diag_bisection(self):
        mono = MechanismSpec("type2", diag_choice=lambda x: 1 if x < -2.0 else 2)
        assert fs.resolve_x_star(mono, ENV_M0) == pytest.approx(-2.0, abs=1e-9)


class TestDiagChoiceRange:
    """A diag_choice callable must answer facility 1 or 2 with an integer
    that is not a bool; every entry point that asks it says which answer, at
    which position, was wrong."""

    ENTRY_POINTS = {
        "apply_mechanism": lambda spec, env: fs.apply_mechanism(
            spec, fs.Profile((-1.0, 0.5)), env),
        "audit_unanimous": lambda spec, env: fs.audit_unanimous(spec, env, n=2),
        "audit_strategyproof": lambda spec, env: fs.audit_strategyproof(spec, env, n=2),
        "audit_lemma_properties": lambda spec, env: fs.audit_lemma_properties(
            spec, env, n=2),
        "empirical_ratio": lambda spec, env: fs.empirical_ratio(spec, env, n=2),
        "audit_anonymous": lambda spec, env: fs.audit_anonymous(spec, env, n=2),
        "resolve_x_star": lambda spec, env: fs.resolve_x_star(spec, env),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("answer", [3, 0, -1, True, 1.0])
    def test_bad_answers_raise_validation_error(self, entry, answer):
        env = fs.Environment((0.0, 1.0), (3.0, 1.0))  # M = 0: type2
        spec = MechanismSpec("type2", diag_choice=lambda x: answer)
        with pytest.raises(fs.ValidationError,
                           match=rf"diag_choice returned {answer!r} at position -?\d"):
            self.ENTRY_POINTS[entry](spec, env)

    def test_numpy_integer_answers_are_accepted(self):
        env = fs.Environment((0.0, 1.0), (3.0, 1.0))
        spec = MechanismSpec("type2", diag_choice=lambda x: np.int64(1))
        assert fs.apply_mechanism(spec, fs.Profile((-1.0, 0.5)), env).choices == (1, 1)


class TestBatchOutput:
    """A batch callable must answer a ``(P, n)`` batch with an integer array
    of that shape, not bools, holding facilities 1..m; every entry point
    that applies one says what was wrong."""

    ENTRY_POINTS = (fs.audit_strategyproof, fs.audit_anonymous, fs.audit_unanimous,
                    fs.audit_lemma_properties, fs.empirical_ratio)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("answer, message", [
        (lambda p: np.zeros(p.shape, dtype=int), r"facilities 1\.\.2, got 0$"),
        (lambda p: np.full(p.shape, 3), r"facilities 1\.\.2, got 3$"),
        (lambda p: np.full(p.shape, 1.5), "integer facilities, got dtype float64"),
        (lambda p: np.ones(p.shape, dtype=bool), "integer facilities, got dtype bool"),
        (lambda p: np.ones(len(p), dtype=int), r"shape \(\d+, 2\), got \(\d+,\)"),
    ])
    def test_bad_answers_raise_validation_error(self, entry, answer, message):
        with pytest.raises(fs.ValidationError, match="mechanism output must .*" + message):
            entry(answer, ENV, n=2)

    @pytest.mark.parametrize("entry", [fs.audit_strategyproof, fs.audit_anonymous,
                                       fs.audit_lemma_properties])
    def test_answers_to_altered_batches_are_checked(self, entry):
        # valid on the truthful batch, facility 0 on the first altered one
        calls = []

        def later_zero(profiles):
            calls.append(len(profiles))
            return np.full(profiles.shape, 1 if len(calls) == 1 else 0)

        with pytest.raises(fs.ValidationError, match=r"facilities 1\.\.2, got 0$"):
            entry(later_zero, ENV, n=2)
        assert len(calls) == 2


class TestAudits:
    def constructible_specs(self, env):
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

    def test_characterized_specs_pass_on_sampled_environments(self):
        rng = np.random.default_rng(21)
        for idx in range(12):
            force = (None, "M0", "Mdelta")[idx % 3]
            env = random_environment(rng, force=force)
            for spec in self.constructible_specs(env):
                assert fs.audit_strategyproof(spec, env, n=2).passed
                assert fs.audit_anonymous(spec, env, n=2).passed
                report = fs.audit_lemma_properties(spec, env, n=2, max_profiles=256)
                assert report.all_passed

    def test_non_trivial_specs_are_unanimous(self):
        for env, spec in [
            (ENV_M0, MechanismSpec("type2", diag_choice=1)),
            (ENV_MD, MechanismSpec("type3", diag_choice=2)),
            (ENV, MechanismSpec("type4", boundary_choice=1)),
            (ENV, MechanismSpec("type4", boundary_choice=2)),
            (ENV, MechanismSpec("type5", boundary_choice=1)),
            (ENV, MechanismSpec("krank", k=1)),
            (ENV, MechanismSpec("krank", k=2)),
        ]:
            assert fs.audit_unanimous(spec, env, n=2).passed

    def test_trivial_mechanism_not_unanimous(self):
        report = fs.audit_unanimous(MechanismSpec("type1", target=1), ENV, n=2)
        assert not report.passed
        assert report.counterexamples

    def test_greedy_fails_strategyproofness_on_eps_environment(self):
        greedy = fs.nearest_facility_mechanism(ENV_EPS)
        report = fs.audit_strategyproof(greedy, ENV_EPS, n=2)
        assert not report.passed
        ce = report.counterexamples[0]
        assert ce.cost_after < ce.cost_before - 1e-9

    def test_greedy_fails_some_lemma_property(self):
        greedy = fs.nearest_facility_mechanism(ENV_EPS)
        report = fs.audit_lemma_properties(greedy, ENV_EPS, n=2, max_profiles=256)
        assert not report.all_passed
        assert not report.p2.passed

    def test_constant_mechanism_p2_p3_trivially_hold(self):
        report = fs.audit_lemma_properties(MechanismSpec("type1", target=1), ENV,
                                           n=2, max_profiles=128)
        assert report.p2.passed and report.p3.passed

    def test_p3_counterexamples_match_a_per_report_loop(self):
        # Agents 0 and 1 always use facility 1; agent 2 joins them iff agent 0
        # reports below 1.5, so agent 0's report moves her load, not her facility.
        def joiner(profiles):
            out = np.ones(profiles.shape, dtype=int)
            out[:, 2] = np.where(profiles[:, 0] < 1.5, 1, 2)
            return out

        grid = fs.default_audit_grid(ENV)
        report = fs.audit_lemma_properties(joiner, ENV, n=3).p3
        expected = []
        for profile in draw_profiles(grid, 3, 512, 0):
            truthful = joiner(profile[None, :])[0]
            for i, r in itertools.product(range(3), grid):
                moved = profile.copy()
                moved[i] = r
                altered = joiner(moved[None, :])[0]
                if (altered[i] == truthful[i]
                        and np.sum(altered == altered[i]) != np.sum(truthful == truthful[i])):
                    expected.append((tuple(profile.tolist()), i, r))
        found = [(c.profile, c.agent, c.deviation) for c in report.counterexamples]
        assert not report and len(expected) > 1000
        assert found == sorted(expected, key=lambda c: (c[0], c[1], repr(c[2])))

    @pytest.mark.parametrize("spec, env, n", [
        (MechanismSpec("type1", target=2), ENV, 2),
        (MechanismSpec("type2", diag_choice=2), ENV_M0, 2),
        (MechanismSpec("type3", diag_choice=1), ENV_MD, 2),
        (MechanismSpec("type4", boundary_choice=1), ENV, 2),
        (MechanismSpec("type5", boundary_choice=2), ENV, 2),
        (MechanismSpec("krank", k=2), ENV, 3),
    ], ids=["type1", "type2", "type3", "type4", "type5", "krank"])
    def test_p3_holds_for_every_spec_family(self, spec, env, n):
        report = fs.audit_lemma_properties(spec, env, n=n).p3
        assert report and report.checked > 0

    def test_lemma_properties_generalize_beyond_two_agents(self):
        report = fs.audit_lemma_properties(MechanismSpec("krank", k=2), ENV,
                                           n=3, max_profiles=128)
        assert report.p1.passed and report.p2.passed and report.p3.passed
        assert report.p4 is None and report.p5 is None

    def test_index_biased_mechanism_fails_anonymity(self):
        env = ENV

        def biased(profiles):
            profiles = np.asarray(profiles, dtype=float)
            out = np.empty(profiles.shape, dtype=int)
            out[:, 0] = 1
            for col in range(1, profiles.shape[1]):
                out[:, col] = [fs.best_facility(v, env, profiles.shape[1])
                               for v in profiles[:, col]]
            return out

        report = fs.audit_anonymous(biased, env, n=2)
        assert not report.passed

    def test_krank_passes_all_audits_small(self):
        rng = np.random.default_rng(23)
        for idx in range(6):
            n = 2 + idx % 4
            m = 1 + idx % 4
            env = random_environment(rng, m=m)
            for k in range(1, n + 1):
                spec = MechanismSpec("krank", k=k)
                assert fs.audit_strategyproof(spec, env, n=n, max_profiles=200).passed
                assert fs.audit_anonymous(spec, env, n=n, max_profiles=100).passed
                assert fs.audit_unanimous(spec, env, n=n, max_profiles=200).passed

    @pytest.mark.parametrize("spec, n", [
        (MechanismSpec("type4", boundary_choice=1), 2),
        (MechanismSpec("type5", boundary_choice=2), 2),
        (MechanismSpec("krank", k=2), 3),
    ])
    def test_exact_ties_are_not_violations_at_zero_tolerance(self, spec, n):
        # A misreport that keeps everyone at the same facility changes no
        # cost and no share: at tol = 0 it must not count as profitable for
        # sp, nor leave the P2 sandwich.
        generic = lambda profiles: mechanisms._batch_apply(spec, ENV, profiles)
        for mechanism in (spec, generic):
            assert fs.audit_strategyproof(mechanism, ENV, n=n, tol=0.0).passed
            props = fs.audit_lemma_properties(mechanism, ENV, n=n, tol=0.0)
            assert props.p1.passed and props.p2.passed

    def test_type2_diagonal_must_be_monotone(self):
        # A left-ray facility-1 region keeps the mechanism strategyproof; an
        # interior island does not. The diagonal is not independently free.
        mono = MechanismSpec("type2", diag_choice=lambda x: 1 if x < -2.0 else 2)
        island = MechanismSpec("type2",
                               diag_choice=lambda x: 1 if -1.0 <= x <= 0.0 else 2)
        assert fs.audit_strategyproof(mono, ENV_M0, n=2).passed
        report = fs.audit_strategyproof(island, ENV_M0, n=2)
        assert not report.passed

    def test_type3_diagonal_is_unconstrained(self):
        # Beyond the right facility every position is cost-indifferent between
        # the two pooled outcomes, so even a non-monotone diagonal survives.
        island = MechanismSpec("type3",
                               diag_choice=lambda x: 1 if 1.5 <= x <= 2.0 else 2)
        assert fs.audit_strategyproof(island, ENV_MD, n=2).passed

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_audit_positions_rejected(self, bad):
        spec = MechanismSpec("type4", boundary_choice=1)
        with pytest.raises(fs.ValidationError, match="grid positions must be finite"):
            fs.audit_lemma_properties(spec, ENV, (0.0, bad, 2.0), n=2)
        with pytest.raises(fs.ValidationError, match="misreport positions must be"):
            fs.audit_strategyproof(spec, ENV, (0.0, 2.0), (1.0, bad), n=2)

    def test_audit_report_invariant(self):
        report = fs.audit_strategyproof(MechanismSpec("type1", target=1), ENV, n=2)
        assert report.passed == (len(report.counterexamples) == 0) == bool(report)
        assert report.checked > 0

    def test_counterexamples_sorted_deterministically(self):
        greedy = fs.nearest_facility_mechanism(ENV_EPS)
        a = fs.audit_strategyproof(greedy, ENV_EPS, n=2)
        b = fs.audit_strategyproof(greedy, ENV_EPS, n=2)
        assert a.counterexamples == b.counterexamples
        profiles = [c.profile for c in a.counterexamples]
        assert profiles == sorted(profiles)


class TestOrderStatisticPath:
    """Spec audits work through the spec's order statistic, in value-index
    space; a batch callable takes the per-(agent, report) loop. Wrapping a
    spec's own applier in a lambda forces the loop, so both routes must
    report the same thing."""

    @staticmethod
    def random_case(rng, case):
        if case % 3 == 0:
            # a facility-1 island on the type2 diagonal: not strategyproof
            env = random_environment(rng, force="M0")
            l1 = env.locations[0]
            spec = MechanismSpec("type2",
                                 diag_choice=lambda x: 1 if l1 - 1 <= x <= l1 else 2)
            n = 2
        elif case % 3 == 1:
            env = random_environment(rng, force=(None, "M0", "Mdelta")[rng.integers(3)])
            kind = str(rng.choice(fs.classify_environment(env).admitted_types))
            l1, l2 = env.locations
            a = float(rng.choice([l1 - 1.0, l1, l2]))
            diag = (1, 2, lambda x: 1 if a - 1.0 <= x <= a else 2,
                    lambda x: 1 if x < a else 2)[rng.integers(4)]
            choice = int(rng.integers(1, 3))
            spec = MechanismSpec(
                kind, target=choice if kind == "type1" else None,
                diag_choice=diag if kind in ("type2", "type3") else None,
                boundary_choice=choice if kind in ("type4", "type5") else None)
            n = 2
        else:
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            env = random_environment(rng, m=m)
            spec = MechanismSpec("krank", k=int(rng.integers(1, n + 1)))
        grid = fs.default_audit_grid(env)
        if rng.random() < 0.5:  # a lattice: ties, and repeated sampled rows
            grid = tuple(sorted({*rng.integers(-3, 9, size=4).tolist(),
                                 *rng.choice(grid, size=3).tolist()}))
        misreports = None
        if rng.random() < 0.5:  # repeated, off-grid and outlying reports
            twice = float(rng.choice(grid))
            misreports = [*rng.choice(grid, size=3).tolist(), twice, twice,
                          float(rng.uniform(-5, 15)), min(grid) - 1.0, max(grid) + 1.0]
        return spec, env, n, grid, misreports

    def test_spec_audits_match_the_generic_loop(self):
        rng = np.random.default_rng(41)
        failing = {"sp": 0, "P1": 0, "P2": 0}
        repeated_rows = 0
        for case in range(210):
            spec, env, n, grid, misreports = self.random_case(rng, case)
            generic = lambda profiles: mechanisms._batch_apply(spec, env, profiles)
            kw = dict(n=n, max_profiles=int(rng.choice([60, 400])), seed=case)
            reports = []
            for mechanism in (spec, generic):
                reports.append((
                    fs.audit_strategyproof(mechanism, env, grid, misreports, **kw),
                    fs.audit_anonymous(mechanism, env, grid, **kw),
                    fs.audit_lemma_properties(mechanism, env, grid, **kw)))
            # A bool, so a failure reports the case instead of diffing long reprs.
            same = repr(reports[0]) == repr(reports[1])
            assert same, f"case {case}"
            sp, _, props = reports[0]
            failing["sp"] += not sp.passed
            failing["P1"] += not props.p1.passed
            failing["P2"] += not props.p2.passed
            profiles = draw_profiles(grid, n, kw["max_profiles"], case)
            repeated_rows += len(np.unique(profiles, axis=0)) < len(profiles)
        # the comparison covers counterexamples of every kind, and sampled
        # profiles that repeat a row
        assert min(failing.values()) >= 3, failing
        assert repeated_rows >= 3

    def test_flagged_rows_are_the_rows_with_counterexamples(self):
        # The sp and P1 flags are exact: a (profile, agent) row is flagged iff
        # the per-report loop finds a counterexample there. The P2 flag is a
        # superset, which equals on these cases at the CLI's tolerance.
        rng = np.random.default_rng(53)
        for case in range(120):
            spec, env, n, grid, misreports = self.random_case(rng, case)
            generic = lambda profiles: mechanisms._batch_apply(spec, env, profiles)
            profiles = draw_profiles(grid, n, 120, case)
            reports = np.asarray(grid if misreports is None else misreports)
            truthful = generic(profiles)
            distance, share = mechanisms._split_costs(profiles, truthful, env)
            costs = np.moveaxis(mechanisms._facility_costs(profiles, env, n), -1, 0)
            sp_rows = mechanisms._sp_rows(profile_form(spec, env, profiles, reports),
                                          costs, distance + share, fs.EPS_CMP)
            form = profile_form(spec, env, profiles, np.asarray(grid))
            p1_rows, p2_rows = mechanisms._lemma_rows(form, profiles, share, env,
                                                      fs.EPS_CMP)
            kw = dict(n=n, max_profiles=120, seed=case)
            props = fs.audit_lemma_properties(generic, env, grid, **kw)
            for rows, report in (
                    (sp_rows, fs.audit_strategyproof(generic, env, grid, misreports, **kw)),
                    (p1_rows, props.p1), (p2_rows, props.p2)):
                flagged = {(mechanisms._plain(profiles[r]), i)
                           for r, i in zip(*np.nonzero(rows))}
                found = {(c.profile, c.agent) for c in report.counterexamples}
                assert flagged == found, f"case {case}, {report.property}"

    def test_p1_predicate_matches_the_oriented_form(self):
        # Quarter-lattice values, some shifted by +/- tol: report == x, equal
        # locations and values exactly at loc +/- tol all occur. The
        # two-clause predicate must agree with the form that orients every
        # move so the report increases.
        rng = np.random.default_rng(59)
        for tol in (0.0, 0.25, fs.EPS_CMP):
            for _ in range(40):
                x, report, base_loc, alt_loc = (
                    rng.integers(-3, 4, size=(4, 200, 1)) * 0.25
                    + rng.choice([0.0, tol, -tol], size=(4, 200, 1)))
                report = report.T  # every (x, report) pair of the batch
                assert (x == report).any() and (base_loc == alt_loc).any()
                assert (report == alt_loc + tol).any() and (x == base_loc + tol).any()
                got = mechanisms._p1_breaks(x, report, base_loc, alt_loc, tol)
                want = oracle_p1_breaks(x, report, base_loc, alt_loc, tol)
                assert got.any() and np.array_equal(got, want)

    def test_p2_uses_the_exact_maximum_over_a_facilitys_reports(self):
        # Beyond both facilities |r - loc_2| - |r - loc_1| is constant in exact
        # arithmetic, but its float value moves with r's binade: 12.0 gives a
        # larger difference than 3.0 and 48.0, the extreme reports that move
        # everyone to facility 2, and only it exceeds the share difference
        # b1/2 - b2/2 at tol = 0. The P2 flag's margin covers that rounding.
        env = fs.Environment((0.1, 0.7), (1.0, 2.2))
        spec = MechanismSpec("type3", diag_choice=2)
        generic = lambda profiles: mechanisms._batch_apply(spec, env, profiles)
        grid = (0.0, 3.0, 12.0, 48.0)
        by_spec = fs.audit_lemma_properties(spec, env, grid, n=2, tol=0.0)
        assert Counterexample((0.0, 48.0), 0, 12.0, -0.5999999999999996,
                              0.6) in by_spec.p2.counterexamples
        same = repr(by_spec) == repr(fs.audit_lemma_properties(generic, env, grid,
                                                               n=2, tol=0.0))
        assert same

    def test_reach_matches_per_report_enumeration(self):
        # For every (facility, profile, agent): the smallest and largest report
        # that sends everyone to the facility, against applying the spec to
        # each altered profile; and the P2 bound, which must be at least the
        # float |r - loc_f| - |r - loc_B| of every such report, and exactly
        # 0.0 where loc_f == loc_B.
        rng = np.random.default_rng(47)
        for case in range(90):
            spec, env, n, grid, misreports = self.random_case(rng, case)
            profiles = draw_profiles(grid, n, 80, case)
            reports = np.asarray(grid if misreports is None else misreports)
            form = profile_form(spec, env, profiles, reports)
            base = mechanisms._batch_apply(spec, env, profiles)[:, 0] - 1
            locs = np.asarray(env.locations)
            ends = [form.values.take(end, mode="clip") for end in (form.top, form.bottom)]
            bound = mechanisms._p2_bound(form.values, ends, locs[:, None, None],
                                         locs[base][:, None])

            rows = np.arange(len(profiles))
            top = np.full((env.m,) + profiles.shape, -1)
            bottom = np.full((env.m,) + profiles.shape, len(form.values))
            for i in range(n):
                for r, v in zip(reports, form.r_index):
                    altered = profiles.copy()
                    altered[:, i] = r
                    fac = mechanisms._batch_apply(spec, env, altered)[:, i] - 1
                    top[fac, rows, i] = np.maximum(top[fac, rows, i], v)
                    bottom[fac, rows, i] = np.minimum(bottom[fac, rows, i], v)
                    diff = np.abs(r - locs[fac]) - np.abs(r - locs[base])
                    assert np.all(bound[fac, rows, i] >= diff), f"case {case}"
            same = np.array_equal(form.top, top) and np.array_equal(form.bottom, bottom)
            assert same, f"case {case}"
            assert form.top.dtype == form.bottom.dtype == np.int32
            # the truthful report reaches the truthful facility
            equal = (locs[:, None, None] == locs[base][:, None]) & (top >= 0)
            assert equal.any() and np.all(bound[equal] == 0.0), f"case {case}"

    @pytest.mark.parametrize("tol", [0.0, fs.EPS_CMP])
    def test_p2_rows_hold_every_row_with_a_p2_counterexample(self, tol):
        # The P2 flag is a proven superset: the per-report pass must find
        # every counterexample of the generic loop among the flagged rows.
        rng = np.random.default_rng(61)
        violating = 0
        for case in range(150):
            spec, env, n, grid, _ = self.random_case(rng, case)
            generic = lambda profiles: mechanisms._batch_apply(spec, env, profiles)
            profiles = draw_profiles(grid, n, 120, case)
            _, share = mechanisms._split_costs(profiles, generic(profiles), env)
            form = profile_form(spec, env, profiles, np.asarray(grid))
            _, p2_rows = mechanisms._lemma_rows(form, profiles, share, env, tol)
            flagged = {(mechanisms._plain(profiles[r]), i)
                       for r, i in zip(*np.nonzero(p2_rows))}
            props = fs.audit_lemma_properties(generic, env, grid, n=n, max_profiles=120,
                                              seed=case, tol=tol)
            found = {(c.profile, c.agent) for c in props.p2.counterexamples}
            assert found <= flagged, f"case {case}"
            violating += bool(found)
        assert violating >= 10

    @pytest.mark.parametrize("env, spec, grid", [
        # the case above: beyond both facilities
        (fs.Environment((0.1, 0.7), (1.0, 2.2)), MechanismSpec("type3", diag_choice=2),
         (0.0, 3.0, 12.0, 48.0)),
        # found by a seeded search of random_case environments: at M = 0 the
        # reports at or left of l1 reach facility 1, where the difference is
        # l1 - l2 = (b2 - b1)/2 in exact arithmetic; only the interior
        # report's float exceeds the share difference
        (fs.Environment((-3.6023808310867023, -1.9161188969980514),
                        (6.144813222649418, 2.7722893544721168)),
         MechanismSpec("type2", diag_choice=1),
         (-6.139584136749057, -6.138584136749056, -3.6023808310867023,
          -3.6013808310867024)),
    ])
    def test_p2_margin_flags_what_the_extreme_reports_round_below(
            self, monkeypatch, env, spec, grid):
        # At tol = 0 a report between a facility's extreme reports has a
        # larger float difference than both, and it alone breaks P2: without
        # the margin the spec audit misses it.
        generic = lambda profiles: mechanisms._batch_apply(spec, env, profiles)
        want = fs.audit_lemma_properties(generic, env, grid, n=2, tol=0.0)
        assert not want.p2.passed
        assert repr(fs.audit_lemma_properties(spec, env, grid, n=2, tol=0.0)) == repr(want)
        monkeypatch.setattr(mechanisms, "_P2_SLACK", 0.0)
        without = fs.audit_lemma_properties(spec, env, grid, n=2, tol=0.0)
        assert set(without.p2.counterexamples) < set(want.p2.counterexamples)

    def test_flag_counts_at_the_cli_tolerance(self):
        # Rows the flags send to the per-report pass, pinned so that extra
        # per-report work shows as a count, not as wall time.
        rng = np.random.default_rng(41)
        counts = {"rows": 0, "sp": 0, "P1": 0, "P2": 0}
        for case in range(300):
            spec, env, n, grid, misreports = self.random_case(rng, case)
            draw = mechanisms._Draw(spec, env, grid, n, 512, case)
            reports = draw.points if misreports is None else np.asarray(misreports)
            sp_form = mechanisms._SpecForm(spec, env, draw.points, draw.indices, reports)
            sp = mechanisms._sp_rows(sp_form, draw.costs, draw.truthful_cost, fs.EPS_CMP)
            p1, p2 = mechanisms._lemma_rows(draw.form, draw.profiles,
                                            draw.split[1], env, fs.EPS_CMP)
            counts["rows"] += draw.profiles.size
            for name, rows in (("sp", sp), ("P1", p1), ("P2", p2)):
                counts[name] += int(np.count_nonzero(rows))
        assert counts == {"rows": 259075, "sp": 4564, "P1": 6184, "P2": 6184}

    def test_order_statistic_outcomes_match_batch_apply(self):
        rng = np.random.default_rng(43)
        for case in range(60):
            spec, env, n, grid, misreports = self.random_case(rng, case)
            profiles = draw_profiles(grid, n, 300, case)
            reports = np.asarray(grid if misreports is None else misreports)
            generic = lambda batch: mechanisms._batch_apply(spec, env, batch)
            form = profile_form(spec, env, profiles, reports)
            truthful = mechanisms._batch_apply(spec, env, profiles)
            assert np.array_equal(form.truthful, truthful)
            every_row = np.ones(profiles.shape, dtype=bool)
            by_form = {}
            for i, rows, block, fac, load in form.changes(every_row):
                assert load == n and np.array_equal(rows, np.arange(len(profiles)))
                assert fac.shape == (len(profiles), len(block))
                by_form[i] = fac
            by_loop = {i: [] for i in range(n)}
            for i, rows, block, fac, load in mechanisms._batch_changes(
                    generic, env, profiles, reports):
                assert np.all(load == n) and fac.shape == (len(profiles), len(block))
                by_loop[i].append(fac)
            assert sorted(by_form) == list(range(n))
            for i in range(n):
                assert np.array_equal(by_form[i], np.hstack(by_loop[i]))

    @pytest.mark.parametrize("kind, env", [("type2", ENV_M0), ("type3", ENV_MD)])
    def test_diag_callable_is_asked_once_per_occurring_value(self, kind, env):
        asked = []

        def island(x):
            asked.append(x)
            return 1 if -1.0 <= x <= 0.0 or 1.5 <= x <= 2.0 else 2

        spec = MechanismSpec(kind, diag_choice=island)
        generic = lambda profiles: mechanisms._batch_apply(spec, env, profiles)
        for audit in (fs.audit_strategyproof, fs.audit_anonymous,
                      fs.audit_lemma_properties):
            audit(spec, env, n=2)
            by_spec = list(asked)
            asked.clear()
            audit(generic, env, n=2)
            assert len(by_spec) == len(set(by_spec))
            assert set(by_spec) == set(asked)
            asked.clear()

    @pytest.mark.parametrize("kind, env", [("type2", ENV_M0), ("type3", ENV_MD)])
    def test_batch_entry_points_ask_each_value_once_ascending(self, kind, env):
        # apply_mechanism, audit_unanimous and empirical_ratio apply a spec
        # through _batch_apply; the callable is asked once per distinct order
        # statistic on the diagonal, in ascending order.
        asked = []

        def island(x):
            asked.append(x)
            return 1 if -1.0 <= x <= 0.0 or 1.5 <= x <= 2.0 else 2

        spec = MechanismSpec(kind, diag_choice=island)
        grid = fs.default_audit_grid(env)
        on_diagonal = [v for v in grid if (v <= 0.0 if kind == "type2" else v >= 1.0)]
        for x, fac in ((-0.5, 1), (-3.0, 2)) if kind == "type2" else ((1.75, 1), (3.0, 2)):
            assert fs.apply_mechanism(spec, fs.Profile((x + 1.0, x)), env).choices == (fac, fac)
            assert asked == [x]
            asked.clear()
        fs.audit_unanimous(spec, env, grid, n=2)
        assert asked == sorted(set(asked)) and len(asked) > 3
        asked.clear()
        fs.empirical_ratio(spec, env, grid, n=2)
        assert asked == sorted(on_diagonal)


class TestPermutationConsistency:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        positions=st.lists(st.floats(-20, 20, allow_nan=False), min_size=2,
                           max_size=5),
        data=st.data(),
    )
    def test_krank_permutation_invariant(self, seed, positions, data):
        rng = np.random.default_rng(seed)
        env = random_environment(rng)
        n = len(positions)
        k = data.draw(st.integers(1, n))
        perm = data.draw(st.permutations(range(n)))
        prof = fs.Profile(tuple(positions))
        permuted = fs.Profile(tuple(positions[i] for i in perm))
        base = fs.k_rank(prof, env, k)
        other = fs.k_rank(permuted, env, k)
        # un-permute: agent perm[i] of the base profile is agent i here
        assert tuple(other.choices[perm.index(i)] for i in range(n)) == base.choices


class TestRatioBounds:
    def test_eps_environment_value(self):
        assert fs.ratio_lower_bound(ENV_EPS) == pytest.approx(50.0, rel=1e-9)
        pooling, _ = fs.ratio_lower_bound_terms(ENV_EPS)
        assert pooling == pytest.approx(1.0 / (2.0 * 0.1 ** 2), rel=1e-9)

    def test_symmetric_unit_environment(self):
        env = fs.Environment((0.0, 2.0), (1.0, 1.0))
        assert fs.ratio_lower_bound(env) == pytest.approx(2.0)

    def test_equal_costs_equal_delta(self):
        env = fs.Environment((0.0, 1.0), (1.0, 1.0))  # b1 = b2 = delta, M = 1/2
        terms = fs.ratio_lower_bound_terms(env)
        assert terms[0] == pytest.approx(1.0)
        assert terms[1] == pytest.approx(5.0 / 3.0)
        assert fs.ratio_lower_bound(env) == pytest.approx(5.0 / 3.0)

    def test_precondition(self):
        with pytest.raises(fs.MechanismPreconditionError):
            fs.ratio_lower_bound(ENV_M0)

    def test_large_eps_bound_exceeds_reference(self):
        # at eps = 0.5 the threshold term dominates the 1/(2 eps^2) reference
        env = fs.Environment((0.0, 1.5), (0.5, 0.5))
        pooling, threshold = fs.ratio_lower_bound_terms(env)
        assert pooling == pytest.approx(2.0)
        assert threshold == pytest.approx(2.2)
        assert fs.ratio_lower_bound(env) == pytest.approx(2.2)


class TestEmpiricalRatio:
    def test_eps_environment_approaches_bound(self):
        spec = MechanismSpec("type4", boundary_choice=1)
        result = fs.empirical_ratio(spec, ENV_EPS, n=2)
        assert result.worst_ratio >= 49.0

    def test_at_least_one(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            env = random_environment(rng)
            result = fs.empirical_ratio(MechanismSpec("type1", target=1), env, n=2)
            assert result.worst_ratio >= 1.0 - 1e-12

    def test_constant_mechanism_can_be_optimal(self):
        env = fs.Environment((0.0, 1.0), (1.0, 5.0))
        result = fs.empirical_ratio(MechanismSpec("type1", target=1), env,
                                    grid=(0.0,), n=2)
        assert result.worst_ratio == pytest.approx(1.0)
        assert result.witness_profile == (0.0, 0.0)

    def test_large_search_space_solves_each_profile(self):
        # m**n = 4**7 assignments per profile; every one of the 2**7 grid
        # profiles' ratios is checked against brute force.
        env = fs.Environment((0.0, 2.0, 5.0, 9.0), (3.0, 1.0, 2.0, 4.0))
        spec, grid = MechanismSpec("krank", k=3), (1.0, 6.5)
        result = fs.empirical_ratio(spec, env, grid, n=7)
        ratios = {}
        for row in itertools.product(grid, repeat=7):
            profile = fs.Profile(row)
            mech = fs.apply_mechanism(spec, profile, env)
            opt = fs.optimal_brute_force(fs.Instance(env, profile))
            ratios[row] = fs.social_cost(profile, mech, env).social_cost / opt.social_cost
        worst = max(ratios.values())
        assert worst > 1.0
        assert result.worst_ratio == pytest.approx(worst, rel=1e-12)
        assert ratios[result.witness_profile] == pytest.approx(worst, rel=1e-12)


def test_default_grid_contains_breakpoints():
    grid = fs.default_audit_grid(ENV)
    p = fs.env_params(ENV)
    for anchor in (0.0, 3.0, p.L, p.M, p.R):
        assert anchor in grid or (anchor + 0.0) in grid
        assert anchor + 1e-3 in grid
        assert anchor - 1e-3 in grid
    assert min(grid) < 0.0 and max(grid) > 3.0
    assert list(grid) == sorted(grid)


class TestAnonymityAudit:
    """A spec is anonymous by construction, so its anonymity audit draws no
    counterexample; the per-permutation loop over the same spec as a batch
    callable is the reference. TestOrderStatisticPath covers n <= 5, where
    every permutation is tried; these cases sample them."""

    @pytest.mark.parametrize("n", [6, 7])
    def test_spec_route_matches_the_generic_loop(self, n):
        rng = np.random.default_rng(59 + n)
        for case in range(4):
            env = random_environment(rng, m=int(rng.integers(1, 5)))
            spec = MechanismSpec("krank", k=int(rng.integers(1, n + 1)))
            generic = lambda profiles: mechanisms._batch_apply(spec, env, profiles)
            kw = dict(n=n, max_profiles=200, max_permutations=7, seed=case)
            by_spec = fs.audit_anonymous(spec, env, **kw)
            assert by_spec.passed and by_spec.checked == 7 * 200
            same = repr(by_spec) == repr(fs.audit_anonymous(generic, env, **kw))
            assert same, f"n={n}, case {case}"

    def test_sampled_permutations_are_plain_ints(self):
        def biased(profiles):
            out = np.full(profiles.shape, 2)
            out[:, 0] = 1
            return out

        report = fs.audit_anonymous(biased, ENV, n=6, max_profiles=50,
                                    max_permutations=10)
        assert not report.passed
        for c in report.counterexamples:
            assert sorted(c.deviation) == list(range(6))
            assert all(type(v) is int for v in c.deviation)


class TestUnanimityAudit:
    """The facility-major unanimity audit against the sort-based reference,
    on random cost grids and on exact-tie ones: integer locations, building
    costs that n divides and half-integer grids, so two facilities often
    cost the same at load n, and sometimes one facility twice."""

    @staticmethod
    def random_case(rng, case):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        if case % 2:
            env = random_environment(rng, m=m)
            grid = fs.default_audit_grid(env)
        else:
            locs = rng.integers(0, 7, size=m).astype(float)
            costs = (n * rng.integers(1, 5, size=m)).astype(float)
            if m >= 2 and rng.random() < 0.3:  # one facility twice
                locs[1], costs[1] = locs[0], costs[0]
            env = fs.Environment(tuple(locs.tolist()), tuple(costs.tolist()))
            grid = tuple(np.arange(-2.0, 9.0, 0.5).tolist())
        pick = case % 4
        if pick == 0:
            mechanism = MechanismSpec("krank", k=int(rng.integers(1, n + 1)))
        elif pick == 1:
            mechanism = fs.nearest_facility_mechanism(env)
        elif pick == 2:  # a constant facility: fails wherever another is unanimous
            target = int(rng.integers(1, m + 1))
            mechanism = lambda profiles: np.full(profiles.shape, target)
        else:  # per-agent facilities that depend on the position's cell
            mechanism = lambda profiles: ((np.floor(profiles * 3).astype(int)
                                           + np.arange(profiles.shape[1])) % m) + 1
        return mechanism, env, n, grid

    def test_matches_the_sort_based_reference(self):
        rng = np.random.default_rng(61)
        seen = {"failed": 0, "tied": 0, "counted": 0}
        for case in range(240):
            mechanism, env, n, grid = self.random_case(rng, case)
            # a negative tol counts exact ties, where the favorite's tie rule shows
            tol = (fs.EPS_CMP, 0.0, -fs.EPS_CMP)[case % 3]
            kw = dict(n=n, max_profiles=int(rng.choice([50, 700])), seed=case)
            report = fs.audit_unanimous(mechanism, env, grid, tol=tol, **kw)
            profiles = draw_profiles(grid, n, kw["max_profiles"], case)
            outcome = (mechanisms._batch_apply(mechanism, env, profiles)
                       if isinstance(mechanism, MechanismSpec) else mechanism(profiles))
            want = oracle_unanimous(profiles, outcome, env.locations,
                                    env.building_costs, tol)
            same = repr(report) == repr(want)
            assert same, f"case {case}"
            cost = np.sort(mechanisms._facility_costs(profiles, env, n), axis=2)
            seen["failed"] += not report.passed
            seen["tied"] += env.m >= 2 and bool(np.any(cost[..., 1] == cost[..., 0]))
            seen["counted"] += report.checked > 0
        # violations, exact ties at load n and counted profiles all occur
        assert min(seen.values()) >= 40, seen


class TestAuditCounts:
    AUDITS = (fs.audit_strategyproof, fs.audit_anonymous, fs.audit_unanimous,
              fs.audit_lemma_properties, fs.empirical_ratio)

    @pytest.mark.parametrize("audit", AUDITS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("count", [0, -1])
    def test_max_profiles_below_one_rejected(self, audit, count):
        spec = MechanismSpec("type4", boundary_choice=1)
        with pytest.raises(fs.ValidationError, match="max_profiles must be ≥ 1"):
            audit(spec, ENV, n=2, max_profiles=count)

    @pytest.mark.parametrize("audit", AUDITS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [2, 3], ids=["full-grid", "sampled"])
    def test_negative_seed_rejected(self, audit, n):
        # n = 2 enumerates the whole grid and never builds the generator
        spec = MechanismSpec("krank", k=1)
        with pytest.raises(fs.ValidationError, match="seed must be ≥ 0, got -1"):
            audit(spec, ENV, n=n, seed=-1)

    def test_negative_max_permutations_rejected(self):
        spec = MechanismSpec("krank", k=2)
        with pytest.raises(fs.ValidationError, match="max_permutations must be ≥ 0"):
            fs.audit_anonymous(spec, ENV, n=6, max_permutations=-1)
        report = fs.audit_anonymous(spec, ENV, n=6, max_permutations=0)
        assert report.passed and report.checked == 0
        # all n! permutations are tried for n <= 5, whatever the count
        report = fs.audit_anonymous(spec, ENV, n=3, max_permutations=-1)
        assert report.passed and report.checked == 5 * 2048


# A spec of every kind, in an environment that admits it.
KIND_CASES = {
    "type1": (MechanismSpec("type1", target=2), ENV),
    "type2": (MechanismSpec("type2", diag_choice=1), ENV_M0),
    "type3": (MechanismSpec("type3", diag_choice=2), ENV_MD),
    "type4": (MechanismSpec("type4", boundary_choice=1), ENV),
    "type5": (MechanismSpec("type5", boundary_choice=2), ENV),
    "krank": (MechanismSpec("krank", k=2), ENV),
}
ALL_KINDS = set(KIND_CASES)

# Every public function that takes a spec or a mechanism, and the kinds it
# answers for; on any other kind it raises MechanismPreconditionError.
KIND_ANSWERS = {
    "validate_spec": (lambda spec, env: fs.validate_spec(spec, env, n=2), ALL_KINDS),
    "resolve_x_star": (fs.resolve_x_star, ALL_KINDS - {"krank"}),
    "apply_mechanism": (lambda spec, env: fs.apply_mechanism(
        spec, fs.Profile((0.5, 2.5)), env), ALL_KINDS),
    "audit_strategyproof": (fs.audit_strategyproof, ALL_KINDS),
    "audit_anonymous": (fs.audit_anonymous, ALL_KINDS),
    "audit_unanimous": (fs.audit_unanimous, ALL_KINDS),
    "audit_lemma_properties": (fs.audit_lemma_properties, ALL_KINDS),
    "empirical_ratio": (fs.empirical_ratio, ALL_KINDS),
}


def test_every_spec_entry_point_is_in_the_kind_table():
    taking = {name for name, obj in vars(fs).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and {"spec", "mechanism"} & set(inspect.signature(obj).parameters)}
    assert taking == set(KIND_ANSWERS)
    assert ALL_KINDS == set(mechanisms._KINDS)


@pytest.mark.parametrize("kind", mechanisms._KINDS)
@pytest.mark.parametrize("entry", KIND_ANSWERS)
def test_each_kind_is_answered_or_refused(entry, kind):
    call, answers = KIND_ANSWERS[entry]
    spec, env = KIND_CASES[kind]
    if kind in answers:
        call(spec, env)
    else:
        with pytest.raises(fs.MechanismPreconditionError, match=kind):
            call(spec, env)


def _environment_admitting(rng, kind):
    """A random two-facility environment whose case split admits ``kind``."""
    force = {"type2": "M0", "type3": "Mdelta"}.get(kind)
    while True:
        env = random_environment(rng, force=force)
        if kind in fs.classify_environment(env).admitted_types:
            return env


def _largest_base(n, cap):
    """The largest g with g**n <= cap."""
    g = 1
    while (g + 1) ** n <= cap:
        g += 1
    return g


class TestSharedForm:
    """``facshare mech`` builds one draw and one spec form per op, and P1-P5
    price the rows of that draw that hold their own profiles, from the form
    restricted to them. That must give what :func:`audit_lemma_properties`
    gives with a draw and a form of its own."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(67)
        for kind in ("type1", "type2", "type3", "type4", "type5"):
            for _ in range(2):
                choice = int(rng.integers(1, 3))
                yield MechanismSpec(
                    kind, target=choice if kind == "type1" else None,
                    diag_choice=choice if kind in ("type2", "type3") else None,
                    boundary_choice=choice if kind in ("type4", "type5") else None,
                ), _environment_admitting(rng, kind), 2
        for n in range(3, 7):
            for m in range(2, 5):
                yield (MechanismSpec("krank", k=int(rng.integers(1, n + 1))),
                       random_environment(rng, m=m), n)

    @staticmethod
    def grids(env, n):
        """The default grid with 0 and 5 extra points, and its first points
        cut so that both draws are exhaustive, or only sp's is."""
        for extra in (0, 5):
            full = fs.default_audit_grid(env, extra=extra)
            for cap in (512, 2048, None):
                yield full if cap is None else full[:_largest_base(n, cap)]

    @staticmethod
    def count_builds(monkeypatch):
        built = {"_Draw": 0, "_SpecForm": 0}
        for cls in (mechanisms._Draw, mechanisms._SpecForm):
            init = cls.__init__

            def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return built

    def test_props_from_the_shared_form_match_props_alone(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        regimes = set()
        for case, (spec, env, n) in enumerate(self.cases()):
            for grid in self.grids(env, n):
                g = len(grid)
                regimes.add((g ** n <= 512, g ** n <= 2048))
                # the runner's steps: one draw, its form, and props' rows of it
                draw = mechanisms._Draw(spec, env, grid, n, seed=case)
                draw.form
                rows = mechanisms._rows_of(
                    draw.indices, mechanisms._grid_indices(g, n, 512, case), g)
                assert rows is not None, (case, g)
                shared = draw.restrict(rows)
                alone = mechanisms._Draw(spec, env, grid, n, 512, case)
                alone_form = alone.form
                assert np.array_equal(shared.profiles, alone.profiles)
                assert np.array_equal(shared.form.truthful, alone_form.truthful)
                for got, want in zip(
                        mechanisms._lemma_rows(shared.form, shared.profiles,
                                               shared.split[1], env, fs.EPS_CMP),
                        mechanisms._lemma_rows(alone_form, alone.profiles,
                                               alone.split[1], env, fs.EPS_CMP)):
                    assert np.array_equal(got, want), (case, g)
                every_row = np.ones(alone.profiles.shape, dtype=bool)
                for got, want in itertools.zip_longest(shared.form.changes(every_row),
                                                       alone_form.changes(every_row)):
                    assert got[0] == want[0] and np.array_equal(got[3], want[3])

                props = repr(fs.audit_lemma_properties(spec, env, grid, n=n, seed=case))
                for tokens in (["sp", "props"], ["props", "sp"], ["props"]):
                    built.update(_Draw=0, _SpecForm=0)
                    reports = mechanisms._run_audits(spec, env, grid, n, tokens, case)
                    assert built == {"_Draw": 1, "_SpecForm": 1}, tokens
                    assert repr(reports["props"]) == props, (case, g, tokens)
        # both draws exhaustive, only sp's, and neither
        assert regimes == {(True, True), (False, True), (False, False)}

    # sha256 of the four reports of test_misreports_are_the_draws_own, pinned
    # so that where the misreports are kept cannot change what sp reports
    MISREPORT_REPORTS = "277a5e1e9107c72a78df0876da0b9732bef5f3ea0a6c1dc58dc178818cfadb13"

    def test_misreports_are_the_draws_own(self, monkeypatch):
        # audit_strategyproof with misreports builds one draw, and for a spec
        # one form, for those reports. A type2 diagonal with a facility-1
        # island is not strategyproof, so the reports hold counterexamples;
        # the batch loop reads no form and must report the same.
        built = self.count_builds(monkeypatch)
        spec = MechanismSpec("type2", diag_choice=lambda x: 1 if -1.0 <= x <= 0.0 else 2)
        generic = lambda profiles: mechanisms._batch_apply(spec, ENV_M0, profiles)
        reports = []
        for extra, exhaustive in ((0, True), (60, False)):
            grid = fs.default_audit_grid(ENV_M0, extra=extra)
            assert (len(grid) ** 2 <= 2048) == exhaustive
            misreports = (-3.0, grid[4], -0.5, 0.2, grid[-1] + 1.0)
            for mechanism, forms in ((spec, 1), (generic, 0)):
                built.update(_Draw=0, _SpecForm=0)
                report = fs.audit_strategyproof(mechanism, ENV_M0, grid, misreports, seed=3)
                assert built == {"_Draw": 1, "_SpecForm": forms}
                assert not report.passed
                reports.append(repr(report))
            assert reports[-2] == reports[-1]
        digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
        assert digest == self.MISREPORT_REPORTS

    def test_props_not_in_the_draw_take_a_draw_of_their_own(self, monkeypatch):
        # With sp's cap cut to 100, sp samples fewer profiles than props'
        # 512: props' profiles are not rows of sp's draw, so props builds its
        # own draw and form.
        built = self.count_builds(monkeypatch)
        monkeypatch.setattr(mechanisms, "_AUDIT_PROFILES", 100)
        env = fs.Environment((0.0, 2.0, 5.0), (1.0, 3.0, 2.0))
        spec, grid = MechanismSpec("krank", k=2), fs.default_audit_grid(env)
        draw = mechanisms._Draw(spec, env, grid, 3, 100, 5)
        assert mechanisms._rows_of(draw.indices,
                                   mechanisms._grid_indices(len(grid), 3, 512, 5),
                                   len(grid)) is None
        built.update(_Draw=0, _SpecForm=0)
        reports = mechanisms._run_audits(spec, env, grid, 3, ["sp", "props"], seed=5)
        assert built == {"_Draw": 2, "_SpecForm": 2}
        assert repr(reports["sp"]) == repr(
            fs.audit_strategyproof(spec, env, grid, n=3, max_profiles=100, seed=5))
        assert repr(reports["props"]) == repr(
            fs.audit_lemma_properties(spec, env, grid, n=3, seed=5))


class TestGridIndexForm:
    """A draw's form takes its value space from one ``np.unique`` over the
    grid and the reports, and indexes its profiles through their grid
    indices. That must equal the form built over every profile entry."""

    @staticmethod
    def zero_grid(rng):
        """A user grid with repeated points and both signed zeros, in a
        random order."""
        grid = [0.0, -0.0, *rng.integers(-3, 5, size=4).tolist(),
                *rng.uniform(-4.0, 6.0, size=3).tolist()]
        grid += rng.choice(grid, size=2).tolist()
        return [float(v) for v in rng.permutation(grid)]

    def cases(self):
        rng = np.random.default_rng(71)
        for case in range(150):
            spec, env, n, grid, _ = TestOrderStatisticPath.random_case(rng, case)
            if case % 3 == 2:
                grid = self.zero_grid(rng)
            yield case, spec, env, n, grid, int(rng.choice([60, 400, 2048]))

    def test_matches_the_build_over_every_profile_entry(self):
        regimes = set()
        signed_zeros = 0
        for case, spec, env, n, grid, cap in self.cases():
            draw = mechanisms._Draw(spec, env, grid, n, cap, case)
            profiles, reports = draw.profiles, draw.points
            regimes.add(len(grid) ** n <= cap)
            by_grid = draw.form
            by_entry = profile_form(spec, env, profiles, reports)
            values, inverse = np.unique(np.concatenate((profiles.ravel(), reports)),
                                        return_inverse=True)
            assert np.array_equal(by_grid.values, values)
            assert np.array_equal(np.searchsorted(by_grid.values, profiles),
                                  inverse[:profiles.size].reshape(profiles.shape))
            assert np.array_equal(by_grid.r_index, inverse[profiles.size:])
            for name in ("r_index", "lo", "hi", "table", "truthful", "bottom", "top"):
                assert np.array_equal(getattr(by_grid, name), getattr(by_entry, name)), name
            zeros = values == 0.0
            signed_zeros += not np.array_equal(np.signbit(by_grid.values[zeros]),
                                               np.signbit(values[zeros]))
        assert regimes == {True, False}
        # the two builds may keep a different signed zero: np.unique sees
        # its input in another order
        assert signed_zeros >= 3

    def test_no_report_depends_on_the_sign_of_a_kept_zero(self):
        # A batch callable's loop prices profiles and reports directly and
        # reads no value space; a spec's form reads its kept zero. Both must
        # report the same on grids holding 0.0 and -0.0, in either order.
        rng = np.random.default_rng(73)
        for case in range(40):
            env = random_environment(rng, force=(None, "M0", "Mdelta")[case % 3])
            kind = str(rng.choice(fs.classify_environment(env).admitted_types))
            spec = MechanismSpec(kind, target=1 if kind == "type1" else None,
                                 diag_choice=(lambda x: 1 if x <= 0.0 else 2)
                                 if kind in ("type2", "type3") else None,
                                 boundary_choice=2 if kind in ("type4", "type5") else None)
            generic = lambda profiles: mechanisms._batch_apply(spec, env, profiles)
            grid = self.zero_grid(rng)
            for order in (grid, grid[::-1]):
                kw = dict(n=2, max_profiles=int(rng.choice([40, 2048])), seed=case)
                for audit in (fs.audit_strategyproof, fs.audit_lemma_properties):
                    same = repr(audit(spec, env, order, **kw)) == repr(
                        audit(generic, env, order, **kw))
                    assert same, (case, audit.__name__)


class TestPairForm:
    """A spec's form prices each facility's extreme reports once per value
    of lo and of hi and gathers them by row. That must equal the row-by-row
    build (``oracle_spec_form``)."""

    ENV = fs.Environment((0.0, 2.0, 5.0), (1.0, 3.0, 2.0))  # a 21-point grid at m = 3
    SPEC = MechanismSpec("krank", k=2)

    @staticmethod
    def cases():
        rng = np.random.default_rng(79)
        for case in range(160):
            spec, env, n, grid, misreports = TestOrderStatisticPath.random_case(rng, case)
            if case % 4 == 3:
                grid = TestGridIndexForm.zero_grid(rng)
            draw = mechanisms._Draw(spec, env, grid, n, int(rng.choice([60, 400, 2048])),
                                    case)
            reports = draw.points if misreports is None else np.asarray(misreports)
            if case % 7 == 6:
                reports = np.array([])
            rows = rng.choice(len(draw.indices), size=int(rng.integers(1, 40)))
            yield case, spec, env, draw, reports, rows

    def test_matches_the_row_by_row_build(self):
        regimes = dict.fromkeys(("exhaustive", "sampled", "repeated points", "both zeros",
                                 "lo = -1", "hi = size", "no reports", "off-grid reports",
                                 "cheaper facility no report reaches"), 0)
        for case, spec, env, draw, reports, rows in self.cases():
            form = mechanisms._SpecForm(spec, env, draw.points, draw.indices, reports)
            want = oracle_spec_form(spec, env, draw.points, draw.indices, reports)
            size, n = len(want.values), draw.indices.shape[1]
            assert np.array_equal(form.values, want.values), case
            assert np.array_equal(form.table, want.table), case
            every = np.arange(len(draw.indices))
            for got, at in ((form, every), (form.restrict(rows), rows)):
                assert np.array_equal(got.lo, want.lo[at]) and np.array_equal(got.hi, want.hi[at])
                assert got.top.dtype == got.bottom.dtype == np.int32
                for name, value in (("top", want.top[:, at]), ("bottom", want.bottom[:, at]),
                                    ("truthful", want.truthful[at])):
                    assert np.array_equal(getattr(got, name), value), (case, name)
                # sp flags a row where a cheaper facility is one some report reaches
                costs, base = draw.costs[:, at], draw.truthful_cost[at]
                cheaper = mechanisms._sp_breaks(base, costs, fs.EPS_CMP)
                reached = want.top[:, at] >= 0
                assert np.array_equal(mechanisms._sp_rows(got, costs, base, fs.EPS_CMP),
                                      (reached & cheaper).any(axis=0)), case
                regimes["cheaper facility no report reaches"] += bool((cheaper & ~reached).any())
                # every table entry changes() reads, for every report of every row
                fac = oracle_form_changes(want, at)
                flagged = np.ones(got.lo.shape, dtype=bool)
                for i, _, _, got_fac, _ in got.changes(flagged):
                    assert np.array_equal(got_fac, fac[:, i]), (case, i)
            regimes["exhaustive" if len(draw.indices) == len(draw.points) ** n
                    else "sampled"] += 1
            regimes["repeated points"] += len(set(draw.grid)) < len(draw.grid)
            regimes["both zeros"] += len({math.copysign(1.0, v)
                                          for v in draw.grid if v == 0.0}) == 2
            regimes["lo = -1"] += bool((want.lo == -1).any())
            regimes["hi = size"] += bool((want.hi == size).any())
            regimes["no reports"] += not len(reports)
            regimes["off-grid reports"] += not set(reports.tolist()) <= set(draw.grid)
        assert min(regimes.values()) >= 5, regimes

    def test_no_row_array_until_read(self):
        # Deterministic counts, not timings: the built form holds no
        # (m, P, n) array; reading top or bottom gathers one and keeps
        # nothing; restrict shares the per-value tables and copies only
        # (rows, n) arrays.
        draw = mechanisms._Draw(self.SPEC, self.ENV, None, 3, 2048, 1)
        form = mechanisms._SpecForm(self.SPEC, self.ENV, draw.points, draw.indices,
                                    draw.points)
        m, (p, n) = self.ENV.m, draw.indices.shape

        def row_arrays(obj, count):
            return sorted(name for name, a in vars(obj).items()
                          if isinstance(a, np.ndarray) and a.size == count)

        assert row_arrays(form, m * p * n) == []
        for name in ("top", "bottom"):
            assert getattr(form, name).shape == (m, p, n)
        assert row_arrays(form, m * p * n) == []
        g = len(draw.points)
        rows = mechanisms._rows_of(draw.indices, mechanisms._grid_indices(g, 3, 512, 1), g)
        part = form.restrict(rows)
        for name, a in vars(part).items():
            if isinstance(a, np.ndarray):
                assert a is getattr(form, name) or a.size <= len(rows) * n, name
        assert part.top.shape == (m, len(rows), n)

    def test_memory_is_linear_in_the_grid(self):
        # Deterministic counts, not timings: on a 4000-point grid with 64
        # profiles, no array on the form exceeds m (size + 1) elements, and
        # the build's traced peak stays within a bound linear in the grid,
        # where pricing every (lo, hi) pair would take m (size + 1)^2 int32
        # entries, about 256 MB.
        env = fs.Environment((0.0, 2.5, 5.0, 9.0), (1.0, 3.0, 2.0, 4.0))
        grid = np.linspace(-2.0, 11.0, 4000)
        index = mechanisms._grid_indices(len(grid), 3, 64, 1)
        tracemalloc.start()
        try:
            form = mechanisms._SpecForm(self.SPEC, env, grid, index, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, size = env.m, len(form.values)
        assert max(a.size for a in vars(form).values() if isinstance(a, np.ndarray)) \
            <= m * (size + 1)
        assert peak < 32 * m * (size + 1) * 8, peak

    def test_h_asked_only_where_an_outcome_reads_it(self):
        # A type2 diag_choice that answers 3, no facility, at the top grid
        # point, which no drawn row holds as its smallest report and no
        # report's clip reaches (sp's misreports leave it out; props' rows do
        # not hold it). The spec audits must not ask it there, as neither
        # apply_mechanism on the drawn profiles nor the batch loop does.
        grid = np.linspace(-4.0, 0.0, 400).tolist()
        spec = MechanismSpec("type2", diag_choice=lambda x: 3 if x == 0.0 else 1)
        generic = lambda profiles: mechanisms._batch_apply(spec, ENV_M0, profiles)
        assert not (mechanisms._grid_indices(400, 2, 2048, 19) == 399).all(axis=1).any()
        assert not (mechanisms._grid_indices(400, 2, 512, 19) == 399).any()
        with pytest.raises(fs.ValidationError, match="diag_choice returned 3"):
            fs.apply_mechanism(spec, fs.Profile((0.0, 0.0)), ENV_M0)
        for audit, args in ((fs.audit_strategyproof, (grid, grid[:-1])),
                            (fs.audit_lemma_properties, (grid,))):
            by_spec = audit(spec, ENV_M0, *args, seed=19)
            assert repr(by_spec) == repr(audit(generic, ENV_M0, *args, seed=19))

    @pytest.mark.parametrize("truthful, reached, ends, breaking", [
        (1, 2, (1.0, 20.0), 0),    # leftward: only the smallest report breaks P1
        (2, 1, (-10.0, 9.0), 1),   # rightward: only the largest report breaks P1
    ])
    def test_p1_branch_read_at_its_own_end(self, truthful, reached, ends, breaking):
        # One agent at x = 5, facilities at 0 and 10; the other facility is
        # reached by the reports ``ends``, of which one breaks P1.
        env, x = fs.Environment((0.0, 10.0), (1.0, 1.0)), 5.0
        top = np.full((2, 1, 1), -1, dtype=np.int32)
        bottom = np.full((2, 1, 1), 2, dtype=np.int32)
        top[reached - 1], bottom[reached - 1] = 1, 0
        form = SimpleNamespace(values=np.array(ends), top=top, bottom=bottom,
                               truthful=np.array([[truthful]]))
        p1, _ = mechanisms._lemma_rows(form, np.array([[x]]), np.array([[1.0]]), env, 0.0)
        assert p1.tolist() == [[True]]
        base, alt = (env.locations[f - 1] for f in (truthful, reached))
        flags = [bool(mechanisms._p1_breaks(x, r, base, alt, 0.0)) for r in ends]
        assert flags == [end == breaking for end in range(2)]

    @pytest.mark.parametrize("misreports, checked", [([], 0), ((100.0,), 2048 * 3)])
    def test_no_or_off_grid_misreports(self, misreports, checked):
        # The default grid has 21 points, so the draw samples 2048 profiles.
        generic = lambda profiles: mechanisms._batch_apply(self.SPEC, self.ENV, profiles)
        by_spec, by_loop = (fs.audit_strategyproof(mechanism, self.ENV, misreports=misreports,
                                                   n=3)
                            for mechanism in (self.SPEC, generic))
        assert by_spec == fs.AuditReport("strategyproof", True, (), checked)
        assert repr(by_spec) == repr(by_loop)

    @pytest.mark.parametrize("tol", [0.0, fs.EPS_CMP])
    def test_p1_rows_match_both_branches_at_both_ends(self, tol):
        # _lemma_rows tests P1's rightward branch at each facility's largest
        # report and its leftward branch at its smallest. That must flag the
        # rows _p1_breaks flags at both ends, on reports equal to a true
        # position and to a location +/- tol.
        rng = np.random.default_rng(83)
        flagged, at_x, at_alt = 0, 0, 0
        for case in range(150):
            spec, env, n, grid, _ = TestOrderStatisticPath.random_case(rng, case)
            locs = np.asarray(env.locations, dtype=float)
            grid = sorted({*grid, *(locs - tol).tolist(), *(locs + tol).tolist()})
            profiles = draw_profiles(grid, n, 120, case)
            truthful = mechanisms._batch_apply(spec, env, profiles)
            _, share = mechanisms._split_costs(profiles, truthful, env)
            form = profile_form(spec, env, profiles, np.asarray(grid))
            p1, _ = mechanisms._lemma_rows(form, profiles, share, env, tol)

            loc, base = locs[:, None, None], locs[truthful[:, 0] - 1][:, None]
            reached = form.top >= 0
            both = np.zeros(reached.shape, dtype=bool)
            for end in (form.top, form.bottom):
                r = form.values.take(end, mode="clip")
                both |= mechanisms._p1_breaks(profiles, r, base, loc, tol)
                at_x += bool(((r == profiles) & reached).any())
                at_alt += bool((((r == loc - tol) | (r == loc + tol)) & reached).any())
            assert np.array_equal(p1, (both & reached).any(axis=0)), case
            flagged += bool(p1.any())
        assert min(flagged, at_x, at_alt) >= 10, (flagged, at_x, at_alt)
