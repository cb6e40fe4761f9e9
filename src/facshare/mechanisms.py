"""Strategyproof assignment mechanisms and their audit harnesses.

For a two-facility environment the three thresholds L < M < R (offsets from
the left facility) carve the line into the regions that govern which
strategyproof and anonymous mechanisms exist. The five characterized
mechanism families for two agents, and the k-rank family for any number of
agents and facilities, are implemented as data (:class:`MechanismSpec`) plus
an applier, with every "either facility works here" clause resolved by an
explicit constructor choice so each spec is a function.

The audits are grid-based: real-line quantification is replaced by a finite
grid that always contains the case boundaries of the characterization (and
small offsets around them), which is where violations surface. Audits accept
either a :class:`MechanismSpec` or any callable mapping a ``(P, n)`` batch of
position profiles to a ``(P, n)`` batch of 1-based facility indices, so
deliberately broken mechanisms can be audited too. A callable is applied to
every altered batch; a spec is audited through its order-statistic form
(:func:`_order_rule`), evaluated once per distinct position. That form makes
a spec anonymous by construction: a permutation leaves each row's k-th
smallest report, and so its outcome, unchanged.

It also lets the strategyproofness and P1-P3 audits of a spec work per
(profile, agent, facility) instead of per (profile, agent, report). When
agent i of profile p reports r, everyone goes to ``table[clip(r, lo, hi)]``
(:class:`_SpecForm`), so the reports that send everyone to facility f,
S(f), are those at or below lo when ``table[lo] == f``, the interior ones
``lo < r < hi`` with ``table[r] == f``, and those at or above hi when
``table[hi] == f``. Every load is n, so an outcome is priced by f alone:

* sp: a report is profitable iff its facility f costs the agent less, by the
  same float ``_split_costs`` gives at load n; a row has one iff some f with
  S(f) nonempty does.
* P1: a report r above x violates it iff ``loc_f < loc_B``,
  ``not loc_B <= x + tol`` and ``not r <= loc_f + tol``; the last holds for
  every report above one that satisfies it, since float addition is
  monotone. So the largest report of S(f) decides the reports above x, and
  by the mirror argument the smallest decides those below x. The below-x
  clause at the largest fires only if it does at the smallest, and vice versa.
* P2: ``mid > rhs + tol`` depends on f only, and
  ``|r - loc_f| - |r - loc_B| > mid + tol`` holds for some report of S(f)
  iff it holds for the largest such difference. Taking a maximum rounds
  nothing, so that maximum, over a prefix, a suffix and an interior range
  (two overlapping sparse-table windows), is exactly a report's value.
* P3 cannot fire: every load is n.

The flags apply :func:`_sp_breaks`, :func:`_p1_breaks` and :func:`_p2_breaks`
to those reports. Only the (profile, agent) rows some f flags get the
per-report pass, which applies them to every report with the expressions a
batch callable's loop uses, so reports are identical to checking every report.

The sp, anon and unanimous audits draw the same profiles for the same grid,
n, profile cap and seed, so they share one :class:`_Draw`: the profiles, the
truthful outcome (taken from sp's form when sp built one, else from one
:func:`_batch_apply`) and every agent's cost at every facility at load n.
Each public audit builds its own draw; ``facshare mech`` builds one for all
three. The costs are laid out facility-major, ``(m, P, n)``, so that work
across facilities is m - 1 elementwise passes over ``(P, n)`` arrays, and
work across agents n - 1 passes over columns: no reduction runs along a
trailing axis of length m or n, where numpy is slowest. sp reads each
facility's cost from it, and unanimity finds each agent's favorite and the
cost gap to her runner-up in one pass over the facilities. P1-P5 and
:func:`empirical_ratio` take draws of their own: their default profile caps
differ, and so would their profiles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from ._blockdp import _block_values, _unit_weights
from .costs import EPS_CMP, _facility_costs, _loads, _split_costs
from .model import (Assignment, Environment, Profile, ValidationError, _integer, _reals,
                    _require)

__all__ = [
    "MechanismPreconditionError",
    "EnvParams",
    "env_params",
    "EnvironmentClass",
    "classify_environment",
    "MechanismSpec",
    "spec_from_dict",
    "validate_spec",
    "resolve_x_star",
    "apply_mechanism",
    "best_facility",
    "k_rank",
    "nearest_facility_mechanism",
    "default_audit_grid",
    "Counterexample",
    "AuditReport",
    "audit_strategyproof",
    "audit_anonymous",
    "audit_unanimous",
    "LemmaPropertyReport",
    "audit_lemma_properties",
    "ratio_lower_bound_terms",
    "ratio_lower_bound",
    "EmpiricalRatio",
    "empirical_ratio",
]

BatchMechanism = Callable[[np.ndarray], np.ndarray]
Mechanism = Union["MechanismSpec", BatchMechanism]

_AUDIT_PROFILES = 2048  # the sp, anon and unanimous audits' default profile cap
_AUDIT_PERMUTATIONS = 100  # anon's default permutation sample for n > 5
_GRID_OFFSET = 1e-3  # the audit grid's neighbors on each side of an anchor


class MechanismPreconditionError(ValueError):
    """A mechanism spec does not match the environment (or profile size)."""


def _plain(row: np.ndarray) -> tuple[float, ...]:
    return tuple(float(v) for v in row)


# ---------------------------------------------------------------------------
# Environmental parameters and classification


@dataclass(frozen=True)
class EnvParams:
    """Thresholds of a two-facility environment, as offsets from the left
    facility: L = D/2 + b2/4 - b1/2, M = D/2 + b2/4 - b1/4,
    R = D/2 + b2/2 - b1/4 where D is the facility distance. Always L < M < R."""

    L: float
    M: float
    R: float
    delta: float


def env_params(env: Environment) -> EnvParams:
    if env.m != 2:
        raise MechanismPreconditionError("environmental parameters require m = 2")
    b1, b2 = env.building_costs
    delta = env.delta
    return EnvParams(
        L=0.5 * delta + 0.25 * b2 - 0.5 * b1,
        M=0.5 * delta + 0.25 * b2 - 0.25 * b1,
        R=0.5 * delta + 0.5 * b2 - 0.25 * b1,
        delta=delta,
    )


# The precondition of each two-facility family, as its error messages name it.
_NEEDS = {"type2": "M = 0", "type3": "M = delta",
          "type4": "0 < M < delta", "type5": "0 < M < delta"}


def _two_facility_types(params: EnvParams, tol: float) -> tuple[str, ...]:
    """The two-facility families whose precondition holds within ``tol``:
    type2 at M = 0, type3 at M = delta, type4 and type5 at 0 < M < delta."""
    types = ()
    if abs(params.M) <= tol:
        types += ("type2",)
    if abs(params.M - params.delta) <= tol:
        types += ("type3",)
    if tol < params.M < params.delta - tol:
        types += ("type4", "type5")
    return types


@dataclass(frozen=True)
class EnvironmentClass:
    """Which algebraic conditions on (2*delta, b1 - b2) hold, and which
    mechanism families are constructible for the environment.

    ``conditions`` lists every satisfied row of the five-way case split (the
    equal-cost case satisfies two of the strict rows simultaneously, so this
    is deliberately not forced to be unique). ``admitted_types`` comes from
    the constructor preconditions: M = 0 admits type2, M = delta admits
    type3, 0 < M < delta admits type4 and type5; type1 always exists.
    ``boundary_gaps`` reports the distance of M to each equality boundary.
    """

    params: EnvParams
    conditions: tuple[str, ...]
    admitted_types: tuple[str, ...]
    boundary_gaps: dict[str, float]


def classify_environment(env: Environment, tol: float = EPS_CMP) -> EnvironmentClass:
    params = env_params(env)
    b1, b2 = env.building_costs
    two_delta = 2.0 * params.delta
    # The equality rows are the M = 0 and M = delta boundaries scaled by 4:
    # M = (2*delta - (b1 - b2)) / 4 and delta - M = (2*delta - (b2 - b1)) / 4.
    eq_low = abs(two_delta - (b1 - b2)) <= 4.0 * tol
    eq_high = abs(two_delta - (b2 - b1)) <= 4.0 * tol
    conditions = []
    if not eq_low and two_delta < b1 - b2:
        conditions.append("2delta<b1-b2")
    if eq_low:
        conditions.append("2delta=b1-b2")
    if (not eq_low and not eq_high
            and b1 - b2 < two_delta and b2 - b1 < two_delta):
        conditions.append("b1-b2<2delta<b2-b1")
    if eq_high:
        conditions.append("2delta=b2-b1")
    if not eq_high and two_delta > b2 - b1:
        conditions.append("2delta>b2-b1")

    return EnvironmentClass(
        params=params,
        conditions=tuple(conditions),
        admitted_types=("type1", *_two_facility_types(params, tol)),
        boundary_gaps={"M=0": abs(params.M), "M=delta": abs(params.M - params.delta)},
    )


# ---------------------------------------------------------------------------
# Mechanism specs

_KINDS = ("type1", "type2", "type3", "type4", "type5", "krank")

DiagChoice = Union[int, Callable[[float], int]]


@dataclass(frozen=True)
class MechanismSpec:
    """A fully resolved mechanism.

    kind "type1": constant, all agents to ``target``.
    kind "type2" (needs M = 0): all agents to ``diag_choice`` of the smallest
        report when it is <= left facility, to facility 2 otherwise.
    kind "type3" (needs M = delta): all agents to facility 1 while the
        smallest report is < right facility, to ``diag_choice`` of it after.
    kind "type4" / "type5" (need 0 < M < delta): threshold mechanisms on the
        smallest / largest report against M + left facility, with
        ``boundary_choice`` deciding the exact-threshold case.
    kind "krank": all agents to the cheapest all-together facility of the
        k-th smallest report.

    ``diag_choice`` may be a constant facility or a per-position callable;
    the strategyproofness audit is the arbiter of which callables are sound.
    """

    kind: str
    target: int | None = None
    diag_choice: DiagChoice | None = None
    boundary_choice: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown mechanism kind {self.kind!r}")
        for name in ("target", "diag_choice", "boundary_choice", "k"):
            value = getattr(self, name)
            if value is None or (name == "diag_choice" and callable(value)):
                continue
            _integer(value, name, 1)  # a facility number or k
        if self.kind == "type1":
            if self.target not in (1, 2):
                raise ValidationError("type1 requires target in {1, 2}")
        elif self.kind in ("type2", "type3"):
            ok = self.diag_choice in (1, 2) or callable(self.diag_choice)
            if not ok:
                raise ValidationError(
                    f"{self.kind} requires diag_choice in {{1, 2}} or a callable")
        elif self.kind in ("type4", "type5"):
            if self.boundary_choice not in (1, 2):
                raise ValidationError(
                    f"{self.kind} requires boundary_choice in {{1, 2}}")
        else:
            if self.k is None:
                raise ValidationError("krank requires k >= 1")


def spec_from_dict(doc: dict) -> MechanismSpec:
    """Build a spec from the file representation
    ``{"kind": ..., "params": {...}}`` (diag_choice given as "fac1"/"fac2")."""
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ValidationError("mechanism document must be an object with a 'kind'")
    kind = doc["kind"]
    params = doc.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ValidationError("'params' must be an object")
    diag = params.get("diag_choice")
    if isinstance(diag, str):
        if diag not in ("fac1", "fac2"):
            raise ValidationError("diag_choice must be 'fac1' or 'fac2'")
        diag = 1 if diag == "fac1" else 2
    return MechanismSpec(
        kind=kind,
        target=params.get("target"),
        diag_choice=diag,
        boundary_choice=params.get("boundary_choice"),
        k=params.get("k"),
    )


def validate_spec(spec: MechanismSpec, env: Environment, n: int | None = None,
                  tol: float = EPS_CMP) -> None:
    """Check the environment precondition of a spec (and the profile size when
    ``n`` is given); raises :class:`MechanismPreconditionError` naming the
    violated condition."""
    if spec.kind == "type1":
        if spec.target > env.m:
            raise MechanismPreconditionError(
                f"type1 target {spec.target} exceeds m={env.m}")
        if n is not None and n != 2:
            raise MechanismPreconditionError("type1 is defined for n = 2")
        return
    if spec.kind == "krank":
        if n is not None and not 1 <= spec.k <= n:
            raise MechanismPreconditionError(
                f"krank requires 1 <= k <= n (k={spec.k}, n={n})")
        return
    if env.m != 2:
        raise MechanismPreconditionError(f"{spec.kind} requires m = 2")
    if n is not None and n != 2:
        raise MechanismPreconditionError(f"{spec.kind} is defined for n = 2")
    params = env_params(env)
    if spec.kind not in _two_facility_types(params, tol):
        raise MechanismPreconditionError(
            f"{spec.kind} requires {_NEEDS[spec.kind]}, got M = {params.M}, "
            f"delta = {params.delta}")


def _diag_facility(choice: Callable[[float], int], x: float) -> int:
    """A ``diag_choice`` callable's facility at ``x``: 1 or 2, as an integer
    that is not a bool; any other answer raises :class:`ValidationError`."""
    f = choice(x)
    what = f"diag_choice returned {f!r} at position {x!r}; its facility"
    _require(_integer(f, what, 1) <= 2, f"{what} must be 1 or 2")
    return int(f)


def _diagonal(choice: DiagChoice, theta: np.ndarray, onto: np.ndarray,
              other: int) -> np.ndarray:
    """Facility ``other`` at every position, except ``choice`` where ``onto``;
    a callable ``choice`` is asked once per distinct position, ascending."""
    fac = np.full(theta.shape, other, dtype=int)
    if callable(choice):
        values, index = np.unique(theta[onto], return_inverse=True)
        fac[onto] = np.array([_diag_facility(choice, v) for v in values.tolist()],
                             dtype=int)[index]
    else:
        fac[onto] = int(choice)
    return fac


def _order_rule(spec: MechanismSpec, env: Environment,
                n: int) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """The order-statistic form of a spec (Moulin's phantom-median form).

    Every family sends all ``n`` agents to one facility ``h(theta)``, where
    ``theta`` is the ``k``-th smallest report: the smallest for type2-4, the
    largest for type5, the ``k``-th for k-rank, and any for the constant
    type1. Returns ``(k, h)``; ``h`` maps an array of positions to 1-based
    facilities elementwise.
    """
    if spec.kind == "type1":
        return 1, lambda theta: np.full(np.shape(theta), spec.target, dtype=int)
    if spec.kind == "krank":
        return spec.k, lambda theta: _facility_costs(theta, env, n).argmin(axis=-1) + 1
    l1, l2 = env.locations
    if spec.kind == "type2":
        # diagonal choices are only defined left of the left facility
        return 1, lambda theta: _diagonal(spec.diag_choice, theta, theta <= l1, 2)
    if spec.kind == "type3":
        return 1, lambda theta: _diagonal(spec.diag_choice, theta, ~(theta < l2), 1)
    threshold = l1 + env_params(env).M
    return (1 if spec.kind == "type4" else n,
            lambda theta: np.where(theta < threshold, 1,
                                   np.where(theta > threshold, 2, spec.boundary_choice)))


def _batch_apply(spec: MechanismSpec, env: Environment,
                 profiles: np.ndarray) -> np.ndarray:
    """Apply a spec to a (P, n) batch of profiles; returns (P, n) facilities:
    one partition for each row's order statistic, ``h``, then a broadcast."""
    profiles = np.asarray(profiles, dtype=float)
    p, n = profiles.shape
    k, h = _order_rule(spec, env, n)
    theta = np.partition(profiles, k - 1, axis=1)[:, k - 1]
    return np.broadcast_to(h(theta)[:, None], (p, n)).copy()


def apply_mechanism(spec: MechanismSpec, profile: Profile,
                    env: Environment) -> Assignment:
    """Run one mechanism on one profile.

    The profile is sorted internally (the characterized clauses assume
    ordered reports); since every family gives all agents the same facility,
    mapping back to the caller's agent order is trivial.
    """
    validate_spec(spec, env, n=profile.n)
    row = _batch_apply(spec, env, np.array([profile.positions]))[0]
    return Assignment(tuple(row.tolist()))


def resolve_x_star(spec: MechanismSpec, env: Environment) -> float:
    """Supremum of the diagonal's facility-1 region: the largest common report
    for which the mechanism still answers "both to facility 1".

    Resolved analytically for constant choices (the implemented functions are
    known in closed form); per-position diagonal callables are bracketed by
    bisection under the assumption that their facility-1 region is a left
    ray, which strategyproofness forces for the families where the diagonal
    matters.
    """
    validate_spec(spec, env)
    if spec.kind == "type1":
        return math.inf if spec.target == 1 else -math.inf
    if spec.kind in ("type4", "type5"):
        return env.locations[0] + env_params(env).M
    anchor = env.locations[0] if spec.kind == "type2" else env.locations[1]
    choice = spec.diag_choice
    if not callable(choice):
        if spec.kind == "type2":
            return anchor if choice == 1 else -math.inf
        return math.inf if choice == 1 else anchor

    span = max(1.0, abs(env.locations[1] - env.locations[0]),
               abs(anchor)) * 4.0
    # type2's facility-1 region ends at or left of its anchor, type3's at or right
    left = spec.kind == "type2"
    lo, hi = (anchor - span, anchor) if left else (anchor, anchor + span)
    if _diag_facility(choice, hi) == 1:
        return hi if left else math.inf
    if _diag_facility(choice, lo) == 2:
        return -math.inf if left else lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _diag_facility(choice, mid) == 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Best single facility and the k-rank family


_BEST = MechanismSpec("krank", k=1)


def best_facility(x: float, env: Environment, n: int) -> int:
    """Facility minimizing ``|x - loc| + cost/n``: the favorite all-to-one
    outcome of a position when the cost is split n ways. Ties break to the
    smaller index (a fixed arbitrary rule)."""
    n = _integer(n, "n", 1)
    return int(_order_rule(_BEST, env, n)[1](_reals((x,), "position x")[0]))


def k_rank(profile: Profile, env: Environment, k: int) -> Assignment:
    """Assign every agent to the best facility of the k-th smallest position."""
    _require(_integer(k, "k", 1) <= profile.n,
             f"k out of range: need 1 <= k <= {profile.n}, got {k}")
    theta = sorted(profile.positions)[k - 1]
    return Assignment((best_facility(theta, env, profile.n),) * profile.n)


def nearest_facility_mechanism(env: Environment) -> BatchMechanism:
    """Each agent to her nearest facility, ignoring cost shares.

    The natural greedy rule; not strategyproof in general. Used as a negative
    control in the audit suite.
    """
    locs = np.asarray(env.locations, dtype=float)

    def assign(profiles: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(profiles, dtype=float)[..., None]
                      - locs).argmin(axis=-1) + 1

    return assign


# ---------------------------------------------------------------------------
# Audit harness


def default_audit_grid(env: Environment, *, extra: int = 0) -> tuple[float, ...]:
    """Positions covering every case boundary of the characterization.

    Anchors: facility locations, the L/M/R thresholds shifted to the left
    facility (two-facility environments), midpoints of consecutive anchors,
    and flanking points outside the span. Each anchor also contributes
    neighbors at +/- 1e-3. ``extra`` appends that many uniform points
    across the padded span.
    """
    anchors = set(env.locations)
    if env.m == 2:
        params = env_params(env)
        l1 = env.locations[0]
        anchors |= {l1 + params.L, l1 + params.M, l1 + params.R}
    base = sorted(anchors)
    mids = [0.5 * (a + b) for a, b in zip(base, base[1:]) if a != b]
    span = base[-1] - base[0]
    pad = max(1.0, 0.25 * span)
    points = set(base) | set(mids) | {base[0] - pad, base[-1] + pad}
    grid = {p + d for p in points for d in (-_GRID_OFFSET, 0.0, _GRID_OFFSET)}
    if _integer(extra, "extra", 0):
        grid |= set(np.linspace(base[0] - pad, base[-1] + pad, extra).tolist())
    return tuple(sorted(grid))


def _profiles_from_grid(grid: Sequence[float], n: int, max_profiles: int,
                        seed: int) -> np.ndarray:
    """All grid^n profiles when that fits under ``max_profiles``, otherwise a
    seeded uniform sample of ``max_profiles`` profiles from the grid."""
    max_profiles = _integer(max_profiles, "max_profiles", 1)
    seed = _integer(seed, "seed", 0)
    arr = np.array(_reals(grid, "audit grid positions"))
    g = len(arr)
    if g == 0:
        raise ValidationError("audit grid must be nonempty")
    if g ** n <= max_profiles:
        # mixed-radix order, the order of itertools.product(range(g), repeat=n)
        combos = np.indices((g,) * n).reshape(n, g ** n)
        return np.ascontiguousarray(arr[combos].T)
    rng = np.random.default_rng(seed)
    return arr[rng.integers(0, g, size=(max_profiles, n))]


def _batch_changes(mechanism: BatchMechanism, env: Environment, profiles: np.ndarray,
                   reports: np.ndarray) -> Iterator[tuple]:
    """Each agent's facility and its load when she alone switches to one
    report, one altered batch per (agent, report): yields
    ``(i, rows, block, fac, load)`` with ``rows`` every profile, ``block``
    the one report and ``fac``/``load`` of shape ``(P, 1)``."""
    rows = np.arange(len(profiles))
    for i in range(profiles.shape[1]):
        for j, report in enumerate(reports):
            mod = profiles.copy()
            mod[:, i] = report
            outcome = mechanism(mod)
            yield (i, rows, reports[j:j + 1], outcome[:, i, None],
                   _loads(outcome, env.m)[:, i, None])


class _SpecForm:
    """A spec's outcome under every single-agent report change, in
    value-index space (see the module docstring).

    ``values`` are the sorted distinct profile and report values. When agent
    i of profile p reports the value of index v, the k-th smallest report
    becomes ``clip(v, lo[p, i], hi[p, i])``, where lo and hi are the (k-1)-th
    and k-th smallest reports of the others (-1 and ``size`` stand for -inf
    and +inf), so everyone goes to ``table[clip(v, lo, hi)]`` and every load
    is n. ``table`` holds ``h`` on the values that can occur as that order
    statistic, 0 elsewhere, and one trailing 0 that ``lo = -1`` and
    ``hi = size`` both read.
    """

    def __init__(self, spec: MechanismSpec, env: Environment, profiles: np.ndarray,
                 reports: np.ndarray) -> None:
        p, n = profiles.shape
        k, h = _order_rule(spec, env, n)
        values, inverse = np.unique(np.concatenate((profiles.ravel(), reports)),
                                    return_inverse=True)
        index, r_index = inverse.ravel()[:p * n].reshape(p, n), inverse.ravel()[p * n:]
        size = len(values)
        # The others' j-th smallest, for j = k - 1 and k, drops one copy of the
        # agent's own value from the sorted row.
        ranked = np.column_stack((np.full(p, -1), np.sort(index, axis=1),
                                  np.full(p, size)))
        lo, mid, hi = (ranked[:, j, None] for j in (k - 1, k, k + 1))
        lo = np.where(lo < index, lo, mid)
        hi = np.where(mid < index, mid, hi)

        seen = np.zeros(size, dtype=bool)
        seen[mid[:, 0]] = True
        if len(r_index):
            # clip(r, lo, hi) is lo for some r below lo, hi for some r above hi,
            # and r itself when some agent's interval [lo, hi] contains it.
            seen[lo[lo > r_index.min()]] = True
            seen[hi[hi < r_index.max()]] = True
            edges = (np.bincount(np.maximum(lo, 0).ravel(), minlength=size + 1)
                     - np.bincount(np.minimum(hi, size - 1).ravel() + 1,
                                   minlength=size + 1))
            seen[r_index[np.cumsum(edges)[r_index] > 0]] = True
        # One call of h for every seen value; no other value reaches h.
        self.table = np.zeros(size + 1, dtype=int)
        self.table[:-1][seen] = h(values[seen])
        self.truthful = np.broadcast_to(self.table[mid], (p, n))
        self.values, self.reports, self.r_index = values, reports, r_index
        self.lo, self.hi = lo, hi
        self.is_report = np.zeros(size, dtype=bool)
        self.is_report[r_index] = True
        # Where reach_max reads each (p, i) in a row of its table: the
        # interior reports lo < v < hi as two windows of a sparse table,
        # [lo + 1, lo + 2**l] and [hi - 2**l, hi - 1]; the reports at or below
        # lo; those at or above hi; and a trailing -inf for an empty part.
        count = hi - lo - 1
        level = np.array([max(c, 1).bit_length() - 1 for c in range(size + 1)])
        level = level[np.maximum(count, 0)]
        self.levels = int(level.max(initial=0)) + 1
        end = (self.levels + 2) * size
        interior = count > 0
        # int32 offsets: these four (P, n) arrays set the audit's peak memory
        self.at = tuple(part.ravel().astype(np.int32) for part in (
            np.where(interior, level * size + lo + 1, end),
            np.where(interior, level * size + hi - (1 << level), end),
            np.where(lo >= 0, self.levels * size + lo, end),
            np.where(hi < size, end - size + hi, end)))

    def reach_max(self, weight: np.ndarray, key: np.ndarray) -> Iterator[np.ndarray]:
        """For each facility f in turn, ``max weight[c, key[p], f, v]`` over
        the reports v by which agent i of profile p sends everyone to f, as a
        ``(C, P, n)`` array; -inf where no report reaches f. ``weight`` has
        shape ``(C, K, m, size)`` and ``key`` selects each profile's K row."""
        chans, keys, m, size = weight.shape
        w = np.where(self.is_report, weight, -np.inf)
        below = np.maximum.accumulate(w, axis=-1)
        above = np.maximum.accumulate(w[..., ::-1], axis=-1)[..., ::-1]
        # A report v reaches table[v] from the interior; a report at or below
        # lo reaches table[lo], one at or above hi reaches table[hi].
        mine = self.table[:-1] == np.arange(1, m + 1)[:, None]
        parts = [np.where(mine, w, -np.inf)]
        for half in (1 << l for l in range(self.levels - 1)):
            w = parts[-1].copy()
            np.maximum(w[..., :-half], w[..., half:], out=w[..., :-half])
            parts.append(w)
        parts += [np.where(mine, below, -np.inf), np.where(mine, above, -np.inf),
                  np.full(weight.shape[:-1] + (1,), -np.inf)]
        flat = np.concatenate(parts, axis=-1)
        width = flat.shape[-1]
        flat = flat.ravel()
        p, n = self.lo.shape
        row = (np.arange(chans)[:, None] * keys + np.repeat(key, n)) * m
        for f in range(m):
            origin = (row + f) * width
            out = flat.take(origin + self.at[0])
            for part in self.at[1:]:
                np.maximum(out, flat.take(origin + part), out=out)
            yield out.reshape(chans, p, n)

    def changes(self, flagged: np.ndarray) -> Iterator[tuple]:
        """The outcomes of every report for the flagged ``(P, n)`` rows only:
        yields ``(i, rows, reports, fac, n)`` per agent with a flagged row."""
        n = flagged.shape[1]
        for i in range(n):
            rows = np.flatnonzero(flagged[:, i])
            if len(rows):
                theta = np.minimum(np.maximum(self.r_index, self.lo[rows, i, None]),
                                   self.hi[rows, i, None])
                yield i, rows, self.reports, self.table[theta], n


class _Draw:
    """One profile set of an audit on ``grid`` (:func:`default_audit_grid` by
    default), and what the audits price on it, once (see the module
    docstring). ``form`` is the spec's :class:`_SpecForm` once built."""

    def __init__(self, mechanism: Mechanism, env: Environment, grid: Sequence[float] | None,
                 n: int, max_profiles: int = _AUDIT_PROFILES, seed: int = 0) -> None:
        n = _integer(n, "n", 1)
        if isinstance(mechanism, MechanismSpec):
            validate_spec(mechanism, env, n=n)
        elif not callable(mechanism):
            raise ValidationError("mechanism must be a MechanismSpec or a batch callable")
        self.mechanism, self.env, self.seed = mechanism, env, seed
        self.grid = default_audit_grid(env) if grid is None else grid
        self.profiles = _profiles_from_grid(self.grid, n, max_profiles, seed)
        self.form: _SpecForm | None = None

    def changes(self, reports: np.ndarray,
                flagged: Callable[[_SpecForm], np.ndarray]) -> Iterator[tuple]:
        """:func:`_batch_changes`' outcomes; a spec's, on the rows ``flagged``
        picks, from its form, built before anything reads :attr:`outcome`."""
        if isinstance(self.mechanism, MechanismSpec):
            self.form = _SpecForm(self.mechanism, self.env, self.profiles, reports)
            return self.form.changes(flagged(self.form))
        return _batch_changes(self.mechanism, self.env, self.profiles, reports)

    @functools.cached_property
    def outcome(self) -> np.ndarray:
        """The ``(P, n)`` truthful facilities."""
        if self.form is not None:
            return self.form.truthful
        if isinstance(self.mechanism, MechanismSpec):
            return _batch_apply(self.mechanism, self.env, self.profiles)
        return self.mechanism(self.profiles)

    @functools.cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """Each agent's ``(P, n)`` truthful distance and share."""
        return _split_costs(self.profiles, self.outcome, self.env)

    @functools.cached_property
    def truthful_cost(self) -> np.ndarray:
        """Each agent's ``(P, n)`` truthful cost; a spec's loads are all n."""
        if isinstance(self.mechanism, MechanismSpec):
            return self.costs[self.outcome[:, 0] - 1, np.arange(len(self.profiles))]
        return np.add(*self.split)

    @functools.cached_property
    def costs(self) -> np.ndarray:
        """``|x - loc| + b / n``, :func:`_facility_costs`' float, facility first."""
        locs = np.asarray(self.env.locations)[:, None, None]
        share = np.asarray(self.env.building_costs) / self.profiles.shape[1]
        return np.abs(self.profiles - locs) + share[:, None, None]


def _sp_breaks(cost: np.ndarray, lied_cost: np.ndarray, tol: float) -> np.ndarray:
    """A report is profitable: it lowers the agent's true cost by more than ``tol``."""
    return cost - lied_cost > tol


def _p1_breaks(x: np.ndarray, report: np.ndarray, base_loc: np.ndarray,
               alt_loc: np.ndarray, tol: float) -> np.ndarray:
    """Moving the report from ``x`` moves the facility, from ``base_loc`` to
    ``alt_loc``, strictly the other way, although the move starts more than
    ``tol`` short of the old facility and ends more than ``tol`` past the new
    one."""
    return (((report > x) & (alt_loc < base_loc)
             & ~(report <= alt_loc + tol) & ~(base_loc <= x + tol))
            | ((report < x) & (base_loc < alt_loc)
               & ~(x <= base_loc + tol) & ~(alt_loc <= report + tol)))


def _p2_breaks(lhs: np.ndarray, mid: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """The share difference ``mid`` leaves ``[lhs, rhs]`` by more than ``tol``."""
    return (lhs > mid + tol) | (mid > rhs + tol)


def _sp_rows(form: _SpecForm, costs: np.ndarray, base_cost: np.ndarray,
             tol: float) -> np.ndarray:
    """The ``(P, n)`` rows with a profitable report: some facility a report
    reaches costs less, by the draw's ``(m, P, n)`` costs at load n."""
    reach = form.reach_max(np.zeros((1, 1, len(costs), len(form.values))),
                           np.zeros(len(base_cost), dtype=int))
    flagged = np.zeros(base_cost.shape, dtype=bool)
    for (top,), lied_cost in zip(reach, costs):
        flagged |= (top > -np.inf) & _sp_breaks(base_cost, lied_cost, tol)
    return flagged


def _lemma_rows(form: _SpecForm, profiles: np.ndarray, truthful_share: np.ndarray,
                env: Environment, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(P, n)`` rows with a report that breaks P1, and those with one
    that breaks P2, by :func:`_p1_breaks` at each facility's extreme reports
    and :func:`_p2_breaks` at its largest difference (see the module
    docstring), all ``(m, P, n)`` facility rows at once."""
    locs = np.asarray(env.locations, dtype=float)
    x = profiles
    to = form.truthful[:, 0] - 1
    base = locs[to][:, None]
    dist = np.abs(form.values - locs[:, None])
    reach = np.stack(list(form.reach_max(np.stack(np.broadcast_arrays(
        form.values, -form.values, dist - dist[:, None])), to)), axis=1)
    np.negative(reach[1], out=reach[1])  # the smallest report, +inf where none
    top, _, lhs_max = reach
    loc = locs[:, None, None]
    share = (np.asarray(env.building_costs) / x.shape[1])[:, None, None]
    reached = top > -np.inf
    p1 = reached & _p1_breaks(x, reach[:2], base, loc, tol).any(axis=0)
    p2 = reached & _p2_breaks(lhs_max, truthful_share - share,
                              np.abs(x - loc) - np.abs(x - base), tol)
    return p1.any(axis=0), p2.any(axis=0)


@dataclass(frozen=True)
class Counterexample:
    """One audit violation. ``deviation`` is the misreported position for
    strategyproofness, the permutation for anonymity, and the expected
    facility for unanimity; cost fields are filled where they apply."""

    profile: tuple[float, ...]
    agent: int | None
    deviation: object
    cost_before: float | None = None
    cost_after: float | None = None


@dataclass(frozen=True)
class AuditReport:
    property: str
    passed: bool
    counterexamples: tuple[Counterexample, ...]
    checked: int

    def __bool__(self) -> bool:
        return self.passed


def _finish(prop: str, bad: list[Counterexample], checked: int) -> AuditReport:
    bad.sort(key=lambda c: (c.profile, -1 if c.agent is None else c.agent,
                            repr(c.deviation)))
    return AuditReport(prop, not bad, tuple(bad), checked)


def audit_strategyproof(mechanism: Mechanism, env: Environment,
                        grid: Sequence[float] | None = None,
                        misreports: Sequence[float] | None = None, *,
                        n: int = 2, max_profiles: int = _AUDIT_PROFILES, seed: int = 0,
                        tol: float = EPS_CMP) -> AuditReport:
    """Search for a profitable misreport.

    Every (profile, agent, misreport) triple over the grid is checked: the
    agent's true cost under the truthful outcome must not exceed her true
    cost under the outcome of the altered report by more than ``tol``.

    A spec prices each (profile, agent, facility) once: a row is checked
    report by report only when some facility its reports reach is cheaper.
    """
    return _audit_sp(_Draw(mechanism, env, grid, n, max_profiles, seed), misreports, tol)


def _audit_sp(draw: _Draw, misreports: Sequence[float] | None = None,
              tol: float = EPS_CMP) -> AuditReport:
    """:func:`audit_strategyproof` on a draw; a spec leaves its form there."""
    profiles, env = draw.profiles, draw.env
    reports = np.array(_reals(draw.grid if misreports is None else misreports,
                              "misreport positions"))
    changes = draw.changes(
        reports, lambda form: _sp_rows(form, draw.costs, draw.truthful_cost, tol))
    base_cost = draw.truthful_cost
    locs = np.asarray(env.locations)
    b = np.asarray(env.building_costs)

    bad: list[Counterexample] = []
    for i, rows, block, fac, load in changes:
        # agent i's true cost under the altered outcome, as _split_costs prices it
        lied_cost = np.abs(profiles[rows, i, None] - locs[fac - 1]) + b[fac - 1] / load
        mask = _sp_breaks(base_cost[rows, i, None], lied_cost, tol)
        for j, r in zip(*np.nonzero(mask.T)):
            bad.append(Counterexample(
                profile=_plain(profiles[rows[r]]), agent=i, deviation=float(block[j]),
                cost_before=float(base_cost[rows[r], i]),
                cost_after=float(lied_cost[r, j])))
    return _finish("strategyproof", bad, profiles.size * len(reports))


def audit_anonymous(mechanism: Mechanism, env: Environment,
                    grid: Sequence[float] | None = None, *,
                    n: int = 2, max_profiles: int = _AUDIT_PROFILES,
                    max_permutations: int = _AUDIT_PERMUTATIONS,
                    seed: int = 0) -> AuditReport:
    """Check that the position-to-facility outcome is permutation invariant.

    Outcomes are compared as multisets of (position, facility) pairs, so
    co-located agents may trade facility labels freely. All n! permutations
    are tried for n <= 5, a seeded sample of ``max_permutations`` otherwise.

    A spec sends every agent to ``h(theta)``, where ``theta`` is the k-th
    smallest report (:func:`_order_rule`), and a permutation does not move
    the k-th smallest: a spec has no counterexample. Its truthful outcome is
    still computed, so a spec whose ``h`` fails on the grid fails here too.
    A batch callable is checked one permutation at a time.
    """
    return _audit_anon(_Draw(mechanism, env, grid, n, max_profiles, seed),
                       max_permutations)


def _audit_anon(draw: _Draw, max_permutations: int = _AUDIT_PERMUTATIONS) -> AuditReport:
    """:func:`audit_anonymous` on a draw."""
    profiles, mechanism = draw.profiles, draw.mechanism
    n = profiles.shape[1]
    if n <= 5:
        perms = [p for p in itertools.permutations(range(n))
                 if p != tuple(range(n))]
    else:
        max_permutations = _integer(max_permutations, "max_permutations", 0)
        rng = np.random.default_rng(draw.seed)
        perms = [tuple(rng.permutation(n).tolist()) for _ in range(max_permutations)]

    bad: list[Counterexample] = []
    if isinstance(mechanism, MechanismSpec):
        # No hits: the k-th smallest of a row does not depend on its order.
        # The outcome is still computed, so an h that fails here fails the audit.
        draw.outcome
    else:
        def outcome_key(perm):
            permuted = profiles[:, perm]
            return np.sort(permuted + 1j * mechanism(permuted), axis=1)

        base_key = outcome_key(list(range(n)))
        for perm in perms:
            mismatch = np.any(outcome_key(list(perm)) != base_key, axis=1)
            for r in np.nonzero(mismatch)[0]:
                bad.append(Counterexample(profile=_plain(profiles[r]), agent=None,
                                          deviation=perm))
    return _finish("anonymous", bad, len(perms) * len(profiles))


def audit_unanimous(mechanism: Mechanism, env: Environment,
                    grid: Sequence[float] | None = None, *,
                    n: int = 2, max_profiles: int = _AUDIT_PROFILES, seed: int = 0,
                    tol: float = EPS_CMP) -> AuditReport:
    """On profiles where every agent strictly prefers the same all-to-one
    facility, the mechanism must output it.

    Only strict unanimity is enforced: at an exact cost tie both facilities
    are best for the tied agent, so either outcome is consistent with
    unanimity and the profile is skipped.
    """
    return _audit_unanimous(_Draw(mechanism, env, grid, n, max_profiles, seed), tol)


def _audit_unanimous(draw: _Draw, tol: float = EPS_CMP) -> AuditReport:
    """:func:`audit_unanimous` on a draw, facility-major: each agent's
    favorite is the first least facility (``argmin``'s rule), and her gap
    the least cost over the other facilities minus the least cost, the two
    floats a sort's first two entries subtract."""
    costs = draw.costs
    least, favorite = costs[0], np.zeros(costs.shape[1:], dtype=int)
    runner_up = np.full(least.shape, np.inf)
    for f, cost in enumerate(costs[1:], 1):
        np.minimum(runner_up, np.maximum(least, cost), out=runner_up)
        favorite[cost < least] = f
        least = np.minimum(least, cost)
    # one facility (runner_up = +inf) is strictly best
    strict = runner_up - least > tol

    expected = favorite[:, 0] + 1
    outcome = draw.outcome
    unanimous = strict[:, 0].copy()
    differs = outcome[:, 0] != expected
    for i in range(1, costs.shape[2]):
        unanimous &= strict[:, i] & (favorite[:, i] == favorite[:, 0])
        differs |= outcome[:, i] != expected
    bad = [Counterexample(profile=_plain(draw.profiles[r]), agent=None,
                          deviation=int(expected[r]))
           for r in np.flatnonzero(unanimous & differs)]
    return _finish("unanimous", bad, int(np.count_nonzero(unanimous)))


@dataclass(frozen=True)
class LemmaPropertyReport:
    """Structural consequences of strategyproofness plus anonymity, checked
    empirically on the grid. P1-P3 range over single-coordinate report
    changes for any n; P4-P5 are two-agent profile properties."""

    p1: AuditReport
    p2: AuditReport
    p3: AuditReport
    p4: AuditReport | None
    p5: AuditReport | None

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in (self.p1, self.p2, self.p3)
                   ) and all(r is None or r.passed for r in (self.p4, self.p5))


def audit_lemma_properties(mechanism: Mechanism, env: Environment,
                           grid: Sequence[float] | None = None, *,
                           n: int = 2, max_profiles: int = 512, seed: int = 0,
                           tol: float = EPS_CMP) -> LemmaPropertyReport:
    """Check P1 (no jumping over the move interval), P2 (the share-difference
    sandwich), P3 (same facility implies same load) over report changes, and
    for n = 2 also P4 (agents on one side pool) and P5 (never cross-assign
    when the agent gap meets the facility gap)."""
    draw = _Draw(mechanism, env, grid, n, max_profiles, seed)
    profiles = draw.profiles
    reports = np.asarray(draw.grid, dtype=float)
    changes = draw.changes(reports, lambda form: np.logical_or(
        *_lemma_rows(form, profiles, draw.split[1], env, tol)))
    truthful = draw.outcome
    truthful_load = _loads(truthful, env.m)
    truthful_share = draw.split[1]
    locs = np.asarray(env.locations, dtype=float)
    b = np.asarray(env.building_costs)

    bad1: list[Counterexample] = []
    bad2: list[Counterexample] = []
    bad3: list[Counterexample] = []
    for i, rows, block, alt_fac, alt_load in changes:
        base_fac = truthful[rows, i, None]
        base_load = truthful_load[rows, i, None]
        xi = profiles[rows, i, None]
        report = block[None, :]
        base_loc, alt_loc = locs[base_fac - 1], locs[alt_fac - 1]

        for j, r in zip(*np.nonzero(_p1_breaks(xi, report, base_loc, alt_loc, tol).T)):
            bad1.append(Counterexample(_plain(profiles[rows[r]]), i, float(block[j])))

        # P2 sandwich on the share difference.
        mid = truthful_share[rows, i, None] - b[alt_fac - 1] / alt_load
        lhs = np.abs(report - alt_loc) - np.abs(report - base_loc)
        rhs = np.abs(xi - alt_loc) - np.abs(xi - base_loc)
        for j, r in zip(*np.nonzero(_p2_breaks(lhs, mid, rhs, tol).T)):
            bad2.append(Counterexample(_plain(profiles[rows[r]]), i, float(block[j]),
                                       cost_before=float(lhs[r, j]),
                                       cost_after=float(rhs[r, j])))

        # P3: unchanged facility implies unchanged load.
        for j, r in zip(*np.nonzero(((base_fac == alt_fac) & (base_load != alt_load)).T)):
            bad3.append(Counterexample(_plain(profiles[rows[r]]), i, float(block[j])))

    p4 = p5 = None
    if n == 2 and env.m == 2:
        l1, l2 = env.locations
        x_lo = np.minimum(profiles[:, 0], profiles[:, 1])
        x_hi = np.maximum(profiles[:, 0], profiles[:, 1])
        distinct = profiles[:, 0] != profiles[:, 1]
        lo_col = (profiles[:, 0] > profiles[:, 1]).astype(int)
        rows = np.arange(len(profiles))
        f_lo = truthful[rows, lo_col]
        f_hi = truthful[rows, 1 - lo_col]
        overlap = np.maximum(x_lo, l1) < np.minimum(x_hi, l2)
        bad4 = [Counterexample(_plain(profiles[r]), None, "pooling")
                for r in np.nonzero(distinct & ~overlap & (f_lo != f_hi))[0]]
        bad5 = [Counterexample(_plain(profiles[r]), None, "cross")
                for r in np.nonzero(distinct & overlap
                                    & (f_lo == 2) & (f_hi == 1))[0]]
        p4 = _finish("P4", bad4, int((distinct & ~overlap).sum()))
        p5 = _finish("P5", bad5, int((distinct & overlap).sum()))

    checked = profiles.size * len(reports)
    return LemmaPropertyReport(
        p1=_finish("P1", bad1, checked),
        p2=_finish("P2", bad2, checked),
        p3=_finish("P3", bad3, checked),
        p4=p4,
        p5=p5,
    )


# ---------------------------------------------------------------------------
# Approximation ratio


def ratio_lower_bound_terms(env: Environment) -> tuple[float, float]:
    """The two terms whose maximum bounds every strategyproof and anonymous
    two-agent mechanism away from the optimum when 0 < M < delta.

    The first term charges pooling both agents onto one facility when
    splitting them is optimal; the second charges the wrong side of the
    threshold at M. In the unbounded-ratio environment family
    ``((e, e), (0, 1/e - e))`` the first term equals ``1 / (2 e^2)``.
    """
    params = env_params(env)
    if "type4" not in _two_facility_types(params, EPS_CMP):
        raise MechanismPreconditionError(
            f"ratio lower bound requires {_NEEDS['type4']}, got M = {params.M}, "
            f"delta = {params.delta}")
    b1, b2 = env.building_costs
    small, big = min(b1, b2), max(b1, b2)
    return ((small + params.delta) / (b1 + b2),
            (small + params.delta + params.M) / (big + params.M))


def ratio_lower_bound(env: Environment) -> float:
    """Maximum of :func:`ratio_lower_bound_terms`: no strategyproof and
    anonymous two-agent mechanism approximates the social cost better."""
    return max(ratio_lower_bound_terms(env))


@dataclass(frozen=True)
class EmpiricalRatio:
    worst_ratio: float
    witness_profile: tuple[float, ...]


def empirical_ratio(mechanism: Mechanism, env: Environment,
                    grid: Sequence[float] | None = None, *,
                    n: int = 2, max_profiles: int = 4096,
                    seed: int = 0) -> EmpiricalRatio:
    """Worst social-cost ratio of the mechanism against the optimum over grid
    profiles; returns the first maximizing profile. The optimum of every
    profile is the block DP's value under unit size weights, all profiles
    in one batch."""
    draw = _Draw(mechanism, env, grid, n, max_profiles, seed)
    profiles = draw.profiles
    mech_cost = np.add(*draw.split).sum(axis=1)

    opt = _block_values(np.sort(profiles, axis=1), np.asarray(env.locations, dtype=float),
                        np.asarray(env.building_costs, dtype=float), _unit_weights(n))
    ratios = mech_cost / opt
    at = int(np.argmax(ratios))
    return EmpiricalRatio(float(ratios[at]), _plain(profiles[at]))
