"""Strategyproof assignment mechanisms and their audit harnesses.

For a two-facility environment the three thresholds L < M < R (offsets from
the left facility) carve the line into the regions that govern which
strategyproof and anonymous mechanisms exist. The five characterized
mechanism families for two agents, and the k-rank family for any number of
agents and facilities, are implemented as data (:class:`MechanismSpec`) plus
an applier, with every "either facility works here" clause resolved by an
explicit constructor choice so each spec is a function.

The audits are grid-based: real-line quantification is replaced by a finite
grid (:func:`default_audit_grid`) of the facility locations and, for two
facilities, the L/M/R thresholds of the characterization, with small offsets
around them, which is where the two-agent families' violations surface. It
does not hold k-rank's facility switches for n >= 3 or m >= 3. Audits accept
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
``table[hi] == f``. The ends of the part below lo depend on lo alone, and
those of the other two parts on hi alone, so they are priced once per value
of lo and of hi, not once per row. Every load is n, so an outcome is priced
by f alone:

* sp: a report is profitable iff its facility f costs the agent less, by the
  same float ``_split_costs`` gives at load n; a row has one iff some f with
  S(f) nonempty does. The flag is exact.
* P1: a report r above x violates it iff ``loc_f < loc_B``,
  ``not loc_B <= x + tol`` and ``not r <= loc_f + tol`` (:func:`_p1_right`);
  the last holds for every report above one that satisfies it, since float
  addition is monotone. So the largest report of S(f) alone decides the
  reports above x, and by the mirror argument (:func:`_p1_left`) the
  smallest alone decides those below x. The flag is exact, and equals
  :func:`_p1_breaks` at both ends: each branch fires at the other end only
  if it fires at its own.
* P2: ``mid > rhs + tol`` depends on f only. The flag for the other clause,
  ``g(r) > mid + tol`` with ``g(r) = |r - loc_f| - |r - loc_B|``, is a
  superset. Exact g is monotone in r, so its maximum over S(f) is at an end.
  With u = 2^-53 and X the largest magnitude of a value or location, a float
  g(r) is within ``(2u + u^2)(|r - loc_f| + |r - loc_B|) <= 8.01uX`` of g(r).
  Rounding is monotone, so the larger float at the ends plus ``_P2_SLACK * X
  = 32uX`` rounds to at least every report's float (for X < 2^-1026 every
  difference here is exact). Where ``loc_f == loc_B``, g is 0.0: no slack.
* P3 cannot fire: every load is n.

The flags apply :func:`_sp_breaks`, :func:`_p1_breaks` and :func:`_p2_breaks`
to those reports. Only the (profile, agent) rows some f flags get the
per-report pass, which applies them to every report with the expressions a
batch callable's loop uses; no row with a counterexample goes unflagged.

The sp, anon and unanimous audits draw the same profiles for the same grid,
n, profile cap and seed, so they share one :class:`_Draw`: the profiles, the
reports they are audited for (sp's misreports, else the grid), the spec's
one form for those reports, the truthful outcome (taken from that form when
it is built, else from one :func:`_batch_apply`) and every agent's cost at
every facility at load n. The costs are laid out facility-major,
``(m, P, n)``, so that work across facilities is m - 1 elementwise passes
over ``(P, n)`` arrays, and work across agents n - 1 passes over columns: no
reduction runs along a trailing axis of length m or n, where numpy is
slowest. sp reads each facility's cost from it, and unanimity finds each
agent's favorite and the cost gap to her runner-up in one pass over the
facilities.

Each public audit, and :func:`empirical_ratio`, builds its own draw, so a
draw is audited for one report set. ``facshare mech`` runs its audits
through :func:`_run_audits`, which builds one draw for the op, for the
grid's reports. P1-P5 have a smaller default profile cap, but their
profiles are rows of that draw: all g^n profiles are drawn in mixed-radix
order, and a seeded sample is the first rows of the larger sample from the
same seed. So P1-P5 price those rows, from sp's form restricted to them
when sp runs (:meth:`_SpecForm.restrict`); when the rows do not match,
they take a draw of their own. Either way the reports are the same.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from ._blockdp import _block_values, _unit_weights
from .costs import EPS_CMP, _facility_costs, _loads, _split_costs
from .model import (Assignment, Environment, Profile, ValidationError, _check_scale,
                    _integer, _reals, _require)

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
_PROPS_PROFILES = 512  # P1-P5's default profile cap
_AUDIT_PERMUTATIONS = 100  # anon's default permutation sample for n > 5
_GRID_OFFSET = 1e-3  # the audit grid's neighbors on each side of an anchor
_P2_SLACK = 2.0 ** -48  # 32 units of roundoff: the P2 flag's margin per unit magnitude


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


# The two-facility case split: five disjoint rows in order along M, each
# with the families it admits besides type1, which exists everywhere.
_ROWS = {"M < 0": (), "M = 0": ("type2",), "0 < M < delta": ("type4", "type5"),
         "M = delta": ("type3",), "M > delta": ()}


@dataclass(frozen=True)
class EnvironmentClass:
    """Where M lies against 0 and delta, and which mechanism families are
    constructible for the environment.

    ``conditions`` holds the one row of the five-way case split that holds:
    ``"M < 0"`` (2*delta < b1 - b2), ``"M = 0"`` (2*delta = b1 - b2),
    ``"0 < M < delta"`` (|b1 - b2| < 2*delta), ``"M = delta"``
    (2*delta = b2 - b1) or ``"M > delta"`` (2*delta < b2 - b1). When
    delta <= 2*tol both equality rows may hold: ``("M = 0", "M = delta")``.
    ``admitted_types`` is type1 plus the families those rows admit.
    ``boundary_gaps`` reports the distance of M to each equality boundary.
    """

    params: EnvParams
    conditions: tuple[str, ...]
    admitted_types: tuple[str, ...]
    boundary_gaps: dict[str, float]


def classify_environment(env: Environment, tol: float = EPS_CMP) -> EnvironmentClass:
    """The case split, decided once on M within ``tol``: M < -tol,
    |M| <= tol, tol < M < delta - tol and |M - delta| <= tol name the first
    four rows, and ``"M > delta"`` is every M they leave. That is
    M > delta + tol, and also the one float M = fl(delta - tol) where that
    rounds below delta - tol, which neither the interior test nor the
    M = delta test takes."""
    params = env_params(env)
    m, delta = params.M, params.delta
    tests = (m < -tol, abs(m) <= tol, tol < m < delta - tol, abs(m - delta) <= tol)
    conditions = tuple(row for row, holds in zip(_ROWS, tests) if holds) or ("M > delta",)
    families = tuple(kind for row in conditions for kind in _ROWS[row])
    return EnvironmentClass(
        params=params,
        conditions=conditions,
        admitted_types=("type1",) + families,
        boundary_gaps={"M=0": abs(m), "M=delta": abs(m - delta)},
    )


def _require_admitted(kind: str, env: Environment, tol: float, what: str) -> EnvParams:
    """Raise :class:`MechanismPreconditionError` naming ``what`` unless
    :func:`classify_environment` admits the two-facility family ``kind``."""
    cls = classify_environment(env, tol)
    if kind not in cls.admitted_types:
        row = next(row for row, kinds in _ROWS.items() if kind in kinds)
        raise MechanismPreconditionError(
            f"{what} requires {row}, got M = {cls.params.M}, "
            f"delta = {cls.params.delta}")
    return cls.params


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
    params = doc.get("params", {})
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
    if spec.kind == "krank":
        if n is not None and not 1 <= spec.k <= n:
            raise MechanismPreconditionError(
                f"krank requires 1 <= k <= n (k={spec.k}, n={n})")
        return
    if spec.kind == "type1":
        if spec.target > env.m:
            raise MechanismPreconditionError(
                f"type1 target {spec.target} exceeds m={env.m}")
    elif env.m != 2:
        raise MechanismPreconditionError(f"{spec.kind} requires m = 2")
    if n is not None and n != 2:
        raise MechanismPreconditionError(f"{spec.kind} is defined for n = 2")
    if spec.kind != "type1":
        _require_admitted(spec.kind, env, tol, spec.kind)


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
    _check_scale(env, profile.positions, profile.n, "profile and environment")
    row = _batch_apply(spec, env, np.array([profile.positions]))[0]
    return Assignment(tuple(row.tolist()))


def resolve_x_star(spec: MechanismSpec, env: Environment) -> float:
    """Supremum of the diagonal's facility-1 region: the largest common report
    for which the mechanism still answers "both to facility 1".

    Resolved analytically for type1, type4 and type5. The diagonal of type2
    and type3, a constant or a per-position callable alike, is bracketed by
    bisection under the assumption that its facility-1 region is a left ray,
    which strategyproofness forces for the families where the diagonal
    matters. A constant ends at the bisection's early exits: the anchor,
    ``+inf`` or ``-inf``.
    """
    validate_spec(spec, env)
    if spec.kind == "krank":
        raise MechanismPreconditionError(
            "x* is not defined for krank: its diagonal outcome depends on n")
    if spec.kind == "type1":
        return math.inf if spec.target == 1 else -math.inf
    if spec.kind in ("type4", "type5"):
        return env.locations[0] + env_params(env).M
    anchor = env.locations[0] if spec.kind == "type2" else env.locations[1]
    diag = spec.diag_choice
    choice = diag if callable(diag) else lambda x: diag
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
    x = _reals((x,), "position x")
    _check_scale(env, x, 1, "position x")
    return int(_order_rule(_BEST, env, n)[1](x[0]))


def k_rank(profile: Profile, env: Environment, k: int) -> Assignment:
    """Assign every agent to the best facility of the k-th smallest position."""
    _require(_integer(k, "k", 1) <= profile.n,
             f"k out of range: need 1 <= k <= {profile.n}, got {k}")
    return apply_mechanism(MechanismSpec("krank", k=k), profile, env)


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
    """Positions around the facilities and the two-facility thresholds.

    Anchors: facility locations, the L/M/R thresholds shifted to the left
    facility (two-facility environments), midpoints of consecutive anchors,
    and flanking points outside the span. Each anchor also contributes
    neighbors at +/- 1e-3. ``extra`` appends that many uniform points
    across the padded span.

    M is the switch of type4, type5 and of k-rank at n = 2. The grid does
    not hold k-rank's switch at other n, ``l1 + delta/2 + (b2 - b1)/(2n)``
    for two facilities, nor its switches between facilities when m >= 3.
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


def _grid_indices(g: int, n: int, max_profiles: int, seed: int) -> np.ndarray:
    """The ``(P, n)`` grid indices of an audit's profiles on a g-point grid:
    all g^n when that fits under ``max_profiles``, in mixed-radix order,
    otherwise a seeded uniform sample of ``max_profiles`` of them."""
    max_profiles = _integer(max_profiles, "max_profiles", 1)
    seed = _integer(seed, "seed", 0)
    _require(g > 0, "audit grid must be nonempty")
    if g ** n <= max_profiles:
        # the order of itertools.product(range(g), repeat=n)
        return np.indices((g,) * n).reshape(n, g ** n).T
    return np.random.default_rng(seed).integers(0, g, size=(max_profiles, n))


def _rows_of(indices: np.ndarray, sub: np.ndarray, g: int) -> np.ndarray | None:
    """Where each profile of the grid-index draw ``sub`` sits in the draw
    ``indices`` on the same g-point grid, or None when it does not sit
    there. When ``indices`` holds all g^n profiles, a profile's row is its
    mixed-radix number; otherwise a draw from the same seed with a cap no
    larger is the first rows of the sample. The map is checked, not assumed."""
    p, n = indices.shape
    if p == g ** n:
        rows = sub @ g ** np.arange(n - 1, -1, -1)
    elif len(sub) <= p:
        rows = np.arange(len(sub))
    else:
        return None
    return rows if np.array_equal(indices.take(rows, axis=0), sub) else None


def _batch_outcome(mechanism: BatchMechanism, profiles: np.ndarray, m: int) -> np.ndarray:
    """A batch callable's facilities for ``profiles``: an array of their
    ``(P, n)`` shape and an integer dtype that is not bool, holding 1..m.
    Any other answer raises :class:`ValidationError` naming the fault."""
    outcome = np.asarray(mechanism(profiles))
    what = "mechanism output"
    _require(outcome.shape == profiles.shape,
             f"{what} must have shape {profiles.shape}, got {outcome.shape}")
    _require(outcome.dtype.kind in "iu",
             f"{what} must hold integer facilities, got dtype {outcome.dtype}")
    bad = outcome[(outcome < 1) | (outcome > m)]
    if bad.size:
        raise ValidationError(f"{what} must hold facilities 1..{m}, got {bad[0].item()!r}")
    return outcome


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
            outcome = _batch_outcome(mechanism, mod, env.m)
            yield (i, rows, reports[j:j + 1], outcome[:, i, None],
                   _loads(outcome, env.m)[:, i, None])


class _SpecForm:
    """A spec's outcome under every single-agent report change, in
    value-index space (see the module docstring).

    Agent i of profile p holds ``points[index[p, i]]``; for a draw the
    points are its grid and the index its grid indices. ``values`` are the
    sorted distinct points and report values. When agent i of profile p
    reports the value of index v, the k-th smallest report becomes
    ``clip(v, lo, hi)``, where ``lo[p, i]`` and ``hi[p, i]`` are the
    (k-1)-th and k-th smallest reports of the others (-1 and ``size`` stand
    for -inf and +inf), so everyone goes to ``table[clip(v, lo, hi)]`` and
    every load is n.

    ``table`` holds ``h`` only where an order statistic can take the value,
    as :func:`apply_mechanism` asks it: each profile's k-th smallest, which
    ``truthful`` reads, and ``clip(r, lo, hi)`` for each report r, which
    :meth:`changes` reads. It is 0 elsewhere and at its trailing entry,
    which ``lo = -1`` and ``hi = size`` both read. Over a profile's agents
    the intervals ``[lo, hi]`` cover exactly ``[a, c]``, its (k-1)-th and
    (k+1)-th smallest, and every lo other than its k-th smallest is a, every
    hi other than it c; so these values are found per profile.

    :attr:`bottom` and :attr:`top` are ``(m, P, n)`` int32 value indices:
    the smallest and the largest report by which agent i of profile p sends
    everyone to facility f + 1, or ``size`` and -1 where no report does, so
    some report does where ``top >= 0``. Those reports, S(f), are the
    ones at or below lo when ``table[lo] == f``, those inside (lo, hi) with
    ``table[r] == f``, and those at or above hi when ``table[hi] == f``. So
    the largest is, when it lies above lo, the largest at or above hi or
    else inside below hi, which hi alone fixes; otherwise it is the largest
    at or below lo, which lo alone fixes. The smallest mirrors it. Each side
    is priced once per value of lo or of hi, in ``(m, size + 1)`` int32
    tables, and a read gathers both sides by row and picks one by a single
    comparison. The form holds these tables and the ``(P, n)`` rows ``lo``
    and ``hi``; no ``(m, P, n)`` array exists until a read. The tables read
    ``table[lo]`` only with a report at or below lo, ``table[hi]`` only with
    one at or above hi and ``table[r]`` at reports inside (lo, hi): values
    ``clip`` takes.
    """

    def __init__(self, spec: MechanismSpec, env: Environment, points: np.ndarray,
                 index: np.ndarray, reports: np.ndarray) -> None:
        p, n = index.shape
        k, h = _order_rule(spec, env, n)
        values, inverse = np.unique(np.concatenate((points, reports)), return_inverse=True)
        index, r_index = inverse[:len(points)][index], inverse[len(points):]
        size = len(values)
        # The others' j-th smallest, for j = k - 1 and k, drops one copy of the
        # agent's own value from the sorted row.
        ranked = np.column_stack((np.full(p, -1), np.sort(index, axis=1),
                                  np.full(p, size)))
        a, mid, c = (ranked[:, j] for j in (k - 1, k, k + 1))
        self.lo = np.where(a[:, None] < index, a[:, None], mid[:, None])
        self.hi = np.where(mid[:, None] < index, mid[:, None], c[:, None])
        # clip(r, lo, hi) is lo for some r below lo, hi for some r above hi,
        # and r itself when some interval [lo, hi], so some [a, c], holds it.
        seen = np.zeros(size, dtype=bool)
        seen[mid] = True
        if len(r_index):
            seen[a[a > r_index.min()]] = True
            seen[c[c < r_index.max()]] = True
            edges = (np.bincount(np.maximum(a, 0), minlength=size + 1)
                     - np.bincount(np.minimum(c, size - 1) + 1, minlength=size + 1))
            seen[r_index[np.cumsum(edges)[r_index] > 0]] = True
        self.table = np.zeros(size + 1, dtype=int)
        self.table[:-1][seen] = h(values[seen])
        self.truthful = np.broadcast_to(self.table[mid, None], (p, n))
        self.values, self.reports, self.r_index = values, reports, r_index
        # Each facility's reports, then all (row m): the last at or below each
        # value index, the first at or above it, and a last column of none.
        m = env.m
        fac = np.arange(1, m + 1)[:, None]
        holds = np.zeros((m + 1, size + 1), dtype=bool)
        holds[m, r_index] = True
        holds[:m] = holds[m] & (self.table == fac)
        idx = np.arange(size + 1, dtype=np.int32)
        last = np.maximum.accumulate(np.where(holds, idx, -1), axis=1)
        last[:, -1] = -1
        first = np.minimum.accumulate(np.where(holds, idx, size)[:, ::-1], axis=1)[:, ::-1]
        # Every lo and every hi; lo = -1 is the last column, where take wraps,
        # and table[-1] = table[size] = 0.
        lo, hi = np.roll(np.arange(-1, size, dtype=np.int32), -1), idx
        below = (self.table[lo] == fac) & (first[m, 0] <= lo)
        above = (self.table[hi] == fac) & (last[m, -2] >= hi)
        # top is hi's side where it lies above lo, else lo's side, which is -1
        # when S(f) has no report at or below lo; bottom mirrors it. Where
        # hi's side is a report at or above hi yet not above lo, lo = hi is
        # that report and lo's side holds it too.
        inner = last[:m].take(hi - 1, axis=1)  # f's largest report below hi
        self._top_hi = np.where(above, last[m, -2], inner)
        self._top_lo = np.where(below, last[m].take(lo), -1)
        inner = first[:m].take(lo + 1, axis=1)  # f's smallest report above lo
        self._bottom_lo = np.where(below, first[m, 0], inner)
        self._bottom_hi = np.where(above, first[m].take(hi), size)

    # A read picks into one side's gather in place: no third (m, P, n) array.
    @property
    def top(self) -> np.ndarray:
        side = self._top_hi.take(self.hi, axis=1)
        top = self._top_lo.take(self.lo, axis=1)
        np.copyto(top, side, where=self.lo < side)
        return top

    @property
    def bottom(self) -> np.ndarray:
        side = self._bottom_lo.take(self.lo, axis=1)
        bottom = self._bottom_hi.take(self.hi, axis=1)
        np.copyto(bottom, side, where=side < self.hi)
        return bottom

    def restrict(self, rows: np.ndarray) -> _SpecForm:
        """The form of the profiles at ``rows`` alone: ``lo``, ``hi`` and
        ``truthful`` taken by row; ``values``, ``table`` and the per-value
        tables shared, as they price every row alike."""
        # take along an axis picks rows several times faster than a[rows]
        form = copy.copy(self)
        form.lo, form.hi, form.truthful = (a.take(rows, axis=0)
                                           for a in (self.lo, self.hi, self.truthful))
        return form

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
    default) with the reports it is audited for, ``misreports`` or else the
    grid, and what the audits price on it, once (see the module docstring).
    ``indices`` are the profiles' grid indices, and :attr:`form` is the
    spec's :class:`_SpecForm` for the draw's reports. A ``facshare mech`` op
    builds one draw (:func:`_run_audits`): P1-P5 price the rows of it that
    hold their own profiles (:meth:`restrict`), with its form when sp built
    one, and take a draw of their own when their profiles are not rows of
    it, with the same reports either way.

    The grid's cost scale is checked at one agent, since the audits price
    one agent at a time; the misreports are checked last, after the grid,
    the profile cap and the seed."""

    def __init__(self, mechanism: Mechanism, env: Environment, grid: Sequence[float] | None,
                 n: int, max_profiles: int = _AUDIT_PROFILES, seed: int = 0,
                 misreports: Sequence[float] | None = None) -> None:
        n = _integer(n, "n", 1)
        if isinstance(mechanism, MechanismSpec):
            validate_spec(mechanism, env, n=n)
        elif not callable(mechanism):
            raise ValidationError("mechanism must be a MechanismSpec or a batch callable")
        self.mechanism, self.env, self.seed = mechanism, env, seed
        self.grid = (default_audit_grid(env) if grid is None
                     else _reals(grid, "audit grid positions"))
        _check_scale(env, self.grid, 1, "audit grid positions")
        self.points = np.array(self.grid)
        self.indices = _grid_indices(len(self.points), n, max_profiles, seed)
        self.profiles = self.points[self.indices]
        if misreports is not None:
            misreports = _reals(misreports, "misreport positions")
            _check_scale(env, misreports, 1, "misreport positions")
        self.reports = self.points if misreports is None else np.array(misreports)

    def restrict(self, rows: np.ndarray) -> _Draw:
        """The draw of the profiles at ``rows`` alone, on this draw's checked
        grid and reports, with its form, when built, restricted to them."""
        draw = object.__new__(_Draw)
        draw.mechanism, draw.env, draw.seed = self.mechanism, self.env, self.seed
        draw.grid, draw.points, draw.reports = self.grid, self.points, self.reports
        draw.indices, draw.profiles = (a.take(rows, axis=0)
                                       for a in (self.indices, self.profiles))
        if "form" in vars(self):
            draw.form = self.form.restrict(rows)
        return draw

    @functools.cached_property
    def form(self) -> _SpecForm:
        """The spec's form for the draw's reports."""
        return _SpecForm(self.mechanism, self.env, self.points, self.indices, self.reports)

    def changes(self, flagged: Callable[[_SpecForm], np.ndarray]) -> Iterator[tuple]:
        """:func:`_batch_changes`' outcomes for the draw's reports; a spec's,
        on the rows ``flagged`` picks, from its form, built before anything
        reads :attr:`outcome`."""
        if isinstance(self.mechanism, MechanismSpec):
            return self.form.changes(flagged(self.form))
        return _batch_changes(self.mechanism, self.env, self.profiles, self.reports)

    @functools.cached_property
    def outcome(self) -> np.ndarray:
        """The ``(P, n)`` truthful facilities."""
        if "form" in vars(self):
            return self.form.truthful
        if isinstance(self.mechanism, MechanismSpec):
            return _batch_apply(self.mechanism, self.env, self.profiles)
        return _batch_outcome(self.mechanism, self.profiles, self.env.m)

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


def _p1_right(x: np.ndarray, report: np.ndarray, base_loc: np.ndarray,
              alt_loc: np.ndarray, tol: float) -> np.ndarray:
    """:func:`_p1_breaks` right of ``x``: once it holds, it holds further right."""
    return ((report > x) & (alt_loc < base_loc)
            & ~(report <= alt_loc + tol) & ~(base_loc <= x + tol))


def _p1_left(x: np.ndarray, report: np.ndarray, base_loc: np.ndarray,
             alt_loc: np.ndarray, tol: float) -> np.ndarray:
    """:func:`_p1_breaks` left of ``x``: once it holds, it holds further left."""
    return ((report < x) & (base_loc < alt_loc)
            & ~(x <= base_loc + tol) & ~(alt_loc <= report + tol))


def _p1_breaks(x: np.ndarray, report: np.ndarray, base_loc: np.ndarray,
               alt_loc: np.ndarray, tol: float) -> np.ndarray:
    """Moving the report from ``x`` moves the facility, from ``base_loc`` to
    ``alt_loc``, strictly the other way, although the move starts more than
    ``tol`` short of the old facility and ends more than ``tol`` past the new
    one."""
    return (_p1_right(x, report, base_loc, alt_loc, tol)
            | _p1_left(x, report, base_loc, alt_loc, tol))


def _p2_breaks(lhs: np.ndarray, mid: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """The share difference ``mid`` leaves ``[lhs, rhs]`` by more than ``tol``."""
    return (lhs > mid + tol) | (mid > rhs + tol)


def _sp_rows(form: _SpecForm, costs: np.ndarray, base_cost: np.ndarray,
             tol: float) -> np.ndarray:
    """The ``(P, n)`` rows with a profitable report: some facility a report
    reaches costs less, by the draw's ``(m, P, n)`` costs at load n."""
    return ((form.top >= 0) & _sp_breaks(base_cost, costs, tol)).any(axis=0)


def _p2_bound(values: np.ndarray, ends: Sequence[np.ndarray], loc: np.ndarray,
              base: np.ndarray) -> np.ndarray:
    """For each facility f at ``loc``, an ``(m, P, n)`` bound on the float
    ``|r - loc_f| - |r - base|`` over the reports r that send everyone to f,
    read where one does, from the values ``ends`` of f's extreme reports:
    the larger float there, plus :data:`_P2_SLACK` times the largest
    magnitude of ``values`` and ``loc`` unless ``loc_f == base``."""
    bound = np.maximum(*(np.abs(r - loc) - np.abs(r - base) for r in ends))
    scale = max(-values[0], values[-1], np.abs(loc).max())
    return bound + np.where(loc == base, 0.0, _P2_SLACK * scale)


def _lemma_rows(form: _SpecForm, profiles: np.ndarray, truthful_share: np.ndarray,
                env: Environment, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(P, n)`` rows with a report that breaks P1, by :func:`_p1_right`
    at each facility's largest report and :func:`_p1_left` at its smallest,
    and a superset of those with one that breaks P2, by :func:`_p2_breaks`
    at :func:`_p2_bound`, all at once."""
    locs = np.asarray(env.locations, dtype=float)
    loc, base = locs[:, None, None], locs[form.truthful[:, 0] - 1][:, None]
    share = (np.asarray(env.building_costs) / profiles.shape[1])[:, None, None]
    top = form.top
    # some value where no report reaches f
    ends = [form.values.take(end, mode="clip") for end in (top, form.bottom)]
    p2 = _p2_breaks(_p2_bound(form.values, ends, loc, base), truthful_share - share,
                    np.abs(profiles - loc) - np.abs(profiles - base), tol)
    p1 = (_p1_right(profiles, ends[0], base, loc, tol)
          | _p1_left(profiles, ends[1], base, loc, tol))
    reached = top >= 0
    return (p1 & reached).any(axis=0), (p2 & reached).any(axis=0)


@dataclass(frozen=True)
class Counterexample:
    """One audit violation. ``deviation`` is the misreported position for
    strategyproofness, the permutation for anonymity, and the expected
    facility for unanimity. ``cost_before`` and ``cost_after`` are the
    agent's truthful and lied cost for strategyproofness; for P2 they are
    not costs but the sandwich bounds ``|r - l_alt| - |r - l_base|`` and
    ``|x - l_alt| - |x - l_base|`` at report ``r`` and true position ``x``;
    every other audit leaves them ``None``."""

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
    return _audit_sp(_Draw(mechanism, env, grid, n, max_profiles, seed, misreports), tol)


def _audit_sp(draw: _Draw, tol: float = EPS_CMP) -> AuditReport:
    """:func:`audit_strategyproof` on a draw, over the draw's reports; a spec
    prices the rows its form flags (:func:`_sp_rows`)."""
    profiles, env = draw.profiles, draw.env
    changes = draw.changes(lambda form: _sp_rows(form, draw.costs, draw.truthful_cost, tol))
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
    return _finish("strategyproof", bad, profiles.size * len(draw.reports))


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
            return np.sort(permuted + 1j * _batch_outcome(mechanism, permuted, draw.env.m),
                           axis=1)

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
                           n: int = 2, max_profiles: int = _PROPS_PROFILES, seed: int = 0,
                           tol: float = EPS_CMP) -> LemmaPropertyReport:
    """Check P1 (no jumping over the move interval), P2 (the share-difference
    sandwich), P3 (same facility implies same load) over report changes, and
    for n = 2 also P4 (agents on one side pool) and P5 (never cross-assign
    when the agent gap meets the facility gap)."""
    return _audit_props(_Draw(mechanism, env, grid, n, max_profiles, seed), tol)


def _audit_props(draw: _Draw, tol: float = EPS_CMP) -> LemmaPropertyReport:
    """:func:`audit_lemma_properties` on a draw, over the draw's reports; a
    spec prices the rows its form flags (:func:`_lemma_rows`)."""
    profiles, env = draw.profiles, draw.env
    n = profiles.shape[1]
    changes = draw.changes(lambda form: np.logical_or(
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

    checked = profiles.size * len(draw.reports)
    return LemmaPropertyReport(
        p1=_finish("P1", bad1, checked),
        p2=_finish("P2", bad2, checked),
        p3=_finish("P3", bad3, checked),
        p4=p4,
        p5=p5,
    )


def _run_audits(spec: MechanismSpec, env: Environment, grid: Sequence[float],
                n: int, tokens: Sequence[str],
                seed: int) -> dict[str, AuditReport | LemmaPropertyReport]:
    """The reports of ``facshare mech``'s audits, each of sp, anon,
    unanimous and props in ``tokens`` once, in order, on one draw with the
    default caps. An unknown token raises :class:`ValidationError` before
    the draw is built.

    props prices the rows of the draw that hold its profiles, with sp's form
    restricted to them when sp runs too, and draws its own profiles when
    they are not rows of it (:func:`_rows_of`). Every report is the one the
    public audit gives alone with the same grid and seed."""
    def props(draw: _Draw) -> LemmaPropertyReport:
        g = len(draw.points)
        rows = _rows_of(draw.indices, _grid_indices(g, n, _PROPS_PROFILES, seed), g)
        return _audit_props(_Draw(spec, env, grid, n, _PROPS_PROFILES, seed) if rows is None
                            else draw.restrict(rows))

    audits = {"sp": _audit_sp, "anon": _audit_anon, "unanimous": _audit_unanimous,
              "props": props}
    wanted = dict.fromkeys(tokens)
    for token in wanted:
        _require(token in audits, f"unknown audit {token!r}; expected {', '.join(audits)}")
    draw = _Draw(spec, env, grid, n, _AUDIT_PROFILES, seed)
    if "sp" in wanted and "props" in wanted:
        draw.form  # one form for both, before either audit or the outcome reads it
    return {token: audits[token](draw) for token in wanted}


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
    params = _require_admitted("type4", env, EPS_CMP, "ratio lower bound")
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
    # the n agents' costs are summed, so the grid is checked at n too
    _check_scale(env, draw.grid, n, "audit grid positions")
    profiles = draw.profiles
    mech_cost = np.add(*draw.split).sum(axis=1)

    opt = _block_values(np.sort(profiles, axis=1), np.asarray(env.locations, dtype=float),
                        np.asarray(env.building_costs, dtype=float), _unit_weights(n))
    ratios = mech_cost / opt
    at = int(np.argmax(ratios))
    return EmpiricalRatio(float(ratios[at]), _plain(profiles[at]))
