"""Independent checks of facshare CLI outputs, and a planted-failure self-test.

Costs are recomputed with numpy from the instance data the benchmark wrote,
in the file's facility numbering. Nothing here calls the library's solvers
or its equilibrium check, so a wrong answer cannot pass by agreeing with the
code that produced it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
EPS_CMP = 1e-9  # the audits' own comparison tolerance, used to recount them
SP_CAP = 2048   # the CLI audits' default profile caps
PROPS_CAP = 512


class CheckFailed(AssertionError):
    """An output is wrong; the message says which invariant broke."""


@dataclass(frozen=True)
class Inst:
    """Agent positions, facility locations and building costs, in file order."""

    x: np.ndarray
    loc: np.ndarray
    cost: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def m(self) -> int:
        return len(self.loc)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(reported: float, expected: float, what: str) -> None:
    _require(abs(reported - expected) <= REL_TOL * max(1.0, abs(expected)),
             f"{what}: reported {reported!r}, recomputed {expected!r}")


def _choices(inst: Inst, raw) -> np.ndarray:
    c = np.asarray(raw)
    _require(c.shape == (inst.n,) and c.dtype.kind == "i",
             f"assignment must list {inst.n} integer facilities")
    _require(bool(((c >= 1) & (c <= inst.m)).all()), "facility index out of range")
    return c - 1


def _connection(inst: Inst, c: np.ndarray) -> np.ndarray:
    return np.abs(inst.x - inst.loc[c])


def social_cost(inst: Inst, c: np.ndarray) -> float:
    load = np.bincount(c, minlength=inst.m)
    return float((_connection(inst, c) + inst.cost[c] / load[c]).sum())


def potential(inst: Inst, c: np.ndarray) -> float:
    load = np.bincount(c, minlength=inst.m)
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, inst.n + 1))))
    return float((inst.cost * harmonic[load]).sum() + _connection(inst, c).sum())


def improving_deviation(inst: Inst, c: np.ndarray) -> tuple[int, int, float] | None:
    """First (agent, facility, gain) whose unilateral move saves more than the
    tolerance, scanning agents then facilities; None at an equilibrium."""
    load = np.bincount(c, minlength=inst.m)
    rows = np.arange(inst.n)
    current = _connection(inst, c) + inst.cost[c] / load[c]
    moved = np.abs(inst.x[:, None] - inst.loc[None, :]) + inst.cost / (load + 1)
    gain = current[:, None] - moved
    gain[rows, c] = 0.0
    bad = gain > REL_TOL * np.maximum(1.0, current)[:, None]
    if not bad.any():
        return None
    agent, fac = map(int, np.argwhere(bad)[0])
    return agent, fac + 1, float(gain[agent, fac])


def _require_equilibrium(inst: Inst, c: np.ndarray, what: str) -> None:
    witness = improving_deviation(inst, c)
    _require(witness is None, f"{what} is not an equilibrium: agent, facility, "
                              f"gain = {witness}")


def check_solve(inst: Inst, doc: dict, verify: bool) -> None:
    out = doc["outputs"]
    _require(out["n"] == inst.n and out["m"] == inst.m, "n or m misreported")
    pne = _choices(inst, out["pne"]["assignment"])
    opt = _choices(inst, out["opt"]["assignment"])
    _require_equilibrium(inst, pne, "pne")
    _close(out["pne"]["social_cost"], social_cost(inst, pne), "pne social_cost")
    _close(out["pne"]["potential"], potential(inst, pne), "pne potential")
    _close(out["opt"]["social_cost"], social_cost(inst, opt), "opt social_cost")
    _require(out["opt"]["social_cost"]
             <= out["pne"]["social_cost"] * (1.0 + REL_TOL),
             "optimum costs more than the equilibrium")
    _require(out["bound_holds"] is True, "harmonic bound reported as violated")
    if verify:
        fields = out["verified"]
        _require(set(fields) == {"pne_check", "no_cross",
                                 "potential_matches_bruteforce",
                                 "opt_matches_bruteforce"},
                 f"unexpected verification fields {sorted(fields)}")
        _require(all(v is True for v in fields.values()),
                 f"verification not passed: {fields}")


def check_dynamics(inst: Inst, doc: dict) -> None:
    out = doc["outputs"]
    _require(out["converged"] is True, "dynamics did not converge")
    _require(out["final_is_equilibrium"] is True, "final state reported non-equilibrium")
    steps = out["steps"]
    _require(out["steps_taken"] == len(steps), "steps_taken disagrees with the trace")
    before = np.array([out["initial_potential"]]
                      + [s["potential_after"] for s in steps[:-1]], dtype=float)
    after = np.array([s["potential_after"] for s in steps], dtype=float)
    delta = np.array([s["cost_delta"] for s in steps], dtype=float)
    _require(bool((after < before).all()), "potential did not strictly decrease")
    # The potential change is a difference of two large values, so compare it
    # at the scale of the potential, not of the (small) step.
    off = np.abs(delta - (after - before)) > REL_TOL * np.maximum(1.0, np.abs(before))
    _require(not off.any(), f"cost_delta differs from the potential change at "
                            f"step {int(np.argmax(off)) if off.any() else -1}")
    final = _choices(inst, out["final_assignment"])
    _require_equilibrium(inst, final, "final_assignment")
    last = after[-1] if len(after) else out["initial_potential"]
    _close(float(last), potential(inst, final), "final potential")


def audit_grid(loc: np.ndarray, cost: np.ndarray, offset: float = 1e-3) -> list[float]:
    """The CLI's default audit grid, rebuilt from its definition: facility
    locations and, for two facilities, the L/M/R thresholds; midpoints; two
    flanking points; each point with +/- ``offset`` neighbours."""
    order = sorted(range(len(loc)), key=lambda i: (loc[i], cost[i], i))
    locs = [float(loc[i]) for i in order]
    anchors = set(locs)
    if len(locs) == 2:
        b1, b2 = (float(cost[i]) for i in order)
        delta = locs[1] - locs[0]
        anchors |= {locs[0] + (0.5 * delta + 0.25 * b2 - 0.5 * b1),
                    locs[0] + (0.5 * delta + 0.25 * b2 - 0.25 * b1),
                    locs[0] + (0.5 * delta + 0.5 * b2 - 0.25 * b1)}
    base = sorted(anchors)
    mids = [0.5 * (a + b) for a, b in zip(base, base[1:]) if a != b]
    pad = max(1.0, 0.25 * (base[-1] - base[0]))
    points = set(base) | set(mids) | {base[0] - pad, base[-1] + pad}
    return sorted({p + d for p in points for d in (-offset, 0.0, offset)})


def _audit_profiles(grid: list[float], n: int, cap: int, seed: int) -> np.ndarray:
    arr = np.asarray(grid)
    g = len(grid)
    if g ** n <= cap:
        return arr[np.array(list(itertools.product(range(g), repeat=n)), dtype=int)]
    return arr[np.random.default_rng(seed).integers(0, g, size=(cap, n))]


def expected_checks(inst: Inst, seed: int) -> dict[str, int | None]:
    """What each audit's ``checked`` must be for the CLI's default grid, the
    profile caps and the audit seed."""
    grid = audit_grid(inst.loc, inst.cost)
    g, n = len(grid), inst.n
    profiles = _audit_profiles(grid, n, SP_CAP, seed)
    cost = np.abs(profiles[:, :, None] - inst.loc) + inst.cost / n
    favorite = cost.argmin(axis=2)
    strict = (np.ones(profiles.shape, dtype=bool) if inst.m == 1 else
              np.diff(np.sort(cost, axis=2)[:, :, :2], axis=2)[:, :, 0] > EPS_CMP)
    unanimous = strict.all(axis=1) & (favorite == favorite[:, :1]).all(axis=1)
    props = _audit_profiles(grid, n, PROPS_CAP, seed)
    counts: dict[str, int | None] = {
        "strategyproof": n * g * len(profiles),
        "anonymous": (math.factorial(n) - 1) * len(profiles),
        "unanimous": int(unanimous.sum()),
        "P1": n * g * len(props), "P2": n * g * len(props), "P3": n * g * len(props),
        "P4": None, "P5": None,
    }
    if n == 2 and inst.m == 2:
        l1, l2 = sorted(inst.loc)
        lo, hi = props.min(axis=1), props.max(axis=1)
        distinct = props[:, 0] != props[:, 1]
        overlap = np.maximum(lo, l1) < np.minimum(hi, l2)
        counts["P4"] = int((distinct & ~overlap).sum())
        counts["P5"] = int((distinct & overlap).sum())
    return counts


def check_audits(audits: dict, expected: dict[str, int | None]) -> None:
    """Every audit report present passed and checked the expected count."""
    reports = dict(audits)
    reports.update(reports.pop("properties", None) or {})
    for name, report in reports.items():
        want = expected[name]
        if report is None or want is None:
            _require(report is None and want is None,
                     f"{name}: report presence does not match n and m")
            continue
        _require(report["passed"] is True and report["counterexamples"] == 0,
                 f"{name} audit failed with {report['counterexamples']} counterexamples")
        _require(report["checked"] == want,
                 f"{name} checked {report['checked']}, expected {want}")


def check_mech(inst: Inst, kind: str, seed: int, doc: dict) -> None:
    out = doc["outputs"]
    _require(out["kind"] == kind, "mechanism kind misreported")
    c = _choices(inst, out["assignment"])
    _close(out["social_cost"], social_cost(inst, c), "mechanism social_cost")
    audits = out["audits"]
    _require(set(audits) == {"strategyproof", "anonymous", "unanimous", "properties"},
             f"missing audits in {sorted(audits)}")
    check_audits(audits, expected_checks(inst, seed))


def _catches(expected: str, check, *args) -> bool:
    """True when ``check`` fails, and for the reason named by ``expected``."""
    try:
        check(*args)
    except CheckFailed as exc:
        return expected in str(exc)
    return False


def selftest(facshare, cli_main, tmp: Path) -> dict[str, bool]:
    """Feed the checks planted wrong answers; each must be caught.

    A correct solve output is checked first, so a check that rejects
    everything does not pass either.
    """
    inst = Inst(np.array([0.0, 0.2, 9.8, 10.0, 5.1]),
                np.array([10.0, 0.0, 5.0]), np.array([1.0, 1.5, 4.0]))
    path = tmp / "selftest.json"
    path.write_text(json.dumps({
        "facilities": [{"location": float(l), "building_cost": float(b)}
                       for l, b in zip(inst.loc, inst.cost)],
        "agents": inst.x.tolist()}), encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli_main(["solve", str(path), "--mode", "both", "--verify"])
    good = json.loads(sink.getvalue())
    results = {"correct_output_accepted":
               code == 0 and not _catches("", check_solve, inst, good, True)}

    # All agents on file facility 1 (location 10): agents near 0 gain by moving.
    planted = json.loads(json.dumps(good))
    all_one = np.zeros(inst.n, dtype=int)
    planted["outputs"]["pne"].update(
        assignment=[1] * inst.n, social_cost=social_cost(inst, all_one),
        potential=potential(inst, all_one))
    results["non_equilibrium_flagged"] = _catches(
        "pne is not an equilibrium", check_solve, inst, planted, True)

    planted = json.loads(json.dumps(good))
    planted["outputs"]["opt"]["social_cost"] += 1e-6
    results["opt_cost_off_by_1e-6_flagged"] = _catches(
        "opt social_cost", check_solve, inst, planted, True)

    # The greedy nearest-facility rule is manipulable on the eps environment.
    loc, cost = np.array([0.0, 9.9]), np.array([0.1, 0.1])
    env = facshare.Environment(tuple(loc), tuple(cost))
    report = facshare.audit_strategyproof(facshare.nearest_facility_mechanism(env), env, n=2)
    summary = {"strategyproof": {"passed": report.passed, "checked": report.checked,
                                 "counterexamples": len(report.counterexamples)}}
    expected = expected_checks(Inst(np.zeros(2), loc, cost), seed=0)
    results["greedy_not_strategyproof_flagged"] = _catches(
        "strategyproof audit failed", check_audits, summary, expected)
    return results
