"""Command-line front door.

Subcommands: ``gen`` (random instances), ``solve`` (equilibrium / optimum),
``dynamics`` (best-response traces), ``mech`` (apply and audit mechanisms),
``ratio`` (the unbounded-ratio environment family). Each result is one
compact JSON line, so downstream scripts never screen-scrape.

Exit codes are a stable contract: 0 success, 1 I/O failure, 2 validation
failure (bad flags, malformed or invalid instance), 3 mechanism/environment
precondition mismatch. Randomized behavior always requires an explicit seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .costs import _potential, _social_cost, harmonic_numbers
from .equilibrium import (
    _harmonic_report,
    brute_force_min_potential,
    check_no_cross,
    compute_pne_dp,
    is_pne,
    run_dynamics,
)
from .mechanisms import (
    MechanismPreconditionError,
    _audit_anon,
    _audit_sp,
    _audit_unanimous,
    _Draw,
    apply_mechanism,
    audit_lemma_properties,
    default_audit_grid,
    env_params,
    ratio_lower_bound_terms,
    spec_from_dict,
)
from .model import (
    Assignment,
    Environment,
    Instance,
    ValidationError,
    generate_instance,
    load_instance,
    save_instance,
)
from .optimal import BruteForceLimitError, optimal_block_dp, optimal_brute_force

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3

_ORACLE_LIMIT = 1_000_000  # smaller than the library guard: CLI verification stays snappy


def _result(command: str, instance_name: str, outputs: dict,
            started: float) -> dict:
    return {
        "command": command,
        "instance_name": instance_name,
        "outputs": outputs,
        "elapsed_ms": (time.perf_counter() - started) * 1000.0,
    }


def _emit(docs: list[dict], out: str | None) -> None:
    """Write each result as one compact JSON line, to ``out`` or stdout."""
    text = "".join(json.dumps(doc) + "\n" for doc in docs)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _input_order_choices(instance: Instance, assignment: Assignment) -> list[int]:
    # Facility indices reported against the caller's original file ordering.
    to_input = np.asarray(instance.environment.input_order) + 1
    return to_input[np.asarray(assignment.choices) - 1].tolist()


def _cmd_gen(args) -> int:
    started = time.perf_counter()
    instance = generate_instance(
        args.n, args.m, args.seed,
        position_range=tuple(args.pos_range),
        cost_range=tuple(args.cost_range),
    )
    if args.out:
        save_instance(instance, args.out)
        outputs = {"path": args.out, "n": args.n, "m": args.m, "seed": args.seed}
    else:
        from .model import instance_to_dict
        outputs = {"instance": instance_to_dict(instance)}
    _emit([_result("gen", instance.name or "", outputs, started)], None)
    return EXIT_OK


def _matches_bruteforce(oracle, value: float) -> bool | str:
    """Compare ``value`` with the brute-force ``oracle()``; "skipped", with a
    warning, when the search space exceeds the guard."""
    try:
        expected = oracle()
    except BruteForceLimitError as exc:
        print(f"warning: partial verification, {exc}", file=sys.stderr)
        return "skipped"
    return abs(value - expected) <= 1e-9 * max(1.0, abs(expected))


def _solve_one(path: str, mode: str, verify: bool) -> dict:
    started = time.perf_counter()
    instance = load_instance(path)
    name = instance.name or Path(path).stem
    profile, env = instance.profile, instance.environment
    outputs: dict = {"n": instance.n, "m": instance.m}

    pne = opt = None
    if mode in ("pne", "both"):
        pne = compute_pne_dp(instance)
        outputs["pne"] = {
            "assignment": _input_order_choices(instance, pne),
            "social_cost": _social_cost(profile.positions, pne.choices, env),
            "potential": _potential(profile.positions, pne.choices, env,
                                    harmonic_numbers(instance.n)),
        }
    if mode in ("opt", "both"):
        result = optimal_block_dp(instance)
        opt = result.assignment
        outputs["opt"] = {
            "assignment": _input_order_choices(instance, opt),
            "social_cost": result.social_cost,
            "method": result.method,
        }
    if mode == "both":
        report = _harmonic_report(outputs["pne"]["social_cost"],
                                  outputs["opt"]["social_cost"], instance.n)
        outputs["ratio"] = report.ratio
        outputs["harmonic_bound"] = report.bound
        outputs["bound_holds"] = report.holds

    if verify:
        verification: dict = {}
        if pne is not None:
            verification["pne_check"] = bool(is_pne(profile, pne, env))
            verification["no_cross"] = bool(check_no_cross(profile, pne, env))
            verification["potential_matches_bruteforce"] = _matches_bruteforce(
                lambda: brute_force_min_potential(instance, limit=_ORACLE_LIMIT),
                outputs["pne"]["potential"])
        if opt is not None:
            verification["opt_matches_bruteforce"] = _matches_bruteforce(
                lambda: optimal_brute_force(instance, limit=_ORACLE_LIMIT).social_cost,
                outputs["opt"]["social_cost"])
        outputs["verified"] = verification
    return _result("solve", name, outputs, started)


def _cmd_solve(args) -> int:
    _emit([_solve_one(p, args.mode, args.verify) for p in args.inputs], args.out)
    return EXIT_OK


def _parse_start(token: str, instance: Instance) -> Assignment:
    """The start assignment, in the instance file's facility numbering."""
    n, m = instance.n, instance.m
    if token == "all-1":
        return Assignment((1,) * n)
    if token.startswith("random:"):
        try:  # the seed rule of --seed
            seed = _count(0)(token.split(":", 1)[1])
        except (ValueError, argparse.ArgumentTypeError):
            raise ValidationError(f"invalid start spec {token!r}: "
                                  f"SEED must be an integer >= 0") from None
        rng = np.random.default_rng(seed)
        return Assignment(tuple(int(v) for v in rng.integers(1, m + 1, size=n)))
    if token.startswith("file:"):
        path = token.split(":", 1)[1]
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, list):
            raise ValidationError("assignment file must be a JSON array")
        return Assignment(tuple(doc))
    raise ValidationError(
        f"invalid start spec {token!r}; expected all-1, random:SEED, or file:PATH")


def _sorted_choices(instance: Instance, assignment: Assignment) -> Assignment:
    # Inverse of _input_order_choices: file numbering to sorted numbering.
    to_sorted = np.argsort(instance.environment.input_order) + 1
    return Assignment(tuple(to_sorted[np.asarray(assignment.choices) - 1].tolist()))


def _cmd_dynamics(args) -> int:
    started = time.perf_counter()
    instance = load_instance(args.input)
    start = _parse_start(args.start, instance)
    start.validate_for(instance.profile, instance.environment)
    trace = run_dynamics(instance, _sorted_choices(instance, start),
                         order=args.order, max_steps=args.max_steps,
                         seed=args.seed)
    to_input = instance.environment.to_input_facility
    outputs = {
        "start": list(start.choices),
        "order": args.order,
        "initial_potential": trace.initial_potential,
        "steps": [
            {
                "agent": s.agent,
                "from_facility": to_input(s.from_facility),
                "to_facility": to_input(s.to_facility),
                "cost_delta": s.cost_delta,
                "potential_after": s.potential_after,
            }
            for s in trace.steps
        ],
        "steps_taken": len(trace.steps),
        "converged": trace.converged,
        "final_assignment": _input_order_choices(instance, trace.final_assignment),
        "final_is_equilibrium": bool(is_pne(instance.profile,
                                            trace.final_assignment,
                                            instance.environment)),
    }
    name = instance.name or Path(args.input).stem
    _emit([_result("dynamics", name, outputs, started)], args.out)
    return EXIT_OK


def _audit_summary(report, facility=None) -> dict:
    """A report's JSON; ``facility`` maps a facility deviation to file numbering."""
    return {
        "passed": report.passed,
        "checked": report.checked,
        "counterexamples": len(report.counterexamples),
        "examples": [
            {"profile": list(c.profile), "agent": c.agent,
             "deviation": repr(c.deviation if facility is None
                               else facility(c.deviation)),
             "cost_before": c.cost_before, "cost_after": c.cost_after}
            for c in report.counterexamples[:5]
        ],
    }


def _cmd_mech(args) -> int:
    started = time.perf_counter()
    instance = load_instance(args.input)
    raw = args.mech.strip()
    if raw.startswith("{"):
        doc = json.loads(raw)
    else:
        doc = json.loads(Path(raw).read_text(encoding="utf-8"))
    spec = spec_from_dict(doc)
    env, profile = instance.environment, instance.profile
    assignment = apply_mechanism(spec, profile, env)
    outputs: dict = {
        "kind": spec.kind,
        "assignment": _input_order_choices(instance, assignment),
        "social_cost": _social_cost(profile.positions, assignment.choices, env),
    }
    if args.audit:
        wanted = [token.strip() for token in args.audit.split(",") if token.strip()]
        for token in wanted:
            if token not in ("sp", "anon", "unanimous", "props"):
                raise ValidationError(
                    f"unknown audit {token!r}; expected sp, anon, unanimous, props")
        grid = default_audit_grid(env, extra=args.grid_extra)
        n = profile.n
        # sp, anon and unanimous share one draw of their default profile set
        draw = None
        audits: dict = {}
        for token in wanted:
            if token == "props":
                report = audit_lemma_properties(spec, env, grid, n=n, seed=args.seed)
                audits["properties"] = {
                    name: (_audit_summary(r) if r is not None else None)
                    for name, r in (("P1", report.p1), ("P2", report.p2),
                                    ("P3", report.p3), ("P4", report.p4),
                                    ("P5", report.p5))
                }
                continue
            if draw is None:
                draw = _Draw(spec, env, grid, n, seed=args.seed)
            if token == "sp":
                audits["strategyproof"] = _audit_summary(_audit_sp(draw))
            elif token == "anon":
                audits["anonymous"] = _audit_summary(_audit_anon(draw))
            else:
                audits["unanimous"] = _audit_summary(_audit_unanimous(draw),
                                                     env.to_input_facility)
        outputs["audits"] = audits
    name = instance.name or Path(args.input).stem
    _emit([_result("mech", name, outputs, started)], args.out)
    return EXIT_OK


def _cmd_ratio(args) -> int:
    # The pooling term of the bound reproduces 1/(2*eps^2) exactly; the full
    # bound is its maximum with the threshold term, which can exceed the
    # reference for large eps (it does at eps = 0.5). Below about 5.3e-155
    # the reference overflows a float (eps^2 may even underflow to 0), so
    # those eps are rejected.
    started = time.perf_counter()
    rows = []
    all_match = True
    for eps in args.epsilon:
        square = 2.0 * eps * eps
        if not (0.0 < eps < 1.0 and square > 0.0 and math.isfinite(1.0 / square)):
            raise ValidationError(
                f"epsilon must be in (0, 1) with 1/(2 eps^2) a finite float, got {eps}")
        env = Environment((0.0, 1.0 / eps - eps), (eps, eps))
        params = env_params(env)
        pooling_term, threshold_term = ratio_lower_bound_terms(env)
        reference = 1.0 / square
        matches = abs(pooling_term - reference) <= 1e-9 * max(1.0, reference)
        all_match &= matches
        rows.append({
            "epsilon": eps,
            "L": params.L, "M": params.M, "R": params.R, "delta": params.delta,
            "pooling_term": pooling_term,
            "threshold_term": threshold_term,
            "lower_bound": max(pooling_term, threshold_term),
            "reference": reference,
            "matches": matches,
        })
    _emit([_result("ratio", "epsilon-sweep", {"rows": rows}, started)], args.out)
    return EXIT_OK if all_match else EXIT_VALIDATION


def _count(minimum: int):
    """argparse type for a count flag: an integer of at least ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facshare",
        description="Equilibria, optima, and strategyproof mechanisms for "
                    "one-dimensional facility assignment with fair cost sharing.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("-n", type=int, required=True, help="number of agents")
    gen.add_argument("-m", type=int, required=True, help="number of facilities")
    gen.add_argument("--seed", type=_count(0), required=True)
    gen.add_argument("-o", "--out", help="output path (stdout JSON when omitted)")
    gen.add_argument("--pos-range", type=float, nargs=2, default=(0.0, 10.0),
                     metavar=("LO", "HI"))
    gen.add_argument("--cost-range", type=float, nargs=2, default=(0.5, 5.0),
                     metavar=("LO", "HI"))
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="compute an equilibrium and/or optimum")
    solve.add_argument("inputs", nargs="+", metavar="INSTANCE")
    solve.add_argument("--mode", choices=("pne", "opt", "both"), default="both")
    solve.add_argument("--verify", action="store_true",
                       help="re-check results (brute force where sizes permit)")
    solve.add_argument("-o", "--out")
    solve.set_defaults(func=_cmd_solve)

    dyn = sub.add_parser("dynamics", help="run best-response dynamics")
    dyn.add_argument("input", metavar="INSTANCE")
    dyn.add_argument("--start", required=True,
                     help="all-1 | random:SEED | file:PATH")
    dyn.add_argument("--order", choices=("round-robin", "max-gain", "seeded-random"),
                     default="round-robin")
    dyn.add_argument("--seed", type=_count(0), help="required for seeded-random order")
    dyn.add_argument("--max-steps", type=_count(0), default=100_000)
    dyn.add_argument("-o", "--out")
    dyn.set_defaults(func=_cmd_dynamics)

    mech = sub.add_parser("mech", help="apply and audit a mechanism")
    mech.add_argument("input", metavar="INSTANCE")
    mech.add_argument("--mech", required=True,
                      help="mechanism spec: inline JSON or a path to a JSON file")
    mech.add_argument("--audit", help="comma list from: sp, anon, unanimous, props")
    mech.add_argument("--grid-extra", type=_count(0), default=0,
                      help="extra uniform audit grid points")
    mech.add_argument("--seed", type=_count(0), default=0,
                      help="seed for sampled audit profiles")
    mech.add_argument("-o", "--out")
    mech.set_defaults(func=_cmd_mech)

    ratio = sub.add_parser("ratio", help="lower-bound table for the unbounded-"
                                         "ratio environment family")
    ratio.add_argument("--epsilon", type=float, nargs="+", required=True)
    ratio.add_argument("-o", "--out")
    ratio.set_defaults(func=_cmd_ratio)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves no state in the parser, so one tree serves every call.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MechanismPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
