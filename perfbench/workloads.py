"""Seeded inputs and the op stream of each benchmark workload.

Every op is one argv for ``facshare.cli.main``. The instance files are
written here, from the workload seed, with the benchmark's own numpy code:
the program only ever sees the generated files. Each op carries the check
that its output must pass (see ``checks.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import Inst

WORKLOADS = ("solve-large", "solve-small", "dynamics", "audit")

# solve-large: the n-heavy and m-heavy shapes load the block DP differently.
LARGE_SHAPES = ((3000, 10), (2000, 30), (1000, 100))
# dynamics: round-robin runs ~6x more steps/s than max-gain, so the order
# cycle is fixed and every run sees each order equally often.
DYN_SHAPE = (300, 10)
DYN_ORDERS = ("round-robin", "max-gain", "seeded-random")
# solve-small: every (n, m) with n in [2, 9], m in [1, 4] and m**n <= 10**4
# (far inside the CLI's brute-force guard), in a fixed cycle, so each seed
# sees the same mix of brute-force sizes and the tail latency compares.
SMALL_SHAPES = tuple((n, m) for m in range(1, 5) for n in range(2, 10)
                     if m ** n <= 10_000)
KRANK_SIZES = (3, 5)

POOL_SIZE = {"solve-large": 24, "solve-small": 18 * len(SMALL_SHAPES),
             "dynamics": 120, "audit": 240}


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[dict], None]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, WORKLOADS.index(workload)])


def _facilities(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(0.0, 10.0, size=m), rng.uniform(0.5, 5.0, size=m)


def _clustered(rng: np.random.Generator, n: int) -> np.ndarray:
    # A few tight clusters on a 0.01 lattice: many agents share a position,
    # which exercises the solver's tie rule.
    centers = rng.uniform(0.5, 9.5, size=int(rng.integers(3, 7)))
    x = centers[rng.integers(len(centers), size=n)] + rng.normal(0.0, 0.05, size=n)
    return np.round(x, 2)


def _write(path: Path, inst: Inst) -> str:
    doc = {
        "name": path.stem,
        "facilities": [{"location": float(l), "building_cost": float(b)}
                       for l, b in zip(inst.loc, inst.cost)],
        "agents": [float(v) for v in inst.x],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _solve_large(rng, tmp: Path, count: int) -> list[Op]:
    ops = []
    for k in range(count):
        n, m = LARGE_SHAPES[k % 3]
        x = _clustered(rng, n) if k % 6 >= 3 else rng.uniform(0.0, 10.0, size=n)
        inst = Inst(x, *_facilities(rng, m))
        path = _write(tmp / f"large-{k}.json", inst)
        ops.append(Op(["solve", path, "--mode", "both"],
                      partial(checks.check_solve, inst, verify=False)))
    return ops


def _solve_small(rng, tmp: Path, count: int) -> list[Op]:
    ops = []
    for k in range(count):
        n, m = SMALL_SHAPES[k % len(SMALL_SHAPES)]
        x = rng.uniform(0.0, 10.0, size=n)
        if (k // len(SMALL_SHAPES)) % 2:
            x = np.round(x * 2.0) / 2.0  # half-unit lattice: co-located agents
        inst = Inst(x, *_facilities(rng, m))
        path = _write(tmp / f"small-{k}.json", inst)
        ops.append(Op(["solve", path, "--mode", "both", "--verify"],
                      partial(checks.check_solve, inst, verify=True)))
    return ops


def _dynamics(rng, tmp: Path, count: int) -> list[Op]:
    n, m = DYN_SHAPE
    ops = []
    for k in range(count):
        inst = Inst(rng.uniform(0.0, 10.0, size=n), *_facilities(rng, m))
        path = _write(tmp / f"dyn-{k}.json", inst)
        start = "all-1" if k % 2 == 0 else f"random:{int(rng.integers(2**31))}"
        order = DYN_ORDERS[k % 3]
        argv = ["dynamics", path, "--start", start, "--order", order]
        if order == "seeded-random":
            argv += ["--seed", str(int(rng.integers(2**31)))]
        ops.append(Op(argv, partial(checks.check_dynamics, inst)))
    return ops


def _two_facility_env(rng, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Left/right facility locations and costs with M in the requested place:
    strictly inside (0, delta), at 0, or at delta."""
    left = float(rng.uniform(-5.0, 5.0))
    while True:
        delta = float(rng.uniform(0.5, 5.0))
        base = float(rng.uniform(0.5, 5.0))
        if family == "M0":
            b1, b2 = base + 2.0 * delta, base
        elif family == "Mdelta":
            b1, b2 = base, base + 2.0 * delta
        else:
            b1, b2 = base, float(rng.uniform(0.5, 5.0))
            mid = 0.5 * delta + 0.25 * b2 - 0.25 * b1
            if not 0.05 * delta < mid < 0.95 * delta:
                continue
        return np.array([left, left + delta]), np.array([b1, b2])


def _audit(rng, tmp: Path, count: int) -> list[Op]:
    # Cycle: each characterized family on an environment that admits it,
    # then k-rank at n = 3 and n = 5. The k-rank facility count steps through
    # 2, 3, 4 (it sets the audit grid size), so every seed gets the same mix.
    cycle = (("interior", "type4"), ("M0", "type2"), ("Mdelta", "type3"),
             ("interior", "type5"), *(("krank", n) for n in KRANK_SIZES))
    ops = []
    for k in range(count):
        family, detail = cycle[k % len(cycle)]
        if family == "krank":
            n = detail
            loc, cost = _facilities(rng, 2 + (k // len(cycle)) % 3)
            spec = {"kind": "krank", "params": {"k": int(rng.integers(1, n + 1))}}
        else:
            n = 2
            loc, cost = _two_facility_env(rng, family)
            choice = int(rng.integers(1, 3))
            key = "boundary_choice" if detail in ("type4", "type5") else "diag_choice"
            value = choice if key == "boundary_choice" else f"fac{choice}"
            spec = {"kind": detail, "params": {key: value}}
        flip = rng.permutation(len(loc))  # file order differs from location order
        loc, cost = loc[flip], cost[flip]
        lo, hi = float(loc.min()) - 2.0, float(loc.max()) + 2.0
        inst = Inst(rng.uniform(lo, hi, size=n), loc, cost)
        path = _write(tmp / f"mech-{k}.json", inst)
        seed = int(rng.integers(2**31))
        argv = ["mech", path, "--mech", json.dumps(spec),
                "--audit", "sp,anon,unanimous,props", "--seed", str(seed)]
        ops.append(Op(argv, partial(checks.check_mech, inst, spec["kind"], seed)))
    return ops


_BUILDERS = {"solve-large": _solve_large, "solve-small": _solve_small,
             "dynamics": _dynamics, "audit": _audit}


def build_ops(workload: str, seed: int, tmp: Path) -> list[Op]:
    """The workload's op stream; the timed loop cycles through it."""
    return _BUILDERS[workload](_rng(seed, workload), tmp, POOL_SIZE[workload])


def warmup_ops(workload: str, tmp: Path) -> list[Op]:
    """A few small ops of the workload's kinds: they load lazily imported
    code and fill caches before timing, at a fraction of a real op's cost."""
    rng = np.random.default_rng([0, WORKLOADS.index(workload), 1])
    wdir = tmp / "warmup"
    wdir.mkdir(exist_ok=True)
    if workload == "solve-large":
        ops = []
        for k, (n, m) in enumerate(((200, 10), (100, 30))):
            inst = Inst(rng.uniform(0.0, 10.0, size=n), *_facilities(rng, m))
            path = _write(wdir / f"large-{k}.json", inst)
            ops.append(Op(["solve", path, "--mode", "both"],
                          partial(checks.check_solve, inst, verify=False)))
        return ops
    if workload == "dynamics":
        ops = []
        for k, order in enumerate(DYN_ORDERS):
            inst = Inst(rng.uniform(0.0, 10.0, size=40), *_facilities(rng, 5))
            path = _write(wdir / f"dyn-{k}.json", inst)
            ops.append(Op(["dynamics", path, "--start", "all-1", "--order", order,
                           "--seed", "1"], partial(checks.check_dynamics, inst)))
        return ops
    # audit: the four characterized specs only; a k-rank op at n=5 costs
    # as much as all of them together.
    return _BUILDERS[workload](rng, wdir, 4 if workload == "audit" else 6)
