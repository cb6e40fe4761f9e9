"""Span tracing of facshare's public functions, from outside the program.

``Tracer.install`` replaces every public module-level function of the
library's modules with a span-recording wrapper, at every module that binds
the function's name (``facshare.cli.compute_pne_dp`` and
``facshare.equilibrium.compute_pne_dp`` are the same function, bound twice),
so nested calls nest as spans. ``uninstall`` puts the originals back.
Private helpers are not wrapped: they run once per step or per agent, where
a wrapper would cost more than the work it times.

A span is ``(id, parent, name, start_ns, end_ns, op, counts)``. ``counts``
holds work computed at that boundary from the arguments and the result: DP
cells, brute-force assignments, audit checks, dynamics steps.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Layers are the library's modules.
LAYERS = {
    "facshare.cli": "cli",
    "facshare.model": "model",
    "facshare.costs": "costs",
    "facshare.equilibrium": "equilibrium",
    "facshare.optimal": "optimal",
    "facshare._blockdp": "blockdp",
    "facshare.mechanisms": "mechanisms",
}
ENUMERATORS = ("equilibrium.brute_force_min_potential", "optimal.optimal_brute_force")
AUDITS = ("strategyproof", "anonymous", "unanimous")


def dp_cells(n: int, m: int, blocks) -> int:
    """Candidate cells the block DP evaluates: the fill scans an (m, j) matrix
    for every prefix j, and the traceback one (cap, j) matrix per block,
    where cap is the facility bound left by the block to its right."""
    cells = m * n * (n + 1) // 2
    cap = m
    for start, stop, fac in reversed(blocks):
        cells += cap * stop
        cap = fac
    return cells


def _blockdp_counts(bound, result) -> dict:
    return {"cells": dp_cells(len(bound["sorted_x"]), len(bound["locations"]),
                              result.blocks)}


def _enumerator_counts(bound, result) -> dict:
    instance = bound["instance"]
    return {"assignments": instance.m ** instance.n}


def _lemma_counts(bound, result) -> dict:
    return {"checks": sum(r.checked for r in (result.p1, result.p2, result.p3,
                                              result.p4, result.p5) if r is not None)}


COUNTERS = {
    "blockdp.solve_block_partition": _blockdp_counts,
    "mechanisms.audit_lemma_properties": _lemma_counts,
    "equilibrium.run_dynamics": lambda bound, result: {"steps": len(result.steps)},
    **{name: _enumerator_counts for name in ENUMERATORS},
    **{f"mechanisms.audit_{a}": (lambda bound, result: {"checks": result.checked})
       for a in AUDITS},
}


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps module names to the imported library modules,
        the package itself included."""
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next = 0
        wrappers = {}
        for modname, layer in LAYERS.items():
            for attr, fn in vars(modules[modname]).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == modname):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        self._bindings = [(mod, attr, fn, wrappers[fn])
                          for mod in modules.values()
                          for attr, fn in list(vars(mod).items())
                          if inspect.isfunction(fn) and fn in wrappers]

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op, None))
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                spans[-1] = spans[-1][:6] + (counter(bound, result),)
            return result

        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)
        self.op = None


def layer_metrics(spans: list[tuple], ops: int,
                  reported_social_costs: int) -> dict[str, float]:
    """Per-layer metrics over ``ops`` traced ops. Self time is a span's
    duration minus the time its child spans cover; the root spans
    (``cli.main``) cover each op, so the layer shares sum to 1."""
    children = defaultdict(int)
    for sid, parent, name, start, end, op, counts in spans:
        if parent is not None:
            children[parent] += end - start
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    root_ns = 0
    for sid, parent, name, start, end, op, counts in spans:
        self_ns[name] += end - start - children[sid]
        incl_ns[name] += end - start
        calls[name] += 1
        if parent is None:
            root_ns += end - start
        for key, value in (counts or {}).items():
            work[name, key] += value

    def per_layer(table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    def rate(count, ns):
        return count / (ns / 1e9) if ns else 0.0

    per_op = 1.0 / max(ops, 1)
    out: dict[str, float] = {}
    for layer in LAYERS.values():
        layer_self = per_layer(self_ns, layer)
        out[f"{layer}.self_ms_per_op"] = layer_self / 1e6 * per_op
        out[f"{layer}.share"] = layer_self / root_ns if root_ns else 0.0
        out[f"{layer}.calls_per_op"] = per_layer(calls, layer) * per_op
    cells = work["blockdp.solve_block_partition", "cells"]
    out["blockdp.cells_per_op"] = cells * per_op
    out["blockdp.cells_per_s"] = rate(cells, per_layer(self_ns, "blockdp"))
    assignments = sum(work[name, "assignments"] for name in ENUMERATORS)
    out["bruteforce.assignments_per_op"] = assignments * per_op
    out["bruteforce.assignments_per_s"] = rate(
        assignments, sum(self_ns[name] for name in ENUMERATORS))
    sc_calls = calls["costs.social_cost"]
    out["costs.social_cost.calls_per_op"] = sc_calls * per_op
    out["costs.social_cost.useful_ratio"] = (
        reported_social_costs / sc_calls if sc_calls else 0.0)
    steps = work["equilibrium.run_dynamics", "steps"]
    out["costs.potential.calls_per_step"] = (
        calls["costs.potential"] / steps if steps else 0.0)
    out["equilibrium.run_dynamics.self_ms_per_step"] = (
        self_ns["equilibrium.run_dynamics"] / 1e6 / steps if steps else 0.0)
    out["equilibrium.is_pne.calls_per_op"] = calls["equilibrium.is_pne"] * per_op
    out["equilibrium.is_pne.ms_per_op"] = incl_ns["equilibrium.is_pne"] / 1e6 * per_op
    for audit in AUDITS:
        name = f"mechanisms.audit_{audit}"
        out[f"{name}.checks_per_s"] = rate(work[name, "checks"], incl_ns[name])
    out["mechanisms.audit_lemma_properties.ms_per_op"] = (
        incl_ns["mechanisms.audit_lemma_properties"] / 1e6 * per_op)
    out["model.load_instance.ms_per_op"] = incl_ns["model.load_instance"] / 1e6 * per_op
    return out
