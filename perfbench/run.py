"""facshare benchmark: closed-loop CLI workloads with independent output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of solve-large, solve-small, dynamics, audit, or ``all``,
which runs the four in turn. Each op is one in-process call of
``facshare.cli.main`` on instance files generated from the seed, sent by a
single client only after the previous op returned, for S seconds. Every
output is checked (``checks.py``) before the next op is sent.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every input
twice, once with span wrappers around the library's public functions
(``spans.py``) and once without, alternating which goes first, and reports
the per-layer metrics, including the tracing overhead; its spans are written
to ``.perfbench_out/``. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. DESIGN.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # fresh-process import time varies by ~2x; report the median
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail percentile keeps this many ops above it


@dataclass
class Tally:
    latencies_ns: list[int] = field(default_factory=list)
    steps: int = 0
    checks: int = 0
    social_costs: int = 0

    def add(self, elapsed_ns: int, doc: dict | None) -> None:
        self.latencies_ns.append(elapsed_ns)
        if doc is None:
            return
        out = doc["outputs"]
        self.steps += out.get("steps_taken", 0)
        audits = dict(out.get("audits", {}))
        audits.update(audits.pop("properties", None) or {})
        self.checks += sum(r["checked"] for r in audits.values() if r is not None)
        self.social_costs += json.dumps(out).count('"social_cost"')


@dataclass
class Run:
    untraced: Tally = field(default_factory=Tally)
    traced: Tally = field(default_factory=Tally)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def execute(cli, op: workloads.Op) -> tuple[int, dict | None, str | None]:
    """One op: (latency_ns, checked output or None, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(op.argv)  # looked up per call: the tracer rebinds it
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            code = exc.code
        except Exception:  # a failed op is counted, not fatal to the run
            code = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        elapsed = time.perf_counter_ns() - start
    if code != 0:
        return elapsed, None, f"exit {code}: {err.getvalue().strip()[-200:]}"
    try:
        doc = json.loads(out.getvalue())
        op.check(doc)
    except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        return elapsed, None, f"check {type(exc).__name__}: {exc}"
    return elapsed, doc, None


def measure(cli, ops: list[workloads.Op], seconds: float,
            tracer: spans.Tracer | None) -> Run:
    run = Run()
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        op = ops[k % len(ops)]
        # Traced runs pair each input with an untraced call of the same
        # input, alternating which goes first, to measure the overhead.
        sides = (False,) if tracer is None else ((True, False) if k % 2 == 0
                                                 else (False, True))
        for traced in sides:
            if traced:
                tracer.install(k)
            try:
                elapsed, doc, failure = execute(cli, op)
            finally:
                if traced:
                    tracer.uninstall()
            run.attempted += 1
            if failure is not None:
                run.failures.append(f"op {k} {op.argv[:2]}: {failure}")
            (run.traced if traced else run.untraced).add(elapsed, doc)
        k += 1
    return run


def setup_seconds(warmup: list[workloads.Op], tmp: Path) -> float:
    """Median over fresh interpreters of ``import facshare.cli`` plus the
    warm-up ops. Input generation is not part of set-up."""
    argvs = tmp / "warmup-argvs.json"
    argvs.write_text(json.dumps([op.argv for op in warmup]), encoding="utf-8")
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(probe), str(SRC), str(argvs)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(code != 0 for code in result["codes"]):
            raise RuntimeError(f"warm-up op failed in set-up probe: {result['codes']}")
        samples.append(result["import_s"] + result["warmup_s"])
    return statistics.median(samples)


def import_library():
    sys.path.insert(0, str(SRC))
    import facshare
    import facshare.cli
    if Path(facshare.__file__).resolve().parent != SRC / "facshare":
        raise RuntimeError(f"imported facshare from {facshare.__file__}, not {SRC}")
    return facshare, facshare.cli


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(workload: str, seed: int) -> dict:
    # The src/ line count is metadata, not a metric: a fix that adds a line
    # must not read as a regression.
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in SRC.rglob("*.py"))
    return {"workload": workload, "seed": seed, "git_rev": git_rev(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "src_lines": src_lines}


def end_to_end(run: Run, setup_s: float, workload: str) -> tuple[dict, list[str]]:
    lat = sorted(run.untraced.latencies_ns)
    busy_s = sum(lat) / 1e9
    count = len(lat)
    tail_at = count - TAIL_BEYOND - 1 if count > TAIL_BEYOND else count - 1
    tail_pct = 100.0 * (tail_at + 1) / count
    gated = {
        "ops_per_s": (count / busy_s, "op/s"),
        "op_ms_p50": (statistics.median(lat) / 1e6, "ms"),
        "op_ms_tail": (lat[tail_at] / 1e6, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {"ops_per_s": "ops completed / time inside ops",
             "op_ms_tail": f"p{tail_pct:.2f} of {count} ops, "
                           f"{count - tail_at - 1} ops beyond it",
             "setup_s": f"median of {SETUP_PROBES} fresh-process set-ups"}
    lines = [f"{name:<20} {value:>14.6g} {unit:<8} {notes.get(name, '')}"
             for name, (value, unit) in gated.items()]
    extra = {
        "dyn_steps_per_s": (run.untraced.steps / busy_s, "step/s", "dynamics"),
        "audit_checks_per_s": (run.untraced.checks / busy_s, "check/s", "audit"),
    }
    for name, (value, unit, only) in extra.items():
        if workload == only:
            lines.append(f"{name:<20} {value:>14.6g} {unit:<8} (not in BENCHMARK.json)")
        else:
            lines.append(f"{name:<20} {'n/a':>14} {unit:<8} ({only} only)")
    failed = len(run.failures)
    lines.append(f"{'error_rate':<20} {failed / max(run.attempted, 1):>14.6g} "
                 f"{'ratio':<8} {failed}/{run.attempted} ops failed (as failed/attempted)")
    return {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}, lines


PER_LAYER_UNITS = {
    "self_ms_per_op": "ms", "share": "ratio", "calls_per_op": "call/op",
    "cells_per_op": "cell/op", "cells_per_s": "cell/s",
    "assignments_per_op": "assign/op", "assignments_per_s": "assign/s",
    "useful_ratio": "ratio", "calls_per_step": "call/step",
    "self_ms_per_step": "ms/step", "ms_per_op": "ms", "checks_per_s": "check/s",
    "overhead_ratio": "ratio",
}
# Work counts derived from n, m and the returned blocks, not counted by the program.
COMPUTED = ("blockdp.cells_per_op", "bruteforce.assignments_per_op")


def per_layer(run: Run, tracer: spans.Tracer) -> tuple[dict, list[str]]:
    ops = len(run.traced.latencies_ns)
    values = spans.layer_metrics(tracer.spans, ops, run.traced.social_costs)
    values["trace.overhead_ratio"] = (statistics.median(run.traced.latencies_ns)
                                      / statistics.median(run.untraced.latencies_ns))
    metrics = {name: {"value": v, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[1]]}
               for name, v in values.items()}
    share_sum = sum(v for k, v in values.items() if k.endswith(".share"))
    lines = [f"{name:<46} {m['value']:>14.6g} {m['unit']}"
             + ("  (computed, not measured)" if name in COMPUTED else "")
             for name, m in metrics.items()]
    lines.append(f"{'sum of layer shares':<46} {share_sum:>14.6g} "
                 f"({ops} traced ops, {len(tracer.spans)} spans)")
    return metrics, lines


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    meta = metadata(args.workload, args.seed)
    print(f"# facshare benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta))
    with tempfile.TemporaryDirectory(dir=OUT) as tmpname:
        tmp = Path(tmpname)
        ops = workloads.build_ops(args.workload, args.seed, tmp)
        warmup = workloads.warmup_ops(args.workload, tmp)
        setup_s = setup_seconds(warmup, tmp)
        facshare, cli = import_library()
        warm_failures = [f for f in (execute(cli, op)[2] for op in warmup) if f]
        planted = checks.selftest(facshare, cli.main, tmp)
        print(f"selftest {sum(planted.values())}/{len(planted)} "
              + json.dumps(planted))
        tracer = None
        if args.trace:
            tracer = spans.Tracer({name: sys.modules[name]
                                   for name in ("facshare", *spans.LAYERS)})
        run = measure(cli, ops, args.seconds, tracer)

    for failure in (warm_failures + run.failures)[:10]:
        print("FAILED " + failure)
    if tracer is None:
        metrics, lines = end_to_end(run, setup_s, args.workload)
    else:
        metrics, lines = per_layer(run, tracer)
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({"meta": meta, "spans": tracer.spans}))
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    print("\n".join(lines))
    correct = not run.failures and not warm_failures and all(planted.values())
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{workload}/{name}": m
                                   for name, m in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "facshare" / "__init__.py").is_file():
        print(f"error: no facshare sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
