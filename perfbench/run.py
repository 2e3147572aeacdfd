#!/usr/bin/env python3
"""Benchmark of the resbvp CLI flows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One workload runs in this one process,
which drives ``resbvp.cli.run`` in-process with stdout captured, one flow
at a time, each into a fresh output directory under ``.perfbench_out/``.
Every flow's exit code and outputs are checked (checks.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  flow_s       median wall time of a warm flow of this process
  cold_flow_s  median time of the first flow in a fresh process (this one
               and fresh interpreters started by cold.py)
  setup_s      median time of ``import resbvp.cli`` in a fresh interpreter
  peak_rss_mb  median peak resident memory of the cold interpreters,
               which import resbvp and run one flow, nothing else
Warm flows, cold flows and import-only interpreters are interleaved
(CYCLE) for S seconds, one at a time.

--trace 1 prints the per-layer metrics: traced and untraced flows
alternate for S seconds; the traced ones record spans (tracing.py) and
the spans are written to .perfbench_out/<run>/spans.json at the end.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are diagnostics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import FlowContext, check_flow, load_reference
from tracing import Tracer
from workloads import AFFINE_DIM, AFFINE_GRID, WORKLOADS, write_affine_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

# A --trace 0 run repeats the cycle below for --seconds, so that the
# samples of each metric spread over the whole run and share its slow
# drift in machine speed.  "warm" is a flow of this process, "setup" a
# fresh interpreter that only imports resbvp.cli, "cold" a fresh
# interpreter that imports it and runs one flow.  A step is skipped once
# its last duration no longer fits in the time left and its metric has
# the minimum number of samples, so a run ends close to --seconds.
CYCLE = ("warm", "setup", "warm", "warm", "cold", "setup")
MIN_SAMPLES = {"warm": 3, "cold": 2, "setup": 9}
CHILD_TIMEOUT_S = 120
CRASHED = -1  # exit code recorded for a flow that raised
# The self-time figures of the per-layer table must add up to the traced
# flow time within this share.
SELF_SUM_SLACK = 0.05


def _fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


class Run:
    """State of one benchmark run: workload, checks, counters."""

    def __init__(self, workload, seed: int, run_dir: Path) -> None:
        self.w = workload
        self.seed = seed
        self.dir = run_dir
        self.input_dir = run_dir / "input"
        self.n_flows = 0
        self.failures: list[str] = []
        self.attempted = 0
        reference, ref_csv = load_reference(workload.name)
        self.ctx = FlowContext(
            workload=workload.name,
            max_iter=workload.max_iter,
            reference=reference,
            ref_csv=ref_csv,
        )

    def next_out(self) -> Path:
        self.n_flows += 1
        return self.dir / f"flow-{self.n_flows:03d}"

    def account(self, exit_code: int, out: Path) -> dict:
        """Check one flow's outputs, count it, and remove its directory."""
        self.attempted += 1
        failures, report = check_flow(self.ctx, exit_code, out)
        if failures:
            self.failures.append(f"{out.name}: " + "; ".join(failures))
        shutil.rmtree(out, ignore_errors=True)
        return report

    def flow(self) -> tuple[float, Path, int]:
        """One in-process flow; returns its wall time (outputs not yet checked)."""
        from resbvp import cli

        out = self.next_out()
        cfg = self.w.run_config(self.seed, out, self.input_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli.run(cfg)
            except Exception:  # a crashing flow is a failed flow, not a crashed run
                traceback.print_exc()
                code = CRASHED
            dt = time.perf_counter() - t0
        return dt, out, code

    def timed_flow(self) -> float:
        dt, out, code = self.flow()
        self.account(code, out)
        return dt

    def child(self, import_only: bool) -> dict:
        out = self.next_out()
        cmd = [
            sys.executable, str(HERE / "cold.py"),
            "--workload", self.w.name, "--seed", str(self.seed),
            "--out", str(out), "--input", str(self.input_dir),
        ]
        if import_only:
            cmd.append("--import-only")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"cold.py failed ({proc.returncode}): {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not import_only:
            self.account(result["exit"], out)
        return result


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    samples = {"warm": [], "setup": [], "cold": [run.timed_flow()], "rss": []}  # this process's first flow is cold
    last = {"warm": time.perf_counter() - t0}
    for step in itertools.count():
        left = seconds - (time.perf_counter() - t0)
        done = {k for k, n in MIN_SAMPLES.items() if len(samples[k]) >= n}
        if done == set(MIN_SAMPLES) and all(last.get(k, 0.0) > left for k in CYCLE):
            break
        kind = CYCLE[step % len(CYCLE)]
        if kind in done and last.get(kind, 0.0) > left:
            continue
        start = time.perf_counter()
        if kind == "warm":
            samples["warm"].append(run.timed_flow())
        else:
            child = run.child(import_only=kind == "setup")
            samples["setup"].append(child["setup_s"])
            if kind == "cold":
                samples["cold"].append(child["flow_s"])
                samples["rss"].append(child["peak_rss_mb"])
        last[kind] = time.perf_counter() - start

    metrics = {
        "flow_s": statistics.median(samples["warm"]),
        "cold_flow_s": statistics.median(samples["cold"]),
        "setup_s": statistics.median(samples["setup"]),
        "peak_rss_mb": statistics.median(samples["rss"]),
    }
    return metrics, samples


def _report_float(report: dict, key: str) -> float:
    try:
        return float(report[key])
    except (KeyError, ValueError):
        return 0.0


# Per-layer metric -> (span name, field of tracing.Tracer.flow_totals).
SPAN_METRICS = {
    "fracops.frac_integral.calls": ("fracops.frac_integral", "calls"),
    "fracops.frac_integral.self_s": ("fracops.frac_integral", "self"),
    "fracops.frac_integral.nodes": ("fracops.frac_integral", "work"),
    "fracops.frac_derivative.self_s": ("fracops.frac_derivative", "self"),
    "fracops.cumulative_integral.self_s": ("fracops.cumulative_integral", "self"),
    "solver.apply_rhs.calls": ("solver.apply_rhs", "calls"),
    "solver.apply_rhs.self_s": ("solver.apply_rhs", "self"),
    "solver.fixed_point_map.calls": ("solver.fixed_point_map", "calls"),
    "solver.fixed_point_map.self_s": ("solver.fixed_point_map", "self"),
    "solver.solve.self_s": ("solver.solve", "self"),
    "solver.residuals.s": ("solver.residuals", "incl"),
    "solver.residuals.self_s": ("solver.residuals", "self"),
    "resonance.boundary_functional.calls": ("resonance.boundary_functional", "calls"),
    "resonance.boundary_functional.self_s": ("resonance.boundary_functional", "self"),
    "resonance.evaluate.calls": ("resonance.evaluate", "calls"),
    "resonance.evaluate.self_s": ("resonance.evaluate", "self"),
    "resonance.project_obstruction.calls": ("resonance.project_obstruction", "calls"),
    "resonance.build_resonance.self_s": ("resonance.build_resonance", "self"),
    "resonance.verify_structure.self_s": ("resonance.verify_structure", "self"),
    "linops.pinv.calls": ("linops.pinv", "calls"),
    "linops.kernel_basis.calls": ("linops.kernel_basis", "calls"),
    "linops.load_matrix_csv.self_s": ("linops.load_matrix_csv", "self"),
    "conditions.check_growth_bound.self_s": ("conditions.check_growth_bound", "self"),
    "conditions.probe_large_trace_defect.self_s": ("conditions.probe_large_trace_defect", "self"),
    "conditions.probe_kernel_sign.self_s": ("conditions.probe_kernel_sign", "self"),
    "cli.parse_config.s": ("cli.parse_config", "incl"),
    "cli.run.self_s": ("cli.run", "self"),
}
# The SVD-backed linops functions; their time is linops.svd_s.  They call
# no traced function, so their inclusive time is their self time.
SVD_SPANS = ("linops.pinv", "linops.kernel_basis", "linops.operator_norm")
# The self-time table: every span's self time is in one of these figures,
# except resonance.project_obstruction (published as calls only) and
# cli.parse_config (its inclusive time holds load_matrix_csv).  Their sum
# is checked against the traced flow time, so a span whose time the table
# misses, or a figure that counts a child twice, fails the run.
SELF_TABLE = tuple(n for n in SPAN_METRICS if n.endswith(".self_s")) + ("linops.svd_s",)


def _layer_values(totals: dict, report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced flow.  A function that is absent or
    never called counts 0 calls and 0 seconds."""

    def get(span: str, field: str) -> float:
        return totals[span][field] if span in totals else 0

    values = {name: get(span, field) for name, (span, field) in SPAN_METRICS.items()}
    fpm = get("solver.fixed_point_map", "calls")
    values["fracops.frac_integral.per_iter"] = get("fracops.frac_integral", "calls") / fpm if fpm else 0.0
    values["linops.svd_s"] = sum(get(span, "incl") for span in SVD_SPANS)
    values["solver.iterations"] = _report_float(report, "iterations")
    values["report.pde_residual"] = _report_float(report, "pde residual (interior)")
    values["report.roundtrip_window"] = _report_float(report, "round trip (t in [.1,.9])")
    return values


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.prepare()
    run.timed_flow()  # first flow of this process: fills caches, not timed
    plain, traced, totals = [], [], []
    t0 = time.perf_counter()
    pair_s = 0.0  # duration of the last untraced + traced pair
    while len(traced) < 2 or time.perf_counter() - t0 + pair_s <= seconds:
        start = time.perf_counter()
        plain.append(run.timed_flow())
        tracer.flow = run.n_flows + 1
        tracer.install()
        try:
            dt, out, code = run.flow()
        finally:
            tracer.uninstall()
        report = run.account(code, out)
        traced.append(dt)
        totals.append((tracer.flow_totals(tracer.flow), report))
        pair_s = time.perf_counter() - start
    tracer.write(run.dir / "spans.json")

    rows = [_layer_values(t, r) for t, r in totals]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.flow_s"] = statistics.median(traced)
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    shares = [sum(row[n] for n in SELF_TABLE) / dt for row, dt in zip(rows, traced)]
    bad = [s for s in shares if not 1.0 - SELF_SUM_SLACK <= s <= 1.0 + 1e-9]
    if bad:
        raise RuntimeError(f"the self-time table adds up to {bad} of the traced flow time")
    samples = {
        "traced_flows": len(traced),
        "untraced_flows": len(plain),
        "self_table_share": shares,
        "absent": tracer.absent,
    }
    return metrics, samples


def environment(workload) -> dict:
    import numpy as np

    # Largest arrays the quadrature touches per call: the (N+1) x dim
    # samples and the two weight vectors, 8 bytes a value (computed, not
    # measured).
    grid = workload.grid_n or AFFINE_GRID
    dim = 3 * workload.k if workload.builtin else AFFINE_DIM
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "working_set_bytes": {"samples": 8 * (grid + 1) * dim, "weights": 2 * 8 * (grid + 1)},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "resbvp" / "cli.py").is_file():
        return _fail(f"no resbvp sources under {SRC}; run from a repository checkout")
    if not spec_path.is_file():
        return _fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    run_dir = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(workload, args.seed, run_dir)
    if workload.generated:
        run.ctx.affine = write_affine_inputs(args.seed, run.input_dir)

    if args.trace:
        metrics, samples = per_layer(run, args.seconds)
        wanted = spec["per_layer"]
    else:
        metrics, samples = end_to_end(run, args.seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not computed: {missing}")

    print(json.dumps({"environment": environment(workload)}))
    print(json.dumps({"samples": samples, "failures": run.failures}))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
