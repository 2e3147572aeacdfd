"""Output checks of one flow: exit code, report.txt figures, solution.csv.

``check_flow`` returns the list of failed checks; an empty list is a
correct flow.  The thresholds are fixed here, before any run, and none is
derived from the run being checked.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The algebraic residuals the solver drives to zero (its tol_residual).
ALGEBRAIC_TOL = 1e-6
# solution.csv against the reference recorded for the workload: each value
# within this share of its column's scale.  Loose enough for the
# rounding-level drift of a different convolution order or of
# cancellation-free quadrature weights (below 1e-9 at N = 4096), tight
# enough to catch any change at discretisation level (1e-6 and above).
CSV_RTOL = 1e-7
# Accuracy may not get worse than the recorded reference by more than this.
ACCURACY_SLACK = 1e-3
# Structural identities of analyze that are exact up to rounding.
IDENTITY_TOL = 1e-12
# Grid-limited round-trip residuals of analyze at N = 16384 (1.6e-3 to
# 2.2e-3 and 3.5e-6 to 4.9e-6 on seeds 0-2).
ROUNDTRIP_TOL = 1e-2
ROUNDTRIP_WINDOW_TOL = 2e-5
# Checks of the affine solve from solution.csv alone, with no reference:
# the derivative of the dtrace columns against f(t, x, dtrace), by central
# differences on t in [0.1, 0.9]; and x against I^(alpha-1) dtrace, which
# it equals since x(0) = 0.  Both are grid-limited: at most 2.2e-6 and
# 8.1e-8 on seeds 0-9, with |x| up to 6.
AFFINE_ODE_TOL = 1e-4
AFFINE_TRACE_TOL = 1e-6


def parse_report(text: str) -> dict[str, str]:
    """``key : value`` lines of report.txt, keys stripped."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and not line.startswith(("resbvp report", "problem:")):
            out[key.strip()] = value.strip()
    return out


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and values of a solution.csv, plain or gzipped."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        cols = fh.readline().strip().split(",")
    return cols, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@dataclass
class FlowContext:
    """What the checks of one run share: references and the first bytes seen."""

    workload: str
    max_iter: int
    reference: dict | None = None
    ref_csv: tuple[list[str], np.ndarray] | None = None
    affine: dict | None = None
    first_csv_digest: str | None = None
    checked_digests: set = field(default_factory=set)


def load_reference(workload: str) -> tuple[dict | None, tuple[list[str], np.ndarray] | None]:
    meta_path = REFERENCE_DIR / f"{workload}.json"
    if not meta_path.exists():
        return None, None
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    csv_path = REFERENCE_DIR / f"{workload}.solution.csv.gz"
    ref_csv = None
    if csv_path.exists():
        ref_csv = read_csv(csv_path)
    return meta, ref_csv


def _num(report: dict, key: str, failures: list[str]) -> float:
    try:
        return float(report[key])
    except (KeyError, ValueError):
        failures.append(f"report.txt lacks a number for {key!r}")
        return float("nan")


def _expect(report: dict, key: str, value: str, failures: list[str]) -> None:
    if report.get(key) != value:
        failures.append(f"report.txt {key!r} is {report.get(key)!r}, expected {value!r}")


def _at_most(report: dict, key: str, limit: float, failures: list[str]) -> None:
    v = _num(report, key, failures)
    if not v <= limit:
        failures.append(f"report.txt {key!r} = {v!r} exceeds {limit!r}")


def _check_solve(report: dict, ctx: FlowContext, failures: list[str]) -> None:
    _expect(report, "converged", "True", failures)
    _expect(report, "diverged", "False", failures)
    it = _num(report, "iterations", failures)
    if not 1 <= it < ctx.max_iter:
        failures.append(f"iterations = {it!r} not in [1, {ctx.max_iter})")
    _at_most(report, "right bc defect", ALGEBRAIC_TOL, failures)
    _at_most(report, "solvability defect", ALGEBRAIC_TOL, failures)
    if ctx.reference is not None:
        ref = ctx.reference["pde_residual"]
        _at_most(report, "pde residual (interior)", ref * (1.0 + ACCURACY_SLACK), failures)


def _compare_reference(cols, data, ctx: FlowContext, failures: list[str]) -> None:
    ref_cols, ref = ctx.ref_csv
    if cols != ref_cols or data.shape != ref.shape:
        failures.append(f"solution.csv shape {data.shape} differs from reference {ref.shape}")
        return
    colmax = np.max(np.abs(ref), axis=0)
    scale = np.maximum(colmax, 1e-3 * colmax.max())
    dev = np.max(np.abs(data - ref) / scale, axis=0)
    if not np.all(dev <= CSV_RTOL):
        j = int(np.argmax(dev))
        failures.append(
            f"solution.csv column {cols[j]!r} deviates from the reference by "
            f"{dev[j]:.3g} of its scale (limit {CSV_RTOL:g})"
        )


def _frac_integral(y: np.ndarray, a: float) -> np.ndarray:
    """Product-trapezoidal I^a of the columns of y on the uniform grid of [0, 1]."""
    n = y.shape[0] - 1
    m = np.arange(n + 1, dtype=float)
    b = np.ones(n + 1)
    b[1:] = (m[1:] + 1.0) ** (a + 1.0) - 2.0 * m[1:] ** (a + 1.0) + (m[1:] - 1.0) ** (a + 1.0)
    w0 = np.zeros(n + 1)
    w0[1:] = (m[1:] - 1.0) ** (a + 1.0) - (m[1:] - 1.0 - a) * m[1:] ** a
    out = np.empty_like(y)
    for c in range(y.shape[1]):
        out[:, c] = np.convolve(b, y[:, c])[: n + 1] - b * y[0, c] + w0 * y[0, c]
    out[0] = 0.0
    return out * (1.0 / n) ** a / math.gamma(a + 2.0)


def _check_affine_csv(cols, data, ctx: FlowContext, failures: list[str]) -> None:
    a_op, c_mat, d_mat = ctx.affine["a_op"], ctx.affine["c"], ctx.affine["d"]
    n = a_op.shape[0]
    grid = ctx.affine["grid_n"]
    if data.shape != (grid + 1, 2 * n + 1):
        failures.append(f"solution.csv shape {data.shape}, expected {(grid + 1, 2 * n + 1)}")
        return
    t, x, d = data[:, 0], data[:, 1 : n + 1], data[:, n + 1 :]
    if not np.all(np.isfinite(data)):
        failures.append("solution.csv has non-finite values")
        return
    if np.max(np.abs(t - np.arange(grid + 1) / grid)) > 1e-15:
        failures.append("solution.csv t column is not the uniform grid")
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x[0])) != 0.0:
        failures.append("solution.csv x(0) is not 0")
    bc = float(np.linalg.norm(x[grid] - a_op @ x[grid // 4]))
    if bc > ALGEBRAIC_TOL * scale:
        failures.append(f"solution.csv violates x(1) = A x(1/4) by {bc:.3g}")
    h = 1.0 / grid
    lo, hi = grid // 10, (9 * grid) // 10
    deriv = (d[lo + 1 : hi + 2] - d[lo - 1 : hi]) / (2.0 * h)
    xs, ds, ts = x[lo : hi + 1], d[lo : hi + 1], t[lo : hi + 1]
    f = xs @ c_mat.T + ds @ d_mat.T + np.sqrt(ts)[:, None]
    ode = float(np.max(np.abs(deriv - f)))
    if ode > AFFINE_ODE_TOL:
        failures.append(f"solution.csv misses D^a x = f(t, x, D^(a-1) x) by {ode:.3g}")
    trace = float(np.max(np.abs(x - _frac_integral(d, ctx.affine["alpha"] - 1.0))))
    if trace > AFFINE_TRACE_TOL:
        failures.append(f"solution.csv x differs from I^(a-1) of its dtrace by {trace:.3g}")


def _check_csv(path: Path, ctx: FlowContext, failures: list[str]) -> None:
    if not path.exists():
        failures.append("solution.csv missing")
        return
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if ctx.first_csv_digest is None:
        ctx.first_csv_digest = digest
    elif digest != ctx.first_csv_digest:
        failures.append("solution.csv differs from the first flow's bytes")
    if digest in ctx.checked_digests:
        return
    n_fail = len(failures)
    cols, data = read_csv(path)
    if ctx.ref_csv is not None:
        _compare_reference(cols, data, ctx, failures)
    if ctx.affine is not None:
        _check_affine_csv(cols, data, ctx, failures)
    if len(failures) == n_fail:
        ctx.checked_digests.add(digest)


def check_flow(ctx: FlowContext, exit_code: int, out_dir: Path) -> tuple[list[str], dict]:
    """Check one flow's exit code and outputs; return failures and report."""
    failures: list[str] = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}, expected 0")
    report_path = out_dir / "report.txt"
    if not report_path.exists():
        return failures + ["report.txt missing"], {}
    report = parse_report(report_path.read_text(encoding="utf-8"))
    if "error" in report:
        failures.append(f"flow reported error: {report['error']}")
    w = ctx.workload
    if w == "solve-s4":
        _expect(report, "kernel dimension", "4", failures)
        _check_solve(report, ctx, failures)
        _check_csv(out_dir / "solution.csv", ctx, failures)
    elif w == "solve-affine":
        _expect(report, "kernel dimension", "2", failures)
        _at_most(report, "ep defect", IDENTITY_TOL, failures)
        _check_solve(report, ctx, failures)
        _check_csv(out_dir / "solution.csv", ctx, failures)
    elif w == "analyze-fine":
        _expect(report, "kernel dimension", "1", failures)
        _expect(report, "margins satisfied", "True", failures)
        for key in (
            "projector identity",
            "obstruction idempotency",
            "obstruction on solvables",
            "kernel elements fixed",
        ):
            _at_most(report, key, IDENTITY_TOL, failures)
        _at_most(report, "derivative round trip", ROUNDTRIP_TOL, failures)
        _at_most(report, "round trip (t in [.1,.9])", ROUNDTRIP_WINDOW_TOL, failures)
    elif w == "hypotheses":
        _expect(report, "margins satisfied", "True", failures)
        _expect(report, "strict sign", "positive", failures)
        _expect(report, "growth envelope samples", "2000", failures)
        if not _num(report, "min range-escape defect", failures) > 0.0:
            failures.append("range-escape probe found a non-positive defect")
    else:
        failures.append(f"no checks defined for workload {w!r}")
    return failures, report
