"""Self-check of the output checks and of the failure accounting.

    python3 perfbench/selfcheck.py

Runs one flow of each solve workload, then hands run.py's accounting
three copies of it: the flow as written, the flow with one solution.csv
value perturbed, and the flow with a wrong exit code.  Each copy is
checked on its own (so the perturbation must be caught by the content
checks, not by comparison with an earlier flow) and then all three in one
run.  Exits 0 only if exactly the two bad copies count as failed.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run as bench
from workloads import WORKLOADS, write_affine_inputs

# workload -> (row, column, absolute change) of the solution.csv value to
# perturb.  Row 2000 of solve-s4 is t = 0.488, column 1 is x_1, whose scale
# is 0.17, so 1e-6 is 6e-6 of it: 60 times the reference tolerance.
# Row 600 of solve-affine is t = 0.586; 1e-5 in x_3 is 10 times the
# tolerance of the x = I^(alpha-1) dtrace check.
PERTURB = {"solve-s4": (2000, 1, 1e-6), "solve-affine": (600, 3, 1e-5)}
SEED = 0


def _perturb(csv: Path, row: int, col: int, delta: float) -> None:
    lines = csv.read_text(encoding="utf-8").split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    csv.write_text("\n".join(lines), encoding="utf-8")


def _new_run(workload, base: Path, affine) -> bench.Run:
    run = bench.Run(workload, SEED, base)
    run.ctx.affine = affine
    return run


def check(name: str) -> list[str]:
    workload = WORKLOADS[name]
    base = bench.OUT_ROOT / "selfcheck" / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    first = _new_run(workload, base, None)
    if workload.generated:
        first.ctx.affine = write_affine_inputs(SEED, first.input_dir)
    _, out, code = first.flow()

    cases = {"good": code, "perturbed": code, "wrong-exit": code + 1}
    for label in cases:
        shutil.copytree(out, base / f"{label}-alone")
        shutil.copytree(out, base / f"{label}-together")
        if label == "perturbed":
            for suffix in ("alone", "together"):
                _perturb(base / f"{label}-{suffix}" / "solution.csv", *PERTURB[name])
    shutil.rmtree(out)

    problems = []
    for label, exit_code in cases.items():
        run = _new_run(workload, base, first.ctx.affine)
        run.account(exit_code, base / f"{label}-alone")
        if bool(run.failures) != (label != "good"):
            problems.append(f"{name}: {label} copy counted as {'failed' if run.failures else 'correct'}")
        print(f"{name} {label}: {run.failures or 'correct'}")
    together = _new_run(workload, base, first.ctx.affine)
    for label, exit_code in cases.items():
        together.account(exit_code, base / f"{label}-together")
    if (together.attempted, len(together.failures)) != (3, 2):
        problems.append(
            f"{name}: one run counted {len(together.failures)} of {together.attempted} flows as failed"
        )
    shutil.rmtree(base)
    return problems


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    problems = [p for name in PERTURB for p in check(name)]
    for p in problems:
        print("SELF-CHECK FAILED:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
