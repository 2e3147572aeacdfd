"""Record the reference outputs the checks compare against.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs are the reference; it writes
reference/<workload>.solution.csv.gz and reference/<workload>.json for
every workload whose outputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCE_DIR, parse_report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED_FREE = ("solve-s4",)


def main() -> int:
    from resbvp.cli import run

    REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = HERE.parent / ".perfbench_out" / "reference"
    for name in SEED_FREE:
        out = scratch / name
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(WORKLOADS[name].run_config(0, out, out))
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        report = parse_report((out / "report.txt").read_text(encoding="utf-8"))
        csv = (out / "solution.csv").read_bytes()
        (REFERENCE_DIR / f"{name}.solution.csv.gz").write_bytes(gzip.compress(csv, 9, mtime=0))
        meta = {"pde_residual": float(report["pde residual (interior)"])}
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        shutil.rmtree(out)
        print(f"{name}: recorded {len(csv)} bytes, {meta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
