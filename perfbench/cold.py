"""One fresh interpreter: time ``import resbvp.cli`` and, unless told not
to, the first flow of a workload, after which it also reports its peak
resident memory.  Prints one JSON line.

    python3 perfbench/cold.py --workload NAME --seed N --out DIR --input DIR [--import-only]

The parent process (run.py) starts these one at a time and checks the
flow's outputs; nothing else runs while one of them is measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--input", type=Path, required=True)
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import resbvp.cli

    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not args.import_only:
        from workloads import WORKLOADS

        cfg = WORKLOADS[args.workload].run_config(args.seed, args.out, args.input)
        with contextlib.redirect_stdout(io.StringIO()):
            t1 = time.perf_counter()
            try:
                result["exit"] = resbvp.cli.run(cfg)
            except Exception:  # counted as a failed flow by the parent
                traceback.print_exc()
                result["exit"] = -1
            result["flow_s"] = time.perf_counter() - t1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
