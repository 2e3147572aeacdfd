"""Spans around calls into the public functions of each resbvp layer.

The program is not changed: ``Tracer.install`` rebinds every listed
function, in every ``resbvp.*`` namespace that binds it, to a wrapper that
records a span (name, start, end, parent span, flow id).  Spans stay in
memory until ``write``.  A function's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layer module -> public functions wrapped in it.  The span name is
# "<layer>.<function>".
TRACED: dict[str, tuple[str, ...]] = {
    "fracops": ("frac_integral", "frac_derivative", "cumulative_integral"),
    "solver": ("apply_rhs", "fixed_point_map", "solve", "residuals"),
    "resonance": (
        "boundary_functional",
        "evaluate",
        "project_obstruction",
        "build_resonance",
        "verify_structure",
    ),
    "linops": ("pinv", "kernel_basis", "operator_norm", "load_matrix_csv"),
    "conditions": ("check_growth_bound", "probe_large_trace_defect", "probe_kernel_sign"),
    "cli": ("parse_config", "run"),
}

# Grid nodes handled by a call, sum over components: (N + 1) * dim.
_WORK = {
    "fracops.frac_integral": lambda args, kwargs: int((args[0] if args else kwargs["y"]).values.size)
}


class CoverageError(RuntimeError):
    """A reference to a traced function was left unwrapped."""


def _resbvp_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "resbvp" or name.startswith("resbvp."))
    ]


class Tracer:
    """Spans of the traced functions, kept in memory, grouped by flow id."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, flow, work)
        self.flow: int = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._bindings: list[tuple[object, str, str]] = []  # (module, attr, span name)

    def _wrap(self, name: str, fn):
        work = _WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            n = work(args, kwargs) if work else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.flow, n)

        return wrapper

    def prepare(self) -> None:
        """Find every binding of the traced functions; nothing is rebound yet."""
        import resbvp.cli  # noqa: F401  (loads every layer)

        modules = {m.__name__: m for m in _resbvp_modules()}
        for layer, names in TRACED.items():
            home = modules.get(f"resbvp.{layer}")
            for fname in names:
                span = f"{layer}.{fname}"
                fn = getattr(home, fname, None) if home is not None else None
                if fn is None:
                    self.absent.append(span)
                    continue
                self._originals[span] = fn
                self._wrappers[span] = self._wrap(span, fn)
        by_id = {id(fn): span for span, fn in self._originals.items()}
        for mod in modules.values():
            for attr, value in vars(mod).items():
                span = by_id.get(id(value))
                if span is not None:
                    self._bindings.append((mod, attr, span))

    def install(self) -> None:
        for mod, attr, span in self._bindings:
            setattr(mod, attr, self._wrappers[span])
        self._check_coverage()

    def uninstall(self) -> None:
        for mod, attr, span in self._bindings:
            setattr(mod, attr, self._originals[span])

    def _check_coverage(self) -> None:
        """Fail loudly if a resbvp module attribute still holds an unwrapped
        original, for example in a module imported after ``prepare``."""
        originals = {id(fn): span for span, fn in self._originals.items()}
        leaks = [
            f"{mod.__name__}.{attr} -> {originals[id(value)]}"
            for mod in _resbvp_modules()
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]
        if leaks:
            self.uninstall()
            raise CoverageError("unwrapped references to traced functions: " + "; ".join(leaks))

    def flow_totals(self, flow: int) -> dict[str, dict[str, float]]:
        """Per span name within one flow: calls, inclusive and self seconds, work."""
        rows = [(i, s) for i, s in enumerate(self.spans) if s is not None and s[4] == flow]
        covered: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _, _) in rows:
            covered[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "work": 0}
        )
        for i, (name, start, end, _, _, work) in rows:
            t = totals[name]
            t["calls"] += 1
            t["incl"] += end - start
            t["self"] += end - start - covered[i]
            t["work"] += work
        return totals

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "flow", "work")
        rows = [dict(zip(keys, s)) for s in self.spans if s is not None]
        path.write_text(json.dumps({"absent": self.absent, "spans": rows}) + "\n", encoding="utf-8")
