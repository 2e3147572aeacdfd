"""Command-line front end: ingestion, orchestration, report/CSV emission.

Commands
    analyze            resonance decomposition + structural identity checks
    solve              damped fixed-point solve, solution.csv + report.txt
    check-hypotheses   growth margins and sampling probes
    verify-example     solve of a builtin (section4, grid_n 4096 by default)
                       plus its golden checks, all on the one grid

A run takes its problem from exactly one source: ``--builtin NAME`` or
``--config PATH``; passing both is an input error.  ``--k`` (block
count, default 1) applies to ``--builtin`` only; a config file sets it
in [operator], and ``--k`` beside ``--config`` is a usage error.  The
file is sectioned key = value text:

    [problem]
    alpha = 1.5
    xi = 0.25
    grid_n = 256

    [operator]
    builtin = section4
    # or:  csv = matrix.csv
    k = 1

    [rhs]
    builtin = section4
    # or the affine form f = C u + D v + g(t):
    # c_matrix = C.csv
    # d_matrix = D.csv
    # g_profile = zero | one | t | sqrt

A ``#`` starts a comment only at the start of a line.  A key the chosen
problem does not read is rejected at its line (the first such key by
line), after every value it does read has been checked.  Config and
matrix files are UTF-8; a byte that is not is reported with its line.
``--grid`` replaces a file's grid_n before the one ``ProblemSpec`` is
built; only that grid meets its grid rule, grid_n >= 8.  xi need not be
a grid node: the boundary condition is read at xi itself.

``--seed`` drives the sampled checks of analyze, check-hypotheses and
verify-example; solve starts from the zero element and does not read it.
Every command rejects a negative seed.

Exit codes: 0 success; 1 non-resonant problem, or failed smallness
margins in check-hypotheses and verify-example (ahead of
non-convergence); 2 solver non-convergence; 3 input or usage error (a
value error in a config file, or a matrix file it names that cannot be
opened, names the key's line as ``<path>:<line>:``), or a problem too
large for the memory available (the line names the grid).
Every command prints the margins once.

Each report block is a title plus ``(label, value)`` rows that ``_render``
writes as ``label : value`` lines (label column 24 wide or the longest
label, floats as ``%.17g``); only the golden checks and notes are free-form.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .conditions import (
    GrowthSampleReport,
    GrowthSpec,
    KernelSignProbe,
    MarginsReport,
    TraceDefectProbe,
    check_growth_bound,
    check_growth_margins,
    probe_kernel_sign,
    probe_large_trace_defect,
)
from .fracops import Order
from .linops import load_matrix_csv, operator_norm, text_lines
from .problems import BUILTINS, Section4Report, verify_section4
from .resonance import NonResonantError, ProblemSpec, ResonanceData, build_resonance, verify_structure
from .solver import RhsEvaluationError, SolveOptions, SolveReport, solve

__all__ = ["RunConfig", "parse_config", "run", "main"]

_COMMANDS = ("analyze", "solve", "check-hypotheses", "verify-example")

_G_PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "zero": np.zeros_like,
    "one": np.ones_like,
    "t": lambda t: t,
    "sqrt": np.sqrt,
}


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


@dataclass
class RunConfig:
    command: str
    builtin: str | None = None
    k: int = 1
    config_path: str | None = None
    grid_n: int | None = None
    damping: float = SolveOptions.relax
    max_iter: int = SolveOptions.max_iter
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; choose from {_COMMANDS}")


_KNOWN_KEYS = {
    "problem": {"alpha", "xi", "grid_n"},
    "operator": {"builtin", "k", "csv"},
    "rhs": {"builtin", "c_matrix", "d_matrix", "g_profile"},
}


def _parse_sections(path: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {name: {} for name in _KNOWN_KEYS}
    current: str | None = None
    for lineno, line in text_lines(path):
        if line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            first = sections[current][key][1]
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} in section [{current}] (first set on line {first})"
            )
        sections[current][key] = (value.strip(), lineno)
    return sections


def _builtin_problem(name: str, k: int, grid_n: int) -> tuple[ProblemSpec, GrowthSpec, str]:
    """Builtin ``name`` with k blocks on a grid_n grid, its growth envelope
    and its report label: the one place a builtin is built."""
    if name not in BUILTINS:
        raise ConfigError(f"unknown builtin {name!r}; available: {sorted(BUILTINS)}")
    return BUILTINS[name].build(k, grid_n), BUILTINS[name].growth(), f"builtin:{name}"


def parse_config(path: str, grid_n: int | None = None) -> tuple[ProblemSpec, GrowthSpec, str]:
    """Parse a problem file into a spec, its growth envelope and the
    problem label of the report.

    Every problem source derives an envelope: the builtin's own, or the
    exact one of the affine form.  A bad value, or a matrix file that
    cannot be opened, raises ``ConfigError`` prefixed ``<path>:<line>:``
    with the line of its key.  Each value is read through ``value()``,
    which marks its key; once the chosen problem has read and checked
    all it uses, the first key by line left unread is rejected as
    ignored.  ``grid_n`` (``--grid``) replaces the file's grid_n, still
    read and type-checked, before the one spec is built: only the grid
    in use must meet ``ProblemSpec``'s grid rule.
    """
    sections = _parse_sections(path)
    base = Path(path).parent
    read: set[tuple[str, str]] = set()  # (section, key) of every value the problem uses

    def at(name: str, key: str) -> str:
        return f"{path}:{sections[name][key][1]}:"

    def value(name: str, key: str, kind: type = str, default=None):
        if key not in sections[name]:
            return default
        read.add((name, key))
        try:
            return kind(sections[name][key][0])
        except ValueError as exc:
            noun = "a number" if kind is float else "an integer"
            raise ConfigError(f"{at(name, key)} {key} must be {noun}, got {sections[name][key][0]!r}") from exc

    def load(name: str, key: str) -> np.ndarray:
        try:
            return load_matrix_csv(base / value(name, key))
        except OSError as exc:
            raise ConfigError(f"{at(name, key)} cannot read {key} file: {exc.strerror or exc}") from None

    file_grid = value("problem", "grid_n", int, 256)
    # A grid error names the file's grid_n line; a --grid value has none.
    grid_key = "grid_n" if grid_n is None and "grid_n" in sections["problem"] else None
    grid_n = file_grid if grid_n is None else grid_n

    op_builtin = value("operator", "builtin")
    if op_builtin is not None:
        if op_builtin not in BUILTINS:
            raise ConfigError(f"{at('operator', 'builtin')} unknown builtin {op_builtin!r}")
        # The builtin operator brings its own rhs: another [rhs] builtin is left unread.
        if sections["rhs"].get("builtin", ("",))[0] == op_builtin:
            value("rhs", "builtin")
        k = value("operator", "k", int, 1)
        builtin = BUILTINS[op_builtin]
        for key, fixed in (("alpha", builtin.alpha), ("xi", builtin.xi)):
            if not abs(value("problem", key, float, fixed) - fixed) <= 1e-12:  # nan too
                raise ConfigError(
                    f"{at('problem', key)} builtin {op_builtin!r} fixes "
                    f"alpha = {builtin.alpha} and xi = {builtin.xi}"
                )
        if k < 1:
            raise ConfigError(f"{at('operator', 'k')} block count must be positive, got {k}")
    else:
        if "csv" not in sections["operator"]:
            raise ConfigError(f"{path}: section [operator] needs 'builtin' or 'csv'")
        a_op = load("operator", "csv")
        if a_op.shape[0] != a_op.shape[1]:
            raise ConfigError(f"{at('operator', 'csv')} boundary operator must be square, got shape {a_op.shape}")
        alpha, xi = value("problem", "alpha", float), value("problem", "xi", float)
        if alpha is None or xi is None:
            raise ConfigError(f"{path}: section [problem] needs alpha and xi for a csv operator")
        if not (1.0 < alpha <= 2.0):
            raise ConfigError(f"{at('problem', 'alpha')} alpha must lie in (1, 2], got {alpha}")
        if not (0.0 < xi < 1.0):
            raise ConfigError(f"{at('problem', 'xi')} xi must lie in (0, 1), got {xi}")
        n = a_op.shape[0]

        rhs_builtin = value("rhs", "builtin")
        if rhs_builtin is not None:
            if rhs_builtin not in BUILTINS:
                raise ConfigError(f"{at('rhs', 'builtin')} unknown rhs builtin {rhs_builtin!r}")
            rhs = BUILTINS[rhs_builtin].rhs_factory(n)
            growth = BUILTINS[rhs_builtin].growth()
            label = "csv+builtin-rhs"
        else:

            def matrix(key: str) -> np.ndarray:
                m = load("rhs", key) if key in sections["rhs"] else np.zeros((n, n))
                if m.shape != (n, n):
                    raise ConfigError(f"{at('rhs', key)} affine rhs matrices must be {n}x{n}")
                return m

            c_mat, d_mat = matrix("c_matrix"), matrix("d_matrix")
            profile_name = value("rhs", "g_profile", str, "zero")
            if profile_name not in _G_PROFILES:
                raise ConfigError(
                    f"{at('rhs', 'g_profile')} unknown g_profile {profile_name!r}; "
                    f"choose from {sorted(_G_PROFILES)}"
                )
            g = _G_PROFILES[profile_name]

            def rhs(t: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
                return u @ c_mat.T + v @ d_mat.T + g(t)[:, None]

            # Exact envelope for the affine form: spectral norms and the
            # profile sup (every named profile is bounded by 1 on [0, 1]).
            growth = GrowthSpec(
                lin_u=operator_norm(c_mat),
                lin_v=operator_norm(d_mat),
                offset=math.sqrt(n),
            )
            label = f"csv+affine(g={profile_name})"

    # A key the problem above never read would be ignored: the first by line is rejected.
    unread = [
        (ln, name, key) for name, sec in sections.items() for key, (_, ln) in sec.items() if (name, key) not in read
    ]
    if unread:
        line, name, key = min(unread)
        why = "for a csv operator" if name == "operator" else "beside [rhs] builtin"
        why = f"beside [operator] builtin = {op_builtin}" if op_builtin is not None else why
        raise ConfigError(f"{path}:{line}: key {key!r} in section [{name}] is ignored {why}")

    try:  # the checks above leave ProblemSpec only its grid rule to fail
        if op_builtin is not None:
            return _builtin_problem(op_builtin, k, grid_n)
        return ProblemSpec(ord=Order(alpha), xi=xi, a_op=a_op, rhs=rhs, grid_n=grid_n), growth, label
    except ValueError as exc:
        raise ConfigError(f"{at('problem', grid_key)} {exc}" if grid_key else str(exc)) from None


def _fmt(v: float) -> str:
    return f"{v:.17g}"


Rows = list[tuple[str, float | int | bool | str | None]]


def _render(title: str, rows: Rows) -> list[str]:
    """One report block: its title, its ``label : value`` rows, a blank line."""
    width = max(24, *(len(label) for label, _ in rows))
    body = [f"{label:<{width}} : {_fmt(v) if isinstance(v, float) else v}" for label, v in rows]
    return [f"== {title} ==", *body, ""]


def _resonance_rows(rdata: ResonanceData) -> Rows:
    return [
        ("dimension", rdata.dim),
        ("rank", rdata.rank),
        ("kernel dimension", rdata.dim_ker),
        ("ep defect", rdata.ep_defect),
        ("obstruction scale", rdata.proj_scale),
        ("||pinv||", operator_norm(rdata.pinv)),
        ("rank tolerance ambiguous", rdata.rank_ambiguous),
    ]


def _margins_rows(m: MarginsReport) -> Rows:
    return [
        ("gamma(alpha)  (lhs)", m.lhs),
        ("rhs for |u| coefficient", m.rhs_u),
        ("rhs for |v| coefficient", m.rhs_v),
        ("product quotient", m.quotient),
        ("margins satisfied", m.ok),
    ]


def _solve_rows(report: SolveReport) -> Rows:
    r = report.residuals
    return [
        ("converged", report.converged),
        ("diverged", report.diverged),
        ("iterations", report.iterations),
        ("final iterate difference", report.diff_history[-1]),
        ("pde residual (interior)", r.pde_residual),
        ("right bc defect", r.right_bc_defect),
        ("bc consistency", r.bc_consistency),
        ("solvability defect", r.solvability_defect),
    ]


def _probe_rows(g: GrowthSampleReport, tp: TraceDefectProbe, kp: KernelSignProbe) -> Rows:
    return [
        ("growth envelope samples", g.samples),
        ("violations", g.violations),
        ("worst slack", g.worst_slack),
        ("trace level", tp.trace_level),
        ("min range-escape defect", tp.min_defect),
        ("max range-escape defect", tp.max_defect),
        ("kernel level", kp.kernel_level),
        ("kernel feedback min", kp.min_inner),
        ("kernel feedback max", kp.max_inner),
        ("strict sign", kp.strict_sign),
    ]


def _golden_lines(report: Section4Report) -> list[str]:
    lines = ["== golden checks =="]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"[{status}] {c.name}: computed {_fmt(c.computed)} vs expected "
            f"{_fmt(c.expected)} (residual {_fmt(c.residual)}, tol {_fmt(c.tol)})"
        )
    kp = report.kernel_probe
    sign = [("min inner product", kp.min_inner), ("max inner product", kp.max_inner)]
    lines += ["", *_render("kernel feedback sign (sampled)", sign), "== notes =="]
    return lines + [f"- {note}" for note in report.notes] + [""]


def _build_problem(cfg: RunConfig) -> tuple[ProblemSpec, GrowthSpec, str]:
    if cfg.command == "verify-example":
        if cfg.config_path:
            raise ConfigError("verify-example runs on a builtin; pass --builtin NAME")
        grid_n = cfg.grid_n if cfg.grid_n is not None else 4096
        return _builtin_problem(cfg.builtin or "section4", cfg.k, grid_n)
    if cfg.config_path:
        return parse_config(cfg.config_path, cfg.grid_n)
    if cfg.builtin:
        return _builtin_problem(cfg.builtin, cfg.k, cfg.grid_n if cfg.grid_n is not None else 256)
    raise ConfigError("no problem source: pass --builtin NAME or --config PATH")


def run(cfg: RunConfig) -> int:
    """Execute one flow; writes report.txt (and solution.csv for solve
    flows) into the output directory.  Never raises on valid input."""
    out = Path(cfg.out_dir)
    lines: list[str] = [f"resbvp report: command = {cfg.command}"]
    exit_code = 0
    grid_n = error = None
    try:
        out.mkdir(parents=True, exist_ok=True)
        if cfg.builtin and cfg.config_path:
            raise ConfigError("--builtin and --config cannot be used together; pass one problem source")
        if not (0.0 < cfg.damping <= 1.0):
            raise ConfigError(f"--damping must lie in (0, 1], got {cfg.damping}")
        if cfg.max_iter < 1:
            raise ConfigError(f"--max-iter must be positive, got {cfg.max_iter}")
        if cfg.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {cfg.seed}")
        opts = SolveOptions(relax=cfg.damping, max_iter=cfg.max_iter)
        spec, growth, label = _build_problem(cfg)
        grid_n = spec.grid_n
        lines += [f"problem: {label} grid_n={spec.grid_n}", ""]
        lines += _render(
            "problem",
            [("alpha", spec.ord.alpha), ("xi", spec.xi), ("dimension", spec.dim), ("||A||", operator_norm(spec.a_op))],
        )
        rdata = build_resonance(spec)
        lines += _render("resonance decomposition", _resonance_rows(rdata))
        margins = check_growth_margins(spec.ord, growth)
        lines += _render("smallness margins", _margins_rows(margins))
        if not margins.ok and cfg.command in ("check-hypotheses", "verify-example"):
            exit_code = 1
        if cfg.command == "analyze":
            sr = verify_structure(spec, rdata, samples=5, seed=cfg.seed)
            lines += _render(
                "structural identities",
                [
                    ("projector identity", sr.identity_residual),
                    ("obstruction idempotency", sr.obstruction_idem_residual),
                    ("obstruction on solvables", sr.obstruction_on_image_residual),
                    ("kernel elements fixed", sr.kernel_fix_residual),
                    ("derivative round trip", sr.left_inverse_residual),
                    ("round trip (t in [.1,.9])", sr.left_inverse_window),
                ],
            )
        elif cfg.command == "check-hypotheses":
            # 2000 growth samples; 100 trace and 100 kernel probes at level 1.
            probes = _probe_rows(
                check_growth_bound(spec, growth, 2000, cfg.seed),
                probe_large_trace_defect(spec, rdata, 1.0, 100, cfg.seed + 1),
                probe_kernel_sign(spec, rdata, 1.0, 100, cfg.seed + 2),
            )
            lines += _render("sampling probes (evidence, not proof)", probes)
        else:
            # solve and verify-example: one solve, one CSV, one exit rule.
            if cfg.command == "verify-example":
                lines += _golden_lines(verify_section4(spec, rdata, seed=cfg.seed))
            report = solve(spec, rdata, opts)
            lines += _render("solver", _solve_rows(report))
            from . import g17  # here, not at start-up: see its module docstring

            g17.write_solution(out / "solution.csv", report.element.source.nodes, *report.residuals.samples)
            if exit_code == 0 and not report.converged:
                exit_code = 2
    except NonResonantError as exc:
        error, exit_code = str(exc), 1
    except (RhsEvaluationError, ValueError, OSError) as exc:  # ConfigError is a ValueError
        error, exit_code = str(exc), 3
    except MemoryError as exc:
        # numpy's text names the allocation; the grid is what a caller can change.
        at = f" at grid_n = {grid_n}" if grid_n is not None else ""
        error, exit_code = f"out of memory{at}: {str(exc) or 'allocation failed'}", 3
    if error is not None:
        # One blank line before it: every block already ends with one.
        lines += ["", f"error: {error}"] if lines[-1] else [f"error: {error}"]

    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    try:
        (out / "report.txt").write_text(text, encoding="utf-8")
    except OSError as exc:
        # The report is on stdout already; an --out that could not be
        # created is named in it too.
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="resbvp",
        description="Resonant fractional three-point boundary value problem toolkit",
        argument_default=argparse.SUPPRESS,  # an option left out takes RunConfig's default
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", dest="config_path", help="problem file path")
    parser.add_argument("--builtin", help="builtin problem name (e.g. section4)")
    parser.add_argument("--k", type=int, help="block count for --builtin (default 1)")
    parser.add_argument(
        "--grid",
        dest="grid_n",
        type=int,
        help="grid subintervals, at least 8 "
        "(default: the config's grid_n, else 256; 4096 for verify-example)",
    )
    parser.add_argument("--damping", type=float, help="relaxation factor in (0, 1]")
    parser.add_argument("--max-iter", dest="max_iter", type=int, help=f"iteration cap of the solve (default {SolveOptions.max_iter})")
    parser.add_argument("--seed", type=int, help="seed of the sampled checks")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        # argparse's usage-error exit 2 would read as non-convergence.
        return 3 if exc.code else 0
    if "k" in args and args.get("config_path") and not args.get("builtin"):
        # Beside --builtin too, run() reports the two problem sources.
        sys.stderr.write("error: --k applies to --builtin only; a config file sets k in [operator]\n")
        return 3
    return run(RunConfig(**args))


if __name__ == "__main__":
    sys.exit(main())
