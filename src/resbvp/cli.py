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

A ``#`` starts a comment only at the start of a line.  Every source
obeys ``ProblemSpec``'s grid rule: grid_n >= 8, xi * grid_n an integer.

``--seed`` drives the sampled checks of analyze, check-hypotheses and
verify-example; solve starts from the zero element and does not read it.
Every command rejects a negative seed.

Exit codes: 0 success; 1 non-resonant problem, or failed smallness
margins in check-hypotheses and verify-example (ahead of
non-convergence); 2 solver non-convergence; 3 input or usage error (a
value error in a config file names its line as ``<path>:<line>:``), or a
problem too large for the memory available (the line names the grid).
Every command prints the margins once.

Each report block is a title plus ``(label, value)`` rows that ``_render``
writes as ``label : value`` lines (label column 24 wide or the longest
label, floats as ``%.17g``); only the golden checks and notes are free-form.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
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
from .linops import load_matrix_csv, operator_norm
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


_AFFINE_KEYS = {"c_matrix", "d_matrix", "g_profile"}
_KNOWN_KEYS = {
    "problem": {"alpha", "xi", "grid_n"},
    "operator": {"builtin", "k", "csv"},
    "rhs": {"builtin"} | _AFFINE_KEYS,
}


def _parse_sections(path: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current not in _KNOWN_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
                sections.setdefault(current, {})
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
                    f"{path}:{lineno}: duplicate key {key!r} in section [{current}] "
                    f"(first set on line {first})"
                )
            sections[current][key] = (value.strip(), lineno)
    return sections


def _reject_ignored(path: str, name: str, section: dict, keys: set[str], why: str) -> None:
    for key, (_, lineno) in section.items():
        if key in keys:
            raise ConfigError(f"{path}:{lineno}: key {key!r} in section [{name}] is ignored {why}")


def _builtin_problem(name: str, k: int, grid_n: int) -> tuple[ProblemSpec, GrowthSpec, str]:
    """Builtin ``name`` with k blocks on a grid_n grid, its growth envelope
    and its report label: the one place a builtin is built."""
    if name not in BUILTINS:
        raise ConfigError(f"unknown builtin {name!r}; available: {sorted(BUILTINS)}")
    return BUILTINS[name].build(k, grid_n), BUILTINS[name].growth(), f"builtin:{name}"


def parse_config(path: str) -> tuple[ProblemSpec, GrowthSpec, str]:
    """Parse a problem file into a spec, its growth envelope and the
    problem label of the report.

    Every problem source derives an envelope: the builtin's own, or the
    exact one of the affine form.  A bad value raises ``ConfigError``
    prefixed ``<path>:<line>:`` with the line of the offending key.
    """
    sections = _parse_sections(path)
    base = str(Path(path).parent)

    problem = sections.get("problem", {})
    operator = sections.get("operator", {})
    rhs_sec = sections.get("rhs", {})

    def at(sec: dict, key: str) -> str:
        return f"{path}:{sec[key][1]}:"

    def value(sec: dict, key: str, kind: type, default: float | None = None) -> float | None:
        if key not in sec:
            return default
        try:
            return kind(sec[key][0])
        except ValueError as exc:
            noun = "a number" if kind is float else "an integer"
            raise ConfigError(f"{at(sec, key)} {key} must be {noun}, got {sec[key][0]!r}") from exc

    def grid_error(exc: ValueError) -> ConfigError:
        # The default grid_n passes every check, so a grid error points at
        # the file's grid_n, or at its xi when grid_n is left out.
        return ConfigError(f"{at(problem, 'grid_n' if 'grid_n' in problem else 'xi')} {exc}")

    op_builtin = operator.get("builtin", (None, 0))[0]
    if op_builtin is not None:
        if op_builtin not in BUILTINS:
            raise ConfigError(f"{at(operator, 'builtin')} unknown builtin {op_builtin!r}")
        why = f"beside [operator] builtin = {op_builtin}"
        _reject_ignored(path, "operator", operator, {"csv"}, why)
        # The builtin operator brings its own rhs; [rhs] may only name it.
        rhs_keys = set(_AFFINE_KEYS)
        if rhs_sec.get("builtin", (op_builtin, 0))[0] != op_builtin:
            rhs_keys.add("builtin")
        _reject_ignored(path, "rhs", rhs_sec, rhs_keys, why)
        k = value(operator, "k", int, 1)
        grid_n = value(problem, "grid_n", int, 256)
        builtin = BUILTINS[op_builtin]
        for key, fixed in (("alpha", builtin.alpha), ("xi", builtin.xi)):
            if not abs(value(problem, key, float, fixed) - fixed) <= 1e-12:  # nan too
                raise ConfigError(
                    f"{at(problem, key)} builtin {op_builtin!r} fixes "
                    f"alpha = {builtin.alpha} and xi = {builtin.xi}"
                )
        if k < 1:
            raise ConfigError(f"{at(operator, 'k')} block count must be positive, got {k}")
        try:
            return _builtin_problem(op_builtin, k, grid_n)
        except ValueError as exc:
            raise grid_error(exc) from None

    if "csv" not in operator:
        raise ConfigError(f"{path}: section [operator] needs 'builtin' or 'csv'")
    _reject_ignored(path, "operator", operator, {"k"}, "for a csv operator")
    a_op = load_matrix_csv(Path(base) / operator["csv"][0])
    if a_op.shape[0] != a_op.shape[1]:
        raise ConfigError(f"{at(operator, 'csv')} boundary operator must be square, got shape {a_op.shape}")
    alpha = value(problem, "alpha", float)
    xi = value(problem, "xi", float)
    grid_n = value(problem, "grid_n", int, 256)
    if alpha is None or xi is None:
        raise ConfigError(f"{path}: section [problem] needs alpha and xi for a csv operator")
    if not (1.0 < alpha <= 2.0):
        raise ConfigError(f"{at(problem, 'alpha')} alpha must lie in (1, 2], got {alpha}")
    if not (0.0 < xi < 1.0):
        raise ConfigError(f"{at(problem, 'xi')} xi must lie in (0, 1), got {xi}")
    n = a_op.shape[0]

    rhs_builtin = rhs_sec.get("builtin", (None, 0))[0]
    if rhs_builtin is not None:
        if rhs_builtin not in BUILTINS:
            raise ConfigError(f"{at(rhs_sec, 'builtin')} unknown rhs builtin {rhs_builtin!r}")
        _reject_ignored(path, "rhs", rhs_sec, _AFFINE_KEYS, "beside [rhs] builtin")
        rhs = BUILTINS[rhs_builtin].rhs_factory(n)
        growth = BUILTINS[rhs_builtin].growth()
        label = "csv+builtin-rhs"
    else:

        def matrix(key: str) -> np.ndarray:
            if key not in rhs_sec:
                return np.zeros((n, n))
            m = load_matrix_csv(Path(base) / rhs_sec[key][0])
            if m.shape != (n, n):
                raise ConfigError(f"{at(rhs_sec, key)} affine rhs matrices must be {n}x{n}")
            return m

        c_mat, d_mat = matrix("c_matrix"), matrix("d_matrix")
        profile_name = rhs_sec.get("g_profile", ("zero", 0))[0]
        if profile_name not in _G_PROFILES:
            raise ConfigError(
                f"{at(rhs_sec, 'g_profile')} unknown g_profile {profile_name!r}; "
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

    try:
        spec = ProblemSpec(ord=Order(alpha), xi=xi, a_op=a_op, rhs=rhs, grid_n=grid_n)
    except ValueError as exc:
        raise grid_error(exc) from None
    return spec, growth, label


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
        spec, growth, label = parse_config(cfg.config_path)
        if cfg.grid_n is not None:
            spec = replace(spec, grid_n=cfg.grid_n)
        return spec, growth, label
    if cfg.builtin:
        return _builtin_problem(cfg.builtin, cfg.k, cfg.grid_n if cfg.grid_n is not None else 256)
    raise ConfigError("no problem source: pass --builtin NAME or --config PATH")


def run(cfg: RunConfig) -> int:
    """Execute one flow; writes report.txt (and solution.csv for solve
    flows) into the output directory.  Never raises on valid input."""
    out = Path(cfg.out_dir)
    lines: list[str] = [f"resbvp report: command = {cfg.command}"]
    exit_code = 0
    grid_n = None
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
        lines += ["", f"error: {exc}"]
        exit_code = 1
    except (RhsEvaluationError, ValueError, OSError) as exc:  # ConfigError is a ValueError
        lines += ["", f"error: {exc}"]
        exit_code = 3
    except MemoryError as exc:
        # numpy's text names the allocation; the grid is what a caller can change.
        at = f" at grid_n = {grid_n}" if grid_n is not None else ""
        lines += ["", f"error: out of memory{at}: {str(exc) or 'allocation failed'}"]
        exit_code = 3

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
    parser.add_argument("--grid", dest="grid_n", type=int, help="grid subintervals")
    parser.add_argument("--damping", type=float, help="relaxation factor in (0, 1]")
    parser.add_argument("--max-iter", dest="max_iter", type=int)
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
