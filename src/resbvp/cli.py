"""Command-line front end: ingestion, orchestration, report/CSV emission.

Commands
    analyze            resonance decomposition + structural identity checks
    solve              damped fixed-point solve, solution.csv + report.txt
    check-hypotheses   growth margins and sampling probes
    verify-example     golden-value verification of a builtin problem

A run takes its problem from exactly one source: ``--builtin NAME`` or
``--config PATH``; passing both is an input error.  ``--k`` (block
count) applies to ``--builtin`` only; a config file sets it in
[operator].  The file is sectioned key = value text:

    [problem]
    alpha = 1.5
    xi = 0.25
    grid_n = 256

    [operator]
    builtin = section4     # or:  csv = matrix.csv
    k = 1

    [rhs]
    builtin = section4     # or affine "f = C u + D v + g(t)":
    # c_matrix = C.csv
    # d_matrix = D.csv
    # g_profile = zero | one | t | sqrt

``--seed`` drives the sampled checks of analyze, check-hypotheses and
verify-example; solve starts from the zero element and does not read it.

Exit codes: 0 success; 1 non-resonant problem or failed smallness
margins; 2 solver non-convergence; 3 input error (a value error in a
config file names its line as ``<path>:<line>:``).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .conditions import (
    ConditionsReport,
    GrowthSpec,
    MarginsReport,
    check_all,
    check_growth_margins,
)
from .fracops import Order
from .linops import load_matrix_csv, operator_norm
from .problems import BUILTINS, PROBE_GRID_CAP, SOLVE_GRID_CAP, Section4Report, verify_section4
from .resonance import (
    DomainElement,
    NonResonantError,
    ProblemSpec,
    ResonanceData,
    build_resonance,
    derivative_trace,
    evaluate,
    verify_structure,
)
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
    damping: float = 0.5
    max_iter: int = 200
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; choose from {_COMMANDS}")


def _smallest_valid_grid(xi: float, minimum: int = 8) -> int:
    q = Fraction(xi).limit_denominator(10**6).denominator
    n = q
    while n < minimum:
        n += q
    return n


def _validate_grid(xi: float, grid_n: int) -> None:
    if grid_n < 8:
        raise ConfigError(f"grid_n must be at least 8, got {grid_n}")
    if abs(xi * grid_n - round(xi * grid_n)) > 1e-9:
        raise ConfigError(
            f"xi = {xi} must land on a grid node: grid_n = {grid_n} is invalid, "
            f"smallest valid grid_n is {_smallest_valid_grid(xi)}"
        )


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
                if current not in ("problem", "operator", "rhs"):
                    raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside of any section")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in sections[current]:
                first = sections[current][key][1]
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} in section [{current}] "
                    f"(first set on line {first})"
                )
            sections[current][key] = (value.strip(), lineno)
    return sections


_AFFINE_KEYS = {"c_matrix", "d_matrix", "g_profile"}
_KNOWN_KEYS = {
    "problem": {"alpha", "xi", "grid_n"},
    "operator": {"builtin", "k", "csv"},
    "rhs": {"builtin"} | _AFFINE_KEYS,
}


def _reject_ignored(path: str, name: str, section: dict, keys: set[str], why: str) -> None:
    for key, (_, lineno) in section.items():
        if key in keys:
            raise ConfigError(f"{path}:{lineno}: key {key!r} in section [{name}] is ignored {why}")


def _builtin_problem(name: str, k: int, grid_n: int) -> tuple[ProblemSpec, GrowthSpec, str]:
    """Builtin ``name`` with k blocks on a grid_n grid, its growth envelope
    and its report label: the one place a builtin is built."""
    if name not in BUILTINS:
        raise ConfigError(f"unknown builtin {name!r}; available: {sorted(BUILTINS)}")
    _validate_grid(BUILTINS[name].xi, grid_n)
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
    for sec, keys in sections.items():
        for key, (_, lineno) in keys.items():
            if key not in _KNOWN_KEYS[sec]:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in section [{sec}]")

    problem = sections.get("problem", {})
    operator = sections.get("operator", {})
    rhs_sec = sections.get("rhs", {})

    def at(sec: dict, key: str) -> str:
        return f"{path}:{sec[key][1]}:"

    def fval(sec: dict, key: str, default: float | None = None) -> float | None:
        if key not in sec:
            return default
        try:
            return float(sec[key][0])
        except ValueError as exc:
            raise ConfigError(f"{at(sec, key)} {key} must be a number, got {sec[key][0]!r}") from exc

    def ival(sec: dict, key: str, default: int | None = None) -> int | None:
        if key not in sec:
            return default
        try:
            return int(sec[key][0])
        except ValueError as exc:
            raise ConfigError(f"{at(sec, key)} {key} must be an integer, got {sec[key][0]!r}") from exc

    def grid_error(exc: ConfigError) -> ConfigError:
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
        k = ival(operator, "k", 1)
        grid_n = ival(problem, "grid_n", 256)
        builtin = BUILTINS[op_builtin]
        for key, fixed in (("alpha", builtin.alpha), ("xi", builtin.xi)):
            if abs(fval(problem, key, fixed) - fixed) > 1e-12:
                raise ConfigError(
                    f"{at(problem, key)} builtin {op_builtin!r} fixes "
                    f"alpha = {builtin.alpha} and xi = {builtin.xi}"
                )
        if k < 1:
            raise ConfigError(f"{at(operator, 'k')} block count must be positive, got {k}")
        try:
            return _builtin_problem(op_builtin, k, grid_n)
        except ConfigError as exc:
            raise grid_error(exc) from None

    if "csv" not in operator:
        raise ConfigError(f"{path}: section [operator] needs 'builtin' or 'csv'")
    _reject_ignored(path, "operator", operator, {"k"}, "for a csv operator")
    a_op = load_matrix_csv(Path(base) / operator["csv"][0])
    alpha = fval(problem, "alpha")
    xi = fval(problem, "xi")
    grid_n = ival(problem, "grid_n", 256)
    if alpha is None or xi is None:
        raise ConfigError(f"{path}: section [problem] needs alpha and xi for a csv operator")
    if not (1.0 < alpha <= 2.0):
        raise ConfigError(f"{at(problem, 'alpha')} alpha must lie in (1, 2], got {alpha}")
    if not (0.0 < xi < 1.0):
        raise ConfigError(f"{at(problem, 'xi')} xi must lie in (0, 1), got {xi}")
    try:
        _validate_grid(xi, grid_n)
    except ConfigError as exc:
        raise grid_error(exc) from None
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

    spec = ProblemSpec(ord=Order(alpha), xi=xi, a_op=a_op, rhs=rhs, grid_n=grid_n)
    return spec, growth, label


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_solution_csv(path: Path, ord: Order, element: DomainElement) -> None:
    x = evaluate(element, ord).values
    d = derivative_trace(element, ord).values
    t = element.source.nodes
    n = x.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"dtrace_{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    for j in range(t.shape[0]):
        row = [t[j], *x[j], *d[j]]
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resonance_lines(rdata: ResonanceData) -> list[str]:
    return [
        "== resonance decomposition ==",
        f"dimension                : {rdata.dim}",
        f"rank                     : {rdata.rank}",
        f"kernel dimension         : {rdata.dim_ker}",
        f"ep defect                : {_fmt(rdata.ep_defect)}",
        f"obstruction scale        : {_fmt(rdata.proj_scale)}",
        f"||pinv||                 : {_fmt(operator_norm(rdata.pinv))}",
        f"rank tolerance ambiguous : {rdata.rank_ambiguous}",
        "",
    ]


def _margins_lines(m: MarginsReport) -> list[str]:
    return [
        "== smallness margins ==",
        f"gamma(alpha)  (lhs)      : {_fmt(m.lhs)}",
        f"rhs for |u| coefficient  : {_fmt(m.rhs_u)}",
        f"rhs for |v| coefficient  : {_fmt(m.rhs_v)}",
        f"product quotient         : {_fmt(m.quotient)}",
        f"margins satisfied        : {m.ok}",
        "",
    ]


def _solve_lines(report: SolveReport) -> list[str]:
    r = report.residuals
    return [
        "== solver ==",
        f"converged                : {report.converged}",
        f"diverged                 : {report.diverged}",
        f"iterations               : {report.iterations}",
        f"final iterate difference : {_fmt(report.diff_history[-1])}",
        f"pde residual (interior)  : {_fmt(r.pde_residual)}",
        f"right bc defect          : {_fmt(r.right_bc_defect)}",
        f"bc consistency           : {_fmt(r.bc_consistency)}",
        f"solvability defect       : {_fmt(r.solvability_defect)}",
        "",
    ]


def _conditions_lines(report: ConditionsReport) -> list[str]:
    g, tp, kp = report.growth_samples, report.trace_probe, report.kernel_probe
    return _margins_lines(report.margins) + [
        "== sampling probes (evidence, not proof) ==",
        f"growth envelope samples  : {g.samples}",
        f"violations               : {g.violations}",
        f"worst slack              : {_fmt(g.worst_slack)}",
        f"trace level              : {_fmt(tp.trace_level)}",
        f"min range-escape defect  : {_fmt(tp.min_defect)}",
        f"max range-escape defect  : {_fmt(tp.max_defect)}",
        f"kernel level             : {_fmt(kp.kernel_level)}",
        f"kernel feedback min      : {_fmt(kp.min_inner)}",
        f"kernel feedback max      : {_fmt(kp.max_inner)}",
        f"strict sign              : {kp.strict_sign}",
        "",
    ]


def _golden_lines(report: Section4Report) -> list[str]:
    lines = ["== golden checks =="]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"[{status}] {c.name}: computed {_fmt(c.computed)} vs expected "
            f"{_fmt(c.expected)} (residual {_fmt(c.residual)}, tol {_fmt(c.tol)})"
        )
    lines.append("")
    lines += _margins_lines(report.margins)
    lines += [
        "== kernel feedback sign (sampled) ==",
        f"min inner product        : {_fmt(report.sign_min)}",
        f"max inner product        : {_fmt(report.sign_max)}",
        "",
    ]
    lines += _solve_lines(report.solve)
    lines += ["== notes =="] + [f"- {note}" for note in report.notes] + [""]
    return lines


def _build_problem(cfg: RunConfig) -> tuple[ProblemSpec, GrowthSpec, str]:
    if cfg.config_path:
        spec, growth, label = parse_config(cfg.config_path)
        if cfg.grid_n is not None:
            _validate_grid(spec.xi, cfg.grid_n)
            spec = replace(spec, grid_n=cfg.grid_n)
        return spec, growth, label
    if cfg.builtin:
        return _builtin_problem(cfg.builtin, cfg.k, cfg.grid_n if cfg.grid_n is not None else 256)
    raise ConfigError("no problem source: pass --builtin NAME or --config PATH")


def run(cfg: RunConfig) -> int:
    """Execute one flow; writes report.txt (and solution.csv for solve
    flows) into the output directory.  Never raises on valid input."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines: list[str] = [f"resbvp report: command = {cfg.command}"]
    exit_code = 0
    try:
        if cfg.builtin and cfg.config_path:
            raise ConfigError("--builtin and --config cannot be used together; pass one problem source")
        opts = SolveOptions(relax=cfg.damping, max_iter=cfg.max_iter)
        if cfg.command == "verify-example":
            if cfg.config_path:
                raise ConfigError("verify-example runs on a builtin; pass --builtin NAME")
            grid_n = cfg.grid_n if cfg.grid_n is not None else 4096
            spec, _, label = _builtin_problem(cfg.builtin or "section4", cfg.k, grid_n)
            report = verify_section4(cfg.k, grid_n, seed=cfg.seed, opts=opts)
            probe_n, solve_n = min(grid_n, PROBE_GRID_CAP), min(grid_n, SOLVE_GRID_CAP)
            lines += [f"problem: {label} k={cfg.k} grid_n={grid_n}"]
            lines += [f"grids: quadrature={grid_n} probe={probe_n} solve={solve_n}", ""]
            lines += _golden_lines(report)
            _write_solution_csv(out / "solution.csv", spec.ord, report.solve.element)
            if not report.margins.ok:
                exit_code = 1
            elif not report.solve.converged:
                exit_code = 2
        else:
            spec, growth, label = _build_problem(cfg)
            lines += [f"problem: {label} grid_n={spec.grid_n}", ""]
            lines += [
                "== problem ==",
                f"alpha                    : {_fmt(spec.ord.alpha)}",
                f"xi                       : {_fmt(spec.xi)}",
                f"dimension                : {spec.dim}",
                f"||A||                    : {_fmt(operator_norm(spec.a_op))}",
                "",
            ]
            rdata = build_resonance(spec)
            lines += _resonance_lines(rdata)
            # The margin triple appears on every flow and every outcome;
            # check-hypotheses prints it with its probes.
            if cfg.command != "check-hypotheses":
                lines += _margins_lines(check_growth_margins(spec.ord, rdata, growth))
            if cfg.command == "analyze":
                sr = verify_structure(spec, rdata, samples=5, seed=cfg.seed)
                lines += [
                    "== structural identities ==",
                    f"projector identity        : {_fmt(sr.identity_residual)}",
                    f"obstruction idempotency   : {_fmt(sr.obstruction_idem_residual)}",
                    f"obstruction on solvables  : {_fmt(sr.obstruction_on_image_residual)}",
                    f"kernel elements fixed     : {_fmt(sr.kernel_fix_residual)}",
                    f"derivative round trip     : {_fmt(sr.left_inverse_residual)}",
                    f"round trip (t in [.1,.9]) : {_fmt(sr.left_inverse_window)}",
                    "",
                ]
            elif cfg.command == "solve":
                report = solve(spec, rdata, opts)
                lines += _solve_lines(report)
                _write_solution_csv(out / "solution.csv", spec.ord, report.element)
                if not report.converged:
                    exit_code = 2
            elif cfg.command == "check-hypotheses":
                creport = check_all(spec, rdata, growth, seed=cfg.seed)
                lines += _conditions_lines(creport)
                if not creport.margins.ok:
                    exit_code = 1
    except NonResonantError as exc:
        lines += ["", f"error: {exc}"]
        exit_code = 1
    except (ConfigError, RhsEvaluationError, ValueError, OSError) as exc:
        lines += ["", f"error: {exc}"]
        exit_code = 3

    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="resbvp",
        description="Resonant fractional three-point boundary value problem toolkit",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", dest="config_path", default=None, help="problem file path")
    parser.add_argument("--builtin", default=None, help="builtin problem name (e.g. section4)")
    parser.add_argument("--k", type=int, default=1, help="block count for --builtin")
    parser.add_argument("--grid", dest="grid_n", type=int, default=None, help="grid subintervals")
    parser.add_argument("--damping", type=float, default=0.5, help="relaxation factor in (0, 1]")
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0, help="seed of the sampled checks")
    parser.add_argument("--out", dest="out_dir", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
