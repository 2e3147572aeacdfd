"""Built-in problems and their golden-value verification.

The flagship builtin, registered under the CLI name "section4", is a
block system with alpha = 3/2, xi = 1/4 and k identical 3x3 diagonal
blocks B = diag(3/2, 7/4, 2) on the boundary operator.  Each block of
the resonance matrix is diag(1/4, 1/8, 0), so the kernel has dimension
exactly k (one direction per block, the third coordinate).  The
truncation keeps exactly 3k rows: appending the identity tail rows would
only add non-resonant directions.

``verify_section4`` reproduces every recorded reference constant of this
configuration and reports a residual per entry.  Two recorded targets
are inconsistent with the defining integrals and are retained only as
recorded: the obstruction-projection prefactor (the recorded value does
not make the projection idempotent) and the first component of the
boundary functional of the kernel feedback (the recorded value implies
int_0^1 (1-s)^(1/2) ds = 3/2 instead of 2/3).  The report carries both
the computed truth and the recorded target, marked failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conditions import GrowthSpec, MarginsReport, check_growth_margins, probe_kernel_sign
from .fracops import GridFn, Order, frac_integral, gamma
from .resonance import (
    DomainElement,
    ProblemSpec,
    RhsCallback,
    build_resonance,
)
from .solver import SolveOptions, SolveReport, apply_rhs, solve

__all__ = [
    "BLOCK_DIAGONAL",
    "PROBE_GRID_CAP",
    "SOLVE_GRID_CAP",
    "build_section4",
    "section4_growth",
    "GoldenCheck",
    "Section4Report",
    "verify_section4",
    "SpecialConditionsReport",
    "check_special_conditions_fail",
    "BUILTINS",
]

BLOCK_DIAGONAL = (1.5, 1.75, 2.0)

# Grid caps of verify_section4's kernel-sign probe and of its solve.
PROBE_GRID_CAP, SOLVE_GRID_CAP = 1024, 256

# Reciprocals in the switched branch are taken as 0 at an exactly zero
# argument (the value the worked constants of this configuration assume);
# the guard absorbs rounding-level noise in kernel directions.
_RECIPROCAL_GUARD = 1e-12


def _section4_rhs(n: int) -> RhsCallback:
    inv_scales = np.array([1.0 / (5.0 * 2.0 ** (i + 1)) for i in range(1, n)])

    def rhs(t: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        v1 = v[:, 0]
        rec = np.divide(1.0, v1, out=np.zeros_like(v1), where=np.abs(v1) > _RECIPROCAL_GUARD)
        f = np.empty(u.shape)
        # Row norms as dot products, bit-equal to np.linalg.norm of one row,
        # so a row at ||v|| = 1 takes the branch the per-point norm gives it.
        f[:, 0] = np.where(np.sqrt(np.vecdot(v, v)) < 1.0, 0.1, (v1 + rec - 1.0) / 10.0)
        f[:, 1:] = (u[:, 1:] + v[:, 1:]) * inv_scales
        return f

    return rhs


def build_section4(k: int, grid_n: int = 256) -> ProblemSpec:
    """Block problem with kernel dimension k (truncation 3k).

    alpha = 3/2, xi = 1/4, A = blockdiag(B, ..., B) with
    B = diag(3/2, 7/4, 2).  The right-hand side switches its first
    component on || v || = 1:  1/10 below the switch,
    (v_1 + v_1^(-1) - 1)/10 at or above it; component i >= 2 is
    (u_i + v_i) / (10 * 2^(i-1)).
    """
    if k < 1:
        raise ValueError(f"block count must be positive, got {k}")
    if grid_n % 4 != 0:
        raise ValueError(f"grid_n must be a multiple of 4 so xi = 1/4 is a node, got {grid_n}")
    n = 3 * k
    a_op = np.kron(np.eye(k), np.diag(BLOCK_DIAGONAL))
    fixed = BUILTINS["section4"]
    return ProblemSpec(ord=Order(fixed.alpha), xi=fixed.xi, a_op=a_op, rhs=_section4_rhs(n), grid_n=grid_n)


def section4_growth(radius: float = 1e3) -> GrowthSpec:
    """Growth envelope for the builtin right-hand side.

    The tail components obey || f_tail || <= (|u| + |v|) / (5 sqrt(3))
    everywhere.  The switched first component is only bounded on regions
    with |v_1| bounded away from zero; the constant offset
    (radius + 1/radius + 1)/10 covers it on the sampling range with
    |v_1| >= 1/radius, and violations outside that corner are expected
    and reported by the sampler.
    """
    a = 1.0 / (5.0 * math.sqrt(3.0))
    return GrowthSpec(a, a, offset=(radius + 1.0 / radius + 1.0) / 10.0)


@dataclass(frozen=True)
class GoldenCheck:
    """One recorded-constant comparison: computed vs target at a tolerance."""

    name: str
    computed: float
    expected: float
    tol: float

    @property
    def residual(self) -> float:
        return abs(self.computed - self.expected)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class Section4Report:
    checks: tuple[GoldenCheck, ...]
    margins: MarginsReport
    sign_min: float
    sign_max: float
    solve: SolveReport
    notes: tuple[str, ...]


def verify_section4(
    k: int, grid_n: int = 4096, seed: int = 0, opts: SolveOptions = SolveOptions()
) -> Section4Report:
    """Reproduce the recorded constants of the builtin configuration.

    Matrix entries and margin numbers are checked by arithmetic; the two
    beta-moment constants by product quadrature at the given grid; the
    kernel-feedback sign by sampling under ``seed`` at min(grid_n,
    PROBE_GRID_CAP); the solve runs under ``opts`` at min(grid_n,
    SOLVE_GRID_CAP).  R does not depend on the grid, so one resonance
    build serves all three.  Failures are enumerated in the report, never
    thrown.
    """
    spec = build_section4(k, grid_n)
    rdata = build_resonance(spec)
    alpha = spec.ord.alpha
    sq_pi = math.sqrt(math.pi)
    checks: list[GoldenCheck] = []

    block = np.diag([0.25, 0.125, 0.0])
    blockplus = np.diag([4.0, 8.0, 0.0])
    m_expected = np.kron(np.eye(k), block)
    mp_expected = np.kron(np.eye(k), blockplus)
    checks.append(
        GoldenCheck(
            "resonance_matrix_blocks",
            float(np.max(np.abs(rdata.matrix - m_expected))),
            0.0,
            1e-12,
        )
    )
    checks.append(
        GoldenCheck(
            "pseudoinverse_blocks",
            float(np.max(np.abs(rdata.pinv - mp_expected))),
            0.0,
            1e-12,
        )
    )
    checks.append(GoldenCheck("kernel_dimension", float(rdata.dim_ker), float(k), 0.0))
    checks.append(GoldenCheck("ep_defect", rdata.ep_defect, 0.0, 1e-14))

    # Recorded prefactor target; the implemented scale is pinned by
    # idempotency and differs, so this entry records the discrepancy.
    checks.append(
        GoldenCheck("obstruction_prefactor", rdata.proj_scale, -8.0 * sq_pi / 7.0, 1e-12)
    )

    b1 = np.diag(BLOCK_DIAGONAL)
    diag_mat = b1 * spec.xi**alpha - np.eye(3)
    for i, expected in enumerate((-13.0 / 16.0, -25.0 / 32.0, -3.0 / 4.0)):
        checks.append(GoldenCheck(f"block_xi_shift_{i + 1}", float(diag_mat[i, i]), expected, 1e-14))

    # Kernel feedback y = N(e t^(1/2)) with e = sigma * eps_3; sigma = 2
    # locks the switched branch (|| trace || = 2 Gamma(3/2) > 1).
    sigma = 2.0
    e = np.zeros(spec.dim)
    e[2] = sigma
    x = DomainElement(e, GridFn.zeros(grid_n, spec.dim))
    w = apply_rhs(spec, x)
    iv = frac_integral(w, alpha).values
    ga = gamma(alpha)
    # Component-3 beta moments, solved for the recorded d-constants.
    dhat_quad = ga * iv[spec.xi_node][2] / (0.1 * sigma / 4.0)
    dtil_quad = ga * iv[grid_n][2] / (0.1 * sigma / 4.0)
    dhat = math.pi / 128.0 + sq_pi / 24.0
    dtil = math.pi / 8.0 + sq_pi / 3.0
    checks.append(GoldenCheck("dhat_quadrature", dhat_quad, dhat, 1e-6))
    checks.append(GoldenCheck("dtilde_quadrature", dtil_quad, dtil, 1e-6))

    # First component of h(N e t^(1/2)).  The recorded target 11/(40 sqrt(pi))
    # follows from taking int_0^1 (1-s)^(1/2) ds = 3/2; the integral is 2/3,
    # which gives 13/(120 sqrt(pi)).  Both comparisons are reported.
    # h(w) = A (I^alpha w)(xi) - (I^alpha w)(1), read off the sweep above.
    h_w = spec.a_op @ iv[spec.xi_node] - iv[grid_n]
    checks.append(GoldenCheck("h_kernel_feedback_first_recorded", float(h_w[0]), 11.0 / (40.0 * sq_pi), 1e-6))
    checks.append(GoldenCheck("h_kernel_feedback_first_computed", float(h_w[0]), 13.0 / (120.0 * sq_pi), 1e-6))

    margins = check_growth_margins(spec.ord, rdata, section4_growth())
    probe_spec = build_section4(k, min(grid_n, PROBE_GRID_CAP))
    probe = probe_kernel_sign(probe_spec, rdata, kernel_level=1.0, sample_count=50, seed=seed)
    checks.append(
        GoldenCheck("kernel_sign_strictly_positive", 1.0 if probe.strict_sign == "positive" else 0.0, 1.0, 0.0)
    )

    solve_spec = build_section4(k, min(grid_n, SOLVE_GRID_CAP))
    report = solve(solve_spec, rdata, opts)

    notes = (
        "range of the resonance matrix is span{e1, e2} per block (computed "
        "from the matrix); kernel is the third block coordinate",
        "identity tail rows beyond the 3k truncation are non-resonant and "
        "contribute nothing to the kernel; the truncation is the faithful "
        "finite model",
        "obstruction_prefactor and h_kernel_feedback_first_recorded compare "
        "against recorded targets that are inconsistent with the defining "
        "integrals; the computed values are the faithful ones",
    )
    return Section4Report(
        checks=tuple(checks),
        margins=margins,
        sign_min=probe.min_inner,
        sign_max=probe.max_inner,
        solve=report,
        notes=notes,
    )


@dataclass(frozen=True)
class SpecialConditionsReport:
    """Confirms the builtin operator satisfies neither special algebra.

    Schemes requiring the scaled operator S = xi^(alpha-1) A to be
    idempotent (S^2 = S) or involutive (S^2 = I) do not apply here; the
    projection splitting handles the general case.
    """

    scaled: np.ndarray
    scaled_squared: np.ndarray

    @property
    def idempotent_fails(self) -> bool:
        return not np.allclose(self.scaled_squared, self.scaled)

    @property
    def involutive_fails(self) -> bool:
        return not np.allclose(self.scaled_squared, np.eye(3))


def check_special_conditions_fail() -> SpecialConditionsReport:
    """B^2 = diag(9/4, 49/16, 4), so (B/2)^2 = diag(9/16, ...) matches
    neither B/2 nor the identity: both removed special conditions fail."""
    b = np.diag(BLOCK_DIAGONAL)
    scaled = 0.5 * b  # xi^(alpha-1) = (1/4)^(1/2) = 1/2
    return SpecialConditionsReport(
        scaled=scaled,
        scaled_squared=scaled @ scaled,
    )


@dataclass(frozen=True)
class BuiltinProblem:
    """A builtin's fixed alpha and xi, builder, growth envelope and rhs factory."""

    alpha: float
    xi: float
    build: Callable[[int, int], ProblemSpec]
    growth: Callable[[], GrowthSpec]
    rhs_factory: Callable[[int], RhsCallback]


BUILTINS: dict[str, BuiltinProblem] = {
    "section4": BuiltinProblem(
        alpha=1.5,
        xi=0.25,
        build=build_section4,
        growth=section4_growth,
        rhs_factory=_section4_rhs,
    ),
}
