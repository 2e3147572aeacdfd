"""Built-in problems and their golden-value verification.

The flagship builtin, registered under the CLI name "section4", is a
block system with alpha = 3/2, xi = 1/4 and k identical 3x3 diagonal
blocks B = diag(3/2, 7/4, 2) on the boundary operator.  Each block of
the resonance matrix is diag(1/4, 1/8, 0), so the kernel has dimension
exactly k (one direction per block, the third coordinate).  The
truncation keeps exactly 3k rows: appending the identity tail rows would
only add non-resonant directions.

``verify_section4`` reproduces every recorded reference constant of this
configuration on the problem's own grid and reports a residual per
entry; it only checks, and leaves the margins and the solve to the
caller.  Its kernel-feedback entries make one rhs call on the exact
element e t^(alpha-1), sampled by ``resonance.evaluate``.  Two of its
entries show that the scaled operator S = xi^(alpha-1) A satisfies
neither condition the paper removes, S^2 = S or S^2 = I.  Two recorded
targets are inconsistent with the defining integrals and are retained
only as recorded: the obstruction-projection prefactor (the recorded
value does not make the projection idempotent) and the first component
of the boundary functional of the kernel feedback (the recorded value
implies int_0^1 (1-s)^(1/2) ds = 3/2 instead of 2/3).  The report
carries both the computed truth and the recorded target, marked failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conditions import GrowthSpec, KernelSignProbe, probe_kernel_sign
from .fracops import GridFn, Order, gamma
from .resonance import DomainElement, ProblemSpec, ResonanceData, RhsCallback, _integral_at_xi_and_one, boundary_functional
from .solver import apply_rhs

__all__ = [
    "BLOCK_DIAGONAL",
    "build_section4",
    "section4_growth",
    "GoldenCheck",
    "Section4Report",
    "verify_section4",
    "BUILTINS",
]

BLOCK_DIAGONAL = (1.5, 1.75, 2.0)

# Reciprocals in the switched branch are taken as 0 at an exactly zero
# argument (the value the worked constants of this configuration assume);
# the guard absorbs rounding-level noise in kernel directions.
_RECIPROCAL_GUARD = 1e-12


def _section4_rhs(n: int) -> RhsCallback:
    # Scale 0 stands in for the switched first component, which is written last.
    scales = np.array([0.0] + [1.0 / (5.0 * 2.0 ** (i + 1)) for i in range(1, n)])

    def rhs(t: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        v1 = v[:, 0]
        rec = np.divide(1.0, v1, out=np.zeros_like(v1), where=np.abs(v1) > _RECIPROCAL_GUARD)
        # Whole (m, n) arrays: a slice such as u[:, 1:] makes numpy loop over short rows.
        f = u + v
        f *= scales
        # Row norms as dot products, bit-equal to np.linalg.norm of one row,
        # so a row at ||v|| = 1 takes the branch the per-point norm gives it.
        f[:, 0] = np.where(np.sqrt(np.vecdot(v, v)) < 1.0, 0.1, (v1 + rec - 1.0) / 10.0)
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
    """The golden checks, the kernel-sign probe their sign entry reads, and notes."""

    checks: tuple[GoldenCheck, ...]
    kernel_probe: KernelSignProbe
    notes: tuple[str, ...]


def verify_section4(spec: ProblemSpec, rdata: ResonanceData, seed: int = 0) -> Section4Report:
    """Reproduce the recorded constants of the builtin configuration.

    ``spec`` is ``build_section4(k, grid_n)`` and ``rdata`` its
    ``build_resonance``.  Matrix entries are checked by arithmetic, the
    two beta-moment constants by product quadrature at grid_n, h of the
    kernel feedback by ``boundary_functional``, the solver's own h, and
    the kernel-feedback sign by sampling under ``seed`` at grid_n; the
    report holds that probe.  The margins and the solve are not part of
    it: the command line runs them as it does for ``solve``.  Failures
    are enumerated in the report, never thrown.
    """
    k, grid_n = spec.dim // 3, spec.grid_n
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

    # The paper's headline: S = xi^(alpha-1) A is neither idempotent nor
    # involutive.  Per block S = diag(3/4, 7/8, 1) and S^2 = diag(9/16, 49/64, 1),
    # so max|S^2 - S| = 3/16 and max|S^2 - I| = 7/16, both exact in binary.
    scaled = spec.xi ** (alpha - 1.0) * spec.a_op
    scaled_sq = scaled @ scaled
    idem = float(np.max(np.abs(scaled_sq - scaled)))
    invol = float(np.max(np.abs(scaled_sq - np.eye(spec.dim))))
    checks.append(GoldenCheck("removed_condition_idempotent_defect", idem, 3.0 / 16.0, 0.0))
    checks.append(GoldenCheck("removed_condition_involutive_defect", invol, 7.0 / 16.0, 0.0))

    # Kernel feedback y = N(e t^(1/2)) with e = sigma * eps_3; sigma = 2
    # locks the switched branch (|| trace || = 2 Gamma(3/2) > 1).
    sigma = 2.0
    e = np.zeros(spec.dim)
    e[2] = sigma
    w = apply_rhs(spec, DomainElement(e, GridFn.zeros(grid_n, spec.dim))).values
    # Component-3 beta moments at xi and 1, solved for the recorded d-constants.
    dhat_quad, dtil_quad = gamma(alpha) * _integral_at_xi_and_one(w, spec)[:, 2] / (0.1 * sigma / 4.0)
    dhat = math.pi / 128.0 + sq_pi / 24.0
    dtil = math.pi / 8.0 + sq_pi / 3.0
    checks.append(GoldenCheck("dhat_quadrature", dhat_quad, dhat, 1e-6))
    checks.append(GoldenCheck("dtilde_quadrature", dtil_quad, dtil, 1e-6))

    # First component of h(N e t^(1/2)).  The recorded target 11/(40 sqrt(pi))
    # follows from taking int_0^1 (1-s)^(1/2) ds = 3/2; the integral is 2/3,
    # which gives 13/(120 sqrt(pi)).  Both comparisons are reported.
    h_w = boundary_functional(w, spec)
    checks.append(GoldenCheck("h_kernel_feedback_first_recorded", float(h_w[0]), 11.0 / (40.0 * sq_pi), 1e-6))
    checks.append(GoldenCheck("h_kernel_feedback_first_computed", float(h_w[0]), 13.0 / (120.0 * sq_pi), 1e-6))

    probe = probe_kernel_sign(spec, rdata, kernel_level=1.0, sample_count=50, seed=seed)
    checks.append(
        GoldenCheck("kernel_sign_strictly_positive", 1.0 if probe.strict_sign == "positive" else 0.0, 1.0, 0.0)
    )

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
    return Section4Report(checks=tuple(checks), kernel_probe=probe, notes=notes)


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
