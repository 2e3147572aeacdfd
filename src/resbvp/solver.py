"""Nonlinear layer: right-hand-side assembly and damped fixed-point solve.

The unknown is a ``DomainElement`` (coef, source), never grid samples of
x itself: the left boundary condition and the derivative trace are exact
in that representation, and applying the fractional derivative to the
assembled x returns the source by construction.  Only the right-hand
side and the boundary functional are discretized.

The iteration is the splitting map

    Phi(x) = P x + J Q N x + K (I - Q) N x,

whose fixed points are exactly the discrete solutions: at a fixed point
the obstruction part of N x must vanish (kernel coordinates are fed back
through J), and then R coef = h(source) holds, i.e. x satisfies the
three-point condition.  Damped Picard is used rather than Newton: the
right-hand sides of interest are nonsmooth (norm-threshold switches), so
no Jacobian is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracops import GridFn, PowerFn, frac_derivative, frac_integral
from .resonance import (
    DomainElement,
    ProblemSpec,
    ResonanceData,
    boundary_functional,
    derivative_trace,
    evaluate,
    split_obstruction,
)

__all__ = [
    "RhsEvaluationError",
    "SolveOptions",
    "ResidualBlock",
    "SolveReport",
    "eval_rhs",
    "apply_rhs",
    "fixed_point_map",
    "solve",
    "residuals",
    "apriori_bound",
]

_DIVERGENCE_LIMIT = 1e8


class RhsEvaluationError(RuntimeError):
    """The right-hand side returned a wrongly shaped or non-finite value."""


@dataclass(frozen=True)
class SolveOptions:
    """Damped-iteration controls.

    ``tol_residual`` governs the algebraic residuals (right boundary
    defect and solvability defect) that the scheme drives to zero; the
    interior equation residual is grid-limited and reported separately.
    ``initial`` is the start element (zero when None); resonance leaves
    the kernel component of the solution to it.
    """

    relax: float = 0.5
    max_iter: int = 200
    tol_fixed_point: float = 1e-10
    tol_residual: float = 1e-6
    initial: DomainElement | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.relax <= 1.0):
            raise ValueError(f"relaxation must lie in (0, 1], got {self.relax}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol_fixed_point <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ResidualBlock:
    """Measured defects of a candidate solution.

    right_bc_defect is || x(1) - A x(xi) || evaluated on the grid (the
    left condition I^(2-alpha) x(0) = 0 holds by representation);
    bc_consistency is its disagreement with the algebraic form
    || R coef - h(source) || (the two coincide up to rounding).
    solvability_defect is || (I - R R^+) h(N x) ||, and pde_residual is
    the interior sup-norm of D^alpha x - f(t, x, D^(alpha-1) x) with the
    kernel-power part of x differentiated exactly (it vanishes) and the
    I^alpha part re-differentiated numerically.
    """

    pde_residual: float
    right_bc_defect: float
    bc_consistency: float
    solvability_defect: float


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    diverged: bool
    iterations: int
    element: DomainElement
    diff_history: tuple[float, ...]
    residuals: ResidualBlock


def eval_rhs(spec: ProblemSpec, t: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """f on a batch of m points: one ``spec.rhs(t[m], u[m,n], v[m,n])`` call.

    The result must have shape exactly ``u.shape``, else
    ``RhsEvaluationError`` names the expected (m, n); a non-finite entry
    raises naming its first row as ``node j (t = ...)``.
    """
    f = np.asarray(spec.rhs(t, u, v), dtype=float)
    if f.shape != u.shape:
        raise RhsEvaluationError(f"rhs returned shape {f.shape}, expected {u.shape}")
    finite = np.isfinite(f).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite))
        raise RhsEvaluationError(f"rhs returned non-finite values at node {j} (t = {t[j]:g})")
    return f


def apply_rhs(spec: ProblemSpec, x: DomainElement) -> GridFn:
    """Evaluate f(t_j, x(t_j), D^(alpha-1) x(t_j)) at every node in one call.

    x and its trace come from the exact representation; only f itself is
    sampled.  A bad return raises with the offending node index.
    """
    xv = evaluate(x, spec.ord).values
    tv = derivative_trace(x, spec.ord).values
    return GridFn(eval_rhs(spec, x.source.nodes, xv, tv))


def fixed_point_map(spec: ProblemSpec, rdata: ResonanceData, x: DomainElement) -> DomainElement:
    """One application of Phi(x) = P x + J Q N x + K (I - Q) N x.

    ``split_obstruction`` splits N x once: J lifts Q N x, an exact power
    function, and the partial inverse takes the solvable rest, with
    h(Q N x) on the beta-integral route, so the output's solvability
    defect lies in the obstruction coordinates, which vanish at a fixpoint.
    """
    q, h_rest, rest = split_obstruction(apply_rhs(spec, x), spec, rdata)
    coef = rdata.kernel_proj @ x.coef + rdata.lift @ q.coef + rdata.pinv @ h_rest
    return DomainElement(coef, rest)


def _diff_norm(a: DomainElement, b: DomainElement) -> float:
    dc = float(np.linalg.norm(a.coef - b.coef))
    dy = float(np.max(np.linalg.norm(a.source.values - b.source.values, axis=1)))
    return max(dc, dy)


def _magnitude(x: DomainElement) -> float:
    return max(
        float(np.linalg.norm(x.coef)),
        float(np.max(np.linalg.norm(x.source.values, axis=1))),
    )


def solve(spec: ProblemSpec, rdata: ResonanceData, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Damped Picard iteration x <- (1 - relax) x + relax Phi(x).

    Stops when the iterate difference drops below ``tol_fixed_point`` or
    ``max_iter`` is reached; iterates blowing past 1e8 terminate early
    with the diverged flag.  The report is always returned and the
    converged flag additionally requires the algebraic residuals to meet
    ``tol_residual``.
    """
    x = opts.initial if opts.initial is not None else DomainElement.zero(spec.grid_n, spec.dim)
    history: list[float] = []
    diverged = False
    settled = False
    iterations = 0
    for _ in range(opts.max_iter):
        iterations += 1
        phi = fixed_point_map(spec, rdata, x)
        x_next = DomainElement(
            (1.0 - opts.relax) * x.coef + opts.relax * phi.coef,
            GridFn((1.0 - opts.relax) * x.source.values + opts.relax * phi.source.values),
        )
        diff = _diff_norm(x_next, x)
        history.append(diff)
        x = x_next
        if _magnitude(x) > _DIVERGENCE_LIMIT:
            diverged = True
            break
        if diff <= opts.tol_fixed_point:
            settled = True
            break

    res = residuals(spec, rdata, x)
    converged = (
        settled
        and not diverged
        and res.right_bc_defect <= opts.tol_residual
        and res.solvability_defect <= opts.tol_residual
    )
    return SolveReport(
        converged=converged,
        diverged=diverged,
        iterations=iterations,
        element=x,
        diff_history=tuple(history),
        residuals=res,
    )


def residuals(spec: ProblemSpec, rdata: ResonanceData, x: DomainElement) -> ResidualBlock:
    """Measure all defects of a candidate solution.

    The interior equation residual excludes two nodes at each end where
    the numerical derivative uses one-sided or near-boundary stencils.
    """
    n = spec.grid_n
    # One I^alpha sweep of the source serves x, h(source) and D^alpha x.
    ia = frac_integral(x.source, spec.ord.alpha)
    nodes = x.source.nodes
    xv = PowerFn(x.coef, spec.ord.alpha_m1).sample(nodes) + ia.values
    w = eval_rhs(spec, nodes, xv, derivative_trace(x, spec.ord).values)
    # D^alpha x = D^alpha(coef t^(alpha-1)) + D^alpha I^alpha source; the
    # first term vanishes exactly, the second is re-differentiated.
    dsource = frac_derivative(ia, spec.ord)
    pde = float(np.max(np.linalg.norm(dsource.values[2 : n - 1] - w[2 : n - 1], axis=1)))
    hy = spec.a_op @ ia.values[spec.xi_node] - ia.values[n]
    algebraic = float(np.linalg.norm(rdata.matrix @ x.coef - hy))
    direct = float(np.linalg.norm(xv[n] - spec.a_op @ xv[spec.xi_node]))
    solvability = float(np.linalg.norm(rdata.offrange_proj @ boundary_functional(GridFn(w), spec)))
    return ResidualBlock(
        pde_residual=pde,
        right_bc_defect=direct,
        bc_consistency=abs(direct - algebraic),
        solvability_defect=solvability,
    )


def apriori_bound(
    lam: tuple[float, float, float],
    mu: tuple[float, float, float],
    exps: tuple[float, float] = (0.0, 0.0),
    tol: float = 1e-10,
    max_doublings: int = 200,
) -> tuple[float, float]:
    """Certified bound for the coupled sublinear inequality pair

        z1 <= lam1 z1^g1 + lam2 z2 + lam3,
        z2 <= mu1 z1 + mu2 z2^g2 + mu3,

    with g1, g2 in [0, 1).  Solutions are bounded iff lam2*mu1 < 1; a
    super-solution (G(Z) <= Z componentwise for the monotone map G) is
    found by doubling, then iterated downward.  G is monotone and each
    z^g is concave, so every solution below the starting point stays
    below all iterates; the limit is returned, stable to ``tol``.
    """
    l1, l2, l3 = lam
    m1, m2, m3 = mu
    g1, g2 = exps
    if min(l1, l2, l3, m1, m2, m3) < 0:
        raise ValueError("all coefficients must be nonnegative")
    if not (0.0 <= g1 < 1.0 and 0.0 <= g2 < 1.0):
        raise ValueError("exponents must lie in [0, 1)")
    if l2 * m1 >= 1.0:
        raise ValueError(f"no bound certified: lam2 * mu1 = {l2 * m1:g} >= 1")

    def g_map(z1: float, z2: float) -> tuple[float, float]:
        return (l1 * z1**g1 + l2 * z2 + l3, m1 * z1 + m2 * z2**g2 + m3)

    def super_z2(z1: float) -> float:
        z2 = max(1.0, m3)
        for _ in range(max_doublings):
            if m1 * z1 + m2 * z2**g2 + m3 <= z2:
                break
            z2 *= 2.0
        else:
            raise ValueError("no bound certified: second inequality did not stabilize")
        # Tighten to the scalar fixed point: the doubling overshoots by up
        # to 2x, which would effectively halve the certifiable lam2*mu1
        # range in the outer loop.  Downward iteration from a
        # super-solution stays a super-solution (the map is monotone).
        for _ in range(10_000):
            nxt = m1 * z1 + m2 * z2**g2 + m3
            if abs(nxt - z2) <= 1e-12 * max(1.0, abs(z2)):
                return nxt
            z2 = nxt
        return z2

    z1 = max(1.0, l3)
    for _ in range(max_doublings):
        z2 = super_z2(z1)
        if l1 * z1**g1 + l2 * z2 + l3 <= z1:
            break
        z1 *= 2.0
    else:
        raise ValueError("no bound certified: first inequality did not stabilize")

    # Downward monotone iteration to the fixed point below (z1, z2).
    for _ in range(10_000):
        n1, n2 = g_map(z1, z2)
        if math.isclose(n1, z1, rel_tol=0.0, abs_tol=tol) and math.isclose(
            n2, z2, rel_tol=0.0, abs_tol=tol
        ):
            return n1, n2
        z1, z2 = n1, n2
    return z1, z2
