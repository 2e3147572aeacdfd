"""Nonlinear layer: right-hand-side assembly and mixed fixed-point solve.

The unknown is a ``DomainElement`` (coef, source), never grid samples of
x itself: the left boundary condition and the derivative trace are exact
in that representation, and applying the fractional derivative to the
assembled x returns the source by construction.  Only the right-hand
side and the boundary functional are discretized.  ``apply_rhs``,
``oriented_lift`` and ``residuals`` sample x and its trace through the
one sampler ``resonance.evaluate``; ``rhs_functionals`` takes h of stacks.

The iteration is the splitting map

    Phi(x) = P x + J Q N x + K (I - Q) N x,

whose fixed points are exactly the discrete solutions: at a fixed point
the obstruction part of N x must vanish (kernel coordinates are fed back
through J), and then R coef = h(source) holds, i.e. x satisfies the
three-point condition.  Phi reads x only through coef and N x, so each
iterate's N x is evaluated once.  Any isomorphism J: Im Q -> Ker L has
these fixed points, so ``solve`` orients and scales the J of
``build_resonance`` by the kernel-block gain it measures at the start
iterate, which makes the kernel coordinates contract at the damping rate
(``oriented_lift``).  Since G only sets that rate, it is probed on the
coarsest subgrid of at least 256 intervals that N's divisors allow (the
full grid up to N = 256).
The damped map is accelerated by Anderson mixing rather than replaced by
Newton: the right-hand sides of interest are nonsmooth (norm-threshold
switches), so no Jacobian is assumed, and mixing takes its secant
information from the residuals of past iterates alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .fracops import GridFn, _check_count, cumulative_integral, frac_derivative, frac_integral
from .resonance import (
    DomainElement,
    ProblemSpec,
    ResonanceData,
    _integral_at_xi_and_one,
    boundary_functional,
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
    "rhs_functionals",
    "fixed_point_map",
    "oriented_lift",
    "solve",
    "residuals",
]

_DIVERGENCE_LIMIT = 1e8
# Secant step of the kernel-gain probe, relative to max(1, ||coef||).
_GAIN_STEP = 1e-6
# Rounding level of a row of the probed gain: this many ulps of the rhs values its
# kernel direction sees, per secant step.
_GAIN_NOISE_ULPS = 1e3
# The kernel-gain probe's subgrid keeps at least this many intervals.
_GAIN_INTERVALS = 256
# Values (rows x dim) of one stacked rhs call of ``rhs_functionals`` (at least one element):
# 21 elements at N = 256, n = 3.  2^14 is the largest power of two that leaves a cold
# check-hypotheses flow's peak RSS (N = 256) within 0.3 MB of its value at 3072: five fresh
# interpreters per cap read 38.7-38.9 MB at 3072, 38.8-39.0 at 16384, 39.5-39.8 at 32768
# and 41.0-41.3 at 65536 (Python 3.11, numpy 2.4, x86-64 Linux).
_RHS_CHUNK_VALUES = 16384
# Anderson mixing fits the residual by at most this many residual differences.
_MIX_DEPTH = 4
# The mixing fit is refused when its Gram matrix's condition number exceeds this.
_MIX_COND = 1e12
# ``_dot``'s chunk: OpenBLAS 0.3.31 splits a ddot above 10000 values across threads, in another order.
_DOT_CHUNK = 8192


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
        _check_count(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not (self.tol_fixed_point > 0 and self.tol_residual > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ResidualBlock:
    """Measured defects of a candidate solution.

    right_bc_defect is || x(1) - A x(xi) || with x read at xi itself, a
    node or not (the left condition I^(2-alpha) x(0) = 0 holds by
    representation); bc_consistency is its disagreement with the
    algebraic form || R coef - h(source) || (equal up to rounding).
    solvability_defect is || (I - R R^+) h(N x) ||, and pde_residual is
    the interior sup-norm of D^alpha x - f(t, x, D^(alpha-1) x) with the
    kernel-power part of x differentiated exactly (it vanishes) and the
    I^alpha part re-differentiated numerically; ``samples`` = (x, D^(alpha-1) x) on the grid.
    pde_residual is a verifier figure: it peaks at node 2 (t = 2/N), the
    boundary layer of that re-differentiation, and does not track the
    solution's grid error (section4, k = 1: 1.2778e-4 at N = 256 and at
    N = 4096).
    """

    pde_residual: float
    right_bc_defect: float
    bc_consistency: float
    solvability_defect: float
    samples: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of ``solve``; ``kernel_gain`` is the G of ``oriented_lift``, probed on its subgrid."""

    converged: bool
    diverged: bool
    element: DomainElement
    diff_history: tuple[float, ...]
    residuals: ResidualBlock
    kernel_gain: np.ndarray

    @property
    def iterations(self) -> int:
        """Steps taken: each records one iterate difference."""
        return len(self.diff_history)


def eval_rhs(spec: ProblemSpec, t: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """f on a batch of m points: one ``spec.rhs(t[m], u[m,n], v[m,n])`` call.

    The result must have shape exactly ``u.shape``, else
    ``RhsEvaluationError`` names the expected (m, n); a non-finite entry
    raises naming its first row as ``node j (t = ...)``.
    """
    f = np.asarray(spec.rhs(t, u, v), dtype=float)
    if f.shape != u.shape:
        raise RhsEvaluationError(f"rhs returned shape {f.shape}, expected {u.shape}")
    if not np.isfinite(f).all():  # per-row reduction only on failure: it costs 8x the block test
        j = int(np.argmin(np.isfinite(f).all(axis=1)))
        raise RhsEvaluationError(f"rhs returned non-finite values at node {j} (t = {t[j]:g})")
    return f


def apply_rhs(spec: ProblemSpec, x: DomainElement) -> GridFn:
    """Evaluate f(t_j, x(t_j), D^(alpha-1) x(t_j)) at every node in one call.

    x and its trace come from the exact representation through
    ``evaluate``; only f itself is sampled.  The source's two integrals
    are freed before f is called.  A bad return raises with the
    offending node index.
    """
    src, ord = x.source, spec.ord
    xv, tv = evaluate(frac_integral(src, ord.alpha).values, cumulative_integral(src).values, x.coef, ord)
    return GridFn(eval_rhs(spec, src.nodes, xv, tv))


def rhs_functionals(spec: ProblemSpec, count: int, sample: Callable[[slice], tuple]) -> np.ndarray:
    """h(N x_i) of ``count`` elements, one row each, from stacked rhs calls.

    ``sample(s)`` returns x_i and D^(alpha-1) x_i on the grid for i in the
    slice s, each broadcastable to (len(s), N+1, n).  A chunk of at most
    ``_RHS_CHUNK_VALUES`` = 2^14 values (at least one element: 21 at N = 256,
    n = 3; one at N = 4096, n = 12) is one ``eval_rhs`` call and the only
    one held; one ``boundary_functional`` call gives the chunk's rows, each
    from one element alone, so none depends on the chunking.
    """
    rows, n = spec.grid_n + 1, spec.dim
    per = max(1, _RHS_CHUNK_VALUES // (rows * n))
    t, h = np.tile(np.linspace(0.0, 1.0, rows), min(per, count)), np.empty((count, n))
    for lo in range(0, count, per):
        shape = (min(per, count - lo), rows, n)
        u, v = (np.broadcast_to(a, shape).reshape(-1, n) for a in sample(slice(lo, lo + shape[0])))
        w = eval_rhs(spec, t[: u.shape[0]], u, v).reshape(shape)
        h[lo : lo + shape[0]] = boundary_functional(w, spec)
        del u, v, w  # not held while the next chunk is sampled
    return h


def fixed_point_map(
    spec: ProblemSpec, rdata: ResonanceData, coef: np.ndarray, w: GridFn
) -> DomainElement:
    """One application of Phi(x) = P x + J Q N x + K (I - Q) N x.

    Phi reads x only through its coefficient (P x = K K^T coef) and
    w = N x = ``apply_rhs(spec, x)``, so it takes exactly those two.
    ``split_obstruction`` splits w once: J lifts Q w, an exact power
    function, and the partial inverse takes the solvable rest, with
    h(Q w) on the beta-integral route, so the output's solvability
    defect lies in the obstruction coordinates, which vanish at a fixpoint.
    """
    q, h_rest, rest = split_obstruction(w, spec, rdata)
    return DomainElement(rdata.kernel_proj @ coef + rdata.lift @ q.coef + rdata.pinv @ h_rest, rest)


def oriented_lift(
    spec: ProblemSpec, rdata: ResonanceData, x: DomainElement, w: GridFn
) -> tuple[np.ndarray, np.ndarray]:
    """Probe the kernel-block gain G at x, given w = N x, and return (G, K S K^T J).

    A damped step moves the kernel coordinates z = K^T coef by
    relax K^T J Q N x, so near x they change at the rate I + relax G with

        G = d/dz K^T J Q N(x + K z t^(alpha-1))  at z = 0,

    a dim_ker x dim_ker matrix.  With the lift K S K^T J and S = -G^-1
    the rate is (1 - relax) I.  G is measured by forward secants of step
    1e-6 max(1, ||coef||) along each kernel direction.  They move coef
    alone, so one I^alpha sweep of x's source (none from a zero source)
    serves all dim_ker: ``evaluate`` samples them as one stack of
    coefficients, and one ``rhs_functionals`` call evaluates them.
    The secants run on the subgrid of every d-th node, d the largest
    divisor of N with N/d >= 256 (d = 1, the full grid, when N <= 256 or
    no larger divisor qualifies): the sweep, the trace and w are
    subsampled, and h is read at xi itself on the N/d-interval grid, so
    the rhs work falls by about d.  Any isomorphism J has the same fixed
    points, so G only sets how fast the kernel coordinates contract, and
    the solution does not move (section4's subgrid G agrees with the
    full-grid secants to 1.3e-6 relative at N = 4096).  The noise floor
    below reads the full-grid w.
    Each row of G is judged against the secant's rounding level in its own
    direction, ``_GAIN_NOISE_ULPS`` ulps of |K^T J kappa (I - R R^+)|
    (|A| + I) max_t |w| per step, so a direction whose rhs values are small
    is not judged by the largest component's.  When the smallest singular
    value of diag(1/noise) G does not exceed 1 (the rhs hardly sees some
    kernel coordinate), S = I and J itself is returned.
    """
    ker = rdata.kernel
    step = _GAIN_STEP * max(1.0, float(np.linalg.norm(x.coef)))
    seen = (np.abs(spec.a_op) + np.eye(spec.dim)) @ np.max(np.abs(w.values), axis=0)
    row_scale = np.abs(ker.T @ rdata.lift @ (rdata.proj_scale * rdata.offrange_proj)) @ seen
    noise = np.maximum(_GAIN_NOISE_ULPS * np.finfo(float).eps * row_scale / step, np.finfo(float).tiny)
    n = spec.grid_n
    d = max((d for d in range(1, n // _GAIN_INTERVALS + 1) if n % d == 0), default=1)
    sub = replace(spec, grid_n=n // d)
    iv, iy = frac_integral(x.source, spec.ord.alpha).values[::d], cumulative_integral(x.source).values[::d]
    coefs = (x.coef + step * ker.T)[:, None]
    h = rhs_functionals(sub, rdata.dim_ker, lambda s: evaluate(iv, iy, coefs[s], spec.ord))
    # h is linear, so the secants difference h values.
    gain = ker.T @ rdata.lift @ rdata.obstruction(h - boundary_functional(w.values[::d], sub)).T / step
    if np.linalg.svd(gain / noise[:, None], compute_uv=False)[-1] <= 1.0:
        return gain, rdata.lift
    return gain, ker @ np.linalg.solve(-gain, ker.T @ rdata.lift)


def _flat(x: DomainElement) -> np.ndarray:
    """The flat state coef || source.values.ravel() of x."""
    return np.concatenate((x.coef, x.source.values.ravel()))


def _element(s: np.ndarray, dim: int) -> DomainElement:
    """The DomainElement of a flat state: read-only views of s."""
    return DomainElement(s[:dim], GridFn(s[dim:].reshape(-1, dim)))


def _row_norm(s: np.ndarray, dim: int) -> float:
    """max(||coef||, max_j ||values[j]||), the norm of a flat (coef, source) state."""
    return max(
        float(np.linalg.norm(s[:dim])),
        float(np.max(np.linalg.norm(s[dim:].reshape(-1, dim), axis=1))),
    )


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b as np.dot on ``_DOT_CHUNK``-value chunks summed in order: the same bits at any thread count."""
    total = float(np.dot(a[:_DOT_CHUNK], b[:_DOT_CHUNK]))
    for lo in range(_DOT_CHUNK, a.size, _DOT_CHUNK):
        total += float(np.dot(a[lo : lo + _DOT_CHUNK], b[lo : lo + _DOT_CHUNK]))
    return total


def _mixing_coefficients(dfs: list[np.ndarray], f: np.ndarray) -> np.ndarray | None:
    """gamma minimizing ||f - sum_i gamma_i dfs[i]||_2, or None when ill-conditioned.

    The fit is solved through its m x m Gram matrix, one ``_dot`` per
    entry, so the history is never stacked into one array.
    """
    gram = np.array([[_dot(a, b) for b in dfs] for a in dfs])
    sv = np.linalg.svd(gram, compute_uv=False)
    if not sv[-1] > sv[0] / _MIX_COND:
        return None
    return np.linalg.solve(gram, np.array([_dot(a, f) for a in dfs]))


def solve(spec: ProblemSpec, rdata: ResonanceData, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Anderson-mixed damped iteration of g(x) = (1 - relax) x + relax Phi(x).

    Phi lifts the obstruction with the ``oriented_lift`` probed once at
    the initial element, so the kernel coordinates contract at about
    1 - relax per step near it; ``rdata`` itself is left as it is.  The
    start's N x serves both the probe and the first step.

    The iterate is one flat array s = coef || source, with residual
    f = g(s) - s; N x is evaluated on, and the result returned as, a
    read-only view of s.  Each step is Anderson's type-II mixing of depth 4
    (Anderson 1965; Walker & Ni 2011): s <- g(s) - sum_i gamma_i dg_i,
    where gamma is the least-squares fit of f by the stored differences
    df_i of successive residuals and dg_i are the matching differences of
    g.  The step falls back to the plain damped step s <- g(s), and clears
    the history, when ||f|| grew or the fit is ill-conditioned (a
    vanishing df included).  Mixing moves no fixed point: at one f = 0,
    so gamma = 0.

    Stops when the iterate difference drops below ``tol_fixed_point`` or
    ``max_iter`` is reached; iterates blowing past 1e8 terminate early
    with the diverged flag.  The report is always returned and the
    converged flag additionally requires the algebraic residuals to meet
    ``tol_residual``.  An ``opts.initial`` of another shape raises ``ValueError``.
    """
    dim = spec.dim
    x = opts.initial if opts.initial is not None else DomainElement.zero(spec.grid_n, dim)
    if x.source.values.shape != (spec.grid_n + 1, dim):
        raise ValueError(
            f"initial element has grid_n = {x.source.n_intervals} and dimension {x.source.dim}; "
            f"the problem has grid_n = {spec.grid_n} and dimension {dim}"
        )
    s = _flat(x)
    x = _element(s, dim)  # from here on x is a view of s, and neither is written
    w = apply_rhs(spec, x)
    gain, lift = oriented_lift(spec, rdata, x, w)
    oriented = replace(rdata, lift=lift)
    relax = opts.relax
    # Pending pair (step, f) of the last step, completed into (dg, df) by
    # the next residual: dg = step + df, since g(s) = s + f.
    step: np.ndarray | None = None
    f_prev: np.ndarray | None = None
    f_norm_prev = math.inf
    dgs: list[np.ndarray] = []
    dfs: list[np.ndarray] = []
    history: list[float] = []
    diverged = False
    while True:
        phi = fixed_point_map(spec, oriented, s[:dim], w)
        del w  # not held while the next N x is computed
        g = (1.0 - relax) * s
        g[:dim] += relax * phi.coef
        g[dim:] += relax * phi.source.values.ravel()
        del phi
        f = g - s
        f_norm = math.sqrt(_dot(f, f))
        if step is not None:
            np.subtract(f, f_prev, out=f_prev)
            step += f_prev
            dgs.append(step)
            dfs.append(f_prev)
        gamma = _mixing_coefficients(dfs, f) if dfs and f_norm <= f_norm_prev else None
        if gamma is None:
            dgs.clear()
            dfs.clear()
        else:
            for c, dg in zip(gamma, dgs):
                g -= c * dg
        step = g - s
        s, x = g, _element(g, dim)
        f_prev, f_norm_prev = f, f_norm
        del g, f
        if len(dfs) == _MIX_DEPTH:
            del dgs[0], dfs[0]
        diff = _row_norm(step, dim)
        history.append(diff)
        diverged = _row_norm(s, dim) > _DIVERGENCE_LIMIT
        if diverged or diff <= opts.tol_fixed_point or len(history) == opts.max_iter:
            break
        w = apply_rhs(spec, x)

    # The loop state is released before residuals, whose sweeps set the peak.
    del step, f_prev, dgs, dfs
    res = residuals(spec, rdata, x)
    converged = (
        history[-1] <= opts.tol_fixed_point
        and not diverged
        and res.right_bc_defect <= opts.tol_residual
        and res.solvability_defect <= opts.tol_residual
    )
    return SolveReport(
        converged=converged,
        diverged=diverged,
        element=x,
        diff_history=tuple(history),
        residuals=res,
        kernel_gain=gain,
    )


def residuals(spec: ProblemSpec, rdata: ResonanceData, x: DomainElement) -> ResidualBlock:
    """Measure all defects of a candidate solution.

    The interior equation residual excludes two nodes at each end where
    the numerical derivative uses one-sided or near-boundary stencils.
    """
    n = spec.grid_n
    # One I^alpha sweep of the source serves x and D^alpha x.
    ia = frac_integral(x.source, spec.ord.alpha)
    # D^alpha x = D^alpha(coef t^(alpha-1)) + D^alpha I^alpha source; the
    # first term vanishes exactly, the second is re-differentiated.
    dsource = frac_derivative(ia, spec.ord)
    at_xi, at_one = _integral_at_xi_and_one(x.source.values, spec)
    hy = spec.a_op @ at_xi - at_one
    xv, tv = evaluate(ia.values, cumulative_integral(x.source).values, x.coef, spec.ord)
    del ia  # not held beside w, which is formed next
    w = eval_rhs(spec, x.source.nodes, xv, tv)
    pde = float(np.max(np.linalg.norm(dsource.values[2 : n - 1] - w[2 : n - 1], axis=1)))
    algebraic = float(np.linalg.norm(rdata.matrix @ x.coef - hy))
    direct = float(np.linalg.norm(x.coef + at_one - spec.a_op @ (spec.xi**spec.ord.alpha_m1 * x.coef + at_xi)))
    solvability = float(np.linalg.norm(rdata.offrange_proj @ boundary_functional(w, spec)))
    return ResidualBlock(
        pde_residual=pde,
        right_bc_defect=direct,
        bc_consistency=abs(direct - algebraic),
        solvability_defect=solvability,
        samples=(xv, tv),
    )
