"""Resonance decomposition for the three-point boundary condition.

The problem couples the endpoint to an interior point through a bounded
operator A:

    D^alpha x = f(t, x, D^(alpha-1) x),
    I^(2-alpha) x(0) = 0,      x(1) = A x(xi).

Writing x(t) = c t^(alpha-1) + I^alpha y(t) (the left condition is then
exact by construction), the right condition reduces to the linear
equation  R c = h(y)  with the resonance matrix

    R = I - xi^(alpha-1) A

and the boundary functional

    h(y) = (A / Gamma(a)) int_0^xi (xi-s)^(a-1) y ds
         - (1 / Gamma(a)) int_0^1  (1-s)^(a-1) y ds.

The problem is resonant when R is singular.  This module builds the
pseudoinverse-based splitting used by the solver: projections that
isolate the kernel part of c and the unsolvable part of y, and the
partial inverse that undoes the derivative on solvable data.
``evaluate`` is the one sampler of elements: from I^alpha y and int_0^t y
it forms x and its trace Gamma(a) c + int_0^t y on the grid, for one
element or a stack.  ``boundary_functional`` (samples (..., N+1, n) in,
rows (..., n) out) and ``ResonanceData.obstruction`` take stacks too.

The scalar in front of the obstruction projection is pinned by
idempotency.  For y = c t^(a-1) the boundary functional evaluates
exactly to

    h(c t^(a-1)) = (Gamma(a)/Gamma(2a)) (xi^(2a-1) A - I) c,

and (I - R R^+)(xi^(2a-1) A - I) = (xi^a - 1)(I - R R^+), so the unique
scale kappa making the projection idempotent is

    kappa = Gamma(2a) / (Gamma(a) (xi^a - 1)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fracops import (
    GridFn,
    Order,
    PowerFn,
    _check_count,
    _freeze,
    derivative_of_integral,
    frac_integral_at,
    gamma,
    power_rule,
)
from .linops import pinv

__all__ = [
    "NonResonantError",
    "ProblemSpec",
    "ResonanceData",
    "DomainElement",
    "build_resonance",
    "boundary_functional",
    "boundary_functional_power",
    "project_obstruction",
    "split_obstruction",
    "project_kernel",
    "partial_inverse",
    "evaluate",
    "StructureReport",
    "verify_structure",
]

RhsCallback = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class NonResonantError(ValueError):
    """The resonance matrix is invertible; the splitting scheme does not apply."""


@dataclass(frozen=True)
class ProblemSpec:
    """A complete finite-truncation problem instance.

    ``rhs(t, u, v)`` implements f(t, x(t), D^(alpha-1) x(t)) on a batch
    of m points at once: t has shape (m,), u and v have shape (m, n) (row
    j is the point at t[j]), and it must return a finite (m, n) array
    that it does not write again, since ``apply_rhs`` keeps it read-only
    as N x.  ``a_op`` is kept and marked read-only.  ``grid_n``, the
    number of uniform subintervals, is an integer >= 8: the one grid rule
    of every problem source, which ``dataclasses.replace`` re-checks.  xi
    need not be a node; the boundary condition is read at xi itself.
    """

    ord: Order
    xi: float
    a_op: np.ndarray
    rhs: RhsCallback
    grid_n: int

    def __post_init__(self) -> None:
        if not (0.0 < self.xi < 1.0):
            raise ValueError(f"xi must lie in (0, 1), got {self.xi}")
        a = np.asarray(self.a_op, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"boundary operator must be square and non-empty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("boundary operator has non-finite entries")
        _check_count(self.grid_n, "grid_n")
        if self.grid_n < 8:
            raise ValueError(f"grid_n must be at least 8, got {self.grid_n}")
        object.__setattr__(self, "a_op", _freeze(a))

    @property
    def dim(self) -> int:
        return self.a_op.shape[0]


@dataclass(frozen=True)
class ResonanceData:
    """Pseudoinverse splitting of the resonance matrix.

    ``kernel`` K is an orthonormal basis of ker(matrix).  ``lift`` is the
    map J = K C^T carrying obstruction vectors (in ker(matrix^T)) to
    kernel vectors, where C is the orthonormal cokernel basis rotated
    (orthogonal Procrustes) to line up with K, so J is an isometry from
    the cokernel onto the kernel.  ``ep_defect`` measures how much of the
    kernel lies inside the range; the kernel and cokernel coincide, and J
    is the orthogonal projector onto them, exactly when it vanishes,
    which is the regime where the splitting is a genuine direct sum.
    ``offrange_proj`` = I - R R^+ and ``kernel_proj`` = I - R^+ R project
    orthogonally onto the cokernel and the kernel; ``proj_scale`` is the
    idempotency-pinned coefficient of the obstruction projection.  The six
    matrices are kept and marked read-only, so ``dataclasses.replace``
    shares those it is not given.
    """

    matrix: np.ndarray
    pinv: np.ndarray
    rank: int
    offrange_proj: np.ndarray
    kernel_proj: np.ndarray
    kernel: np.ndarray
    lift: np.ndarray
    dim_ker: int
    ep_defect: float
    proj_scale: float
    rank_ambiguous: bool

    def __post_init__(self) -> None:
        for name in ("matrix", "pinv", "offrange_proj", "kernel_proj", "kernel", "lift"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def obstruction(self, h: np.ndarray) -> np.ndarray:
        """Obstruction coefficient kappa (I - R R^+) h of a boundary-functional value or (m, n) row stack."""
        return self.proj_scale * (self.offrange_proj @ h.T).T


@dataclass(frozen=True)
class DomainElement:
    """Pair (coef, source) representing x(t) = coef t^(alpha-1) + I^alpha source.

    The left boundary condition I^(2-alpha) x(0) = 0 holds identically in
    this representation, and the derivative trace is exact:
    D^(alpha-1) x(t) = Gamma(alpha) coef + int_0^t source.  Membership in
    the domain of the derivative operator additionally requires
    R coef = h(source); that defect is a computed diagnostic.  ``coef`` is
    kept and marked read-only.
    """

    coef: np.ndarray
    source: GridFn

    def __post_init__(self) -> None:
        c = np.atleast_1d(_freeze(self.coef))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("coefficient must be a finite vector")
        if c.shape[0] != self.source.dim:
            raise ValueError(
                f"coefficient dim {c.shape[0]} != source dim {self.source.dim}"
            )
        object.__setattr__(self, "coef", c)

    @classmethod
    def zero(cls, n_intervals: int, dim: int) -> "DomainElement":
        return cls(np.zeros(dim), GridFn.zeros(n_intervals, dim))


def build_resonance(spec: ProblemSpec, tol: float = 0.0) -> ResonanceData:
    """Assemble the splitting data for R = I - xi^(alpha-1) A.

    Raises ``NonResonantError`` when R is invertible at the rank
    tolerance, naming R's smallest singular value and that tolerance,
    so a nearly singular R is told apart from a clearly regular one.
    A singular value within a factor 10 of the tolerance
    makes the kernel dimension ill-determined; that is reported through
    ``rank_ambiguous`` and a warning.
    """
    n = spec.dim
    r = np.eye(n) - spec.xi ** spec.ord.alpha_m1 * spec.a_op
    pr = pinv(r, tol)
    dim_ker = n - pr.rank
    s = pr.singular_values
    if dim_ker == 0:
        raise NonResonantError(
            "the boundary operator is non-resonant (kernel is trivial): the smallest singular value "
            f"of R is {s[-1]:.3e}, above the rank tolerance {pr.tol_used:.3e}; the projection scheme does not apply"
        )
    # Only singular values above the machine-noise floor can make the
    # rank genuinely tolerance-sensitive; eps-scale representations of
    # exact zeros always sit near any reasonable tolerance.
    noise_floor = np.finfo(float).eps * max(r.shape) * (s[0] if s.size else 0.0)
    ambiguous = bool(
        np.any((s > noise_floor) & (s > pr.tol_used / 10) & (s < pr.tol_used * 10))
    )
    if ambiguous:
        warnings.warn(
            "kernel dimension is tolerance-sensitive: a singular value lies "
            f"within a decade of the rank tolerance {pr.tol_used:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    ker, coker = pr.kernel, pr.cokernel
    # Procrustes alignment: rotate the cokernel basis C to the one closest
    # to the kernel basis K, so J = K C^T pairs each cokernel direction
    # with its nearest kernel direction (J = K K^T when they coincide).
    u, _, vt = np.linalg.svd(coker.T @ ker)
    coker = coker @ (u @ vt)
    ep_defect = float(np.linalg.norm(pr.range_proj @ ker, 2))
    alpha = spec.ord.alpha
    scale = gamma(2.0 * alpha) / (gamma(alpha) * (spec.xi**alpha - 1.0))
    return ResonanceData(
        matrix=r,
        pinv=pr.pinv,
        rank=pr.rank,
        offrange_proj=np.eye(n) - pr.range_proj,
        kernel_proj=np.eye(n) - pr.corange_proj,
        kernel=ker,
        lift=ker @ coker.T,
        dim_ker=dim_ker,
        ep_defect=ep_defect,
        proj_scale=scale,
        rank_ambiguous=ambiguous,
    )


def _integral_at_xi_and_one(v: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Rows (I^alpha y)(xi) and (I^alpha y)(1), shape (2, ..., n), of y's
    (..., N+1, n) samples on ``spec``'s grid: xi is the point xi N, a node
    or not, read by product quadrature without a full sweep."""
    n = spec.grid_n
    if v.shape[-2:] != (n + 1, spec.dim):
        raise ValueError(f"samples of shape {v.shape} are not on the grid: want (..., {n + 1} nodes, {spec.dim})")
    return np.moveaxis(frac_integral_at(v, spec.ord.alpha, (spec.xi * n, n)), -2, 0)


def boundary_functional(v: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """h(y) = A (I^alpha y)(xi) - (I^alpha y)(1) of y's (..., N+1, n) samples on
    ``spec``'s grid, one row h per leading index; xi need not be a node."""
    at_xi, at_one = _integral_at_xi_and_one(v, spec)
    return np.matmul(spec.a_op, at_xi[..., None])[..., 0] - at_one


def boundary_functional_power(p: PowerFn, spec: ProblemSpec) -> np.ndarray:
    """Exact boundary functional of c t^beta via the beta integral.

    int_0^T (T-s)^(a-1) s^beta ds = Gamma(a) power_rule(beta, a) T^(beta+a)
    gives  h(c t^beta) = power_rule(beta, alpha) (xi^(beta+alpha) A c - c).
    """
    if p.dim != spec.dim:
        raise ValueError(f"power dim {p.dim} != operator dim {spec.dim}")
    alpha = spec.ord.alpha
    pr = power_rule(p.exponent, alpha)
    return pr * (spec.xi ** (p.exponent + alpha) * (spec.a_op @ p.coef) - p.coef)


def project_obstruction(p: PowerFn, spec: ProblemSpec, rdata: ResonanceData) -> PowerFn:
    """Q p = kappa (I - R R^+) h(p) t^(alpha-1) of a power function, exact.

    h(p) takes the beta-integral route; Q of a grid function is the q of
    ``split_obstruction``.
    """
    return PowerFn(rdata.obstruction(boundary_functional_power(p, spec)), spec.ord.alpha_m1)


def split_obstruction(
    w: GridFn, spec: ProblemSpec, rdata: ResonanceData
) -> tuple[PowerFn, np.ndarray, GridFn]:
    """Split w into Q w and the solvable rest (I - Q) w with one sweep of h(w).

    Returns (q, h_rest, rest): q = Q w, an exact power function; h_rest =
    h(w) - h(q) with h(q) on the exact beta-integral route, so Q of the
    rest vanishes to rounding; rest = w - q on w's grid.
    """
    hw = boundary_functional(w.values, spec)
    q = PowerFn(rdata.obstruction(hw), spec.ord.alpha_m1)
    return q, hw - boundary_functional_power(q, spec), GridFn(w.values - q.sample(w.nodes))


def project_kernel(x: DomainElement, rdata: ResonanceData) -> DomainElement:
    """Extract the kernel component of a domain element.

    Uses the exact trace identity D^(alpha-1) x(0) = Gamma(alpha) coef,
    so no numerical differentiation occurs: the result is
    ((I - R^+ R) coef, 0).
    """
    c = rdata.kernel_proj @ x.coef
    return DomainElement(c, GridFn.zeros(x.source.n_intervals, x.source.dim))


def partial_inverse(y: GridFn, spec: ProblemSpec, rdata: ResonanceData) -> DomainElement:
    """Right-inverse of the derivative operator on solvable data.

    Returns (R^+ h(y), y), i.e. x = R^+ h(y) t^(alpha-1) + I^alpha y.
    The kernel projection of the output vanishes identically because
    (I - R^+ R) R^+ = 0, and the derivative trace is available exactly
    as Gamma(alpha) R^+ h(y) + int_0^t y.
    """
    return DomainElement(rdata.pinv @ boundary_functional(y.values, spec), y)


def evaluate(iv: np.ndarray, iy: np.ndarray, coef: np.ndarray, ord: Order) -> tuple[np.ndarray, np.ndarray]:
    """Grid samples of x = coef t^(alpha-1) + I^alpha y and of its exact trace
    D^(alpha-1) x = Gamma(alpha) coef + int_0^t y, returned together.

    iv = I^alpha y and iy = int_0^t y are (N+1, n) node samples, or stacks
    (m, N+1, n) of one source per element.  coef is one (n,) vector or a
    stack (m, 1, n); the samples broadcast to (N+1, n) or (m, N+1, n).

    Both are fresh C-contiguous arrays, and each entry is one multiply and
    one add, bit-equal to t[:, None] ** (alpha-1) * coef + iv and
    Gamma(alpha) coef + iy.  x takes one component per multiply, so those
    loops run along the grid, not along the short component axis; the
    trace's coefficient rows are copied into place and iy is added over
    the whole array, which per-component adds would slow at n = 12.
    """
    powers = np.linspace(0.0, 1.0, iv.shape[-2]) ** ord.alpha_m1
    shape = np.broadcast_shapes(iv.shape, coef.shape)
    x, trace = np.empty(shape), np.empty(shape)
    for i in range(shape[-1]):
        np.multiply(powers, coef[..., i], out=x[..., i])
    x += iv
    trace[...] = gamma(ord.alpha) * coef
    trace += iy
    return x, trace


@dataclass(frozen=True)
class StructureReport:
    """Residuals of the structural identities behind the splitting.

    All checks report; none throws.  The derivative round trip, taken
    through ``derivative_of_integral``, is grid-limited at every N:
    ``left_inverse_residual`` covers all nodes except two at each end
    and saturates at a small N-independent boundary-layer value, while
    ``left_inverse_window`` (t in [0.1, 0.9]) decays with the grid at
    order 2.  The remaining checks are algebraic or exact-route and sit
    near rounding error whenever ``ResonanceData.ep_defect`` vanishes.
    """

    identity_residual: float
    obstruction_idem_residual: float
    obstruction_on_image_residual: float
    kernel_fix_residual: float
    left_inverse_residual: float
    left_inverse_window: float


def verify_structure(
    spec: ProblemSpec,
    rdata: ResonanceData,
    samples: int = 10,
    seed: int = 0,
) -> StructureReport:
    """Exercise the splitting identities on random data.

    (a) (I - RR^+)(xi^(2a-1) A - I) = (xi^a - 1)(I - RR^+) in matrix
        algebra; (b) idempotency of the obstruction projection;
    (c) it annihilates the solvable rest of ``split_obstruction``;
    (d) kernel power elements are fixed up to an ep_defect-sized error;
    (e) differentiating the partial inverse of that rest returns it
        (``derivative_of_integral``: one convolution with the composite
        kernel of the two quadrature rules, loose grid tolerance).
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    n = spec.dim
    ngrid = spec.grid_n
    alpha = spec.ord.alpha
    offr = rdata.offrange_proj
    lhs = offr @ (spec.xi ** (2 * alpha - 1) * spec.a_op - np.eye(n))
    rhs = (spec.xi**alpha - 1.0) * offr
    identity_res = float(np.linalg.norm(lhs - rhs, 2))

    idem = 0.0
    on_image = 0.0
    left_inv = 0.0
    left_win = 0.0
    t = np.linspace(0.0, 1.0, ngrid + 1)
    lo, hi = max(2, ngrid // 10), min(ngrid - 1, (9 * ngrid) // 10)  # the window's nodes
    for _ in range(samples):
        # Smooth random data; the derivative round trip is meaningless on
        # node-wise noise.
        c0, c1, c2 = rng.standard_normal((3, n))
        y = GridFn(c0 + np.outer(t, c1) + np.outer(np.sin(3.0 * t), c2))
        q, h_member, member = split_obstruction(y, spec, rdata)
        qq = project_obstruction(q, spec, rdata)
        idem = max(idem, float(np.linalg.norm(qq.coef - q.coef)))
        # Q of the solvable member y - q vanishes.  Its round trip only
        # re-differentiates the I^alpha part: the power part of the partial
        # inverse differentiates to zero exactly.
        on_image = max(on_image, float(np.linalg.norm(rdata.obstruction(h_member))))
        res = np.abs(derivative_of_integral(member, spec.ord) - member.values[1:ngrid])  # row j-1: node j
        left_inv = max(left_inv, float(res[1 : ngrid - 2].max()))
        left_win = max(left_win, float(res[lo - 1 : hi - 1].max()))

    kernel_fix = 0.0
    for _ in range(samples):
        z = rng.standard_normal(rdata.dim_ker)
        z /= np.linalg.norm(z)
        c = rdata.kernel @ z  # unit kernel vector, residual comparable to ep_defect
        q = project_obstruction(PowerFn(c, spec.ord.alpha_m1), spec, rdata)
        kernel_fix = max(kernel_fix, float(np.linalg.norm(q.coef - c)))

    return StructureReport(
        identity_residual=identity_res,
        obstruction_idem_residual=idem,
        obstruction_on_image_residual=on_image,
        kernel_fix_residual=kernel_fix,
        left_inverse_residual=left_inv,
        left_inverse_window=left_win,
    )
