"""Riemann-Liouville fractional calculus on uniform grids.

The discrete carrier is a vector-valued grid function sampled at the
nodes t_j = j/N of [0, 1].  The fractional integral

    (I^a y)(t) = (1/Gamma(a)) * int_0^t (t - s)^(a-1) y(s) ds

is evaluated with product-trapezoidal quadrature: y is replaced by its
piecewise-linear interpolant and the moments of the kernel (t - s)^(a-1)
are integrated in closed form.  The rule has fixed weights, is exact on
piecewise-linear data, and handles the weak endpoint singularity without
graded meshes.

Its sums at all nodes form one causal convolution per component, which
``frac_integral`` computes as a ``numpy.fft`` real convolution in
O(N log N) for each component with data on y_1..y_N; a component that
is zero there, such as a block tail of the section4 example from the
zero start, convolves to zero and is skipped.  The spectrum of the
weights is cached with the weights per (a, N).  The rule is a closed
form at any point, not only at nodes: ``frac_integral_at`` reads it at
real points of a stack of sample arrays as O(N) products, which is all
the boundary functional needs (t = xi and 1).  The weights themselves
are second and first differences of powers; from m = 2 on they are
binomial series in 1/m whose cancelling leading terms drop out
analytically, so they keep full relative precision where the direct
differences lose about m^2 of it.

``derivative_of_integral`` reads D^alpha I^alpha y as one convolution
per component with the two rules' composite kernel, in which the h^-2
of ``frac_derivative``'s second difference cancels exactly.

Power functions c * t^beta are never sampled; they travel as exact
``PowerFn`` values and are integrated through the Euler beta integral
(``power_rule``).  In particular integrable singularities such as
t^(-1/2) must stay on the exact path - a piecewise-linear interpolant
cannot represent them.

Everything here is a pure function of immutable values and safe to use
concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Order",
    "GridFn",
    "PowerFn",
    "gamma",
    "power_rule",
    "frac_integral",
    "frac_integral_at",
    "frac_integral_power",
    "frac_derivative",
    "derivative_of_integral",
    "cumulative_integral",
]


def gamma(x: float) -> float:
    """Gamma function for positive real arguments.

    Delegates to the C library implementation, which is well within the
    1e-13 relative accuracy this package relies on over [0.1, 50].
    """
    if not x > 0:
        raise ValueError(f"gamma requires a positive argument, got {x}")
    return math.gamma(x)


def power_rule(beta: float, a: float) -> float:
    """Coefficient of the exact fractional integral of a power.

    I^a [t^beta] = (Gamma(beta+1) / Gamma(beta+a+1)) * t^(beta+a),
    valid for beta > -1 (the integral diverges otherwise) and a > 0.
    Returns the ratio Gamma(beta+1)/Gamma(beta+a+1).
    """
    if not beta > -1:
        raise ValueError(f"power exponent must exceed -1, got beta={beta}")
    if not a > 0:
        raise ValueError(f"integration order must be positive, got {a}")
    return gamma(beta + 1.0) / gamma(beta + a + 1.0)


@dataclass(frozen=True)
class Order:
    """Fractional differentiation order alpha in (1, 2]."""

    alpha: float

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError(f"order must lie in (1, 2], got {self.alpha}")

    @property
    def alpha_m1(self) -> float:
        """alpha - 1, the kernel exponent, in (0, 1]."""
        return self.alpha - 1.0

    @property
    def two_m_alpha(self) -> float:
        """2 - alpha, the complementary integration order, in [0, 1)."""
        return 2.0 - self.alpha


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr itself, marked read-only; copied only where asarray must convert it."""
    out = np.asarray(arr, dtype=float)
    out.setflags(write=False)
    return out


def _check_count(value: object, name: str) -> None:
    """Raise ValueError where ``operator.index`` refuses value; numpy integers pass."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class GridFn:
    """Samples of an R^n-valued function at the uniform nodes j/N.

    ``values`` has shape (N+1, n) with N >= 2 subintervals.  Instances
    are immutable; the sample array is kept and marked read-only, so a
    float64 array given here must not be written again.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _freeze(self.values)  # before the reshape, so a 1-d array given is read-only too
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ValueError(f"grid values must be 2-d, got shape {vals.shape}")
        if vals.shape[0] < 3:
            raise ValueError("grid needs at least N = 2 subintervals")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n_intervals(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def step(self) -> float:
        return 1.0 / self.n_intervals

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.shape[0])

    @classmethod
    def zeros(cls, n_intervals: int, dim: int) -> "GridFn":
        return cls(np.zeros((n_intervals + 1, dim)))


@dataclass(frozen=True)
class PowerFn:
    """Exact representation of t |-> coef * t^exponent, coef in R^n.

    The coefficient array is kept and marked read-only, like ``GridFn``'s.
    """

    coef: np.ndarray
    exponent: float

    def __post_init__(self) -> None:
        c = np.atleast_1d(_freeze(self.coef))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("power coefficient must be a finite vector")
        if not math.isfinite(self.exponent):
            raise ValueError("power exponent must be finite")
        object.__setattr__(self, "coef", c)

    @property
    def dim(self) -> int:
        return self.coef.shape[0]

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        """Evaluate on given nodes; refuses singular powers at t = 0."""
        t = np.asarray(nodes, dtype=float)
        if self.exponent < 0 and np.any(t == 0.0):
            raise ValueError("cannot sample a negative power at t = 0")
        return np.outer(t**self.exponent, self.coef)


def _trapezoid_weights(a: float, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights b_m and w0_m of ``_grid_weights`` at real m > -1.

    With p = a + 1, below m = 2 they are its direct differences, powers
    of negative numbers read as 0, and b_1 = 2 expm1(a ln 2).  From m = 2
    on both are m^p times a binomial series in 1/m whose leading terms
    cancel analytically:
        b_m  = 2 m^p sum_{k>=1} C(p, 2k) m^(-2k),
        w0_m = m^p sum_{k>=2} (-1)^k C(p, k) m^(-k),
    so no difference of nearly equal powers is formed; the direct forms
    lose about m^2 of relative precision.  Each series is summed by
    Horner's rule in 1/m, ``np.polyval`` of its coefficients highest power first.
    """
    p = a + 1.0
    m = np.asarray(m, dtype=float)
    b, w0 = np.empty_like(m), np.empty_like(m)
    low = m[m < 2]
    b[m < 2] = (low + 1.0) ** p - 2.0 * np.maximum(low, 0.0) ** p + np.maximum(low - 1.0, 0.0) ** p
    w0[m < 2] = np.maximum(low - 1.0, 0.0) ** p - (low - 1.0 - a) * np.maximum(low, 0.0) ** a
    b[m == 1] = 2.0 * np.expm1(a * math.log(2.0))
    # The k-th series term at m is below m^(-k) times the first, so 64
    # terms reach 2^-64 from m = 2 on and 16 terms reach 16^-16 from m = 16.
    for sel, terms in (((m >= 2) & (m < 16), 64), (m >= 16, 16)):
        k = np.arange(terms + 1)
        binom = np.cumprod(np.concatenate(([1.0], (p - k[:-1]) / k[1:])))
        mp, z = m[sel] ** p, 1.0 / m[sel]
        b[sel] = mp * np.polyval(np.where((k % 2 == 0) & (k > 0), 2.0 * binom, 0.0)[::-1], z)
        w0[sel] = mp * np.polyval(np.where(k >= 2, (-1.0) ** k * binom, 0.0)[::-1], z)
    return b, w0


def _fft_size(n: int) -> int:
    """Smallest power of two that holds the linear convolution of two
    length-n sequences without wrap-around: exactly 2n when n is a power
    of two."""
    return 1 << (2 * n - 1).bit_length()


@lru_cache(maxsize=64)
def _grid_weights(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Convolution kernel b and first-node corrections w0 for I^a on n subintervals.

    At node j the rule reads
        (h^a / Gamma(a+2)) * [ sum_{k=1}^{j} b_{j-k} y_k + w0_j y_0 ],
    b_0 = 1,  b_m = (m+1)^(a+1) - 2 m^(a+1) + (m-1)^(a+1),
    w0_j = (j-1)^(a+1) - (j-1-a) j^a,
    evaluated by ``_trapezoid_weights``.  Cached apart from the spectrum,
    so that reading the rule at a node transforms nothing.
    """
    b, w0 = _trapezoid_weights(a, np.arange(n + 1))
    for arr in (b, w0):
        arr.setflags(write=False)
    return b, w0


@lru_cache(maxsize=64)
def _product_trapezoid_weights(a: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_grid_weights`` b and w0, and the spectrum of b: its rfft of
    b_0..b_(n-1) at length ``_fft_size(n)``."""
    b, w0 = _grid_weights(a, n)
    b_hat = np.fft.rfft(b[:n], _fft_size(n))
    b_hat.setflags(write=False)
    return b, w0, b_hat


def _check_integration_order(a: float) -> None:
    if not (0.0 < a <= 2.0):
        raise ValueError(f"integration order must lie in (0, 2], got {a}")


def frac_integral(y: GridFn, a: float) -> GridFn:
    """Product-trapezoidal fractional integral I^a y on the grid of y.

    Node j approximates (1/Gamma(a)) int_0^{t_j} (t_j - s)^(a-1) y(s) ds
    with y replaced by its piecewise-linear interpolant; node 0 is zero.
    The sums over y_1..y_j at all nodes are one FFT convolution per
    component with data on y_1..y_N, with the cached spectrum of b; a
    component that is zero there convolves to zero and is skipped.
    """
    _check_integration_order(a)
    n = y.n_intervals
    _, w0, b_hat = _product_trapezoid_weights(a, n)
    size = _fft_size(n)
    out = np.zeros_like(y.values)
    y0 = y.values[0]
    # Per column, not one batched rfft: that holds all column spectra at once (+6% RSS at N=16384).
    # The zero test is per column too: an any(axis=0) over the array costs 5x more where no column is zero.
    # The w0 y_0 term is added to every column, so a -0.0 product on a zero column still reads +0.0.
    # One spectrum and one inverse buffer serve all columns: fewer large blocks for glibc to map and trim.
    spectrum, inverse = np.empty(size // 2 + 1, dtype=complex), np.empty(size)
    for c in range(y.dim):
        if y.values[1:, c].any():
            np.multiply(np.fft.rfft(y.values[1:, c], size, out=spectrum), b_hat, out=spectrum)
            out[1:, c] = np.fft.irfft(spectrum, size, out=inverse)[:n]
        out[1:, c] += w0[1:] * y0[c]
    out *= y.step ** a / gamma(a + 2.0)
    return GridFn(out)


@lru_cache(maxsize=64)
def _point_weights(a: float, tau: float) -> tuple[np.ndarray, float]:
    """Weights at the point tau: of y_1..y_ceil(tau), a reversed view of b at m = tau - k, and of y_0."""
    c = math.ceil(tau)
    b, w0 = _trapezoid_weights(a, tau - np.arange(c, -1, -1))
    b[0] = (tau - (c - 1)) ** (a + 1.0)  # (m + 1)^p, exact where m = tau - c rounds (tau < 1/2)
    b.setflags(write=False)
    return b[:c][::-1], float(w0[c])


def _weights_at(a: float, n: int, tau: float) -> tuple[np.ndarray, float]:
    """``_point_weights(a, tau)``, read off ``_grid_weights`` where tau is a node."""
    if not tau.is_integer():
        return _point_weights(a, tau)
    b, w0 = _grid_weights(a, n)
    return b[: int(tau)][::-1], float(w0[int(tau)])


def frac_integral_at(v: np.ndarray, a: float, points: Sequence[float]) -> np.ndarray:
    """The product-trapezoid I^a y at real points tau in [0, N], t = tau/N.

    v holds y's (..., N+1, dim) node samples, over any leading stack axes.
    The rule integrates y's linear interpolant exactly at any tau:
        (h^a / Gamma(a+2)) * [ sum_{k=1}^{ceil(tau)} b_(tau-k) y_k + w0_tau y_0 ],
    so a node j reads row j of ``frac_integral(y, a)``.  O(N) per point and
    component; a node reads the grid's cached weights, any other tau its
    own, cached per (a, tau).  Shape (..., len(points), dim).
    """
    _check_integration_order(a)
    n = v.shape[-2] - 1
    if any(not 0 <= tau <= n for tau in points):
        raise ValueError(f"points must lie in [0, {n}], got {list(points)}")
    weights = [_weights_at(a, n, float(tau)) for tau in points]
    rows = [b @ v[..., 1 : b.shape[0] + 1, :] + w0 * v[..., 0, :] for b, w0 in weights]
    scale = (1.0 / n) ** a / gamma(a + 2.0)
    return scale * np.stack(rows, axis=-2)


def frac_integral_power(p: PowerFn, a: float) -> PowerFn:
    """Exact fractional integral of a power function.

    I^a [c t^beta] = c * power_rule(beta, a) * t^(beta+a); no grid error.
    """
    return PowerFn(p.coef * power_rule(p.exponent, a), p.exponent + a)


def frac_derivative(x: GridFn, ord: Order) -> GridFn:
    """Discrete Riemann-Liouville derivative of order alpha in (1, 2].

    Computed as the second difference quotient of I^(2-alpha) x, the
    definition D^alpha = (d/dt)^2 I^(2-alpha) taken literally on the
    grid.  The two endpoint nodes use one-sided, lower-accuracy stencils;
    callers that need full accuracy exclude them.  Intended for residual
    verification: ``residuals`` is its only production caller, as the
    round trip of ``frac_integral`` is ``derivative_of_integral``.
    Solver internals never differentiate numerically.
    """
    n = x.n_intervals
    if n < 4:
        raise ValueError(f"frac_derivative needs at least N = 4 subintervals, got {n}")
    if ord.two_m_alpha == 0.0:
        iv = x.values
    else:
        iv = frac_integral(x, ord.two_m_alpha).values
    d = np.empty_like(iv)
    d[1:n] = iv[0 : n - 1] - 2.0 * iv[1:n] + iv[2 : n + 1]
    d[0] = 2.0 * iv[0] - 5.0 * iv[1] + 4.0 * iv[2] - iv[3]
    d[n] = 2.0 * iv[n] - 5.0 * iv[n - 1] + 4.0 * iv[n - 2] - iv[n - 3]
    d /= x.step**2
    return GridFn(d)


@lru_cache(maxsize=64)
def _roundtrip_weights(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of kappa and the vector g of ``derivative_of_integral``, both
    divided by Gamma(alpha+2) Gamma(4-alpha).

    The second differences of b_alpha and of W_alpha = sum_(k>=1) w0_k z^k
    are taken first: they decay like m^(alpha-3), so the products with
    b_(2-alpha) keep the precision a difference of the products would lose.
    """
    b, w0 = _grid_weights(alpha, n)
    size = _fft_size(n)
    diffs = np.diff(np.stack((b, np.append(0.0, w0[1:]))), 2, prepend=np.zeros((2, 2)))
    spectra = np.fft.rfft(diffs, size) * _product_trapezoid_weights(2.0 - alpha, n)[2]
    kappa, g = np.fft.irfft(spectra, size)[:, : n + 1] / (gamma(alpha + 2.0) * gamma(4.0 - alpha))
    kappa_hat = np.fft.rfft(kappa[:n], size)
    for arr in (kappa_hat, g):
        arr.setflags(write=False)
    return kappa_hat, g


def derivative_of_integral(y: GridFn, ord: Order) -> np.ndarray:
    """Rows 1..N-1 of ``frac_derivative(frac_integral(y, alpha), ord)``, shape (N-1, dim).

    The two product-trapezoid rules compose through their generating
    functions, and the h^alpha h^(2-alpha) of the rules cancels the
    second difference's h^-2 exactly:
        d_j = [(kappa * y'')_j + y_0 g_(j+1)] / (Gamma(alpha+2) Gamma(4-alpha)),
    with y'' = (y_1..y_N), kappa the first N coefficients of
    (1-z)^2 B_alpha(z) B_(2-alpha)(z) and g those of (1-z)^2 W_alpha(z)
    B_(2-alpha)(z), B_a the generating function of b for I^a.  One FFT
    convolution per component, with kappa's spectrum and g cached per
    (alpha, N); no rounding passes through a division by h^2.
    """
    n = y.n_intervals
    kappa_hat, g = _roundtrip_weights(ord.alpha, n)
    size = _fft_size(n)
    out = np.outer(g[2:], y.values[0])
    for c in range(y.dim):
        out[:, c] += np.fft.irfft(np.fft.rfft(y.values[1:, c], size) * kappa_hat, size)[1:n]
    return out


def cumulative_integral(y: GridFn) -> GridFn:
    """Cumulative trapezoidal integral int_0^{t_j} y(s) ds; node 0 is zero.

    A component of only +0.0 (its bits all zero) integrates to +0.0 and is
    skipped; a component holding -0.0 is summed, as its integral is -0.0.
    """
    v = y.values
    # A nonzero last node settles a dense column at once; only the others are scanned.
    live = [c for c in range(y.dim) if v[-1, c] != 0.0 or v[:, c].view(np.int64).any()]
    cols = slice(None) if len(live) == y.dim else live
    out = np.zeros_like(v)
    if live:
        out[1:, cols] = np.cumsum(0.5 * (v[1:, cols] + v[:-1, cols]), axis=0) * y.step
    return GridFn(out)
