"""Riemann-Liouville fractional calculus on uniform grids.

The discrete carrier is a vector-valued grid function sampled at the
nodes t_j = j/N of [0, 1].  The fractional integral

    (I^a y)(t) = (1/Gamma(a)) * int_0^t (t - s)^(a-1) y(s) ds

is evaluated with product-trapezoidal quadrature: y is replaced by its
piecewise-linear interpolant and the moments of the kernel (t - s)^(a-1)
are integrated in closed form.  The rule has fixed weights, is exact on
piecewise-linear data, and handles the weak endpoint singularity without
graded meshes.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Order",
    "GridFn",
    "PowerFn",
    "gamma",
    "power_rule",
    "frac_integral",
    "frac_integral_power",
    "frac_derivative",
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
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridFn:
    """Samples of an R^n-valued function at the uniform nodes j/N.

    ``values`` has shape (N+1, n) with N >= 2 subintervals.  Instances
    are immutable; the sample array is copied and marked read-only.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ValueError(f"grid values must be 2-d, got shape {vals.shape}")
        if vals.shape[0] < 3:
            raise ValueError("grid needs at least N = 2 subintervals")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

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
    """Exact representation of t |-> coef * t^exponent, coef in R^n."""

    coef: np.ndarray
    exponent: float

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coef, dtype=float))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("power coefficient must be a finite vector")
        if not math.isfinite(self.exponent):
            raise ValueError("power exponent must be finite")
        object.__setattr__(self, "coef", _freeze(c))

    @property
    def dim(self) -> int:
        return self.coef.shape[0]

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        """Evaluate on given nodes; refuses singular powers at t = 0."""
        t = np.asarray(nodes, dtype=float)
        if self.exponent < 0 and np.any(t == 0.0):
            raise ValueError("cannot sample a negative power at t = 0")
        return np.outer(t**self.exponent, self.coef)


@lru_cache(maxsize=64)
def _product_trapezoid_weights(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Convolution kernel b and first-node corrections w0 for I^a.

    At node j the rule reads
        (h^a / Gamma(a+2)) * [ sum_{k=1}^{j} b_{j-k} y_k + w0_j y_0 ],
    b_0 = 1,  b_m = (m+1)^(a+1) - 2 m^(a+1) + (m-1)^(a+1),
    w0_j = (j-1)^(a+1) - (j-1-a) j^a.
    """
    m = np.arange(n + 1, dtype=float)
    b = np.empty(n + 1)
    b[0] = 1.0
    b[1:] = (m[1:] + 1.0) ** (a + 1.0) + (m[1:] - 1.0) ** (a + 1.0) - 2.0 * m[1:] ** (a + 1.0)
    w0 = np.zeros(n + 1)
    j = m[1:]
    w0[1:] = (j - 1.0) ** (a + 1.0) - (j - 1.0 - a) * j ** a
    b.setflags(write=False)
    w0.setflags(write=False)
    return b, w0


def frac_integral(y: GridFn, a: float) -> GridFn:
    """Product-trapezoidal fractional integral I^a y on the grid of y.

    Node j approximates (1/Gamma(a)) int_0^{t_j} (t_j - s)^(a-1) y(s) ds
    with y replaced by its piecewise-linear interpolant; node 0 is zero.
    """
    if not (0.0 < a <= 2.0):
        raise ValueError(f"integration order must lie in (0, 2], got {a}")
    n = y.n_intervals
    if not y.values.any():
        return GridFn.zeros(n, y.dim)
    b, w0 = _product_trapezoid_weights(a, n)
    out = np.empty_like(y.values)
    y0 = y.values[0]
    for c in range(y.dim):
        conv = np.convolve(b, y.values[:, c])[: n + 1]
        out[:, c] = conv - b * y0[c] + w0 * y0[c]
    out[0, :] = 0.0
    scale = y.step ** a / gamma(a + 2.0)
    return GridFn(scale * out)


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
    verification; solver internals never differentiate numerically.
    """
    n = x.n_intervals
    if n < 4:
        raise ValueError(f"frac_derivative needs at least N = 4 subintervals, got {n}")
    if ord.two_m_alpha == 0.0:
        iv = x.values
    else:
        iv = frac_integral(x, ord.two_m_alpha).values
    h = x.step
    d = np.empty_like(iv)
    d[1:n] = iv[0 : n - 1] - 2.0 * iv[1:n] + iv[2 : n + 1]
    d[0] = 2.0 * iv[0] - 5.0 * iv[1] + 4.0 * iv[2] - iv[3]
    d[n] = 2.0 * iv[n] - 5.0 * iv[n - 1] + 4.0 * iv[n - 2] - iv[n - 3]
    return GridFn(d / h**2)


def cumulative_integral(y: GridFn) -> GridFn:
    """Cumulative trapezoidal integral int_0^{t_j} y(s) ds; node 0 is zero."""
    out = np.zeros_like(y.values)
    avg = 0.5 * (y.values[1:] + y.values[:-1])
    out[1:] = np.cumsum(avg, axis=0) * y.step
    return GridFn(out)
