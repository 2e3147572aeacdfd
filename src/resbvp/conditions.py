"""Executable checkers for the existence conditions.

The existence argument needs three kinds of input data: a growth
envelope on the right-hand side, evidence that large-trace elements
leave the solvable range, and a fixed sign of the kernel feedback.  The
first reduces to closed-form margins; the other two quantify over
infinite sets, so this module provides *sampling evidence* only, clearly
labeled as such, deterministic under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fracops import GridFn, Order, cumulative_integral, gamma
from .linops import operator_norm
from .resonance import DomainElement, ProblemSpec, ResonanceData, boundary_functional, evaluate
from .solver import apply_rhs, eval_rhs

__all__ = [
    "GrowthSpec",
    "constant_growth",
    "GrowthSampleReport",
    "MarginsReport",
    "TraceDefectProbe",
    "KernelSignProbe",
    "ConditionsReport",
    "check_growth_bound",
    "check_growth_margins",
    "probe_large_trace_defect",
    "probe_kernel_sign",
    "check_all",
]

ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class GrowthSpec:
    """Envelope || f(t,u,v) || <= lin_u(t)|u| + lin_v(t)|v| + sub_u(t)|u|^exp_u + sub_v(t)|v|^exp_v + offset(t).

    Norms are l2 norms of u, v.  The five L1 norms are supplied by the
    caller so closed-form specifications stay exact.
    """

    lin_u: ScalarFn
    lin_v: ScalarFn
    sub_u: ScalarFn
    sub_v: ScalarFn
    offset: ScalarFn
    l1_lin_u: float
    l1_lin_v: float
    l1_sub_u: float
    l1_sub_v: float
    l1_offset: float
    exp_u: float = 0.0
    exp_v: float = 0.0

    def __post_init__(self) -> None:
        norms = (self.l1_lin_u, self.l1_lin_v, self.l1_sub_u, self.l1_sub_v, self.l1_offset)
        if any(not np.isfinite(v) or v < 0 for v in norms):
            raise ValueError("L1 norms must be finite and nonnegative")
        if not (0.0 <= self.exp_u < 1.0 and 0.0 <= self.exp_v < 1.0):
            raise ValueError("sublinear exponents must lie in [0, 1)")

    def envelope(self, t: float, nu: float, nv: float) -> float:
        return (
            self.lin_u(t) * nu
            + self.lin_v(t) * nv
            + self.sub_u(t) * nu**self.exp_u
            + self.sub_v(t) * nv**self.exp_v
            + self.offset(t)
        )


def constant_growth(
    lin_u: float, lin_v: float, sub_u: float = 0.0, sub_v: float = 0.0, offset: float = 0.0,
    exp_u: float = 0.0, exp_v: float = 0.0,
) -> GrowthSpec:
    """Growth spec with constant coefficient functions (exact L1 norms)."""
    return GrowthSpec(
        lin_u=lambda t: lin_u,
        lin_v=lambda t: lin_v,
        sub_u=lambda t: sub_u,
        sub_v=lambda t: sub_v,
        offset=lambda t: offset,
        l1_lin_u=lin_u,
        l1_lin_v=lin_v,
        l1_sub_u=sub_u,
        l1_sub_v=sub_v,
        l1_offset=offset,
        exp_u=exp_u,
        exp_v=exp_v,
    )


def _random_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    norm = np.linalg.norm(v)
    while norm == 0.0:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
    return v / norm


@dataclass(frozen=True)
class GrowthSampleReport:
    """Sampled pointwise check of the growth envelope.

    ``worst_slack`` is min over samples of envelope - ||f||; negative
    values are violations.  Sampling evidence, not a proof.
    """

    samples: int
    violations: int
    worst_slack: float
    worst_v: np.ndarray

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_growth_bound(
    spec: ProblemSpec,
    growth: GrowthSpec,
    sample_count: int = 10_000,
    seed: int = 0,
) -> GrowthSampleReport:
    """Sample (t, u, v) and test || f(t,u,v) || against the envelope.

    t is uniform on [0,1]; u and v have uniform random directions with
    norms log-uniform in [1e-3, 1e3].  f is evaluated in one call on all
    samples; a wrongly shaped or non-finite value raises
    ``RhsEvaluationError``.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    n = spec.dim
    t = np.empty(sample_count)
    u = np.empty((sample_count, n))
    v = np.empty((sample_count, n))
    envelope = np.empty(sample_count)
    for i in range(sample_count):
        t[i] = ti = rng.uniform()
        u[i] = 10.0 ** rng.uniform(-3, 3) * _random_direction(rng, n)
        v[i] = 10.0 ** rng.uniform(-3, 3) * _random_direction(rng, n)
        envelope[i] = growth.envelope(ti, float(np.linalg.norm(u[i])), float(np.linalg.norm(v[i])))
    f = eval_rhs(spec, t, u, v)
    # Dot-product row norms are bit-equal to np.linalg.norm per row; axis=1 is not.
    slack = envelope - np.sqrt(np.vecdot(f, f))
    worst = int(np.argmin(slack))
    return GrowthSampleReport(
        samples=sample_count,
        violations=int(np.count_nonzero(slack < 0)),
        worst_slack=float(slack[worst]),
        worst_v=v[worst],
    )


@dataclass(frozen=True)
class MarginsReport:
    """Closed-form smallness margins of the linear growth coefficients.

    The scheme's a-priori bound needs

        Gamma(alpha) > (||I - R^+ R|| + 1) * ||lin_u||_L1      (margin_u)
        Gamma(alpha) > (||I - R^+ R|| + 1) * ||lin_v||_L1      (margin_v)

    and the product quotient

        (||I-R^+R||+1)^2 ||lin_u|| ||lin_v||
        ------------------------------------------------ < 1.
        (Gamma(a) - (..)||lin_u||)(Gamma(a) - (..)||lin_v||)
    """

    lhs: float
    rhs_u: float
    rhs_v: float
    quotient: float

    @property
    def ok(self) -> bool:
        return self.lhs > self.rhs_u and self.lhs > self.rhs_v and self.quotient < 1.0


def check_growth_margins(ord: Order, rdata: ResonanceData, growth: GrowthSpec) -> MarginsReport:
    """Pure arithmetic on Gamma(alpha), ||I - R^+ R|| and the two L1 norms."""
    lhs = gamma(ord.alpha)
    knorm = operator_norm(rdata.kernel_proj) + 1.0
    rhs_u = knorm * growth.l1_lin_u
    rhs_v = knorm * growth.l1_lin_v
    denom = (lhs - rhs_u) * (lhs - rhs_v)
    quotient = float("inf") if denom <= 0 else (rhs_u * rhs_v) / denom
    return MarginsReport(lhs=lhs, rhs_u=rhs_u, rhs_v=rhs_v, quotient=quotient)


@dataclass(frozen=True)
class TraceDefectProbe:
    """Sampled evidence that large-trace elements leave the solvable range.

    Elements are built so || D^(alpha-1) x(t) || > trace_level for every
    t; ``min_defect`` > 0 over all samples is the (non-proof) evidence.
    """

    trace_level: float
    samples: int
    min_defect: float
    max_defect: float


def probe_large_trace_defect(
    spec: ProblemSpec,
    rdata: ResonanceData,
    trace_level: float,
    sample_count: int = 100,
    seed: int = 0,
) -> TraceDefectProbe:
    """Sample domain elements with uniformly large trace, measure
    || (I - R R^+) h(N x) || and report the extremes.

    The trace is Gamma(alpha) coef + int_0^t source; picking
    || Gamma(alpha) coef || above trace_level + max_t || int_0^t source ||
    keeps it above the level for all t; the same integral then builds
    the trace that f is evaluated at.
    """
    if trace_level <= 0:
        raise ValueError("trace_level must be positive")
    rng = np.random.default_rng(seed)
    n = spec.dim
    ga = gamma(spec.ord.alpha)
    t = np.linspace(0.0, 1.0, spec.grid_n + 1)
    lo, hi = np.inf, 0.0
    for _ in range(sample_count):
        # Smooth random source: quadratic in t with O(1) coefficients.
        coefs = rng.standard_normal((3, n))
        src = GridFn(coefs[0] + np.outer(t, coefs[1]) + np.outer(t**2, coefs[2]))
        i1 = cumulative_integral(src).values
        margin = float(np.max(np.linalg.norm(i1, axis=1)))
        scale = (trace_level + margin + 1.0) / ga * (1.0 + rng.uniform())
        c = scale * _random_direction(rng, n)
        x = DomainElement(c, src)
        w = GridFn(eval_rhs(spec, t, evaluate(x, spec.ord).values, ga * x.coef + i1))
        defect = float(np.linalg.norm(rdata.offrange_proj @ boundary_functional(w, spec)))
        lo = min(lo, defect)
        hi = max(hi, defect)
    return TraceDefectProbe(
        trace_level=trace_level, samples=sample_count, min_defect=lo, max_defect=hi
    )


@dataclass(frozen=True)
class KernelSignProbe:
    """Sampled sign of the kernel feedback <e, J Q N(e t^(alpha-1))>.

    ``strict_sign`` is 'positive' or 'negative' when all sampled inner
    products share a strict sign, else None.  Sampling evidence only.
    """

    kernel_level: float
    samples: int
    min_inner: float
    max_inner: float

    @property
    def strict_sign(self) -> str | None:
        if self.min_inner > 0.0:
            return "positive"
        if self.max_inner < 0.0:
            return "negative"
        return None


def probe_kernel_sign(
    spec: ProblemSpec,
    rdata: ResonanceData,
    kernel_level: float,
    sample_count: int = 100,
    seed: int = 0,
) -> KernelSignProbe:
    """Sample e in ker R with ||e|| > kernel_level, form x = e t^(alpha-1),
    and record <e, J Q N x> extremes.

    Norms are log-uniform in (kernel_level, 100 * kernel_level].
    """
    if kernel_level <= 0:
        raise ValueError("kernel_level must be positive")
    if rdata.dim_ker < 1:
        raise ValueError("kernel sign probe needs a nontrivial kernel")
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    for _ in range(sample_count):
        z = _random_direction(rng, rdata.dim_ker)
        e = rdata.kernel @ z * (kernel_level * 10.0 ** rng.uniform(0.0, 2.0))
        x = DomainElement(e, GridFn.zeros(spec.grid_n, spec.dim))
        w = apply_rhs(spec, x)
        inner = float(e @ (rdata.lift @ rdata.obstruction(boundary_functional(w, spec))))
        lo = min(lo, inner)
        hi = max(hi, inner)
    return KernelSignProbe(
        kernel_level=kernel_level, samples=sample_count, min_inner=lo, max_inner=hi
    )


@dataclass(frozen=True)
class ConditionsReport:
    """Aggregate of the margin arithmetic and the sampling probes."""

    margins: MarginsReport
    growth_samples: GrowthSampleReport
    trace_probe: TraceDefectProbe
    kernel_probe: KernelSignProbe


def check_all(
    spec: ProblemSpec,
    rdata: ResonanceData,
    growth: GrowthSpec,
    trace_level: float = 1.0,
    kernel_level: float = 1.0,
    sample_count: int = 100,
    growth_sample_count: int = 2000,
    seed: int = 0,
) -> ConditionsReport:
    """Run the margin arithmetic plus all three sampling probes."""
    margins = check_growth_margins(spec.ord, rdata, growth)
    growth_rep = check_growth_bound(spec, growth, growth_sample_count, seed)
    trace = probe_large_trace_defect(spec, rdata, trace_level, sample_count, seed + 1)
    kern = probe_kernel_sign(spec, rdata, kernel_level, sample_count, seed + 2)
    return ConditionsReport(margins=margins, growth_samples=growth_rep, trace_probe=trace, kernel_probe=kern)
