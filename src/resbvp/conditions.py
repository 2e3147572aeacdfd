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

import numpy as np

from .fracops import GridFn, Order, cumulative_integral, gamma
from .linops import operator_norm
from .resonance import DomainElement, ProblemSpec, ResonanceData, boundary_functional, evaluate
from .solver import apply_rhs, eval_rhs

__all__ = [
    "GrowthSpec",
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


@dataclass(frozen=True)
class GrowthSpec:
    """Envelope || f(t,u,v) || <= lin_u ||u|| + lin_v ||v|| + offset, three constants.

    Norms are l2 norms of u, v.  The margins read lin_u and lin_v, the
    sampler reads the whole envelope: both see the same three numbers.
    """

    lin_u: float
    lin_v: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if any(not np.isfinite(v) or v < 0 for v in (self.lin_u, self.lin_v, self.offset)):
            raise ValueError("growth coefficients must be finite and nonnegative")

    def envelope(self, nu: np.ndarray, nv: np.ndarray) -> np.ndarray:
        """The envelope at the norms nu = ||u||, nv = ||v|| (arrays or floats)."""
        return self.lin_u * nu + self.lin_v * nv + self.offset


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
    sample_count: int,
    seed: int = 0,
) -> GrowthSampleReport:
    """Sample (t, u, v) and test || f(t,u,v) || against the envelope.

    t is uniform on [0,1]; u and v have uniform random directions with
    norms log-uniform in [1e-3, 1e3].  f and the envelope are evaluated
    once on all samples; a wrongly shaped or non-finite value of f raises
    ``RhsEvaluationError``.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    n = spec.dim
    t = np.empty(sample_count)
    u = np.empty((sample_count, n))
    v = np.empty((sample_count, n))
    for i in range(sample_count):
        t[i] = rng.uniform()
        u[i] = 10.0 ** rng.uniform(-3, 3) * _random_direction(rng, n)
        v[i] = 10.0 ** rng.uniform(-3, 3) * _random_direction(rng, n)
    f = eval_rhs(spec, t, u, v)
    # Dot-product row norms are bit-equal to np.linalg.norm per row; axis=1 is not.
    envelope = growth.envelope(np.sqrt(np.vecdot(u, u)), np.sqrt(np.vecdot(v, v)))
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
    """Pure arithmetic on Gamma(alpha), ||I - R^+ R|| and lin_u, lin_v.

    The coefficients are constant on [0, 1], so each is its own L1 norm.
    """
    lhs = gamma(ord.alpha)
    knorm = operator_norm(rdata.kernel_proj) + 1.0
    rhs_u = knorm * growth.lin_u
    rhs_v = knorm * growth.lin_v
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


def check_all(spec: ProblemSpec, rdata: ResonanceData, growth: GrowthSpec, seed: int = 0) -> ConditionsReport:
    """Run the margin arithmetic plus all three sampling probes.

    The margins and the growth sampler read the same envelope; the growth
    sampler draws 2000 points, the trace and kernel probes 100 each at
    level 1.
    """
    margins = check_growth_margins(spec.ord, rdata, growth)
    growth_rep = check_growth_bound(spec, growth, 2000, seed)
    trace = probe_large_trace_defect(spec, rdata, 1.0, 100, seed + 1)
    kern = probe_kernel_sign(spec, rdata, 1.0, 100, seed + 2)
    return ConditionsReport(margins=margins, growth_samples=growth_rep, trace_probe=trace, kernel_probe=kern)
