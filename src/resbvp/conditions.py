"""Executable checkers for the existence conditions.

The existence argument needs three kinds of input data: a growth
envelope on the right-hand side, evidence that large-trace elements
leave the solvable range, and a fixed sign of the kernel feedback.  The
first reduces to closed-form margins; the other two quantify over
infinite sets, so this module provides *sampling evidence* only, clearly
labeled as such, deterministic under a seed.  Probe elements are exact
sums of powers: both probes sample them through ``resonance.evaluate`` and
take h(N x) of each stacked chunk in one call (``rhs_functionals``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fracops import Order, gamma, power_rule
from .resonance import ProblemSpec, ResonanceData, evaluate
from .solver import eval_rhs, rhs_functionals

__all__ = [
    "GrowthSpec",
    "GrowthSampleReport",
    "MarginsReport",
    "TraceDefectProbe",
    "KernelSignProbe",
    "check_growth_bound",
    "check_growth_margins",
    "apriori_bound",
    "probe_large_trace_defect",
    "probe_kernel_sign",
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


def _unit_rows(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    """The rows of the (m, n) standard normal draw d scaled to unit length; every sampler's normalizer.

    A zero row is first drawn again from rng, in place, until none is left.
    """
    # Dot-product row norms are bit-equal to np.linalg.norm per row; axis=1 is not.
    norms = np.sqrt(np.vecdot(d, d))
    while (zero := norms == 0.0).any():
        d[zero] = rng.standard_normal((np.count_nonzero(zero), d.shape[1]))
        norms[zero] = np.sqrt(np.vecdot(d[zero], d[zero]))
    return d / norms[:, None]


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
    norms log-uniform in [1e-3, 1e3].  Each is drawn as one block under
    ``seed``, in the order t, |u|, u's directions, |v|, v's directions.
    f and the envelope are evaluated once on all samples; a wrongly
    shaped or non-finite value of f raises ``RhsEvaluationError``.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    m, n = sample_count, spec.dim
    t = rng.uniform(size=m)
    u = 10.0 ** rng.uniform(-3, 3, (m, 1)) * _unit_rows(rng, rng.standard_normal((m, n)))
    v = 10.0 ** rng.uniform(-3, 3, (m, 1)) * _unit_rows(rng, rng.standard_normal((m, n)))
    f = eval_rhs(spec, t, u, v)
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

    The scheme's a-priori bound needs, with ||I - R^+ R|| + 1 = 2 (at resonance
    I - R^+ R is the orthogonal projector onto ker R != {0}, so its norm is 1),

        Gamma(alpha) > 2 * ||lin_u||_L1      (margin_u)
        Gamma(alpha) > 2 * ||lin_v||_L1      (margin_v)

    and the product quotient

              4 ||lin_u|| ||lin_v||
        ---------------------------------------------- < 1.
        (Gamma(a) - 2||lin_u||)(Gamma(a) - 2||lin_v||)

    In ``apriori_bound``'s terms, lam2 = rhs_v / (lhs - rhs_u) and
    mu1 = rhs_u / (lhs - rhs_v), so ``quotient`` = lam2 * mu1 and ``ok``
    is the bound's certification test.
    """

    lhs: float
    rhs_u: float
    rhs_v: float
    quotient: float

    @property
    def ok(self) -> bool:
        return self.lhs > self.rhs_u and self.lhs > self.rhs_v and self.quotient < 1.0


def check_growth_margins(ord: Order, growth: GrowthSpec) -> MarginsReport:
    """Pure arithmetic on Gamma(alpha) and 2 lin_u, 2 lin_v; 2 is ||I - R^+ R|| + 1 at resonance.

    The coefficients are constant on [0, 1], so each is its own L1 norm.
    """
    lhs = gamma(ord.alpha)
    rhs_u = 2.0 * growth.lin_u
    rhs_v = 2.0 * growth.lin_v
    denom = (lhs - rhs_u) * (lhs - rhs_v)
    quotient = float("inf") if denom <= 0 else (rhs_u * rhs_v) / denom
    return MarginsReport(lhs=lhs, rhs_u=rhs_u, rhs_v=rhs_v, quotient=quotient)


def apriori_bound(lam: tuple[float, float, float], mu: tuple[float, float, float]) -> tuple[float, float]:
    """Least solution of the linear inequality pair behind the a-priori estimate

        z1 <= lam1 + lam2 z2 + lam3,
        z2 <= mu1 z1 + mu2 + mu3,

    bounded iff lam2 * mu1 < 1, with the bound in closed form:
    z1 = (lam1 + lam3 + lam2 (mu2 + mu3)) / (1 - lam2 mu1) and
    z2 = mu1 z1 + mu2 + mu3.  The margins give lam2 = rhs_v / (lhs - rhs_u) and
    mu1 = rhs_u / (lhs - rhs_v) with rhs = 2 lin (the orthogonal kernel projector has norm 1),
    so lam2 * mu1 is ``MarginsReport.quotient`` and ``margins satisfied`` certifies the bound.
    """
    l1, l2, l3 = lam
    m1, m2, m3 = mu
    if not all(np.isfinite(c) and c >= 0 for c in (l1, l2, l3, m1, m2, m3)):
        raise ValueError("all coefficients must be finite and nonnegative")
    if l2 * m1 >= 1.0:
        raise ValueError(f"no bound certified: lam2 * mu1 = {l2 * m1:g} >= 1")
    z1 = (l1 + l3 + l2 * (m2 + m3)) / (1.0 - l2 * m1)
    return z1, m1 * z1 + m2 + m3


@dataclass(frozen=True)
class TraceDefectProbe:
    """Sampled evidence that large-trace elements leave the solvable range.

    Elements are built so || D^(alpha-1) x(t) || > trace_level for every
    t; ``min_defect`` > 0 over all samples is the (non-proof) evidence.
    """

    trace_level: float
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

    Each sample draws a quadratic source y (O(1) coefficients), a uniform
    number and a raw normal direction; all directions are scaled to unit
    length at once after the loop (``_unit_rows``, which draws a zero row
    again there).  I^alpha y and int_0^t y are sums of powers,
    sampled exactly, and ``evaluate`` forms x and its trace from them; a
    || Gamma(alpha) coef || above trace_level + max_t || int_0^t y || keeps
    the trace above the level.  h(N x) comes from ``rhs_functionals``.
    """
    if not (np.isfinite(trace_level) and trace_level > 0):
        raise ValueError(f"trace_level must be finite and positive, got {trace_level}")
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    n, alpha, ga = spec.dim, spec.ord.alpha, gamma(spec.ord.alpha)
    coefs, ups, dirs = np.empty((sample_count, 3, n)), np.empty(sample_count), np.empty((sample_count, n))
    for i in range(sample_count):
        coefs[i], ups[i], dirs[i] = rng.standard_normal((3, n)), rng.uniform(), rng.standard_normal(n)
    dirs = _unit_rows(rng, dirs)
    t = np.linspace(0.0, 1.0, spec.grid_n + 1)[:, None]
    # I^alpha t^k = power_rule(k, alpha) t^(k+alpha) and int_0^t s^(k-1) ds = t^k / k.
    rules = np.array([power_rule(k, alpha) for k in range(3)])
    source_powers, integral_powers = rules * t ** (alpha + np.arange(3)), t ** np.arange(1, 4) / np.arange(1, 4)

    def sample(s: slice) -> tuple[np.ndarray, np.ndarray]:
        integral = integral_powers @ coefs[s]
        margin = np.sqrt(np.vecdot(integral, integral)).max(axis=1)
        c = ((trace_level + margin + 1.0) / ga * (1.0 + ups[s]))[:, None] * dirs[s]
        return evaluate(source_powers @ coefs[s], integral, c[:, None], spec.ord)

    defects = np.linalg.norm(rhs_functionals(spec, sample_count, sample) @ rdata.offrange_proj.T, axis=1)
    return TraceDefectProbe(trace_level, float(defects.min()), float(defects.max()))


@dataclass(frozen=True)
class KernelSignProbe:
    """Sampled sign of the kernel feedback <e, J Q N(e t^(alpha-1))>.

    ``strict_sign`` is 'positive' or 'negative' when all sampled inner
    products share a strict sign, else None.  Sampling evidence only.
    """

    kernel_level: float
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

    Each sample draws a raw normal kernel coordinate z and a norm,
    log-uniform in [kernel_level, 100 * kernel_level); the z are scaled to
    unit length at once after the loop (``_unit_rows``, which draws a zero
    row again there), and e = K z * norm is one matvec per sample.  x and
    its trace Gamma(alpha) e are sampled by ``evaluate`` as one stack over
    a zero source.
    """
    if not (np.isfinite(kernel_level) and kernel_level > 0):
        raise ValueError(f"kernel_level must be finite and positive, got {kernel_level}")
    if rdata.dim_ker < 1:
        raise ValueError("kernel sign probe needs a nontrivial kernel")
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    zs, scales = np.empty((sample_count, rdata.dim_ker)), np.empty(sample_count)
    for i in range(sample_count):
        zs[i], scales[i] = rng.standard_normal(rdata.dim_ker), kernel_level * 10.0 ** rng.uniform(0.0, 2.0)
    es = np.empty((sample_count, spec.dim))
    for e, z, scale in zip(es, _unit_rows(rng, zs), scales):
        e[:] = rdata.kernel @ z * scale
    zero = np.zeros((spec.grid_n + 1, spec.dim))
    h = rhs_functionals(spec, sample_count, lambda s: evaluate(zero, zero, es[s, None], spec.ord))
    inner = np.vecdot(es, rdata.obstruction(h) @ rdata.lift.T)
    return KernelSignProbe(kernel_level, float(inner.min()), float(inner.max()))
