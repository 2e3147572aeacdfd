import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import element_samples, make_resonant_spec
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resbvp import (
    DomainElement,
    GridFn,
    GrowthSpec,
    Order,
    ProblemSpec,
    RhsEvaluationError,
    apply_rhs,
    apriori_bound,
    boundary_functional,
    build_resonance,
    build_section4,
    check_growth_bound,
    check_growth_margins,
    cumulative_integral,
    eval_rhs,
    evaluate,
    gamma,
    oriented_lift,
    probe_kernel_sign,
    probe_large_trace_defect,
    section4_growth,
    verify_structure,
)
from resbvp import solver
from resbvp.conditions import _unit_rows
from resbvp.linops import operator_norm
from resbvp.fracops import power_rule

SQRT_PI = math.sqrt(math.pi)


class TestGrowthSpec:
    @pytest.mark.parametrize("field", ["lin_u", "lin_v", "offset"])
    @pytest.mark.parametrize("bad", [-1e-300, -1.0, math.inf, math.nan])
    def test_rejects_negative_or_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            GrowthSpec(**{"lin_u": 1.0, "lin_v": 1.0, "offset": 1.0, field: bad})

    def test_offset_defaults_to_zero(self):
        assert GrowthSpec(0.5, 0.25) == GrowthSpec(0.5, 0.25, offset=0.0)

    def test_envelope_on_arrays_equals_per_row_formula(self):
        rng = np.random.default_rng(0)
        g = GrowthSpec(1.0 / (5.0 * math.sqrt(3.0)), 0.3, offset=100.1001)
        nu = 10.0 ** rng.uniform(-3, 3, 500)
        nv = 10.0 ** rng.uniform(-3, 3, 500)
        rows = [g.lin_u * float(a) + g.lin_v * float(b) + g.offset for a, b in zip(nu, nv)]
        np.testing.assert_array_equal(g.envelope(nu, nv), rows)


class TestGrowthMargins:
    def test_section4_golden_numbers(self):
        m = check_growth_margins(Order(1.5), section4_growth())
        assert m.lhs == pytest.approx(0.886227, abs=1e-6)
        assert m.rhs_u == pytest.approx(0.230940, abs=1e-6)
        assert m.rhs_v == pytest.approx(0.230940, abs=1e-6)
        # quotient against the independent closed form
        a = 2.0 / (5.0 * math.sqrt(3.0))
        expected = a * a / ((gamma(1.5) - a) * (gamma(1.5) - a))
        assert m.quotient == pytest.approx(expected, rel=1e-12)
        assert m.quotient == pytest.approx(0.124, abs=5e-4)
        assert m.quotient < 1.0
        assert m.ok

    def test_zero_growth_trivially_ok(self):
        m = check_growth_margins(Order(1.5), GrowthSpec(0.0, 0.0))
        assert m.rhs_u == 0.0 and m.rhs_v == 0.0
        assert m.quotient == 0.0
        assert m.ok

    def test_boundary_case_fails_strict_inequality(self):
        # || lin_u ||_L1 = gamma(alpha): lhs > rhs fails (the factor 2
        # multiplies it past gamma(alpha)).
        g = GrowthSpec(gamma(1.5), 0.0)
        m = check_growth_margins(Order(1.5), g)
        assert not m.ok

    def test_kernel_projector_norm_is_one(self):
        # The margins' factor ||I - R^+ R|| + 1 is 2: at resonance I - R^+ R
        # is the orthogonal projector onto a nonzero kernel.  Five random
        # operators per size n <= 12 and kernel dimension, kernel and cokernel
        # in general position (not EP).
        rng = np.random.default_rng(0)
        for n in range(1, 13):
            for dim_ker in range(1, n + 1):
                for _ in range(5):
                    proj = build_resonance(make_resonant_spec(rng, n, dim_ker)).kernel_proj
                    assert abs(operator_norm(proj) - 1.0) <= n * np.finfo(float).eps, (n, dim_ker)


# alpha in (1, 2] puts lhs = Gamma(alpha) in [0.886, 1]; the factor 2 puts
# rhs_u, rhs_v on both sides of it.
_COEF = st.floats(min_value=0.0, max_value=10.0)


class TestAprioriBound:
    def test_linear_case_closed_form(self):
        z1, z2 = apriori_bound((0.1, 0.5, 0.2), (0.5, 0.1, 0.3))
        assert z1 == pytest.approx(2.0 / 3.0, abs=1e-10)
        # z2 at the fixed point: mu1 z1 + mu2 + mu3 = 0.5 * 2/3 + 0.4.
        assert z2 == pytest.approx(0.5 * 2.0 / 3.0 + 0.4, abs=1e-10)

    def test_all_zero(self):
        assert apriori_bound((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == (0.0, 0.0)

    def test_uncertifiable_rejected(self):
        with pytest.raises(ValueError, match="no bound certified"):
            apriori_bound((0.0, 1.1, 0.0), (1.1, 0.0, 0.0))

    def test_boundary_product_exactly_one_rejected(self):
        with pytest.raises(ValueError, match="no bound certified"):
            apriori_bound((0.0, 2.0, 0.0), (0.5, 0.0, 0.0))

    @pytest.mark.parametrize("slot", range(6))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_coefficient_rejected(self, slot, bad):
        # A closed form would return NaN or inf for these instead of raising.
        coefs = [0.1, 0.5, 0.2, 0.5, 0.1, 0.3]
        coefs[slot] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            apriori_bound(tuple(coefs[:3]), tuple(coefs[3:]))

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_returns_super_solution(self, l1, l2, l3, m1, m2, m3):
        # A certified pair satisfies both inequalities, up to rounding.
        if l2 * m1 >= 1.0:
            return
        z1, z2 = apriori_bound((l1, l2, l3), (m1, m2, m3))
        assert l1 + l2 * z2 + l3 <= z1 + 1e-6
        assert m1 * z1 + m2 + m3 <= z2 + 1e-6

    @given(
        st.floats(min_value=1.01, max_value=2.0),
        st.floats(min_value=1e-3, max_value=0.6),
        st.floats(min_value=0.0, max_value=0.6),
        _COEF,
        _COEF,
        _COEF,
        _COEF,
    )
    @settings(max_examples=200, deadline=None)
    def test_margins_are_the_certification_test(self, alpha, lin_u, lin_v, l1, l3, m2, m3):
        # lin_u > 0 keeps mu1's sign that of lhs - rhs_v: 0 / negative is
        # -0.0, which compares as nonnegative.
        m = check_growth_margins(Order(alpha), GrowthSpec(lin_u, lin_v))
        assume(m.lhs > m.rhs_u and m.lhs != m.rhs_v)
        # At quotient 1 the two roundings of the same product may disagree.
        assume(abs(m.quotient - 1.0) > 1e-12)
        lam2 = m.rhs_v / (m.lhs - m.rhs_u)
        mu1 = m.rhs_u / (m.lhs - m.rhs_v)
        if m.lhs > m.rhs_v:
            assert m.quotient == pytest.approx(lam2 * mu1, rel=4 * np.finfo(float).eps, abs=np.finfo(float).tiny)
        try:
            apriori_bound((l1, lam2, l3), (mu1, m2, m3))
            certified = True
        except ValueError:
            certified = False
        assert certified == m.ok


class TestGrowthBound:
    def test_zero_rhs_zero_growth(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        rep = check_growth_bound(spec, GrowthSpec(0.0, 0.0), 500, seed=0)
        assert rep.ok
        assert rep.worst_slack >= 0.0

    def test_quadratic_rhs_violates_linear_growth(self):
        def quad(t, u, v):
            f = np.zeros_like(u)
            f[:, 0] = np.vecdot(u, u)
            return f

        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), quad, 64)
        rep = check_growth_bound(spec, GrowthSpec(1.0, 1.0, offset=10.0), 2000, seed=0)
        assert not rep.ok
        assert rep.violations > 0

    def test_section4_violations_confined_to_reciprocal_corner(self, sec4_spec):
        # The switched first component is unbounded as v_1 -> 0 with
        # ||v|| >= 1, so a global envelope cannot hold there; everywhere
        # else (and for the tail components always) the envelope is good.
        growth = section4_growth(radius=1e3)
        rep = check_growth_bound(sec4_spec, growth, 10_000, seed=0)
        assert rep.violations <= 10  # rare corner events only
        if rep.violations:
            v = rep.worst_v
            assert np.linalg.norm(v) >= 1.0
            assert abs(v[0]) < 1e-3

    def test_section4_tail_components_always_bounded(self, sec4_spec):
        # Drop the switched component: the remaining map obeys the linear
        # envelope with no offset needed beyond the constant branch.
        rhs = sec4_spec.rhs

        def tail_only(t, u, v):
            f = rhs(t, u, v).copy()
            f[:, 0] = 0.0
            return f

        spec = ProblemSpec(sec4_spec.ord, sec4_spec.xi, sec4_spec.a_op, tail_only, 64)
        rep = check_growth_bound(spec, section4_growth(radius=1.0), 5000, seed=1)
        assert rep.ok

    def test_nan_rhs_raises(self):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.full_like(u, np.nan), 64
        )
        with pytest.raises(RhsEvaluationError, match="non-finite"):
            check_growth_bound(spec, GrowthSpec(1.0, 1.0), 10, seed=0)

    def test_wrong_shape_rhs_raises(self):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros(2), 64
        )
        with pytest.raises(RhsEvaluationError, match=r"shape \(2,\), expected \(10, 3\)"):
            check_growth_bound(spec, GrowthSpec(1.0, 1.0), 10, seed=0)

    def test_one_rhs_call_for_all_samples(self):
        calls = []

        def counting(t, u, v):
            calls.append((t.shape, u.shape, v.shape))
            return np.zeros_like(u)

        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), counting, 64)
        check_growth_bound(spec, GrowthSpec(1.0, 1.0), 37, seed=0)
        assert calls == [((37,), (37, 3), (37, 3))]

    def test_deterministic_under_seed(self, sec4_spec):
        g = section4_growth()
        r1 = check_growth_bound(sec4_spec, g, 500, seed=3)
        r2 = check_growth_bound(sec4_spec, g, 500, seed=3)
        assert r1.worst_slack == r2.worst_slack
        assert r1.violations == r2.violations


class TestTraceDefectProbe:
    def test_section4_positive_defect(self, sec4_spec, sec4_rdata):
        probe = probe_large_trace_defect(sec4_spec, sec4_rdata, trace_level=1.0, sample_count=100, seed=0)
        assert probe.min_defect > 0.0

    def test_zero_rhs_no_evidence(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        probe = probe_large_trace_defect(spec, sec4_rdata, 1.0, 50, seed=0)
        assert probe.min_defect == 0.0

    def test_constant_forcing_constant_defect(self, sec4_rdata):
        # f = g constant: h(g) = (A xi^alpha - I) g / gamma(alpha + 1), so
        # the defect equals the off-range part of that, independent of
        # the sample.
        gvec = np.array([0.1, -0.2, 0.3])
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u) + gvec, 128
        )
        h = (spec.a_op * 0.25**1.5 - np.eye(3)) @ gvec / gamma(2.5)
        expected = np.linalg.norm(sec4_rdata.offrange_proj @ h)
        probe = probe_large_trace_defect(spec, sec4_rdata, 1.0, 20, seed=0)
        assert probe.min_defect == pytest.approx(expected, rel=1e-6)
        assert probe.max_defect == pytest.approx(expected, rel=1e-6)

    def test_deterministic(self, sec4_spec, sec4_rdata):
        p1 = probe_large_trace_defect(sec4_spec, sec4_rdata, 1.0, 30, seed=5)
        p2 = probe_large_trace_defect(sec4_spec, sec4_rdata, 1.0, 30, seed=5)
        assert (p1.min_defect, p1.max_defect) == (p2.min_defect, p2.max_defect)


class TestKernelSignProbe:
    def test_section4_strictly_positive(self, sec4_spec, sec4_rdata):
        probe = probe_kernel_sign(sec4_spec, sec4_rdata, kernel_level=1.0, sample_count=50, seed=0)
        assert probe.min_inner > 0.0
        assert probe.strict_sign == "positive"

    def test_zero_rhs_no_strict_sign(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        probe = probe_kernel_sign(spec, sec4_rdata, 1.0, 20, seed=0)
        assert probe.min_inner == 0.0 and probe.max_inner == 0.0
        assert probe.strict_sign is None

    def test_quadratic_scaling_in_kernel_norm(self, sec4_rdata):
        # For the linear components the feedback is quadratic in e: one
        # deterministic direction, two scales.
        spec = build_section4(1, 256)
        from resbvp import DomainElement, GridFn, apply_rhs, boundary_functional

        inners = []
        for s in (2.0, 4.0):
            e = np.array([0.0, 0.0, s])
            w = apply_rhs(spec, DomainElement(e, GridFn.zeros(256, 3)))
            q = sec4_rdata.proj_scale * (
                sec4_rdata.offrange_proj @ boundary_functional(w.values, spec)
            )
            inners.append(float(e @ (sec4_rdata.lift @ q)))
        assert inners[1] == pytest.approx(4.0 * inners[0], rel=1e-9)

    def test_multi_block_positive(self):
        for k in (2, 3):
            spec = build_section4(k, 128)
            rd = build_resonance(spec)
            probe = probe_kernel_sign(spec, rd, 1.0, 25, seed=1)
            assert probe.strict_sign == "positive"

    def test_requires_kernel(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        with pytest.raises(ValueError, match="positive"):
            probe_kernel_sign(spec, sec4_rdata, 0.0, 10, seed=0)


@pytest.mark.parametrize("level", [math.nan, math.inf])
@pytest.mark.parametrize(
    "probe, name",
    [(probe_large_trace_defect, "trace_level"), (probe_kernel_sign, "kernel_level")],
    ids=["trace-defect", "kernel-sign"],
)
def test_probes_reject_non_finite_level(sec4_spec, sec4_rdata, probe, name, level):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        probe(sec4_spec, sec4_rdata, level, 10, seed=0)


@pytest.mark.parametrize(
    "sample, name",
    [
        (lambda spec, rd, n: check_growth_bound(spec, section4_growth(), n, seed=0), "sample_count"),
        (lambda spec, rd, n: probe_large_trace_defect(spec, rd, 1.0, n, seed=0), "sample_count"),
        (lambda spec, rd, n: probe_kernel_sign(spec, rd, 1.0, n, seed=0), "sample_count"),
        (lambda spec, rd, n: verify_structure(spec, rd, samples=n, seed=0), "samples"),
    ],
    ids=["growth-bound", "trace-defect", "kernel-sign", "structure"],
)
@pytest.mark.parametrize("count", [0, -1])
def test_samplers_refuse_fewer_than_one_sample(sec4_spec, sec4_rdata, sample, name, count):
    # No samples is no evidence: an empty min/max would read as a strict
    # sign or a zero defect.
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        sample(sec4_spec, sec4_rdata, count)


def _affine_spec() -> ProblemSpec:
    """f = C u + D v + 1 with A = diag(2, 1), so R = diag(0, 1/2): rows mixed by matrix products."""
    c_mat = np.array([[0.5, 0.0], [0.0, 0.5]])
    d_mat = np.array([[0.0, 0.25], [0.25, 0.0]])
    return ProblemSpec(
        Order(1.5), 0.25, np.diag([2.0, 1.0]), lambda t, u, v: u @ c_mat.T + v @ d_mat.T + 1.0, 64
    )


def _quadrature_trace_probe(spec, rdata, level, count, seed):
    """The range-escape extremes with each quadratic source's I^alpha and
    int_0^t taken by quadrature on the grid, one element at a time, on the
    draws of ``probe_large_trace_defect``."""
    rng = np.random.default_rng(seed)
    ga = gamma(spec.ord.alpha)
    t = np.linspace(0.0, 1.0, spec.grid_n + 1)
    defects = []
    for _ in range(count):
        coefs = rng.standard_normal((3, spec.dim))
        source = GridFn(coefs[0] + np.outer(t, coefs[1]) + np.outer(t**2, coefs[2]))
        integral = cumulative_integral(source).values
        margin = float(np.max(np.linalg.norm(integral, axis=1)))
        scale = (level + margin + 1.0) / ga * (1.0 + rng.uniform())
        c = scale * _unit_rows(rng, rng.standard_normal((1, spec.dim)))[0]
        w = eval_rhs(spec, t, element_samples(DomainElement(c, source), spec.ord)[0], ga * c + integral)
        defects.append(float(np.linalg.norm(rdata.offrange_proj @ boundary_functional(w, spec))))
    return min(defects), max(defects)


class TestBatchedProbes:
    """Both probes take h(N x) from ``rhs_functionals``' stacked, chunked rhs calls."""

    @pytest.mark.parametrize("cap", [1, 10**9], ids=["one-element", "all-elements"])
    @pytest.mark.parametrize("problem", ["section4", "affine"])
    def test_figures_do_not_depend_on_chunk_size(self, monkeypatch, cap, problem):
        spec = build_section4(1, 256) if problem == "section4" else _affine_spec()
        rdata = build_resonance(spec)

        def probes(spec):
            return (
                probe_large_trace_defect(spec, rdata, 1.0, 30, seed=1),
                probe_kernel_sign(spec, rdata, 1.0, 30, seed=2),
            )

        expected = probes(spec)
        calls = []
        counted = dataclasses.replace(spec, rhs=lambda t, u, v: calls.append(t.size) or spec.rhs(t, u, v))
        monkeypatch.setattr(solver, "_RHS_CHUNK_VALUES", cap)
        assert probes(counted) == expected
        assert len(calls) == (60 if cap == 1 else 2)

    @pytest.mark.parametrize("cap", [None, 10**9], ids=["default", "all-elements"])
    def test_kernel_sign_equals_per_sample_reference(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(solver, "_RHS_CHUNK_VALUES", cap)
        spec = build_section4(2, 1024)
        rdata = build_resonance(spec)
        probe = probe_kernel_sign(spec, rdata, 1.0, 40, seed=3)
        rng = np.random.default_rng(3)
        inners = []
        for _ in range(40):
            z = _unit_rows(rng, rng.standard_normal((1, rdata.dim_ker)))[0]
            e = rdata.kernel @ z * (1.0 * 10.0 ** rng.uniform(0.0, 2.0))
            w = apply_rhs(spec, DomainElement(e, GridFn.zeros(spec.grid_n, spec.dim)))
            inners.append(float(e @ (rdata.lift @ rdata.obstruction(boundary_functional(w.values, spec)))))
        assert (probe.min_inner, probe.max_inner) == (min(inners), max(inners))

    @pytest.mark.parametrize("cap", [None, 10**9], ids=["default", "all-elements"])
    def test_trace_probe_equals_per_sample_reference(self, monkeypatch, cap):
        # One element at a time, each drawing its direction as it goes: the
        # probe's draws and figures do not depend on batching or chunking.
        if cap is not None:
            monkeypatch.setattr(solver, "_RHS_CHUNK_VALUES", cap)
        spec = build_section4(2, 1024)
        rdata = build_resonance(spec)
        probe = probe_large_trace_defect(spec, rdata, 1.0, 40, seed=3)
        alpha, ga = spec.ord.alpha, gamma(spec.ord.alpha)
        t = np.linspace(0.0, 1.0, spec.grid_n + 1)
        rules = np.array([power_rule(k, alpha) for k in range(3)])
        source_powers = rules * t[:, None] ** (alpha + np.arange(3))
        integral_powers = t[:, None] ** np.arange(1, 4) / np.arange(1, 4)
        rng = np.random.default_rng(3)
        defects = []
        for _ in range(40):
            coefs, up = rng.standard_normal((3, spec.dim)), rng.uniform()
            direction = _unit_rows(rng, rng.standard_normal((1, spec.dim)))[0]
            integral = integral_powers @ coefs
            margin = np.sqrt(np.vecdot(integral, integral)).max()
            c = (1.0 + margin + 1.0) / ga * (1.0 + up) * direction
            w = eval_rhs(spec, t, *evaluate(source_powers @ coefs, integral, c, spec.ord))
            defects.append(float(np.linalg.norm(rdata.offrange_proj @ boundary_functional(w, spec))))
        assert (probe.min_defect, probe.max_defect) == (min(defects), max(defects))

    @pytest.mark.parametrize("probe", [probe_large_trace_defect, probe_kernel_sign])
    def test_zero_direction_is_drawn_again(self, monkeypatch, sec4_spec, sec4_rdata, probe):
        # The first direction drawn is zero; it is drawn again, as one row, after the loop.
        size = sec4_spec.dim if probe is probe_large_trace_defect else sec4_rdata.dim_ker
        sizes = []
        default_rng = np.random.default_rng

        class FirstDirectionZero:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def uniform(self, *args):
                return self.rng.uniform(*args)

            def standard_normal(self, shape):
                sizes.append(shape)
                d = self.rng.standard_normal(shape)
                return np.zeros(shape) if sizes.count(size) == 1 and shape == size else d

        monkeypatch.setattr(np.random, "default_rng", FirstDirectionZero)
        figures = dataclasses.astuple(probe(sec4_spec, sec4_rdata, 1.0, 5, seed=1))
        assert sizes.count(size) == 5 and sizes[-1] == (1, size)
        assert np.isfinite(figures).all()

    def test_trace_probe_is_the_quadrature_path_without_its_error(self):
        # The exact power path removes the quadrature's O(h^2) error: the
        # gap to the quadrature path shrinks 16x per 4x grid refinement.
        gaps = []
        for grid_n in (256, 1024):
            spec = build_section4(1, grid_n)
            rdata = build_resonance(spec)
            probe = probe_large_trace_defect(spec, rdata, 1.0, 100, seed=1)
            lo, hi = _quadrature_trace_probe(spec, rdata, 1.0, 100, seed=1)
            gaps.append(max(abs(probe.min_defect - lo) / lo, abs(probe.max_defect - hi) / hi))
        assert gaps[0] <= 1e-5
        assert 0.0 < gaps[1] <= gaps[0] / 8.0

    def test_default_chunks(self):
        # 2^14 values hold 21 elements at N = 256, n = 3: 100 samples are 4 full chunks and one of 16.
        spec = build_section4(1, 256)
        rdata = build_resonance(spec)
        calls = []
        counted = dataclasses.replace(spec, rhs=lambda t, u, v: calls.append(t.size) or spec.rhs(t, u, v))
        for probe in (probe_large_trace_defect, probe_kernel_sign):
            calls.clear()
            probe(counted, rdata, 1.0, 100, seed=1)
            assert calls == [21 * 257] * 4 + [16 * 257]

    def test_kernel_gain_secants_share_one_call(self):
        # dim_ker = 2 secants of 1025 x 6 values each fit in one chunk.
        calls = []
        spec = dataclasses.replace(
            make_resonant_spec(np.random.default_rng(4), 6, 2, grid_n=1024),
            rhs=lambda t, u, v: calls.append(t.size) or 0.5 * u - 0.25 * v + 1.0,
        )
        rdata = build_resonance(spec)
        zero = DomainElement.zero(spec.grid_n, spec.dim)
        w = apply_rhs(spec, zero)
        calls.clear()
        oriented_lift(spec, rdata, zero, w)
        assert calls == [2 * 1025]

    @pytest.mark.parametrize("probe", [probe_large_trace_defect, probe_kernel_sign])
    def test_probe_memory_stays_under_one_mib(self, probe):
        spec = build_section4(1, 256)
        rdata = build_resonance(spec)
        probe(spec, rdata, 1.0, 100, seed=1)  # caches the quadrature weights
        tracemalloc.start()
        try:
            probe(spec, rdata, 1.0, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 0.75 MB with 2^14-value chunks; one stack of all 100 elements takes about 3.2 MB.
        assert peak < 2**20

    def test_trace_probe_holds_one_chunk_at_a_time(self):
        spec = build_section4(1, 65536)
        rdata = build_resonance(spec)
        probe_large_trace_defect(spec, rdata, 1.0, 1, seed=1)  # caches the quadrature weights
        tracemalloc.start()
        try:
            probe_large_trace_defect(spec, rdata, 1.0, 4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 8 grid arrays with one element per rhs call; all four
        # elements in one call take about 23.
        assert peak < 10 * (spec.grid_n + 1) * spec.dim * 8
