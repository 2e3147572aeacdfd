import math

import numpy as np
import pytest

from resbvp import (
    GrowthSpec,
    Order,
    ProblemSpec,
    RhsEvaluationError,
    build_resonance,
    build_section4,
    check_growth_bound,
    check_growth_margins,
    gamma,
    probe_kernel_sign,
    probe_large_trace_defect,
    section4_growth,
)

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
    def test_section4_golden_numbers(self, sec4_rdata):
        m = check_growth_margins(Order(1.5), sec4_rdata, section4_growth())
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

    def test_zero_growth_trivially_ok(self, sec4_rdata):
        m = check_growth_margins(Order(1.5), sec4_rdata, GrowthSpec(0.0, 0.0))
        assert m.rhs_u == 0.0 and m.rhs_v == 0.0
        assert m.quotient == 0.0
        assert m.ok

    def test_boundary_case_fails_strict_inequality(self, sec4_rdata):
        # || lin_u ||_L1 = gamma(alpha): lhs > rhs fails (knorm + 1 >= 2
        # multiplies it past gamma(alpha)).
        g = GrowthSpec(gamma(1.5), 0.0)
        m = check_growth_margins(Order(1.5), sec4_rdata, g)
        assert not m.ok

    def test_block_permutation_invariance(self):
        # Permuting blocks of the operator leaves every margin quantity
        # unchanged (they only see norms).
        rd1 = build_resonance(build_section4(2, 64))
        g = section4_growth()
        m1 = check_growth_margins(Order(1.5), rd1, g)
        perm = np.arange(6)[::-1]
        a_perm = rd1.matrix[np.ix_(perm, perm)]
        spec = ProblemSpec(
            Order(1.5), 0.25, 2.0 * (np.eye(6) - a_perm), lambda t, u, v: np.zeros_like(u), 64
        )
        m2 = check_growth_margins(Order(1.5), build_resonance(spec), g)
        assert m1.lhs == m2.lhs
        assert m1.rhs_u == pytest.approx(m2.rhs_u, rel=1e-12)
        assert m1.quotient == pytest.approx(m2.quotient, rel=1e-12)


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
                sec4_rdata.offrange_proj @ boundary_functional(w, spec)
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
