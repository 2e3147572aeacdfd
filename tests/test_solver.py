import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resbvp import (
    DomainElement,
    GridFn,
    Order,
    ProblemSpec,
    RhsEvaluationError,
    SolveOptions,
    apply_rhs,
    apriori_bound,
    boundary_functional,
    build_resonance,
    build_section4,
    evaluate,
    fixed_point_map,
    frac_integral,
    partial_inverse,
    residuals,
    solve,
)

SQRT_PI = math.sqrt(math.pi)


class TestApplyRhs:
    def test_zero_rhs(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        x = DomainElement(np.array([1.0, 2.0, 3.0]), GridFn.zeros(64, 3))
        assert not apply_rhs(spec, x).values.any()

    def test_section4_branch_below_switch(self, sec4_spec):
        # x = sigma eps_3 t^(1/2) with sigma = 1/2: trace norm is
        # sigma gamma(3/2) < 1, so component 1 sits on the constant branch
        # and component 3 is (t^(1/2) + sqrt(pi)/2) sigma / 40.
        sigma = 0.5
        x = DomainElement(np.array([0.0, 0.0, sigma]), GridFn.zeros(256, 3))
        w = apply_rhs(sec4_spec, x)
        t = w.nodes
        np.testing.assert_allclose(w.values[:, 0], 0.1, atol=1e-15)
        np.testing.assert_allclose(w.values[:, 1], 0.0, atol=1e-15)
        expected = (np.sqrt(t) + SQRT_PI / 2.0) * sigma / 40.0
        np.testing.assert_allclose(w.values[:, 2], expected, atol=1e-14)

    def test_section4_branch_above_switch(self, sec4_spec):
        # sigma = 2 pushes the trace norm above 1; the first component
        # takes the switched branch with the reciprocal evaluated as 0 at
        # the exactly-zero first trace component.
        x = DomainElement(np.array([0.0, 0.0, 2.0]), GridFn.zeros(256, 3))
        w = apply_rhs(sec4_spec, x)
        np.testing.assert_allclose(w.values[:, 0], -0.1, atol=1e-15)

    def test_identity_rhs_reproduces_fractional_integral(self):
        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: u, 128)
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1, 129)
        y = GridFn(np.outer(np.sin(t), rng.standard_normal(3)))
        x = DomainElement(np.zeros(3), y)
        w = apply_rhs(spec, x)
        np.testing.assert_array_equal(w.values, frac_integral(y, 1.5).values)

    def test_nonfinite_rhs_reports_node(self):
        def bad(t, u, v):
            return np.where(t[:, None] > 0.5, np.inf, np.zeros_like(u))

        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), bad, 64)
        x = DomainElement(np.zeros(3), GridFn.zeros(64, 3))
        with pytest.raises(RhsEvaluationError, match="node 33"):
            apply_rhs(spec, x)


class TestRhsContract:
    def test_one_call_per_grid(self, sec4_rdata):
        calls = []

        def counting(t, u, v):
            calls.append((t.shape, u.shape, v.shape))
            return np.zeros_like(u)

        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), counting, 64)
        apply_rhs(spec, DomainElement(np.ones(3), GridFn.zeros(64, 3)))
        assert calls == [((65,), (65, 3), (65, 3))]
        calls.clear()
        # One call per iteration plus one for the residuals.
        report = solve(spec, sec4_rdata, SolveOptions(max_iter=5))
        assert calls == [((65,), (65, 3), (65, 3))] * (report.iterations + 1)

    def test_vector_return_names_expected_shape(self):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros(3), 64
        )
        with pytest.raises(RhsEvaluationError, match=r"shape \(3,\), expected \(65, 3\)"):
            apply_rhs(spec, DomainElement.zero(64, 3))


class TestFixedPointMap:
    def test_zero_rhs_reaches_fixed_point_in_two_steps(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        x0 = DomainElement(np.array([1.0, -2.0, 3.0]), GridFn.zeros(64, 3))
        x1 = fixed_point_map(spec, sec4_rdata, x0)
        np.testing.assert_allclose(x1.coef, [0.0, 0.0, 3.0], atol=1e-15)
        assert not x1.source.values.any()
        x2 = fixed_point_map(spec, sec4_rdata, x1)
        np.testing.assert_array_equal(x1.coef, x2.coef)

    def test_solvability_defect_isolated_off_range(self, sec4_spec, sec4_rdata):
        # R coef' - h(source') lies in the range of the complementary
        # projector: its range-side part vanishes.
        rng = np.random.default_rng(8)
        x = DomainElement(rng.standard_normal(3), GridFn(rng.standard_normal((257, 3))))
        x1 = fixed_point_map(sec4_spec, sec4_rdata, x)
        gap = sec4_rdata.matrix @ x1.coef - boundary_functional(x1.source, sec4_spec)
        assert np.linalg.norm(sec4_rdata.matrix @ sec4_rdata.pinv @ gap) <= 1e-8

    def test_damped_iteration_contracts(self, sec4_spec, sec4_rdata):
        report = solve(sec4_spec, sec4_rdata, SolveOptions(relax=0.5, max_iter=60))
        diffs = report.diff_history
        assert all(diffs[i + 1] <= diffs[i] for i in range(3, len(diffs) - 1))


class TestSolve:
    def test_zero_rhs_undamped_two_iterations(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        c0 = np.array([0.5, -1.0, 2.0])
        opts = SolveOptions(
            relax=1.0,
            max_iter=10,
            tol_fixed_point=1e-12,
            tol_residual=1e-10,
            initial=DomainElement(c0, GridFn.zeros(64, 3)),
        )
        report = solve(spec, sec4_rdata, opts)
        assert report.converged
        assert report.iterations <= 2
        np.testing.assert_allclose(report.element.coef, [0.0, 0.0, 2.0], atol=1e-15)
        r = report.residuals
        assert max(r.pde_residual, r.right_bc_defect, r.solvability_defect) <= 1e-10

    def test_solvable_forcing_matches_partial_inverse(self, sec4_rdata):
        # f = g(t) with the obstruction of g exactly zero: the solve
        # collapses to the closed form K g in <= 3 undamped iterations.
        n = 256
        t = np.linspace(0, 1, n + 1)
        z = np.array([1.0, 1.0, 1.0])
        gvec = np.diag([0.25, 0.125, 0.0]) @ z  # in the range, block-diagonal A
        gvals = np.outer(1.0 + t, gvec)

        def rhs(tt, u, v):
            return np.outer(1.0 + tt, gvec)

        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), rhs, n)
        g = GridFn(gvals)
        assert np.linalg.norm(sec4_rdata.offrange_proj @ boundary_functional(g, spec)) <= 1e-15
        report = solve(spec, sec4_rdata, SolveOptions(relax=1.0, max_iter=10))
        assert report.converged
        assert report.iterations <= 3
        closed = partial_inverse(g, spec, sec4_rdata)
        xv = evaluate(report.element, spec.ord).values
        cv = evaluate(closed, spec.ord).values
        assert np.abs(xv - cv).max() <= 1e-8

    def test_section4_end_to_end(self, sec4_spec, sec4_rdata):
        report = solve(sec4_spec, sec4_rdata)
        assert report.converged and not report.diverged
        r = report.residuals
        assert r.right_bc_defect <= 1e-5
        assert r.solvability_defect <= 1e-6
        assert r.pde_residual <= 1e-2

    def test_deterministic(self, sec4_spec, sec4_rdata):
        r1 = solve(sec4_spec, sec4_rdata)
        r2 = solve(sec4_spec, sec4_rdata)
        np.testing.assert_array_equal(r1.element.coef, r2.element.coef)
        np.testing.assert_array_equal(r1.element.source.values, r2.element.source.values)
        assert r1.diff_history == r2.diff_history

    def test_max_iter_exhaustion_not_converged(self, sec4_spec, sec4_rdata):
        report = solve(sec4_spec, sec4_rdata, SolveOptions(max_iter=1))
        assert not report.converged
        assert report.iterations == 1

    def test_divergence_flag(self, sec4_rdata):
        def explosive(t, u, v):
            return 10.0 * u + np.array([1e6, 1e6, 1e6])

        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), explosive, 64)
        report = solve(spec, sec4_rdata, SolveOptions(relax=1.0, max_iter=100))
        assert report.diverged
        assert not report.converged

    def test_seeded_kernel_initialization_deterministic(self, sec4_spec, sec4_rdata):
        rng = np.random.default_rng(7)
        c0 = sec4_rdata.kernel @ (0.5 * rng.standard_normal(sec4_rdata.dim_ker))
        opts = SolveOptions(initial=DomainElement(c0, GridFn.zeros(sec4_spec.grid_n, sec4_spec.dim)))
        r1 = solve(sec4_spec, sec4_rdata, opts)
        r2 = solve(sec4_spec, sec4_rdata, opts)
        np.testing.assert_array_equal(r1.element.coef, r2.element.coef)


class TestResiduals:
    def test_exact_kernel_element_zero_rhs(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 256
        )
        x = DomainElement(np.array([0.0, 0.0, 1.3]), GridFn.zeros(256, 3))
        r = residuals(spec, sec4_rdata, x)
        assert r.pde_residual <= 1e-10
        assert r.right_bc_defect <= 1e-10
        assert r.solvability_defect <= 1e-10

    def test_boundary_defect_linear_in_perturbation(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 256
        )
        slope = np.linalg.norm(sec4_rdata.matrix @ np.array([1.0, 0.0, 0.0]))
        for delta in (1e-3, 1e-2, 1e-1):
            c = np.array([delta, 0.0, 1.3])
            r = residuals(spec, sec4_rdata, DomainElement(c, GridFn.zeros(256, 3)))
            assert r.right_bc_defect == pytest.approx(delta * slope, rel=1e-9)

    def test_converged_solution_solvability(self, sec4_spec, sec4_rdata):
        report = solve(sec4_spec, sec4_rdata)
        assert report.residuals.solvability_defect <= 1e-6
        assert report.residuals.bc_consistency <= 1e-12

    @pytest.mark.parametrize("max_iter", [1, 200])
    def test_report_residuals_belong_to_returned_element(self, sec4_spec, sec4_rdata, max_iter):
        report = solve(sec4_spec, sec4_rdata, SolveOptions(max_iter=max_iter))
        assert report.residuals == residuals(sec4_spec, sec4_rdata, report.element)


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

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_returns_super_solution(self, l1, l2, l3, m1, m2, m3, g1, g2):
        # Any certified pair must dominate one more application of the map
        # (up to the stabilization tolerance).
        if l2 * m1 >= 1.0:
            return
        z1, z2 = apriori_bound((l1, l2, l3), (m1, m2, m3), (g1, g2))
        assert l1 * z1**g1 + l2 * z2 + l3 <= z1 + 1e-6
        assert m1 * z1 + m2 * z2**g2 + m3 <= z2 + 1e-6

    def test_sublinear_terms_honored(self):
        # gamma > 0 exercises the doubling path; the result solves the
        # fixed-point system, cross-checked by direct iteration.
        z1, z2 = apriori_bound((1.5, 0.3, 1.0), (0.4, 2.0, 0.5), (0.5, 0.5))
        assert z1 == pytest.approx(1.5 * z1**0.5 + 0.3 * z2 + 1.0, abs=1e-8)
        assert z2 == pytest.approx(0.4 * z1 + 2.0 * z2**0.5 + 0.5, abs=1e-8)
