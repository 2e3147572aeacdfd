import math

import numpy as np
import pytest

import resbvp.resonance
from resbvp import (
    DomainElement,
    GridFn,
    NonResonantError,
    Order,
    PowerFn,
    ProblemSpec,
    boundary_functional,
    boundary_functional_power,
    build_resonance,
    build_section4,
    derivative_trace,
    evaluate,
    fixed_point_map,
    frac_integral,
    gamma,
    partial_inverse,
    project_kernel,
    project_obstruction,
    split_obstruction,
    verify_structure,
)
from conftest import make_resonant_spec

SQRT_PI = math.sqrt(math.pi)


def zero_rhs(t, u, v):
    return np.zeros_like(u)


class TestBuildResonance:
    def test_section4_blocks(self, sec4_rdata):
        np.testing.assert_array_equal(sec4_rdata.matrix, np.diag([0.25, 0.125, 0.0]))
        np.testing.assert_array_equal(sec4_rdata.pinv, np.diag([4.0, 8.0, 0.0]))
        assert sec4_rdata.dim_ker == 1
        assert sec4_rdata.ep_defect == 0.0

    def test_section4_k2_kernel_dimension(self):
        rd = build_resonance(build_section4(2, 64))
        assert rd.dim_ker == 2
        assert rd.matrix.shape == (6, 6)

    def test_identity_operator_non_resonant(self):
        spec = ProblemSpec(Order(1.5), 0.25, np.eye(3), zero_rhs, 64)
        with pytest.raises(NonResonantError):
            build_resonance(spec)

    def test_full_resonance(self):
        xi, alpha = 0.25, 1.5
        spec = ProblemSpec(Order(alpha), xi, xi ** (1 - alpha) * np.eye(3), zero_rhs, 64)
        rd = build_resonance(spec)
        assert rd.dim_ker == 3
        np.testing.assert_allclose(rd.matrix, np.zeros((3, 3)), atol=1e-15)

    def test_projection_scale_closed_form(self, sec4_rdata):
        # gamma(2a) / (gamma(a) (xi^a - 1)) at a = 3/2, xi = 1/4.
        expected = gamma(3.0) / (gamma(1.5) * (0.25**1.5 - 1.0))
        assert sec4_rdata.proj_scale == pytest.approx(expected, rel=1e-15)
        assert sec4_rdata.proj_scale == pytest.approx(-32.0 / (7.0 * SQRT_PI), rel=1e-14)

    def test_rank_ambiguity_warning(self):
        # Resonance matrix with singular values {1, 3e-10, 0}: the middle
        # one sits within a decade of the 1e-9 rank tolerance.
        a_op = 2.0 * np.diag([0.0, 1.0 - 3e-10, 1.0])
        spec = ProblemSpec(Order(1.5), 0.25, a_op, zero_rhs, 64)
        with pytest.warns(RuntimeWarning, match="tolerance-sensitive"):
            rd = build_resonance(spec, tol=1e-9)
        assert rd.rank_ambiguous
        assert rd.dim_ker == 2

    def test_xi_off_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            ProblemSpec(Order(1.5), 0.25, np.eye(3), zero_rhs, 50)

    def test_empty_operator_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ProblemSpec(Order(1.5), 0.25, np.zeros((0, 0)), zero_rhs, 64)


class TestBoundaryFunctional:
    def test_zero(self, sec4_spec):
        assert not boundary_functional(GridFn.zeros(256, 3), sec4_spec).any()

    def test_kernel_power_closed_form(self, sec4_spec):
        # h(c t^(a-1)) = (gamma(a)/gamma(2a)) (xi^(2a-1) A - I) c exactly;
        # grid quadrature must agree within its tolerance and the exact
        # route must agree to rounding.
        c = np.array([0.3, -0.2, 0.5])
        p = PowerFn(c, 0.5)
        exact = (gamma(1.5) / gamma(3.0)) * (0.25**2 * (sec4_spec.a_op @ c) - c)
        np.testing.assert_allclose(boundary_functional_power(p, sec4_spec), exact, atol=1e-16)
        grid_val = boundary_functional(GridFn(p.sample(np.linspace(0, 1, 257))), sec4_spec)
        assert np.abs(grid_val - exact).max() <= 1e-5

    def test_kernel_power_quadrature_converges(self):
        c = np.array([0.3, -0.2, 0.5])
        p = PowerFn(c, 0.5)
        errs = {}
        for n in (256, 1024):
            spec = build_section4(1, n)
            exact = boundary_functional_power(p, spec)
            grid_val = boundary_functional(GridFn(p.sample(np.linspace(0, 1, n + 1))), spec)
            errs[n] = np.abs(grid_val - exact).max()
        assert errs[1024] < errs[256] / 4.0

    def test_kernel_feedback_first_component(self):
        # y = N(e t^(1/2)) with e = 2 eps_3 locks the switched branch
        # (component 1 is then -1/10); the first component of h follows
        # in closed form: (2/sqrt(pi)) (3/2 * (-1/120) + 1/15) = 13/(120 sqrt(pi)).
        from resbvp import apply_rhs

        n = 1024
        spec = build_section4(1, n)
        e = np.array([0.0, 0.0, 2.0])
        x = DomainElement(e, GridFn.zeros(n, 3))
        w = apply_rhs(spec, x)
        h = boundary_functional(w, spec)
        assert h[0] == pytest.approx(13.0 / (120.0 * SQRT_PI), abs=1e-12)

    def test_linearity(self, sec4_spec):
        rng = np.random.default_rng(11)
        y = GridFn(rng.standard_normal((257, 3)))
        z = GridFn(rng.standard_normal((257, 3)))
        lhs = boundary_functional(GridFn(2.0 * y.values - 0.5 * z.values), sec4_spec)
        rhs = 2.0 * boundary_functional(y, sec4_spec) - 0.5 * boundary_functional(z, sec4_spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_off_grid_xi_rejected(self, sec4_spec):
        with pytest.raises(ValueError, match="node"):
            boundary_functional(GridFn.zeros(50, 3), sec4_spec)


class TestObstructionProjection:
    def test_idempotent_on_grid_inputs(self, sec4_spec, sec4_rdata):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            y = GridFn(rng.standard_normal((257, 3)))
            q = split_obstruction(y, sec4_spec, sec4_rdata)[0]
            qq = project_obstruction(q, sec4_spec, sec4_rdata)
            worst = max(worst, float(np.linalg.norm(qq.coef - q.coef)))
        assert worst <= 1e-8

    def test_annihilates_solvable_data(self, sec4_spec, sec4_rdata):
        # Members of the solvable set are built by removing the
        # obstruction part; the projection of the remainder vanishes.
        rng = np.random.default_rng(3)
        y = GridFn(rng.standard_normal((257, 3)))
        q = split_obstruction(y, sec4_spec, sec4_rdata)[0]
        h_rest = boundary_functional(y, sec4_spec) - boundary_functional_power(q, sec4_spec)
        rest_coef = sec4_rdata.proj_scale * (sec4_rdata.offrange_proj @ h_rest)
        assert np.linalg.norm(rest_coef) <= 1e-13

    def test_fixes_kernel_elements(self, sec4_spec, sec4_rdata):
        c = np.array([0.0, 0.0, 1.7])
        q = project_obstruction(PowerFn(c, 0.5), sec4_spec, sec4_rdata)
        np.testing.assert_allclose(q.coef, c, atol=1e-14)
        assert q.exponent == pytest.approx(0.5)


class TestSplitObstruction:
    def test_parts_of_one_split(self, sec4_spec, sec4_rdata):
        rng = np.random.default_rng(4)
        w = GridFn(rng.standard_normal((257, 3)))
        q, h_rest, rest = split_obstruction(w, sec4_spec, sec4_rdata)
        assert q.exponent == sec4_spec.ord.alpha_m1
        np.testing.assert_array_equal(
            h_rest, boundary_functional(w, sec4_spec) - boundary_functional_power(q, sec4_spec)
        )
        np.testing.assert_array_equal(rest.values, w.values - q.sample(w.nodes))
        assert np.linalg.norm(sec4_rdata.obstruction(h_rest)) <= 1e-13

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """Calls of the boundary functional, counted where the split reads it."""
        calls = []
        original = resbvp.resonance.boundary_functional

        def counting(y, spec):
            calls.append(y.n_intervals)
            return original(y, spec)

        monkeypatch.setattr(resbvp.resonance, "boundary_functional", counting)
        return calls

    def test_verify_structure_sweeps_once_per_sample(self, sweeps, sec4_spec, sec4_rdata):
        verify_structure(sec4_spec, sec4_rdata, samples=5, seed=0)
        assert len(sweeps) == 5

    def test_fixed_point_map_sweeps_once(self, sweeps, sec4_spec, sec4_rdata):
        fixed_point_map(sec4_spec, sec4_rdata, DomainElement.zero(sec4_spec.grid_n, sec4_spec.dim))
        assert sweeps == [sec4_spec.grid_n]


class TestKernelProjection:
    def test_fixes_kernel_coefficients(self, sec4_rdata):
        x = DomainElement(np.array([0.0, 0.0, 2.5]), GridFn.zeros(16, 3))
        p = project_kernel(x, sec4_rdata)
        np.testing.assert_array_equal(p.coef, x.coef)
        assert not p.source.values.any()

    def test_kills_corange_coefficients(self, sec4_rdata):
        x = DomainElement(np.array([1.0, -2.0, 0.0]), GridFn.zeros(16, 3))
        p = project_kernel(x, sec4_rdata)
        np.testing.assert_array_equal(p.coef, np.zeros(3))

    def test_exactly_idempotent(self, sec4_rdata):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = DomainElement(rng.standard_normal(3), GridFn.zeros(16, 3))
            p1 = project_kernel(x, sec4_rdata)
            p2 = project_kernel(p1, sec4_rdata)
            np.testing.assert_array_equal(p1.coef, p2.coef)


class TestPartialInverse:
    def test_zero(self, sec4_spec, sec4_rdata):
        out = partial_inverse(GridFn.zeros(256, 3), sec4_spec, sec4_rdata)
        assert not out.coef.any()
        assert not out.source.values.any()

    def test_lands_in_kernel_complement_exactly(self, sec4_spec, sec4_rdata):
        # (I - R^+ R) R^+ = 0, bitwise for the block-diagonal operator.
        rng = np.random.default_rng(6)
        for _ in range(20):
            y = GridFn(rng.standard_normal((257, 3)))
            out = partial_inverse(y, sec4_spec, sec4_rdata)
            p = project_kernel(out, sec4_rdata)
            assert not p.coef.any()

    def test_norm_bound_with_derivable_constant(self, sec4_spec, sec4_rdata):
        # || K y ||_X <= C ||y||_L1 with the constant the triangle
        # inequality actually yields:
        # C = (1 + ||R^+||(1 + ||A||)) / min(1, gamma(alpha)).
        from resbvp import operator_norm

        c_bound = (1.0 + operator_norm(sec4_rdata.pinv) * (1.0 + operator_norm(sec4_spec.a_op)))
        c_bound /= min(1.0, gamma(sec4_spec.ord.alpha))
        rng = np.random.default_rng(42)
        t = np.linspace(0, 1, 257)
        for _ in range(50):
            coefs = rng.standard_normal((3, 3))
            y = GridFn(coefs[0] + np.outer(t, coefs[1]) + np.outer(np.sin(3 * t), coefs[2]))
            elem = partial_inverse(y, sec4_spec, sec4_rdata)
            xv = evaluate(elem, sec4_spec.ord).values
            dv = derivative_trace(elem, sec4_spec.ord).values
            norm_x = max(
                np.linalg.norm(xv, axis=1).max(), np.linalg.norm(dv, axis=1).max()
            )
            l1 = np.trapezoid(np.linalg.norm(y.values, axis=1), t)
            assert norm_x <= c_bound * l1


class TestDomainElement:
    def test_left_boundary_exact_by_representation(self):
        # I^(2-alpha) of the power part is linear in t (zero at 0) and
        # I^(2-alpha) I^alpha y = I^2 y is zero at 0: the condition holds
        # identically, nothing to measure.
        from resbvp import frac_integral_power

        alpha = 1.5
        p = frac_integral_power(PowerFn(np.array([3.0, -1.0, 2.0]), alpha - 1.0), 2.0 - alpha)
        assert p.exponent == pytest.approx(1.0)
        assert not p.sample(np.array([0.0]))[0].any()

    def test_evaluate_kernel_element(self, sec4_spec):
        e = np.array([0.0, 0.0, 1.5])
        x = DomainElement(e, GridFn.zeros(256, 3))
        xv = evaluate(x, sec4_spec.ord)
        t = xv.nodes
        np.testing.assert_allclose(xv.values[:, 2], 1.5 * np.sqrt(t), atol=1e-15)
        dv = derivative_trace(x, sec4_spec.ord)
        np.testing.assert_allclose(dv.values[:, 2], 1.5 * gamma(1.5), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DomainElement(np.zeros(2), GridFn.zeros(8, 3))


class TestVerifyStructure:
    def test_section4_residuals(self, sec4_spec, sec4_rdata):
        sr = verify_structure(sec4_spec, sec4_rdata, samples=10, seed=1)
        assert sr.identity_residual <= 1e-13
        assert sr.obstruction_idem_residual <= 1e-8
        assert sr.obstruction_on_image_residual <= 1e-8
        assert sr.kernel_fix_residual <= 1e-8

    def test_derivative_roundtrip_decreases_with_grid(self, sec4_rdata):
        vals = {}
        for n in (256, 512):
            spec = build_section4(1, n)
            sr = verify_structure(spec, sec4_rdata, samples=5, seed=1)
            vals[n] = sr.left_inverse_window
        assert vals[512] < vals[256]

    def test_full_resonance_identity_trivial(self):
        xi, alpha = 0.25, 1.5
        spec = ProblemSpec(Order(alpha), xi, xi ** (1 - alpha) * np.eye(3), zero_rhs, 64)
        rd = build_resonance(spec)
        sr = verify_structure(spec, rd, samples=3, seed=0)
        assert sr.identity_residual <= 1e-14

    def test_non_ep_operator_breaks_kernel_fix(self):
        # R = [[0, 1], [0, 0]] has ker R = span{e1} but ker R^T = span{e2}:
        # the kernel-fix check fails by an ep_defect-sized amount.
        alpha, xi = 1.5, 0.25
        r_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        a_op = xi ** (1 - alpha) * (np.eye(2) - r_mat)
        spec = ProblemSpec(Order(alpha), xi, a_op, zero_rhs, 64)
        rd = build_resonance(spec)
        assert rd.ep_defect == pytest.approx(1.0, abs=1e-12)
        sr = verify_structure(spec, rd, samples=5, seed=0)
        assert sr.kernel_fix_residual == pytest.approx(rd.ep_defect, rel=1e-6)


class TestAlgebraicIdentity:
    def test_random_resonant_specs_machine_precision(self):
        # (I - RR^+)(xi^(2a-1) A - I) = (xi^a - 1)(I - RR^+) is a direct
        # consequence of RR^+R = R; it holds for every resonant spec.
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            dk = int(rng.integers(1, n))
            spec = make_resonant_spec(rng, n, dk)
            rd = build_resonance(spec, tol=1e-8)
            assert rd.dim_ker == dk
            lhs = rd.offrange_proj @ (spec.xi ** (2 * spec.ord.alpha - 1) * spec.a_op - np.eye(n))
            rhs = (spec.xi**spec.ord.alpha - 1.0) * rd.offrange_proj
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-13

    def test_lift_maps_cokernel_onto_kernel(self):
        # J = K C^T reads only the cokernel and lands in the kernel, and
        # is an isometry between the two.
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            dk = int(rng.integers(1, n))
            rd = build_resonance(make_resonant_spec(rng, n, dk), tol=1e-8)
            j = rd.lift
            assert np.abs(j @ rd.offrange_proj - j).max() <= 1e-14
            assert np.abs(rd.kernel_proj @ j - j).max() <= 1e-14
            np.testing.assert_allclose(j.T @ j, rd.offrange_proj, atol=1e-14)
