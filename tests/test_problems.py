import math

import numpy as np
import pytest

from resbvp import (
    build_resonance,
    build_section4,
    check_special_conditions_fail,
    section4_growth,
    verify_section4,
)

SQRT_PI = math.sqrt(math.pi)


class TestBuildSection4:
    def test_block_structure_k1(self):
        spec = build_section4(1, 64)
        assert spec.dim == 3
        assert spec.ord.alpha == 1.5
        assert spec.xi == 0.25
        np.testing.assert_array_equal(spec.a_op, np.diag([1.5, 1.75, 2.0]))

    def test_resonance_matrix_and_pinv(self):
        rd = build_resonance(build_section4(1, 64))
        np.testing.assert_array_equal(rd.matrix, np.diag([0.25, 0.125, 0.0]))
        np.testing.assert_array_equal(rd.pinv, np.diag([4.0, 8.0, 0.0]))

    def test_kernel_dimension_scales_with_blocks(self):
        for k in (1, 2, 3):
            rd = build_resonance(build_section4(k, 64))
            assert rd.dim_ker == k

    def test_pinv_blocks_replicate(self):
        rd = build_resonance(build_section4(3, 64))
        np.testing.assert_array_equal(rd.pinv, np.kron(np.eye(3), np.diag([4.0, 8.0, 0.0])))

    def test_ep_defect_zero(self):
        rd = build_resonance(build_section4(2, 64))
        assert rd.ep_defect == 0.0

    def test_rhs_at_origin(self):
        spec = build_section4(2, 64)
        f = spec.rhs(np.zeros(1), np.zeros((1, 6)), np.zeros((1, 6)))
        np.testing.assert_allclose(f, [[0.1, 0, 0, 0, 0, 0]], atol=1e-15)

    def test_rhs_component_scaling(self):
        spec = build_section4(1, 64)
        u = np.array([0.0, 2.0, 3.0])
        v = np.array([0.0, 4.0, 5.0])  # ||v|| >= 1: switched branch, v1 = 0
        f = spec.rhs(np.array([0.3]), u[None], v[None])[0]
        assert f[0] == pytest.approx(-0.1)  # reciprocal at exact zero contributes 0
        assert f[1] == pytest.approx((2.0 + 4.0) / 20.0)
        assert f[2] == pytest.approx((3.0 + 5.0) / 40.0)

    def test_rhs_reciprocal_branch(self):
        spec = build_section4(1, 64)
        v = np.array([2.0, 0.0, 0.0])
        f = spec.rhs(np.zeros(1), np.zeros((1, 3)), v[None])[0]
        assert f[0] == pytest.approx((2.0 + 0.5 - 1.0) / 10.0)

    def test_batched_rhs_equals_row_by_row_reference(self):
        # The per-point form of the section4 rhs, applied one row at a time.
        inv_scales = np.array([1.0 / (5.0 * 2.0 ** (i + 1)) for i in range(1, 6)])

        def reference(u, v):
            f = np.empty(6)
            if np.linalg.norm(v) < 1.0:
                f[0] = 0.1
            else:
                rec = 1.0 / v[0] if abs(v[0]) > 1e-12 else 0.0
                f[0] = (v[0] + rec - 1.0) / 10.0
            f[1:] = (u[1:] + v[1:]) * inv_scales
            return f

        rng = np.random.default_rng(4)
        rows = []
        for v1 in (0.0, 1e-13, -1e-13, 1e-11, -1e-11):
            for a in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)):
                rows.append([v1, a, 0.0, 0.0, 0.0, 0.0])
            # Random direction in the tail, scaled to norm 1 up to rounding.
            d = rng.standard_normal(5)
            rows.append([v1, *(d / np.linalg.norm(d))])
        v = np.array(rows)
        u = rng.standard_normal(v.shape)
        t = rng.uniform(size=v.shape[0])
        f = build_section4(2, 64).rhs(t, u, v)
        expected = np.array([reference(u[j], v[j]) for j in range(v.shape[0])])
        np.testing.assert_array_equal(f, expected)
        # Both branches and both reciprocal cases are exercised.
        assert (f[:, 0] == 0.1).any() and (f[:, 0] != 0.1).any()
        assert (np.abs(f[:, 0]) > 1e9).any()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_section4(0)
        with pytest.raises(ValueError):
            build_section4(1, 50)  # xi = 1/4 off-grid


@pytest.fixture(scope="module")
def sec4_report():
    return verify_section4(1, 2048, seed=0)


class TestVerifySection4:
    @pytest.fixture()
    def report(self, sec4_report):
        return sec4_report

    def _check(self, report, name):
        found = [c for c in report.checks if c.name == name]
        assert len(found) == 1, name
        return found[0]

    def test_matrix_checks_pass(self, report):
        assert self._check(report, "resonance_matrix_blocks").passed
        assert self._check(report, "pseudoinverse_blocks").passed
        assert self._check(report, "kernel_dimension").passed
        assert self._check(report, "ep_defect").passed

    def test_block_shift_diagonal(self, report):
        for i, val in enumerate((-13.0 / 16.0, -25.0 / 32.0, -3.0 / 4.0)):
            c = self._check(report, f"block_xi_shift_{i + 1}")
            assert c.passed and c.expected == val

    def test_recorded_prefactor_discrepancy_reported(self, report):
        # The recorded target -8 sqrt(pi)/7 does not make the projection
        # idempotent; the implemented scale is -32/(7 sqrt(pi)).  The
        # report must carry the failure honestly.
        c = self._check(report, "obstruction_prefactor")
        assert not c.passed
        assert c.computed == pytest.approx(-32.0 / (7.0 * SQRT_PI), rel=1e-12)
        assert c.expected == pytest.approx(-8.0 * SQRT_PI / 7.0, rel=1e-12)

    def test_recorded_h_first_component_discrepancy_reported(self, report):
        rec = self._check(report, "h_kernel_feedback_first_recorded")
        comp = self._check(report, "h_kernel_feedback_first_computed")
        assert not rec.passed
        assert comp.passed
        assert comp.expected == pytest.approx(13.0 / (120.0 * SQRT_PI), rel=1e-12)

    def test_kernel_sign_check(self, report):
        assert self._check(report, "kernel_sign_strictly_positive").passed
        assert report.sign_min > 0.0

    def test_margins_and_solve(self, report):
        assert report.margins.ok
        assert report.solve.converged

    def test_notes_present(self, report):
        assert any("range" in note for note in report.notes)

    def test_quadrature_residuals_shrink_with_grid(self):
        r_small = verify_section4(1, 512, seed=0)
        r_large = verify_section4(1, 2048, seed=0)

        def resid(rep, name):
            return [c for c in rep.checks if c.name == name][0].residual

        for name in ("dhat_quadrature", "dtilde_quadrature"):
            assert resid(r_large, name) < resid(r_small, name)

    def test_multi_block_pinv_structure(self):
        rep = verify_section4(3, 512, seed=0)
        c = [c for c in rep.checks if c.name == "pseudoinverse_blocks"][0]
        assert c.passed


class TestSpecialConditions:
    def test_block_square_entries(self):
        rep = check_special_conditions_fail()
        np.testing.assert_allclose(
            np.diag(4.0 * rep.scaled_squared), [9.0 / 4.0, 49.0 / 16.0, 4.0], rtol=1e-15
        )

    def test_scaled_square_differs_from_scaled(self):
        rep = check_special_conditions_fail()
        # (B/2)^2 entry 9/16 vs B/2 entry 3/4.
        assert rep.scaled_squared[0, 0] == pytest.approx(9.0 / 16.0)
        assert rep.scaled[0, 0] == pytest.approx(3.0 / 4.0)
        assert rep.idempotent_fails

    def test_scaled_square_differs_from_identity(self):
        rep = check_special_conditions_fail()
        assert rep.scaled_squared[0, 0] != 1.0
        assert rep.involutive_fails


class TestGrowthSpecSection4:
    def test_tail_coefficient_value(self):
        g = section4_growth()
        assert g.lin_u == pytest.approx(1.0 / (5.0 * math.sqrt(3.0)), rel=1e-15)
        assert g.lin_u == g.lin_v

    def test_offset_family(self):
        g = section4_growth(radius=2.0)
        assert g.offset == pytest.approx((2.0 + 0.5 + 1.0) / 10.0)
