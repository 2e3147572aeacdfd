import math

import numpy as np
import pytest

import resbvp.problems as problems
from resbvp import (
    build_resonance,
    build_section4,
    section4_growth,
    solve,
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
        # The per-point form of the section4 rhs, applied one row at a time,
        # compared bit for bit (-0.0 and 0.0 are told apart) at n = 1 to 12.
        guard = problems._RECIPROCAL_GUARD

        def reference(u, v):
            f = np.empty(u.size)
            if np.linalg.norm(v) < 1.0:
                f[0] = 0.1
            else:
                rec = 1.0 / v[0] if abs(v[0]) > guard else 0.0
                f[0] = (v[0] + rec - 1.0) / 10.0
            f[1:] = (u[1:] + v[1:]) * np.array([1.0 / (5.0 * 2.0 ** (i + 1)) for i in range(1, u.size)])
            return f

        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 6, 12):
            pad = [0.0] * (n - 1)
            rows = [[s * a, *pad] for s in (1.0, -1.0) for a in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))]
            negative_zero = len(rows)
            rows.append([-0.0] * n)
            for v1 in (0.0, -0.0, guard, -guard, 1e-13, -1e-13, 1e-11, -1e-11):
                rows.append([v1, *pad])
                if n > 1:
                    for a in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)):
                        rows.append([v1, a, *pad[1:]])
                    # Random direction in the tail, scaled to norm 1 up to rounding.
                    d = rng.standard_normal(n - 1)
                    rows.append([v1, *(d / np.linalg.norm(d))])
            v = np.array(rows)
            u = rng.standard_normal(v.shape)
            u[negative_zero] = -0.0  # with v's row of -0.0, every tail entry is -0.0
            t = rng.uniform(size=v.shape[0])
            f = problems._section4_rhs(n)(t, u, v)
            expected = np.array([reference(u[j], v[j]) for j in range(v.shape[0])])
            assert f.shape == expected.shape
            np.testing.assert_array_equal(f.view(np.int64), expected.view(np.int64), err_msg=f"n = {n}")
            assert not np.shares_memory(f, u) and not np.shares_memory(f, v)
            # Both branches are exercised, and a reciprocal above the guard where ||v|| >= 1.
            assert (f[:, 0] == 0.1).any() and (f[:, 0] != 0.1).any()
            assert n == 1 or (np.abs(f[:, 0]) > 1e9).any()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_section4(0)


def verify(k, grid_n):
    spec = build_section4(k, grid_n)
    return verify_section4(spec, build_resonance(spec), seed=0)


@pytest.fixture(scope="module")
def sec4_report():
    return verify(1, 2048)


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
        assert report.kernel_probe.min_inner > 0.0

    def test_probes_on_the_problem_grid(self, monkeypatch):
        grids = []
        original = problems.probe_kernel_sign

        def recording(spec, *args, **kwargs):
            grids.append(spec.grid_n)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(problems, "probe_kernel_sign", recording)
        verify(1, 2048)
        assert grids == [2048]

    def test_notes_present(self, report):
        assert any("range" in note for note in report.notes)

    def test_quadrature_residuals_shrink_with_grid(self):
        r_small = verify(1, 512)
        r_large = verify(1, 2048)

        def resid(rep, name):
            return [c for c in rep.checks if c.name == name][0].residual

        for name in ("dhat_quadrature", "dtilde_quadrature"):
            assert resid(r_large, name) < resid(r_small, name)

    def test_multi_block_pinv_structure(self):
        rep = verify(3, 512)
        c = [c for c in rep.checks if c.name == "pseudoinverse_blocks"][0]
        assert c.passed


@pytest.fixture(scope="module")
def removed_conditions():
    """The two removed-condition golden checks of verify_section4 at k = 1 and k = 3."""
    return [
        {c.name: c for c in verify(k, 512).checks if c.name.startswith("removed_condition_")} for k in (1, 3)
    ]


class TestSpecialConditions:
    # S = xi^(alpha-1) A = A / 2 has blocks B/2 = diag(3/4, 7/8, 1), and
    # (B/2)^2 = B^2 / 4 = diag(9/16, 49/64, 1).  Both defects are exact in binary.
    def test_block_square_entries(self, removed_conditions):
        scaled = np.array(problems.BLOCK_DIAGONAL) / 2.0
        np.testing.assert_array_equal(4.0 * scaled**2, [9.0 / 4.0, 49.0 / 16.0, 4.0])
        for checks in removed_conditions:
            assert checks["removed_condition_idempotent_defect"].computed == np.max(np.abs(scaled**2 - scaled))
            assert checks["removed_condition_involutive_defect"].computed == np.max(np.abs(scaled**2 - 1.0))
            assert sorted(checks) == ["removed_condition_idempotent_defect", "removed_condition_involutive_defect"]
            assert all(c.passed and c.residual == 0.0 for c in checks.values())

    def test_scaled_square_differs_from_scaled(self, removed_conditions):
        # (B/2)^2 entry 9/16 vs B/2 entry 3/4: S^2 = S fails by 3/16.
        for checks in removed_conditions:
            c = checks["removed_condition_idempotent_defect"]
            assert c.computed == abs(9.0 / 16.0 - 3.0 / 4.0) == 3.0 / 16.0

    def test_scaled_square_differs_from_identity(self, removed_conditions):
        # (B/2)^2 entry 9/16 vs 1: S^2 = I fails by 7/16.
        for checks in removed_conditions:
            c = checks["removed_condition_involutive_defect"]
            assert c.computed == 1.0 - 9.0 / 16.0 == 7.0 / 16.0


class TestGrowthSpecSection4:
    def test_tail_coefficient_value(self):
        g = section4_growth()
        assert g.lin_u == pytest.approx(1.0 / (5.0 * math.sqrt(3.0)), rel=1e-15)
        assert g.lin_u == g.lin_v

    def test_offset_family(self):
        g = section4_growth(radius=2.0)
        assert g.offset == pytest.approx((2.0 + 0.5 + 1.0) / 10.0)


class TestSection4ClosedForm:
    """From the zero start the solve reaches section4's solution in closed form.

    The trace stays below the rhs switch at ||v|| = 1 (its largest value is
    13/60), so f_1 is the constant 0.1 and the right condition fixes x_1's
    kernel coefficient; the other components solve homogeneous equations.
    The rule is exact on a constant source, so only rounding is left: x
    within 64 eps, and the trace within 64 eps max(1, N/256), since its
    sequential cumulative sum rounds about linearly in N.
    """

    @pytest.mark.parametrize(
        "k, grid_n", [(1, 256), (4, 256), (16, 256), (1, 4096), (4, 4096), (16, 4096), (1, 65536)]
    )
    def test_solve_from_zero_start(self, k, grid_n):
        spec = build_section4(k, grid_n)
        report = solve(spec, build_resonance(spec))
        assert report.converged
        x, trace = report.residuals.samples
        t = report.element.source.nodes
        eps = np.finfo(float).eps
        x1 = (-0.325 * np.sqrt(t) + 0.1 * t**1.5) / math.gamma(2.5)
        assert np.max(np.abs(x[:, 0] - x1)) <= 64 * eps
        assert np.max(np.abs(trace[:, 0] - (-13 / 60 + t / 10))) <= 64 * eps * max(1, grid_n / 256)
        assert not x[:, 1:].any() and not trace[:, 1:].any()
