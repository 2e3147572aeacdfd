import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import element_samples, load_benchmark_module, make_resonant_spec

from resbvp import (
    DomainElement,
    GridFn,
    Order,
    ProblemSpec,
    RhsEvaluationError,
    SolveOptions,
    apply_rhs,
    boundary_functional,
    build_resonance,
    build_section4,
    eval_rhs,
    fixed_point_map,
    frac_integral,
    oriented_lift,
    partial_inverse,
    residuals,
    solve,
)
from resbvp import resonance, solver
from resbvp.cli import parse_config

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
            return 0.1 * v + t[:, None]

        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), counting, 64)
        apply_rhs(spec, DomainElement(np.ones(3), GridFn.zeros(64, 3)))
        assert calls == [((65,), (65, 3), (65, 3))]
        calls.clear()
        # One call per iterate (the start's serves the probe and the first
        # step), dim_ker for the kernel-gain probe's secants and one for
        # the residuals; the mixed steps add none.
        report = solve(spec, sec4_rdata, SolveOptions(max_iter=5))
        assert report.iterations == 5
        assert calls == [((65,), (65, 3), (65, 3))] * (report.iterations + sec4_rdata.dim_ker + 1)

    def test_vector_return_names_expected_shape(self):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros(3), 64
        )
        with pytest.raises(RhsEvaluationError, match=r"shape \(3,\), expected \(65, 3\)"):
            apply_rhs(spec, DomainElement.zero(64, 3))

    def test_stacked_call_names_first_non_finite_row(self):
        # Two stacked 65-node elements: row 40 has a NaN, row 41 an inf.
        t = np.tile(np.linspace(0.0, 1.0, 65), 2)
        f = np.zeros((130, 3))
        f[40, 2], f[41, 0] = np.nan, np.inf
        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: f, 64)
        with pytest.raises(RhsEvaluationError, match=r"non-finite values at node 40 \(t = 0\.625\)"):
            eval_rhs(spec, t, np.zeros((130, 3)), np.zeros((130, 3)))

    def test_finite_block_is_returned_unchanged(self):
        t = np.tile(np.linspace(0.0, 1.0, 65), 2)
        f = np.random.default_rng(0).standard_normal((130, 3))
        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: f, 64)
        out = eval_rhs(spec, t, np.zeros((130, 3)), np.zeros((130, 3)))
        assert np.array_equal(out.view(np.int64), f.view(np.int64))


class TestFixedPointMap:
    def test_zero_rhs_reaches_fixed_point_in_two_steps(self, sec4_rdata):
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        x0 = DomainElement(np.array([1.0, -2.0, 3.0]), GridFn.zeros(64, 3))
        x1 = fixed_point_map(spec, sec4_rdata, x0.coef, apply_rhs(spec, x0))
        np.testing.assert_allclose(x1.coef, [0.0, 0.0, 3.0], atol=1e-15)
        assert not x1.source.values.any()
        x2 = fixed_point_map(spec, sec4_rdata, x1.coef, apply_rhs(spec, x1))
        np.testing.assert_array_equal(x1.coef, x2.coef)

    def test_solvability_defect_isolated_off_range(self, sec4_spec, sec4_rdata):
        # R coef' - h(source') lies in the range of the complementary
        # projector: its range-side part vanishes.
        rng = np.random.default_rng(8)
        x = DomainElement(rng.standard_normal(3), GridFn(rng.standard_normal((257, 3))))
        x1 = fixed_point_map(sec4_spec, sec4_rdata, x.coef, apply_rhs(sec4_spec, x))
        gap = sec4_rdata.matrix @ x1.coef - boundary_functional(x1.source.values, sec4_spec)
        assert np.linalg.norm(sec4_rdata.matrix @ sec4_rdata.pinv @ gap) <= 1e-8

    def test_damped_iteration_contracts(self, sec4_spec, sec4_rdata):
        # From the +2 kernel start, above the rhs switch at ||v|| = 1, the
        # mixed differences are not monotone (1.01, 0.534, 0.533, ...,
        # 8.73e-8, 8.76e-8, ...), but the solve converges and its last
        # difference meets the tolerance, far below the first.
        c0 = sec4_rdata.kernel @ np.full(sec4_rdata.dim_ker, 2.0)
        start = DomainElement(c0, GridFn.zeros(sec4_spec.grid_n, sec4_spec.dim))
        opts = SolveOptions(relax=0.5, max_iter=60, initial=start)
        report = solve(sec4_spec, sec4_rdata, opts)
        diffs = report.diff_history
        assert report.converged
        assert diffs[-1] <= opts.tol_fixed_point
        assert diffs[-1] <= 1e-6 * diffs[0]


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
        assert np.linalg.norm(sec4_rdata.offrange_proj @ boundary_functional(g.values, spec)) <= 1e-15
        report = solve(spec, sec4_rdata, SolveOptions(relax=1.0, max_iter=10))
        assert report.converged
        assert report.iterations <= 3
        closed = partial_inverse(g, spec, sec4_rdata)
        xv = element_samples(report.element, spec.ord)[0]
        cv = element_samples(closed, spec.ord)[0]
        assert np.abs(xv - cv).max() <= 1e-8

    def test_section4_end_to_end(self, sec4_spec, sec4_rdata):
        report = solve(sec4_spec, sec4_rdata)
        assert report.converged and not report.diverged
        r = report.residuals
        assert r.right_bc_defect <= 1e-5
        assert r.solvability_defect <= 1e-6
        assert r.pde_residual <= 1e-2

    @pytest.mark.parametrize("xi", [0.3, 1 / math.sqrt(2)], ids=["0.3", "1-over-sqrt2"])
    def test_affine_solve_with_xi_between_nodes(self, xi, tmp_path):
        # A' = A (1/4 / xi)^(alpha-1) keeps the seed-0 affine problem's R at an
        # xi that is no node of its N = 1024 grid.
        workloads = load_benchmark_module("workloads")
        workloads.write_affine_inputs(0, tmp_path)
        spec, _, _ = parse_config(str(tmp_path / workloads.AFFINE_CONFIG))
        spec = dataclasses.replace(spec, xi=xi, a_op=spec.a_op * (0.25 / xi) ** spec.ord.alpha_m1)
        report = solve(spec, build_resonance(spec))
        assert report.converged
        assert report.residuals.right_bc_defect <= SolveOptions().tol_residual

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

    def test_max_iter_must_be_an_integer(self, sec4_spec, sec4_rdata):
        # A cap of 1.5 would never apply: len(history) == 1.5 is never true.
        with pytest.raises(ValueError, match="max_iter must be an integer, got 1.5"):
            SolveOptions(max_iter=1.5)
        assert solve(sec4_spec, sec4_rdata, SolveOptions(max_iter=np.int64(1))).iterations == 1

    def test_returned_element_views_one_state_array(self, sec4_spec, sec4_rdata):
        # solve iterates on one flat array s = coef || source; the element is a view of it.
        x = solve(sec4_spec, sec4_rdata).element
        state = x.coef.base
        assert state is not None and x.source.values.base is state
        assert state.size == x.coef.size + x.source.values.size
        assert not (x.coef.flags.writeable or x.source.values.flags.writeable)

    def test_divergence_flag(self, sec4_rdata):
        def explosive(t, u, v):
            return 10.0 * u + np.array([1e6, 1e6, 1e6])

        spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), explosive, 64)
        report = solve(spec, sec4_rdata, SolveOptions(relax=1.0, max_iter=100))
        assert report.diverged
        assert not report.converged

    @pytest.mark.parametrize("field", ["tol_fixed_point", "tol_residual"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_options_reject_nonpositive_tolerances(self, field, bad):
        # A NaN tol_fixed_point never stops the iteration and a NaN
        # tol_residual never lets it converge.
        with pytest.raises(ValueError, match="tolerances must be positive"):
            SolveOptions(**{field: bad})

    @pytest.mark.parametrize("grid_n, dim", [(64, 3), (256, 2)], ids=["grid", "dimension"])
    def test_initial_off_the_spec_raises_up_front(self, sec4_spec, sec4_rdata, monkeypatch, grid_n, dim):
        calls = []
        monkeypatch.setattr(solver, "apply_rhs", lambda *args: calls.append(args))
        opts = SolveOptions(initial=DomainElement.zero(grid_n, dim))
        error = f"grid_n = {grid_n} and dimension {dim}; the problem has grid_n = 256 and dimension 3"
        with pytest.raises(ValueError, match=error):
            solve(sec4_spec, sec4_rdata, opts)
        assert not calls

    def test_seeded_kernel_initialization_deterministic(self, sec4_spec, sec4_rdata):
        rng = np.random.default_rng(7)
        c0 = sec4_rdata.kernel @ (0.5 * rng.standard_normal(sec4_rdata.dim_ker))
        opts = SolveOptions(initial=DomainElement(c0, GridFn.zeros(sec4_spec.grid_n, sec4_spec.dim)))
        r1 = solve(sec4_spec, sec4_rdata, opts)
        r2 = solve(sec4_spec, sec4_rdata, opts)
        np.testing.assert_array_equal(r1.element.coef, r2.element.coef)

    def test_degenerate_mixing_fit_falls_back(self, sec4_rdata, monkeypatch):
        # With a zero rhs the damped map is linear: one mixed step lands on
        # the fixed point, after which the two stored residual differences
        # are parallel.  That fit's Gram matrix is singular, so the step
        # falls back to the damped one instead of producing NaN.
        spec = ProblemSpec(
            Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), lambda t, u, v: np.zeros_like(u), 64
        )
        fits = []
        fit = solver._mixing_coefficients

        def recording(dfs, f):
            fits.append(fit(dfs, f))
            return fits[-1]

        monkeypatch.setattr(solver, "_mixing_coefficients", recording)
        rng = np.random.default_rng(1)
        x0 = DomainElement(rng.standard_normal(3), GridFn(rng.standard_normal((65, 3))))
        report = solve(spec, sec4_rdata, SolveOptions(initial=x0))
        assert report.converged
        assert fits[0] is not None and fits[-1] is None
        assert all(math.isfinite(d) for d in report.diff_history)
        np.testing.assert_allclose(report.element.coef, sec4_rdata.kernel_proj @ x0.coef, atol=1e-15)
        assert not report.element.source.values.any()
        # A vanishing residual difference is refused the same way.
        assert fit([np.zeros(5)], np.ones(5)) is None

    @pytest.mark.parametrize("k", [1, 4])
    def test_peak_memory_below_eleven_grid_arrays(self, k):
        # Each iterate's N x is released before the next one is computed,
        # and only x holds the state across it.  Beside that the loop holds
        # the mixing history, up to 2 * depth arrays; section4 converges in
        # three steps, so it holds at most four.  The traced peak is 10.72
        # (N+1) x dim arrays at k=1 and 10.20 at k=4, inside the loop.
        n = 4096
        spec = build_section4(k, n)
        rdata = build_resonance(spec)
        solve(spec, rdata)  # fill the quadrature weight caches
        tracemalloc.start()
        try:
            solve(spec, rdata)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11 * (n + 1) * spec.dim * 8

    def test_peak_memory_with_full_mixing_history(self, tmp_path):
        # The seeded affine solve takes 13 steps, so its history fills to
        # depth 4: x and 2 * depth arrays are held across each N x.  The
        # traced peak is 14.51 (N+1) x dim arrays, inside the loop.
        workloads = load_benchmark_module("workloads")
        workloads.write_affine_inputs(0, tmp_path)
        spec, _, _ = parse_config(str(tmp_path / workloads.AFFINE_CONFIG))
        rdata = build_resonance(spec)
        solve(spec, rdata)  # fill the quadrature weight caches
        tracemalloc.start()
        try:
            report = solve(spec, rdata)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.iterations > solver._MIX_DEPTH
        assert peak < 15 * (spec.grid_n + 1) * spec.dim * 8


class TestOrientedLift:
    @pytest.mark.parametrize("seed", range(10))
    def test_affine_gain_matches_closed_form(self, seed, tmp_path):
        workloads = load_benchmark_module("workloads")
        workloads.write_affine_inputs(seed, tmp_path)
        spec, _, _ = parse_config(str(tmp_path / workloads.AFFINE_CONFIG))
        rdata = build_resonance(spec)
        # f = C u + D v + g with C K = 0 and D K = d K: a kernel shift
        # c t^(alpha-1) changes f by the constant d Gamma(alpha) c, whose h
        # is (xi^alpha A - I) c / Gamma(alpha + 1) = (xi - 1) c / Gamma(alpha + 1)
        # (A c = xi^(1-alpha) c on the kernel).  The kernel is the cokernel,
        # so the obstruction keeps it with the factor kappa and J is the identity on it.
        alpha, xi = spec.ord.alpha, spec.xi
        closed = workloads.AFFINE_D_DIAG * rdata.proj_scale * (xi - 1.0) / alpha
        zero = DomainElement.zero(spec.grid_n, spec.dim)
        gain, _ = oriented_lift(spec, rdata, zero, apply_rhs(spec, zero))
        np.testing.assert_allclose(gain, closed * np.eye(rdata.dim_ker), rtol=0.0, atol=1e-7)
        # The rhs is affine, so G does not depend on the start.
        rng = np.random.default_rng(seed)
        x0 = DomainElement(
            rng.standard_normal(spec.dim), GridFn(rng.standard_normal((spec.grid_n + 1, spec.dim)))
        )
        gain_x0, _ = oriented_lift(spec, rdata, x0, apply_rhs(spec, x0))
        np.testing.assert_allclose(gain_x0, closed * np.eye(rdata.dim_ker), rtol=0.0, atol=1e-7)
        report = solve(spec, rdata)
        assert report.converged
        assert report.iterations <= 20
        np.testing.assert_array_equal(report.kernel_gain, gain)

    def test_rhs_blind_to_kernel_keeps_lift(self):
        spec = make_resonant_spec(np.random.default_rng(3), 4, 2)
        rdata = build_resonance(spec)
        off_kernel = np.eye(4) - rdata.kernel @ rdata.kernel.T
        spec = dataclasses.replace(spec, rhs=lambda t, u, v: (u + v) @ off_kernel + t[:, None])
        # At this start the secants' rounding noise (~1e-10) is of full
        # rank, so only the noise floor keeps G from being inverted.
        rng = np.random.default_rng(6)
        x0 = DomainElement(rng.standard_normal(4), GridFn(rng.standard_normal((65, 4))))
        w0 = apply_rhs(spec, x0)
        gain, lift = oriented_lift(spec, rdata, x0, w0)
        assert np.max(np.abs(gain)) < 1e-8
        assert lift is rdata.lift
        report = solve(spec, rdata, SolveOptions(max_iter=1, initial=x0))
        phi = fixed_point_map(spec, rdata, x0.coef, w0)
        np.testing.assert_array_equal(report.element.coef, 0.5 * x0.coef + 0.5 * phi.coef)

    def test_one_sweep_of_a_nonzero_source(self, monkeypatch):
        spec = build_section4(2, 256)
        rdata = build_resonance(spec)
        rng = np.random.default_rng(4)
        x0 = DomainElement(
            rng.standard_normal(spec.dim), GridFn(rng.standard_normal((spec.grid_n + 1, spec.dim)))
        )
        w0 = apply_rhs(spec, x0)
        # G by one apply_rhs per kernel direction.
        step = 1e-6 * max(1.0, float(np.linalg.norm(x0.coef)))
        h0 = boundary_functional(w0.values, spec)
        shifts = [
            boundary_functional(apply_rhs(spec, DomainElement(x0.coef + e, x0.source)).values, spec) - h0
            for e in step * rdata.kernel.T
        ]
        expected = rdata.kernel.T @ rdata.lift @ rdata.obstruction(np.array(shifts)).T / step
        nonzero = []
        for module in (solver, resonance):
            original = module.frac_integral
            monkeypatch.setattr(
                module, "frac_integral", lambda y, a, f=original: nonzero.append(y.values.any()) or f(y, a)
            )
        gain, _ = oriented_lift(spec, rdata, x0, w0)
        assert nonzero == [True]
        np.testing.assert_allclose(gain, expected, rtol=1e-8, atol=1e-8 * np.abs(expected).max())

    def test_section4_kernel_starts_reach_zero_start_solution(self, sec4_spec, sec4_rdata):
        # The kernel coordinate settles within a few tol_fixed_point of its
        # limit; the tight tolerance keeps that below the 1e-8 share of the
        # smallest column scale (1e-3 of the largest column).
        opts = SolveOptions(tol_fixed_point=1e-13)

        def table(x):
            return np.column_stack(
                element_samples(x, sec4_spec.ord)
            )

        def trace_norm(x):
            return np.linalg.norm(element_samples(x, sec4_spec.ord)[1], axis=1)

        ref = solve(sec4_spec, sec4_rdata, opts)
        assert ref.converged
        # The solution lies below the rhs switch at ||v|| = 1 and the +-2
        # starts above it at every node, so those solves cross it.
        assert trace_norm(ref.element).max() < 1.0
        expected = table(ref.element)
        colmax = np.max(np.abs(expected), axis=0)
        scale = np.maximum(colmax, 1e-3 * colmax.max())
        for v in (-2.0, -0.5, 0.5, 2.0):
            c0 = sec4_rdata.kernel @ np.full(sec4_rdata.dim_ker, v)
            start = DomainElement(c0, GridFn.zeros(sec4_spec.grid_n, sec4_spec.dim))
            if abs(v) == 2.0:
                assert trace_norm(start).min() > 1.0
            report = solve(sec4_spec, sec4_rdata, dataclasses.replace(opts, initial=start))
            assert report.converged, v
            assert np.max(np.abs(table(report.element) - expected) / scale) <= 1e-8, v

    @pytest.mark.parametrize("k", [8, 16])
    def test_kernel_starts_converge_as_blocks_are_added(self, k):
        # Block b's kernel direction sees rhs values of about 8^-b, so G's
        # singular values fall 8x per block (2.7e-8 at k = 8); each
        # direction is judged by its own rounding level, and G is inverted.
        spec = build_section4(k, 1024)
        rdata = build_resonance(spec)
        for z0 in (0.5, 2.0):
            start = DomainElement(rdata.kernel @ np.full(rdata.dim_ker, z0), GridFn.zeros(1024, spec.dim))
            report = solve(spec, rdata, SolveOptions(max_iter=400, initial=start))
            assert report.converged and report.iterations <= 20, (z0, report.iterations)

    def test_forced_kernel_directions_do_not_depend_on_block_count(self):
        # sqrt(t) 2^-i on component i forces every kernel direction, so the
        # tail blocks are live; block 1 does not see them.
        def forced_block(k):
            spec = build_section4(k, 1024)
            base, weights = spec.rhs, 2.0 ** -np.arange(spec.dim)
            spec = dataclasses.replace(spec, rhs=lambda t, u, v: base(t, u, v) + np.sqrt(t)[:, None] * weights)
            report = solve(spec, build_resonance(spec), SolveOptions(tol_fixed_point=1e-13))
            assert report.converged, k
            return np.column_stack([s[:, :3] for s in report.residuals.samples])

        first = forced_block(4)
        for k in (8, 16):
            np.testing.assert_allclose(forced_block(k), first, rtol=0.0, atol=1e-12, err_msg=f"k = {k}")

    def test_zero_gain_keeps_lift(self):
        # R = I - xi^(alpha-1) A = [[0, 1], [0, 0]] exactly (xi^(1/2) = 1/2):
        # the kernel e1 is orthogonal to the cokernel e2, and f's second
        # component does not read the kernel coordinate, so G = 0.
        spec = ProblemSpec(
            Order(1.5), 0.25, np.array([[2.0, -2.0], [0.0, 2.0]]), lambda t, u, v: 0.5 * v + [0.2, 0.1], 64
        )
        rdata = build_resonance(spec)
        zero = DomainElement.zero(64, 2)
        gain, lift = oriented_lift(spec, rdata, zero, apply_rhs(spec, zero))
        assert not gain.any()
        assert lift is rdata.lift


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

    def test_samples_are_the_answer_on_the_grid(self, sec4_spec, sec4_rdata):
        # solution.csv is written from these samples.
        report = solve(sec4_spec, sec4_rdata)
        xv, tv = report.residuals.samples
        np.testing.assert_array_equal(xv, element_samples(report.element, sec4_spec.ord)[0])
        np.testing.assert_array_equal(tv, element_samples(report.element, sec4_spec.ord)[1])

    @pytest.mark.parametrize("max_iter", [1, 200])
    def test_report_residuals_belong_to_returned_element(self, sec4_spec, sec4_rdata, max_iter):
        report = solve(sec4_spec, sec4_rdata, SolveOptions(max_iter=max_iter))
        assert report.residuals == residuals(sec4_spec, sec4_rdata, report.element)

