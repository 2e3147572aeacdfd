"""Acceptance suite: one criterion per test, stated tolerances pinned.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion with its measured numbers and runtime.

Three sub-checks are known-red and deliberately kept that way (the
recorded targets are inconsistent with the defining mathematics; the
assertions state the targets faithfully and fail with the computed
truth printed):

* C5 order: the product-trapezoidal rate on t^(1/2) data approaches 3/2
  strictly from below (measured 1.488..1.494 on the pinned grids), so
  "order >= 1.5" is unattainable by any piecewise-linear product rule.
* C6 prefactor: the recorded -8 sqrt(pi)/7 does not make the projection
  idempotent; idempotency (required by C4) pins -32/(7 sqrt(pi)).
* C6 boundary-functional first component: the recorded 11/(40 sqrt(pi))
  implies int_0^1 (1-s)^(1/2) ds = 3/2; the integral is 2/3 and the
  faithful value is 13/(120 sqrt(pi)), which the quadrature reproduces
  to 5e-14.
"""

import math
import time

import numpy as np
import pytest

from resbvp import (
    DomainElement,
    GridFn,
    Order,
    ProblemSpec,
    SolveOptions,
    apply_rhs,
    apriori_bound,
    boundary_functional,
    boundary_functional_power,
    build_resonance,
    build_section4,
    check_growth_margins,
    check_penrose,
    frac_integral,
    frac_integral_power,
    gamma,
    partial_inverse,
    pinv,
    power_rule,
    probe_kernel_sign,
    project_kernel,
    project_obstruction,
    section4_growth,
    solve,
    split_obstruction,
    PowerFn,
)
from conftest import element_samples, make_resonant_spec

SQRT_PI = math.sqrt(math.pi)


def _report(cid: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{cid}] {status} ({time.perf_counter() - started:.2f}s) {detail}")


@pytest.fixture(scope="module")
def sec4_256():
    spec = build_section4(1, 256)
    return spec, build_resonance(spec)


@pytest.fixture(scope="module")
def sec4_4096():
    spec = build_section4(1, 4096)
    rdata = build_resonance(spec)
    e = np.array([0.0, 0.0, 2.0])
    w = apply_rhs(spec, DomainElement(e, GridFn.zeros(4096, 3)))
    return spec, rdata, e, w


def test_c01_pseudoinverse_golden():
    t0 = time.perf_counter()
    res = pinv(np.diag([0.25, 0.125, 0.0]))
    resid = float(np.abs(res.pinv - np.diag([4.0, 8.0, 0.0])).max())
    ok = resid <= 1e-12
    _report("C01", ok, f"pinv(diag(1/4,1/8,0)) residual {resid:.2e} (tol 1e-12)", t0)
    assert ok


def test_c02_penrose_suite_100_random():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(2, 13))
        cols = int(rng.integers(2, 13))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
        s = np.zeros((rows, cols))
        s[:rank, :rank] = np.diag(rng.uniform(0.5, 3.0, size=rank))
        m = u @ s @ v.T
        check = check_penrose(m, pinv(m).pinv, 1e-10)
        worst = max(worst, max(check.residuals))
        assert check.passed
    _report("C02", True, f"100 random matrices, worst Penrose residual {worst:.2e} (tol 1e-10)", t0)


def test_c03_structural_identity_machine_precision():
    t0 = time.perf_counter()
    worst = 0.0
    specs = [build_section4(1, 64), build_section4(3, 64)]
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        specs.append(make_resonant_spec(rng, n, int(rng.integers(1, n))))
    for spec in specs:
        # explicit rank tolerance well separated from both the exact zeros
        # and the O(1) singular values of the constructed specs
        rd = build_resonance(spec, tol=1e-8)
        n = spec.dim
        lhs = rd.offrange_proj @ (spec.xi ** (2 * spec.ord.alpha - 1) * spec.a_op - np.eye(n))
        rhs = (spec.xi**spec.ord.alpha - 1.0) * rd.offrange_proj
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    ok = worst <= 1e-13
    _report("C03", ok, f"identity residual over {len(specs)} specs: {worst:.2e} (tol 1e-13)", t0)
    assert ok


def test_c04_projector_laws(sec4_256):
    t0 = time.perf_counter()
    spec, rdata = sec4_256
    rng = np.random.default_rng(4)
    worst_q = 0.0
    for _ in range(50):
        y = GridFn(rng.standard_normal((257, 3)))
        q = split_obstruction(y, spec, rdata)[0]
        qq = project_obstruction(q, spec, rdata)
        worst_q = max(worst_q, float(np.linalg.norm(qq.coef - q.coef)))
    p_exact = True
    k_exact = True
    for _ in range(50):
        x = DomainElement(rng.standard_normal(3), GridFn.zeros(256, 3))
        p1 = project_kernel(x, rdata)
        p2 = project_kernel(p1, rdata)
        p_exact &= bool(np.array_equal(p1.coef, p2.coef))
        y = GridFn(rng.standard_normal((257, 3)))
        kp = partial_inverse(y, spec, rdata)
        k_exact &= not project_kernel(kp, rdata).coef.any()
    ok = worst_q <= 1e-8 and p_exact and k_exact
    _report(
        "C04",
        ok,
        f"QQ=Q worst {worst_q:.2e} (tol 1e-8); P idempotent exactly: {p_exact}; "
        f"K range in ker P exactly: {k_exact}",
        t0,
    )
    assert ok


def _sqrt_data_errors():
    errs = []
    for n in (128, 256, 512, 1024):
        t = np.linspace(0.0, 1.0, n + 1)
        out = frac_integral(GridFn(np.sqrt(t)), 1.5)
        errs.append(float(np.abs(out.values.ravel() - SQRT_PI / 4.0 * t**2).max()))
    return errs


def test_c05a_convergence_final_error():
    t0 = time.perf_counter()
    errs = _sqrt_data_errors()
    ok = errs[-1] <= 1e-5
    _report("C05a", ok, f"sup error at N=1024: {errs[-1]:.2e} (tol 1e-5)", t0)
    assert ok


def test_c05b_empirical_order_at_least_three_halves():
    # Stated criterion: empirical order >= 1.5 across N in {128..1024}.
    # The product-trapezoidal rate on t^(1/2) data approaches 1.5 from
    # below (the subleading quadrature terms share the sign of the
    # leading h^(3/2) term), so this assertion is expected to fail; see
    # the module docstring and the repository notes.
    t0 = time.perf_counter()
    errs = _sqrt_data_errors()
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    fit = np.polyfit(np.log([128, 256, 512, 1024]), np.log(errs), 1)[0]
    order = -fit
    ok = order >= 1.5
    _report(
        "C05b",
        ok,
        f"fitted order {order:.4f}, per-doubling {['%.4f' % o for o in orders]} (required >= 1.5)",
        t0,
    )
    assert ok, (
        f"empirical order {order:.4f} < 1.5: the 3/2 rate is approached strictly "
        f"from below on these grids (per-doubling orders {orders})"
    )


def test_c05c_power_rule_identity_exact_path():
    t0 = time.perf_counter()
    resid = abs(power_rule(-0.5, 0.5) - SQRT_PI)
    out = frac_integral_power(PowerFn(np.array([1.0]), -0.5), 0.5)
    resid = max(resid, abs(out.coef[0] - SQRT_PI), abs(out.exponent))
    ok = resid <= 1e-13
    _report("C05c", ok, f"I^(1/2) t^(-1/2) = gamma(1/2) exact-path residual {resid:.2e}", t0)
    assert ok


def test_c06a_golden_constants_quadrature(sec4_4096):
    t0 = time.perf_counter()
    spec, rdata, e, w = sec4_4096
    diag_mat = np.diag([1.5, 1.75, 2.0]) * spec.xi**1.5 - np.eye(3)
    diag_resid = float(
        np.abs(np.diag(diag_mat) - np.array([-13.0 / 16.0, -25.0 / 32.0, -3.0 / 4.0])).max()
    )
    iv = frac_integral(w, 1.5).values
    ga = gamma(1.5)
    dhat_quad = ga * iv[4096 // 4][2] / (0.1 * 2.0 / 4.0)
    dtil_quad = ga * iv[4096][2] / (0.1 * 2.0 / 4.0)
    dhat_resid = abs(dhat_quad - (math.pi / 128.0 + SQRT_PI / 24.0))
    dtil_resid = abs(dtil_quad - (math.pi / 8.0 + SQRT_PI / 3.0))
    ok = diag_resid == 0.0 and dhat_resid <= 1e-6 and dtil_resid <= 1e-6
    _report(
        "C06a",
        ok,
        f"diag residual {diag_resid:.1e}; dhat {dhat_resid:.2e}, dtilde {dtil_resid:.2e} "
        f"(tol 1e-6, N=4096)",
        t0,
    )
    assert ok


def test_c06b_obstruction_prefactor_recorded_value(sec4_256):
    # Stated criterion: prefactor equals -8 sqrt(pi)/7 to 1e-12.  The
    # implemented scale is pinned by idempotency (criterion C04) to
    # gamma(2a)/(gamma(a)(xi^a - 1)) = -32/(7 sqrt(pi)); the recorded
    # value rescales it by gamma(alpha)^2 and cannot coexist with C04.
    t0 = time.perf_counter()
    _, rdata = sec4_256
    recorded = -8.0 * SQRT_PI / 7.0
    resid = abs(rdata.proj_scale - recorded)
    ok = resid <= 1e-12
    _report(
        "C06b",
        ok,
        f"prefactor computed {rdata.proj_scale:.12f} vs recorded {recorded:.12f} "
        f"(residual {resid:.3e}, tol 1e-12)",
        t0,
    )
    assert ok, (
        f"implemented prefactor {rdata.proj_scale} (idempotency-pinned) differs from "
        f"recorded {recorded}; the recorded value breaks Q idempotency by gamma(3/2)^2"
    )


def test_c06c_boundary_functional_first_component_recorded_value(sec4_4096):
    # Stated criterion: first component equals 11/(40 sqrt(pi)) to 1e-6.
    # Evaluating the defining integrals gives 13/(120 sqrt(pi)); the
    # recorded value uses 3/2 for int_0^1 (1-s)^(1/2) ds = 2/3.
    t0 = time.perf_counter()
    spec, _, _, w = sec4_4096
    h1 = float(boundary_functional(w.values, spec)[0])
    recorded = 11.0 / (40.0 * SQRT_PI)
    computed_truth = 13.0 / (120.0 * SQRT_PI)
    resid = abs(h1 - recorded)
    ok = resid <= 1e-6
    _report(
        "C06c",
        ok,
        f"first component {h1:.12f}; recorded {recorded:.12f} (residual {resid:.3e}, tol 1e-6); "
        f"defining-integral value {computed_truth:.12f} (residual {abs(h1 - computed_truth):.1e})",
        t0,
    )
    assert ok, (
        f"h first component {h1} matches the defining integrals ({computed_truth}) "
        f"to {abs(h1 - computed_truth):.1e} but not the recorded {recorded}"
    )


def test_c07_condition_margins():
    t0 = time.perf_counter()
    m = check_growth_margins(Order(1.5), section4_growth())
    ok = (
        abs(m.lhs - 0.886227) <= 1e-6
        and abs(m.rhs_u - 0.230940) <= 1e-6
        and abs(m.quotient - 0.124) <= 5e-4
        and m.quotient < 1.0
        and m.ok
    )
    _report(
        "C07",
        ok,
        f"lhs {m.lhs:.6f} vs 0.886227; rhs {m.rhs_u:.6f} vs 0.230940; quotient {m.quotient:.6f} < 1",
        t0,
    )
    assert ok


def test_c08_kernel_sign_all_block_counts():
    t0 = time.perf_counter()
    mins = {}
    for k in (1, 2, 3):
        spec = build_section4(k, 512)
        rdata = build_resonance(spec)
        probe = probe_kernel_sign(spec, rdata, kernel_level=1.0, sample_count=50, seed=0)
        mins[k] = probe.min_inner
        assert probe.strict_sign == "positive", (k, probe.min_inner, probe.max_inner)
    ok = all(v > 0 for v in mins.values())
    _report(
        "C08",
        ok,
        "50 samples each at k=1,2,3; min inner products "
        + ", ".join(f"k={k}: {v:.3e}" for k, v in mins.items()),
        t0,
    )
    assert ok


def test_c09_solver_oracle_solvable_forcing(sec4_256):
    t0 = time.perf_counter()
    _, rdata = sec4_256
    n = 256
    z = np.array([1.0, 1.0, 1.0])
    gvec = rdata.matrix @ z  # forcing inside the range (diagonal blocks)

    def rhs(t, u, v):
        return np.outer(1.0 + t, gvec)

    spec = ProblemSpec(Order(1.5), 0.25, np.diag([1.5, 1.75, 2.0]), rhs, n)
    t_nodes = np.linspace(0.0, 1.0, n + 1)
    g = GridFn(np.outer(1.0 + t_nodes, gvec))
    assert np.linalg.norm(rdata.offrange_proj @ boundary_functional(g.values, spec)) <= 1e-14
    report = solve(spec, rdata, SolveOptions(relax=1.0, max_iter=10))
    closed = partial_inverse(g, spec, rdata)
    diff = float(
        np.abs(element_samples(report.element, spec.ord)[0] - element_samples(closed, spec.ord)[0]).max()
    )
    # quadrature tolerance at N=256, self-calibrated on t^(1/2) data
    t256 = np.linspace(0.0, 1.0, 257)
    quad_tol = float(
        np.abs(frac_integral(GridFn(np.sqrt(t256)), 1.5).values.ravel() - SQRT_PI / 4.0 * t256**2).max()
    )
    ok = report.converged and report.iterations <= 3 and diff <= 10.0 * quad_tol
    _report(
        "C09",
        ok,
        f"converged in {report.iterations} iters; node-wise diff from closed form {diff:.2e} "
        f"(allowed {10.0 * quad_tol:.2e})",
        t0,
    )
    assert ok


def test_c10_end_to_end_section4(sec4_256):
    t0 = time.perf_counter()
    spec, rdata = sec4_256
    r1 = solve(spec, rdata)
    r2 = solve(spec, rdata)
    res = r1.residuals
    deterministic = bool(
        np.array_equal(r1.element.coef, r2.element.coef)
        and np.array_equal(r1.element.source.values, r2.element.source.values)
    )
    ok = (
        r1.converged
        and res.right_bc_defect <= 1e-5
        and res.solvability_defect <= 1e-6
        and res.pde_residual <= 1e-2
        and deterministic
    )
    _report(
        "C10",
        ok,
        f"converged {r1.converged} in {r1.iterations} iters; right bc {res.right_bc_defect:.2e} "
        f"(1e-5), solvability {res.solvability_defect:.2e} (1e-6), pde {res.pde_residual:.2e} "
        f"(1e-2), deterministic {deterministic}",
        t0,
    )
    assert ok


def test_c11_apriori_bound_estimator():
    t0 = time.perf_counter()
    z1, _ = apriori_bound((0.1, 0.5, 0.2), (0.5, 0.1, 0.3))
    resid = abs(z1 - 2.0 / 3.0)
    rejected = False
    try:
        apriori_bound((0.0, 1.1, 0.0), (1.1, 0.0, 0.0))
    except ValueError:
        rejected = True
    ok = resid <= 1e-10 and rejected
    _report("C11", ok, f"linear closed form residual {resid:.2e} (tol 1e-10); rejection {rejected}", t0)
    assert ok
