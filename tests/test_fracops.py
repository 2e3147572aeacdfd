import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resbvp import (
    GridFn,
    Order,
    PowerFn,
    cumulative_integral,
    derivative_of_integral,
    frac_derivative,
    frac_integral,
    frac_integral_at,
    frac_integral_power,
    gamma,
    power_rule,
)
from resbvp.cli import main
from resbvp.fracops import (
    _fft_size,
    _grid_weights,
    _point_weights,
    _product_trapezoid_weights,
    _roundtrip_weights,
    _trapezoid_weights,
    _weights_at,
)

SQRT_PI = math.sqrt(math.pi)


class TestGamma:
    def test_gamma_one(self):
        assert gamma(1.0) == 1.0

    def test_gamma_half_against_reflection(self):
        # Reflection at x = 1/2: gamma(1/2)^2 = pi / sin(pi/2) = pi.
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_gamma_2p5_by_recurrence_from_half(self):
        expected = 1.5 * 0.5 * SQRT_PI
        assert gamma(2.5) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            gamma(bad)

    @given(st.floats(min_value=0.1, max_value=49.0))
    @settings(max_examples=50, deadline=None)
    def test_recurrence_property(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=24.0))
    @settings(max_examples=50, deadline=None)
    def test_duplication_formula(self, x):
        # Legendre duplication: gamma(2x) = gamma(x) gamma(x+1/2) 2^(2x-1)/sqrt(pi),
        # an independent functional identity across the contract range.
        lhs = gamma(2.0 * x)
        rhs = gamma(x) * gamma(x + 0.5) * 2.0 ** (2.0 * x - 1.0) / SQRT_PI
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_relative_accuracy_against_high_precision_reference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        xs = np.concatenate([np.linspace(0.1, 2.0, 39), np.linspace(2.0, 50.0, 97)])
        worst = 0.0
        for x in xs:
            ref = float(mp.gamma(mp.mpf(float(x))))
            worst = max(worst, abs(gamma(float(x)) - ref) / ref)
        assert worst <= 1e-13


class TestPowerRule:
    def test_remark_identity_half(self):
        # The degenerate constant case: I^(1/2) of t^(-1/2) is gamma(1/2).
        assert power_rule(-0.5, 0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_unit_integral_of_one(self):
        assert power_rule(0.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_half_through_gamma_recurrence(self):
        assert power_rule(0.5, 1.5) == pytest.approx(SQRT_PI / 4.0, rel=1e-14)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            power_rule(-1.0, 0.5)


def _nodes(n):
    return np.linspace(0.0, 1.0, n + 1)


class TestFracIntegral:
    def test_zero_input(self):
        out = frac_integral(GridFn.zeros(64, 2), 1.5)
        assert not out.values.any()

    def test_constant_one_alpha_three_halves(self):
        # I^(3/2) 1 = t^(3/2)/gamma(5/2) = 4 t^(3/2) / (3 sqrt(pi)); the
        # rule is exact on constants so even 1e-12 is loose.
        n = 1024
        t = _nodes(n)
        out = frac_integral(GridFn(np.ones(n + 1)), 1.5)
        exact = 4.0 * t**1.5 / (3.0 * SQRT_PI)
        assert np.abs(out.values.ravel() - exact).max() <= 1e-12

    def test_linear_exact_classical_order(self):
        n = 64
        t = _nodes(n)
        out = frac_integral(GridFn(t.copy()), 1.0)
        np.testing.assert_allclose(out.values.ravel(), t**2 / 2.0, atol=1e-15)

    def test_exact_on_piecewise_linear_data(self):
        # The weights integrate the linear interpolant exactly, so affine
        # data reproduces the closed form up to rounding for every order.
        n = 64
        t = _nodes(n)
        y = GridFn(2.0 * t + 1.0)
        # Off the nodes too: tau = N t anywhere in [0, N].
        taus = [0.0, 1e-9, 0.3, 1.0, 1.7, 2.5, 15.5, 31.999, 63.25, 64.0]
        s = np.array(taus) / n
        for a in (0.5, 1.0, 1.5):
            exact = 2.0 * power_rule(1.0, a) * t ** (1.0 + a) + power_rule(0.0, a) * t**a
            out = frac_integral(y, a)
            assert np.abs(out.values.ravel() - exact).max() <= 1e-13
            exact = 2.0 * power_rule(1.0, a) * s ** (1.0 + a) + power_rule(0.0, a) * s**a
            assert np.abs(frac_integral_at(y.values, a, taus).ravel() - exact).max() <= 1e-13

    def test_sqrt_convergence_rate_and_final_error(self):
        # y = t^(1/2), exact I^(3/2) y = (sqrt(pi)/4) t^2.  The rate is
        # the singular-data rate 3/2, approached from below: measured
        # per-doubling orders run 1.487..1.494 on this range.
        errs = []
        for n in (128, 256, 512, 1024):
            t = _nodes(n)
            out = frac_integral(GridFn(np.sqrt(t)), 1.5)
            errs.append(np.abs(out.values.ravel() - SQRT_PI / 4.0 * t**2).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert errs[-1] <= 1e-5
        assert all(o >= 1.45 for o in orders)
        assert orders == sorted(orders)

    def test_linearity_of_fixed_weights(self):
        rng = np.random.default_rng(3)
        y = GridFn(rng.standard_normal((129, 2)))
        z = GridFn(rng.standard_normal((129, 2)))
        a, b = 1.7, -0.4
        lhs = frac_integral(GridFn(a * y.values + b * z.values), 1.5)
        rhs = a * frac_integral(y, 1.5).values + b * frac_integral(z, 1.5).values
        np.testing.assert_allclose(lhs.values, rhs, atol=1e-13)

    def test_semigroup_on_smooth_data(self):
        errs = {}
        for n in (128, 512):
            t = _nodes(n)
            y = GridFn(np.cos(2 * np.pi * t) + 0.5 * t)
            two_step = frac_integral(frac_integral(y, 0.6), 0.7)
            one_step = frac_integral(y, 1.3)
            errs[n] = np.abs(two_step.values - one_step.values).max()
        assert errs[128] <= 5e-4
        # measured order ~1.3; require at least first order under 4x refinement
        assert errs[512] <= errs[128] / 3.5

    def test_order_domain(self):
        y = GridFn.zeros(8, 1)
        with pytest.raises(ValueError):
            frac_integral(y, 0.0)
        with pytest.raises(ValueError):
            frac_integral(y, 2.5)
        with pytest.raises(ValueError):
            frac_integral_at(y.values, 2.5, [8])
        with pytest.raises(ValueError):
            frac_integral_at(y.values, 1.5, [9])


# Weight indices m in 1..32, 2^k and 2^k - 1 up to k = 20 (N = 2^20), and
# real m between them, as the point rule reads off the nodes.
WEIGHT_INDICES = sorted(
    set(range(1, 33)) | {2**k for k in range(21)} | {2**k - 1 for k in range(1, 21)} | {0.3, 1.7, 2.5, 15.5, 1000.25}
)


class TestQuadratureWeights:
    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 1.5, 1.95, 2.0])
    def test_weights_against_50_digit_reference(self, a):
        mp = pytest.importorskip("mpmath")
        b, w0 = _trapezoid_weights(a, np.array(WEIGHT_INDICES))
        worst_b = worst_w0 = 0.0
        with mp.workdps(50):
            am = mp.mpf(a)
            p = am + 1
            for i, m in enumerate(WEIGHT_INDICES):
                m = mp.mpf(m)
                below = max(m - 1, 0) ** p  # (m - 1)_+^p
                ref_b = (m + 1) ** p - 2 * m**p + below
                ref_w0 = below - (m - 1 - am) * m**am
                worst_b = max(worst_b, float(abs((mp.mpf(b[i]) - ref_b) / ref_b)))
                worst_w0 = max(worst_w0, float(abs((mp.mpf(w0[i]) - ref_w0) / ref_w0)))
        assert worst_b <= 1e-14
        assert worst_w0 <= 1e-14


def _direct_frac_integral(y: np.ndarray, a: float) -> np.ndarray:
    """The product-trapezoid sums of ``frac_integral`` by direct convolution."""
    n = y.shape[0] - 1
    b, w0, _ = _product_trapezoid_weights(a, n)
    out = np.empty_like(y)
    for c in range(y.shape[1]):
        out[:, c] = np.convolve(b, y[:, c])[: n + 1] - b * y[0, c] + w0 * y[0, c]
    out[0] = 0.0
    return out * (1.0 / n) ** a / gamma(a + 2.0)


class TestFFTConvolution:
    # The O(N^2) reference at N = 16384 takes about 0.3 s per component,
    # so that grid runs with 1 and 3 components only.
    @pytest.mark.parametrize(
        "n, dim",
        [(n, dim) for n in (2, 3, 5, 255, 256, 1000, 4096, 16384) for dim in (1, 3, 12) if (n, dim) != (16384, 12)],
    )
    def test_matches_direct_convolution(self, n, dim):
        rng = np.random.default_rng(n + dim)
        t = _nodes(n)[:, None]
        y = 1.0 + np.cos(3.0 * t + rng.uniform(0, 1, dim)) + 0.3 * rng.standard_normal((n + 1, dim))
        assert np.all(y[0] != 0.0)
        for a in (0.05, 0.5, 1.5, 2.0):
            ref = _direct_frac_integral(y, a)
            out = frac_integral(GridFn(y), a).values
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [2, 5, 256, 1000])
    def test_node_evaluator_matches_full_sweep(self, n):
        rng = np.random.default_rng(n)
        y = GridFn(rng.standard_normal((n + 1, 3)))
        nodes = sorted({0, 1, n // 4, n // 2, n - 1, n})
        for a in (0.05, 0.5, 1.5, 2.0):
            full = frac_integral(y, a).values
            at = frac_integral_at(y.values, a, nodes)
            assert at.shape == (len(nodes), 3)
            assert np.abs(at - full[nodes]).max() <= 1e-14 * np.abs(full).max()

    @pytest.mark.parametrize("n", [8, 9, 255, 1024])
    def test_node_weights_are_the_grid_weights(self, n):
        # At a node the point rule reads the grid's cached b and w0: bit for bit its own weights.
        for a in (0.1, 0.5, 1.01, 1.5, 1.9, 2.0):
            for tau in (1, n // 4, n // 2, n):
                b, w0 = _weights_at(a, n, float(tau))
                ref_b, ref_w0 = _point_weights.__wrapped__(a, float(tau))
                assert np.array_equal(b, ref_b) and w0 == ref_w0
                assert np.shares_memory(b, _grid_weights(a, n)[0])


def _every_column_frac_integral(y: np.ndarray, a: float) -> np.ndarray:
    """``frac_integral`` with no column skipped: one FFT convolution per column."""
    n = y.shape[0] - 1
    _, w0, b_hat = _product_trapezoid_weights(a, n)
    size = _fft_size(n)
    out = np.zeros_like(y)
    for c in range(y.shape[1]):
        out[1:, c] = np.fft.irfft(np.fft.rfft(y[1:, c], size) * b_hat, size)[:n]
    out[1:] += np.outer(w0[1:], y[0])
    return GridFn((1.0 / n) ** a / gamma(a + 2.0) * out).values


def _sparse_columns(n: int, y0: float | None = None) -> np.ndarray:
    """Columns: data, zero, -0.0, nonzero only at y_0, data, zero; with
    y0 given, every column's y_0 is y0."""
    t = _nodes(n)
    y = np.zeros((n + 1, 6))
    y[:, 0] = 1.0 + np.sin(3.0 * t)
    y[:, 2] = -0.0
    y[0, 3] = 2.5
    y[:, 4] = t**2 - 0.5
    if y0 is not None:
        y[0] = y0
    return y


class TestZeroColumns:
    @pytest.mark.parametrize("a", [0.5, 1.5])
    @pytest.mark.parametrize(
        "y",
        [
            _sparse_columns(256),
            _sparse_columns(256, y0=-0.0),
            _sparse_columns(256, y0=0.0),
            np.zeros((257, 3)),
            np.full((257, 2), -0.0),
        ],
        ids=["mixed", "mixed-negative-zero-y0", "mixed-zero-y0", "zero-source", "negative-zero-source"],
    )
    def test_bit_equal_to_convolving_every_column(self, y, a):
        out = frac_integral(GridFn(y), a).values
        assert np.array_equal(out.view(np.int64), _every_column_frac_integral(y, a).view(np.int64))

    def test_one_rfft_per_column_with_data(self, monkeypatch):
        calls = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *args, **kwargs: calls.append(1) or rfft(*args, **kwargs))
        _product_trapezoid_weights.cache_clear()
        frac_integral(GridFn(_sparse_columns(128)), 0.5)
        # The weight spectrum, then columns 0 and 4: column 3 is zero on y_1..y_N.
        assert len(calls) == 3

    def test_two_transforms_per_round_trip_column(self, monkeypatch, tmp_path):
        # A warm analyze flow transforms only in verify_structure's round trip:
        # one rfft and one irfft for each of 5 samples x 3 components.
        args = ["analyze", "--builtin", "section4", "--grid", "256", "--out", str(tmp_path)]
        assert main(args) == 0
        calls = []
        for name in ("rfft", "irfft"):
            transform = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=transform, **k: calls.append(1) or _f(*a, **k))
        assert main(args) == 0
        assert len(calls) == 30


class TestFracIntegralPower:
    def test_kernel_power_lands_on_linear(self):
        # I^(2-alpha) of t^(alpha-1) is proportional to t, hence zero at
        # t = 0: the left boundary condition holds exactly by
        # construction for kernel elements.
        alpha = 1.5
        p = PowerFn(np.array([2.0, -1.0]), alpha - 1.0)
        out = frac_integral_power(p, 2.0 - alpha)
        assert out.exponent == pytest.approx(1.0)
        np.testing.assert_allclose(out.coef, p.coef * gamma(alpha) / gamma(2.0), rtol=1e-14)
        assert not out.sample(np.array([0.0]))[0].any()

    def test_zero_power(self):
        out = frac_integral_power(PowerFn(np.zeros(3), 0.7), 1.1)
        assert not out.coef.any()

    def test_sqrt_power(self):
        out = frac_integral_power(PowerFn(np.array([1.0]), 0.5), 1.5)
        assert out.exponent == pytest.approx(2.0)
        assert out.coef[0] == pytest.approx(SQRT_PI / 4.0, rel=1e-14)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            frac_integral_power(PowerFn(np.array([1.0]), -1.5), 0.5)


class TestFracDerivative:
    def test_kernel_power_annihilated_interior(self):
        # D^(3/2) t^(1/2) = 0; the grid version decays in the interior.
        errs = {}
        for n in (256, 1024):
            t = _nodes(n)
            d = frac_derivative(GridFn(np.sqrt(t)), Order(1.5))
            w = slice(int(0.2 * n), int(0.9 * n))
            errs[n] = np.abs(d.values[w]).max()
        assert errs[256] <= 5e-3
        assert errs[1024] <= errs[256] / 2.0  # at least the N^(-1/2) rate

    def test_recovers_smooth_source(self):
        errs = {}
        for n in (256, 1024):
            t = _nodes(n)
            y = GridFn(1.0 + 0.3 * np.sin(2.0 * t))
            d = frac_derivative(frac_integral(y, 1.5), Order(1.5))
            w = slice(int(0.1 * n), int(0.9 * n))
            errs[n] = np.abs(d.values[w] - y.values[w]).max()
        assert errs[256] <= 1e-3
        assert errs[1024] < errs[256]

    def test_linear_function_power_law(self):
        # D^(3/2) t = t^(-1/2)/gamma(1/2).
        n = 256
        t = _nodes(n)
        d = frac_derivative(GridFn(t.copy()), Order(1.5))
        w = slice(int(0.1 * n), int(0.9 * n))
        exact = 1.0 / np.sqrt(np.pi * t[w])
        assert np.abs(d.values[w].ravel() - exact).max() <= 1e-3

    def test_alpha_two_is_plain_second_derivative(self):
        n = 64
        t = _nodes(n)
        d = frac_derivative(GridFn(t**2), Order(2.0))
        np.testing.assert_allclose(d.values.ravel(), 2.0, atol=1e-8)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            frac_derivative(GridFn(np.zeros((4, 1))), Order(1.5))

    def test_reconstruction_modulo_kernel_powers(self):
        # I^alpha D^alpha x differs from x by a span{t^(alpha-1),
        # t^(alpha-2)} element on interior nodes.
        n = 512
        t = _nodes(n)
        y = GridFn(np.sin(t) + 1.0)
        x_vals = 0.7 * np.sqrt(t)[:, None] + frac_integral(y, 1.5).values
        x = GridFn(x_vals)
        z = frac_integral(frac_derivative(x, Order(1.5)), 1.5).values - x_vals
        interior = slice(4, n - 3)
        basis = np.stack([t[interior] ** 0.5, t[interior] ** (-0.5)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, z[interior], rcond=None)
        assert np.abs(basis @ coef - z[interior]).max() <= 1e-3


def _longdouble_round_trip(y: np.ndarray, alpha: float) -> np.ndarray:
    """Rows 1..N-1 of the composed rules, ``frac_derivative(frac_integral(y, alpha))``,
    summed in long double by direct convolution of the float64 weights."""
    n = y.shape[0] - 1
    ld = np.longdouble
    b, w0 = (w.astype(ld) for w in _product_trapezoid_weights(alpha, n)[:2])
    b2 = _product_trapezoid_weights(2.0 - alpha, n)[0].astype(ld)
    out = np.empty((n - 1, y.shape[1]), dtype=ld)
    for c in range(y.shape[1]):
        yc = y[:, c].astype(ld)
        x = np.convolve(b, yc)[: n + 1] - b * yc[0] + w0 * yc[0]
        x[0] = 0.0
        v = np.convolve(b2, x)[: n + 1]
        out[:, c] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    # h^alpha h^(2-alpha) of the two rules cancels the second difference's h^-2.
    return out / (ld(gamma(alpha + 2.0)) * ld(gamma(4.0 - alpha)))


class TestDerivativeOfIntegral:
    @pytest.mark.parametrize("n, bound", [(256, 1e-12), (2048, 1e-10)])
    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0])
    def test_matches_long_double_composition(self, alpha, n, bound):
        # At most 1.5e-13 (N = 256) and 1.4e-11 (2048) off here, where
        # frac_derivative(frac_integral(...)) is 4.7e-11 and 1.7e-9 off at least.
        t = _nodes(n)
        c = np.random.default_rng(n).standard_normal((4, 3))
        y = c[0] + np.outer(t, c[1]) + np.outer(np.sin(3.0 * t), c[2]) + np.outer(np.sqrt(t), c[3])
        out = derivative_of_integral(GridFn(y), Order(alpha))
        assert out.shape == (n - 1, 3)
        assert np.abs(out - _longdouble_round_trip(y, alpha)).max() <= bound

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0])
    def test_kernel_differences_before_convolving(self, alpha):
        # Differencing b_alpha and W_alpha first keeps kappa and g within 1e-14
        # of the long-double composition at N = 2048; differencing the products read 1.8e-12.
        n, ld = 2048, np.longdouble
        b, w0, _ = _product_trapezoid_weights(alpha, n)
        b2 = _product_trapezoid_weights(2.0 - alpha, n)[0].astype(ld)
        scale = ld(gamma(alpha + 2.0)) * ld(gamma(4.0 - alpha))
        kappa_hat, g = _roundtrip_weights(alpha, n)
        for got, w in ((np.fft.irfft(kappa_hat, _fft_size(n))[:n], b[:n]), (g, np.append(0.0, w0[1:]))):
            ref = np.diff(np.convolve(w.astype(ld), b2)[: got.shape[0]], 2, prepend=np.zeros(2, ld)) / scale
            assert np.abs(got - ref).max() <= 1e-14

    def test_order_zero_weights_are_the_identity(self):
        # alpha = 2 composes I^2 with I^0, whose weights b_0 = 1, b_m = 0 leave x unchanged.
        b, _, b_hat = _product_trapezoid_weights(0.0, 64)
        assert b[0] == 1.0 and not b[1:].any()
        assert np.array_equal(b_hat, np.ones_like(b_hat))


def _every_column_cumulative_integral(y: np.ndarray) -> np.ndarray:
    """``cumulative_integral`` with no column skipped: one whole-array expression."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]), axis=0) * (1.0 / (y.shape[0] - 1))
    return out


class TestCumulativeIntegral:
    @pytest.mark.parametrize(
        "y",
        [
            _sparse_columns(256),
            np.full((257, 2), -0.0),
            np.zeros((257, 3)),
            np.random.default_rng(0).standard_normal((257, 3)),
        ],
        ids=["mixed", "negative-zero-source", "zero-source", "dense"],
    )
    def test_bit_equal_to_summing_every_column(self, y):
        out = cumulative_integral(GridFn(y)).values
        assert np.array_equal(out.view(np.int64), _every_column_cumulative_integral(y).view(np.int64))

    def test_sums_only_columns_with_set_bits(self, monkeypatch):
        shapes = []
        cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda a, axis: shapes.append(a.shape) or cumsum(a, axis=axis))
        # Columns 0, 2 (-0.0), 3 (nonzero only at y_0) and 4 are summed; 1 and 5 hold only +0.0.
        cumulative_integral(GridFn(_sparse_columns(128)))
        cumulative_integral(GridFn(np.zeros((129, 3))))
        cumulative_integral(GridFn(np.ones((129, 3))))
        assert shapes == [(128, 4), (128, 3)]

    def test_constant(self):
        n = 32
        t = _nodes(n)
        out = cumulative_integral(GridFn(np.ones(n + 1)))
        np.testing.assert_allclose(out.values.ravel(), t, atol=1e-15)

    def test_linear_exact(self):
        n = 32
        t = _nodes(n)
        out = cumulative_integral(GridFn(t.copy()))
        np.testing.assert_allclose(out.values.ravel(), t**2 / 2.0, atol=1e-16)

    def test_sqrt_accuracy(self):
        n = 1024
        t = _nodes(n)
        out = cumulative_integral(GridFn(np.sqrt(t)))
        assert np.abs(out.values.ravel() - (2.0 / 3.0) * t**1.5).max() <= 1e-5


class TestTypes:
    def test_order_bounds(self):
        with pytest.raises(ValueError):
            Order(1.0)
        with pytest.raises(ValueError):
            Order(2.1)
        o = Order(1.5)
        assert o.alpha_m1 == pytest.approx(0.5)
        assert o.two_m_alpha == pytest.approx(0.5)

    def test_gridfn_validation(self):
        with pytest.raises(ValueError):
            GridFn(np.array([[1.0], [2.0]]))  # N = 1 too coarse
        with pytest.raises(ValueError):
            GridFn(np.array([1.0, np.inf, 0.0]))

    def test_gridfn_immutable(self):
        g = GridFn(np.zeros((5, 1)))
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0

    def test_powerfn_refuses_singular_sample_at_zero(self):
        p = PowerFn(np.array([1.0]), -0.5)
        with pytest.raises(ValueError):
            p.sample(np.array([0.0, 0.5]))
