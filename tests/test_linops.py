import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resbvp import check_penrose, load_matrix_csv, operator_norm, pinv, save_matrix_csv


def random_matrix_with_rank(rng, rows, cols, rank):
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.zeros((rows, cols))
    vals = rng.uniform(0.5, 3.0, size=rank)
    s[:rank, :rank] = np.diag(vals)
    return u @ s @ v.T


class TestPinv:
    def test_block_diagonal_golden(self):
        res = pinv(np.diag([0.25, 0.125, 0.0]))
        np.testing.assert_allclose(res.pinv, np.diag([4.0, 8.0, 0.0]), atol=1e-12)
        assert res.rank == 2

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        # NaN used to fall back to the default tolerance and inf to zero
        # every singular value.
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            pinv(np.diag([1.0, 1e-9, 0.0]), tol)

    def test_identity(self):
        res = pinv(np.eye(4))
        np.testing.assert_allclose(res.pinv, np.eye(4), atol=1e-15)
        assert res.rank == 4

    def test_nilpotent_jordan_block(self):
        # All four Penrose identities verified directly for the swap.
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = pinv(m)
        np.testing.assert_allclose(res.pinv, np.array([[0.0, 0.0], [1.0, 0.0]]), atol=1e-15)
        assert check_penrose(m, res.pinv, 1e-12).passed

    def test_projectors_shape_and_rank_trace(self):
        rng = np.random.default_rng(0)
        m = random_matrix_with_rank(rng, 5, 7, 3)
        res = pinv(m)
        assert res.rank == 3
        assert np.trace(res.range_proj) == pytest.approx(3.0, abs=1e-8)
        for p in (res.range_proj, res.corange_proj):
            np.testing.assert_allclose(p @ p, p, atol=1e-10)
            np.testing.assert_allclose(p.T, p, atol=1e-10)

    def test_double_pinv_roundtrip(self):
        rng = np.random.default_rng(1)
        m = random_matrix_with_rank(rng, 6, 4, 4)
        back = pinv(pinv(m).pinv).pinv
        np.testing.assert_allclose(back, m, atol=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_random_penrose_suite(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            rows = int(rng.integers(2, 13))
            cols = int(rng.integers(2, 13))
            rank = int(rng.integers(0, min(rows, cols) + 1))
            m = random_matrix_with_rank(rng, rows, cols, rank)
            res = pinv(m)
            check = check_penrose(m, res.pinv, 1e-10)
            assert check.passed, (rows, cols, rank, check.residuals)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=6), st.integers())
    @settings(max_examples=25, deadline=None)
    def test_penrose_property(self, n, rank_raw, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        rank = min(rank_raw, n)
        m = random_matrix_with_rank(rng, n, n, rank)
        res = pinv(m)
        assert res.rank == rank
        assert check_penrose(m, res.pinv, 1e-10).passed

    def test_products_realize_orthogonal_projectors(self):
        # The alternative characterization: M X is the orthogonal
        # projector onto range(M) and X M the one onto range(M^T).
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = random_matrix_with_rank(rng, 5, 4, int(rng.integers(0, 5)))
            res = pinv(m)
            np.testing.assert_allclose(m @ res.pinv, res.range_proj, atol=1e-12)
            np.testing.assert_allclose(res.pinv @ m, res.corange_proj, atol=1e-12)


class TestCheckPenrose:
    def test_golden_pair(self):
        c = check_penrose(np.diag([0.25, 0.125, 0.0]), np.diag([4.0, 8.0, 0.0]), 1e-14)
        assert c.residuals == (0.0, 0.0, 0.0, 0.0)
        assert c.passed

    def test_identity_pair(self):
        c = check_penrose(np.eye(3), np.eye(3), 1e-15)
        assert c.passed

    def test_transpose_is_not_the_inverse(self):
        # For a non-partial-isometry the transpose violates Penrose; the
        # oracle is the pinv mismatch itself.
        m = np.diag([2.0, 3.0])
        assert np.abs(m.T - pinv(m).pinv).max() > 1.0
        c = check_penrose(m, m.T, 1e-10)
        assert not c.passed

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_penrose(np.eye(3), np.eye(2), 1e-10)


class TestOperatorNorm:
    def test_block_entries(self):
        assert operator_norm(np.diag([1.5, 1.75, 2.0])) == pytest.approx(2.0, rel=1e-12)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_nilpotent(self):
        assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, rel=1e-12)


class TestKernelBasis:
    def test_block_kernel_direction(self):
        k = pinv(np.diag([0.25, 0.125, 0.0])).kernel
        assert k.shape == (3, 1)
        np.testing.assert_allclose(np.abs(k[:, 0]), [0.0, 0.0, 1.0], atol=1e-14)

    def test_identity_empty(self):
        assert pinv(np.eye(3)).kernel.shape == (3, 0)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        m = np.outer(a, b)
        k = pinv(m).kernel
        assert k.shape == (3, 2)
        np.testing.assert_allclose(k.T @ k, np.eye(2), atol=1e-12)
        assert np.abs(m @ k).max() <= 1e-12 * np.abs(m).max()

    def test_wide_matrix_full_kernel_count(self):
        rng = np.random.default_rng(7)
        m = random_matrix_with_rank(rng, 2, 5, 2)
        k = pinv(m).kernel
        assert k.shape == (5, 3)
        assert np.abs(m @ k).max() <= 1e-10

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=7), st.integers())
    @settings(max_examples=25, deadline=None)
    def test_count_plus_rank_is_columns(self, n, rank_raw, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        rank = min(rank_raw, n)
        m = random_matrix_with_rank(rng, n, n, rank)
        assert pinv(m).kernel.shape[1] + pinv(m).rank == n

    @pytest.mark.parametrize("rows, cols, rank", [(4, 4, 2), (6, 3, 2), (3, 6, 1), (5, 2, 2)])
    def test_null_spaces_of_m_and_transpose(self, rows, cols, rank):
        # kernel spans ker M and cokernel spans ker M^T, both orthonormal,
        # for square, tall and wide matrices.
        m = random_matrix_with_rank(np.random.default_rng(rows * 10 + cols), rows, cols, rank)
        res = pinv(m)
        k, c = res.kernel, res.cokernel
        assert k.shape == (cols, cols - rank)
        assert c.shape == (rows, rows - rank)
        np.testing.assert_allclose(k.T @ k, np.eye(cols - rank), atol=1e-12)
        np.testing.assert_allclose(c.T @ c, np.eye(rows - rank), atol=1e-12)
        assert np.abs(m @ k).max(initial=0.0) <= 1e-12
        assert np.abs(m.T @ c).max(initial=0.0) <= 1e-12
        # The null spaces complete the ranges: I - M^+ M = K K^T, I - M M^+ = C C^T.
        np.testing.assert_allclose(np.eye(cols) - res.corange_proj, k @ k.T, atol=1e-12)
        np.testing.assert_allclose(np.eye(rows) - res.range_proj, c @ c.T, atol=1e-12)


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        m = np.array([[1.5, 0.0], [-2.25, 1e-7]])
        save_matrix_csv(path, m)
        np.testing.assert_array_equal(load_matrix_csv(path), m)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "m.csv"
        m = np.array([[1.5, 0.0], [-2.25, 1e-7]])
        save_matrix_csv(path, m)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        np.testing.assert_array_equal(load_matrix_csv(path), m)

    def test_header_line_present(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.eye(2))
        assert path.read_text().splitlines()[0] == "2,2"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2\n1,0\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_matrix_csv(path)

    def test_bad_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2\n1,0\n0,x\n")
        with pytest.raises(ValueError, match=":3"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_reports_line(self, tmp_path, entry):
        path = tmp_path / "bad.csv"
        path.write_text(f"2,2\n1,0\n\n0,{entry}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:4: non-finite entry"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("header", ["0,0", "0,2", "2,0", "-1,2"])
    def test_non_positive_shape_reports_line(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(f"\n{header}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: header must give positive 'rows,cols'"):
            load_matrix_csv(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,2\n1,0\n0,1\n")
        with pytest.raises(ValueError, match="3 data rows"):
            load_matrix_csv(path)
