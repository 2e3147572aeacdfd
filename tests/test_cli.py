import numpy as np
import pytest

from resbvp import save_matrix_csv
from resbvp.cli import main, parse_config


def run_cli(args):
    return main(args)


class TestVerifyExampleFlow:
    def test_exit_zero_and_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["verify-example", "--builtin", "section4", "--k", "1", "--grid", "512", "--out", str(out)]
        )
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "golden checks" in report
        assert "product quotient" in report
        assert "solvability defect" in report
        assert (out / "solution.csv").exists()

    def test_solution_csv_columns(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["verify-example", "--builtin", "section4", "--grid", "512", "--out", str(out)])
        lines = (out / "solution.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "x_1" in header and "x_3" in header
        assert "dtrace_1" in header and "dtrace_3" in header
        assert len(lines) == 258  # header + 257 nodes (solve grid capped at 256)

    def test_report_names_the_grids_used(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["verify-example", "--builtin", "section4", "--grid", "512", "--out", str(out)])
        lines = (out / "report.txt").read_text().splitlines()
        assert "grids: quadrature=512 probe=512 solve=256" in lines

    def test_solve_reads_max_iter(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["verify-example", "--grid", "256", "--max-iter", "5", "--out", str(out)])
        assert code == 2
        lines = (out / "report.txt").read_text().splitlines()
        assert "iterations               : 5" in lines


class TestSolveFlow:
    def test_section4_solve_exit_zero(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["solve", "--builtin", "section4", "--grid", "256", "--out", str(out)])
        assert code == 0
        assert (out / "solution.csv").exists()
        text = (out / "report.txt").read_text()
        assert "converged                : True" in text
        # growth data exists for the builtin, so the margin triple is
        # present on every flow
        assert "product quotient" in text

    def test_single_iteration_cannot_converge(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["solve", "--builtin", "section4", "--grid", "256", "--max-iter", "1", "--out", str(out)]
        )
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli(
                ["solve", "--builtin", "section4", "--grid", "256", "--seed", "11", "--out", str(out)]
            )
            assert code == 0
            outs.append((out / "solution.csv").read_bytes())
        assert outs[0] == outs[1]


class TestConfigFiles:
    def write_config(self, tmp_path, text):
        path = tmp_path / "problem.cfg"
        path.write_text(text)
        return path

    def test_builtin_config_equals_builder(self, tmp_path):
        path = self.write_config(
            tmp_path,
            """
            [problem]
            grid_n = 64
            [operator]
            builtin = section4
            k = 1
            """,
        )
        spec, growth, meta = parse_config(str(path))
        assert spec.dim == 3
        assert spec.grid_n == 64
        assert spec.ord.alpha == 1.5 and spec.xi == 0.25
        assert growth is not None
        f = spec.rhs(np.zeros(1), np.zeros((1, 3)), np.zeros((1, 3)))
        assert f[0, 0] == pytest.approx(0.1)

    def test_affine_zero_rhs(self, tmp_path):
        mat = tmp_path / "a.csv"
        save_matrix_csv(mat, np.eye(2) * 2.0)
        path = self.write_config(
            tmp_path,
            """
            [problem]
            alpha = 1.5
            xi = 0.5
            grid_n = 64
            [operator]
            csv = a.csv
            [rhs]
            g_profile = zero
            """,
        )
        spec, growth, _ = parse_config(str(path))
        assert not spec.rhs(np.array([0.3]), np.ones((1, 2)), np.ones((1, 2))).any()
        assert growth.lin_u == 0.0

    def test_affine_full_form(self, tmp_path):
        save_matrix_csv(tmp_path / "a.csv", np.array([[2.0, 0.0], [0.0, 2.0]]))
        save_matrix_csv(tmp_path / "c.csv", np.array([[0.5, 0.0], [0.0, 0.5]]))
        save_matrix_csv(tmp_path / "d.csv", np.array([[0.0, 0.25], [0.25, 0.0]]))
        path = self.write_config(
            tmp_path,
            """
            [problem]
            alpha = 1.5
            xi = 0.5
            grid_n = 64
            [operator]
            csv = a.csv
            [rhs]
            c_matrix = c.csv
            d_matrix = d.csv
            g_profile = one
            """,
        )
        spec, growth, _ = parse_config(str(path))
        u = np.array([1.0, 2.0])
        v = np.array([3.0, 4.0])
        expected = 0.5 * u + 0.25 * v[::-1] + 1.0
        np.testing.assert_allclose(spec.rhs(np.array([0.2]), u[None], v[None]), [expected])
        assert growth.lin_u == pytest.approx(0.5)
        assert growth.lin_v == pytest.approx(0.25)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = self.write_config(
            tmp_path,
            "[problem]\nalpha = 1.5\nbogus = 3\n[operator]\nbuiltin = section4\n",
        )
        with pytest.raises(ValueError, match=":3"):
            parse_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = self.write_config(tmp_path, "[problem]\nalpha 1.5\n")
        with pytest.raises(ValueError, match=":2"):
            parse_config(str(path))

    def test_alpha_out_of_range(self, tmp_path):
        save_matrix_csv(tmp_path / "a.csv", np.eye(2))
        path = self.write_config(
            tmp_path,
            "[problem]\nalpha = 2.5\nxi = 0.5\ngrid_n = 64\n[operator]\ncsv = a.csv\n",
        )
        with pytest.raises(ValueError, match="alpha"):
            parse_config(str(path))

    def test_xi_off_grid_reports_smallest_valid(self, tmp_path):
        save_matrix_csv(tmp_path / "a.csv", np.eye(2))
        path = self.write_config(
            tmp_path,
            "[problem]\nalpha = 1.5\nxi = 0.2\ngrid_n = 64\n[operator]\ncsv = a.csv\n",
        )
        with pytest.raises(ValueError, match="smallest valid grid_n is 10"):
            parse_config(str(path))


class TestExitCodes:
    def test_non_resonant_config_exits_one(self, tmp_path):
        save_matrix_csv(tmp_path / "a.csv", np.eye(3))  # R = I/2: invertible
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\nalpha = 1.5\nxi = 0.25\ngrid_n = 64\n[operator]\ncsv = a.csv\n"
        )
        out = tmp_path / "run"
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "non-resonant" in (out / "report.txt").read_text()

    def test_parse_error_exits_three(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[problem]\nalpha = oops\n[operator]\nbuiltin = section4\n")
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 3

    def test_unknown_builtin_exits_three(self, tmp_path):
        code = run_cli(["solve", "--builtin", "nope", "--out", str(tmp_path / "r")])
        assert code == 3

    def test_duplicate_key_exits_three_with_line(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\ngrid_n = 64\ngrid_n = 128\n[operator]\nbuiltin = section4\n"
        )
        out = tmp_path / "r"
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "p.cfg:3: duplicate key 'grid_n'" in (out / "report.txt").read_text()

    def test_non_finite_matrix_entry_exits_three_with_line(self, tmp_path):
        (tmp_path / "a.csv").write_text("2,2\n1,0\n0,nan\n")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\nalpha = 1.5\nxi = 0.25\ngrid_n = 64\n[operator]\ncsv = a.csv\n"
        )
        out = tmp_path / "r"
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "a.csv:3: non-finite entry" in (out / "report.txt").read_text()

    @pytest.mark.parametrize(
        "text, line, key",
        [
            ("[operator]\nbuiltin = section4\ncsv = a.csv\n", 3, "csv"),
            (
                "[operator]\nbuiltin = section4\n[rhs]\nc_matrix = a.csv\ng_profile = one\n",
                4,
                "c_matrix",
            ),
            ("[operator]\nbuiltin = section4\n[rhs]\nbuiltin = other\n", 4, "builtin"),
            ("[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\nk = 2\n", 6, "k"),
            (
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\n"
                "[rhs]\nbuiltin = section4\nd_matrix = a.csv\n",
                8,
                "d_matrix",
            ),
        ],
        ids=["csv-beside-builtin", "affine-beside-builtin-operator", "other-rhs-builtin",
             "k-for-csv", "affine-beside-rhs-builtin"],
    )
    def test_ignored_key_exits_three_with_line(self, tmp_path, text, line, key):
        save_matrix_csv(tmp_path / "a.csv", np.diag([1.5, 1.75, 2.0]))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text)
        out = tmp_path / "r"
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert f"p.cfg:{line}: key {key!r}" in (out / "report.txt").read_text()

    def test_rhs_builtin_beside_builtin_operator_accepted(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[operator]\nbuiltin = section4\nk = 1\n[rhs]\nbuiltin = section4\n")
        spec, growth, _ = parse_config(str(cfg))
        assert spec.dim == 3 and growth is not None

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("analyze", ["--damping", "7"]),
            ("check-hypotheses", ["--damping", "0"]),
            ("solve", ["--max-iter", "0"]),
            ("verify-example", ["--max-iter", "-3"]),
        ],
        ids=["analyze-damping", "hypotheses-damping", "solve-max-iter", "verify-max-iter"],
    )
    def test_bad_solve_option_exits_three_on_every_command(self, tmp_path, command, flags):
        out = tmp_path / "r"
        code = run_cli([command, "--builtin", "section4", "--grid", "64", *flags, "--out", str(out)])
        assert code == 3
        assert "error: " in (out / "report.txt").read_text()
        assert not (out / "solution.csv").exists()

    def test_missing_source_exits_three(self, tmp_path):
        code = run_cli(["analyze", "--out", str(tmp_path / "r")])
        assert code == 3

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--builtin", "nosuch", "--k", "7"],
            ["verify-example", "--builtin", "section4"],
        ],
        ids=["solve-unknown-builtin", "verify-example"],
    )
    def test_two_problem_sources_exit_three(self, tmp_path, args):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("[operator]\nbuiltin = section4\n")
        out = tmp_path / "r"
        code = run_cli(args + ["--config", str(cfg), "--out", str(out)])
        assert code == 3
        text = (out / "report.txt").read_text()
        assert "--builtin and --config cannot be used together" in text
        assert not (out / "solution.csv").exists()

    def test_empty_operator_exits_three_with_line(self, tmp_path):
        (tmp_path / "a.csv").write_text("0,0\n")
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\n")
        out = tmp_path / "r"
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        text = (out / "report.txt").read_text()
        assert "a.csv:1: header must give positive 'rows,cols', got 0,0" in text
        assert "dimension" not in text

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[problem]\nalpha = 2.5\nxi = 0.5\n[operator]\ncsv = a.csv\n", 2),
            ("[problem]\nalpha = 1.5\nxi = 1.5\n[operator]\ncsv = a.csv\n", 3),
            ("[problem]\nalpha = 1.25\n[operator]\nbuiltin = section4\n", 2),
            ("[problem]\ngrid_n = 64\nxi = 0.5\n[operator]\nbuiltin = section4\n", 3),
            ("[problem]\nalpha = 1.5\nxi = 0.5\n[operator]\ncsv = a.csv\n[rhs]\ng_profile = cube\n", 7),
            ("[problem]\nalpha = 1.5\nxi = 0.5\n[operator]\ncsv = a.csv\n[rhs]\nc_matrix = b.csv\n", 7),
            (
                "[problem]\nalpha = 1.5\nxi = 0.5\n[operator]\ncsv = a.csv\n"
                "[rhs]\nc_matrix = a.csv\nd_matrix = b.csv\n",
                8,
            ),
            ("[operator]\nbuiltin = section4\nk = 0\n", 3),
            ("[problem]\ngrid_n = 4\n[operator]\nbuiltin = section4\n", 2),
            ("[problem]\ngrid_n = 66\n[operator]\nbuiltin = section4\n", 2),
            ("[problem]\nalpha = 1.5\nxi = 0.2\ngrid_n = 64\n[operator]\ncsv = a.csv\n", 4),
            ("[problem]\nalpha = 1.5\nxi = 0.3\n[operator]\ncsv = a.csv\n", 3),
        ],
        ids=["alpha-range", "xi-range", "builtin-alpha", "builtin-xi", "g-profile", "c-shape",
             "d-shape", "k-non-positive", "grid-below-8", "builtin-xi-off-grid",
             "csv-xi-off-grid", "xi-off-default-grid"],
    )
    def test_value_error_exits_three_with_line(self, tmp_path, text, line):
        save_matrix_csv(tmp_path / "a.csv", np.diag([1.5, 1.75, 2.0]))
        save_matrix_csv(tmp_path / "b.csv", np.eye(2))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text)
        out = tmp_path / "r"
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert f"p.cfg:{line}: " in (out / "report.txt").read_text()


class TestBuiltinAndConfigAgree:
    @pytest.mark.parametrize("command", ["solve", "check-hypotheses"])
    @pytest.mark.parametrize("config_grid, grid_args", [("64", []), ("32", ["--grid", "64"])])
    def test_byte_identical_outputs(self, tmp_path, command, config_grid, grid_args):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"[problem]\ngrid_n = {config_grid}\n[operator]\nbuiltin = section4\nk = 2\n")
        a, b = tmp_path / "builtin", tmp_path / "config"
        assert run_cli([command, "--builtin", "section4", "--k", "2", "--grid", "64", "--out", str(a)]) == 0
        assert run_cli([command, "--config", str(cfg), *grid_args, "--out", str(b)]) == 0
        for name in ["report.txt", "solution.csv"] if command == "solve" else ["report.txt"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestAnalyzeAndHypotheses:
    def test_analyze_section4(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["analyze", "--builtin", "section4", "--grid", "128", "--out", str(out)])
        assert code == 0
        text = (out / "report.txt").read_text()
        assert "structural identities" in text
        assert "kernel dimension         : 1" in text

    def test_check_hypotheses_section4(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["check-hypotheses", "--builtin", "section4", "--grid", "128", "--out", str(out)]
        )
        assert code == 0
        text = (out / "report.txt").read_text()
        assert "product quotient" in text
        assert "strict sign              : positive" in text

    def test_margins_in_report_even_when_they_fail(self, tmp_path):
        # Resonant operator (R = diag(0, 1/2)) with an affine rhs whose
        # linear coefficient is far too large: the margin triple must
        # still appear in the report and the flow exits 1.
        save_matrix_csv(tmp_path / "a.csv", 2.0 * np.diag([1.0, 0.5]))
        save_matrix_csv(tmp_path / "c.csv", 10.0 * np.eye(2))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\nalpha = 1.5\nxi = 0.25\ngrid_n = 64\n"
            "[operator]\ncsv = a.csv\n[rhs]\nc_matrix = c.csv\ng_profile = one\n"
        )
        out = tmp_path / "run"
        code = run_cli(["check-hypotheses", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        text = (out / "report.txt").read_text()
        assert "gamma(alpha)  (lhs)" in text
        assert "product quotient" in text
        assert "margins satisfied        : False" in text
