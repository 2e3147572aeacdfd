import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import load_benchmark_module

import resbvp.problems as problems
import resbvp.resonance as resonance
from resbvp import GrowthSpec, Order, ProblemSpec, build_resonance, build_section4, save_matrix_csv, solve
from resbvp import g17
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
        assert len(lines) == 514  # header + 513 nodes: the solve runs on --grid

    @pytest.mark.parametrize(
        "flags",
        [["--k", "1", "--grid", "512"], ["--k", "2", "--grid", "256", "--damping", "0.8", "--max-iter", "50"]],
        ids=["k1-n512", "k2-n256-damped"],
    )
    def test_is_the_solve_flow_plus_golden_checks(self, tmp_path, flags):
        verify, plain = tmp_path / "verify", tmp_path / "solve"
        assert run_cli(["verify-example", "--builtin", "section4", *flags, "--out", str(verify)]) == 0
        assert run_cli(["solve", "--builtin", "section4", *flags, "--out", str(plain)]) == 0
        assert (verify / "solution.csv").read_bytes() == (plain / "solution.csv").read_bytes()

        def blocks(out):
            text = (out / "report.txt").read_text()
            return {b.splitlines()[0]: b for b in text.split("\n\n") if b.startswith("== ")}

        v, s = blocks(verify), blocks(plain)
        assert list(s) == ["== problem ==", "== resonance decomposition ==", "== smallness margins ==", "== solver =="]
        assert {name: v[name] for name in s} == s
        assert [name for name in v if name not in s] == [
            "== golden checks ==", "== kernel feedback sign (sampled) ==", "== notes =="
        ]

    @pytest.mark.parametrize(
        "command, max_iter, code",
        [("verify-example", "1", 1), ("verify-example", "200", 1), ("solve", "1", 2), ("solve", "200", 0)],
    )
    def test_failed_margins_outrank_non_convergence(self, tmp_path, monkeypatch, command, max_iter, code):
        # An envelope far too steep for the margins: verify-example exits 1
        # whether or not the solve converges; solve does not read margins.
        steep = replace(problems.BUILTINS["section4"], growth=lambda: GrowthSpec(10.0, 10.0))
        monkeypatch.setitem(problems.BUILTINS, "section4", steep)
        out = tmp_path / "run"
        args = [command, "--builtin", "section4", "--grid", "64", "--max-iter", max_iter, "--out", str(out)]
        assert run_cli(args) == code
        assert "margins satisfied        : False" in (out / "report.txt").read_text().splitlines()
        assert (out / "solution.csv").exists()

    def test_builds_the_problem_once(self, tmp_path, monkeypatch):
        grids, resonance_builds = [], []
        original = problems.build_section4

        def counting(k, grid_n=256):
            grids.append(grid_n)
            return original(k, grid_n)

        monkeypatch.setattr(problems, "build_section4", counting)
        monkeypatch.setitem(problems.BUILTINS, "section4", replace(problems.BUILTINS["section4"], build=counting))
        build_resonance = resonance.build_resonance

        def counting_resonance(spec, *args, **kwargs):
            resonance_builds.append(spec.grid_n)
            return build_resonance(spec, *args, **kwargs)

        # Every resbvp module that holds build_resonance reaches it by name.
        for module in [m for name, m in sys.modules.items() if name.startswith("resbvp")]:
            if getattr(module, "build_resonance", None) is build_resonance:
                monkeypatch.setattr(module, "build_resonance", counting_resonance)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[problem]\ngrid_n = 512\n[operator]\nbuiltin = section4\n")
        cfg7 = tmp_path / "p7.cfg"
        cfg7.write_text("[problem]\ngrid_n = 7\n[operator]\nbuiltin = section4\n")
        builtin = ["--builtin", "section4", "--grid", "512"]
        for args in (
            ["verify-example", "--grid", "512"],
            ["solve", *builtin],
            ["analyze", *builtin],
            ["check-hypotheses", *builtin],
            ["solve", "--config", str(cfg)],
            ["solve", "--config", str(cfg7), "--grid", "512"],
        ):
            grids.clear()
            resonance_builds.clear()
            assert run_cli(args + ["--out", str(tmp_path / "run")]) == 0, args
            assert grids == [512], args
            assert resonance_builds == [512], args

    def test_solve_reads_max_iter(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["verify-example", "--grid", "256", "--max-iter", "2", "--out", str(out)])
        assert code == 2
        lines = (out / "report.txt").read_text().splitlines()
        assert "iterations               : 2" in lines


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


def _plain_solution_csv(t, x, d) -> bytes:
    """``solution.csv`` with ``%.17g`` applied to every value, row by row."""
    n = x.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"dtrace_{i + 1}" for i in range(n)]
    table = np.column_stack((t, x, d))
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in table]
    return ("\n".join(lines) + "\n").encode()


def _section4_report(k, n):
    spec = build_section4(k, n)
    return solve(spec, build_resonance(spec))


def _solution_arrays(report):
    """Copies of the nodes, x and the derivative trace that ``solution.csv`` holds."""
    return [a.copy() for a in (report.element.source.nodes, *report.residuals.samples)]


def _affine_report(tmp_path):
    workloads = load_benchmark_module("workloads")
    workloads.write_affine_inputs(0, tmp_path)
    spec, _, _ = parse_config(str(tmp_path / workloads.AFFINE_CONFIG))
    return solve(spec, build_resonance(spec))


class TestSolutionCsv:
    def test_section4_with_zero_columns(self, tmp_path):
        t, x, d = _solution_arrays(_section4_report(2, 256))
        assert 0 < np.count_nonzero(~x.any(axis=0)) < x.shape[1]  # the block tails stay zero
        g17.write_solution(tmp_path / "s.csv", t, x, d)
        assert (tmp_path / "s.csv").read_bytes() == _plain_solution_csv(t, x, d)

    def test_dense_affine(self, tmp_path):
        t, x, d = _solution_arrays(_affine_report(tmp_path))
        assert all(s.all() for s in (x[1:], d))
        g17.write_solution(tmp_path / "s.csv", t, x, d)
        assert (tmp_path / "s.csv").read_bytes() == _plain_solution_csv(t, x, d)

    @pytest.mark.parametrize("block", ["one-value", "columns", "columns+1", "7-columns", "one-block"])
    @pytest.mark.parametrize("problem", ["section4-k2-n64", "dense-affine"])
    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch, problem, block):
        report = _section4_report(2, 64) if problem == "section4-k2-n64" else _affine_report(tmp_path)
        t, x, d = _solution_arrays(report)
        columns = 1 + np.count_nonzero(x.any(axis=0)) + np.count_nonzero(d.any(axis=0))
        # Below a row (one row a block), one row, a row and a spare value, 7 rows
        # (a partial last block on 65 and on 1025 rows), and one block.
        values = {"one-value": 1, "columns": columns, "columns+1": columns + 1, "7-columns": 7 * columns,
                  "one-block": 10**9}[block]
        monkeypatch.setattr(g17, "_BLOCK_VALUES", values)
        g17.write_solution(tmp_path / "s.csv", t, x, d)
        assert (tmp_path / "s.csv").read_bytes() == _plain_solution_csv(t, x, d)

    def test_negative_zero_columns_are_formatted(self, tmp_path):
        t, x, d = _solution_arrays(_section4_report(2, 64))
        x[:, 4] = -0.0
        d[:, 5] = 0.0
        d[::3, 5] = -0.0
        g17.write_solution(tmp_path / "s.csv", t, x, d)
        text = (tmp_path / "s.csv").read_bytes()
        assert text == _plain_solution_csv(t, x, d)
        assert text.splitlines()[1].split(b",")[5] == b"-0"

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # At N = 16384 the affine solve's state holds 98316 values; OpenBLAS
        # splits a dot product that long across threads, in another order.
        workloads = load_benchmark_module("workloads")
        workloads.write_affine_inputs(0, tmp_path)
        src = str(Path(g17.__file__).parent.parent)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            cmd = [sys.executable, "-m", "resbvp", "solve", "--config", str(tmp_path / workloads.AFFINE_CONFIG),
                   "--grid", "16384", "--max-iter", "400", "--out", str(out)]
            subprocess.run(cmd, env=env, capture_output=True, check=True)
            outputs.append((out / "solution.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_writer_holds_a_fraction_of_a_grid_array(self, tmp_path):
        # The writer stacks 2048-value blocks of the columns with data only;
        # its traced peak is about 0.15 grid arrays at k = 4, N = 65536
        # with g17 loaded.
        n = 65536
        report = _section4_report(4, n)
        tracemalloc.start()
        try:
            g17.write_solution(tmp_path / "s.csv", report.element.source.nodes, *report.residuals.samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (n + 1) * report.element.coef.shape[0] * 8


def _g17_lines(values: np.ndarray, path: Path) -> list[bytes]:
    """``write_solution`` of values as its one ``t`` column, one line a value."""
    none = np.empty((values.size, 0))
    g17.write_solution(path, values, none, none)
    return path.read_bytes().split(b"\n")[1:-1]


def _seventeen_digit_ties(rng, per_exponent):
    """Doubles exactly halfway between two 17-digit decimals: v = m 2^(X-17)
    with m odd and 10^X <= v < 10^(X+1) gives v 10^(16-X) = m 5^(16-X) / 2.
    Random m, and the 500 odd m at each end of the range, where log10 may
    put v in the neighbouring decade."""
    out = []
    for x in range(-6, 15):
        lo = math.ceil(Fraction(10) ** x * 2 ** (17 - x))
        hi = min(math.ceil(Fraction(10) ** (x + 1) * 2 ** (17 - x)), 2**53)
        ends = np.concatenate([lo + np.arange(1000), hi - 1 - np.arange(1000)])
        m = np.concatenate([rng.integers(lo // 2, hi // 2, per_exponent) * 2 + 1, ends[ends % 2 == 1]])
        v = np.ldexp(m[(m >= lo) & (m < hi)].astype(float), x - 17)
        assert all((Fraction(u) * 10 ** (16 - x) * 2).denominator == 1 for u in v[:3].tolist())
        out.append(v)
    return np.concatenate(out)


class TestG17Formatter:
    def test_matches_percent_formatting(self, tmp_path):
        # Over 10^6 values: every binade (the exponent field 0..2046, so the
        # subnormals too) with random mantissas, log-uniform values across
        # the fast range, exact 17-digit ties, and each power of ten from
        # 1e-8 to 1e18 (1e-6, 1e-5, 1e-4, 1e16 and 1e17 among them) with its
        # two neighbours on each side.
        rng = np.random.default_rng(17)
        exponent = np.repeat(np.arange(2047, dtype=np.uint64), 120)
        mantissa = rng.integers(0, 2**52, exponent.size, dtype=np.uint64)
        sign = rng.integers(0, 2, exponent.size, dtype=np.uint64)
        binades = ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
        subnormal = np.ldexp(rng.integers(1, 2**52, 5000).astype(float), -1074)
        fast_range = rng.choice([-1.0, 1.0], 560000) * 10.0 ** rng.uniform(-7.0, 17.0, 560000)
        ties = _seventeen_digit_ties(rng, 5000)
        down = up = [np.array([float(f"1e{k}") for k in range(-8, 19)])]
        for _ in range(2):
            down = down + [np.nextafter(down[-1], 0.0)]
            up = up + [np.nextafter(up[-1], np.inf)]
        boundaries = np.concatenate(down + up[1:])
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308])
        values = np.concatenate([binades, subnormal, fast_range, ties, -ties, boundaries, -boundaries, special])
        assert values.size >= 10**6
        assert ties.size > 50000
        expected = [("%.17g" % v).encode() for v in values.tolist()]
        got = _g17_lines(values, tmp_path / "s.csv")
        assert len(got) == values.size
        wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
        assert not wrong, wrong[:5]

    def test_no_double_rounds_up_to_a_power_of_ten(self):
        # D never rounds up to 10^17: the largest double below 10^(X+1),
        # X = -6..15, lies 8 or more units of the 17th digit below it.
        gaps = []
        for m in range(-5, 17):
            power = Fraction(10) ** m
            below = float(power)
            if Fraction(below) >= power:
                below = math.nextafter(below, 0.0)
            gaps.append(float((power - Fraction(below)) * 10 ** (17 - m)))
        assert 8.3 < min(gaps) and max(gaps) == 20.0, gaps

    def test_fallback_values_in_a_live_column(self, tmp_path):
        # A column with data and values the writer hands to % itself: zeros,
        # |v| <= 1e-6 (subnormals too), |v| >= 1e16; and exponent-form values.
        t, x, d = _solution_arrays(_section4_report(2, 64))
        special = [0.0, -0.0, 1e-7, -3e-9, 5e-324, -2.2250738585072014e-308, 1e-6, 1e16, -2.5e17, 1e300]
        x[1 : 1 + len(special), 0] = special
        exponent_form = [3e-6, -7.5e-5, 9.999999999999999e-05, 1.0000000000000001e-05, -1e-5, 2e-6]
        d[::5, 1] = exponent_form + [1e-4, 0.5, 12.0, -1e15, 123456789.125, 0.00012, 4.0]
        g17.write_solution(tmp_path / "s.csv", t, x, d)
        assert (tmp_path / "s.csv").read_bytes() == _plain_solution_csv(t, x, d)


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

    # A minimal valid config of each problem kind, and one value for each known key.
    KINDS = {
        "builtin": {"operator": {"builtin": "section4"}},
        "csv-affine": {"problem": {"alpha": "1.5", "xi": "0.25"}, "operator": {"csv": "a.csv"}},
        "csv-builtin-rhs": {
            "problem": {"alpha": "1.5", "xi": "0.25"},
            "operator": {"csv": "a.csv"},
            "rhs": {"builtin": "section4"},
        },
    }
    KEYS = {
        ("problem", "alpha"): "1.5",
        ("problem", "xi"): "0.25",
        ("problem", "grid_n"): "64",
        ("operator", "builtin"): "section4",
        ("operator", "k"): "1",
        ("operator", "csv"): "a.csv",
        ("rhs", "builtin"): "section4",
        ("rhs", "c_matrix"): "a.csv",
        ("rhs", "d_matrix"): "a.csv",
        ("rhs", "g_profile"): "one",
    }
    # The keys each kind reads.  [rhs] builtin beside an affine rhs makes
    # the csv-builtin-rhs kind, which reads it; [operator] builtin beside a
    # csv operator makes a builtin kind, which leaves csv unread.
    PROBLEM = {"problem.alpha", "problem.xi", "problem.grid_n"}
    READS = {
        "builtin": PROBLEM | {"operator.builtin", "operator.k", "rhs.builtin"},
        "csv-affine": PROBLEM | {"operator.csv", "rhs.builtin", "rhs.c_matrix", "rhs.d_matrix", "rhs.g_profile"},
        "csv-builtin-rhs": PROBLEM | {"operator.csv", "rhs.builtin"},
    }

    @pytest.mark.parametrize("section, key", list(KEYS), ids=[f"{s}.{k}" for s, k in KEYS])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_a_key_is_accepted_only_where_it_is_read(self, tmp_path, kind, section, key):
        save_matrix_csv(tmp_path / "a.csv", np.diag([1.5, 1.75, 2.0]))
        sections = {name: dict(keys) for name, keys in self.KINDS[kind].items()}
        sections.setdefault(section, {})[key] = self.KEYS[section, key]
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items()
        )
        path = self.write_config(tmp_path, text)
        if f"{section}.{key}" in self.READS[kind]:
            parse_config(str(path))
        else:
            with pytest.raises(ValueError, match=r":[0-9]+: key '\w+' in section \[\w+\] is ignored "):
                parse_config(str(path))

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config file format", 1)[1].split("```\n", 2)[1]
        spec, growth, label = parse_config(str(self.write_config(tmp_path, block)))
        assert label == "builtin:section4"
        assert (spec.ord.alpha, spec.xi, spec.grid_n, spec.dim) == (1.5, 0.25, 256, 3)


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

    def test_nearly_resonant_exit_names_how_close(self, tmp_path):
        # The solve-affine operator typed to 6 digits: R's two smallest
        # singular values become 3.17e-7 and 2.75e-9, so its kernel is trivial.
        a_op = load_benchmark_module("workloads").write_affine_inputs(0, tmp_path / "input")["a_op"]
        save_matrix_csv(tmp_path / "a.csv", np.round(a_op, 6))
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[problem]\nalpha = 1.5\nxi = 0.25\ngrid_n = 64\n[operator]\ncsv = a.csv\n")
        out = tmp_path / "run"
        assert run_cli(["analyze", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "report.txt").read_text().splitlines()[-1] == (
            "error: the boundary operator is non-resonant (kernel is trivial): the smallest singular value "
            "of R is 2.746e-09, above the rank tolerance 1.727e-15; the projection scheme does not apply"
        )

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

    @pytest.mark.parametrize(
        "command, text, where, message",
        [
            ("analyze", "[problem]\nbogus = 1\nalpha 1.5\n", "p.cfg:2", "unknown key 'bogus' in section [problem]"),
            (
                "analyze",
                "[problem]\nbogus = 1\ngrid_n = 64\ngrid_n = 128\n",
                "p.cfg:2",
                "unknown key 'bogus' in section [problem]",
            ),
            (
                "analyze",
                "[operator]\nbuiltin = section4\n[rhs]\nk = 1\n[extra]\n",
                "p.cfg:4",
                "unknown key 'k' in section [rhs]",
            ),
            ("analyze", "[problem]\n[bogus]\n", "p.cfg:2", "unknown section [bogus]"),
            ("analyze", "alpha = 1.5\n[problem]\n", "p.cfg:1", "key outside of any section"),
            ("analyze", "[operator]\nbuiltin = nope\n", "p.cfg:2", "unknown builtin 'nope'"),
            ("analyze", "[problem]\ngrid_n = 64\n[operator]\n", "p.cfg", "section [operator] needs 'builtin' or 'csv'"),
            (
                "analyze",
                "[problem]\nalpha = 1.5\n[operator]\ncsv = a.csv\n",
                "p.cfg",
                "section [problem] needs alpha and xi for a csv operator",
            ),
            (
                "analyze",
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\n[rhs]\nbuiltin = nope\n",
                "p.cfg:7",
                "unknown rhs builtin 'nope'",
            ),
            (
                "analyze",
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = missing.csv\n",
                "p.cfg:5",
                "cannot read csv file: No such file or directory",
            ),
            (
                "analyze",
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\n[rhs]\nc_matrix = nope.csv\n",
                "p.cfg:7",
                "cannot read c_matrix file: No such file or directory",
            ),
            (
                "analyze",
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\n[rhs]\nd_matrix = .\n",
                "p.cfg:7",
                "cannot read d_matrix file: Is a directory",
            ),
            (
                "verify-example",
                "[operator]\nbuiltin = section4\n",
                None,
                "verify-example runs on a builtin; pass --builtin NAME",
            ),
            (
                "analyze",
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = empty.csv\n",
                "empty.csv",
                "empty matrix file",
            ),
            (
                "analyze",
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = badhead.csv\n",
                "badhead.csv:1",
                "header must be 'rows,cols'",
            ),
            (
                "analyze",
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = badrow.csv\n",
                "badrow.csv:2",
                "expected 2 entries, found 3",
            ),
            (
                "analyze",
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = latin1.csv\n",
                "latin1.csv:3",
                "not UTF-8 text (byte 0xff at column 3)",
            ),
            ("analyze", "[problem]\nalpha = \xff\n", "p.cfg:2", "not UTF-8 text (byte 0xff at column 9)"),
            (
                "analyze",
                "[problem]\nalpha = 1.5\n# d\xe9j\xe0 vu\n[operator]\nbuiltin = section4\n",
                "p.cfg:3",
                "not UTF-8 text (byte 0xe9 at column 4)",
            ),
        ],
        ids=["before-malformed", "before-duplicate", "before-unknown-section", "unknown-section",
             "key-outside-section", "unknown-operator-builtin", "operator-without-source", "csv-without-xi",
             "unknown-rhs-builtin", "missing-csv", "missing-c-matrix", "d-matrix-is-a-directory",
             "verify-example-config", "empty-matrix", "matrix-header", "matrix-row-length",
             "matrix-not-utf8", "value-not-utf8", "comment-not-utf8"],
    )
    def test_first_bad_line_is_reported(self, tmp_path, command, text, where, message):
        save_matrix_csv(tmp_path / "a.csv", np.diag([1.5, 1.75, 2.0]))
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "badhead.csv").write_text("x,2\n1,0\n")
        (tmp_path / "badrow.csv").write_text("2,2\n1,0,0\n0,1\n")
        (tmp_path / "latin1.csv").write_bytes(b"2,2\n1,0\n0,\xff\n")
        cfg = tmp_path / "p.cfg"
        cfg.write_bytes(text.encode("latin-1"))  # one byte per character: \xff stays the byte 0xff
        out = tmp_path / "r"
        assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 3
        errors = [s for s in (out / "report.txt").read_text().splitlines() if s.startswith("error: ")]
        assert errors == [f"error: {tmp_path / where}: {message}" if where else f"error: {message}"]

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

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Some editors start a UTF-8 file with the mark EF BB BF.
        text = b"[problem]\ngrid_n = 64\n[operator]\nbuiltin = section4\n"
        reports = []
        for name, data in [("plain", text), ("marked", b"\xef\xbb\xbf" + text)]:
            (tmp_path / name).mkdir()
            cfg = tmp_path / name / "p.cfg"
            cfg.write_bytes(data)
            out = tmp_path / name / "r"
            assert run_cli(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append((out / "report.txt").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (
                "[operator]\nbuiltin = section4\ncsv = a.csv\n",
                3,
                "key 'csv' in section [operator] is ignored beside [operator] builtin = section4",
            ),
            (
                "[operator]\nbuiltin = section4\n[rhs]\nc_matrix = a.csv\ng_profile = one\n",
                4,
                "key 'c_matrix' in section [rhs] is ignored beside [operator] builtin = section4",
            ),
            (
                "[operator]\nbuiltin = section4\n[rhs]\nbuiltin = other\n",
                4,
                "key 'builtin' in section [rhs] is ignored beside [operator] builtin = section4",
            ),
            (
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\nk = 2\n",
                6,
                "key 'k' in section [operator] is ignored for a csv operator",
            ),
            (
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\n"
                "[rhs]\nbuiltin = section4\nd_matrix = a.csv\n",
                8,
                "key 'd_matrix' in section [rhs] is ignored beside [rhs] builtin",
            ),
            (
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\nk = 2\n[rhs]\nbuiltin = section4\n",
                6,
                "key 'k' in section [operator] is ignored for a csv operator",
            ),
            # Of several ignored keys, the first by line is reported, whatever its section.
            (
                "[rhs]\nc_matrix = a.csv\n[operator]\nbuiltin = section4\ncsv = a.csv\n",
                2,
                "key 'c_matrix' in section [rhs] is ignored beside [operator] builtin = section4",
            ),
            # A value the problem reads is checked before any key it leaves unread.
            ("[operator]\nbuiltin = section4\ncsv = a.csv\nk = 0\n", 4, "block count must be positive, got 0"),
        ],
        ids=["csv-beside-builtin", "affine-beside-builtin-operator", "other-rhs-builtin",
             "k-for-csv", "affine-beside-rhs-builtin", "k-for-csv-with-rhs-builtin",
             "first-ignored-by-line", "read-value-before-ignored-key"],
    )
    def test_ignored_key_exits_three_with_line(self, tmp_path, text, line, message):
        save_matrix_csv(tmp_path / "a.csv", np.diag([1.5, 1.75, 2.0]))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text)
        out = tmp_path / "r"
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        errors = [s for s in (out / "report.txt").read_text().splitlines() if s.startswith("error: ")]
        assert errors == [f"error: {cfg}:{line}: {message}"]

    def test_rhs_builtin_beside_builtin_operator_accepted(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[operator]\nbuiltin = section4\nk = 1\n[rhs]\nbuiltin = section4\n")
        spec, growth, _ = parse_config(str(cfg))
        assert spec.dim == 3 and growth is not None

    @pytest.mark.parametrize(
        "command, flags, error",
        [
            ("analyze", ["--damping", "7"], "error: --damping must lie in (0, 1], got 7.0"),
            ("check-hypotheses", ["--damping", "0"], "error: --damping must lie in (0, 1], got 0.0"),
            ("solve", ["--max-iter", "0"], "error: --max-iter must be positive, got 0"),
            ("verify-example", ["--max-iter", "-3"], "error: --max-iter must be positive, got -3"),
            ("analyze", ["--seed", "-1"], "error: --seed must be nonnegative, got -1"),
            ("check-hypotheses", ["--seed", "-1"], "error: --seed must be nonnegative, got -1"),
            ("solve", ["--seed", "-1"], "error: --seed must be nonnegative, got -1"),
            ("verify-example", ["--seed", "-1"], "error: --seed must be nonnegative, got -1"),
        ],
        ids=[
            "analyze-damping",
            "hypotheses-damping",
            "solve-max-iter",
            "verify-max-iter",
            "analyze-seed",
            "hypotheses-seed",
            "solve-seed",
            "verify-seed",
        ],
    )
    def test_bad_solve_option_exits_three_on_every_command(self, tmp_path, command, flags, error):
        out = tmp_path / "r"
        code = run_cli([command, "--builtin", "section4", "--grid", "64", *flags, "--out", str(out)])
        assert code == 3
        assert error in (out / "report.txt").read_text().splitlines()
        assert not (out / "solution.csv").exists()

    @pytest.mark.parametrize(
        "args, code",
        [
            (["solve", "--k", "abc"], 3),
            (["frobnicate"], 3),
            (["solve", "--builtin", "section4", "--bogus"], 3),
            (["--help"], 0),
        ],
        ids=["bad-int", "unknown-command", "unknown-flag", "help"],
    )
    def test_usage_error_exits_three(self, tmp_path, capsys, args, code):
        # argparse's own usage exit is 2, the solver's non-convergence code.
        out = tmp_path / "r"
        assert run_cli(args + ["--out", str(out)]) == code
        assert not out.exists()
        captured = capsys.readouterr()
        assert "usage: resbvp" in (captured.err if code else captured.out)

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

    @pytest.mark.parametrize("command", ["solve", "check-hypotheses", "analyze"])
    def test_grid_beyond_memory_exits_three(self, tmp_path, capsys, command):
        # 10^11 + 1 nodes of float64 are 745 GiB: the first grid-sized
        # allocation fails at once, and nothing near the memory is touched.
        out = tmp_path / "r"
        assert run_cli([command, "--builtin", "section4", "--grid", "100000000000", "--out", str(out)]) == 3
        errors = [line for line in (out / "report.txt").read_text().splitlines() if "error" in line.lower()]
        assert len(errors) == 1
        assert errors[0].startswith("error: out of memory at grid_n = 100000000000: ")
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "solution.csv").exists()

    @pytest.mark.parametrize("k", ["7", "1"])
    def test_k_beside_config_exits_three(self, tmp_path, capsys, k):
        # The file sets k in [operator]; --k 1 would be silently ignored too.
        cfg = tmp_path / "k.cfg"
        cfg.write_text("[operator]\nbuiltin = section4\nk = 1\n")
        out = tmp_path / "r"
        assert run_cli(["analyze", "--config", str(cfg), "--k", k, "--out", str(out)]) == 3
        assert not out.exists()
        assert "--k applies to --builtin only" in capsys.readouterr().err

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
            ("[problem]\nalpha = nan\n[operator]\nbuiltin = section4\n", 2),
            ("[problem]\ngrid_n = 64\nxi = nan\n[operator]\nbuiltin = section4\n", 3),
            ("[problem]\nalpha = 1.5\nxi = 0.5\n[operator]\ncsv = a.csv\n[rhs]\ng_profile = cube\n", 7),
            ("[problem]\nalpha = 1.5\nxi = 0.5\n[operator]\ncsv = a.csv\n[rhs]\nc_matrix = b.csv\n", 7),
            (
                "[problem]\nalpha = 1.5\nxi = 0.5\n[operator]\ncsv = a.csv\n"
                "[rhs]\nc_matrix = a.csv\nd_matrix = b.csv\n",
                8,
            ),
            ("[operator]\nbuiltin = section4\nk = 0\n", 3),
            ("[problem]\ngrid_n = 4\n[operator]\nbuiltin = section4\n", 2),
            ("[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = r.csv\n", 5),
        ],
        ids=["alpha-range", "xi-range", "builtin-alpha", "builtin-xi", "builtin-alpha-nan",
             "builtin-xi-nan", "g-profile", "c-shape", "d-shape", "k-non-positive", "grid-below-8",
             "non-square-operator"],
    )
    def test_value_error_exits_three_with_line(self, tmp_path, text, line):
        save_matrix_csv(tmp_path / "a.csv", np.diag([1.5, 1.75, 2.0]))
        save_matrix_csv(tmp_path / "b.csv", np.eye(2))
        save_matrix_csv(tmp_path / "r.csv", np.ones((2, 3)))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text)
        out = tmp_path / "r"
        code = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert f"p.cfg:{line}: " in (out / "report.txt").read_text()

    @pytest.mark.parametrize(
        "text, xi",
        [
            ("[problem]\ngrid_n = 66\n[operator]\nbuiltin = section4\n", None),
            ("[problem]\nalpha = 1.5\nxi = 0.2\ngrid_n = 64\n[operator]\ncsv = a.csv\n", 0.2),
            ("[problem]\nalpha = 1.5\nxi = 0.3\n[operator]\ncsv = a.csv\n", 0.3),
            ("[problem]\nalpha = 1.5\nxi = 0.123456789\ngrid_n = 64\n[operator]\ncsv = a.csv\n", 0.123456789),
        ],
        ids=["builtin-xi-off-grid", "csv-xi-off-grid", "xi-off-default-grid", "xi-on-no-grid"],
    )
    def test_xi_between_nodes_exits_zero(self, tmp_path, text, xi):
        # xi need not be a grid node.  A = xi^(1-alpha) diag(1, 1/2, 1/4)
        # keeps R = I - xi^(alpha-1) A singular at the file's xi.
        if xi is not None:
            save_matrix_csv(tmp_path / "a.csv", xi**-0.5 * np.diag([1.0, 0.5, 0.25]))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text)
        out = tmp_path / "r"
        assert run_cli(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        assert "kernel dimension         : 1" in (out / "report.txt").read_text()


    @pytest.mark.parametrize("target", ["out-is-a-file", "report-is-a-directory"])
    def test_unwritable_output_exits_three(self, tmp_path, capsys, target):
        out = tmp_path / "r"
        if target == "out-is-a-file":
            out.write_text("")
        else:
            (out / "report.txt").mkdir(parents=True)
        code = run_cli(["analyze", "--builtin", "section4", "--grid", "64", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestOneGridRule:
    """ProblemSpec alone decides which (xi, grid_n) are valid; every
    problem source reports its verdict with the same text."""

    @pytest.mark.parametrize(
        "args, cfg_text, line",
        [
            (["solve", "--builtin", "section4", "--grid", "7"], None, None),
            (["solve", "--config", "{cfg}", "--grid", "7"], "[operator]\nbuiltin = section4\n", None),
            (["solve", "--config", "{cfg}"], "[problem]\ngrid_n = 7\n[operator]\nbuiltin = section4\n", 2),
            (
                ["solve", "--config", "{cfg}"],
                "[problem]\nalpha = 1.5\nxi = 0.25\ngrid_n = 7\n[operator]\ncsv = a.csv\n",
                4,
            ),
            (
                ["solve", "--config", "{cfg}", "--grid", "7"],
                "[problem]\nalpha = 1.5\nxi = 0.25\n[operator]\ncsv = a.csv\n",
                None,
            ),
            (["verify-example", "--grid", "7"], None, None),
        ],
        ids=["builtin", "builtin-config-grid-flag", "builtin-config", "csv-config",
             "csv-config-grid-flag", "verify-example"],
    )
    def test_every_route_reports_the_same_grid_error(self, tmp_path, args, cfg_text, line):
        save_matrix_csv(tmp_path / "a.csv", np.diag([1.5, 1.75, 2.0]))
        cfg = tmp_path / "p.cfg"
        if cfg_text is not None:
            cfg.write_text(cfg_text)
        out = tmp_path / "r"
        code = run_cli([a.format(cfg=cfg) for a in args] + ["--out", str(out)])
        assert code == 3
        prefix = "" if line is None else f"{cfg}:{line}: "
        assert (out / "report.txt").read_text().splitlines()[-1] == f"error: {prefix}grid_n must be at least 8, got 7"
        assert not (out / "solution.csv").exists()

    def test_library_raises_the_same_text(self):
        with pytest.raises(ValueError) as exc:
            build_section4(1, 7)
        assert str(exc.value) == "grid_n must be at least 8, got 7"
        with pytest.raises(ValueError) as exc:
            ProblemSpec(Order(1.5), 0.25, np.eye(3), lambda t, u, v: u, 7)
        assert str(exc.value) == "grid_n must be at least 8, got 7"

    @pytest.mark.parametrize("grid_n", [4, 7])
    def test_grids_below_eight_rejected(self, grid_n):
        # xi = 1/4 is a node of N = 4, but no problem source takes N < 8.
        with pytest.raises(ValueError, match=f"grid_n must be at least 8, got {grid_n}"):
            build_section4(1, grid_n)

    def test_grid_n_must_be_an_integer(self):
        # A float grid_n would otherwise fail later, inside numpy, with a TypeError.
        with pytest.raises(ValueError, match="grid_n must be an integer, got 256.0"):
            build_section4(1, 256.0)
        assert build_section4(1, np.int64(256)).grid_n == 256


class TestBuiltinAndConfigAgree:
    @pytest.mark.parametrize("command", ["solve", "check-hypotheses"])
    @pytest.mark.parametrize("config_grid, grid_args", [("64", []), ("32", ["--grid", "64"]), ("10", ["--grid", "64"])])
    def test_byte_identical_outputs(self, tmp_path, command, config_grid, grid_args):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"[problem]\ngrid_n = {config_grid}\n[operator]\nbuiltin = section4\nk = 2\n")
        a, b = tmp_path / "builtin", tmp_path / "config"
        assert run_cli([command, "--builtin", "section4", "--k", "2", "--grid", "64", "--out", str(a)]) == 0
        assert run_cli([command, "--config", str(cfg), *grid_args, "--out", str(b)]) == 0
        for name in ["report.txt", "solution.csv"] if command == "solve" else ["report.txt"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()


    @pytest.mark.parametrize("command", ["solve", "check-hypotheses"])
    def test_csv_operator_with_builtin_rhs(self, tmp_path, command):
        # The section4 operator from a csv file and its rhs by name: the
        # same problem as --builtin section4 under another label.
        save_matrix_csv(tmp_path / "a.csv", np.diag([1.5, 1.75, 2.0]))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\nalpha = 1.5\nxi = 0.25\ngrid_n = 256\n"
            "[operator]\ncsv = a.csv\n[rhs]\nbuiltin = section4\n"
        )
        a, b = tmp_path / "builtin", tmp_path / "config"
        assert run_cli([command, "--builtin", "section4", "--grid", "256", "--out", str(a)]) == 0
        assert run_cli([command, "--config", str(cfg), "--out", str(b)]) == 0
        ref, got = ((out / "report.txt").read_text().splitlines() for out in (a, b))
        assert got[1] == "problem: csv+builtin-rhs grid_n=256"
        assert got[2:] == ref[2:]
        if command == "solve":
            assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
        # --grid replaces the file's grid_n, which alone would fail the grid rule.
        c = tmp_path / "flag"
        cfg.write_text(cfg.read_text().replace("grid_n = 256", "grid_n = 7"))
        assert run_cli([command, "--config", str(cfg), "--grid", "256", "--out", str(c)]) == 0
        for name in ["report.txt", "solution.csv"] if command == "solve" else ["report.txt"]:
            assert (b / name).read_bytes() == (c / name).read_bytes()


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

    @pytest.mark.parametrize(
        "command, code",
        [("analyze", 0), ("solve", 0), ("check-hypotheses", 1), ("verify-example", 1)],
    )
    def test_margins_printed_once_and_one_exit_rule(self, tmp_path, monkeypatch, command, code):
        # Every command prints the margins once; failed margins make
        # check-hypotheses and verify-example exit 1, and no other command.
        steep = replace(problems.BUILTINS["section4"], growth=lambda: GrowthSpec(10.0, 10.0))
        monkeypatch.setitem(problems.BUILTINS, "section4", steep)
        out = tmp_path / "run"
        assert run_cli([command, "--builtin", "section4", "--grid", "64", "--out", str(out)]) == code
        lines = (out / "report.txt").read_text().splitlines()
        assert lines.count("== smallness margins ==") == 1
        assert "margins satisfied        : False" in lines
