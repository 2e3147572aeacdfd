"""Recorded outputs of the section4 builtin at N = 256 and of an affine config.

The files under ``tests/data`` were written by

    resbvp solve --builtin section4 --k 1 --grid 256
    resbvp check-hypotheses --builtin section4 --grid 256
    resbvp analyze --builtin section4 --grid 256
    resbvp check-hypotheses --config <the config of _affine_source>

``solution.csv`` must stay within 1e-12 of each column's scale (a column
that is identically zero stays zero), the discrete solve outcome must
match exactly, and every figure of the check-hypotheses and analyze
reports must stay within 1e-12 relative (an infinite figure must stay
infinite).  Rounding-level drift passes; a changed solution does not.
"""

from pathlib import Path

import numpy as np
import pytest

from resbvp import save_matrix_csv
from resbvp.cli import main

DATA = Path(__file__).parent / "data"
REL_TOL = 1e-12


def _report_entries(text: str) -> dict[tuple[str, str], str]:
    """``key : value`` lines of a report, keyed by (section, key)."""
    entries = {}
    section = ""
    for line in text.splitlines():
        if line.startswith("== "):
            section = line
            continue
        key, sep, value = line.partition(":")
        if sep and not line.startswith(("resbvp report", "problem:")):
            entries[(section, key.strip())] = value.strip()
    return entries


def _section4_source(tmp_path: Path) -> list[str]:
    return ["--builtin", "section4", "--grid", "256"]


def _affine_source(tmp_path: Path) -> list[str]:
    """Resonant 2-d affine problem f = C u + D v + 1 with C = I/2 and
    D = [[0, 1/4], [1/4, 0]]: alpha = 3/2, xi = 1/4, A = diag(2, 1), so
    R = diag(0, 1/2).  Its envelope is (||C||, ||D||, sqrt(2)); the
    margins fail, so the run exits 1 with every figure printed."""
    save_matrix_csv(tmp_path / "a.csv", np.diag([2.0, 1.0]))
    save_matrix_csv(tmp_path / "c.csv", np.array([[0.5, 0.0], [0.0, 0.5]]))
    save_matrix_csv(tmp_path / "d.csv", np.array([[0.0, 0.25], [0.25, 0.0]]))
    cfg = tmp_path / "affine.cfg"
    cfg.write_text(
        "[problem]\nalpha = 1.5\nxi = 0.25\ngrid_n = 64\n[operator]\ncsv = a.csv\n"
        "[rhs]\nc_matrix = c.csv\nd_matrix = d.csv\ng_profile = one\n"
    )
    return ["--config", str(cfg)]


def _as_float(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None


class TestSection4Outputs:
    def test_solve_matches_recorded_solution(self, tmp_path):
        assert main(["solve", "--builtin", "section4", "--k", "1", "--grid", "256", "--out", str(tmp_path)]) == 0
        ref_path = DATA / "section4_k1_n256_solution.csv"
        new_path = tmp_path / "solution.csv"
        assert new_path.read_text().splitlines()[0] == ref_path.read_text().splitlines()[0]
        ref = np.loadtxt(ref_path, delimiter=",", skiprows=1)
        new = np.loadtxt(new_path, delimiter=",", skiprows=1)
        assert new.shape == ref.shape
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(new - ref) <= REL_TOL * scale)

        entries = _report_entries((tmp_path / "report.txt").read_text())
        expected = {
            ("== resonance decomposition ==", "rank"): "2",
            ("== resonance decomposition ==", "kernel dimension"): "1",
            ("== solver ==", "converged"): "True",
            ("== solver ==", "iterations"): "32",
        }
        assert {key: entries.get(key) for key in expected} == expected

    @pytest.mark.parametrize(
        "command, source, recorded, exit_code",
        [
            ("check-hypotheses", _section4_source, "section4_n256_hypotheses_report.txt", 0),
            ("analyze", _section4_source, "section4_n256_analyze_report.txt", 0),
            ("check-hypotheses", _affine_source, "affine_hypotheses_report.txt", 1),
        ],
        ids=["hyp", "analyze", "affine-hyp"],
    )
    def test_check_hypotheses_matches_recorded_figures(self, tmp_path, command, source, recorded, exit_code):
        out = tmp_path / "out"
        assert main([command, *source(tmp_path), "--out", str(out)]) == exit_code
        ref = _report_entries((DATA / recorded).read_text())
        new = _report_entries((out / "report.txt").read_text())
        assert len(ref) > 20
        for key, ref_value in ref.items():
            assert key in new, key
            expected = _as_float(ref_value)
            if expected is None:
                assert new[key] == ref_value, key
            else:
                got = _as_float(new[key])
                assert got is not None, key
                assert got == expected or abs(got - expected) <= REL_TOL * abs(expected), key
