"""Recorded outputs of the section4 builtin at N = 256 and of an affine config.

The files under ``tests/data`` were written by

    resbvp solve --builtin section4 --k 1 --grid 256
    resbvp check-hypotheses --builtin section4 --grid 256
    resbvp analyze --builtin section4 --grid 256
    resbvp verify-example --builtin section4 --grid 256
    resbvp check-hypotheses --config <the config of _affine_source>

``solution.csv`` must stay within 1e-12 of each column's scale (a column
that is identically zero stays zero), the discrete solve outcome must
match exactly, and every ``label : value`` figure of the reports must
stay within 1e-12 relative (an infinite figure must stay infinite).  A
golden check keeps its status and name; its figures are not compared.
Rounding-level drift passes; a changed solution does not.

Every report also keeps one layout: each ``== title ==`` block other
than the golden checks and the notes is a run of ``label : value`` rows
whose labels are padded to one width, the longest label or 24.
"""

from pathlib import Path

import numpy as np
import pytest

from resbvp import save_matrix_csv
from resbvp.cli import main

DATA = Path(__file__).parent / "data"
REL_TOL = 1e-12


def _report_entries(text: str) -> dict[tuple[str, str], str]:
    """``label : value`` rows of a report, keyed by (block title, label)."""
    entries = {}
    section = ""
    for line in text.splitlines():
        if line.startswith("== "):
            section = line
            continue
        key, sep, value = line.partition(" : ")
        if sep:
            entries[(section, key.strip())] = value.strip()
    return entries


def _golden_rows(text: str) -> list[str]:
    """``[status] name`` of each golden check row; its figures are left out."""
    return [line.partition(":")[0] for line in text.splitlines() if line.startswith(("[pass] ", "[FAIL] "))]


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
            ("== solver ==", "iterations"): "3",
        }
        assert {key: entries.get(key) for key in expected} == expected

    @pytest.mark.parametrize(
        "command, source, recorded, exit_code",
        [
            ("check-hypotheses", _section4_source, "section4_n256_hypotheses_report.txt", 0),
            ("analyze", _section4_source, "section4_n256_analyze_report.txt", 0),
            ("check-hypotheses", _affine_source, "affine_hypotheses_report.txt", 1),
            ("verify-example", _section4_source, "section4_n256_verify_report.txt", 0),
        ],
        ids=["hyp", "analyze", "affine-hyp", "verify"],
    )
    def test_check_hypotheses_matches_recorded_figures(self, tmp_path, command, source, recorded, exit_code):
        out = tmp_path / "out"
        assert main([command, *source(tmp_path), "--out", str(out)]) == exit_code
        ref_text, new_text = (DATA / recorded).read_text(), (out / "report.txt").read_text()
        assert _golden_rows(new_text) == _golden_rows(ref_text)
        ref, new = _report_entries(ref_text), _report_entries(new_text)
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


_FREE_FORM = ("== golden checks ==", "== notes ==")


def _layout_faults(text: str) -> tuple[int, list[str]]:
    """Rows checked, and each row off the layout: in a block other than the
    golden checks and the notes, every line is ``label.ljust(w) + " : " +
    value`` with one ``w = max(24, longest label)`` per block."""
    rows, faults = 0, []
    for chunk in text.split("\n\n"):
        title, *body = chunk.splitlines() or [""]
        if not title.startswith("== ") or title in _FREE_FORM:
            continue
        labels = [line.partition(" : ")[0].rstrip() for line in body]
        width = max(24, *map(len, labels))
        for line, label in zip(body, labels):
            rows += 1
            if line != label.ljust(width) + " : " + line.partition(" : ")[2]:
                faults.append(line)
    return rows, faults


def _masked(text: str) -> str:
    """The report with every value after `` : `` replaced by ``*``."""
    return "\n".join(line.partition(" : ")[0] + " : *" if " : " in line else line for line in text.split("\n"))


def _non_resonant_source(tmp_path: Path) -> list[str]:
    """A = I with alpha = 3/2 and xi = 1/4, so R = I/2 is invertible: exit 1."""
    save_matrix_csv(tmp_path / "a.csv", np.eye(2))
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[problem]\nalpha = 1.5\nxi = 0.25\ngrid_n = 64\n[operator]\ncsv = a.csv\n")
    return ["--config", str(cfg)]


class TestReportLayout:
    @pytest.mark.parametrize(
        "command, source, flags, exit_code",
        [
            ("analyze", _section4_source, [], 0),
            ("check-hypotheses", _section4_source, [], 0),
            ("solve", _section4_source, [], 0),
            ("verify-example", _section4_source, [], 0),
            ("analyze", _non_resonant_source, [], 1),
            ("solve", _section4_source, ["--k", "8", "--max-iter", "1"], 2),
            ("analyze", _section4_source, ["--seed", "-1"], 3),
            ("analyze", lambda tmp_path: ["--builtin", "section4", "--grid", "30"], [], 3),
        ],
        ids=["analyze", "hyp", "solve", "verify", "exit1-non-resonant", "exit2-max-iter", "exit3-seed", "exit3-grid"],
    )
    def test_every_block_follows_the_layout_rule(self, tmp_path, command, source, flags, exit_code):
        out = tmp_path / "out"
        assert main([command, *source(tmp_path), *flags, "--out", str(out)]) == exit_code
        rows, faults = _layout_faults((out / "report.txt").read_text())
        assert not faults
        # An input error stops a flow before its first block.
        assert (rows == 0) == (exit_code == 3)

    def test_layout_check_catches_a_misaligned_row(self):
        # "kernel dimension" padded to 25 where the block's width is 24.
        text = "== block ==\n" + "rank".ljust(24) + " : 2\n" + "kernel dimension".ljust(25) + " : 1\n\n"
        assert _layout_faults(text) == (2, ["kernel dimension".ljust(25) + " : 1"])

    @pytest.mark.parametrize(
        "command, recorded",
        [("analyze", "section4_n256_analyze_report.txt"), ("check-hypotheses", "section4_n256_hypotheses_report.txt")],
        ids=["analyze", "hyp"],
    )
    def test_recorded_layout_with_values_masked(self, tmp_path, command, recorded):
        out = tmp_path / "out"
        assert main([command, *_section4_source(tmp_path), "--out", str(out)]) == 0
        assert _masked((out / "report.txt").read_text()) == _masked((DATA / recorded).read_text())
