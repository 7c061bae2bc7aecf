"""The row-wise verifier and the slot-row CSV dump against the per-cell code
they replaced: equal reports (worst cells included) and byte-equal dumps."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conftest import cell_scan_condition, csv_writer_dump
from pdrbsde import cli, drbsde, snell
from pdrbsde.config import config_from_dict
from pdrbsde.reports import condition_from_rows
from pdrbsde.scenario import estimate_template, generate_corpus, realize

DUMPS = ("solution_Y.csv", "solution_M.csv", "solution_A.csv", "solution_B.csv",
         "solution_A_prime.csv", "solution_B_prime.csv", "solution_Z.csv", "driver_g.csv")


def _verify_both_ways(monkeypatch, scenario, g, sol):
    tol = cli._gate_tol(scenario)
    rows = drbsde.verify_drbsde_solution(g, scenario.barriers, sol, tol=tol)
    with monkeypatch.context() as m:
        m.setattr(snell, "condition_from_rows", cell_scan_condition)
        m.setattr(drbsde, "condition_from_rows", cell_scan_condition)
        cells = drbsde.verify_drbsde_solution(g, scenario.barriers, sol, tol=tol)
    return rows, cells


def _move(sol, delta):
    """Move a few Y and A values so that most conditions see nonzero residuals."""
    n = sol.y.n_steps
    sol.y.mid[0][0] += delta
    sol.y.mid[n // 2][-1] -= delta
    sol.y.plus[0][-1] += delta
    sol.a.mid[n][0] += delta


def _check(tmp_path, monkeypatch, scenario, delta):
    sol, g, _ = cli._solve_scenario(scenario)
    for moved in (False, True):
        if moved:
            _move(sol, delta)
        rows, cells = _verify_both_ways(monkeypatch, scenario, g, sol)
        assert rows == cells
        assert rows.to_json() == cells.to_json()
        new, old = tmp_path / "new", tmp_path / "old"
        new.mkdir(exist_ok=True)
        old.mkdir(exist_ok=True)
        cli._dump_solution(new, sol, g)
        csv_writer_dump(old, sol, g)
        for name in DUMPS:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name
    return rows


def test_rational_corpus_matches_per_cell_code(tmp_path, monkeypatch):
    worst_cells = 0
    for path in generate_corpus(0, 50, tmp_path / "corpus"):
        scenario = realize(config_from_dict(json.loads(path.read_text())))
        report = _check(tmp_path, monkeypatch, scenario, Fraction(1, 7))
        worst_cells += sum(c.worst_cell is not None for c in report.conditions)
    assert worst_cells > 50 * 5


def test_float_scenario_matches_per_cell_code(tmp_path, monkeypatch):
    doc = estimate_template(1)
    doc.update(grid={"N": 6, "T": "1/2"}, marks=[dict(doc["marks"][0], instant=3)])
    scenario = realize(config_from_dict(doc))
    sol, g, _ = cli._solve_scenario(scenario)
    unmoved, _ = _verify_both_ways(monkeypatch, scenario, g, sol)
    assert unmoved.passed and unmoved.max_residual > 0  # rounding, not exact zero
    report = _check(tmp_path, monkeypatch, scenario, 0.1)
    assert not report.passed


def test_ties_report_the_first_cell():
    rows = [("a", [Fraction(1), Fraction(-3), Fraction(3)]), ("b", [3.0]),
            ("c", [Fraction(0), -3.0])]
    cond = condition_from_rows("tie", rows, 0)
    assert cond == cell_scan_condition("tie", rows, 0)
    assert (cond.worst_cell, cond.max_residual, cond.passed) == ("a,path=1", 3.0, False)
    later = [("a", [1.0]), ("b", [2.0, 0.5, 2.0])]
    assert condition_from_rows("tie", later, 2.0).worst_cell == "b,path=0"
    assert condition_from_rows("tie", later, 2.0).passed


@pytest.mark.parametrize("rows", [[], [("a", [])], [("a", [0.0, -0.0]), ("b", [Fraction(0)])]],
                         ids=["no_rows", "empty_row", "zeros"])
def test_all_zero_has_no_worst_cell(rows):
    cond = condition_from_rows("zero", rows, 0)
    assert cond == cell_scan_condition("zero", rows, 0)
    assert (cond.passed, cond.max_residual, cond.worst_cell) == (True, 0.0, None)
