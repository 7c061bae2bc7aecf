"""The row-wise verifier and the slot-row CSV dump against the per-cell code
they replaced: equal reports (worst cells included) and byte-equal dumps."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from conftest import cell_scan_condition, csv_writer_dump
from pdrbsde import cli, verify
from pdrbsde.config import config_from_dict
from pdrbsde.reports import ConditionReport, VerificationReport, condition_from_rows
from pdrbsde.scenario import estimate_template, generate_corpus, realize

DUMPS = ("solution_Y.csv", "solution_M.csv", "solution_A.csv", "solution_B.csv",
         "solution_A_prime.csv", "solution_B_prime.csv", "solution_Z.csv", "driver_g.csv")


def _verify_both_ways(monkeypatch, scenario, g, sol):
    tol = cli._gate_tol(scenario)
    rows = verify.verify_drbsde_solution(g, scenario.barriers, sol, tol=tol)
    scanned = []

    def oracle(name, rows, tol):
        scanned.append(name)
        return cell_scan_condition(name, rows, tol)

    with monkeypatch.context() as m:
        m.setattr(verify, "condition_from_rows", oracle)
        cells = verify.verify_drbsde_solution(g, scenario.barriers, sol, tol=tol)
    # every residual condition went through the oracle, and so did the [M, W]
    # deviation inside component_classes; the other conditions have no rows
    not_rows = {"mutual_singularity_A", "mutual_singularity_B", "component_classes"}
    assert scanned == [c.name for c in cells.conditions if c.name not in not_rows] + ["[M, W]"]
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


NAN = float("nan")


@pytest.mark.parametrize("rows, cell", [
    ([("a", [NAN, 2.0])], "a,path=0"),
    ([("a", [0.0, NAN])], "a,path=1"),
    ([("a", [1.0, NAN, 5.0, NAN])], "a,path=1"),
    ([("a", [0.0, 7.0]), ("b", [Fraction(1), NAN]), ("c", [NAN, 9.0])], "b,path=1"),
], ids=["first_cell", "after_zero", "later_in_row", "later_row"])
def test_nan_residual_fails_its_condition(rows, cell):
    """A NaN never compares greater, yet it is the worst cell wherever it sits."""
    cond = condition_from_rows("nan", rows, 1e-10)
    assert (cond.passed, cond.worst_cell) == (False, cell)
    assert math.isnan(cond.max_residual)
    report = VerificationReport((ConditionReport("ok", True, 3.0), cond))
    assert not report.passed and math.isnan(report.max_residual)


def test_nan_bracket_deviation_fails_component_classes():
    doc = estimate_template(1)
    doc.update(grid={"N": 4, "T": "1/4"}, marks=[dict(doc["marks"][0], instant=2)])
    scenario = realize(config_from_dict(doc))
    sol, g, _ = cli._solve_scenario(scenario)
    sol.m.mid[2][-1] = NAN
    cond = verify.verify_drbsde_solution(g, scenario.barriers, sol).condition("component_classes")
    assert (cond.passed, cond.worst_cell) == (False, "[M, W] != 0")
    assert math.isnan(cond.max_residual)
