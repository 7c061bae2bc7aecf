"""The row-wise verifier and the slot-row CSV dump against the per-cell code
they replaced: equal reports (worst cells included) and byte-equal dumps."""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    bracket,
    brownian_process,
    cell_scan_condition,
    condition_from_rows,
    csv_writer_dump,
    magnitudes_condition,
    move_cells,
    rand_on,
    set_cell,
)
from pdrbsde import cli, verify
from pdrbsde import values as v
from pdrbsde.config import config_from_dict
from pdrbsde.processes import ito_integral, p_add
from pdrbsde.reports import ConditionReport, VerificationReport
from pdrbsde.scenario import estimate_template, generate_corpus, realize

DUMPS = ("solution_Y.csv", "solution_M.csv", "solution_A.csv", "solution_B.csv",
         "solution_A_prime.csv", "solution_B_prime.csv", "solution_Z.csv", "driver_g.csv")


def _verify_both_ways(monkeypatch, scenario, g, sol):
    tol = cli._gate_tol(scenario)
    rows = verify.verify_drbsde_solution(g, scenario.barriers, sol, tol=tol)
    scanned = []

    class Oracle:
        """``ConditionRows`` that keeps every row, and scans their cells."""

        def __init__(self, name, tol, n_paths):
            self.name, self.tol, self.n_paths, self.lanes = name, tol, n_paths, {}

        def add(self, label, res, lane=0):
            self.lanes.setdefault(lane, []).append((label, res))

        def report(self):
            scanned.append(self.name)
            rows = [row for lane in sorted(self.lanes) for row in self.lanes[lane]]
            return cell_scan_condition(self.name, rows, self.tol, self.n_paths)

    with monkeypatch.context() as m:
        m.setattr(verify, "ConditionRows", Oracle)
        cells = verify.verify_drbsde_solution(g, scenario.barriers, sol, tol=tol)
    # every residual condition went through the oracle, and so did the [M, W]
    # deviation inside component_classes; the other conditions have no rows
    not_rows = {"mutual_singularity_A", "mutual_singularity_B", "component_classes"}
    assert scanned == [c.name for c in cells.conditions if c.name not in not_rows] + ["[M, W]"]
    return rows, cells


def _check(tmp_path, monkeypatch, scenario, delta):
    sol, g, _ = cli._solve_scenario(scenario)
    for moved in (False, True):
        if moved:
            sol = move_cells(sol, delta)
        rows, cells = _verify_both_ways(monkeypatch, scenario, g, sol)
        assert rows == cells
        assert (json.dumps(rows.to_json_dict(), sort_keys=True, indent=1)
                == json.dumps(cells.to_json_dict(), sort_keys=True, indent=1))
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
            ("c", [Fraction(0), -3.0, 0.0])]
    cond = condition_from_rows("tie", rows, 0, 3)
    assert cond == cell_scan_condition("tie", rows, 0, 3)
    assert (cond.worst_cell, cond.max_residual, cond.passed) == ("a,path=1", 3.0, False)
    later = [("a", [1.0]), ("b", [2.0, 0.5, 2.0])]
    assert condition_from_rows("tie", later, 2.0, 3).worst_cell == "b,path=0"
    assert condition_from_rows("tie", later, 2.0, 3).passed


@pytest.mark.parametrize("rows", [[], [("a", [])], [("a", [0.0, -0.0]), ("b", [Fraction(0)])]],
                         ids=["no_rows", "empty_row", "zeros"])
def test_all_zero_has_no_worst_cell(rows):
    cond = condition_from_rows("zero", rows, 0, 2)
    assert cond == cell_scan_condition("zero", rows, 0, 2)
    assert (cond.passed, cond.max_residual, cond.worst_cell) == (True, 0.0, None)


NAN = float("nan")

# rows that the one-test pass of a zero row must treat as the magnitudes do
ZERO_ROW_CASES = {
    "zeros": [("a", [0.0, 0.0]), ("b", [0.0])],
    "negative_zeros": [("a", [-0.0, -0.0]), ("b", [-0.0])],
    "fraction_zeros": [("a", [Fraction(0)] * 4), ("b", [Fraction(0)])],
    "nan": [("a", [0.0, 0.0]), ("b", [0.0, NAN]), ("c", [NAN, 1.0])],
    "zero_then_nonzero": [("a", [0.0, -0.0]), ("b", [0.0, -2.0]), ("c", [Fraction(0)]),
                          ("d", [Fraction(-2), Fraction(1)])],
    "nonzero_then_zero": [("a", [0.0, 1e-300]), ("b", [-0.0, 0.0, 0.0, 0.0])],
    "empty": [("a", []), ("b", [0.0]), ("c", [])],
}


@pytest.mark.parametrize("case", sorted(ZERO_ROW_CASES))
@pytest.mark.parametrize("tol", [0, 1e-10])
def test_zero_rows_report_as_their_magnitudes(case, tol):
    rows = ZERO_ROW_CASES[case]
    got = condition_from_rows("c", iter(rows), tol, 4)
    want = magnitudes_condition("c", rows, tol, 4)
    assert repr(got) == repr(want)  # a NaN residual equals nothing, its repr does


@pytest.mark.parametrize("rows, cell", [
    ([("a", [NAN, 2.0])], "a,path=0"),
    ([("a", [0.0, NAN])], "a,path=1"),
    ([("a", [1.0, NAN, 5.0, NAN])], "a,path=1"),
    ([("a", [0.0, 7.0]), ("b", [Fraction(1), NAN]), ("c", [NAN, 9.0])], "b,path=1"),
], ids=["first_cell", "after_zero", "later_in_row", "later_row"])
def test_nan_residual_fails_its_condition(rows, cell):
    """A NaN never compares greater, yet it is the worst cell wherever it sits."""
    cond = condition_from_rows("nan", rows, 1e-10, len(rows[0][1]))
    assert (cond.passed, cond.worst_cell) == (False, cell)
    assert math.isnan(cond.max_residual)
    report = VerificationReport((ConditionReport("ok", True, 3.0), cond))
    assert not report.passed and math.isnan(report.max_residual)


def test_nan_bracket_deviation_fails_component_classes(monkeypatch):
    """[M, W] summed row by row gives the deviation, and the worst cell, of
    the mid rows of bracket(M, W) built as whole processes, to the bit: for an
    M with a NaN cell, and, in both arithmetics, for the solved M plus a
    random int Z dW, whose interval increments are then nonzero (in float
    mode on an irrational sqrt(dt), so that the sums round)."""
    doc = estimate_template(1)
    doc["marks"] = [dict(doc["marks"][0], instant=2)]
    cases = []
    for arithmetic, t in (("float", "1/2"), ("rational", "1/4")):
        doc.update(grid={"N": 4, "T": t}, arithmetic=arithmetic)
        scenario = realize(config_from_dict(doc))
        sol, g, _ = cli._solve_scenario(scenario)
        space, rng = scenario.space, random.Random(7)
        z = [v.as_row(arithmetic, rand_on(space, space.sigma_mid[k], rng))
             for k in range(space.n_steps)]
        m = p_add(sol.m, ito_integral(space, z))
        cases.append((scenario, g, replace(sol, m=m)))
        if arithmetic == "float":
            cases.append((scenario, g, replace(sol, m=set_cell(sol.m, "mid", 2, -1, NAN))))
    reports = {}

    class Recorded(verify.ConditionRows):
        def report(self):
            reports[self.name] = super().report()
            return reports[self.name]

    monkeypatch.setattr(verify, "ConditionRows", Recorded)
    for scenario, g, sol in cases:
        tol = cli._gate_tol(scenario)
        cond = verify.verify_drbsde_solution(g, scenario.barriers, sol, tol=tol)
        cond = cond.condition("component_classes")
        space = scenario.space
        want = condition_from_rows("[M, W]", enumerate(bracket(sol.m, brownian_process(space))
                                                       .mid_rows), tol, space.n_paths)
        got = reports["[M, W]"]
        assert (got.max_residual.hex(), got.worst_cell) == \
            (want.max_residual.hex(), want.worst_cell), space.mode
        assert want.max_residual != 0 and want.worst_cell is not None
        assert (cond.passed, cond.worst_cell) == (False, "[M, W] != 0")
        assert cond.max_residual.hex() == want.max_residual.hex()
