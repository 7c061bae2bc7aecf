"""Rows on atoms against rows on paths.

A row with one value per path is a valid row of any process, so one run on
the per-path rows of a scenario is the oracle for the run on its atom rows:
the same barriers and driver, expanded to paths, must give the same seven
components, the same driver, the same dumps and the same verification
report (exactly in rational mode, within 1e-10 in float mode).  The reports
are compared again after both solutions are moved, so that their worst cells
are named: once by a few single cells, and once by Y's value at t_1 on the
last atom of sigma_minus[1], which the atom run keeps as one atom value.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import move_cells
from pdrbsde import cli
from pdrbsde import values as v
from pdrbsde.config import config_from_dict, load_config
from pdrbsde.drbsde import BarrierPair
from pdrbsde.processes import from_slots, sup_distance
from pdrbsde.scenario import estimate_template, generate_corpus, realize
from pdrbsde.verify import verify_drbsde_solution

COMPONENTS = ("y", "m", "a", "b", "a_prime", "b_prime")
DUMPS = ("solution_Y.csv", "solution_M.csv", "solution_A.csv", "solution_B.csv",
         "solution_A_prime.csv", "solution_B_prime.csv", "solution_Z.csv", "driver_g.csv")


def on_paths(scenario):
    """The scenario with its barriers and driver given once per path."""
    def expanded(p):
        return from_slots(p.space, p.minus, p.mid, p.plus)

    pair = BarrierPair(xi=expanded(scenario.barriers.xi), zeta=expanded(scenario.barriers.zeta))
    g = None if scenario.g is None else [list(row) for row in scenario.g]
    return replace(scenario, barriers=pair, g_rows=g)


def move_last_atom(sol, delta):
    """The solution with Y_1 moved by ``delta`` on the last atom of sigma_minus[1]."""
    space, y = sol.y.space, sol.y
    bump = [0 * delta] * (len(space.sigma_minus[1]) - 1) + [delta]
    mid = [*y.mid_rows[:1], v.add(y.mid_rows[1], bump), *y.mid_rows[2:]]
    return replace(sol, y=from_slots(space, y.minus_rows, mid, y.plus_rows))


def run(scenario, out, delta):
    """Solve, verify and dump as ``--mode solve`` does; then verify the
    solution again, moved two ways by ``delta``."""
    sol, g, _ = cli._solve_scenario(scenario)
    tol = cli._gate_tol(scenario)
    reports = tuple(verify_drbsde_solution(g, scenario.barriers, s, tol=tol)
                    for s in (sol, move_cells(sol, delta), move_last_atom(sol, delta)))
    out.mkdir(parents=True)
    cli._dump_solution(out, sol, g)
    return sol, g, reports


def _row_gap(rows_a, rows_b) -> float:
    return max((abs(float(x)) for a, b in zip(rows_a, rows_b, strict=True)
                for x in v.entries(v.sub(a, b))), default=0.0)


def _compare(tmp_path, scenario, delta):
    """The largest difference between the two runs in each output, the two
    runs' reports (as solved, and moved), and their dump directories."""
    paths = on_paths(scenario)
    n_paths = scenario.space.n_paths
    assert all(len(r) == n_paths for r in paths.barriers.xi.mid_rows)
    atoms_out, paths_out = (tmp_path / scenario.config.name / side for side in ("atoms", "paths"))
    sol, g, reports = run(scenario, atoms_out, delta)
    sol_p, g_p, reports_p = run(paths, paths_out, delta)
    gaps = {name: float(sup_distance(getattr(sol, name), getattr(sol_p, name)))
            for name in COMPONENTS}
    gaps["z"], gaps["g"] = _row_gap(sol.z, sol_p.z), _row_gap(g, g_p)
    parse = scenario.space.backend.parse
    for name in DUMPS:
        lines = zip((atoms_out / name).read_text().splitlines()[1:],
                    (paths_out / name).read_text().splitlines()[1:], strict=True)
        gaps[name] = max(abs(float(parse(a.rsplit(",", 1)[1]) - parse(b.rsplit(",", 1)[1])))
                         for a, b in lines)
    return gaps, reports, reports_p, (atoms_out, paths_out)


@pytest.mark.parametrize("seed", [0, 3])
def test_rational_corpus_atoms_match_paths(tmp_path, seed):
    named = 0
    for path in generate_corpus(seed, 50, tmp_path / "corpus"):
        scenario = realize(load_config(str(path)))
        gaps, reports, reports_p, (atoms_out, paths_out) = _compare(
            tmp_path, scenario, Fraction(1, 7))
        assert not any(gaps.values()), (scenario.config.name, gaps)
        for report, report_p in zip(reports, reports_p):
            assert (json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
                    == json.dumps(report_p.to_json_dict(), sort_keys=True, indent=1)), \
                scenario.config.name
        for name in DUMPS:
            assert (atoms_out / name).read_bytes() == (paths_out / name).read_bytes(), name
        named += sum(c.worst_cell is not None for r in reports[1:] for c in r.conditions)
    assert named > 50 * 8


def _ladder_configs():
    """The float-ladder inputs: dt = 1/16 rungs and the off-grid rung."""
    for n, t in ((6, "3/8"), (8, "1/2"), (10, "5/8"), (10, "1/2")):
        doc = estimate_template(1)
        doc.update(name=f"ladder_{n}_{t.replace('/', '_')}", grid={"N": n, "T": t})
        doc["marks"] = [dict(doc["marks"][0], instant=n // 2)]
        yield config_from_dict(json.loads(json.dumps(doc)))


def test_float_ladder_atoms_match_paths(tmp_path):
    for cfg in _ladder_configs():
        gaps, reports, reports_p, _ = _compare(tmp_path, realize(cfg), 0.1)
        assert max(gaps.values()) <= 1e-10, (cfg.name, gaps)
        for report, report_p in zip(reports, reports_p):
            for a, b in zip(report.conditions, report_p.conditions, strict=True):
                assert (a.name, a.passed) == (b.name, b.passed)
                assert abs(a.max_residual - b.max_residual) <= 1e-10, a.name
