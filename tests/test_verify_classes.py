"""The component classes, one violation at a time: a solved corpus scenario
with one class condition broken, and ``component_classes``' residual and
worst cell for it.  Every branch of ``validate_process`` is broken for each
of Y, M, A, B, A' and B', and so are Z's measurability and [M, W] = 0; the
cases with two violations pin which one the report names.  The
pre-operator's solution with Y moved off its supermartingale property, which
no class check reads, fails the equation at the moved cell instead.  A
branch that only a non-finite float reaches runs in float mode alone.

The scenario is corpus seed 0 scenario 006: N = 2, T = 1/2, a fair mark at
t_1, so sigma_minus[1] has 2 atoms of 4 paths and sigma_mid[1] has 4 of 2.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_space, random_predictable, verify_pre_solution
from pdrbsde import cli
from pdrbsde import values as v
from pdrbsde.config import config_from_dict
from pdrbsde.prob_space import on_paths
from pdrbsde.processes import (
    from_slots,
    is_predictable_strong_supermartingale,
    ito_integral,
    p_add,
)
from pdrbsde.scenario import generate_corpus, realize
from pdrbsde.snell import pre_operator
from pdrbsde.verify import verify_drbsde_solution


def bump(proc, slot, k, delta, paths=None):
    """The process with ``delta`` added to slot row k, on ``paths`` only (the
    row then holds one value per path) or on every path."""
    rows = {name: list(getattr(proc, f"{name}_rows")) for name in ("minus", "mid", "plus")}
    row = list(on_paths(proc.space, rows[slot][k]))
    for i in range(len(row)) if paths is None else paths:
        row[i] += delta
    rows[slot][k] = row
    return from_slots(proc.space, rows["minus"], rows["mid"], rows["plus"])


def bump_from(proc, slot, k, delta):
    """``delta`` added to slot row k and to every later slot row in time
    order (minus, mid and plus at each instant), on every path."""
    order = [(s, j) for j in range(proc.n_steps + 1) for s in ("minus", "mid", "plus")
             if s != "plus" or j < proc.n_steps]
    for s, j in order[order.index((slot, k)):]:
        proc = bump(proc, s, j, delta)
    return proc


def plus_w(m, c):
    """M plus c W: a martingale still, with [M, W]_T = c T."""
    return p_add(m, ito_integral(m.space, [m.space.constant(c)] * m.n_steps))


def finer_z(z, d):
    """Z with ``d`` added to z[1] on the first half of its first atom."""
    row = list(v.expand(v.entries(z[1]), 2 * len(z[1])))
    row[0] += d
    return [z[0], row]


def _reflector(name, label):
    """Each validate_process branch of a reflector: A, A' in the A class,
    B, B' in the B class."""
    one = lambda edit: [(name, edit)]  # noqa: E731
    cases = [
        (f"{name}_minus_measurable", one(lambda p, d: bump(p, "minus", 1, d, [0])),
         1.0, f"{label}: minus[1] not sigma_minus[1]-measurable"),
        (f"{name}_mid_measurable", one(lambda p, d: bump(p, "mid", 1, d, [0])),
         1.0, f"{label}: mid[1] not sigma_mid[1]-measurable"),
        (f"{name}_plus_measurable", one(lambda p, d: bump(p, "plus", 1, d, [0])),
         1.0, f"{label}: plus[1] not sigma_mid[1]-measurable"),
        (f"{name}_predictable",
         one(lambda p, d: bump(bump(p, "mid", 1, d, [0, 1]), "plus", 1, d, [0, 1])),
         1.0, f"{label}: mid[1] not sigma_minus[1]-measurable (predictable)"),
        (f"{name}_cadlag", one(lambda p, d: bump(p, "plus", 0, d)),
         1.0, f"{label}: cadlag violated at plus[0]"),
    ]
    if label[0] == "A":
        return cases + [
            (f"{name}_start", one(lambda p, d: bump_from(p, "minus", 0, d)),
             1.0, f"{label}: A-class needs A_0 = 0"),
            (f"{name}_increment_negative", one(lambda p, d: bump_from(p, "minus", 1, -100 * d)),
             1.0, f"{label}: A-class interval increment negative on (0,1)"),
            (f"{name}_jump_negative", one(lambda p, d: bump_from(p, "mid", 1, -100 * d)),
             1.0, f"{label}: A-class jump negative at instant 1"),
            # inf - inf: a NaN increment or jump of measurable rows
            (f"{name}_increment_measurable/float",
             one(lambda p, d: bump(bump_from(p, "mid", 1, math.inf), "minus", 1, math.inf)),
             1.0, f"{label}: A-class interval increment not sigma_minus[2]-measurable"),
            (f"{name}_jump_measurable/float",
             one(lambda p, d: bump(bump(p, "minus", 2, math.inf), "mid", 2, math.inf)),
             1.0, f"{label}: A-class jump not sigma_minus[2]-measurable"),
        ]
    return cases + [
        (f"{name}_start", one(lambda p, d: bump_from(p, "minus", 0, d)),
         1.0, f"{label}: B-class needs slot_minus[0] = 0"),
        (f"{name}_interval_variation", one(lambda p, d: bump_from(p, "minus", 1, d)),
         1.0, f"{label}: B-class has interval variation on (0,1)"),
        (f"{name}_jump_negative", one(lambda p, d: bump_from(p, "mid", 1, -100 * d)),
         1.0, f"{label}: B-class jump negative at instant 1"),
    ]


# (case id, [(component, edit(component, delta))], max_residual, worst_cell),
# the last two as the parent verifier reported them; an id ending in /float
# runs in float mode only
CASES = [
    ("y_minus_measurable", [("y", lambda p, d: bump(p, "minus", 1, d, [0]))],
     1.0, "Y: minus[1] not sigma_minus[1]-measurable"),
    ("y_mid_measurable", [("y", lambda p, d: bump(p, "mid", 1, d, [0]))],
     1.0, "Y: mid[1] not sigma_mid[1]-measurable"),
    ("y_plus_measurable", [("y", lambda p, d: bump(p, "plus", 1, d, [0]))],
     1.0, "Y: plus[1] not sigma_mid[1]-measurable"),
    ("y_predictable", [("y", lambda p, d: bump(p, "mid", 1, d, [0, 1]))],
     1.0, "Y: mid[1] not sigma_minus[1]-measurable (predictable)"),
    ("y_start", [("y", lambda p, d: bump(p, "minus", 0, d))],
     1.0, "Y: slot_minus[0] must equal slot_mid[0]"),
    ("m_minus_measurable", [("m", lambda p, d: bump(p, "minus", 1, d, [0]))],
     1.0, "M: minus[1] not sigma_minus[1]-measurable"),
    ("m_mid_measurable", [("m", lambda p, d: bump(p, "mid", 1, d, [0]))],
     1.0, "M: mid[1] not sigma_mid[1]-measurable"),
    ("m_plus_measurable", [("m", lambda p, d: bump(p, "plus", 1, d, [0]))],
     1.0, "M: plus[1] not sigma_mid[1]-measurable"),
    ("m_cadlag", [("m", lambda p, d: bump(p, "plus", 0, d))],
     1.0, "M: cadlag violated at plus[0]"),
    ("m_interval_mean", [("m", lambda p, d: bump_from(p, "minus", 1, d))],
     1.0, "M: martingale increment conditions violated"),
    ("m_jump_mean", [("m", lambda p, d: bump_from(p, "mid", 1, d))],
     1.0, "M: martingale increment conditions violated"),
    *_reflector("a", "A"), *_reflector("b", "B"),
    *_reflector("a_prime", "A'"), *_reflector("b_prime", "B'"),
    ("z_measurable", [("z", finer_z)], 1.0, "Z: z[1] not sigma_mid[1]-measurable"),
    ("bracket", [("m", lambda p, d: plus_w(p, 2 * d))], 0.25, "[M, W] != 0"),
    # a NaN in [M, W] is its worst residual, ahead of M's own class
    ("m_nan/float", [("m", lambda p, d: bump(p, "minus", 2, math.nan))],
     math.nan, "[M, W] != 0"),
    # two violations: an earlier check at a later instant comes first
    ("a_cadlag_then_measurable",
     [("a", lambda p, d: bump(bump(p, "plus", 0, d), "minus", 1, d, [0]))],
     1.0, "A: minus[1] not sigma_minus[1]-measurable"),
    # an earlier component comes first
    ("b_prime_and_y", [("b_prime", lambda p, d: bump_from(p, "mid", 1, -100 * d)),
                       ("y", lambda p, d: bump(p, "mid", 1, d, [0, 1]))],
     1.0, "Y: mid[1] not sigma_minus[1]-measurable (predictable)"),
    ("a_prime_and_b", [("a_prime", lambda p, d: bump(p, "plus", 0, d)),
                       ("b", lambda p, d: bump_from(p, "minus", 0, d))],
     1.0, "B: B-class needs slot_minus[0] = 0"),
    # a bracket above 1 comes before every other class
    ("z_and_bracket", [("z", finer_z), ("m", lambda p, d: plus_w(p, 16 * d))],
     2.0, "[M, W] != 0"),
]

# the pre-operator's solution, checked as a doubly reflected one, with Y
# lifted at t_1: the classes' residual and worst cell, then the equation's
# worst cell
ONE_BARRIER = [
    ("supermartingale", [("y", lambda p, d: bump(p, "mid", 1, d))],
     0.0, None, "left_jump,instant=1,path=0"),
    ("supermartingale_and_b", [("y", lambda p, d: bump(p, "mid", 1, d)),
                               ("b", lambda p, d: bump_from(p, "mid", 1, -100 * d))],
     1.0, "B: B-class jump negative at instant 1", "right_jump,instant=1,path=0"),
]


def _params(cases):
    return [pytest.param(arithmetic, case, id=f"{case[0].split('/')[0]}-{arithmetic}")
            for case in cases for arithmetic in ("rational", "float")
            if arithmetic == "float" or not case[0].endswith("/float")]


def _classes(report):
    c = report.condition("component_classes")
    return c.passed, repr(c.max_residual), c.worst_cell


def _edited(sol, edits, delta):
    for component, edit in edits:
        sol = replace(sol, **{component: edit(getattr(sol, component), delta)})
    return sol


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    path = generate_corpus(0, 7, tmp_path_factory.mktemp("corpus"))[6]
    out = {}
    for arithmetic in ("rational", "float"):
        doc = dict(json.loads(path.read_text(encoding="utf-8")), arithmetic=arithmetic)
        scenario = realize(config_from_dict(doc))
        sol, g, _ = cli._solve_scenario(scenario)
        out[arithmetic] = scenario, sol, g
    return out


@pytest.mark.parametrize("arithmetic,case", _params(CASES))
def test_class_violation(solved, arithmetic, case):
    _, edits, residual, cell = case
    scenario, sol, g = solved[arithmetic]
    tol = cli._gate_tol(scenario)
    assert _classes(verify_drbsde_solution(g, scenario.barriers, sol, tol)) == (
        True, "0.0", None)
    delta = Fraction(1, 4) if arithmetic == "rational" else 0.25
    report = verify_drbsde_solution(g, scenario.barriers, _edited(sol, edits, delta), tol)
    assert _classes(report) == (False, repr(residual), cell)


@pytest.mark.parametrize("arithmetic,case", _params(ONE_BARRIER))
def test_one_barrier_class_violation(arithmetic, case):
    _, edits, residual, cell, equation_cell = case
    space = make_space(3, "3/4", marks=[{"instant": 1, "labels": ["a", "b"],
                                         "probs": ["1/2", "1/2"]}], arithmetic=arithmetic)
    xi = random_predictable(space, random.Random(0))
    q = pre_operator(xi)
    assert _classes(verify_pre_solution(xi, q)) == (True, "0.0", None)
    delta = Fraction(1, 3) if arithmetic == "rational" else 0.25
    moved = _edited(q, edits, delta)
    report = verify_pre_solution(xi, moved)
    assert _classes(report) == (residual == 0, repr(residual), cell)
    equation = report.condition("equation_residual")
    assert (equation.passed, equation.worst_cell) == (False, equation_cell)
    assert not is_predictable_strong_supermartingale(moved.y)
