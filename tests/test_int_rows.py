"""IntRow against the rows it replaced: lists of Fraction entries.

Every helper on int rows must give what its list body gives on the Fraction
twins of those rows, in type and in value, and a whole rational run must give
the same solution, report, norms and outer trace with either kind of row
(``conftest.fraction_rows`` swaps the rational row constructor).
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fraction_rows, sum_trees, tree_fn
from pdrbsde import cli
from pdrbsde import values as v
from pdrbsde.config import load_config
from pdrbsde.scenario import generate_corpus, realize
from pdrbsde.verify import verify_drbsde_solution

LENGTHS = (1, 2, 4, 8)
DENS = st.sampled_from([1, 2, 3, 7, 8, 12, 2**64 + 1, 3**41])
NUMS = st.one_of(st.integers(-20, 20), st.integers(-(2**80), 2**80))


@st.composite
def exact_rows(draw, length=None, nums=NUMS, kinds=("any", "zeros", "constant")):
    """(numerators, denominator) of a row: any numerators, all zeros, or one
    value repeated, over one of several denominators."""
    n = length or draw(st.sampled_from(LENGTHS))
    kind = draw(st.sampled_from(kinds))
    if kind == "zeros":
        values = [0] * n
    elif kind == "constant":
        values = [draw(nums)] * n
    else:
        values = draw(st.lists(nums, min_size=n, max_size=n))
    return values, draw(DENS)


def twins(nums_den) -> tuple:
    """The IntRow of (nums, den), and its Fraction twin."""
    nums, den = nums_den
    return v.BACKENDS["rational"].row(list(nums), den), [F(n, den) for n in nums]


def same(got, want) -> None:
    """An IntRow and a Fraction list with equal entries, or equal scalars."""
    if isinstance(want, list):
        assert type(got) is v.IntRow
        got = v.entries(got)
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
    else:
        assert (type(got), got) == (type(want), want)


def _affine(x, y):
    return 2 * x - y * y + F(1, 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(exact_rows(), min_size=3, max_size=3))
def test_arithmetic_matches_fraction_rows(triple):
    (a, fa), (b, fb), (c, fc) = map(twins, triple)
    for op in (v.add, v.sub, v.mul, v.vmax, v.vmin, v.scaled_pos):
        same(op(a, b), op(fa, fb))
        same(op(a, fb), op(fa, fb))  # a Fraction list met by an IntRow is read as one
    for op in (v.clamp, v.scaled_min):
        same(op(a, b, c), op(fa, fb, fc))
        same(op(fa, b, fc), op(fa, fb, fc))
    for op in (v.pos_part, v.neg_part):
        same(op(a), op(fa))
    for k in (F(-3, 7), F(0), F(5, 2), -1):
        same(v.smul(k, a), v.smul(k, fa))
    for k in (F(-3, 7), F(0), F(5, 2)):
        for call in (True, False):
            same(v.payoff(a, k, call), v.payoff(fa, k, call))
    same(v.apply(_affine, a, b), v.apply(_affine, fa, fb))


@settings(max_examples=150, deadline=None)
@given(exact_rows(), exact_rows())
def test_tests_match_fraction_rows(ra, rb):
    (a, fa), (b, fb) = twins(ra), twins(rb)
    for tol in (0, F(1, 3), 2):
        for op in (v.any_below, v.any_above, v.any_exceeds):
            assert op(a, b, tol) == op(fa, fb, tol)
    # a float tolerance compares exactly with a Fraction, so with an IntRow too
    for tol in (0, F(1, 3), 2, 1e-12, 0.5):
        assert v.any_negative(a, tol) == v.any_negative(fa, tol)
        assert v.any_beyond(a, tol) == v.any_beyond(fa, tol)
        assert v.any_exceeds(a, b, tol) == v.any_exceeds(fa, fb, tol)
    assert v.any_negative(a) == v.any_negative(fa)
    assert v.any_nonzero(a) == v.any_nonzero(fa)
    assert v.any_nonpositive(a) == v.any_nonpositive(fa)
    assert v.any_both_nonzero(a, b) == v.any_both_nonzero(fa, fb)
    assert v.eq(a, b) == v.eq(fa, fb) and v.eq(a, fb) == v.eq(fa, fb)
    assert v.eq(a, v.expand(a, 8)) and v.eq(v.expand(a, 8), fa)
    assert v.first_above(a, b, 16) == v.first_above(fa, fb, 16)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LENGTHS).flatmap(
    lambda n: st.tuples(exact_rows(n),
                        exact_rows(n, st.integers(1, 2**70), ("any", "constant")))))
def test_averages_match_fraction_rows(row_weights):
    (x, fx), (w, fw) = map(twins, row_weights)
    for m in (1, 2, 4, 8, 16):
        if m <= len(x) and len(x) % m:
            continue
        same(v.block_means(x, w, m), v.block_means(fx, fw, m))
        if m <= len(x):
            assert v.constant_on_blocks(x, m, "rational") == \
                v.constant_on_blocks(fx, m, "rational")
    same(v.dot(w, x), v.dot(fw, fx))
    floats = [float(f) for f in fx]
    same(v.dot(w, floats), v.dot(fw, floats))


@settings(max_examples=150, deadline=None)
@given(exact_rows(), exact_rows())
def test_magnitudes_and_boundaries_match_fraction_rows(ra, rb):
    (a, fa), (b, fb) = twins(ra), twins(rb)
    for fn in (v.squares, v.magnitudes, v.signs):
        assert fn(a) == fn(fa) and all(type(x) is type(y) for x, y in zip(fn(a), fn(fa)))
    assert v.to_json("rational", a) == v.to_json("rational", fa)
    same(v.sup_abs(a), v.sup_abs(fa))
    assert v.max_magnitude([a, b]) == v.max_magnitude([fa, fb])
    assert v.max_float(0.0, [a, b]) == v.max_float(0.0, [fa, fb])
    factors = [1.0, 2.5]
    assert v.max_weighted_squares(factors, [a, b]) == v.max_weighted_squares(factors, [fa, fb])
    same(v.expand(a, 8), v.expand(fa, 8))
    for m in (1, 2, 4, 8):
        if m <= len(a):
            same(v.coarsen(a, m), v.coarsen(fa, m))
    assert v.entries(a) == fa
    labels = [f"{i}," for i in range(8)]
    assert list(v.dump_lines("rational", [("0,mid,", a)], labels, "\r\n")) == \
        list(v.dump_lines("rational", [("0,mid,", fa)], labels, "\r\n"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_combine_matches_fraction_rows_in_reduced_form(data):
    """A tree of + and - over IntRows gives what it gives over their Fraction
    twins, reduced, also with a Fraction list among the rows."""
    k = data.draw(st.integers(2, 7))
    pairs = [twins(data.draw(exact_rows())) for _ in range(k)]
    fn = tree_fn(data.draw(sum_trees(0, k)))
    ints, fractions = [a for a, _ in pairs], [fa for _, fa in pairs]
    got = v.combine(fn, *ints)
    same(got, v.combine(fn, *fractions))
    assert got.den > 0 and reduce(math.gcd, got.nums, got.den) == 1
    mixed = [fa if i % 2 else a for i, (a, fa) in enumerate(pairs)]
    assert v.combine(fn, *mixed) == got


def _run(path) -> tuple:
    """A rational solve of the scenario, and what the run reports of it: the
    rows of every component, the driver, the verification, norms and trace."""
    scenario = realize(load_config(str(path)))
    sol, g, trace = cli._solve_scenario(scenario)
    report = verify_drbsde_solution(g, scenario.barriers, sol, tol=cli._gate_tol(scenario))
    procs = [getattr(sol, field) for field in cli._COMPONENTS.values()]
    rows = [[v.entries(r) for r in slot] for p in procs for slot in p.slots]
    rows += [[v.entries(r) for r in sol.z], [v.entries(r) for r in g]]
    return type(sol.y.mid_rows[0]), rows, report, cli._norms(sol, scenario.config), trace


@pytest.mark.parametrize("seed", [0, 3])
def test_corpus_matches_fraction_rows(tmp_path, seed):
    """Zero difference on the corpus: components, report (worst cells too),
    norms and the outer loop's trace."""
    for path in generate_corpus(seed, 50, tmp_path):
        kind, *got = _run(path)
        with fraction_rows():
            oracle_kind, *want = _run(path)
        assert (kind, oracle_kind) == (v.IntRow, list)
        assert got == want, path.name
