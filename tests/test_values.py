"""values.py: each row helper against the expression it stands for.

Every helper must give exactly what its expression gives when written out
over aligned entries, in atom order: the same values, the same types, the
same NaNs and the same signs of zero.  Rows of different lengths check the
alignment; Fraction and float rows check both backends.
"""

from __future__ import annotations

import ast
import dataclasses
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Chain, sum_trees, tree_fn
from pdrbsde import values as v

NAN = float("nan")

# pairs of rows of different lengths, in both backends; the float rows hold
# a NaN and signed zeros
ROWS = {
    "rational": ([F(1, 2), F(-3, 4)], [F(1), F(0), F(-1, 3), F(5, 2)], [F(2, 3)]),
    "float": ([0.5, -0.0], [1.0, NAN, -2.5, 0.0], [-0.0]),
}


def same(got, want) -> None:
    """Equal entry by entry, with NaN, the sign of zero and the type."""
    assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]


def on_atoms(row, size: int) -> list:
    """The row on ``size`` atoms, written out: atom i lies in entry i * len(row) // size."""
    return [row[i * len(row) // size] for i in range(size)]


def walk(*rows) -> list:
    size = max(map(len, rows))
    return list(zip(*(on_atoms(r, size) for r in rows)))


def combos(mode: str):
    """Every ordered choice of two rows of one backend, lengths differing or not."""
    rows = ROWS[mode]
    return [(a, b) for a in rows for b in rows]


MODES = ("rational", "float")


# ---------------------------------------------------------------------------
# the backend table


def test_backends_pick_type_format_and_parse():
    rat, flt = v.BACKENDS["rational"], v.BACKENDS["float"]
    same([rat.number(F(1, 3)), rat.number(2)], [F(1, 3), F(2)])
    same([flt.number(F(1, 4)), flt.number(2)], [0.25, 2.0])
    assert rat.format(F(-3, 4)) == "-3/4" and flt.format(0.1) == "0.1"
    assert rat.parse("-3/4") == F(-3, 4) and flt.parse("0.1") == 0.1
    assert rat.sqrt(F(9, 4)) == F(3, 2) and rat.sqrt(F(1, 2)) is None
    assert flt.sqrt(F(1, 2)) == math.sqrt(0.5)


def _entry(fn, *args):
    """The type and repr of fn(*args), or that it overflowed."""
    try:
        x = fn(*args)
    except OverflowError:
        return "overflow"
    return type(x), repr(x)


@pytest.mark.parametrize("mode", MODES)
def test_ratio_is_the_entry_of_the_fraction(mode):
    """The entry of row([n], d) is number(Fraction(n, d)): float's int / int
    and float(Fraction) are both the correctly rounded value of n / d."""
    b = v.BACKENDS[mode]

    def ratio(n, d):
        return v.entries(b.row([n], d))[0]

    scales = [F(s) for s in ("1", "2", "3", "1/2", "1/4", "1e7", "1e307", "1e400", "1e-300")]
    scales += [F(17**200, 3), F(2**60 + 1, 3**40)]
    nums = [k * s.numerator for s in scales for k in range(-16, 17)]
    dens = [8 * s.denominator for s in scales] + [1, 3, 7, 9, 2**60 + 1, 3**50, 10**400]
    outcomes = [_entry(ratio, n, d) == _entry(b.number, F(n, d)) for n in nums for d in dens]
    assert all(outcomes) and len(outcomes) == len(nums) * len(dens)
    assert (mode == "float") == (_entry(ratio, 17**300, 3) == "overflow")


def test_gate_is_the_int_zero_in_rational_mode():
    assert type(v.gate("rational", 1e-10)) is int and v.gate("rational", 1e-10) == 0
    assert v.gate("float", 1e-10) == 1e-10
    assert v.gate("rational", 1e-10, 1e-9) == 1e-9
    # an int 0 keeps arithmetic with it exact
    assert type(F(1, 3) - v.gate("rational", 1e-10)) is F


def test_convert_refine_coarsen():
    same(v.convert("rational", [F(1, 2), 3]), [F(1, 2), F(3)])
    same(v.convert("float", [F(1, 2), 3]), [0.5, 3.0])
    same(v.refine([F(1, 2), F(1, 4)], (F(1, 3), F(2, 3))),
         [F(1, 6), F(1, 3), F(1, 12), F(1, 6)])
    assert v.coarsen([1, 1, 2, 2, 3, 3], 3) == [1, 2, 3]


# ---------------------------------------------------------------------------
# arithmetic


@pytest.mark.parametrize("mode", MODES)
def test_clamp_is_vmin_of_vmax(mode):
    for a, lo in combos(mode):
        for hi in ROWS[mode]:
            same(v.clamp(a, lo, hi), v.vmin(v.vmax(a, lo), hi))


@pytest.mark.parametrize("mode", MODES)
def test_scaled_pos_and_scaled_min(mode):
    for d, a in combos(mode):
        same(v.scaled_pos(d, a), [y * max(x, 0) for y, x in walk(d, a)])
        for b in ROWS[mode]:
            same(v.scaled_min(d, a, b),
                 [z * min(max(x, 0), max(y, 0)) for z, x, y in walk(d, a, b)])


def test_scaled_min_carries_a_nan_and_a_negative_zero():
    got = v.scaled_min([1.0, 1.0, 2.0], [NAN, 3.0, -0.0], [2.0, NAN, 1.0])
    # min() keeps its first argument unless the second is smaller
    assert math.isnan(got[0]) and got[1] == 3.0
    assert repr(got[2]) == "-0.0"
    # a vmin of the positive parts would drop the first NaN
    assert v.vmin(v.pos_part([NAN]), v.pos_part([2.0])) == [2.0]


@pytest.mark.parametrize("mode", MODES)
def test_payoff(mode):
    k = v.BACKENDS[mode].number(F(1, 2))
    for row in ROWS[mode]:
        same(v.payoff(row, k, True), [max(x - k, 0 * x) for x in row])
        same(v.payoff(row, k, False), [max(k - x, 0 * x) for x in row])
    # the zero is 0 * x: a negative float underlying gives -0.0
    assert repr(v.payoff([-1.0], 1.0, True)[0]) == "-0.0"


@pytest.mark.parametrize("mode", MODES)
def test_apply(mode):
    def fn(x, y):
        return 2 * x - y * y

    for a, b in combos(mode):
        same(v.apply(fn, a, b), [fn(x, y) for x, y in walk(a, b)])
        # add, sub and mul are apply of their operator, lengths equal or not
        same(v.add(a, b), [x + y for x, y in walk(a, b)])
        same(v.sub(a, b), [x - y for x, y in walk(a, b)])
        same(v.mul(a, b), [x * y for x, y in walk(a, b)])
    same(v.apply(abs, ROWS[mode][1]), [abs(x) for x in ROWS[mode][1]])
    if mode == "float":  # the sign of a zero sum, and a NaN, as the expression gives them
        same(v.add([-0.0, 0.0, NAN], [-0.0, -0.0, 1.0]), [-0.0, 0.0, NAN])
        same(v.sub([0.0, -0.0], [0.0]), [0.0, -0.0])
        same(v.mul([-1.0, 2.0], [0.0, -0.0, NAN, 1.0]), [-0.0, 0.0, NAN, 2.0])


# ---------------------------------------------------------------------------
# tests over the entries


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tol", [0, 1e-12, 1])
def test_pairwise_tests(mode, tol):
    for a, b in combos(mode):
        pairs = walk(a, b)
        assert v.any_below(a, b, tol) == any(x < y - tol for x, y in pairs)
        assert v.any_above(a, b, tol) == any(x > y + tol for x, y in pairs)
        assert v.any_exceeds(a, b, tol) == any(x - y > tol for x, y in pairs)
        assert v.any_both_nonzero(a, b) == any(x != 0 and y != 0 for x, y in pairs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tol", [0, 1e-12, 1])
def test_row_tests(mode, tol):
    for row in ROWS[mode] + ([NAN, 0.0, -0.0, -1e-13],):
        assert v.any_nonzero(row) == any(x != 0 for x in row)
        assert v.any_negative(row) == any(x < 0 for x in row)
        assert v.any_negative(row, tol) == any(-x > tol for x in row)
        assert v.any_nonpositive(row) == any(x <= 0 for x in row)
        assert v.any_beyond(row, tol) == any(abs(x) > tol for x in row)


def test_row_tests_on_nan_and_negative_zero():
    assert v.any_nonzero([NAN]) and not v.any_nonzero([-0.0])
    assert not v.any_negative([NAN, -0.0]) and not v.any_nonpositive([NAN])
    assert v.any_nonpositive([-0.0]) and not v.any_beyond([NAN], 0)
    assert not v.any_below([NAN], [0.0], 0) and not v.any_above([NAN], [0.0], 0)


def test_first_above_names_the_first_atom_of_the_finer_row():
    assert v.first_above([F(0), F(2)], [F(1), F(1), F(1), F(1)], 8) == 4
    assert v.first_above([F(0)] * 4, [F(1)], 8) is None
    assert v.first_above([0.0, 1.0, 3.0, NAN], [2.0, 2.0], 4) == 2
    assert v.first_above([NAN, 0.0], [0.0], 2) is None


# ---------------------------------------------------------------------------
# averages and norms


def reference_block_means(row, weights, m):
    """The weighted mean of each block, summed from its first entry on."""
    step = len(row) // m
    out = []
    for j in range(0, len(row), step):
        num, den = weights[j] * row[j], weights[j]
        for i in range(j + 1, j + step):
            num, den = num + weights[i] * row[i], den + weights[i]
        out.append(num / den)
    return out


@pytest.mark.parametrize("mode", MODES)
def test_block_means_and_dot(mode):
    weights = v.convert(mode, [F(1, 8), F(3, 8), F(1, 4), F(1, 4)])
    row = v.convert(mode, [F(1, 3), F(-2), F(5, 7), F(0)])
    for m in (1, 2, 4):
        same(v.block_means(row, weights, m), reference_block_means(row, weights, m))
    same(v.block_means(row[:2], weights[:2], 4), on_atoms(row[:2], 4))
    same([v.dot(weights, row)], [sum(w * x for w, x in zip(weights, row))])


def test_block_means_of_a_nan_and_a_negative_zero():
    assert math.isnan(v.block_means([NAN, 1.0], [0.5, 0.5], 1)[0])
    assert repr(v.block_means([-0.0, -0.0], [0.5, 0.5], 1)[0]) == "-0.0"


def test_constant_on_blocks():
    assert v.constant_on_blocks([F(1), F(1), F(2), F(2)], 2, "rational")
    assert not v.constant_on_blocks([F(1), F(2), F(2), F(2)], 2, "rational")
    assert v.constant_on_blocks([1.0, 1.0], 2, "float")
    # a NaN equals nothing, so a row holding one is constant on no blocks,
    # not even on its own atoms
    nan_row = [NAN, NAN]
    assert not v.constant_on_blocks(nan_row, 1, "float")
    assert not v.constant_on_blocks(nan_row, 2, "float")
    assert v.constant_on_blocks([0.0, -0.0], 1, "float")
    # inf and -inf sum to NaN, yet hold none
    inf = math.inf
    assert v.constant_on_blocks([inf, -inf], 2, "float")
    assert v.constant_on_blocks([inf, inf, -inf, -inf], 2, "float")
    assert not v.constant_on_blocks([inf, -inf, -inf, -inf], 2, "float")


@pytest.mark.parametrize("mode", MODES)
def test_squares_and_max_weighted_squares(mode):
    rows = ROWS[mode]
    for row in rows:
        same(v.squares(row), [float(x) ** 2 for x in row])
    factors = [1.0, 2.0, 0.5]
    want = [max(e * float(x) ** 2 for e, x in zip(factors, col)) for col in walk(*rows)]
    same(v.max_weighted_squares(factors, rows), want)


def _max_weighted_squares_as_before(factors, rows) -> list:
    """The expression the fold replaced: every row squared on the atoms of the
    finest, then ``max`` per atom.  It needs two rows or more: with one, ``max``
    gets a single float and raises."""
    return list(map(max, *[[e * x ** 2 for x in v._floats(r)]
                           for e, r in zip(factors, v.align(*rows))]))


# entries whose squares stay finite, with the specials the fold must carry
SPECIALS = (NAN, -0.0, 0.0, math.inf, -math.inf)
ENTRIES = st.one_of(st.sampled_from(SPECIALS), st.floats(-1e150, 1e150))
FACTORS = st.one_of(st.sampled_from((1.0, 2.0, 0.5, 0.0, -1.0, math.inf, NAN)),
                    st.floats(-1e100, 1e100))


@st.composite
def row_lists(draw, filtration=False):
    """2-6 float rows on lengths base**j that divide one another; in the
    order a filtration grows in, or in any order."""
    base = draw(st.sampled_from((2, 3)))
    exps = draw(st.lists(st.integers(0, 3), min_size=2, max_size=6))
    if filtration:
        exps.sort()
    return [draw(st.lists(ENTRIES, min_size=base**j, max_size=base**j)) for j in exps]


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(row_lists), st.lists(FACTORS, min_size=6, max_size=6))
def test_max_weighted_squares_is_max_of_the_aligned_squares(rows, factors):
    same(v.max_weighted_squares(factors, rows), _max_weighted_squares_as_before(factors, rows))


ANY_FLOAT = st.one_of(st.sampled_from(SPECIALS), st.floats())


@st.composite
def combine_cases(draw):
    """2-7 float rows of 1, 2, 4 or 8 atoms, and a tree of + and - over them."""
    k = draw(st.integers(2, 7))
    rows = [draw(st.lists(ANY_FLOAT, min_size=n, max_size=n))
            for n in draw(st.lists(st.sampled_from((1, 2, 4, 8)), min_size=k, max_size=k))]
    return rows, draw(sum_trees(0, k))


@settings(max_examples=300, deadline=None)
@given(combine_cases())
def test_combine_matches_the_chain_bit_for_bit(case):
    rows, tree = case
    fn = tree_fn(tree)
    got, want = v.combine(fn, *rows), fn(*map(Chain, rows)).row
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("fn", [lambda x, y: x * y, lambda x: x + 1, lambda x: -x,
                                lambda x, y: abs(x - y)], ids=["product", "constant", "negation", "abs"])
def test_combine_refuses_anything_but_sums_and_differences(fn):
    """On IntRows the tree runs on numerators, where only + and - are exact."""
    rows = [[1.0, 2.0]] * fn.__code__.co_argcount
    with pytest.raises(TypeError):
        v.combine(fn, *rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_combine_computes_the_verifier_trees_as_the_chain(data):
    from pdrbsde import verify

    for fn, arity in ((verify._left_jump, 3), (verify._right_jump, 6), (verify._interval, 6),
                      (verify._integrated, 13)):
        rows = [data.draw(st.lists(ANY_FLOAT, min_size=n, max_size=n))
                for n in data.draw(st.lists(st.sampled_from((1, 2, 4, 8)),
                                            min_size=arity, max_size=arity))]
        got, want = v.combine(fn, *rows), fn(*map(Chain, rows)).row
        assert [x.hex() for x in got] == [x.hex() for x in want], fn.__name__


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("lengths", [(1, 2, 4, 4, 8), (8, 4, 1, 2, 8), (4, 4, 4, 4, 4)])
def test_max_weighted_squares_carries_nan_and_signed_zero(at, lengths):
    """A NaN in the first, a middle or the last row, on rows that grow as a
    filtration does, shrink, or keep one length; a -0.0 square (factor -1)
    and inf beside it."""
    rows = [[float(i + j) for j in range(n)] for i, n in enumerate(lengths)]
    rows[at][0] = NAN
    rows[-1][-1] = math.inf
    for factors in ([1.0, 2.0, 0.5, 3.0, 1.5], [-1.0, 1.0, -1.0, 0.0, -0.0]):
        got = v.max_weighted_squares(factors, rows)
        same(got, _max_weighted_squares_as_before(factors, rows))
    same(v.max_weighted_squares([-1.0, 1.0], [[0.0], [-0.0, NAN]]), [-0.0, -0.0])
    same(v.max_weighted_squares([1.0, 1.0], [[NAN, 1.0], [2.0]]), [NAN, 4.0])
    same(v.max_weighted_squares([2.0], [[1.0, -3.0]]), [2.0, 18.0])  # one row: its squares


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, 2, 4, 8)), st.integers(1, 2**70)), min_size=2,
                max_size=5),
       st.data())
def test_max_weighted_squares_on_int_rows(shapes, data):
    """IntRow inputs square n / den, as their Fraction twins square float(x)."""
    rows, twins = [], []
    for n, den in shapes:
        nums = data.draw(st.lists(st.integers(-(2**80), 2**80), min_size=n, max_size=n))
        rows.append(v.BACKENDS["rational"].row(nums, den))
        twins.append([F(x, den) for x in nums])
    factors = [math.exp(k / 3) for k in range(len(rows))]
    got = v.max_weighted_squares(factors, rows)
    same(got, _max_weighted_squares_as_before(factors, rows))
    same(got, _max_weighted_squares_as_before(factors, twins))


# ---------------------------------------------------------------------------
# magnitudes


def test_magnitudes_and_their_maxima():
    same(v.magnitudes([F(-1, 2), -0.0, NAN]), [0.5, 0.0, NAN])
    assert v.max_magnitude([[F(-3)], [1.0, -4.0]]) == 4.0
    assert v.max_magnitude([]) == 0.0 and type(v.max_magnitude([[F(1)]])) is float
    # the first entry seeds the maximum, as in max() over the entries
    assert math.isnan(v.max_magnitude([[NAN], [5.0]]))
    assert v.max_magnitude([[1.0], [NAN, 5.0]]) == 5.0
    assert v.max_float(0.0, ([F(-1)], [-2.0])) == 0.0
    assert v.max_float(0.0, ([F(1, 2)], [NAN, 0.25])) == 0.5
    assert type(v.max_float(0.0, ([F(1, 2)],))) is float
    assert v.sup_abs([F(-2), F(1)]) == F(2) and v.sup_abs([]) == 0


def test_worst_index_takes_the_first_nan_else_the_first_largest():
    assert v.worst_index([0.0, 2.0, 1.0, 2.0]) == 1
    assert v.worst_index([1.0, NAN, 3.0, NAN]) == 1
    assert v.worst_index([0.0]) == 0


# ---------------------------------------------------------------------------
# boundaries


def dump(mode: str, cells, labels, end: str = "\r\n") -> str:
    """The text ``dump_lines`` gives for the cells, joined."""
    return "".join(v.dump_lines(mode, cells, labels, end))


def dump_per_path(mode: str, cells, n_paths: int) -> str:
    """The oracle of ``dump_lines``: one CSV line per path of each cell,
    written from the row's entries on the paths (``str`` of a Fraction,
    ``repr`` of a float)."""
    text = {"float": repr, "rational": str}[mode]
    return "".join(f"{prefix}{i},{text(x)}\r\n"
                   for prefix, row in cells
                   for i, x in enumerate(on_atoms(v.entries(row), n_paths)))


def same_text(got: str, want: str) -> None:
    """Equal dump texts; else the first line that differs (an assertion diff
    of two whole dumps would take minutes)."""
    if got != want:
        lines = enumerate(zip(got.splitlines(), want.splitlines()))
        first = next(((i, a, b) for i, (a, b) in lines if a != b), "none of the common lines")
        pytest.fail(f"dumps of {len(got)} and {len(want)} characters differ at {first}")


def test_signs_json_and_dump_lines():
    assert v.signs([0.5, -0.5, -0.0]) == [1, -1, -1]
    assert v.to_json("rational", [F(1, 2)]) == ["1/2"]
    assert v.to_json("float", [0.5]) == [0.5]
    assert dump("rational", [("0,mid,", [F(1, 2), F(-1)])], ["0,", "1,", "2,", "3,"]) == \
        "0,mid,0,1/2\r\n0,mid,1,1/2\r\n0,mid,2,-1\r\n0,mid,3,-1\r\n"
    assert dump("float", [("", [0.1, -0.0])], ["0,", "1,"], "\n") == "0,0.1\n1,-0.0\n"

    # rows of every block size in one dump, as a CSV writes its slots: each
    # entry's text on every label of its block
    labels = [f"{i}," for i in range(8)]
    for mode, rows in (
        ("float", [[NAN, math.inf, -0.0, 0.1, -math.inf, 0.0, 1e-300, 2.5],
                   [-0.0, NAN, math.inf, -math.inf], [NAN, -0.0], [-math.inf],
                   # zeros of both signs, NaNs and a nonzero value repeated
                   # across the rows of one file, which share their texts
                   [0.0, -0.0, NAN, 0.1], [-0.0, 0.0], [0.1, NAN], [0.0], [-0.0]]),
        ("rational", [[F(1, 3**40), F(-7, 10**30), F(0), F(5, 2)],
                      [F(-2**70 + 1, 2**70), F(1)], [F(10**40, 7)], [F(k, 9) for k in range(8)],
                      [F(0), F(5, 2)], [F(1, 3**40)], [F(2, 9), F(0)]]),
    ):
        text = {"float": repr, "rational": str}[mode]
        want = "".join(f"{k},{label}{text(row[i * len(row) // 8])}\r\n"
                       for k, row in enumerate(rows) for i, label in enumerate(labels))
        for convert in (list, lambda row: v.as_row(mode, row)):  # list and native rows
            assert dump(mode, [(f"{k},", convert(row)) for k, row in enumerate(rows)],
                        labels) == want
    with pytest.raises(ValueError):
        dump("float", [("", [0.0, 1.0, 2.0])], labels, "\n")


# float entries whose texts a shared key could confuse: NaN, both zeros, both
# infinities, and values of one magnitude
SPECIAL = [NAN, 0.0, -0.0, math.inf, -math.inf, 0.1, -0.1, 1e-300, 2.5, 1 / 3]


def _float_row(n: int, seed: int) -> list:
    return [SPECIAL[(seed + 7 * j + j * j) % len(SPECIAL)] for j in range(n)]


def _rational_row(n: int, seed: int) -> list:
    return [F((seed + 3 * j) % 11 - 5, 1 + (seed + j) % 4) if j % 5 else F(0) for j in range(n)]


def test_dump_lines_on_every_block_size_matches_the_per_path_dump():
    assert 2 < v.DUMP_JOIN_BLOCK <= 1024  # both writers below are reached
    for n_paths in (1, 2, 128, 2048):
        labels = [f"{i}," for i in range(n_paths)]
        blocks = [b for b in (1, 2, v.DUMP_JOIN_BLOCK // 2, v.DUMP_JOIN_BLOCK,
                              2 * v.DUMP_JOIN_BLOCK, n_paths) if b <= n_paths]
        float_cells = [(f"{k},mid,", _float_row(n_paths // b, k)) for k, b in enumerate(blocks)]
        same_text(dump("float", float_cells, labels), dump_per_path("float", float_cells, n_paths))
        fraction_cells = [(f"{k},", _rational_row(n_paths // b, k)) for k, b in enumerate(blocks)]
        want = dump_per_path("rational", fraction_cells, n_paths)
        int_cells = [(prefix, v.as_row("rational", row)) for prefix, row in fraction_cells]
        same_text(dump("rational", fraction_cells, labels), want)
        same_text(dump("rational", int_cells, labels), want)
        # IntRows beside their Fraction twins in one dump share no text wrongly
        mixed = [cell for pair in zip(int_cells, fraction_cells) for cell in pair]
        same_text(dump("rational", mixed, labels), dump_per_path("rational", mixed, n_paths))


def test_dump_lines_reuses_a_repeated_row_under_each_new_prefix():
    n_paths = 2048
    labels = [f"{i}," for i in range(n_paths)]
    fine, coarse = _float_row(n_paths // 2, 1), _float_row(n_paths // 1024, 2)
    twin = list(fine)  # equal entries, another object
    other = _float_row(n_paths, 3)
    cells = [("0,minus,", other), ("0,mid,", fine), ("0,plus,", fine), ("1,minus,", fine),
             ("1,mid,", twin), ("1,plus,", coarse), ("2,minus,", fine), ("2,mid,", coarse),
             ("2,plus,", coarse), ("3,minus,", other), ("3,mid,", fine)]
    same_text(dump("float", cells, labels), dump_per_path("float", cells, n_paths))
    for fine_row in (_rational_row(n_paths // 4, 4), _rational_row(n_paths, 5)):
        int_fine = v.as_row("rational", fine_row)
        int_coarse = v.as_row("rational", _rational_row(2, 6))
        cells = [("0,", int_fine), ("1,", int_fine), ("2,", int_coarse), ("3,", int_fine),
                 ("4,", v.as_row("rational", fine_row)), ("5,", fine_row), ("6,", fine_row)]
        same_text(dump("rational", cells, labels), dump_per_path("rational", cells, n_paths))


def test_dump_lines_formats_each_distinct_nonzero_entry_once(monkeypatch):
    calls = []
    backend = v.BACKENDS["float"]

    def counted(x):
        calls.append(x)
        return backend.format(x)

    monkeypatch.setitem(v.BACKENDS, "float", dataclasses.replace(backend, format=counted))
    labels = [f"{i}," for i in range(16)]
    rows = [[0.1, 0.2, 0.0, 0.1], [0.2, -0.0], SPECIAL[3:] + [0.1], [0.1] * 16]
    distinct = sorted(map(repr, {x for row in rows for x in row if x}))
    for first in range(2):  # each file keeps its own texts
        calls.clear()
        got = dump("float", [(f"{first}{k},", row) for k, row in enumerate(rows)], labels)
        assert got == dump_per_path("float", [(f"{first}{k},", row)
                                              for k, row in enumerate(rows)], 16)
        assert sorted(repr(x) for x in calls if x != 0) == distinct


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 32]),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=12),
       st.sampled_from(["float", "rational"]))
def test_dump_lines_on_any_sequence_of_cells(n_paths, picks, mode):
    """Cells drawn from a pool of rows, so a row object comes again, after
    itself or after others, under new prefixes, with each cut: every row
    through the atom joins, through the pieces, or the library's mix."""
    labels = [f"{i}," for i in range(n_paths)]
    make = _float_row if mode == "float" else (lambda n, s: v.as_row("rational",
                                                                     _rational_row(n, s)))
    lengths = [n for n in (1, 2, 4, 8, 32) if n <= n_paths]
    pool = [make(lengths[j % len(lengths)], j) for j in range(6)]
    cells = [(f"{k},{slot},", pool[j]) for k, (j, slot) in enumerate(picks)]
    want = dump_per_path(mode, cells, n_paths)
    cut = v.DUMP_JOIN_BLOCK
    try:
        for v.DUMP_JOIN_BLOCK in (1, 4, 10**9, cut):
            same_text(dump(mode, cells, labels), want)
    finally:
        v.DUMP_JOIN_BLOCK = cut


# ---------------------------------------------------------------------------
# only values.py looks inside a row


def _offences(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in ("pairs", "align"):
                out.append(f"{path.name}:{node.lineno} calls {name}")
        elif isinstance(node, ast.ImportFrom) and node.module and "values" in node.module:
            out += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names
                    if a.name in ("pairs", "align")]
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            mode = any(isinstance(s, ast.Attribute) and s.attr == "mode" for s in sides)
            named = any(isinstance(s, ast.Constant) and s.value in ("rational", "float")
                        for s in sides)
            if mode and named:
                out.append(f"{path.name}:{node.lineno} compares a .mode with a backend name")
    return out


def test_only_values_walks_rows_together_or_picks_the_backend():
    package = Path(v.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "values.py")
    assert len(modules) > 5
    assert [o for p in modules for o in _offences(p)] == []


def test_the_ast_check_sees_each_offence(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .values import pairs\n"
                   "x = v.pairs(a, b)\ny = align(a)\n"
                   "z = 1 if space.mode == 'rational' else 2\n"
                   "w = 'float' != space.mode\n", encoding="utf-8")
    assert len(_offences(bad)) == 5
