"""Rows, and the one module that knows what a row entry is.

A random variable on a finite path space is a *row*: one entry per atom of a
partition it is measurable for.  Every partition of the space splits the
paths into equal runs of consecutive paths (see prob_space.py), so a row of
length m is constant on blocks of n_paths // m paths, and any two row lengths
divide one another.  A row with one entry per path is a row too.

A row comes in one of two forms.  In rational mode it is an ``IntRow``: int
numerators, one per atom, over one positive int denominator, reduced so that
gcd(*nums, den) == 1 (the zero row has den 1).  The form is canonical, and
every helper below works on the ints, so the solve, the verifier and the
norms make no per-entry ``Fraction``.  In float mode a row is a list of
floats; a list of ``Fraction`` entries is a row too, and the helpers' list
bodies compute it exactly (the tests keep it as the oracle of ``IntRow``).
A helper handed an ``IntRow`` and a list of exact entries reads the list as
an ``IntRow``; no command-line mode mixes the two, only the tests'
``Fraction`` twins of ``IntRow``s do.  Scalars (dt, 1/dt, strikes, driver
coefficients, tolerances) stay ``Fraction`` or int in rational mode, and
``Fraction`` entries appear only at the boundaries: ``entries`` gives them
for the per-path views, the dumps and the JSON text.

Only this module looks inside a row.  ``BACKENDS`` is the one place that
picks the number backend: for each arithmetic mode it gives the entry type
(``Fraction`` or ``float``), the row of int numerators over one denominator,
the square root, the dump text and the parser of an entry, and ``gate``
gives the mode's tolerance.  Every other module works on whole rows through
the helpers below, in these families:

* arithmetic: add, sub, mul, smul, vmax, vmin, clamp, pos_part, neg_part,
  payoff, ``combine`` for a tree of sums and differences of rows in one
  pass, and ``apply`` for a function of the entries;
* tests: eq, any_nonzero, any_negative, any_nonpositive, any_beyond,
  any_below, any_above, any_exceeds, any_both_nonzero, first_above;
* the Skorokhod products: scaled_pos, scaled_min;
* averages and norms: block_means, dot, constant_on_blocks, squares,
  max_weighted_squares;
* magnitudes: sup_abs, magnitudes, worst_index, max_magnitude, max_float;
* boundaries: convert, as_row, entries, refine, coarsen, expand, and
  dump_lines: a file's ``(prefix, row)`` cells in, their CSV text out, each
  distinct entry formatted once per file, and a fine row given again as the
  same object joined from the pieces it left.

The binary helpers align rows by repeating each entry of the shorter one
``len(long) // len(short)`` times; ``pairs`` walks list rows together that
way (``add``, ``sub`` and ``mul`` map their operator over the aligned rows
instead), and ``_pair`` puts two ``IntRow``s on one length and one
denominator.
Each helper computes exactly the expression in its list body, entry by entry
in atom order, so a NaN or a signed zero comes out as that expression makes
it: ``scaled_min``'s min(max(x, 0), max(y, 0)) carries a NaN through, where a
vmin of two pos_parts would drop it.  No list body adds a pass over its rows;
an int body may be composed of other helpers, as exact entries hold no NaN
and no signed zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import add as _add, lt as _lt, mul as _mul, neg, sub as _sub, truediv
from typing import Callable, Iterable, Iterator, Sequence

from .config import _rational_sqrt


class IntRow:
    """An exact row: ``nums[j] / den`` on atom j, in reduced form.  It has a
    length but no entries, so a stray ``list(row)`` or ``row[0]`` fails."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: list, den: int) -> None:
        self.nums, self.den = nums, den

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:  # the reduced form is canonical
        if type(other) is not IntRow:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    __hash__ = None

    def __repr__(self) -> str:
        return f"IntRow({self.nums}, {self.den})"


RV = IntRow | list  # one entry per atom


# gcd and lcm fold over a row rather than take it as *args: an args tuple of
# under 20 entries stays in the interpreter's free list after the call, and
# rows of every length then kept such tuples in more memory pools (a 1 MiB
# arena more, and peak RSS up by as much, on the rational corpus).


def _reduced(nums: list, den: int) -> IntRow:
    """The IntRow of nums / den, den > 0, divided by the common gcd."""
    if not any(nums):  # a row of zeros, in one test
        return IntRow(nums, 1)
    g = den
    for n in nums:
        g = math.gcd(g, n)
        if g == 1:
            return IntRow(nums, den)
    return IntRow([n // g for n in nums], den // g)


def _lcm(dens) -> int:
    return reduce(math.lcm, dens, 1)


def _exact(row) -> IntRow:
    """A row of ints or Fractions as an IntRow."""
    if type(row) is IntRow:
        return row
    den = _lcm(x.denominator for x in row)
    return _reduced([x.numerator * (den // x.denominator) for x in row], den)


@dataclass(frozen=True)
class Backend:
    exact: bool         # rational: identities hold with tolerance 0
    number: Callable    # an int or exact rational as an entry
    row: Callable       # int numerators over one positive int denominator as a
                        # row (in float mode n / den: int / int is correctly rounded)
    sqrt: Callable      # square root of an exact rational; None if not an entry
    format: Callable    # an entry as dump text
    parse: Callable     # dump text as an entry


def _fraction(x) -> Fraction:
    # keep a Fraction as it is: copying every one that realize converts is slow
    return x if type(x) is Fraction else Fraction(x)


BACKENDS = {
    "rational": Backend(True, _fraction, _reduced, _rational_sqrt, Fraction.__str__, Fraction),
    "float": Backend(False, float, lambda nums, den: [n / den for n in nums],
                     lambda x: math.sqrt(float(x)), float.__repr__, float),
}


def gate(mode: str, tol, exact=0):
    """The tolerance of a mode: ``tol`` in float mode, ``exact`` in rational
    mode.  It defaults to the int 0, so that comparing a Fraction with it
    never coerces the Fraction to float."""
    return exact if BACKENDS[mode].exact else tol


def convert(mode: str, xs: Sequence) -> list:
    """Exact rationals as entries of the mode."""
    return list(map(BACKENDS[mode].number, xs))


def as_row(mode: str, xs: Sequence) -> RV:
    """Exact rationals (floats too, in float mode) as a row of the mode."""
    backend = BACKENDS[mode]
    if not backend.exact:
        return convert(mode, xs)
    den = _lcm(x.denominator for x in xs)
    return backend.row([x.numerator * (den // x.denominator) for x in xs], den)


def entries(row) -> Sequence:
    """The row's entries: Fractions for an IntRow, the list itself otherwise."""
    if type(row) is IntRow:
        return [Fraction(n, row.den) for n in row.nums]
    return row


def _floats(row) -> Sequence:
    """float(x) of each entry; n / den is correctly rounded, as float(Fraction) is."""
    if type(row) is IntRow:
        return [n / row.den for n in row.nums]
    return list(map(float, row))


def _block(n: int, size: int) -> int:
    """How many of ``size`` atoms each of a row's ``n`` entries covers."""
    times, rest = divmod(size, n)
    if rest or not times:
        raise ValueError(f"a row of {n} entries does not align with {size}")
    return times


def expand(row: Sequence, size: int) -> Sequence:
    """The row on ``size`` atoms: each entry repeated size // len(row) times."""
    if type(row) is IntRow:
        return row if len(row) == size else IntRow(expand(row.nums, size), row.den)
    times = _block(len(row), size)
    if times == 1:
        return row
    # Two ways to build the same list, each the fast one for its shape: a
    # 256-entry row doubled takes 3 us by strides and 40 us by repeat, one
    # entry made 512 takes 5 us by repeat and 39 us by strides.
    if times > len(row):
        return list(chain.from_iterable(map(repeat, row, repeat(times, len(row)))))
    out = [None] * size
    for i in range(times):
        out[i::times] = row
    return out


def align(*rows: Sequence) -> list:
    """The rows on the atoms of the finest of them."""
    size = max(map(len, rows))
    return [r if len(r) == size else expand(r, size) for r in rows]


def pairs(*rows: Sequence):
    """The list rows' entries side by side, one tuple per atom of the finest
    row."""
    return zip(*align(*rows), strict=True)


def _pair(a, b, common: bool = True) -> tuple[list, list, int]:
    """The numerators of two rows (IntRows, or lists of exact entries) on the
    atoms of the finer, over their least common denominator, and that
    denominator; with ``common`` false, each keeps its own denominator and
    the product of the two comes back."""
    if type(a) is not IntRow:
        a = _exact(a)
    if type(b) is not IntRow:
        b = _exact(b)
    x, y, den, other = a.nums, b.nums, a.den, b.den
    if not common:
        den *= other
    elif other != den:
        den = math.lcm(den, other)
        if den != a.den:
            x = [n * (den // a.den) for n in x]
        if den != other:
            y = [n * (den // other) for n in y]
    if len(x) != len(y):
        if len(x) < len(y):
            x = expand(x, len(y))
        else:
            y = expand(y, len(x))
    return x, y, den


def _has_ints(a, b) -> bool:
    return type(a) is IntRow or type(b) is IntRow


def refine(row: Sequence, probs: Sequence) -> list:
    """Each weight times each of the factors: the next level of a tree."""
    return [w * p for w in row for p in probs]


def coarsen(row: Sequence, m: int) -> RV:
    """The first entry of each of m equal blocks."""
    if type(row) is IntRow:
        return _reduced(row.nums[::len(row) // m], row.den)
    return row[::len(row) // m]


def add(a: Sequence, b: Sequence) -> RV:
    if _has_ints(a, b):
        x, y, den = _pair(a, b)
        return _reduced(list(map(_add, x, y)), den)
    if len(a) == len(b):
        return list(map(_add, a, b))
    return list(map(_add, *align(a, b)))


def sub(a: Sequence, b: Sequence) -> RV:
    if _has_ints(a, b):
        x, y, den = _pair(a, b)
        return _reduced(list(map(_sub, x, y)), den)
    if len(a) == len(b):
        return list(map(_sub, a, b))
    return list(map(_sub, *align(a, b)))


def mul(a: Sequence, b: Sequence) -> RV:
    if _has_ints(a, b):
        x, y, den = _pair(a, b, common=False)
        return _reduced(list(map(_mul, x, y)), den)
    if len(a) == len(b):
        return list(map(_mul, a, b))
    return list(map(_mul, *align(a, b)))


def combine(fn: Callable, *rows: Sequence) -> RV:
    """The tree of ``+`` and ``-`` that fn makes of its arguments, on each
    atom of the finest row, in one pass.  The tree is read from fn once and
    written out as one comprehension, so a float comes out of it as the chain
    of ``add`` and ``sub`` written the same way gives it, NaN and -0.0
    included.  On IntRows the tree runs on the numerators over the rows'
    least common denominator, which sums and differences keep, and the
    result is reduced once."""
    one_pass = _comprehension(fn, len(rows))
    if any(type(r) is IntRow for r in rows):
        rows = [r if type(r) is IntRow else _exact(r) for r in rows]
        den = _lcm(r.den for r in rows)
        nums = [r.nums if r.den == den else [n * (den // r.den) for n in r.nums]
                for r in rows]
        return _reduced(one_pass(*align(*nums)), den)
    return one_pass(*align(*rows))


class _Leaf:
    """An argument of a tree: what + and - do to leaves is written out."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __add__(self, other: _Leaf) -> _Leaf:
        if type(other) is not _Leaf:
            return NotImplemented
        return _Leaf(f"({self.text} + {other.text})")

    def __sub__(self, other: _Leaf) -> _Leaf:
        if type(other) is not _Leaf:
            return NotImplemented
        return _Leaf(f"({self.text} - {other.text})")


@lru_cache(maxsize=64)
def _comprehension(fn: Callable, arity: int) -> Callable:
    """fn's tree as one list comprehension over ``arity`` aligned rows.  fn
    runs once, on leaves, so anything but + and - of its arguments (a
    product, a constant) raises here, and the text compiled holds only the
    names x0, x1, ..., parentheses, + and -.  It takes about a tenth less
    time than one call of fn per atom on a 2,048-atom row of the verifier's
    13-leaf tree (Python 3.11)."""
    names = [f"x{i}" for i in range(arity)]
    tree = fn(*map(_Leaf, names)).text
    return eval(f"lambda *rows: [{tree} for {', '.join(names)}, in zip(*rows)]")


def smul(c, a: Sequence) -> RV:
    if type(a) is IntRow:
        return _reduced([c.numerator * n for n in a.nums], c.denominator * a.den)
    return [c * x for x in a]


def vmax(a: Sequence, b: Sequence) -> RV:
    if _has_ints(a, b):
        x, y, den = _pair(a, b)
        return _reduced(list(map(max, x, y)), den)
    return [x if x >= y else y for x, y in pairs(a, b)]


def vmin(a: Sequence, b: Sequence) -> RV:
    if _has_ints(a, b):
        x, y, den = _pair(a, b)
        return _reduced(list(map(min, x, y)), den)
    return [x if x <= y else y for x, y in pairs(a, b)]


def clamp(a: Sequence, lo: Sequence, hi: Sequence) -> RV:
    """vmin(vmax(a, lo), hi), in one pass over lists."""
    if _has_ints(a, lo) or type(hi) is IntRow:
        return vmin(vmax(a, lo), hi)
    return [m if (m := x if x >= low else low) <= high else high
            for x, low, high in pairs(a, lo, hi)]


def pos_part(a: Sequence) -> RV:
    """Elementwise (x)^+ = max(x, 0); a NaN stays NaN."""
    if type(a) is IntRow:
        return _reduced(list(map(max, a.nums, repeat(0, len(a)))), a.den)
    zero = _zero_like(a)
    return [zero if x <= zero else x for x in a]


def neg_part(a: Sequence) -> RV:
    """Elementwise (x)^- = max(-x, 0); a NaN stays NaN."""
    if type(a) is IntRow:
        return _reduced(list(map(max, map(neg, a.nums), repeat(0, len(a)))), a.den)
    zero = _zero_like(a)
    return [zero if x >= zero else -x for x in a]


def payoff(a: Sequence, k, call: bool) -> RV:
    """The call (or put) payoff struck at k, with the zero 0 * x."""
    if type(a) is IntRow:
        strike, d = k.numerator * a.den, k.denominator
        nums = ([max(n * d - strike, 0) for n in a.nums] if call
                else [max(strike - n * d, 0) for n in a.nums])
        return _reduced(nums, a.den * d)
    return [max(x - k, 0 * x) for x in a] if call else [max(k - x, 0 * x) for x in a]


def apply(fn: Callable, *rows: Sequence) -> RV:
    """fn(x, y, ...) on each atom of the finest row; on IntRows, fn sees
    Fraction entries and must give exact values."""
    if any(type(r) is IntRow for r in rows):
        return _exact(list(map(fn, *map(entries, align(*map(_exact, rows))))))
    return list(map(fn, *align(*rows)))


def scaled_pos(d: Sequence, a: Sequence) -> RV:
    if _has_ints(d, a):
        d, a, den = _pair(d, a, common=False)
        return _reduced([y * x if x > 0 else 0 for y, x in zip(d, a)], den)
    return [y * (0 if x < 0 else x) for y, x in pairs(d, a)]  # max(x, 0), without the call


def scaled_min(d: Sequence, a: Sequence, b: Sequence) -> RV:
    if _has_ints(d, a) or type(b) is IntRow:
        return scaled_pos(d, vmin(a, b))  # exact, min(max(x, 0), max(y, 0)) is max(min(x, y), 0)
    # min(max(x, 0), max(y, 0)) as the calls would give it
    return [z * (q if (q := 0 if y < 0 else y) < (p := 0 if x < 0 else x) else p)
            for z, x, y in pairs(d, a, b)]


def eq(a: Sequence, b: Sequence) -> bool:
    """Equality of two rows as random variables: equal entries once aligned."""
    if _has_ints(a, b):
        x, y, _ = _pair(a, b)
        return x == y
    a, b = align(a, b)
    return list(a) == list(b)


def any_nonzero(a: Sequence) -> bool:
    """Some x != 0: that is bool(x) for an int, a Fraction or a float, NaN too."""
    return any(a.nums) if type(a) is IntRow else any(a)


def any_negative(a: Sequence, tol=0) -> bool:
    """Some x < -tol, that is -x > tol: negation is exact."""
    if type(a) is IntRow:
        num, den = tol.as_integer_ratio()  # exact for a float too
        low = -num * a.den
        return any(n * den < low for n in a.nums)
    return any(map(_lt, a, repeat(-tol)))


def any_nonpositive(a: Sequence) -> bool:
    if type(a) is IntRow:
        return any(n <= 0 for n in a.nums)
    return any(x <= 0 for x in a)


def any_beyond(a: Sequence, tol) -> bool:
    if type(a) is IntRow:
        num, den = tol.as_integer_ratio()  # exact for a float too
        high = num * a.den
        return any(abs(n) * den > high for n in a.nums)
    return any(abs(x) > tol for x in a)


def _gap_exceeds(a: Sequence, b: Sequence, tol) -> bool:
    """Some exact x - y > tol."""
    x, y, den = _pair(a, b)
    num, tol_den = tol.as_integer_ratio()
    high = num * den
    return any((p - q) * tol_den > high for p, q in zip(x, y))


def any_below(a: Sequence, b: Sequence, tol) -> bool:
    if _has_ints(a, b):
        return _gap_exceeds(b, a, tol)
    return any(x < y - tol for x, y in pairs(a, b))


def any_above(a: Sequence, b: Sequence, tol) -> bool:
    if _has_ints(a, b):
        return _gap_exceeds(a, b, tol)
    return any(x > y + tol for x, y in pairs(a, b))


def any_exceeds(a: Sequence, b: Sequence, tol) -> bool:
    if _has_ints(a, b):
        return _gap_exceeds(a, b, tol)
    return any(x - y > tol for x, y in pairs(a, b))


def any_both_nonzero(a: Sequence, b: Sequence) -> bool:
    if _has_ints(a, b):
        x, y, _ = _pair(a, b, common=False)
        return any(p and q for p, q in zip(x, y))
    if not any(a) or not any(b):  # x != 0 is bool(x), NaN too: one test per row
        return False
    return any(x != 0 and y != 0 for x, y in pairs(a, b))


def first_above(a: Sequence, b: Sequence, size: int) -> int | None:
    """The first of ``size`` atoms in the first atom where x > y, or None."""
    walk = zip(*_pair(a, b)[:2]) if _has_ints(a, b) else pairs(a, b)
    j = next((j for j, (x, y) in enumerate(walk) if x > y), None)
    return None if j is None else j * size // max(len(a), len(b))


def _block_sums(row: Sequence, weights: Sequence, m: int) -> tuple[list, list]:
    """Over each of m equal blocks, the sum of weight times entry, and of weights."""
    # a block's entries are row[j * step + i], i < step; sum over i
    step = len(row) // m
    num = list(map(_mul, weights[0::step], row[0::step]))
    den = weights[0::step]
    for i in range(1, step):
        num = list(map(_add, num, map(_mul, weights[i::step], row[i::step])))
        den = list(map(_add, den, weights[i::step]))
    return num, den


def block_means(row: Sequence, weights: Sequence, m: int) -> RV:
    """The weighted mean of each of m equal blocks, one weight per entry; a
    row of m entries or fewer comes back on m atoms.  Exact weights need only
    be proportional to the probabilities: a mean divides their scale out."""
    if _has_ints(row, weights):
        row, weights = _exact(row), _exact(weights)
        if len(row) <= m:
            return expand(row, m)
        num, total = _block_sums(row.nums, weights.nums, m)
        common = _lcm(total)
        return _reduced([n * (common // t) for n, t in zip(num, total)], row.den * common)
    if len(row) <= m:
        return list(expand(row, m))
    return list(map(truediv, *_block_sums(row, weights, m)))


def dot(weights: Sequence, row: Sequence):
    """The sum of the products, added left to right: ``sum`` adds floats with
    compensation from Python 3.12 on, which would move the last bits."""
    if type(row) is not IntRow and type(weights) is IntRow and row and type(row[0]) is float:
        weights = _floats(weights)  # a Fraction times a float is float(Fraction) times it
    elif _has_ints(weights, row):
        weights, row = _exact(weights), _exact(row)
        return Fraction(sum(map(_mul, weights.nums, row.nums)), weights.den * row.den)
    return reduce(_add, map(_mul, weights, row), 0)


def constant_on_blocks(row: Sequence, m: int, mode: str) -> bool:
    """True iff the row takes one value on each of m equal blocks.  A float
    NaN equals nothing, so a row holding one is constant on no blocks."""
    if type(row) is IntRow:
        row = row.nums
    elif not BACKENDS[mode].exact:
        total = sum(row)  # NaN only if an entry is, or inf meets -inf
        if total != total and any(map(math.isnan, row)):
            return False
    step = len(row) // m
    return step <= 1 or all(row[i::step] == row[0::step] for i in range(1, step))


def squares(a: Sequence) -> list:
    return [x ** 2 for x in _floats(a)]


def max_weighted_squares(factors: Sequence, rows: Sequence) -> list:
    """On each atom of the finest row, the largest e * float(x) ** 2 over the
    rows and their factors e: each row squared on its own atoms and folded in
    row order, a square replacing the running maximum only where it compares
    greater, as ``max`` does (so a NaN or a -0.0 comes out as ``max`` gives it)."""
    best = None
    for e, row in zip(factors, rows):
        sq = [e * x ** 2 for x in _floats(row)]
        best = sq if best is None else [y if y > x else x for x, y in zip(*align(best, sq))]
    return best


def sup_abs(a: Sequence):
    if type(a) is IntRow:
        return Fraction(max(map(abs, a.nums), default=0), a.den)
    return max(map(abs, a), default=0)


def magnitudes(a: Sequence) -> list:
    return list(map(abs, _floats(a) if type(a) is IntRow else map(float, a)))


def max_magnitude(rows) -> float:
    """The largest abs(float(x)) over the rows, 0.0 for none."""
    return max(chain.from_iterable(map(magnitudes, rows)), default=0.0)


def max_float(start, rows) -> float:
    return max(chain((start,), chain.from_iterable(map(_floats, rows))))


def worst_index(mags: list) -> int:
    """Index of the worst of nonnegative residuals: the first NaN if there is
    one (a NaN never compares greater, so ``max`` alone would pass it over),
    else the first largest."""
    total = sum(mags)
    if total != total:
        return next(i for i, x in enumerate(mags) if x != x)
    return mags.index(max(mags))


# A row whose atoms each cover at least this many paths is written with one
# join per atom, a finer row with one join over per-path pieces.  On 2,048
# paths a row of 2,048 atoms takes 90 us as pieces and 1,040 us by atom
# joins; at 64 paths an atom, atom joins take 68 us, new pieces 84 us and
# kept pieces 51 us.  A float-ladder round dumps in the same time, within
# noise, for any cut from 16 to 128.
DUMP_JOIN_BLOCK = 64


def dump_lines(mode: str, cells: Iterable, labels: Sequence, end: str) -> Iterator[str]:
    """The text of ``(prefix, row)`` cells, the lines of one file: ``prefix``,
    label, the dump text of the entry on the label's atom and ``end``, on
    each label, cell after cell.  The text and ``end`` of each nonzero entry
    formatted so far is kept (keyed by numerator and denominator for an
    IntRow) until the last line is given, so each is formatted once per
    file; a zero is formatted each time, since 0.0 and -0.0 are one key with
    two texts.

    A row whose atoms cover at least ``DUMP_JOIN_BLOCK`` labels each is
    written with one join per atom.  A finer row is one join over a pieces
    list holding prefix, label and text on each label: the labels are set
    once, and a row given again as the same object keeps its texts, so that
    only the prefixes are set again."""
    texts = {}
    size, fmt, get = len(labels), BACKENDS[mode].format, texts.get
    pieces = filled = None

    def new_text(key) -> str:
        text = fmt(Fraction(*key) if type(key) is tuple else key) + end
        if key:
            texts[key] = text
        return text

    def row_texts(row) -> list:
        keys = zip(row.nums, repeat(row.den)) if type(row) is IntRow else row
        return [get(key) or new_text(key) for key in keys]

    for prefix, row in cells:
        block = _block(len(row), size)
        if block >= DUMP_JOIN_BLOCK:
            for start, text in zip(range(0, size, block), row_texts(row)):
                yield prefix + (text + prefix).join(labels[start:start + block]) + text
            continue
        if pieces is None:
            pieces = [None] * (3 * size)
            pieces[1::3] = labels
        pieces[::3] = [prefix] * size
        if row is not filled:
            pieces[2::3] = expand(row_texts(row), size)
            filled = row
        yield "".join(pieces)


def _zero_like(a: Sequence):
    return Fraction(0) if a and isinstance(a[0], Fraction) else 0.0
