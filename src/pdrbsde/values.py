"""Rows, and the one module that knows what a row entry is.

A random variable on a finite path space is a *row*: a list with one entry
per atom of a partition it is measurable for.  Every partition of the space
splits the paths into equal runs of consecutive paths (see prob_space.py),
so a row of length m is constant on blocks of n_paths // m paths, and any two
row lengths divide one another.  A row with one entry per path is a row too.

Only this module looks inside a row.  ``BACKENDS`` is the one place that
picks the number backend: for each arithmetic mode it gives the entry type
(``Fraction`` or ``float``), the entry of a ratio of ints, its square root,
its dump text and its parser, and ``gate`` gives the mode's tolerance.
Every other module works on whole rows through the helpers below, in these
families:

* arithmetic: add, sub, mul, smul, vmax, vmin, clamp, pos_part, neg_part,
  payoff, and ``apply`` for a function of the entries;
* tests: eq, any_nonzero, any_negative, any_nonpositive, any_beyond,
  any_below, any_above, any_exceeds, any_both_nonzero, first_above;
* the Skorokhod products: scaled_pos, scaled_min;
* averages and norms: block_means, dot, constant_on_blocks, squares,
  max_weighted_squares;
* magnitudes: sup_abs, magnitudes, worst_index, max_magnitude, max_float;
* boundaries: convert, refine, coarsen, expand, signs, to_json, dump_lines.

The binary helpers align rows by repeating each entry of the shorter one
``len(long) // len(short)`` times; ``pairs`` walks rows together that way.
Each helper computes exactly the expression in its body, entry by entry in
atom order, so a NaN or a signed zero comes out as that expression makes it:
``scaled_min``'s min(max(x, 0), max(y, 0)) carries a NaN through, where a
vmin of two pos_parts would drop it.  No helper adds a pass over its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add as _add, mul as _mul, truediv
from typing import Callable, Sequence

from .config import _rational_sqrt

RV = list  # one entry per atom: Fractions in rational mode, floats in float mode


@dataclass(frozen=True)
class Backend:
    exact: bool         # rational: identities hold with tolerance 0
    number: Callable    # an int or exact rational as an entry
    ratio: Callable     # the entry n / d of ints (int / int is correctly rounded)
    sqrt: Callable      # square root of an exact rational; None if not an entry
    approx: Callable    # a float as an entry
    format: Callable    # an entry as dump text
    parse: Callable     # dump text as an entry
    json: Callable      # an entry as a JSON value


def _fraction(x) -> Fraction:
    # keep a Fraction as it is: copying every one that realize converts is slow
    return x if type(x) is Fraction else Fraction(x)


BACKENDS = {
    "rational": Backend(True, _fraction, Fraction, _rational_sqrt,
                        lambda x: Fraction(x).limit_denominator(10**9),
                        Fraction.__str__, Fraction, str),
    "float": Backend(False, float, truediv, lambda x: math.sqrt(float(x)), float,
                     float.__repr__, float, float),
}


def gate(mode: str, tol, exact=0):
    """The tolerance of a mode: ``tol`` in float mode, ``exact`` in rational
    mode.  It defaults to the int 0, so that comparing a Fraction with it
    never coerces the Fraction to float."""
    return exact if BACKENDS[mode].exact else tol


def convert(mode: str, xs: Sequence) -> RV:
    """Exact rationals as entries of the mode."""
    return list(map(BACKENDS[mode].number, xs))


def _block(n: int, size: int) -> int:
    """How many of ``size`` atoms each of a row's ``n`` entries covers."""
    times, rest = divmod(size, n)
    if rest or not times:
        raise ValueError(f"a row of {n} entries does not align with {size}")
    return times


def expand(row: Sequence, size: int) -> Sequence:
    """The row on ``size`` atoms: each entry repeated size // len(row) times."""
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
    """The rows' entries side by side, one tuple per atom of the finest row:
    the one way to walk two or more rows together."""
    return zip(*align(*rows), strict=True)


def refine(row: Sequence, probs: Sequence) -> RV:
    """Each weight times each of the factors: the next level of a tree."""
    return [w * p for w in row for p in probs]


def coarsen(row: Sequence, m: int) -> RV:
    """The first entry of each of m equal blocks."""
    return row[::len(row) // m]


def add(a: Sequence, b: Sequence) -> RV:
    return [x + y for x, y in pairs(a, b)]


def sub(a: Sequence, b: Sequence) -> RV:
    return [x - y for x, y in pairs(a, b)]


def mul(a: Sequence, b: Sequence) -> RV:
    return [x * y for x, y in pairs(a, b)]


def smul(c, a: Sequence) -> RV:
    return [c * x for x in a]


def vmax(a: Sequence, b: Sequence) -> RV:
    return [x if x >= y else y for x, y in pairs(a, b)]


def vmin(a: Sequence, b: Sequence) -> RV:
    return [x if x <= y else y for x, y in pairs(a, b)]


def clamp(a: Sequence, lo: Sequence, hi: Sequence) -> RV:
    """vmin(vmax(a, lo), hi), in one pass."""
    return [m if (m := x if x >= low else low) <= high else high
            for x, low, high in pairs(a, lo, hi)]


def pos_part(a: Sequence) -> RV:
    """Elementwise (x)^+ = max(x, 0); a NaN stays NaN."""
    zero = _zero_like(a)
    return [zero if x <= zero else x for x in a]


def neg_part(a: Sequence) -> RV:
    """Elementwise (x)^- = max(-x, 0); a NaN stays NaN."""
    zero = _zero_like(a)
    return [zero if x >= zero else -x for x in a]


def payoff(a: Sequence, k, call: bool) -> RV:
    """The call (or put) payoff struck at k, with the zero 0 * x."""
    return [max(x - k, 0 * x) for x in a] if call else [max(k - x, 0 * x) for x in a]


def apply(fn: Callable, *rows: Sequence) -> RV:
    """fn(x, y, ...) on each atom of the finest row."""
    return list(map(fn, *align(*rows)))


def scaled_pos(d: Sequence, a: Sequence) -> RV:
    return [y * max(x, 0) for y, x in pairs(d, a)]


def scaled_min(d: Sequence, a: Sequence, b: Sequence) -> RV:
    return [z * min(max(x, 0), max(y, 0)) for z, x, y in pairs(d, a, b)]


def eq(a: Sequence, b: Sequence) -> bool:
    """Equality of two rows as random variables: equal entries once aligned."""
    a, b = align(a, b)
    return list(a) == list(b)


def any_nonzero(a: Sequence) -> bool:
    """Some x != 0: that is bool(x) for an int, a Fraction or a float, NaN too."""
    return any(a)


def any_negative(a: Sequence, tol=0) -> bool:
    """Some x < -tol, that is -x > tol: negation is exact."""
    low = -tol
    return any(x < low for x in a)


def any_nonpositive(a: Sequence) -> bool:
    return any(float(x) <= 0 for x in a)


def any_beyond(a: Sequence, tol) -> bool:
    return any(abs(x) > tol for x in a)


def any_below(a: Sequence, b: Sequence, tol) -> bool:
    return any(x < y - tol for x, y in pairs(a, b))


def any_above(a: Sequence, b: Sequence, tol) -> bool:
    return any(x > y + tol for x, y in pairs(a, b))


def any_exceeds(a: Sequence, b: Sequence, tol) -> bool:
    return any(x - y > tol for x, y in pairs(a, b))


def any_both_nonzero(a: Sequence, b: Sequence) -> bool:
    return any(x != 0 and y != 0 for x, y in pairs(a, b))


def first_above(a: Sequence, b: Sequence, size: int) -> int | None:
    """The first of ``size`` atoms in the first atom where x > y, or None."""
    j = next((j for j, (x, y) in enumerate(pairs(a, b)) if x > y), None)
    return None if j is None else j * size // max(len(a), len(b))


def block_means(row: Sequence, weights: Sequence, m: int) -> RV:
    """The weighted mean of each of m equal blocks, one weight per entry; a
    row of m entries or fewer comes back on m atoms."""
    size = len(row)
    if size <= m:
        return list(expand(row, m))
    # a block's entries are row[j * step + i], i < step; sum over i
    step = size // m
    num = list(map(_mul, weights[0::step], row[0::step]))
    den = weights[0::step]
    for i in range(1, step):
        num = list(map(_add, num, map(_mul, weights[i::step], row[i::step])))
        den = list(map(_add, den, weights[i::step]))
    return list(map(truediv, num, den))


def dot(weights: Sequence, row: Sequence):
    return sum(map(_mul, weights, row))


def constant_on_blocks(row: Sequence, m: int, mode: str) -> bool:
    """True iff the row takes one value on each of m equal blocks.  A float
    NaN equals nothing, so a row holding one is constant on no blocks."""
    if not BACKENDS[mode].exact and any(map(math.isnan, row)):
        return False
    step = len(row) // m
    return step <= 1 or all(row[i::step] == row[0::step] for i in range(1, step))


def squares(a: Sequence) -> list:
    return [float(x) ** 2 for x in a]


def max_weighted_squares(factors: Sequence, rows: Sequence) -> list:
    """On each atom, the largest e * float(x) ** 2 over the rows and their
    factors e."""
    return list(map(max, *[[e * float(x) ** 2 for x in row]
                           for e, row in zip(factors, align(*rows))]))


def sup_abs(a: Sequence):
    return max((abs(x) for x in a), default=0)


def magnitudes(a: Sequence) -> list:
    return list(map(abs, map(float, a)))


def max_magnitude(rows) -> float:
    """The largest abs(float(x)) over the rows, 0.0 for none."""
    return max((abs(float(x)) for row in rows for x in row), default=0.0)


def max_float(start, rows) -> float:
    return max(chain((start,), map(float, chain.from_iterable(rows))))


def worst_index(mags: list) -> int:
    """Index of the worst of nonnegative residuals: the first NaN if there is
    one (a NaN never compares greater, so ``max`` alone would pass it over),
    else the first largest."""
    total = sum(mags)
    if total != total:
        return next(i for i, x in enumerate(mags) if x != x)
    return mags.index(max(mags))


def signs(a: Sequence) -> list:
    return [1 if x > 0 else -1 for x in a]


def to_json(mode: str, row: Sequence) -> list:
    return list(map(BACKENDS[mode].json, row))


def dump_lines(mode: str, row: Sequence, prefix: str, labels: Sequence, end: str) -> str:
    """``prefix``, label, dump text and ``end`` on each of len(labels) atoms:
    each entry is formatted once and written with one join over the labels of
    the atoms it covers."""
    size = _block(len(row), len(labels))
    return "".join([prefix + (x + end + prefix).join(labels[start:start + size]) + x + end
                    for start, x in zip(range(0, len(labels), size),
                                        map(BACKENDS[mode].format, row))])


def _zero_like(a: Sequence):
    return Fraction(0) if a and isinstance(a[0], Fraction) else 0.0
