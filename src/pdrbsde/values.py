"""Elementwise helpers for rows: random variables stored once per atom.

A random variable on a finite path space is a *row*: a list with one entry
per atom of a partition it is measurable for, entries ``Fraction`` in
rational mode and ``float`` in float mode.  Every partition of the space
splits the paths into equal runs of consecutive paths (see prob_space.py),
so a row of length m is constant on blocks of n_paths // m paths, and any two
row lengths divide one another.  A row with one entry per path is a row too.

The binary helpers align two rows by repeating each entry of the shorter one
``len(long) // len(short)`` times; ``pairs`` walks rows together that way,
and ``eq`` is the one row equality.  Every helper is backend-agnostic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from typing import Sequence

Value = Fraction | float
RV = list  # list[Value], one entry per atom


def expand(row: Sequence, size: int) -> Sequence:
    """The row on ``size`` atoms: each entry repeated size // len(row) times."""
    times, rest = divmod(size, len(row))
    if rest or not times:
        raise ValueError(f"a row of {len(row)} entries does not align with {size}")
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


def eq(a: Sequence, b: Sequence) -> bool:
    """Equality of two rows as random variables: equal entries once aligned."""
    a, b = align(a, b)
    return list(a) == list(b)


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


def pos_part(a: Sequence) -> RV:
    """Elementwise (x)^+ = max(x, 0); a NaN stays NaN."""
    zero = _zero_like(a)
    return [zero if x <= zero else x for x in a]


def neg_part(a: Sequence) -> RV:
    """Elementwise (x)^- = max(-x, 0); a NaN stays NaN."""
    zero = _zero_like(a)
    return [zero if x >= zero else -x for x in a]


def sup_abs(a: Sequence) -> Value:
    return max((abs(x) for x in a), default=0)


def _zero_like(a: Sequence):
    return Fraction(0) if a and isinstance(a[0], Fraction) else 0.0
