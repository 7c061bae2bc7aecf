"""Elementwise helpers for per-path value sequences.

A random variable on a finite path space is represented as a plain list with
one entry per path; entries are ``Fraction`` in rational mode and ``float`` in
float mode.  Every helper is backend-agnostic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Value = Fraction | float
RV = list  # list[Value], one entry per path


def const(n_paths: int, v) -> RV:
    return [v] * n_paths


def add(a: Sequence, b: Sequence) -> RV:
    return [x + y for x, y in zip(a, b, strict=True)]


def sub(a: Sequence, b: Sequence) -> RV:
    return [x - y for x, y in zip(a, b, strict=True)]


def mul(a: Sequence, b: Sequence) -> RV:
    return [x * y for x, y in zip(a, b, strict=True)]


def smul(c, a: Sequence) -> RV:
    return [c * x for x in a]


def vmax(a: Sequence, b: Sequence) -> RV:
    return [x if x >= y else y for x, y in zip(a, b, strict=True)]


def vmin(a: Sequence, b: Sequence) -> RV:
    return [x if x <= y else y for x, y in zip(a, b, strict=True)]


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
