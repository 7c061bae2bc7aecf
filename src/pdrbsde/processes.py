"""Ladlag process calculus on the slot grid.

A process is stored as three per-instant slots: ``minus[k]`` (left limit at
t_k), ``mid[k]`` (value at t_k) and ``plus[k]`` (right limit at t_k; absent at
the terminal instant).  Each slot is a row (see values.py), one value per
atom: ``minus_rows[k]`` on the atoms of sigma_minus[k] or a coarser partition,
``mid_rows[k]`` and ``plus_rows[k]`` on those of sigma_mid[k] or coarser,
unless the process came in from outside as finer rows.  ``minus``, ``mid``
and ``plus`` are per-path views of the rows, made on first use, for readers
outside the program.  Interval evolution is carried between ``plus[k]`` and
``minus[k+1]``; with binary Brownian increments every zero-mean interval
increment of a martingale is proportional to dW_k, so the orthogonal component
of any martingale moves only through instant jumps — jumps at predictable
times, the phenomenon the whole artifact is built to exhibit.

A ``LadlagProcess`` holds its space and its three slot arrays, nothing else:
it carries no class, and two processes are equal when their slots are equal
as random variables.  Processes are built by ``from_slots`` (the slots given)
or ``running_sum`` (the slots of a sum of jumps and interval increments), and
``validate_process(proc, kind)`` checks that a process lies in the named
class:

* every kind: minus[k] is sigma_minus[k]-measurable; mid[k] and plus[k] are
  sigma_mid[k]-measurable.
* predictable: additionally mid[k] is sigma_minus[k]-measurable.
* cadlag-martingale: plus == mid, interval increments have zero conditional
  mean given sigma_mid[k], instant jumps have zero conditional mean given
  sigma_minus[k] (the discrete predictable stopping theorem).
* finite-variation-predictable (the A class): cadlag, mid[0] = 0, nonnegative
  interval increments (sigma_minus[k+1]-measurable) and nonnegative instant
  jumps (sigma_minus[k]-measurable).
* purely-discontinuous-predictable (the B class): cadlag, minus[0] = 0, no
  interval variation, nonnegative sigma_minus[k]-measurable instant jumps.
  B may jump at instant 0 (B_{0^-} = 0, B_0 >= 0); no other class may.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

from . import values as v
from .prob_space import FilteredSpace, cond_expect, is_measurable, on_paths

KINDS = (
    "predictable",
    "finite-variation-predictable",
    "purely-discontinuous-predictable",
    "cadlag-martingale",
)


class ProcessError(ValueError):
    """Violation of a process class invariant."""


@dataclass(frozen=True, eq=False)
class LadlagProcess:
    space: FilteredSpace
    minus_rows: tuple   # length N+1, each a row
    mid_rows: tuple     # length N+1
    plus_rows: tuple    # length N

    @property
    def n_steps(self) -> int:
        return self.space.n_steps

    @property
    def slots(self) -> tuple:
        return self.minus_rows, self.mid_rows, self.plus_rows

    @cached_property
    def minus(self) -> tuple:
        return tuple(on_paths(self.space, r) for r in self.minus_rows)

    @cached_property
    def mid(self) -> tuple:
        return tuple(on_paths(self.space, r) for r in self.mid_rows)

    @cached_property
    def plus(self) -> tuple:
        return tuple(on_paths(self.space, r) for r in self.plus_rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LadlagProcess):
            return NotImplemented
        return self.space is other.space and all(
            len(a) == len(b) and all(map(v.eq, a, b)) for a, b in zip(self.slots, other.slots))

    def left_jump(self, k: int) -> list:
        return v.sub(self.mid_rows[k], self.minus_rows[k])

    def right_jump(self, k: int) -> list:
        return v.sub(self.plus_rows[k], self.mid_rows[k])

    def interval_increment(self, k: int) -> list:
        """Change across the open interval (t_k, t_{k+1})."""
        return v.sub(self.minus_rows[k + 1], self.plus_rows[k])


# ---------------------------------------------------------------------------
# constructors


def from_slots(space, minus, mid, plus) -> LadlagProcess:
    """Process from its slot rows, unchecked: ``validate_process`` checks a class."""
    return LadlagProcess(space=space, minus_rows=tuple(minus), mid_rows=tuple(mid),
                         plus_rows=tuple(plus))


def from_cadlag_sequence(space, mids: Sequence) -> LadlagProcess:
    """Step process from per-instant values: value mids[k] on [t_k, t_{k+1}).

    Slots: mid[k] = plus[k] = mids[k], minus[k] = mids[k-1]; the change shows
    up as a left jump at each instant and intervals carry no variation.
    """
    n = space.n_steps
    return from_slots(space, [mids[0], *mids[:n]], mids, mids[:n])


def constant_process(space, value) -> LadlagProcess:
    c = space.constant(value)
    n = space.n_steps
    return from_slots(space, [c] * (n + 1), [c] * (n + 1), [c] * n)


def zero_process(space) -> LadlagProcess:
    return constant_process(space, 0)


def running_sum(space: FilteredSpace, left=None, interval=None, right=None,
                start=None) -> LadlagProcess:
    """Process started at ``start`` (zero by default) that moves, in time order,
    by ``left[k]`` from minus to mid at instant k, by ``right[k]`` from mid to
    plus, and by ``interval[k]`` across (t_k, t_{k+1}).

    A sequence left out means no movement there: with ``left`` and
    ``interval`` only, the result is cadlag.
    """
    n = space.n_steps
    run = space.zero() if start is None else start
    minus, mid, plus = [], [], []
    for k in range(n + 1):
        minus.append(run)
        if left is not None:
            run = v.add(run, left[k])
        mid.append(run)
        if k < n:
            if right is not None:
                run = v.add(run, right[k])
            plus.append(run)
            if interval is not None:
                run = v.add(run, interval[k])
    return from_slots(space, minus, mid, plus)


# ---------------------------------------------------------------------------
# slot arithmetic


def p_add(a: LadlagProcess, b: LadlagProcess) -> LadlagProcess:
    return _zip_with(v.add, a, b)


def p_sub(a: LadlagProcess, b: LadlagProcess) -> LadlagProcess:
    return _zip_with(v.sub, a, b)


def _zip_with(op, a, b):
    return from_slots(a.space, *(list(map(op, x, y)) for x, y in zip(a.slots, b.slots)))


def sup_distance(a: LadlagProcess, b: LadlagProcess):
    """Max absolute slot difference over all instants and paths: the largest,
    over the minus, mid and plus slots, of the largest over their instants."""
    return max(max(map(v.sup_abs, map(v.sub, xs, ys)))
               for xs, ys in zip(a.slots, b.slots) if xs)


# ---------------------------------------------------------------------------
# class validation


def validate_process(proc: LadlagProcess, kind: str) -> None:
    """Raise ``ProcessError`` unless ``proc`` lies in the class ``kind``: the
    first failure of the first check it fails (``class_failures``)."""
    n = proc.n_steps
    if kind not in KINDS:
        raise ProcessError(f"unknown kind {kind!r}")
    if len(proc.minus_rows) != n + 1 or len(proc.mid_rows) != n + 1 or len(proc.plus_rows) != n:
        raise ProcessError("slot arrays have wrong lengths")
    first: dict = {}
    moves = kind != "predictable"  # its jumps and increments are checked
    for k in range(n + 1):
        found = class_failures(proc, kind, k, proc.left_jump(k) if moves else None)
        if moves and k < n:
            found = chain(found, increment_failures(proc, kind, k, proc.interval_increment(k)))
        for check, text in found:
            first.setdefault(check, text)
    if first:
        raise ProcessError(first[min(first)])


def class_failures(proc: LadlagProcess, kind: str, k: int, jump=None):
    """``(check, message)`` of each check of the class ``kind`` that ``proc``
    fails at instant k, on its slot rows (for B, plus[k] against minus[k+1])
    and its left jump ``jump`` (not read for ``predictable``).  Checks are
    numbered as ``validate_process`` runs them: it reports the first failure
    of the lowest, instants in time order and slots minus, mid, plus."""
    space, n = proc.space, proc.n_steps
    minus, mid = proc.minus_rows[k], proc.mid_rows[k]
    plus = proc.plus_rows[k] if k < n else None
    if not is_measurable(space, minus, space.sigma_minus[k]):
        yield 0, f"minus[{k}] not sigma_minus[{k}]-measurable"
    if not is_measurable(space, mid, space.sigma_mid[k]):
        yield 0, f"mid[{k}] not sigma_mid[{k}]-measurable"
    if plus is not None and not is_measurable(space, plus, space.sigma_mid[k]):
        yield 0, f"plus[{k}] not sigma_mid[{k}]-measurable"
    if kind != "cadlag-martingale" and not is_measurable(space, mid, space.sigma_minus[k]):
        yield 1, f"mid[{k}] not sigma_minus[{k}]-measurable (predictable)"
    if kind != "predictable" and plus is not None and not (plus is mid or v.eq(plus, mid)):
        yield 2, f"cadlag violated at plus[{k}]"
    if kind == "purely-discontinuous-predictable":
        if k == 0 and v.any_nonzero(minus):
            yield 3, "B-class needs slot_minus[0] = 0"
        if k < n and not (proc.minus_rows[k + 1] is plus or v.eq(proc.minus_rows[k + 1], plus)):
            yield 4, f"B-class has interval variation on ({k},{k+1})"
        if v.any_negative(jump):
            yield 5, f"B-class jump negative at instant {k}"
    elif kind == "finite-variation-predictable":
        if k == 0 and (v.any_nonzero(mid) or v.any_nonzero(minus)):
            yield 3, "A-class needs A_0 = 0"
        if v.any_negative(jump):
            yield 5, f"A-class jump negative at instant {k}"
        elif not is_measurable(space, jump, space.sigma_minus[k]):
            yield 5, f"A-class jump not sigma_minus[{k}]-measurable"
    elif kind == "predictable":
        # no time before 0, so the left limit at 0 is the value itself
        # (martingales may carry a zero-mean jump at 0 when a mark lives there)
        if k == 0 and not (minus is mid or v.eq(minus, mid)):
            yield 3, "slot_minus[0] must equal slot_mid[0]"
    elif not _centred(space, jump, space.sigma_minus[k]):
        yield 6, "martingale increment conditions violated"


def increment_failures(proc: LadlagProcess, kind: str, k: int, inc):
    """``class_failures`` of A's or M's increment ``inc`` over (t_k, t_{k+1})."""
    if kind == "finite-variation-predictable":
        if v.any_negative(inc):
            yield 4, f"A-class interval increment negative on ({k},{k+1})"
        elif not is_measurable(proc.space, inc, proc.space.sigma_minus[k + 1]):
            yield 4, f"A-class interval increment not sigma_minus[{k+1}]-measurable"
    elif kind == "cadlag-martingale" and not _centred(proc.space, inc, proc.space.sigma_mid[k]):
        yield 6, "martingale increment conditions violated"


def _centred(space: FilteredSpace, row, partition) -> bool:
    """E[row | partition] = 0 within the space's slack; a row of zeros is."""
    return not (v.any_nonzero(row) and v.sup_abs(cond_expect(space, row, partition)) > space.slack)


# ---------------------------------------------------------------------------
# operations


def is_predictable_strong_supermartingale(y: LadlagProcess) -> bool:
    """Local slot inequalities for a predictable strong supermartingale.

    (i) minus[k] >= mid[k]; (ii) mid[k] >= E[plus[k] | sigma_minus[k]];
    (iii) plus[k] >= E[minus[k+1] | sigma_mid[k]].  Composing the three
    yields every pairwise stopping-time inequality, in particular the
    mid-to-mid one-step inequality mid[k] >= E[mid[k+1] | sigma_minus[k]].
    """
    space, n = y.space, y.n_steps
    tol = space.slack
    for k in range(n + 1):
        if not is_measurable(space, y.mid_rows[k], space.sigma_minus[k]):
            return False
    for k in range(n + 1):
        if v.any_below(y.minus_rows[k], y.mid_rows[k], tol):
            return False
    for k in range(n):
        p_proj = cond_expect(space, y.plus_rows[k], space.sigma_minus[k])
        if v.any_below(y.mid_rows[k], p_proj, tol):
            return False
        cont = cond_expect(space, y.minus_rows[k + 1], space.sigma_mid[k])
        if v.any_below(y.plus_rows[k], cont, tol):
            return False
    return True


def ito_integral(space: FilteredSpace, z: Sequence) -> LadlagProcess:
    """Cadlag martingale with interval increments z[k] dW_k and no jumps."""
    return running_sum(space, interval=list(map(v.mul, z, space.dw_rows)))


def orthogonal_decompose(m: LadlagProcess) -> tuple[list, LadlagProcess]:
    """Split a square-integrable martingale into dW-integral plus orthogonal rest.

    With binary increments, every zero-mean interval increment is a multiple
    of dW_k on each atom of sigma_mid[k]:
    Z_k = E[(M_{(k+1)^-} - M_{k^+}) dW_k | sigma_mid[k]] / dt.  The remainder
    N = M - int Z dW then has no interval variation at all: it carries exactly
    the jumps at (predictable) grid instants, and [N, W] = 0 cell by cell.
    """
    space, n = m.space, m.n_steps
    if v.any_nonzero(m.minus_rows[0]):
        raise ProcessError("orthogonal decomposition needs M_{0^-} = 0")
    validate_process(m, "cadlag-martingale")
    inv_dt = 1 / space.dt
    z = [v.smul(inv_dt, cond_expect(space, v.mul(m.interval_increment(k), space.dw_rows[k]),
                                    space.sigma_mid[k]))
         for k in range(n)]
    return z, p_sub(m, ito_integral(space, z))


def rebased(m: LadlagProcess) -> LadlagProcess:
    """M - M_{0^-}: the process moved to start at zero."""
    base = m.minus_rows[0]
    return from_slots(m.space, *([v.sub(r, base) for r in rows] for rows in m.slots))


def martingale_from_terminal(space: FilteredSpace, terminal: Sequence) -> LadlagProcess:
    """Cadlag version of E[terminal | F_t] started at its mean.

    terminal must be sigma_mid[N]-measurable; slots are the conditional
    expectations on the lattice.
    """
    n = space.n_steps
    minus = [cond_expect(space, terminal, space.sigma_minus[k]) for k in range(n + 1)]
    mid = [cond_expect(space, terminal, space.sigma_mid[k]) for k in range(n + 1)]
    return from_slots(space, minus, mid, mid[:n])

