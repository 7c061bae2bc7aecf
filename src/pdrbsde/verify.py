"""Verification: every clause of the solution definition, in one walk over
the instants.

A solution of the predictable doubly reflected problem is one list of
clauses: the terminal value, the backward equation, on each barrier (a
``Side``) domination and the Skorokhod conditions, mutual singularity of A/A'
and B/B', the jump identities, the pinching of Y and the component classes.
Each condition names its worst cell.  The one-barrier problem of the Pre
operator is checked as the doubly reflected one with driver 0, upper barrier
zeta = Y and A' = B' = 0.

At instant k the walk takes the left jump of each process, its increment over
(t_k, t_{k+1}), and each side's gap to its barrier in each slot once, feeds
them to every clause that reads them, the component classes included, and
drops them before instant k+1; a residual that sums rows is one
``values.combine`` pass.  Each condition keeps only the worst cell of each of
its rows (``ConditionRows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

from . import values as v
from .prob_space import cond_expect, is_measurable
from .processes import LadlagProcess, class_failures, increment_failures
from .reports import ConditionReport, ConditionRows, VerificationReport

if TYPE_CHECKING:
    from .drbsde import BarrierPair, SolutionSeptuple


@dataclass(frozen=True)
class Side:
    """One reflection side of the problem.

    ``sign`` is +1 for a lower barrier (A and B push Y up) and -1 for an upper
    one, so that sign * (Y - barrier) is the gap that must stay nonnegative.
    ``suffix`` ends the side's condition names: empty on the lower side,
    "_prime" on the upper.
    """

    barrier: LadlagProcess
    a: LadlagProcess
    b: LadlagProcess
    sign: int
    domination: str  # the name of the condition that Y respects the barrier
    suffix: str = ""

    def gap(self, y: LadlagProcess, slot: str, k: int):
        """sign * (Y - barrier) on slot row k: negative where Y crosses the barrier."""
        y_row, x_row = getattr(y, f"{slot}_rows")[k], getattr(self.barrier, f"{slot}_rows")[k]
        return v.sub(y_row, x_row) if self.sign > 0 else v.sub(x_row, y_row)


# The residuals of the backward equation, each one tree of sums and
# differences for ``values.combine``; the upper side's reflectors come second
# and are subtracted.


def _left_jump(dy, da, da_up):
    """dY_k + (dA_k - dA'_k)"""
    return dy + (da - da_up)


def _right_jump(y_plus, y_mid, m_mid, m_minus, db, db_up):
    """d+Y_k - dM_k + (dB_k - dB'_k)"""
    return ((y_plus - y_mid) - (m_mid - m_minus)) + (db - db_up)


def _interval(y_next, y_plus, z_dw, dt_g, da, da_up):
    """Y_{(k+1)^-} - Y_{k^+} - Z_k dW_k + g_k dt + (a_k - a'_k)"""
    return (((y_next - y_plus) - z_dw) + dt_g) + (da - da_up)


def _integrated(y, y_n, tail, a_n, a, a_up_n, a_up, b_n, b, b_up_n, b_up, m_n, m):
    """Y_k minus the right-hand side of the integrated form at instant k."""
    return y - ((((y_n + tail) + ((a_n - a) - (a_up_n - a_up)))
                 + ((b_n - b) - (b_up_n - b_up))) - (m_n - m))


def verify_drbsde_solution(
    g: list, barriers: BarrierPair, sol: SolutionSeptuple, tol: float | None = None
) -> VerificationReport:
    """Every clause of the doubly reflected definition, in report order, to
    ``tol`` (the mode's 1e-10 gate if None), with per-cell residuals; each
    per-side clause is listed once per side.  The barriers agree at T, so
    the lower one gives the terminal value.  Besides the trees above (and no
    interval variation of M), the equation holds in its integrated form,
    Y_k = Y_N + sum_{j>=k} g_j dt - sum_{j>=k} Z_j dW_j - (M_{N^-} - M_{k^-})
          + (A_N - A_k) - (A'_N - A'_k) + (B_{N^-} - B_{k^-})
          - (B'_{N^-} - B'_{k^-}),
    checked in a loop back from T; its rows come last, the left jumps first.
    The jump of A may act only where Y sits on the barrier in the minus slot,
    that of B in the mid slot, and the increment of A over (t_k, t_{k+1})
    where it does at (k,+) or at (k+1,-); pY+ is E[Y_{k^+} | F_{t_k^-}].

    The component classes come last: the first failing check of Y, M, A, B,
    A', B' and Z (``processes.class_failures``), then [M, W] = 0; the worst
    is the first largest.
    """
    y, z, m = sol.y, sol.z, sol.m
    space, n = y.space, y.n_steps
    tol = v.gate(space.mode, 1e-10) if tol is None else tol
    lower = Side(barriers.xi, sol.a, sol.b, 1, "barrier_sandwich_lower")
    upper = Side(barriers.zeta, sol.a_prime, sol.b_prime, -1, "barrier_sandwich_upper", "_prime")
    sides = (lower, upper)

    def check(name):
        return ConditionRows(name, tol, space.n_paths)

    terminal, equation = check("terminal_value"), check("equation_residual")
    domination = [check(s.domination) for s in sides]
    interval = [check(f"skorokhod_interval_A{s.suffix}") for s in sides]
    jump_a = [check(f"skorokhod_jump_A{s.suffix}") for s in sides]
    jump_b = [check(f"skorokhod_jump_B{s.suffix}") for s in sides]
    identities, pinching = check("jump_identities"), check("value_pinching")
    singular_a = singular_b = True
    procs = [("Y", y, "predictable"), ("M", m, "cadlag-martingale"),
             ("A", sol.a, "finite-variation-predictable"),
             ("B", sol.b, "purely-discontinuous-predictable"),
             ("A'", sol.a_prime, "finite-variation-predictable"),
             ("B'", sol.b_prime, "purely-discontinuous-predictable")]
    first = {label: {} for label in [p[0] for p in procs] + ["Z"]}  # first failure by check
    bracket, bracket_row = check("[M, W]"), space.zero()

    def left_jumps(k, gaps_minus):
        """dY, dA and dA' at instant k, to every clause that reads them;
        dA = (dY)^- and dA' = (dY)^+."""
        nonlocal singular_a
        dy, da = y.left_jump(k), (lower.a.left_jump(k), upper.a.left_jump(k))
        equation.add(f"left_jump,instant={k}", v.combine(_left_jump, dy, *da))
        for cond, jump, gap in zip(jump_a, da, gaps_minus):
            cond.add(f"jump_A,instant={k}", v.scaled_pos(jump, gap))
        singular_a = singular_a and not v.any_both_nonzero(*da)
        identities.add(f"dA,instant={k}", v.sub(da[0], v.neg_part(dy)))
        identities.add(f"dA',instant={k}", v.sub(da[1], v.pos_part(dy)))
        return da

    def right_jumps(k, gaps_mid):
        """dB and dB' at instant k, with the right jump of Y and pY+;
        dB = (pY+ - Y)^-, dB' = (pY+ - Y)^+ and Y = (pY+ v xi) ^ zeta."""
        nonlocal singular_b
        db = (lower.b.left_jump(k), upper.b.left_jump(k))
        if k < n:
            equation.add(f"right_jump,instant={k}",
                         v.combine(_right_jump, y.plus_rows[k], y.mid_rows[k], m.mid_rows[k],
                                   m.minus_rows[k], *db), lane=1)
        for cond, jump, gap in zip(jump_b, db, gaps_mid):
            cond.add(f"jump_B,instant={k}", v.scaled_pos(jump, gap))
        singular_b = singular_b and not v.any_both_nonzero(*db)
        if k < n:
            proj_plus = cond_expect(space, y.plus_rows[k], space.sigma_minus[k])
            pinched = v.clamp(proj_plus, lower.barrier.mid_rows[k], upper.barrier.mid_rows[k])
            pinching.add(f"pinch,instant={k}", v.sub(y.mid_rows[k], pinched))
            gap = v.sub(proj_plus, y.mid_rows[k])
        else:
            gap = space.zero()  # no B jump at T
        identities.add(f"dB,instant={k}", v.sub(db[0], v.neg_part(gap)))
        identities.add(f"dB',instant={k}", v.sub(db[1], v.pos_part(gap)))
        return db

    def over_interval(k) -> list:
        """The increments over (t_k, t_{k+1}), and each side's gaps at its two
        ends; returns the gaps at (k+1)^-."""
        nonlocal singular_a, singular_b
        da = (lower.a.interval_increment(k), upper.a.interval_increment(k))
        equation.add(f"interval,k={k}",
                     v.combine(_interval, y.minus_rows[k + 1], y.plus_rows[k],
                               v.mul(z[k], space.dw_rows[k]), v.smul(space.dt, g[k]), *da),
                     lane=1)
        dm = m.interval_increment(k)
        equation.add(f"orthogonal_interval,k={k}", dm, lane=1)
        classes(k, [None, dm, da[0], None, da[1], None], interval=True)
        del dm  # not held while the gaps are taken, where the memory peaks
        gaps_next = []
        for s, dom, cond, inc in zip(sides, domination, interval, da):
            gap_plus, gap_next = s.gap(y, "plus", k), s.gap(y, "minus", k + 1)
            dom.add(f"plus,instant={k}", v.neg_part(gap_plus))
            cond.add(f"interval,k={k}", v.scaled_min(inc, gap_plus, gap_next))
            gaps_next.append(gap_next)
        singular_a = singular_a and not v.any_both_nonzero(*da)
        singular_b = singular_b and not v.any_both_nonzero(
            lower.b.interval_increment(k), upper.b.interval_increment(k))
        return gaps_next

    def classes(k, rows, interval=False):
        """The class checks at instant k of each component's slot rows and
        left jump in ``rows`` (Y's not taken), or with ``interval`` of its
        increment over (t_k, t_{k+1}) and of z[k].  [M, W] adds M's jump or
        increment times W's, a difference of W's running rows (a zero for a
        jump, which carries a NaN of M's through), summed where M moves."""
        nonlocal bracket_row
        checks = increment_failures if interval else class_failures
        for (label, proc, kind), row in zip(procs, rows):
            for num, text in checks(proc, kind, k, row):
                first[label].setdefault(num, text)
        if interval and not is_measurable(space, z[k], space.sigma_mid[k]):
            first["Z"].setdefault(0, f"z[{k}] not sigma_mid[{k}]-measurable")
        if v.any_nonzero(rows[1]):  # a zero row of M's leaves [M, W] as it is
            w = reduce(v.add, space.dw_rows[:k], space.zero())  # W at t_k
            dw = v.sub(v.add(w, space.dw_rows[k]), w) if interval else v.sub(w, w)
            bracket_row = v.add(bracket_row, v.mul(rows[1], dw))
            bracket.add(k + 1 if interval else k, bracket_row)  # the row at t_{k+1} or t_k

    def forward():
        """Each instant in turn; the last one's rows go when this returns,
        before the loop back from T holds its own."""
        gaps_minus = [s.gap(y, "minus", 0) for s in sides]
        for k in range(n + 1):
            gaps_mid = [s.gap(y, "mid", k) for s in sides]
            for dom, gap_mid, gap_minus in zip(domination, gaps_mid, gaps_minus):
                dom.add(f"mid,instant={k}", v.neg_part(gap_mid))
                dom.add(f"minus,instant={k}", v.neg_part(gap_minus))
            da, db = left_jumps(k, gaps_minus), right_jumps(k, gaps_mid)
            classes(k, [None, m.left_jump(k), da[0], db[0], da[1], db[1]])
            del da, db  # not held over the interval
            if k < n:
                gaps_minus = over_interval(k)

    terminal.add(f"instant={n}", v.sub(y.mid_rows[n], lower.barrier.mid_rows[n]))
    forward()
    tail = space.zero()  # running backward sum of g dt - Z dW
    for k in range(n, -1, -1):
        equation.add(f"integrated,instant={k}", v.combine(
            _integrated, y.mid_rows[k], y.mid_rows[n], tail,
            lower.a.mid_rows[n], lower.a.mid_rows[k], upper.a.mid_rows[n], upper.a.mid_rows[k],
            lower.b.minus_rows[n], lower.b.minus_rows[k],
            upper.b.minus_rows[n], upper.b.minus_rows[k],
            m.minus_rows[n], m.minus_rows[k]), lane=2)
        if k > 0:
            # two binary helpers, not one combine: the step is on the atoms of
            # sigma_mid[k], coarser than the tail
            step = v.sub(v.smul(space.dt, g[k - 1]), v.mul(z[k - 1], space.dw_rows[k - 1]))
            tail = v.add(tail, step)

    conds = [terminal, equation, *domination, *interval, *jump_a, *jump_b]
    reports = [c.report() for c in conds]
    reports += [ConditionReport(f"mutual_singularity_{name}", ok, 0.0 if ok else 1.0)
                for name, ok in (("A", singular_a), ("B", singular_b))]
    reports += [identities.report(), pinching.report()]
    problems = [(1.0, f"{label}: {fails[min(fails)]}") for label, fails in first.items() if fails]
    dev = bracket.report().max_residual
    if not dev <= tol:
        problems.append((dev, "[M, W] != 0"))
    worst, where = problems[v.worst_index([p for p, _ in problems])] if problems else (0.0, None)
    reports.append(ConditionReport("component_classes", worst <= tol, worst, where))
    return VerificationReport(tuple(reports))
