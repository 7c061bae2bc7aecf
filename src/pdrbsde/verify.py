"""Verification: every clause of the solution definition, in one walk over
the instants.

A solution of the predictable reflected problem is one list of clauses: the
terminal value, the backward equation, and on each barrier (a ``Side``)
domination and the Skorokhod conditions; with two barriers, also mutual
singularity of A/A' and B/B', the jump identities and the pinching of Y.  The
one-barrier problem is the same clauses on one side with a driver of zeros.
Each condition names its worst cell.

At instant k the walk takes the left jump of each process, its increment over
(t_k, t_{k+1}), and each side's gap to its barrier in each slot once, feeds
them to every clause that reads them and drops them before instant k+1; a
residual that sums rows is one ``values.combine`` pass.  Each condition keeps
only the worst cell of each of its rows (``ConditionRows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import values as v
from .prob_space import cond_expect
from .processes import (
    LadlagProcess,
    ProcessError,
    is_predictable_strong_supermartingale,
    validate_integrand,
    validate_process,
    zero_process,
)
from .reports import ConditionReport, ConditionRows, VerificationReport

if TYPE_CHECKING:
    from .drbsde import BarrierPair, SolutionSeptuple
    from .snell import RbsdeQuintuple


@dataclass(frozen=True)
class Side:
    """One reflection side of the problem.

    ``sign`` is +1 for a lower barrier (A and B push Y up) and -1 for an upper
    one, so that sign * (Y - barrier) is the gap that must stay nonnegative.
    A problem lists its lower side first.
    ``suffix`` ends the side's condition names and ``tick`` its component
    labels: empty on the lower side, "_prime" and "'" on the upper.
    """

    barrier: LadlagProcess
    a: LadlagProcess
    b: LadlagProcess
    sign: int
    domination: str  # the name of the condition that Y respects the barrier
    suffix: str = ""
    tick: str = ""

    def gap(self, y: LadlagProcess, slot: str, k: int):
        """sign * (Y - barrier) on slot row k: negative where Y crosses the barrier."""
        y_row, x_row = getattr(y, f"{slot}_rows")[k], getattr(self.barrier, f"{slot}_rows")[k]
        return v.sub(y_row, x_row) if self.sign > 0 else v.sub(x_row, y_row)


def verify_rbsde_solution(
    barrier: LadlagProcess, q: RbsdeQuintuple, tol: float | None = None
) -> VerificationReport:
    """Check every clause of the one-barrier definition (driver 0), reporting residuals."""
    sides = (Side(barrier, q.a, q.b, 1, "barrier_domination"),)
    zero_driver = [barrier.space.zero()] * barrier.n_steps
    tol = _default_tol(barrier, tol)
    return VerificationReport(conditions=(
        *_conditions(zero_driver, q.y, q.z, q.m, sides, tol),
        # driver 0 and a lower barrier only: Y is itself a predictable strong
        # supermartingale
        _class_condition(q.y, q.z, q.m, sides, tol, supermartingale=True),
    ))


def verify_drbsde_solution(
    g: list, barriers: BarrierPair, s: SolutionSeptuple, tol: float | None = None
) -> VerificationReport:
    """Every clause of the doubly reflected definition, with per-cell residuals."""
    sides = (
        Side(barriers.xi, s.a, s.b, 1, "barrier_sandwich_lower"),
        Side(barriers.zeta, s.a_prime, s.b_prime, -1, "barrier_sandwich_upper", "_prime", "'"),
    )
    tol = _default_tol(barriers.xi, tol)
    return VerificationReport(conditions=(
        *_conditions(g, s.y, s.z, s.m, sides, tol),
        _class_condition(s.y, s.z, s.m, sides, tol, supermartingale=False),
    ))


def _default_tol(barrier: LadlagProcess, tol: float | None) -> float:
    return v.gate(barrier.space.mode, 1e-10) if tol is None else tol


# The residuals of the backward equation, each one tree of sums and
# differences for ``values.combine``; the upper side's reflectors come second
# and are subtracted.  A one-barrier problem passes zeros for them: x - 0 is
# x to the bit, so these trees serve it too.


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


def _conditions(g, y, z, m, sides, tol) -> list[ConditionReport]:
    """Every clause but the component classes, in report order; each
    per-side clause is listed once per side.  The barriers agree at T, so
    the first side's gives the terminal value.  Besides the trees above (and
    no interval variation of M), the equation holds in its integrated form,
    Y_k = Y_N + sum_{j>=k} g_j dt - sum_{j>=k} Z_j dW_j - (M_{N^-} - M_{k^-})
          + (A_N - A_k) - (A'_N - A'_k) + (B_{N^-} - B_{k^-})
          - (B'_{N^-} - B'_{k^-}),
    checked in a loop back from T; its rows come last, the left jumps first.
    The jump of A may act only where Y sits on the barrier in the minus slot,
    that of B in the mid slot, and the increment of A over (t_k, t_{k+1})
    where it does at (k,+) or at (k+1,-); pY+ is E[Y_{k^+} | F_{t_k^-}].
    """
    space, n = y.space, y.n_steps
    lower, *upper = sides
    a_up, b_up = (upper[0].a, upper[0].b) if upper else (zero_process(space),) * 2

    def check(name):
        return ConditionRows(name, tol, space.n_paths)

    terminal, equation = check("terminal_value"), check("equation_residual")
    domination = [check(s.domination) for s in sides]
    interval = [check(f"skorokhod_interval_A{s.suffix}") for s in sides]
    jump_a = [check(f"skorokhod_jump_A{s.suffix}") for s in sides]
    jump_b = [check(f"skorokhod_jump_B{s.suffix}") for s in sides]
    identities, pinching = check("jump_identities"), check("value_pinching")
    singular_a = singular_b = True

    def left_jumps(k, gaps_minus):
        """dY, dA and dA' at instant k, to every clause that reads them;
        dA = (dY)^- and dA' = (dY)^+."""
        nonlocal singular_a
        dy, da = y.left_jump(k), (lower.a.left_jump(k), a_up.left_jump(k))
        equation.add(f"left_jump,instant={k}", v.combine(_left_jump, dy, *da))
        for cond, jump, gap in zip(jump_a, da, gaps_minus):
            cond.add(f"jump_A,instant={k}", v.scaled_pos(jump, gap))
        if upper:
            singular_a = singular_a and not v.any_both_nonzero(*da)
            identities.add(f"dA,instant={k}", v.sub(da[0], v.neg_part(dy)))
            identities.add(f"dA',instant={k}", v.sub(da[1], v.pos_part(dy)))

    def right_jumps(k, gaps_mid):
        """dB and dB' at instant k, with the right jump of Y and pY+;
        dB = (pY+ - Y)^-, dB' = (pY+ - Y)^+ and Y = (pY+ v xi) ^ zeta."""
        nonlocal singular_b
        db = (lower.b.left_jump(k), b_up.left_jump(k))
        if k < n:
            equation.add(f"right_jump,instant={k}",
                         v.combine(_right_jump, y.plus_rows[k], y.mid_rows[k], m.mid_rows[k],
                                   m.minus_rows[k], *db), lane=1)
        for cond, jump, gap in zip(jump_b, db, gaps_mid):
            cond.add(f"jump_B,instant={k}", v.scaled_pos(jump, gap))
        if not upper:
            return
        singular_b = singular_b and not v.any_both_nonzero(*db)
        if k < n:
            proj_plus = cond_expect(space, y.plus_rows[k], space.sigma_minus[k])
            pinched = v.clamp(proj_plus, lower.barrier.mid_rows[k], upper[0].barrier.mid_rows[k])
            pinching.add(f"pinch,instant={k}", v.sub(y.mid_rows[k], pinched))
            gap = v.sub(proj_plus, y.mid_rows[k])
        else:
            gap = space.zero()  # no B jump at T
        identities.add(f"dB,instant={k}", v.sub(db[0], v.neg_part(gap)))
        identities.add(f"dB',instant={k}", v.sub(db[1], v.pos_part(gap)))

    def over_interval(k) -> list:
        """The increments over (t_k, t_{k+1}), and each side's gaps at its two
        ends; returns the gaps at (k+1)^-."""
        nonlocal singular_a, singular_b
        da = (lower.a.interval_increment(k), a_up.interval_increment(k))
        equation.add(f"interval,k={k}",
                     v.combine(_interval, y.minus_rows[k + 1], y.plus_rows[k],
                               v.mul(z[k], space.dw_rows[k]), v.smul(space.dt, g[k]), *da),
                     lane=1)
        equation.add(f"orthogonal_interval,k={k}", m.interval_increment(k), lane=1)
        gaps_next = []
        for s, dom, cond, inc in zip(sides, domination, interval, da):
            gap_plus, gap_next = s.gap(y, "plus", k), s.gap(y, "minus", k + 1)
            dom.add(f"plus,instant={k}", v.neg_part(gap_plus))
            cond.add(f"interval,k={k}", v.scaled_min(inc, gap_plus, gap_next))
            gaps_next.append(gap_next)
        if upper:
            singular_a = singular_a and not v.any_both_nonzero(*da)
            singular_b = singular_b and not v.any_both_nonzero(
                lower.b.interval_increment(k), b_up.interval_increment(k))
        return gaps_next

    def forward():
        """Each instant in turn; the last one's rows go when this returns,
        before the loop back from T holds its own."""
        gaps_minus = [s.gap(y, "minus", 0) for s in sides]
        for k in range(n + 1):
            gaps_mid = [s.gap(y, "mid", k) for s in sides]
            for dom, gap_mid, gap_minus in zip(domination, gaps_mid, gaps_minus):
                dom.add(f"mid,instant={k}", v.neg_part(gap_mid))
                dom.add(f"minus,instant={k}", v.neg_part(gap_minus))
            left_jumps(k, gaps_minus)
            right_jumps(k, gaps_mid)
            if k < n:
                gaps_minus = over_interval(k)

    terminal.add(f"instant={n}", v.sub(y.mid_rows[n], lower.barrier.mid_rows[n]))
    forward()
    tail = space.zero()  # running backward sum of g dt - Z dW
    for k in range(n, -1, -1):
        equation.add(f"integrated,instant={k}", v.combine(
            _integrated, y.mid_rows[k], y.mid_rows[n], tail,
            lower.a.mid_rows[n], lower.a.mid_rows[k], a_up.mid_rows[n], a_up.mid_rows[k],
            lower.b.minus_rows[n], lower.b.minus_rows[k], b_up.minus_rows[n], b_up.minus_rows[k],
            m.minus_rows[n], m.minus_rows[k]), lane=2)
        if k > 0:
            # two binary helpers, not one combine: the step is on the atoms of
            # sigma_mid[k], coarser than the tail
            step = v.sub(v.smul(space.dt, g[k - 1]), v.mul(z[k - 1], space.dw_rows[k - 1]))
            tail = v.add(tail, step)

    conds = [terminal, equation, *domination, *interval, *jump_a, *jump_b]
    reports = [c.report() for c in conds]
    if upper:
        reports += [ConditionReport(f"mutual_singularity_{name}", ok, 0.0 if ok else 1.0)
                    for name, ok in (("A", singular_a), ("B", singular_b))]
        reports += [identities.report(), pinching.report()]
    return reports


def _class_condition(y, z, m, sides, tol, supermartingale: bool) -> ConditionReport:
    """Each component in its class, and [M, W] = 0; with ``supermartingale``,
    Y must also be a predictable strong supermartingale."""
    procs = [(y, "predictable", "Y"), (m, "cadlag-martingale", "M")]
    for s in sides:
        procs += [(s.a, "finite-variation-predictable", f"A{s.tick}"),
                  (s.b, "purely-discontinuous-predictable", f"B{s.tick}")]
    problems: list[tuple[float, str]] = []
    for proc, kind, label in procs:
        try:
            validate_process(proc, kind)
        except ProcessError as exc:
            problems.append((1.0, f"{label}: {exc}"))
    try:
        validate_integrand(y.space, z)
    except ProcessError as exc:
        problems.append((1.0, f"Z: {exc}"))
    if supermartingale and not is_predictable_strong_supermartingale(y):
        problems.append((1.0, "Y is not a predictable strong supermartingale"))
    dev = _bracket_with_w(m, tol).max_residual
    if not dev <= tol:
        problems.append((dev, "[M, W] != 0"))
    worst_dev, where = (problems[v.worst_index([p for p, _ in problems])] if problems
                        else (0.0, None))
    return ConditionReport("component_classes", worst_dev <= tol, worst_dev, where)


def _bracket_with_w(m, tol) -> ConditionReport:
    """[M, W] at each instant, W = int 1 dW: the mid rows of the quadratic
    covariation, summed row by row from W's running row and increment.  The
    float operations are those of summing whole processes: M's jump times
    W's (a row of zeros, which carries a NaN of M through), then M's
    interval increment times W's."""
    space, n = m.space, m.n_steps
    rows = ConditionRows("[M, W]", tol, space.n_paths)
    one, w, run = space.constant(1), space.zero(), space.zero()
    for k in range(n + 1):
        run = v.add(run, v.mul(m.left_jump(k), v.sub(w, w)))
        rows.add(k, run)
        if k < n:
            w_next = v.add(w, v.mul(one, space.dw_rows[k]))
            run = v.add(run, v.mul(m.interval_increment(k), v.sub(w_next, w)))
            w = w_next
    return rows.report()
