"""Verification: every clause of the solution definition, written once.

A solution of the predictable reflected problem is one list of clauses: the
terminal value, the backward equation, and on each barrier (a ``Side``)
domination and the Skorokhod conditions; with two barriers, also mutual
singularity of A/A' and B/B'.  The one-barrier problem is the same clauses on
one side with a driver of zeros.  Each condition names its worst cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import TYPE_CHECKING

from . import values as v
from .processes import (
    LadlagProcess,
    ProcessError,
    bracket,
    brownian_process,
    is_predictable_strong_supermartingale,
    predictable_projection,
    validate_integrand,
    validate_process,
)
from .reports import ConditionReport, VerificationReport, condition_from_rows

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


def verify_rbsde_solution(
    barrier: LadlagProcess, q: RbsdeQuintuple, tol: float | None = None
) -> VerificationReport:
    """Check every clause of the one-barrier definition (driver 0), reporting residuals."""
    sides = (Side(barrier, q.a, q.b, 1, "barrier_domination"),)
    zero_driver = [barrier.space.zero()] * barrier.n_steps
    tol = _default_tol(barrier, tol)
    return VerificationReport(conditions=(
        *_side_conditions(zero_driver, q.y, q.z, q.m, sides, _checker(q.y, tol)),
        # driver 0 and a lower barrier only: Y is itself a predictable strong
        # supermartingale
        _class_condition(q.y, q.z, q.m, sides, tol, supermartingale=True),
    ))


def verify_drbsde_solution(
    g: list, barriers: BarrierPair, s: SolutionSeptuple, tol: float | None = None
) -> VerificationReport:
    """Every clause of the doubly reflected definition, with per-cell residuals."""
    xi, zeta, y = barriers.xi, barriers.zeta, s.y
    sides = (
        Side(xi, s.a, s.b, 1, "barrier_sandwich_lower"),
        Side(zeta, s.a_prime, s.b_prime, -1, "barrier_sandwich_upper", "_prime", "'"),
    )
    tol = _default_tol(xi, tol)
    check = _checker(y, tol)
    conds = _side_conditions(g, y, s.z, s.m, sides, check)
    for name, p, q in (("A", s.a, s.a_prime), ("B", s.b, s.b_prime)):
        ok = mutually_singular(p, q)
        conds.append(ConditionReport(f"mutual_singularity_{name}", ok, 0.0 if ok else 1.0))
    proj = predictable_projection(y)
    conds.append(check("jump_identities", _jump_identity_rows(y, proj, s)))
    conds.append(check("value_pinching", _pinch_rows(y, proj, xi, zeta)))
    conds.append(_class_condition(y, s.z, s.m, sides, tol, supermartingale=False))
    return VerificationReport(conditions=tuple(conds))


def _default_tol(barrier: LadlagProcess, tol: float | None) -> float:
    return v.gate(barrier.space.mode, 1e-10) if tol is None else tol


def _checker(y: LadlagProcess, tol: float):
    """``condition_from_rows`` for rows of Y's space, held to ``tol``."""
    return partial(condition_from_rows, tol=tol, n_paths=y.space.n_paths)


def _side_conditions(g, y, z, m, sides, check) -> list[ConditionReport]:
    """The clauses every reflected problem shares, in report order; each
    per-side clause is listed once per side.  The barriers agree at T, so
    the first side's gives the terminal value."""
    n, terminal = y.n_steps, sides[0].barrier.mid_rows[-1]
    return [
        check("terminal_value", [(f"instant={n}", v.sub(y.mid_rows[n], terminal))]),
        check("equation_residual", _equation_rows(g, y, z, m, sides)),
        *(check(s.domination, _domination_rows(y, s)) for s in sides),
        *(check(f"skorokhod_interval_A{s.suffix}", _interval_rows(y, s)) for s in sides),
        *(check(f"skorokhod_jump_A{s.suffix}",
                _jump_rows("jump_A", s.a, y.minus_rows, s.barrier.minus_rows, s.sign))
          for s in sides),
        *(check(f"skorokhod_jump_B{s.suffix}",
                _jump_rows("jump_B", s.b, y.mid_rows, s.barrier.mid_rows, s.sign))
          for s in sides),
    ]


def _net(sides, term) -> list:
    """The reflectors' net push on Y: term(A) of the lower side, which comes
    first, minus term(A') of the upper side if there is one."""
    lower, *upper = sides
    return reduce(lambda net, s: v.sub(net, term(s)), upper, term(lower))


def _equation_rows(g, y, z, m, sides):
    """Slot-by-slot balance of the backward equation.

    Left jumps:  dY_k + (dA_k - dA'_k) = 0.
    Right jumps: d+Y_k - dM_k + (dB_k - dB'_k) = 0.
    Intervals:   Y_{(k+1)^-} - Y_{k^+} - Z_k dW_k + g_k dt + (a_k - a'_k) = 0,
    and the orthogonal part must carry no interval variation.  The integrated
    form at every instant,
    Y_k = Y_N + sum_{j>=k} g_j dt - sum_{j>=k} Z_j dW_j - (M_{N^-} - M_{k^-})
          + (A_N - A_k) - (A'_N - A'_k) + (B_{N^-} - B_{k^-})
          - (B'_{N^-} - B'_{k^-}),
    is checked as well.
    """
    space, n = y.space, y.n_steps
    for k in range(n + 1):
        res = v.add(y.left_jump(k), _net(sides, lambda s: s.a.left_jump(k)))
        yield f"left_jump,instant={k}", res
    for k in range(n):
        res = v.sub(y.right_jump(k), m.left_jump(k))
        res = v.add(res, _net(sides, lambda s: s.b.left_jump(k)))
        yield f"right_jump,instant={k}", res
        res = v.sub(y.interval_increment(k), v.mul(z[k], space.dw_rows[k]))
        res = v.add(res, v.smul(space.dt, g[k]))
        res = v.add(res, _net(sides, lambda s: s.a.interval_increment(k)))
        yield f"interval,k={k}", res
        yield f"orthogonal_interval,k={k}", m.interval_increment(k)

    tail = space.zero()  # running backward sum of the right-hand side minus Y_N
    for k in range(n, -1, -1):
        rhs = v.add(y.mid_rows[n], tail)
        rhs = v.add(rhs, _net(sides, lambda s: v.sub(s.a.mid_rows[n], s.a.mid_rows[k])))
        rhs = v.add(rhs, _net(sides, lambda s: v.sub(s.b.minus_rows[n], s.b.minus_rows[k])))
        rhs = v.sub(rhs, v.sub(m.minus_rows[n], m.minus_rows[k]))
        yield f"integrated,instant={k}", v.sub(y.mid_rows[k], rhs)
        if k > 0:
            step = v.sub(v.smul(space.dt, g[k - 1]), v.mul(z[k - 1], space.dw_rows[k - 1]))
            tail = v.add(tail, step)


def _gap(sign: int, y_slot, barrier_slot) -> list:
    """sign * (Y - barrier) on one slot row: negative where Y crosses the barrier."""
    return v.sub(y_slot, barrier_slot) if sign > 0 else v.sub(barrier_slot, y_slot)


def _domination_rows(y, side):
    x, n = side.barrier, y.n_steps
    for k in range(n + 1):
        for slot in ("mid", "minus", "plus") if k < n else ("mid", "minus"):
            gap = _gap(side.sign, getattr(y, f"{slot}_rows")[k], getattr(x, f"{slot}_rows")[k])
            yield f"{slot},instant={k}", v.neg_part(gap)


def _interval_rows(y, side):
    """Interval increments may act only when the interval touches the barrier.

    The open interval (t_k, t_{k+1}) is represented by its two limit slots
    (k,+) and (k+1,-); an increment is admissible if the solution sits on the
    barrier at either of them.
    """
    x = side.barrier
    for k in range(y.n_steps):
        gap_open = _gap(side.sign, y.plus_rows[k], x.plus_rows[k])
        gap_close = _gap(side.sign, y.minus_rows[k + 1], x.minus_rows[k + 1])
        yield f"interval,k={k}", v.scaled_min(side.a.interval_increment(k),
                                              gap_open, gap_close)


def _jump_rows(label, proc, y_slot, barrier_slot, sign):
    """The jump of ``proc`` at each instant may act only where Y sits on the
    barrier in the given slot: the minus slot for A, the mid slot for B."""
    for k, (yk, xk) in enumerate(zip(y_slot, barrier_slot)):
        yield f"{label},instant={k}", v.scaled_pos(proc.left_jump(k), _gap(sign, yk, xk))


def _jump_identity_rows(y, proj, s):
    """dA = (dY)^-, dA' = (dY)^+, dB = (pY+ - Y)^-, dB' = (pY+ - Y)^+."""
    n = y.n_steps
    for k in range(n + 1):
        dy = y.left_jump(k)
        yield f"dA,instant={k}", v.sub(s.a.left_jump(k), v.neg_part(dy))
        yield f"dA',instant={k}", v.sub(s.a_prime.left_jump(k), v.pos_part(dy))
        # no B jump at T
        gap = v.sub(proj.plus_rows[k], y.mid_rows[k]) if k < n else y.space.zero()
        yield f"dB,instant={k}", v.sub(s.b.left_jump(k), v.neg_part(gap))
        yield f"dB',instant={k}", v.sub(s.b_prime.left_jump(k), v.pos_part(gap))


def _pinch_rows(y, proj, xi, zeta):
    """Y = (pY+ v xi) ^ zeta at every instant and path."""
    for k in range(y.n_steps):
        pinched = v.clamp(proj.plus_rows[k], xi.mid_rows[k], zeta.mid_rows[k])
        yield f"pinch,instant={k}", v.sub(y.mid_rows[k], pinched)


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
    br = bracket(m, brownian_process(y.space))
    dev = _checker(y, tol)("[M, W]", enumerate(br.mid_rows)).max_residual
    if not dev <= tol:
        problems.append((dev, "[M, W] != 0"))
    worst_dev, where = (problems[v.worst_index([p for p, _ in problems])] if problems
                        else (0.0, None))
    return ConditionReport("component_classes", worst_dev <= tol, worst_dev, where)


def mutually_singular(p: LadlagProcess, q: LadlagProcess) -> bool:
    """Disjointness of increment supports over (cell, path) pairs.

    Cells are instant jumps and interval increments; the processes are
    mutually singular unless both move on the same path in the same cell.
    Stops at the first cell they share.
    """
    return not any(map(v.any_both_nonzero, _increments(p), _increments(q)))


def _increments(p: LadlagProcess):
    """Left jump at each instant and increment over each interval, in time order."""
    for k in range(p.n_steps + 1):
        yield p.left_jump(k)
        if k < p.n_steps:
            yield p.interval_increment(k)
