"""One-barrier reflected problem with driver 0: the Pre operator.

Stopping happens on the slot grid.  Each instant t_k contributes up to three
stopping positions, ordered (k,-) < (k,mid) < (k,+), with decision
sigma-algebras sigma_minus[k], sigma_minus[k] and sigma_mid[k]: a stop "just
before t_k" or "at t_k" is announced on strictly-prior information, a stop
"just after t_k" may use the mark revealed at t_k.  Rewards are the barrier's
slots.  The value process conditioned on F_{t_k^-} then satisfies the backward
dynamic program

    Y_N      = xi_N
    Y_{k^+}  = xi_{k^+}  v  E[Y_{(k+1)^-} | sigma_mid[k]]
    Y_k      = xi_k      v  E[Y_{k^+}     | sigma_minus[k]]
    Y_{k^-}  = xi_{k^-}  v  Y_k

which makes Y_k = (pY^+_k v xi_k) by construction, and the Mertens parts read
off the slots: dB_k = Y_k - pY^+_k (right reflection, binds where Y = xi at
mid slots), dA_k = Y_{k^-} - Y_k (left jump, binds at minus slots), and the
interval increment a_k = Y_{k^+} - E[Y_{(k+1)^-}|sigma_mid[k]] (binds at the
plus slot opening the interval).

``snell_bruteforce`` enumerates every stopping rule on the slot grid and is
the independent oracle for the dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import values as v
from .prob_space import FilteredSpace, cond_expect
from .processes import (
    IntegrandProcess,
    LadlagProcess,
    ProcessError,
    from_slots,
    fv_from_increments,
    is_predictable_strong_supermartingale,
    orthogonal_decompose,
    pd_from_jumps,
    validate_process,
)
from .reports import ConditionReport, VerificationReport, condition_from_rows


class SnellEnumerationError(ValueError):
    """Space too large for honest stopping-rule enumeration."""


@dataclass(frozen=True)
class RbsdeQuintuple:
    """Solution of the one-barrier predictable reflected problem, driver 0."""

    y: LadlagProcess            # predictable
    z: IntegrandProcess
    m: LadlagProcess            # orthogonal martingale, [M, W] = 0
    a: LadlagProcess            # finite-variation-predictable
    b: LadlagProcess            # purely-discontinuous-predictable


# ---------------------------------------------------------------------------
# slot positions


def _positions(n: int) -> list[tuple[int, str]]:
    pos = []
    for k in range(n + 1):
        pos.append((k, "-"))
        pos.append((k, "m"))
        if k < n:
            pos.append((k, "+"))
    return pos


def _partition_at(space: FilteredSpace, pos: tuple[int, str]):
    k, slot = pos
    return space.sigma_mid[k] if slot == "+" else space.sigma_minus[k]


def _reward_at(barrier: LadlagProcess, pos: tuple[int, str]):
    k, slot = pos
    if slot == "-":
        return barrier.minus[k]
    if slot == "m":
        return barrier.mid[k]
    return barrier.plus[k]


# ---------------------------------------------------------------------------
# the backward dynamic program


def snell_envelope_slots(barrier: LadlagProcess) -> LadlagProcess:
    """All slots of the smallest predictable strong supermartingale >= barrier."""
    space, n = barrier.space, barrier.n_steps
    mid: list = [None] * (n + 1)
    minus: list = [None] * (n + 1)
    plus: list = [None] * n
    mid[n] = list(barrier.mid[n])
    minus[n] = v.vmax(barrier.minus[n], mid[n])
    for k in range(n - 1, -1, -1):
        cont = cond_expect(space, minus[k + 1], space.sigma_mid[k])
        plus[k] = v.vmax(barrier.plus[k], cont)
        proj = cond_expect(space, plus[k], space.sigma_minus[k])
        mid[k] = v.vmax(barrier.mid[k], proj)
        minus[k] = v.vmax(barrier.minus[k], mid[k])
    minus[0] = list(mid[0])  # no time before 0
    return from_slots(space, minus, mid, plus, kind="predictable")


def pre_operator(barrier: LadlagProcess) -> RbsdeQuintuple:
    """Solve the one-barrier problem with driver 0 for a predictable barrier.

    Component extraction order: Mertens first (N, A, B), then the orthogonal
    decomposition of N into (Z, M).  The quintuple satisfies
    Y_k = xi_N - sum_{j>=k} Z_j dW_j - (M_{N^-} - M_{k^-}) + A_N - A_k
    + B_{N^-} - B_{k^-} with zero residual, together with both Skorokhod
    conditions.  The barrier is not checked here (``validate_process`` does).
    """
    y = snell_envelope_slots(barrier)
    n_mart, a, b = mertens_decompose(y)
    base = n_mart.minus[0]
    shifted = from_slots(
        y.space,
        [v.sub(n_mart.minus[k], base) for k in range(y.n_steps + 1)],
        [v.sub(n_mart.mid[k], base) for k in range(y.n_steps + 1)],
        [v.sub(n_mart.plus[k], base) for k in range(y.n_steps)],
        kind="cadlag-martingale",
    )
    z, m = orthogonal_decompose(shifted)
    return RbsdeQuintuple(y=y, z=z, m=m, a=a, b=b)


# ---------------------------------------------------------------------------
# Mertens decomposition


def mertens_decompose(
    vproc: LadlagProcess,
) -> tuple[LadlagProcess, LadlagProcess, LadlagProcess]:
    """V = N_{.^-} - A - B_{.^-} for a predictable strong supermartingale V.

    Slot reading: V_k = N_{k^-} - A_k - B_{k^-}; the left limits satisfy
    V_{k^-} = N_{k^-} - A_{k^-} - B_{k^-} and the right limits
    V_{k^+} = N_k - A_k - B_k.  The parts are read off the slots, so the
    decomposition is unique and re-decomposing returns identical components.
    """
    space, n = vproc.space, vproc.n_steps
    if not is_predictable_strong_supermartingale(vproc):
        raise ProcessError("input is not a predictable strong supermartingale")

    zero = space.zero()
    jump_a = [vproc.left_jump(k) for k in range(n + 1)]
    jump_a = [v.smul(-1, j) for j in jump_a]              # dA_k = V_{k^-} - V_k
    jump_b = [
        v.sub(vproc.mid[k], cond_expect(space, vproc.plus[k], space.sigma_minus[k]))
        for k in range(n)
    ] + [list(zero)]                                      # dB_k = V_k - pV^+_k
    ivl_a = [
        v.sub(vproc.plus[k], cond_expect(space, vproc.minus[k + 1], space.sigma_mid[k]))
        for k in range(n)
    ]

    a = fv_from_increments(space, jump_a, ivl_a)
    b = pd_from_jumps(space, jump_b)

    n_minus, n_mid, n_plus = [], [], []
    for k in range(n + 1):
        nm = v.add(v.add(vproc.mid[k], a.mid[k]), b.minus[k])
        n_minus.append(nm)
        dn = v.add(vproc.right_jump(k), jump_b[k]) if k < n else list(zero)
        n_mid.append(v.add(nm, dn))
        if k < n:
            n_plus.append(list(n_mid[k]))
    nart = from_slots(space, n_minus, n_mid, n_plus, kind="cadlag-martingale")
    return nart, a, b


# ---------------------------------------------------------------------------
# stopping-rule enumeration (the independent oracle)


def stopping_rule_count(space: FilteredSpace) -> int:
    """Number of slot-grid predictable stopping rules from time zero."""
    counts = _rule_counts(space)
    pos0 = _positions(space.n_steps)[0]
    root = _partition_at(space, pos0)[0]
    return counts[(0, root)]


def _rule_counts(space: FilteredSpace) -> dict:
    positions = _positions(space.n_steps)
    counts: dict = {}
    for p in range(len(positions) - 1, -1, -1):
        part = _partition_at(space, positions[p])
        for atom in part:
            if p == len(positions) - 1:
                counts[(p, atom)] = 1
            else:
                total = 1
                for child in _children(space, positions, p, atom):
                    total *= counts[(p + 1, child)]
                counts[(p, atom)] = 1 + total
    return counts


def _children(space, positions, p, atom):
    nxt = _partition_at(space, positions[p + 1])
    aset = set(atom)
    return [c for c in nxt if c[0] in aset]


def check_enumerable(space: FilteredSpace) -> None:
    """Raise SnellEnumerationError unless ``snell_bruteforce`` fits its caps:
    at most 64 paths and 2,000,000 rule evaluations."""
    if space.n_paths > 64:
        raise SnellEnumerationError(f"space has {space.n_paths} paths, oracle caps at 64")
    work = sum(_rule_counts(space).values())
    if work > 2_000_000:
        raise SnellEnumerationError(f"enumeration needs {work} rule evaluations, cap 2000000")


def snell_bruteforce(barrier: LadlagProcess) -> LadlagProcess:
    """Value process by exhaustive enumeration of slot-grid stopping rules.

    For each start position and each atom of its decision partition, the
    value is the maximum over every stopping rule tau on the subtree of
    E[barrier_tau | atom].  Rules are enumerated as cartesian combinations of
    per-atom choices; each rule contributes the exact weighted reward sum, so
    no dynamic-programming shortcut is involved.
    """
    space, n = barrier.space, barrier.n_steps
    check_enumerable(space)

    positions = _positions(n)
    contribs: dict = {}
    for p in range(len(positions) - 1, -1, -1):
        pos = positions[p]
        part = _partition_at(space, pos)
        reward = _reward_at(barrier, pos)
        for atom in part:
            stop = sum(space.weights[i] * reward[i] for i in atom)
            if p == len(positions) - 1:
                contribs[(p, atom)] = [stop]
                continue
            sums = [0 if space.mode == "float" else Fraction(0)]
            for child in _children(space, positions, p, atom):
                child_contribs = contribs[(p + 1, child)]
                sums = [s + c for s in sums for c in child_contribs]
            contribs[(p, atom)] = [stop] + sums

    def value(p: int, atom) -> object:
        w = sum(space.weights[i] for i in atom)
        return max(contribs[(p, atom)]) / w

    minus: list = [None] * (n + 1)
    mid: list = [None] * (n + 1)
    plus: list = [None] * n
    for p, pos in enumerate(positions):
        k, slot = pos
        out = space.zero()
        for atom in _partition_at(space, pos):
            val = value(p, atom)
            for i in atom:
                out[i] = val
        if slot == "-":
            minus[k] = out
        elif slot == "m":
            mid[k] = out
        else:
            plus[k] = out
    minus[0] = list(mid[0])
    return from_slots(space, minus, mid, plus, kind="predictable")


# ---------------------------------------------------------------------------
# verification


def verify_rbsde_solution(
    barrier: LadlagProcess, q: RbsdeQuintuple, tol: float | None = None
) -> VerificationReport:
    """Check every clause of the one-barrier definition, reporting residuals."""
    space, n = barrier.space, barrier.n_steps
    if tol is None:
        tol = 0.0 if space.mode == "rational" else 1e-10
    y, z, m, a, b = q.y, q.z, q.m, q.a, q.b
    conds: list[ConditionReport] = []

    conds.append(condition_from_rows(
        "terminal_value", [(f"instant={n}", v.sub(y.mid[n], barrier.mid[n]))], tol))

    conds.append(_equation_condition(space, y, z, m, a, b, g=None, tol=tol))
    conds.append(_domination_condition("barrier_domination", y, barrier, lower=True, tol=tol))

    conds.append(_skorokhod_interval("skorokhod_interval_A", a, y, barrier, lower=True, tol=tol))
    conds.append(_skorokhod_jump("skorokhod_jump_A", "jump_A", a, y.minus, barrier.minus,
                                 lower=True, tol=tol))
    conds.append(_skorokhod_jump("skorokhod_jump_B", "jump_B", b, y.mid, barrier.mid,
                                 lower=True, tol=tol))

    conds.append(_class_condition(space, y, z, m, a, b, tol))
    return VerificationReport(conditions=tuple(conds))


def _equation_condition(space, y, z, m, a, b, g, tol, a2=None, b2=None) -> ConditionReport:
    """Slot-by-slot balance of the backward equation.

    Left jumps:  dY_k + dA_k - dA'_k = 0.
    Right jumps: d+Y_k - dM_k + dB_k - dB'_k = 0.
    Intervals:   Y_{(k+1)^-} - Y_{k^+} - Z_k dW_k + g_k dt + a_k - a'_k = 0,
    and the orthogonal part must carry no interval variation.  The integrated
    form at every instant,
    Y_k = Y_N + sum_{j>=k} g_j dt - sum_{j>=k} Z_j dW_j - (M_{N^-} - M_{k^-})
          + (A_N - A_k) - (A'_N - A'_k) + (B_{N^-} - B_{k^-})
          - (B'_{N^-} - B'_{k^-}),
    is checked as well.
    """
    n = space.n_steps
    rows: list[tuple[str, list]] = []
    zero = space.zero()
    for k in range(n + 1):
        da = a.left_jump(k)
        da2 = a2.left_jump(k) if a2 is not None else zero
        rows.append((f"left_jump,instant={k}", v.add(y.left_jump(k), v.sub(da, da2))))
    for k in range(n):
        db = b.left_jump(k)
        db2 = b2.left_jump(k) if b2 is not None else zero
        res = v.add(v.sub(y.right_jump(k), m.left_jump(k)), v.sub(db, db2))
        rows.append((f"right_jump,instant={k}", res))
        zdw = v.mul(z.z[k], space.dw[k])
        gdt = v.smul(space.dt, g[k]) if g is not None else zero
        res = v.sub(y.interval_increment(k), zdw)
        res = v.add(res, gdt)
        res = v.add(res, v.sub(a.interval_increment(k),
                               a2.interval_increment(k) if a2 is not None else zero))
        rows.append((f"interval,k={k}", res))
        rows.append((f"orthogonal_interval,k={k}", m.interval_increment(k)))

    tail = list(zero)  # running backward sum of the right-hand side minus Y_N
    for k in range(n, -1, -1):
        rhs = v.add(y.mid[n], tail)
        rhs = v.add(rhs, v.sub(v.sub(a.mid[n], a.mid[k]),
                               v.sub(a2.mid[n], a2.mid[k]) if a2 is not None else zero))
        rhs = v.add(rhs, v.sub(v.sub(b.minus[n], b.minus[k]),
                               v.sub(b2.minus[n], b2.minus[k]) if b2 is not None else zero))
        rhs = v.sub(rhs, v.sub(m.minus[n], m.minus[k]))
        rows.append((f"integrated,instant={k}", v.sub(y.mid[k], rhs)))
        if k > 0:
            step = v.smul(space.dt, g[k - 1]) if g is not None else zero
            step = v.sub(step, v.mul(z.z[k - 1], space.dw[k - 1]))
            tail = v.add(tail, step)
    return condition_from_rows("equation_residual", rows, tol)


def _domination_condition(name, y, barrier, lower: bool, tol) -> ConditionReport:
    n = y.n_steps
    rows: list[tuple[str, list]] = []
    sgn = 1 if lower else -1
    for k in range(n + 1):
        gap = v.smul(sgn, v.sub(y.mid[k], barrier.mid[k]))
        rows.append((f"mid,instant={k}", v.neg_part(gap)))
        gap = v.smul(sgn, v.sub(y.minus[k], barrier.minus[k]))
        rows.append((f"minus,instant={k}", v.neg_part(gap)))
        if k < n:
            gap = v.smul(sgn, v.sub(y.plus[k], barrier.plus[k]))
            rows.append((f"plus,instant={k}", v.neg_part(gap)))
    return condition_from_rows(name, rows, tol)


def _skorokhod_interval(name, a, y, barrier, lower: bool, tol) -> ConditionReport:
    """Interval increments may act only when the interval touches the barrier.

    The open interval (t_k, t_{k+1}) is represented by its two limit slots
    (k,+) and (k+1,-); an increment is admissible if the solution sits on the
    barrier at either of them.
    """
    n = y.n_steps
    sgn = 1 if lower else -1
    rows: list[tuple[str, list]] = []
    for k in range(n):
        gap_open = v.smul(sgn, v.sub(y.plus[k], barrier.plus[k]))
        gap_close = v.smul(sgn, v.sub(y.minus[k + 1], barrier.minus[k + 1]))
        rows.append((f"interval,k={k}", [
            d * min(max(o, 0), max(c, 0))
            for d, o, c in zip(a.interval_increment(k), gap_open, gap_close)
        ]))
    return condition_from_rows(name, rows, tol)


def _skorokhod_jump(name, label, proc, y_slot, barrier_slot, lower: bool, tol) -> ConditionReport:
    """The jump of ``proc`` at each instant may act only where Y sits on the
    barrier in the given slot: the minus slot for A, the mid slot for B."""
    sgn = 1 if lower else -1
    rows: list[tuple[str, list]] = []
    for k, (yk, bk) in enumerate(zip(y_slot, barrier_slot)):
        gap = v.smul(sgn, v.sub(yk, bk))
        rows.append((f"{label},instant={k}",
                     [d * max(x, 0) for d, x in zip(proc.left_jump(k), gap)]))
    return condition_from_rows(name, rows, tol)


def _class_condition(space, y, z, m, a, b, tol, a2=None, b2=None) -> ConditionReport:
    from .processes import bracket, brownian_process, validate_integrand

    problems: list[tuple[float, str]] = []
    for proc, kind, label in (
        (y, "predictable", "Y"),
        (m, "cadlag-martingale", "M"),
        (a, "finite-variation-predictable", "A"),
        (b, "purely-discontinuous-predictable", "B"),
        (a2, "finite-variation-predictable", "A'"),
        (b2, "purely-discontinuous-predictable", "B'"),
    ):
        if proc is None:
            continue
        try:
            validate_process(proc.with_kind(kind) if proc.kind != kind else proc)
        except ProcessError as exc:
            problems.append((1.0, f"{label}: {exc}"))
    try:
        validate_integrand(z)
    except ProcessError as exc:
        problems.append((1.0, f"Z: {exc}"))
    if a2 is None and b2 is None:
        # One-barrier case: the value process is itself a predictable strong
        # supermartingale (only downward reflection is present).
        if not is_predictable_strong_supermartingale(y):
            problems.append((1.0, "Y is not a predictable strong supermartingale"))
    br = bracket(m, brownian_process(space))
    dev = max(
        (abs(float(x)) for k in range(space.n_steps + 1) for x in br.mid[k]), default=0.0
    )
    if dev > tol:
        problems.append((dev, "[M, W] != 0"))
    worst, where = max(problems, key=lambda p: p[0], default=(0.0, None))
    return ConditionReport("component_classes", worst <= tol, worst, where)
