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
the independent oracle for the dynamic program.  ``verify.verify_rbsde_solution``
checks a quintuple against the one-barrier definition.
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
)


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
