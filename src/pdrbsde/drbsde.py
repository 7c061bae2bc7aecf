"""Doubly reflected solver: one backward Dynkin sweep, with Picard as its oracle.

Production path for a driver given as a process (no (y,z) dependence):
``solve_driver_process`` runs one backward sweep of the pinch rule
Y = (pY+ v xi) ^ zeta on the slot grid (Neveu's discrete Dynkin-game
recursion).  The sweep gives Y and Z; M, A, A', B and B' are read off Y,
each summed from the sweep's increment rows on first read.  The outer loop
for Lipschitz drivers calls it once per outer step.  The a-priori estimate
reads only Y, Z and M, and the outer loop only Y and Z, so neither sums a
reflector.

Oracle path (``--mode oracle``, ``--mode certificate`` and the tests), the
paper's construction, on one backward ``potential`` sweep:

1. ``shift_barriers``: subtract the plain predictable part
   X_k = E[xi_N + dt * sum_{j>=k} g_j | sigma_minus[k]] from both barriers;
   the shifted pair has terminal value zero, and X comes back with it.
2. ``picard_coupled``: monotone iteration from zero on the coupled system
   J = Pre[(Jbar + xi~) 1_{[0,T)}], Jbar = Pre[(J - zeta~) 1_{[0,T)}].
   Iterates are slotwise nondecreasing and, on a finite space, stabilize
   exactly in both arithmetic backends; the loop stops only there, so the
   pair it returns is a fixed point by construction.
3. ``assemble_solution``: Y = J - Jbar + X; the martingale part sums the
   Mertens martingales of J and Jbar themselves and X's martingale, then
   splits into (Z, M) by orthogonal decomposition; the raw reflectors from
   the two Mertens decompositions are replaced by their cellwise Jordan
   reduction, which preserves A - A' and B - B' and makes the increment
   supports disjoint.

Both paths give identical components in rational mode.
``verify.verify_drbsde_solution`` re-checks every clause of the solution
definition, the component classes included, and is the acceptance oracle for
either.
Inputs are checked where they enter: ``BarrierPair`` checks itself when it is
built.  The driver process is built on the atoms of sigma_mid by ``realize``,
``LinearDriver.freeze`` and ``perturb_driver``, and ``--mode verify`` checks a
dumped one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import values as v
from .config import SolverParams
from .prob_space import FilteredSpace, cond_expect
from .processes import (
    LadlagProcess,
    ProcessError,
    from_slots,
    is_predictable_strong_supermartingale,
    martingale_from_terminal,
    orthogonal_decompose,
    p_add,
    p_sub,
    rebased,
    running_sum,
    sup_distance,
    validate_process,
    zero_process,
)
from .snell import decompose, snell_envelope_slots

# Kept only because bench/tracing.py wraps the verifier by this module.
from .verify import verify_drbsde_solution  # noqa: F401


class DivergenceError(RuntimeError):
    """Picard iteration exceeded its cap or bound: no discrete certificate."""


@dataclass(frozen=True)
class BarrierPair:
    """Predictable admissible obstacles: xi <= zeta slotwise, equal at T.

    Checked once, when built: a pair that exists is admissible, and both
    barriers are predictable.
    """

    xi: LadlagProcess
    zeta: LadlagProcess

    def __post_init__(self) -> None:
        validate_process(self.xi, "predictable")
        validate_process(self.zeta, "predictable")
        n, n_paths = self.xi.n_steps, self.xi.space.n_paths
        for k in range(n + 1):
            for slot in ("mid", "minus", "plus") if k < n else ("mid", "minus"):
                i = v.first_above(getattr(self.xi, f"{slot}_rows")[k],
                                  getattr(self.zeta, f"{slot}_rows")[k], n_paths)
                if i is not None:
                    raise ProcessError(f"xi > zeta at {slot} slot, instant={k}, path={i}")
        if not v.eq(self.xi.mid_rows[n], self.zeta.mid_rows[n]):
            raise ProcessError("barriers must coincide at the terminal instant")


@dataclass
class PicardTrace:
    iterations: int = 0
    converged: bool = False
    deltas: list = field(default_factory=list)
    monotone_violations: int = 0


@dataclass(frozen=True)
class SolutionSeptuple:
    """The seven components, given, or summed from a sweep when first read.

    ``SolutionSeptuple(y=..., z=..., m=..., ...)`` holds the seven given.
    ``from_sweep`` holds Y, Z and the sweep's increment rows instead; each
    of M, A, A', B and B' is summed from them on first read and then kept,
    and each row is dropped once every component that reads it is summed.
    Equality reads all seven.
    """

    y: LadlagProcess             # predictable
    z: list                      # N rows, row k sigma_mid[k]-measurable
    m: LadlagProcess             # orthogonal martingale
    a: LadlagProcess             # lower reflection, right-continuous part
    b: LadlagProcess             # lower reflection, purely discontinuous part
    a_prime: LadlagProcess       # upper reflection, right-continuous part
    b_prime: LadlagProcess       # upper reflection, purely discontinuous part

    @classmethod
    def from_sweep(cls, y: LadlagProcess, z: list, m_jumps: list, drift: list,
                   gap: list) -> SolutionSeptuple:
        sol = cls.__new__(cls)
        sol.__dict__.update(y=y, z=z, _rows={"m_jumps": m_jumps, "drift": drift, "gap": gap})
        return sol

    def __getattr__(self, name: str):
        # Reached only for an attribute not set: a component not yet summed.
        rows = self.__dict__.get("_rows")
        if rows is None or name not in _ROW_OF:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        space, row = self.y.space, _ROW_OF[name]
        if name == "m":
            proc = running_sum(space, left=rows[row])
        elif name in ("b", "b_prime"):
            part = v.pos_part if name == "b" else v.neg_part
            proc = running_sum(space, left=list(map(part, rows[row])))
        else:
            jump, ivl = (v.neg_part, v.pos_part) if name == "a" else (v.pos_part, v.neg_part)
            left = [self.y.left_jump(k) for k in range(space.n_steps + 1)]
            proc = running_sum(space, left=list(map(jump, left)),
                               interval=list(map(ivl, rows[row])))
        self.__dict__[name] = proc
        if all(c in self.__dict__ for c, r in _ROW_OF.items() if r == row):
            del rows[row]
        return proc


# each component a sweep sums on first read -> the sweep row it sums (A and A'
# also take the left jumps of Y)
_ROW_OF = {"m": "m_jumps", "a": "drift", "a_prime": "drift", "b": "gap", "b_prime": "gap"}


# ---------------------------------------------------------------------------
# shifted barriers


def potential(space: FilteredSpace, terminal, g: list, a=None, b=None) -> LadlagProcess:
    """E[terminal + int_k^T g + (A_T - A_k) + (B_{T^-} - B_{k^-}) | F_{k^-}] on the slot grid.

    Without reflectors it is the plain part X: no left jumps (X_{k^-} = X_k),
    and its right jump at k is the mark revelation E[. | sigma_mid[k]] -
    E[. | sigma_minus[k]].  With them, the left limit adds A's left jump.
    """
    n, tails = space.n_steps, _tails(space, terminal, g)
    minus, mid, plus = [], [], []
    for k in range(n + 1):
        core = core_plus = tails[k]
        if a is not None:
            a_rest = v.sub(a.mid_rows[n], a.mid_rows[k])
            core = v.add(tails[k], v.add(a_rest, v.sub(b.minus_rows[n], b.minus_rows[k])))
            if k < n:
                core_plus = v.add(tails[k], v.add(a_rest, v.sub(b.minus_rows[n], b.mid_rows[k])))
        mid.append(cond_expect(space, core, space.sigma_minus[k]))
        minus.append(mid[k] if a is None or k == 0 else v.add(mid[k], a.left_jump(k)))
        if k < n:
            plus.append(cond_expect(space, core_plus, space.sigma_mid[k]))
    return from_slots(space, minus, mid, plus)


def _tails(space: FilteredSpace, terminal, g: list) -> list:
    """terminal + dt * sum_{j>=k} g_j for k = 0..N, summed backward."""
    dt, tails = space.dt, [terminal]
    for k in range(space.n_steps - 1, -1, -1):
        tails.append(v.add(tails[-1], v.smul(dt, g[k])))
    return tails[::-1]


def shift_barriers(barriers: BarrierPair, g: list) -> tuple[LadlagProcess, ...]:
    """(xi~, zeta~, X): the barriers less the plain part X, and X itself.

    Both shifted barriers vanish at the terminal instant: the terminal slot is
    pinned to exact zero (it is zero by construction, and the pin keeps float
    rounding on non-dyadic weights out of the iteration).
    """
    x = potential(barriers.xi.space, barriers.xi.mid_rows[-1], g)
    return _kill_terminal(p_sub(barriers.xi, x)), _kill_terminal(p_sub(barriers.zeta, x)), x


def _kill_terminal(proc: LadlagProcess) -> LadlagProcess:
    """Multiply by 1_{[0,T)}: force the terminal mid slot to zero.

    The left limit at T belongs to the strict past and is kept.
    """
    space, n = proc.space, proc.n_steps
    return from_slots(space, proc.minus_rows, [*proc.mid_rows[:n], space.zero()], proc.plus_rows)


# ---------------------------------------------------------------------------
# coupled Picard iteration


def picard_coupled(
    xi_t: LadlagProcess,
    zeta_t: LadlagProcess,
    max_iter: int | None = None,
    order: str = "jacobi",
    divergence_bound: float = SolverParams.divergence_bound,
) -> tuple[LadlagProcess, LadlagProcess, PicardTrace]:
    """Monotone iteration from zero for the coupled reflected system.

    Iterates to exact stabilization (delta == 0), reached in finitely many
    steps on a finite space in either backend, since the iterates are
    monotone and bounded (DivergenceError past ``max_iter``).  There the last
    iterate repeats its predecessor, so the returned pair solves the system
    exactly: J = Snell(kill(Jbar + xi~)), Jbar = Snell(kill(J - zeta~)).
    ``order`` is "jacobi" (both updates from the previous pair) or
    "gauss-seidel" (Jbar update sees the fresh J); both converge to the same
    minimal solution.
    """
    space, n = xi_t.space, xi_t.n_steps
    slack = space.slack
    if v.any_beyond(xi_t.mid_rows[n], slack) or v.any_beyond(zeta_t.mid_rows[n], slack):
        raise ProcessError("shifted barriers must vanish at the terminal instant")
    for k in range(n + 1):
        if v.any_above(xi_t.mid_rows[k], zeta_t.mid_rows[k], slack):
            raise ProcessError(f"shifted barriers out of order at instant {k}")
    if max_iter is None:
        max_iter = 10 * max(1, n) * space.n_paths
    j = zero_process(space)
    jbar = zero_process(space)
    trace = PicardTrace()
    for it in range(1, max_iter + 1):
        j_new = snell_envelope_slots(_kill_terminal(p_add(jbar, xi_t)))
        src = j_new if order == "gauss-seidel" else j
        jbar_new = snell_envelope_slots(_kill_terminal(p_sub(src, zeta_t)))
        delta = max(sup_distance(j_new, j), sup_distance(jbar_new, jbar))
        if _drops(j_new, j) or _drops(jbar_new, jbar):
            trace.monotone_violations += 1
        sup = max(float(_sup_norm(j_new)), float(_sup_norm(jbar_new)))
        trace.deltas.append(float(delta))
        trace.iterations = it
        j, jbar = j_new, jbar_new
        if sup > divergence_bound:
            raise DivergenceError(
                f"iterate sup-norm {sup:g} exceeded {divergence_bound:g} after {it} iterations"
            )
        if delta == 0:
            trace.converged = True
            return j, jbar, trace
    raise DivergenceError(
        f"no convergence within {max_iter} iterations (last delta {trace.deltas[-1]:g})"
    )


def _drops(new: LadlagProcess, old: LadlagProcess, tol=0) -> bool:
    """True iff some slot of ``new`` lies more than ``tol`` below ``old``."""
    return any(v.any_negative(v.sub(x, y), tol)
               for xs, ys in zip(new.slots, old.slots) for x, y in zip(xs, ys))


def _sup_norm(proc: LadlagProcess):
    return max(v.sup_abs(x) for x in proc.mid_rows)


# ---------------------------------------------------------------------------
# assembly


def assemble_solution(
    j: LadlagProcess,
    jbar: LadlagProcess,
    x: LadlagProcess,
    g: list,
    barriers: BarrierPair,
) -> SolutionSeptuple:
    """The full solution from the pair ``picard_coupled`` returned (each the
    envelope of its own barrier) and the plain part X ``shift_barriers`` took."""
    space, n = j.space, j.n_steps
    q_low, q_up = decompose(j), decompose(jbar)
    # the plain part's martingale E[xi_N + int_0^T g | F_t], from the k = 0 tail
    z_plain, m_orth_plain = orthogonal_decompose(
        rebased(martingale_from_terminal(space, _tails(space, barriers.xi.mid_rows[-1], g)[0])))
    z_total = [v.add(v.sub(q_low.z[k], q_up.z[k]), z_plain[k]) for k in range(n)]
    m_total = p_add(p_sub(q_low.m, q_up.m), m_orth_plain)
    y = p_add(p_sub(j, jbar), x)
    a, a_prime = _jordan_reduce(q_low.a, q_up.a)
    b, b_prime = _jordan_reduce(q_low.b, q_up.b)
    return SolutionSeptuple(y=y, z=z_total, m=m_total, a=a, b=b, a_prime=a_prime, b_prime=b_prime)


def _jordan_reduce(p: LadlagProcess, q: LadlagProcess):
    """Cellwise positive/negative parts of the increment difference.

    Preserves p - q while making the increment supports disjoint, which is
    exactly the mutual-singularity reduction.  On B processes the interval
    differences are exact zeros, so the interval rows add nothing.
    """
    n = p.n_steps
    jumps = [v.sub(p.left_jump(k), q.left_jump(k)) for k in range(n + 1)]
    ivls = [v.sub(p.interval_increment(k), q.interval_increment(k)) for k in range(n)]
    return (
        running_sum(p.space, left=[v.pos_part(d) for d in jumps],
                    interval=[v.pos_part(d) for d in ivls]),
        running_sum(p.space, left=[v.neg_part(d) for d in jumps],
                    interval=[v.neg_part(d) for d in ivls]),
    )


# ---------------------------------------------------------------------------
# the one-pass Dynkin recursion (production path)


def solve_driver_process(barriers: BarrierPair, g: list) -> SolutionSeptuple:
    """Y and Z from one backward sweep of the pinch rule, the rest on first read.

    With clamp(x, lo, hi) = min(max(x, lo), hi):

        Y_N     = xi_N,  Y_{N-} = clamp(Y_N, xi_{N-}, zeta_{N-})
        Y_{k+}  = clamp(E[Y_{(k+1)-} | sigma_mid[k]] + g_k dt, xi_{k+}, zeta_{k+})
        Y_k     = clamp(E[Y_{k+} | sigma_minus[k]], xi_k, zeta_k)
        Y_{k-}  = clamp(Y_k, xi_{k-}, zeta_{k-})          (Y_{0-} = Y_0)

    and the rest is read off Y (these are the identities the verifier's
    ``jump_identities`` clause checks):

        Z_k          = E[Y_{(k+1)-} dW_k | sigma_mid[k]] / dt
        dM_k         = Y_{k+} - E[Y_{k+} | sigma_minus[k]]   (instant jump only)
        dA_k, dA'_k  = negative, positive part of Y_k - Y_{k-}
        a_k, a'_k    = positive, negative part of
                       Y_{k+} - E[Y_{(k+1)-} | sigma_mid[k]] - g_k dt   (interval)
        dB_k, dB'_k  = positive, negative part of Y_k - E[Y_{k+} | sigma_minus[k]]

    The sweep gives Y and Z and keeps the increments of M, the interval drift
    and the instant gap; the returned ``SolutionSeptuple`` sums each of M, A,
    A', B and B' when it is first read.  The a-priori estimate reads only Y,
    Z and M, and the outer loop only Y and Z, so neither sums a reflector.

    The inputs are taken as checked: ``BarrierPair`` checks the barriers, and
    every driver process is built on the atoms of sigma_mid.  The outputs are
    not re-checked here: ``verify_drbsde_solution`` holds them to their
    classes.
    """
    xi, zeta = barriers.xi, barriers.zeta
    space, n = xi.space, xi.n_steps
    dt = space.dt
    inv_dt = 1 / dt
    zero = space.zero()
    y_minus, y_mid, y_plus = [None] * (n + 1), [None] * (n + 1), [None] * n
    z, drift = [None] * n, [None] * n
    m_jumps, gap = [None] * n + [zero], [None] * n + [zero]
    y_mid[n] = xi.mid_rows[n]
    y_minus[n] = v.clamp(y_mid[n], xi.minus_rows[n], zeta.minus_rows[n])
    for k in range(n - 1, -1, -1):
        nxt = y_minus[k + 1]
        cont = cond_expect(space, nxt, space.sigma_mid[k])
        z[k] = v.smul(inv_dt, cond_expect(space, v.mul(nxt, space.dw_rows[k]), space.sigma_mid[k]))
        free = v.add(cont, v.smul(dt, g[k]))
        y_plus[k] = v.clamp(free, xi.plus_rows[k], zeta.plus_rows[k])
        drift[k] = v.sub(y_plus[k], free)
        proj = cond_expect(space, y_plus[k], space.sigma_minus[k])
        m_jumps[k] = v.sub(y_plus[k], proj)
        y_mid[k] = v.clamp(proj, xi.mid_rows[k], zeta.mid_rows[k])
        gap[k] = v.sub(y_mid[k], proj)
        y_minus[k] = v.clamp(y_mid[k], xi.minus_rows[k], zeta.minus_rows[k])
    y_minus[0] = y_mid[0]

    return SolutionSeptuple.from_sweep(from_slots(space, y_minus, y_mid, y_plus), z,
                                       m_jumps, drift, gap)


# ---------------------------------------------------------------------------
# Mokobodzki certificates and minimality


def mokobodzki_certificate(
    barriers: BarrierPair,
    g: list,
    solution: SolutionSeptuple,
) -> tuple[LadlagProcess, LadlagProcess]:
    """Nonnegative predictable strong supermartingales with xi <= H - Hbar <= zeta.

    Built from the solved reflectors:
    H_k    = E[xi_T^+ + int_k^T g^+ + (A_T - A_k) + (B_{T^-} - B_{k^-}) | F_{k^-}]
    Hbar_k = E[xi_T^- + int_k^T g^- + (A'_T - A'_k) + (B'_{T^-} - B'_{k^-}) | F_{k^-}]
    so that H - Hbar = Y pointwise, from the ``solution`` of the problem.
    """
    space = barriers.xi.space
    xi_term = barriers.xi.mid_rows[-1]
    h = potential(space, v.pos_part(xi_term), [v.pos_part(gk) for gk in g],
                  solution.a, solution.b)
    hbar = potential(space, v.neg_part(xi_term), [v.neg_part(gk) for gk in g],
                     solution.a_prime, solution.b_prime)
    return h, hbar


def minimality_check(
    j: LadlagProcess,
    jbar: LadlagProcess,
    h: LadlagProcess,
    hbar: LadlagProcess,
    xi_t: LadlagProcess,
    zeta_t: LadlagProcess,
    tol: float | None = None,
) -> bool:
    """J <= H and Jbar <= Hbar slotwise, within ``tol`` (the float gate 1e-10
    by default), for any admissible dominating pair."""
    space = j.space
    tol = v.gate(space.mode, 1e-10) if tol is None else tol
    for proc, label in ((h, "H"), (hbar, "Hbar")):
        if not is_predictable_strong_supermartingale(proc):
            raise ProcessError(f"{label} is not a predictable strong supermartingale")
        if any(v.any_negative(row, tol) for row in proc.mid_rows):
            raise ProcessError(f"{label} is not nonnegative")
    diff = p_sub(h, hbar)
    for k in range(space.n_steps + 1):
        if v.any_exceeds(xi_t.mid_rows[k], diff.mid_rows[k], tol):
            raise ProcessError(f"H - Hbar below the lower shifted barrier at instant {k}")
        if v.any_exceeds(diff.mid_rows[k], zeta_t.mid_rows[k], tol):
            raise ProcessError(f"H - Hbar above the upper shifted barrier at instant {k}")
    return not (_drops(h, j, tol) or _drops(hbar, jbar, tol))
