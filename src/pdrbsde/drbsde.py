"""Doubly reflected solver: one backward Dynkin sweep, with Picard as its oracle.

Production path for a driver given as a process (no (y,z) dependence):
``dynkin_recursion`` runs one backward sweep of the pinch rule
Y = (pY+ v xi) ^ zeta on the slot grid (Neveu's discrete Dynkin-game
recursion) and reads the other six components off Y.  ``solve_driver_process``
runs it, and the outer loop for Lipschitz drivers calls it once per outer
step.

Oracle path (``--mode oracle``, ``--mode certificate`` and the tests), the
paper's construction:

1. ``shift_barriers``: subtract the plain predictable part
   X_k = E[xi_N + dt * sum_{j>=k} g_j | sigma_minus[k]] from both barriers;
   the shifted pair has terminal value zero.
2. ``picard_coupled``: monotone iteration from zero on the coupled system
   J = Pre[(Jbar + xi~) 1_{[0,T)}], Jbar = Pre[(J - zeta~) 1_{[0,T)}].
   Iterates are slotwise nondecreasing and, on a finite space, stabilize
   exactly in both arithmetic backends.
3. ``assemble_solution``: Y = J - Jbar + X; the martingale part sums the two
   Mertens martingales and the plain part's martingale, then splits into
   (Z, M) by orthogonal decomposition; the raw reflectors from the two
   Mertens decompositions are replaced by their cellwise Jordan reduction,
   which preserves A - A' and B - B' and makes the increment supports
   disjoint.

Both paths give identical components in rational mode.
``verify.verify_drbsde_solution`` re-checks every clause of the solution
definition, the component classes included, and is the acceptance oracle for
either.
Inputs are checked where they enter: ``BarrierPair`` checks itself when it is
built, and ``solve_driver_process`` checks the driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    martingale_from_terminal,
    orthogonal_decompose,
    p_add,
    p_sub,
    pd_from_jumps,
    sup_distance,
    validate_process,
)
from .snell import pre_operator, snell_envelope_slots

# Kept only because bench/tracing.py wraps the verifier by this module.
from .verify import verify_drbsde_solution  # noqa: F401


class DivergenceError(RuntimeError):
    """Picard iteration exceeded its cap or bound: no discrete certificate."""


class NotAFixedPointError(ValueError):
    """assemble_solution was handed iterates that do not solve the system."""


@dataclass(frozen=True)
class BarrierPair:
    """Predictable admissible obstacles: xi <= zeta slotwise, equal at T.

    Checked once, when built: a pair that exists is admissible.
    """

    xi: LadlagProcess
    zeta: LadlagProcess

    def __post_init__(self) -> None:
        validate_process(self.xi)
        validate_process(self.zeta)
        n = self.xi.n_steps
        for k in range(n + 1):
            for slot in ("mid", "minus", "plus") if k < n else ("mid", "minus"):
                lower, upper = getattr(self.xi, slot)[k], getattr(self.zeta, slot)[k]
                i = next((i for i, (a, b) in enumerate(zip(lower, upper)) if a > b), None)
                if i is not None:
                    raise ProcessError(f"xi > zeta at {slot} slot, instant={k}, path={i}")
        if self.xi.mid[n] != self.zeta.mid[n]:
            raise ProcessError("barriers must coincide at the terminal instant")


@dataclass
class PicardTrace:
    iterations: int = 0
    converged: bool = False
    deltas: list = field(default_factory=list)
    sup_norms: list = field(default_factory=list)
    monotone_violations: int = 0
    fixed_point_residual: float = 0.0
    order: str = "jacobi"


@dataclass(frozen=True)
class SolutionSeptuple:
    y: LadlagProcess             # predictable
    z: IntegrandProcess
    m: LadlagProcess             # orthogonal martingale
    a: LadlagProcess             # lower reflection, right-continuous part
    b: LadlagProcess             # lower reflection, purely discontinuous part
    a_prime: LadlagProcess       # upper reflection, right-continuous part
    b_prime: LadlagProcess       # upper reflection, purely discontinuous part


# ---------------------------------------------------------------------------
# driver processes


def validate_driver_process(space: FilteredSpace, g: list) -> None:
    from .prob_space import is_measurable

    if len(g) != space.n_steps:
        raise ProcessError("driver process needs one value sequence per interval")
    for k in range(space.n_steps):
        if not is_measurable(space, g[k], space.sigma_mid[k]):
            raise ProcessError(f"g[{k}] not sigma_mid[{k}]-measurable")


# ---------------------------------------------------------------------------
# shifted barriers


def plain_part(space: FilteredSpace, terminal, g: list) -> LadlagProcess:
    """X_t = E[terminal + int_t^T g ds | F_{t^-}] on the slot grid.

    X has no left jumps (X_{k^-} = X_k); its right jump at k is the mark
    revelation E[. | sigma_mid[k]] - E[. | sigma_minus[k]].
    """
    n = space.n_steps
    dt = space.dt
    mid, minus, plus = [], [], []
    tail = list(terminal)  # terminal + dt * sum_{j>=k} g_j, built backward
    stacks = [None] * (n + 1)
    stacks[n] = list(tail)
    for k in range(n - 1, -1, -1):
        tail = v.add(tail, v.smul(dt, g[k]))
        stacks[k] = list(tail)
    for k in range(n + 1):
        e_minus = cond_expect(space, stacks[k], space.sigma_minus[k])
        mid.append(e_minus)
        minus.append(list(e_minus))
        if k < n:
            plus.append(cond_expect(space, stacks[k], space.sigma_mid[k]))
    return from_slots(space, minus, mid, plus, kind="predictable")


def shift_barriers(barriers: BarrierPair, g: list) -> tuple[LadlagProcess, LadlagProcess]:
    """Subtract the plain part; both shifted barriers vanish at the terminal instant.

    The terminal slot is zero by construction (the terminal value is its own
    conditional expectation); it is pinned to exact zero so float rounding on
    non-dyadic weights cannot leak into the iteration.
    """
    space = barriers.xi.space
    x = plain_part(space, barriers.xi.mid[-1], g)
    xi_t = p_sub(barriers.xi, x, kind="predictable")
    zeta_t = p_sub(barriers.zeta, x, kind="predictable")
    for shifted in (xi_t, zeta_t):
        zero = space.zero()
        for i in range(space.n_paths):
            shifted.mid[-1][i] = zero[i]
    return xi_t, zeta_t


def _kill_terminal(proc: LadlagProcess) -> LadlagProcess:
    """Multiply by 1_{[0,T)}: force the terminal mid slot to zero.

    The left limit at T belongs to the strict past and is kept.
    """
    space, n = proc.space, proc.n_steps
    mid = [list(proc.mid[k]) for k in range(n + 1)]
    mid[n] = space.zero()
    return from_slots(space, proc.minus, mid, proc.plus, kind="predictable")


# ---------------------------------------------------------------------------
# coupled Picard iteration


def picard_coupled(
    xi_t: LadlagProcess,
    zeta_t: LadlagProcess,
    tol: float = 0.0,
    max_iter: int | None = None,
    order: str = "jacobi",
    divergence_bound: float = 1e9,
) -> tuple[LadlagProcess, LadlagProcess, PicardTrace]:
    """Monotone iteration from zero for the coupled reflected system.

    ``tol = 0`` iterates to exact stabilization (reached in finitely many
    steps on a finite space in either backend, since the iterates are
    monotone and bounded).  ``order`` is "jacobi" (both updates from the
    previous pair) or "gauss-seidel" (Jbar update sees the fresh J); both
    converge to the same minimal solution.
    """
    space, n = xi_t.space, xi_t.n_steps
    slack = 0 if space.mode == "rational" else 1e-12
    if any(abs(x) > slack for x in xi_t.mid[n]) or any(abs(x) > slack for x in zeta_t.mid[n]):
        raise ProcessError("shifted barriers must vanish at the terminal instant")
    for k in range(n + 1):
        if any(a > b + slack for a, b in zip(xi_t.mid[k], zeta_t.mid[k])):
            raise ProcessError(f"shifted barriers out of order at instant {k}")
    if max_iter is None:
        max_iter = 10 * max(1, n) * space.n_paths
    from .processes import zero_process

    j = zero_process(space, kind="predictable")
    jbar = zero_process(space, kind="predictable")
    trace = PicardTrace(order=order)
    for it in range(1, max_iter + 1):
        j_new = snell_envelope_slots(_kill_terminal(p_add(jbar, xi_t, kind="predictable")))
        src = j_new if order == "gauss-seidel" else j
        jbar_new = snell_envelope_slots(_kill_terminal(p_sub(src, zeta_t, kind="predictable")))
        delta = max(sup_distance(j_new, j), sup_distance(jbar_new, jbar))
        if _min_slot_gap(j_new, j) < 0 or _min_slot_gap(jbar_new, jbar) < 0:
            trace.monotone_violations += 1
        sup = max(float(_sup_norm(j_new)), float(_sup_norm(jbar_new)))
        trace.deltas.append(float(delta))
        trace.sup_norms.append(sup)
        trace.iterations = it
        j, jbar = j_new, jbar_new
        if sup > divergence_bound:
            raise DivergenceError(
                f"iterate sup-norm {sup:g} exceeded {divergence_bound:g} after {it} iterations"
            )
        if delta <= tol:
            trace.converged = True
            break
    if not trace.converged:
        raise DivergenceError(
            f"no convergence within {max_iter} iterations (last delta {trace.deltas[-1]:g})"
        )
    trace.fixed_point_residual = float(fixed_point_residual(j, jbar, xi_t, zeta_t))
    return j, jbar, trace


def fixed_point_residual(j, jbar, xi_t, zeta_t):
    r1 = sup_distance(j, snell_envelope_slots(_kill_terminal(p_add(jbar, xi_t, kind="predictable"))))
    r2 = sup_distance(jbar, snell_envelope_slots(_kill_terminal(p_sub(j, zeta_t, kind="predictable"))))
    return max(r1, r2)


def _min_slot_gap(new: LadlagProcess, old: LadlagProcess):
    n = new.n_steps
    gaps = []
    for k in range(n + 1):
        gaps += v.sub(new.mid[k], old.mid[k])
        gaps += v.sub(new.minus[k], old.minus[k])
        if k < n:
            gaps += v.sub(new.plus[k], old.plus[k])
    return min(gaps)


def _sup_norm(proc: LadlagProcess):
    n = proc.n_steps
    m = max(v.sup_abs(proc.mid[k]) for k in range(n + 1))
    return m


# ---------------------------------------------------------------------------
# assembly


def assemble_solution(
    j: LadlagProcess,
    jbar: LadlagProcess,
    g: list,
    barriers: BarrierPair,
) -> SolutionSeptuple:
    """Build the full solution from a converged pair (J, Jbar)."""
    space = j.space
    tol = 0.0 if space.mode == "rational" else 1e-9
    xi_t, zeta_t = shift_barriers(barriers, g)
    resid = fixed_point_residual(j, jbar, xi_t, zeta_t)
    if resid > tol:
        raise NotAFixedPointError(f"fixed-point residual {float(resid):g} above {tol:g}")

    q_low = pre_operator(_kill_terminal(p_add(jbar, xi_t, kind="predictable")))
    q_up = pre_operator(_kill_terminal(p_sub(j, zeta_t, kind="predictable")))

    x = plain_part(space, barriers.xi.mid[-1], g)
    n = space.n_steps
    dt = space.dt
    s0 = list(barriers.xi.mid[-1])
    for k in range(n):
        s0 = v.add(s0, v.smul(dt, g[k]))
    m_plain = martingale_from_terminal(space, s0)
    base = m_plain.minus[0]
    m_plain = from_slots(
        space,
        [v.sub(m_plain.minus[k], base) for k in range(n + 1)],
        [v.sub(m_plain.mid[k], base) for k in range(n + 1)],
        [v.sub(m_plain.plus[k], base) for k in range(n)],
        kind="cadlag-martingale",
    )
    z_plain, m_orth_plain = orthogonal_decompose(m_plain)

    z_total = IntegrandProcess(
        space=space,
        z=tuple(
            v.add(v.sub(q_low.z.z[k], q_up.z.z[k]), z_plain.z[k]) for k in range(n)
        ),
    )
    m_total = p_add(p_sub(q_low.m, q_up.m, kind="cadlag-martingale"), m_orth_plain,
                    kind="cadlag-martingale")

    y = p_add(p_sub(j, jbar, kind="predictable"), x, kind="predictable")

    a, a_prime = _jordan_reduce_fv(q_low.a, q_up.a)
    b, b_prime = _jordan_reduce_pd(q_low.b, q_up.b)
    return SolutionSeptuple(y=y, z=z_total, m=m_total, a=a, b=b, a_prime=a_prime, b_prime=b_prime)


def _jordan_reduce_fv(a_raw: LadlagProcess, a2_raw: LadlagProcess):
    """Cellwise positive/negative parts of the increment difference.

    Preserves A - A' while making the increment supports disjoint, which is
    exactly the mutual-singularity reduction.
    """
    space, n = a_raw.space, a_raw.n_steps
    jumps, jumps2, ivls, ivls2 = [], [], [], []
    for k in range(n + 1):
        d = v.sub(a_raw.left_jump(k), a2_raw.left_jump(k))
        jumps.append(v.pos_part(d))
        jumps2.append(v.neg_part(d))
    for k in range(n):
        d = v.sub(a_raw.interval_increment(k), a2_raw.interval_increment(k))
        ivls.append(v.pos_part(d))
        ivls2.append(v.neg_part(d))
    return (
        fv_from_increments(space, jumps, ivls),
        fv_from_increments(space, jumps2, ivls2),
    )


def _jordan_reduce_pd(b_raw: LadlagProcess, b2_raw: LadlagProcess):
    space, n = b_raw.space, b_raw.n_steps
    jumps, jumps2 = [], []
    for k in range(n + 1):
        d = v.sub(b_raw.left_jump(k), b2_raw.left_jump(k))
        jumps.append(v.pos_part(d))
        jumps2.append(v.neg_part(d))
    return (
        pd_from_jumps(space, jumps),
        pd_from_jumps(space, jumps2),
    )


# ---------------------------------------------------------------------------
# the one-pass Dynkin recursion (production path)


def _clamp(xs, lo, hi) -> list:
    return v.vmin(v.vmax(xs, lo), hi)


def dynkin_recursion(barriers: BarrierPair, g: list) -> SolutionSeptuple:
    """All seven components from one backward sweep of the pinch rule.

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

    The inputs are taken as checked (``BarrierPair`` and
    ``solve_driver_process`` do that).  The outputs are not re-checked here:
    ``verify_drbsde_solution`` holds them to their classes.
    """
    xi, zeta = barriers.xi, barriers.zeta
    space, n = xi.space, xi.n_steps
    dt = space.dt
    inv_dt = 1 / dt
    zero = space.zero()
    y_minus, y_mid, y_plus = [None] * (n + 1), [None] * (n + 1), [None] * n
    z, drift = [None] * n, [None] * n
    m_jumps, gap = [None] * n + [zero], [None] * n + [zero]
    y_mid[n] = list(xi.mid[n])
    y_minus[n] = _clamp(y_mid[n], xi.minus[n], zeta.minus[n])
    for k in range(n - 1, -1, -1):
        nxt = y_minus[k + 1]
        cont = cond_expect(space, nxt, space.sigma_mid[k])
        z[k] = v.smul(inv_dt, cond_expect(space, v.mul(nxt, space.dw[k]), space.sigma_mid[k]))
        free = v.add(cont, v.smul(dt, g[k]))
        y_plus[k] = _clamp(free, xi.plus[k], zeta.plus[k])
        drift[k] = v.sub(y_plus[k], free)
        proj = cond_expect(space, y_plus[k], space.sigma_minus[k])
        m_jumps[k] = v.sub(y_plus[k], proj)
        y_mid[k] = _clamp(proj, xi.mid[k], zeta.mid[k])
        gap[k] = v.sub(y_mid[k], proj)
        y_minus[k] = _clamp(y_mid[k], xi.minus[k], zeta.minus[k])
    y_minus[0] = list(y_mid[0])

    left = [v.sub(y_mid[k], y_minus[k]) for k in range(n + 1)]
    return SolutionSeptuple(
        y=from_slots(space, y_minus, y_mid, y_plus, kind="predictable"),
        z=IntegrandProcess(space=space, z=tuple(z)),
        m=pd_from_jumps(space, m_jumps, kind="cadlag-martingale"),
        a=fv_from_increments(space, [v.neg_part(d) for d in left],
                             [v.pos_part(d) for d in drift]),
        b=pd_from_jumps(space, [v.pos_part(d) for d in gap]),
        a_prime=fv_from_increments(space, [v.pos_part(d) for d in left],
                                   [v.neg_part(d) for d in drift]),
        b_prime=pd_from_jumps(space, [v.neg_part(d) for d in gap]),
    )


def solve_driver_process(barriers: BarrierPair, g: list) -> SolutionSeptuple:
    """Check the driver process and solve with ``dynkin_recursion``."""
    validate_driver_process(barriers.xi.space, g)
    return dynkin_recursion(barriers, g)


# ---------------------------------------------------------------------------
# Mokobodzki certificates and minimality


def mokobodzki_certificate(
    barriers: BarrierPair,
    g: list,
    solution: SolutionSeptuple | None = None,
) -> tuple[LadlagProcess, LadlagProcess]:
    """Nonnegative predictable strong supermartingales with xi <= H - Hbar <= zeta.

    Built from the solved reflectors:
    H_k    = E[xi_T^+ + int_k^T g^+ + (A_T - A_k) + (B_{T^-} - B_{k^-}) | F_{k^-}]
    Hbar_k = E[xi_T^- + int_k^T g^- + (A'_T - A'_k) + (B'_{T^-} - B'_{k^-}) | F_{k^-}]
    so that H - Hbar = Y pointwise.  Raises DivergenceError if the solve does.
    """
    if solution is None:
        solution = solve_driver_process(barriers, g)
    space = barriers.xi.space
    xi_term = barriers.xi.mid[-1]
    h = _certificate_side(space, v.pos_part(xi_term), [v.pos_part(gk) for gk in g],
                          solution.a, solution.b)
    hbar = _certificate_side(space, v.neg_part(xi_term), [v.neg_part(gk) for gk in g],
                             solution.a_prime, solution.b_prime)
    return h, hbar


def _certificate_side(space, terminal_part, g_part, a, b) -> LadlagProcess:
    n = space.n_steps
    dt = space.dt
    tails = [None] * (n + 1)
    run = list(terminal_part)
    tails[n] = list(run)
    for k in range(n - 1, -1, -1):
        run = v.add(run, v.smul(dt, g_part[k]))
        tails[k] = list(run)
    minus, mid, plus = [], [], []
    for k in range(n + 1):
        core = v.add(tails[k], v.add(v.sub(a.mid[n], a.mid[k]), v.sub(b.minus[n], b.minus[k])))
        mid_k = cond_expect(space, core, space.sigma_minus[k])
        mid.append(mid_k)
        minus.append(v.add(mid_k, a.left_jump(k)))
        if k < n:
            core_plus = v.add(
                tails[k], v.add(v.sub(a.mid[n], a.mid[k]), v.sub(b.minus[n], b.mid[k]))
            )
            plus.append(cond_expect(space, core_plus, space.sigma_mid[k]))
    minus[0] = list(mid[0])
    return from_slots(space, minus, mid, plus, kind="predictable")


def minimality_check(
    j: LadlagProcess,
    jbar: LadlagProcess,
    h: LadlagProcess,
    hbar: LadlagProcess,
    xi_t: LadlagProcess,
    zeta_t: LadlagProcess,
    tol: float | None = None,
) -> bool:
    """J <= H and Jbar <= Hbar slotwise, for any admissible dominating pair."""
    space = j.space
    if tol is None:
        # integer zero in rational mode: a float literal would coerce exact
        # Fractions to floats inside the comparisons
        tol = 0 if space.mode == "rational" else 1e-10
    for proc, label in ((h, "H"), (hbar, "Hbar")):
        if not is_predictable_strong_supermartingale(proc):
            raise ProcessError(f"{label} is not a predictable strong supermartingale")
        if any(-x > tol for k in range(space.n_steps + 1) for x in proc.mid[k]):
            raise ProcessError(f"{label} is not nonnegative")
    diff = p_sub(h, hbar, kind="predictable")
    for k in range(space.n_steps + 1):
        if any(x - d > tol for d, x in zip(diff.mid[k], xi_t.mid[k])):
            raise ProcessError(f"H - Hbar below the lower shifted barrier at instant {k}")
        if any(d - z > tol for d, z in zip(diff.mid[k], zeta_t.mid[k])):
            raise ProcessError(f"H - Hbar above the upper shifted barrier at instant {k}")
    return _min_slot_gap(h, j) >= -tol and _min_slot_gap(hbar, jbar) >= -tol


def random_nonneg_pss(space: FilteredSpace, rng, scale=1) -> LadlagProcess:
    """Random nonnegative predictable strong supermartingale, slack at every link."""
    n = space.n_steps

    def rand_nonneg(partition):
        out = space.zero()
        for atom in partition:
            val = Fraction(rng.randint(0, 8), 4) * scale
            if space.mode == "float":
                val = float(val)
            for i in atom:
                out[i] = val
        return out

    mid: list = [None] * (n + 1)
    minus: list = [None] * (n + 1)
    plus: list = [None] * n
    mid[n] = rand_nonneg(space.sigma_minus[n])
    minus[n] = v.add(mid[n], rand_nonneg(space.sigma_minus[n]))
    for k in range(n - 1, -1, -1):
        plus[k] = v.add(cond_expect(space, minus[k + 1], space.sigma_mid[k]),
                        rand_nonneg(space.sigma_mid[k]))
        mid[k] = v.add(cond_expect(space, plus[k], space.sigma_minus[k]),
                       rand_nonneg(space.sigma_minus[k]))
        minus[k] = v.add(mid[k], rand_nonneg(space.sigma_minus[k]))
    minus[0] = list(mid[0])
    return from_slots(space, minus, mid, plus, kind="predictable")
