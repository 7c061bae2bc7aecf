"""Independent verification machinery: change-of-variables and estimates.

The change-of-variables identity for ladlag semimartingales is checked as an
exact telescoping identity over state transitions: each instant carries a
left jump (driven by A) and a right jump (driven by B + M), each interval one
transition (driven by the interval parts of A and M).  There is no continuous
martingale part in the discrete model, so the bracket term is identically
zero and the interval transition's second-order correction lands in the
right-jump sum, which is its discrete stand-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import values as v
from .drbsde import SolutionSeptuple
from .driver_solver import beta_norm_h2, beta_norm_m2, beta_norm_s2p, check_beta
from .prob_space import FilteredSpace, cond_expect
from .processes import ProcessError, p_sub, running_sum


# ---------------------------------------------------------------------------
# exact polynomials (rational-mode differentiation)


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial as {exponent tuple: coefficient}."""

    n_vars: int
    coeffs: tuple

    @staticmethod
    def from_dict(n_vars: int, coeffs: dict) -> "Polynomial":
        items = tuple(sorted((tuple(e), c) for e, c in coeffs.items() if c != 0))
        return Polynomial(n_vars=n_vars, coeffs=items)

    def __call__(self, *point):
        total = 0
        for expo, c in self.coeffs:
            term = c
            for x, e in zip(point, expo):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    def partial(self, i: int) -> "Polynomial":
        out: dict = {}
        for expo, c in self.coeffs:
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0) + c * expo[i]
        return Polynomial.from_dict(self.n_vars, out)


# ---------------------------------------------------------------------------
# optional semimartingales by components


@dataclass(frozen=True)
class OptionalSemimartingale:
    """X = X_0 + M + A + B with the slot layout of the ladlag calculus.

    * M: left-continuous martingale part; ``m_interval[k]`` has zero mean
      given sigma_mid[k], ``m_jump[k]`` (its right jump at t_k) zero mean
      given sigma_minus[k].
    * A: right-continuous finite-variation part, A_0 = 0: signed left jumps
      ``a_jump[k]`` (a_jump[0] = 0) and signed interval increments.
    * B: left-continuous purely discontinuous finite-variation part, B_0 = 0:
      signed right jumps ``b_jump[k]``.
    """

    space: FilteredSpace
    x0: list
    m_interval: tuple   # length N
    m_jump: tuple       # length N (right jumps at instants 0..N-1)
    a_jump: tuple       # length N+1 (left jumps; index 0 must be zero)
    a_interval: tuple   # length N
    b_jump: tuple       # length N (right jumps at instants 0..N-1)

    # state trajectories ------------------------------------------------

    def states(self) -> tuple[tuple, tuple, tuple]:
        """(minus, mid, plus) slot rows of the process: A's left jumps, then
        the right jumps of B + M, then the interval parts of M and A, summed
        from X_0 in time order."""
        n = self.space.n_steps
        p = running_sum(
            self.space,
            left=self.a_jump,
            right=[v.add(self.m_jump[k], self.b_jump[k]) for k in range(n)],
            interval=[v.add(self.m_interval[k], self.a_interval[k]) for k in range(n)],
            start=self.x0,
        )
        return p.slots


# ---------------------------------------------------------------------------
# the change-of-variables identity


@dataclass
class ChangeOfVariablesReport:
    lhs: list               # per instant: the row F(X_t) - F(X_0)
    rhs: list               # per instant: the row sum of the five terms
    terms: dict             # named running totals, same shape
    max_deviation: float


def galchouk_lenglart_check(
    components: Sequence[OptionalSemimartingale], f: Polynomial
) -> ChangeOfVariablesReport:
    """Evaluate both sides of the change-of-variables formula at every instant.

    Terms, per the ladlag decomposition:
    1. dA integral: D_k F at the pre-transition state against A's left jumps
       and interval increments.
    2. d(B+M)^+ integral: D_k F at the pre-transition state against right
       jumps and M's interval increments.
    3. continuous-bracket term: identically zero here.
    4. left-jump corrections over (0, t].
    5. right-jump corrections over [0, t), including the interval
       transitions (the discrete image of the missing bracket term).
    The identity is exact: the telescoped state walk recovers F(X_t) - F(X_0).
    """
    space = components[0].space
    n = space.n_steps
    if any(c.space is not space for c in components):
        raise ProcessError("all components must live on the same space")
    if f.n_vars != len(components):
        raise ProcessError(f"F takes {f.n_vars} variables, got {len(components)} components")
    grads = [f.partial(i) for i in range(len(components))]
    slots = [c.states() for c in components]  # per component: (minus, mid, plus)

    def state(slot: int, k: int) -> list:
        return [s[slot][k] for s in slots]  # list over components of RVs

    def transition(pre, moves, totals, parts):
        """Move the state ``pre`` by ``moves``, one row per component.  Each
        first-order total gains the gradient at ``pre`` against its parts of
        the move; returns the new totals and the second-order correction
        F(post) - F(pre) minus the gradient against the whole move."""
        grad_vals = [v.apply(g, *pre) for g in grads]
        new_totals = []
        for total, rows in zip(totals, parts):
            for gv, row in zip(grad_vals, rows):
                total = v.add(total, v.mul(gv, row))
            new_totals.append(total)
        corr = v.sub(v.apply(f, *map(v.add, pre, moves)), v.apply(f, *pre))
        for gv, move in zip(grad_vals, moves):
            corr = v.sub(corr, v.mul(gv, move))
        return new_totals, corr

    t1 = t2 = t4 = t5 = space.zero()
    t3 = t1  # continuous bracket, stays zero
    lhs_series, rhs_series = [], []
    terms_series = {name: [] for name in ("dA_integral", "dBM_integral", "bracket",
                                          "left_jump_sum", "right_jump_sum")}
    f0 = v.apply(f, *state(1, 0))

    for k in range(n + 1):
        # left jump at k (skipped at k = 0: there is no time before 0)
        if k > 0:
            a_jumps = [c.a_jump[k] for c in components]
            (t1,), corr = transition(state(0, k), a_jumps, [t1], [a_jumps])
            t4 = v.add(t4, corr)

        lhs_series.append(v.sub(v.apply(f, *state(1, k)), f0))
        rhs_series.append(v.add(v.add(t1, t2), v.add(t3, v.add(t4, t5))))
        for name, acc in zip(terms_series, (t1, t2, t3, t4, t5)):
            terms_series[name].append(acc)

        if k == n:
            break

        # right jump at k
        jumps = [v.add(c.b_jump[k], c.m_jump[k]) for c in components]
        (t2,), corr = transition(state(1, k), jumps, [t2], [jumps])
        t5 = v.add(t5, corr)

        # interval transition (t_k, t_{k+1})
        incs = [v.add(c.m_interval[k], c.a_interval[k]) for c in components]
        (t1, t2), corr = transition(state(2, k), incs, [t1, t2],
                                    [[c.a_interval[k] for c in components],
                                     [c.m_interval[k] for c in components]])
        t5 = v.add(t5, corr)

    dev = v.max_magnitude(map(v.sub, lhs_series, rhs_series))
    return ChangeOfVariablesReport(
        lhs=lhs_series, rhs=rhs_series, terms=terms_series, max_deviation=dev
    )


# ---------------------------------------------------------------------------
# randomized trial material


def random_semimartingale(space: FilteredSpace, rng) -> OptionalSemimartingale:
    """Random decomposition: dW-driven interval martingale part, mark-driven
    compensated jumps, signed adapted A increments, signed B jumps."""
    n = space.n_steps

    def draw(partition) -> list:
        return v.as_row(space.mode,
                        [Fraction(rng.randint(-8, 8), 4) for _ in range(len(partition))])

    m_interval = [v.mul(draw(space.sigma_mid[k]), space.dw_rows[k]) for k in range(n)]
    m_jump = []
    for k in range(n):
        raw = draw(space.sigma_mid[k])
        m_jump.append(v.sub(raw, cond_expect(space, raw, space.sigma_minus[k])))
    a_jump = [space.zero()] + [draw(space.sigma_mid[k]) for k in range(1, n + 1)]
    a_interval = [draw(space.sigma_minus[k + 1]) for k in range(n)]
    b_jump = [draw(space.sigma_mid[k]) for k in range(n)]
    x0 = draw(space.sigma_minus[0])
    return OptionalSemimartingale(
        space=space,
        x0=x0,
        m_interval=tuple(m_interval),
        m_jump=tuple(m_jump),
        a_jump=tuple(a_jump),
        a_interval=tuple(a_interval),
        b_jump=tuple(b_jump),
    )


def random_polynomial(rng, n_vars: int, max_degree: int = 4, n_terms: int = 5) -> Polynomial:
    coeffs: dict = {}
    for _ in range(n_terms):
        expo = [0] * n_vars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            expo[rng.randrange(n_vars)] += 1
        c = Fraction(rng.randint(-6, 6), 3)
        if c:
            key = tuple(expo)
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
    if not coeffs:
        coeffs[(0,) * n_vars] = Fraction(1)
    return Polynomial.from_dict(n_vars, coeffs)


# ---------------------------------------------------------------------------
# a-priori estimate between two solutions


@dataclass
class EstimateReport:
    z_m_lhs: float
    z_m_rhs: float
    z_m_holds: bool
    y_lhs: float
    y_rhs: float
    y_ratio: float
    empirical_c: float
    beta: float
    eps: float
    c: float

    def to_json_dict(self) -> dict:
        return {
            "zm": {"lhs": self.z_m_lhs, "rhs": self.z_m_rhs, "holds": self.z_m_holds,
                   "margin": self.z_m_rhs - self.z_m_lhs},
            "y": {"lhs": self.y_lhs, "rhs": self.y_rhs, "ratio": self.y_ratio,
                  "empirical_c": self.empirical_c},
            "params": {"beta": self.beta, "eps": self.eps, "c": self.c},
        }


def apriori_estimate_check(
    s: SolutionSeptuple,
    s_bar: SolutionSeptuple,
    g: list,
    g_bar: list,
    beta: float,
    eps: float,
    c: float,
) -> EstimateReport:
    """Compare the component distances of two solutions sharing barriers.

    Asserts ||Z - Zbar||^2_beta + ||M - Mbar||^2_{M^2 beta} against
    eps^2 ||g - gbar||^2_beta, and reports the Y-distance ratio against
    2 eps^2 (1 + 8c^2) ||g - gbar||^2_beta together with the smallest
    constant that would make it hold, the first within 1e-12.
    """
    check_beta(beta, eps)
    space = s.y.space
    g_diff = [v.sub(g[k], g_bar[k]) for k in range(space.n_steps)]
    z_diff = [v.sub(s.z[k], s_bar.z[k]) for k in range(space.n_steps)]
    m_diff = p_sub(s.m, s_bar.m)
    y_diff = list(map(v.sub, s.y.mid_rows, s_bar.y.mid_rows))

    g_norm = beta_norm_h2(space, g_diff, beta)
    lhs1 = beta_norm_h2(space, z_diff, beta) + beta_norm_m2(m_diff, beta)
    rhs1 = eps**2 * g_norm
    lhs2 = beta_norm_s2p(space, y_diff, beta)
    rhs2 = 2 * eps**2 * (1 + 8 * c**2) * g_norm
    base = 2 * eps**2 * g_norm
    if base > 0:
        emp = math.sqrt(max(0.0, (lhs2 / base - 1) / 8))
    else:
        emp = 0.0
    return EstimateReport(
        z_m_lhs=lhs1,
        z_m_rhs=rhs1,
        z_m_holds=lhs1 <= rhs1 + 1e-12,
        y_lhs=lhs2,
        y_rhs=rhs2,
        y_ratio=(lhs2 / rhs2) if rhs2 > 0 else 0.0,
        empirical_c=emp,
        beta=beta,
        eps=eps,
        c=c,
    )
