"""Independent reference solution: the one-pass Dynkin recursion.

This module imports nothing from ``pdrbsde``.  It works on plain data (path
weights, Brownian increments, the atoms of the two partitions at each instant,
the barrier slots and the driver) with its own conditional expectations, in
whatever number type the inputs carry (``Fraction`` or ``float``).

Writing ``clamp(x, lo, hi) = min(max(x, lo), hi)``, one backward sweep gives

    Y_N     = xi_N
    Y_{k+}  = clamp(E[Y_{(k+1)-} | sigma_mid[k]] + g_k dt, xi_{k+}, zeta_{k+})
    Y_k     = clamp(E[Y_{k+} | sigma_minus[k]], xi_k, zeta_k)
    Y_{k-}  = clamp(Y_k, xi_{k-}, zeta_{k-})          (Y_{0-} = Y_0)

and the other six components are read off Y:

    Z_k          = E[Y_{(k+1)-} dW_k | sigma_mid[k]] / dt
    dM_k         = Y_{k+} - E[Y_{k+} | sigma_minus[k]]     (instant jump)
    dA_k, dA'_k  = negative and positive part of Y_k - Y_{k-}
    dB_k, dB'_k  = positive and negative part of Y_k - E[Y_{k+} | sigma_minus[k]]
    a_k, a'_k    = positive and negative part of
                   Y_{k+} - E[Y_{(k+1)-} | sigma_mid[k]] - g_k dt   (interval)

M has no interval variation, and B, B' and M do not jump at the terminal
instant.  A process is a ``Slots`` triple (minus[0..N], mid[0..N],
plus[0..N-1]) of per-path value lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Slots:
    minus: list
    mid: list
    plus: list


@dataclass(frozen=True)
class Problem:
    """A doubly reflected problem on a finite filtered space.

    ``sigma_minus[k]`` and ``sigma_mid[k]`` are sequences of atoms, each atom a
    sequence of path indices; ``dw[k][i]`` is the increment on (t_k, t_{k+1})
    along path i; ``g[k][i]`` is the driver on that interval.
    """

    weights: list
    dw: list
    sigma_minus: list
    sigma_mid: list
    dt: object
    xi: Slots
    zeta: Slots
    g: list

    @property
    def n_steps(self) -> int:
        return len(self.dw)

    def with_driver(self, g: list) -> "Problem":
        return Problem(self.weights, self.dw, self.sigma_minus, self.sigma_mid, self.dt,
                       self.xi, self.zeta, g)


def cond_expect(weights, values, partition) -> list:
    """Probability-weighted mean of ``values`` on each atom of ``partition``."""
    out = list(values)
    for atom in partition:
        total = sum(weights[i] for i in atom)
        mean = sum(weights[i] * values[i] for i in atom) / total
        for i in atom:
            out[i] = mean
    return out


def _clamp(xs, lo, hi) -> list:
    return [min(max(x, a), b) for x, a, b in zip(xs, lo, hi)]


def _pos(xs) -> list:
    return [x if x > 0 else x - x for x in xs]


def _neg(xs) -> list:
    return [-x if x < 0 else x - x for x in xs]


def sub(a, b) -> list:
    """Elementwise a - b."""
    return [x - y for x, y in zip(a, b)]


def _running(zero, jumps, intervals=None) -> Slots:
    """Cadlag running sum: ``jumps[k]`` at instant k, ``intervals[k]`` on (k, k+1)."""
    n = len(jumps) - 1
    run = list(zero)
    minus, mid, plus = [], [], []
    for k in range(n + 1):
        minus.append(run)
        run = [r + j for r, j in zip(run, jumps[k])]
        mid.append(run)
        if k < n:
            plus.append(run)
            if intervals is not None:
                run = [r + d for r, d in zip(run, intervals[k])]
    return Slots(minus, mid, plus)


def solve(p: Problem) -> dict:
    """All seven components, keyed Y, Z, M, A, B, A_prime, B_prime."""
    n, w, dt = p.n_steps, p.weights, p.dt
    xi, zeta = p.xi, p.zeta
    y_minus, y_mid, y_plus = [None] * (n + 1), [None] * (n + 1), [None] * n
    cont, proj = [None] * n, [None] * n  # E[Y_{(k+1)-} | mid], E[Y_{k+} | minus]
    y_mid[n] = list(xi.mid[n])
    y_minus[n] = _clamp(y_mid[n], xi.minus[n], zeta.minus[n])
    for k in range(n - 1, -1, -1):
        cont[k] = cond_expect(w, y_minus[k + 1], p.sigma_mid[k])
        y_plus[k] = _clamp([c + gk * dt for c, gk in zip(cont[k], p.g[k])],
                           xi.plus[k], zeta.plus[k])
        proj[k] = cond_expect(w, y_plus[k], p.sigma_minus[k])
        y_mid[k] = _clamp(proj[k], xi.mid[k], zeta.mid[k])
        y_minus[k] = _clamp(y_mid[k], xi.minus[k], zeta.minus[k])
    y_minus[0] = list(y_mid[0])

    zero = [x - x for x in y_mid[n]]
    z = [
        [x / dt for x in cond_expect(w, [y * d for y, d in zip(y_minus[k + 1], p.dw[k])],
                                     p.sigma_mid[k])]
        for k in range(n)
    ]
    m_jumps = [sub(y_plus[k], proj[k]) for k in range(n)] + [zero]
    left = [sub(y_mid[k], y_minus[k]) for k in range(n + 1)]
    gap = [sub(y_mid[k], proj[k]) for k in range(n)] + [zero]
    drift = [sub(y_plus[k], [c + gk * dt for c, gk in zip(cont[k], p.g[k])])
             for k in range(n)]
    return {
        "Y": Slots(y_minus, y_mid, y_plus),
        "Z": z,
        "M": _running(zero, m_jumps),
        "A": _running(zero, [_neg(d) for d in left], [_pos(d) for d in drift]),
        "A_prime": _running(zero, [_pos(d) for d in left], [_neg(d) for d in drift]),
        "B": _running(zero, [_pos(d) for d in gap]),
        "B_prime": _running(zero, [_neg(d) for d in gap]),
    }


# ---------------------------------------------------------------------------
# beta-weighted norms, evaluated in float


def _time(p: Problem, k: int) -> float:
    return k * float(p.dt)


def norm_h2(p: Problem, phi: list, beta: float) -> float:
    """E[sum_k e^{beta t_k} phi_k^2 dt]."""
    dt = float(p.dt)
    return sum(
        math.exp(beta * _time(p, k)) * dt
        * sum(float(wi) * float(x) ** 2 for wi, x in zip(p.weights, phi[k]))
        for k in range(p.n_steps)
    )


def norm_s2p(p: Problem, mids: list, beta: float) -> float:
    """E[max_k e^{beta t_k} Y_k^2] over the values at the grid instants."""
    n = p.n_steps
    return sum(
        float(wi) * max(math.exp(beta * _time(p, k)) * float(mids[k][i]) ** 2
                        for k in range(n + 1))
        for i, wi in enumerate(p.weights)
    )


def norm_m2(p: Problem, m: Slots, beta: float) -> float:
    """E[int e^{beta s} d[M]_s]: instant jumps weighted at their instant,
    interval increments at the right end of their interval."""
    n = p.n_steps

    def mean_sq(xs):
        return sum(float(wi) * float(x) ** 2 for wi, x in zip(p.weights, xs))

    return (
        sum(math.exp(beta * _time(p, k)) * mean_sq(sub(m.mid[k], m.minus[k]))
            for k in range(n + 1))
        + sum(math.exp(beta * _time(p, k + 1)) * mean_sq(sub(m.minus[k + 1], m.plus[k]))
              for k in range(n))
    )


# ---------------------------------------------------------------------------
# linear drivers: the outer Banach loop around the recursion


def linear_driver(a, b, c: list, y_mids: list, z: list) -> list:
    """g_k = a Y_k + b Z_k + c_k, path by path."""
    return [[a * y + b * zz + c[k] for y, zz in zip(y_mids[k], z[k])] for k in range(len(z))]


def solve_linear(p: Problem, a, b, c: list, beta: float, tol: float, max_outer: int) -> dict:
    """Banach iteration from (Y, Z) = 0: freeze the driver along the current
    iterate and solve, until |||dY|||^2_beta + ||dZ||^2_beta <= tol^2.
    Returns the last solution."""
    n = p.n_steps
    zero = [x - x for x in p.xi.mid[n]]
    y_mids, z = [zero] * (n + 1), [zero] * n
    for _ in range(max_outer):
        sol = solve(p.with_driver(linear_driver(a, b, c, y_mids, z)))
        delta = (norm_s2p(p, [sub(s, u) for s, u in zip(sol["Y"].mid, y_mids)], beta)
                 + norm_h2(p, [sub(s, u) for s, u in zip(sol["Z"], z)], beta))
        y_mids, z = sol["Y"].mid, sol["Z"]
        if delta <= tol * tol:
            return sol
    raise ValueError(f"outer loop not converged within {max_outer} iterations")
