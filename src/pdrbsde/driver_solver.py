"""Drivers that depend on (y, z): the linear driver, weighted norms and the
outer fixed-point loop.

The outer map freezes the driver along the current iterate, g_k :=
driver(t_k, U_k, V_k), solves the resulting process-driver problem with one
backward Dynkin sweep, and reads the new iterate off the solution.  Under
2K(1+T)eps^2(3 + 16c^2) < 1 with beta > 1/eps^2 the map contracts in the
combined norm |||Y|||_beta^2 + ||Z||_beta^2; the observed per-step ratio is
recorded and asserted < 1 rather than trusting any symbolic constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import values as v
from .config import ConfigError, SolverParams
from .drbsde import BarrierPair, SolutionSeptuple, solve_driver_process
from .prob_space import FilteredSpace, expectation
from .processes import LadlagProcess, zero_process


class ContractionError(RuntimeError):
    """Outer loop failed to contract within its iteration budget."""


@dataclass(frozen=True)
class LinearDriver:
    """g(t_k, y, z) = a y + b z + c_k, with a, b and each c_k entries of the
    space's mode, and K = max(|a|, |b|) unless declared (a declared K is
    checked against a and b when the scenario is loaded)."""

    a: object
    b: object
    c: tuple   # one per interval
    lipschitz_k: float

    def freeze(self, space: FilteredSpace, u: LadlagProcess, z: list) -> list:
        """The rows g_k = a U_k + b Z_k + c_k, sigma_mid[k]-measurable as U_k and Z_k are."""
        return [v.add(v.add(v.smul(self.a, y), v.smul(self.b, zk)), space.constant(c))
                for y, zk, c in zip(u.mid_rows, z, self.c)]


def contraction_modulus(params: SolverParams, lipschitz_k: float, t_horizon: float) -> float:
    """2K(1+T)eps^2(3+16c^2) for the scenario's eps and c, refused unless it is
    below 1 and beta > 1/eps^2."""
    check_beta(params.beta, params.eps)
    m = 2 * lipschitz_k * (1 + t_horizon) * params.eps**2 * (3 + 16 * params.c**2)
    if m >= 1:
        raise ConfigError(f"contraction modulus 2K(1+T)eps^2(3+16c^2) = {m:g} >= 1", "params")
    return m


def check_beta(beta: float, eps: float) -> None:
    """The weighted norms and the a-priori estimates need beta > 1/eps^2,
    tested as beta eps^2 > 1: eps^2 may underflow to zero."""
    if not beta * eps**2 > 1:
        raise ConfigError(f"need beta > 1/eps^2, got beta = {beta:g} and eps = {eps:g}",
                          "params.beta")


# ---------------------------------------------------------------------------
# beta-weighted norms (evaluated in float; see README on exactness)


def beta_norm_h2(space: FilteredSpace, rows: list, beta: float) -> float:
    """E[ sum_k e^{beta t_k} phi_k^2 dt ] over N rows phi_k."""
    dt = float(space.t_horizon) / space.n_steps
    total = 0.0
    for k in range(space.n_steps):
        w = math.exp(beta * space.time_float(k))
        total += w * dt * float(expectation(space, v.squares(rows[k])))
    return total


def beta_norm_s2p(space: FilteredSpace, rows: list, beta: float) -> float:
    """E[ max_k e^{beta t_k} xi_k^2 ] over a process's N+1 mid rows xi_k:
    constant stopping times are predictable and exhaust the per-path values,
    so the essential supremum over grid stopping times is the pathwise
    maximum over mid slots: each row squared on its own atoms and folded into
    the running maximum instant by instant."""
    factors = [math.exp(beta * space.time_float(k)) for k in range(space.n_steps + 1)]
    return float(expectation(space, v.max_weighted_squares(factors, rows)))


def beta_norm_m2(m: LadlagProcess, beta: float) -> float:
    """E[ int e^{beta s} d[M]_s ]: instant jumps weighted at their instant,
    interval increments at the right endpoint."""
    space = m.space
    total = 0.0
    for k in range(space.n_steps + 1):
        w = math.exp(beta * space.time_float(k))
        total += w * float(expectation(space, v.squares(m.left_jump(k))))
    for k in range(space.n_steps):
        w = math.exp(beta * space.time_float(k + 1))
        total += w * float(expectation(space, v.squares(m.interval_increment(k))))
    return total


# ---------------------------------------------------------------------------
# outer loop


@dataclass
class OuterTrace:
    iterations: int = 0
    converged: bool = False
    deltas: list = field(default_factory=list)          # combined-norm deltas
    ratios: list = field(default_factory=list)          # per-step contraction ratios
    contraction_modulus: float = 0.0
    base_norm: float = 0.0    # ||g(., 0, 0)||^2 in the unweighted H^2 norm
    frozen_g: list | None = None   # the process driver the final solve used

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "deltas": self.deltas,
            "ratios": self.ratios,
            "contraction_modulus": self.contraction_modulus,
            "base_norm": self.base_norm,
        }


def solve_general(
    driver: LinearDriver,
    barriers: BarrierPair,
    params: SolverParams,
) -> tuple[SolutionSeptuple, OuterTrace]:
    """Banach iteration: freeze the driver, solve, re-freeze, until fixed.

    Stops when |||U^{m+1} - U^m|||^2_beta + ||V^{m+1} - V^m||^2_beta <= tol^2,
    with ``params.tol`` floored at 1e-12.  Raises ContractionError once
    ``params.max_outer`` iterations pass unconverged, and records every
    observed ratio so non-contraction is visible in the trace.
    """
    space = barriers.xi.space
    tol = max(params.tol, 1e-12)
    trace = OuterTrace(
        contraction_modulus=contraction_modulus(params, driver.lipschitz_k,
                                                float(space.t_horizon)),
    )

    u = zero_process(space)
    vz = [space.zero()] * space.n_steps
    sol: SolutionSeptuple | None = None
    for it in range(1, params.max_outer + 1):
        g = driver.freeze(space, u, vz)
        if it == 1:  # U = 0 and V = 0: g is the driver at the origin
            trace.base_norm = beta_norm_h2(space, g, 0.0)
        sol = solve_driver_process(barriers, g)
        trace.frozen_g = g
        du = list(map(v.sub, sol.y.mid_rows, u.mid_rows))
        dz = [v.sub(sol.z[k], vz[k]) for k in range(space.n_steps)]
        delta = beta_norm_s2p(space, du, params.beta) + beta_norm_h2(space, dz, params.beta)
        trace.deltas.append(delta)
        if len(trace.deltas) >= 2 and trace.deltas[-2] > 0:
            trace.ratios.append(delta / trace.deltas[-2])
        trace.iterations = it
        u, vz = sol.y, sol.z
        if delta <= tol * tol:
            trace.converged = True
            break
    if not trace.converged:
        raise ContractionError(f"outer loop not converged after {params.max_outer} iterations "
                               f"(delta^2 {trace.deltas[-1]:g})")
    assert sol is not None
    return sol, trace
