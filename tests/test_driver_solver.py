"""Weighted norms and the general-driver fixed-point loop."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    brownian_process,
    make_config,
    make_space,
    rand_on,
    random_martingale,
    random_predictable,
)
from pdrbsde import values as v
from pdrbsde.config import SolverParams
from pdrbsde.drbsde import BarrierPair, solve_driver_process
from pdrbsde.driver_solver import (
    LinearDriver,
    beta_norm_h2,
    beta_norm_m2,
    beta_norm_s2p,
    contraction_modulus,
    solve_general,
)
from pdrbsde.processes import (
    constant_process,
    from_cadlag_sequence,
    from_slots,
    sup_distance,
    zero_process,
)
from pdrbsde.prob_space import expectation, on_paths
from pdrbsde.scenario import realize
from pdrbsde.verify import verify_drbsde_solution

F = Fraction


class TestNorms:
    def test_h2_constant_beta_zero(self, space_8):
        phi = [space_8.constant(3) for _ in range(2)]
        assert beta_norm_h2(space_8, phi, 0.0) == pytest.approx(9 * float(space_8.t_horizon))

    def test_h2_zero(self, space_8):
        phi = [space_8.zero() for _ in range(2)]
        assert beta_norm_h2(space_8, phi, 5.0) == 0.0

    def test_h2_matches_hand_sum(self, space_8):
        rng = random.Random(3)
        phi = [rand_on(space_8, space_8.sigma_mid[k], rng) for k in range(2)]
        beta = 3.0
        dt = float(space_8.t_horizon) / 2
        want = sum(
            float(space_8.weights[i]) * math.exp(beta * k * dt)
            * float(on_paths(space_8, phi[k])[i]) ** 2 * dt
            for k in range(2)
            for i in range(space_8.n_paths)
        )
        assert beta_norm_h2(space_8, phi, beta) == pytest.approx(want, rel=1e-12)

    def test_s2p_constant(self, space_8):
        xi = constant_process(space_8, 3)
        t = float(space_8.t_horizon)
        assert beta_norm_s2p(space_8, xi.mid_rows, 2.0) == pytest.approx(9 * math.exp(2.0 * t))

    def test_s2p_deterministic_beta_zero(self, space_8):
        xi = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (1, -4, 2)])
        assert beta_norm_s2p(space_8, xi.mid_rows, 0.0) == pytest.approx(16.0)

    def test_s2p_matches_stopping_time_enumeration(self, space_8):
        """Oracle: enumerate every grid-valued predictable stopping time and
        take the pathwise best sampled value."""
        rng = random.Random(5)
        xi = random_predictable(space_8, rng)
        beta = 1.5
        space = space_8

        rules: list[dict[int, int]] = []  # path -> stopping instant

        def enumerate_rules(k, alive, assign):
            if k == space.n_steps:
                done = dict(assign)
                for i in alive:
                    done[i] = k
                rules.append(done)
                return
            atoms = [a for a in space.sigma_minus[k] if set(a) <= set(alive)]
            live_atoms = [a for a in space.sigma_minus[k] if set(a) & set(alive)]
            for mask in range(2 ** len(live_atoms)):
                new_assign = dict(assign)
                new_alive = list(alive)
                for bit, atom in enumerate(live_atoms):
                    if mask >> bit & 1:
                        for i in atom:
                            if i in new_alive:
                                new_alive.remove(i)
                                new_assign[i] = k
                enumerate_rules(k + 1, new_alive, new_assign)

        enumerate_rules(0, list(range(space.n_paths)), {})
        best = [0.0] * space.n_paths
        for rule in rules:
            for i, k in rule.items():
                val = math.exp(beta * space.time_float(k)) * float(xi.mid[k][i]) ** 2
                best[i] = max(best[i], val)
        want = sum(float(space.weights[i]) * best[i] for i in range(space.n_paths))
        assert beta_norm_s2p(space, xi.mid_rows, beta) == pytest.approx(want, rel=1e-12)

    def test_m2_zero(self, space_8):
        assert beta_norm_m2(constant_process(space_8, 0), 4.0) == 0.0

    def test_m2_brownian_beta_zero(self, space_8):
        w = brownian_process(space_8)
        assert beta_norm_m2(w, 0.0) == pytest.approx(float(space_8.t_horizon))

    def test_m2_matches_weighted_bracket(self, space_16):
        rng = random.Random(7)
        m = random_martingale(space_16, rng)
        beta = 2.0
        want = 0.0
        for k in range(space_16.n_steps + 1):
            w = math.exp(beta * space_16.time_float(k))
            squares = [float(x) ** 2 for x in v.entries(m.left_jump(k))]
            want += w * float(expectation(space_16, squares))
        for k in range(space_16.n_steps):
            w = math.exp(beta * space_16.time_float(k + 1))
            want += w * float(
                expectation(space_16, [float(x) ** 2 for x in v.entries(m.interval_increment(k))])
            )
        assert beta_norm_m2(m, beta) == pytest.approx(want, rel=1e-12)


class TestContractionParams:
    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            contraction_modulus(SolverParams(beta=3.9, eps=0.5, c=2.0), 0.0, 1.0)

    def test_rejects_large_modulus(self):
        with pytest.raises(ValueError):
            contraction_modulus(SolverParams(beta=5.0, eps=0.5, c=2.0), 0.1, 1.0)
        # below 1, the modulus 2K(1+T)eps^2(3+16c^2) comes back
        assert contraction_modulus(SolverParams(), 0.01, 1.0) == pytest.approx(0.01 * 67)


class TestSolveGeneral:
    def test_state_independent_driver_fixes_in_one_step(self, space_8):
        cvals = [F(1, 2), F(-1, 4)]
        drv = LinearDriver(F(0), F(0), tuple(cvals), 0.0)
        pair = BarrierPair(
            xi=from_cadlag_sequence(space_8, [space_8.constant(c) for c in (-9, -9, 0)]),
            zeta=from_cadlag_sequence(space_8, [space_8.constant(c) for c in (9, 9, 0)]),
        )
        sol, trace = solve_general(drv, pair, SolverParams())
        # the map is constant: the first solve is already the fixed point
        assert trace.iterations == 2 and trace.deltas[-1] == 0.0
        g = [space_8.constant(c) for c in cvals]
        direct = solve_driver_process(pair, g)
        assert sup_distance(sol.y, direct.y) == 0

    def test_pinned_barriers_linear_decay(self, space_8):
        """g(t, y, z) = -lambda y with xi = zeta = c: the value is pinned at c
        and the reflectors absorb exactly lambda*c*dt per interval (scalar
        recursion solved by hand)."""
        lam, c0 = F(1, 100), F(2)
        drv = LinearDriver(-lam, F(0), (F(0),) * 2, float(lam))
        pair = BarrierPair(
            xi=from_cadlag_sequence(space_8, [space_8.constant(c0)] * 3),
            zeta=from_cadlag_sequence(space_8, [space_8.constant(c0)] * 3),
        )
        sol, trace = solve_general(drv, pair, SolverParams())
        assert sup_distance(sol.y, constant_process(space_8, c0)) == 0
        push = lam * c0 * space_8.dt
        for k in range(2):
            inc = v.sub(sol.a.interval_increment(k), sol.a_prime.interval_increment(k))
            assert all(x == push for x in v.entries(inc))
        g = drv.freeze(space_8, sol.y, sol.z)
        rep = verify_drbsde_solution(g, pair, sol, tol=1e-10)
        assert rep.passed, rep.failures()

    def test_apriori_bound_between_consecutive_outer_iterates(self):
        """The frozen-driver inner problems of two consecutive outer steps are
        two solutions with the same barriers and different process drivers, so
        the component estimate applies between them (on a grid with enough
        step-size headroom)."""
        from pdrbsde.calculus_checks import apriori_estimate_check
        from pdrbsde.config import config_from_dict
        from pdrbsde.scenario import estimate_template

        doc = estimate_template(9)
        doc["driver"] = {"kind": "linear", "params": {"a": "1/100", "b": "1/100", "c": "1/4"}}
        sc = realize(config_from_dict(doc))
        g0 = sc.driver.freeze(sc.space, zero_process(sc.space),
                              [sc.space.zero() for _ in range(8)])
        sol1 = solve_driver_process(sc.barriers, g0)
        g1 = sc.driver.freeze(sc.space, sol1.y, sol1.z)
        sol2 = solve_driver_process(sc.barriers, g1)
        rep = apriori_estimate_check(sol1, sol2, g0, g1, beta=5.0, eps=0.5, c=2.0)
        assert rep.z_m_holds

    def test_random_linear_driver_contracts_and_verifies(self):
        cfg = make_config(
            2, "1/2",
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free"}},
            driver={"kind": "linear", "params": {"a": "1/100", "b": "1/100", "c": "1/8"}},
            seed=51,
        )
        sc = realize(cfg)
        sol, trace = solve_general(sc.driver, sc.barriers, sc.config.params)
        assert trace.converged
        assert all(r < 1 for r in trace.ratios)
        assert trace.contraction_modulus < 1
        g = sc.driver.freeze(sc.space, sol.y, sol.z)
        rep = verify_drbsde_solution(g, sc.barriers, sol, tol=1e-10)
        assert rep.passed, rep.failures()
        assert trace.base_norm > 0


# ---------------------------------------------------------------------------
# the linear driver's rows


NAN = float("nan")
# two steps, marks at both instants: U_k on sigma_minus[k] has 1 then 2 atoms,
# Z_k on sigma_mid[k] 1 then 4
FREEZE_SPACES = {mode: make_space(2, "1/2", arithmetic=mode, marks=[
    {"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]},
    {"instant": 2, "labels": ["x", "y"], "probs": ["1/4", "3/4"]},
]) for mode in ("rational", "float")}
U_SIZES, Z_SIZES = (1, 2), (1, 4)
# entries of like size too, whose sums round in an order the result shows
FLOATS = st.one_of(st.sampled_from((NAN, -0.0, 0.0, math.inf, -math.inf)),
                   st.floats(-1e150, 1e150), st.floats(-4, 4))
RATIONALS = st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**40))


def _rows(entries, sizes):
    return st.tuples(*(st.lists(entries, min_size=n, max_size=n) for n in sizes))


def _freeze_as_before(driver, u_rows, z_rows) -> list:
    """The expression ``freeze`` replaced: a y + b z + c_k on each atom of the
    finer of (U_k, Z_k), through ``v.apply`` (Fraction entries on IntRows)."""
    return [v.apply(lambda y, z, c=c: driver.a * y + driver.b * z + c, u, zk)
            for u, zk, c in zip(u_rows, z_rows, driver.c)]


def _frozen(space, driver, u_rows, z_rows) -> list:
    n = space.n_steps
    assert tuple(map(len, space.sigma_minus[:n])) == U_SIZES
    assert tuple(map(len, space.sigma_mid[:n])) == Z_SIZES
    u = from_slots(space, [space.zero()] * (n + 1), [*u_rows, space.zero()], [space.zero()] * n)
    return driver.freeze(space, u, z_rows)


def _same(got, want) -> None:
    """Equal entry by entry, with NaN, the sign of zero and the type."""
    assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]


@settings(max_examples=150, deadline=None)
@given(FLOATS, FLOATS, st.lists(FLOATS, min_size=2, max_size=2), _rows(FLOATS, U_SIZES),
       _rows(FLOATS, Z_SIZES))
# (a y + b z) + c is 1 here, and a y + (b z + c) would be 0
@example(1.0, 1.0, [1.0, 1.0], ([1e16], [1e16, 1.0]), ([-1e16], [-1e16, 1.0, -0.0, NAN]))
def test_freeze_is_the_old_expression_on_float_rows(a, b, c, u_rows, z_rows):
    driver = LinearDriver(a, b, tuple(c), 1.0)
    got = _frozen(FREEZE_SPACES["float"], driver, u_rows, z_rows)
    for row, want in zip(got, _freeze_as_before(driver, u_rows, z_rows), strict=True):
        _same(row, want)


@settings(max_examples=100, deadline=None)
@given(RATIONALS, RATIONALS, st.lists(RATIONALS, min_size=2, max_size=2),
       _rows(RATIONALS, U_SIZES), _rows(RATIONALS, Z_SIZES))
def test_freeze_on_int_rows_is_the_old_expression(a, b, c, u_twins, z_twins):
    """IntRow rows give the canonical IntRow of the old expression, and the
    entries it gives on their Fraction twins."""
    driver = LinearDriver(a, b, tuple(c), 1.0)
    u_rows, z_rows = ([v.as_row("rational", row) for row in rows] for rows in (u_twins, z_twins))
    got = _frozen(FREEZE_SPACES["rational"], driver, u_rows, z_rows)
    assert got == _freeze_as_before(driver, u_rows, z_rows)
    assert [v.entries(row) for row in got] == _freeze_as_before(driver, u_twins, z_twins)

