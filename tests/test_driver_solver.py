"""Weighted norms and the general-driver fixed-point loop."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from conftest import make_config, make_space, rand_on, random_martingale, random_predictable
from pdrbsde import values as v
from pdrbsde.drbsde import BarrierPair, solve_driver_process
from pdrbsde.driver_solver import (
    ContractionParams,
    LipschitzDriver,
    base_norm_h2,
    beta_norm_h2,
    beta_norm_m2,
    beta_norm_s2p,
    linear_driver,
    solve_general,
)
from pdrbsde.processes import (
    IntegrandProcess,
    brownian_process,
    constant_process,
    from_cadlag_sequence,
    from_slots,
    sup_distance,
    zero_process,
)
from pdrbsde.prob_space import expectation
from pdrbsde.scenario import realize
from pdrbsde.verify import verify_drbsde_solution

F = Fraction


class TestNorms:
    def test_h2_constant_beta_zero(self, space_8):
        phi = IntegrandProcess(space=space_8, z=tuple(space_8.constant(3) for _ in range(2)))
        assert beta_norm_h2(phi, 0.0) == pytest.approx(9 * float(space_8.t_horizon))

    def test_h2_zero(self, space_8):
        phi = IntegrandProcess(space=space_8, z=tuple(space_8.zero() for _ in range(2)))
        assert beta_norm_h2(phi, 5.0) == 0.0

    def test_h2_matches_hand_sum(self, space_8):
        rng = random.Random(3)
        phi = IntegrandProcess(
            space=space_8,
            z=tuple(rand_on(space_8, space_8.sigma_mid[k], rng) for k in range(2)),
        )
        beta = 3.0
        dt = float(space_8.t_horizon) / 2
        want = sum(
            float(space_8.weights[i]) * math.exp(beta * k * dt) * float(phi.z[k][i]) ** 2 * dt
            for k in range(2)
            for i in range(space_8.n_paths)
        )
        assert beta_norm_h2(phi, beta) == pytest.approx(want, rel=1e-12)

    def test_s2p_constant(self, space_8):
        xi = constant_process(space_8, 3)
        t = float(space_8.t_horizon)
        assert beta_norm_s2p(xi, 2.0) == pytest.approx(9 * math.exp(2.0 * t))

    def test_s2p_deterministic_beta_zero(self, space_8):
        xi = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (1, -4, 2)])
        assert beta_norm_s2p(xi, 0.0) == pytest.approx(16.0)

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
        assert beta_norm_s2p(xi, beta) == pytest.approx(want, rel=1e-12)

    def test_m2_zero(self, space_8):
        assert beta_norm_m2(constant_process(space_8, 0, kind="cadlag-martingale"), 4.0) == 0.0

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
            want += w * float(expectation(space_16, [float(x) ** 2 for x in m.left_jump(k)]))
        for k in range(space_16.n_steps):
            w = math.exp(beta * space_16.time_float(k + 1))
            want += w * float(
                expectation(space_16, [float(x) ** 2 for x in m.interval_increment(k)])
            )
        assert beta_norm_m2(m, beta) == pytest.approx(want, rel=1e-12)


class TestContractionParams:
    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            ContractionParams(beta=3.9, eps=0.5, c=2.0).validate(0.0, 1.0)

    def test_rejects_large_modulus(self):
        with pytest.raises(ValueError):
            ContractionParams(beta=5.0, eps=0.5, c=2.0).validate(0.1, 1.0)

    def test_lipschitz_probe_catches_liars(self, space_8):
        bad = LipschitzDriver(evaluate=lambda k, t, y, z: y, lipschitz_k=0.01)
        with pytest.raises(ValueError):
            bad.probe_lipschitz(space_8)


class TestSolveGeneral:
    def test_state_independent_driver_fixes_in_one_step(self, space_8):
        cvals = [F(1, 2), F(-1, 4)]
        drv = linear_driver(F(0), F(0), cvals)
        pair = BarrierPair(
            xi=from_cadlag_sequence(space_8, [space_8.constant(c) for c in (-9, -9, 0)]),
            zeta=from_cadlag_sequence(space_8, [space_8.constant(c) for c in (9, 9, 0)]),
        )
        params = ContractionParams(beta=5.0, eps=0.5, c=2.0)
        sol, trace = solve_general(drv, pair, params, tol=1e-12)
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
        drv = linear_driver(-lam, F(0), [F(0)] * 2)
        pair = BarrierPair(
            xi=from_cadlag_sequence(space_8, [space_8.constant(c0)] * 3),
            zeta=from_cadlag_sequence(space_8, [space_8.constant(c0)] * 3),
        )
        params = ContractionParams(beta=5.0, eps=0.5, c=2.0)
        sol, trace = solve_general(drv, pair, params, tol=1e-14)
        assert sup_distance(sol.y, constant_process(space_8, c0)) == 0
        push = lam * c0 * space_8.dt
        for k in range(2):
            inc = v.sub(sol.a.interval_increment(k), sol.a_prime.interval_increment(k))
            assert all(x == push for x in inc)
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
        g0 = sc.driver.freeze(sc.space, zero_process(sc.space, kind="predictable"),
                              IntegrandProcess(space=sc.space,
                                               z=tuple(sc.space.zero() for _ in range(8))))
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
        params = ContractionParams(beta=5.0, eps=0.5, c=2.0)
        sol, trace = solve_general(sc.driver, sc.barriers, params, tol=1e-12)
        assert trace.converged
        assert all(r < 1 for r in trace.ratios)
        assert trace.contraction_modulus < 1
        g = sc.driver.freeze(sc.space, sol.y, sol.z)
        rep = verify_drbsde_solution(g, sc.barriers, sol, tol=1e-10)
        assert rep.passed, rep.failures()
        assert base_norm_h2(sc.driver, sc.space) > 0
