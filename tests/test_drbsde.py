"""Doubly reflected pipeline: shifts, coupled Picard, assembly, verification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import make_config, make_space, rand_on, random_predictable
from pdrbsde import values as v
from pdrbsde.drbsde import (
    BarrierPair,
    DivergenceError,
    NotAFixedPointError,
    SolutionSeptuple,
    assemble_solution,
    minimality_check,
    mokobodzki_certificate,
    picard_coupled,
    plain_part,
    random_nonneg_pss,
    shift_barriers,
    solve_driver_process,
)
from pdrbsde.processes import (
    ProcessError,
    constant_process,
    from_cadlag_sequence,
    from_slots,
    is_predictable_strong_supermartingale,
    martingale_from_terminal,
    p_add,
    p_sub,
    sup_distance,
)
from pdrbsde.scenario import realize
from pdrbsde.snell import snell_bruteforce
from pdrbsde.verify import mutually_singular, verify_drbsde_solution

F = Fraction


def flat_pair(space, lower_mids, upper_mids) -> BarrierPair:
    xi = from_cadlag_sequence(space, lower_mids)
    zeta = from_cadlag_sequence(space, upper_mids)
    return BarrierPair(xi=xi, zeta=zeta)


def is_zero(proc) -> bool:
    n = proc.n_steps
    return all(all(x == 0 for x in proc.mid[k]) for k in range(n + 1))


class TestShiftBarriers:
    def test_martingale_type_barrier_shifts_to_zero(self, space_8):
        rng = random.Random(3)
        term = rand_on(space_8, space_8.sigma_minus[2], rng)
        m = martingale_from_terminal(space_8, term)
        n = space_8.n_steps
        xi = from_slots(
            space_8,
            [list(m.minus[k]) for k in range(n + 1)],
            [list(m.minus[k]) for k in range(n + 1)],
            [list(m.mid[k]) for k in range(n)],
            kind="predictable",
        )
        pair = BarrierPair(xi=xi, zeta=p_add(xi, constant_process(space_8, 0), kind="predictable"))
        g = [space_8.zero() for _ in range(n)]
        xi_t, _ = shift_barriers(pair, g)
        assert is_zero(xi_t)
        assert all(all(x == 0 for x in xi_t.minus[k]) for k in range(n + 1))

    def test_constant_barrier_shifts_to_zero(self, space_8):
        pair = flat_pair(space_8, [space_8.constant(3)] * 3, [space_8.constant(3)] * 3)
        xi_t, zeta_t = shift_barriers(pair, [space_8.zero()] * 2)
        assert is_zero(xi_t) and is_zero(zeta_t)

    def test_terminal_values_vanish(self, space_16):
        rng = random.Random(5)
        xi = random_predictable(space_16, rng)
        zeta = p_add(xi, constant_process(space_16, 2), kind="predictable")
        zeta_mid = [list(x) for x in zeta.mid]
        zeta_mid[-1] = list(xi.mid[-1])
        zeta = from_slots(space_16, zeta.minus, zeta_mid, zeta.plus,
                          kind="predictable")
        g = [rand_on(space_16, space_16.sigma_mid[k], rng) for k in range(2)]
        xi_t, zeta_t = shift_barriers(BarrierPair(xi=xi, zeta=zeta), g)
        assert all(x == 0 for x in xi_t.mid[-1])
        assert all(x == 0 for x in zeta_t.mid[-1])

    def test_matches_direct_per_atom_summation(self, space_8):
        """Oracle: expand E[xi_T + dt * sum g | atom] as an explicit weighted sum."""
        rng = random.Random(7)
        xi = random_predictable(space_8, rng)
        g = [space_8.constant(F(1, 2)), space_8.constant(F(-1, 4))]  # linear-in-time table
        x = plain_part(space_8, xi.mid[-1], g)
        dt = space_8.dt
        for k in range(3):
            for atom in space_8.sigma_minus[k]:
                w = sum(space_8.weights[i] for i in atom)
                total = sum(
                    space_8.weights[i]
                    * (xi.mid[-1][i] + dt * sum(g[j][i] for j in range(k, 2)))
                    for i in atom
                )
                assert all(x.mid[k][i] == total / w for i in atom)
        xi_t, _ = shift_barriers(BarrierPair(xi=xi, zeta=p_add(
            xi, constant_process(space_8, 0), kind="predictable")), g)
        for k in range(3):
            assert xi_t.mid[k] == v.sub(xi.mid[k], x.mid[k])


class TestPicard:
    def test_slack_barriers_converge_immediately(self, space_8):
        # xi~ <= 0 <= zeta~: both envelopes stay at zero
        xi_t = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (-1, -2, 0)])
        zeta_t = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (1, 2, 0)])
        j, jbar, trace = picard_coupled(xi_t, zeta_t)
        assert is_zero(j) and is_zero(jbar)
        assert trace.iterations == 1 and trace.converged

    def test_zero_barriers(self, space_8):
        zero = constant_process(space_8, 0)
        j, jbar, trace = picard_coupled(zero, zero)
        assert is_zero(j) and is_zero(jbar)

    def test_monotone_iterates_and_fixed_point(self, space_16):
        rng = random.Random(9)
        for _ in range(4):
            cfg = make_config(
                2, "1/2",
                marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]},
                       {"instant": 2, "labels": ["x", "y"], "probs": ["1/4", "3/4"]}],
                barriers={"kind": "random",
                          "params": {"scale": "2", "left_jumps": "free",
                                     "right_jumps": "free", "touching": True}},
                seed=rng.randint(0, 10**6),
            )
            sc = realize(cfg)
            xi_t, zeta_t = shift_barriers(sc.barriers, sc.g)
            j, jbar, trace = picard_coupled(xi_t, zeta_t)
            assert trace.converged
            assert trace.monotone_violations == 0
            assert trace.fixed_point_residual == 0

    def test_positive_tolerance_early_stop(self):
        cfg = make_config(
            2, "1/2",
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free",
                                 "touching": True}},
            arithmetic="float", seed=81,
        )
        sc = realize(cfg)
        xi_t, zeta_t = shift_barriers(sc.barriers, sc.g)
        _, _, exact = picard_coupled(xi_t, zeta_t, tol=0.0)
        _, _, loose = picard_coupled(xi_t, zeta_t, tol=1e-3)
        assert loose.converged and loose.iterations <= exact.iterations
        assert loose.fixed_point_residual <= 1e-3

    def test_iteration_cap_signals_divergence(self, space_16):
        cfg = make_config(
            2, "1/2",
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]},
                   {"instant": 2, "labels": ["x", "y"], "probs": ["1/4", "3/4"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free"}},
            seed=77,
        )
        sc = realize(cfg)
        xi_t, zeta_t = shift_barriers(sc.barriers, sc.g)
        with pytest.raises(DivergenceError):
            picard_coupled(xi_t, zeta_t, max_iter=1)

    def test_rejects_out_of_order_inputs(self, space_8):
        lo = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (1, 0, 0)])
        hi = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (0, 0, 0)])
        with pytest.raises(ProcessError):
            picard_coupled(lo, hi)


class TestAssemble:
    def test_touching_constant_barriers(self, space_8):
        pair = flat_pair(space_8, [space_8.constant(2)] * 3, [space_8.constant(2)] * 3)
        g = [space_8.zero()] * 2
        sol = solve_driver_process(pair, g)
        assert sup_distance(sol.y, constant_process(space_8, 2)) == 0
        for comp in (sol.m, sol.a, sol.b, sol.a_prime, sol.b_prime):
            assert is_zero(comp)
        assert all(all(x == 0 for x in zk) for zk in sol.z.z)

    def test_unconstrained_case_reduces_to_plain_part(self, space_16):
        rng = random.Random(15)
        g = [rand_on(space_16, space_16.sigma_mid[k], rng) for k in range(2)]
        term = rand_on(space_16, space_16.sigma_minus[2], rng)
        x = plain_part(space_16, term, g)
        wide = constant_process(space_16, 50)
        pair = BarrierPair(
            xi=_with_terminal(p_sub(x, wide, kind="predictable"), term),
            zeta=_with_terminal(p_add(x, wide, kind="predictable"), term),
        )
        sol = solve_driver_process(pair, g)
        assert sup_distance(sol.y, x) == 0
        for comp in (sol.a, sol.b, sol.a_prime, sol.b_prime):
            assert is_zero(comp)

    def test_rejects_non_fixed_point(self, space_8):
        pair = flat_pair(space_8, [space_8.constant(0)] * 3, [space_8.constant(0)] * 3)
        g = [space_8.zero()] * 2
        one = constant_process(space_8, 1)
        with pytest.raises(NotAFixedPointError):
            assemble_solution(one, one, g, pair)

    def test_random_scenarios_verify(self):
        rng = random.Random(19)
        for i in range(6):
            cfg = make_config(
                2, "1/2",
                marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/3", "2/3"]}],
                barriers={"kind": "random",
                          "params": {"scale": "2", "left_jumps": "free",
                                     "right_jumps": "free", "touching": i % 2 == 0}},
                driver={"kind": "table", "params": {"scale": "1"}},
                seed=rng.randint(0, 10**6),
            )
            sc = realize(cfg)
            sol = solve_driver_process(sc.barriers, sc.g)
            rep = verify_drbsde_solution(sc.g, sc.barriers, sol)
            assert rep.passed, rep.failures()
            assert rep.max_residual == 0


def _with_terminal(proc, term):
    mid = [list(x) for x in proc.mid]
    mid[-1] = list(term)
    minus = [list(x) for x in proc.minus]
    return from_slots(proc.space, minus, mid, proc.plus, kind="predictable")


class TestVerifier:
    def test_swapped_reflectors_flagged(self):
        cfg = make_config(
            2, "1/2",
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free",
                                 "touching": True}},
            seed=23,
        )
        sc = realize(cfg)
        sol = solve_driver_process(sc.barriers, sc.g)
        # need a scenario where reflection actually acts somewhere
        assert not (is_zero(sol.a) and is_zero(sol.b) and is_zero(sol.a_prime)
                    and is_zero(sol.b_prime))
        swapped = SolutionSeptuple(y=sol.y, z=sol.z, m=sol.m,
                                   a=sol.a_prime, b=sol.b_prime,
                                   a_prime=sol.a, b_prime=sol.b)
        rep = verify_drbsde_solution(sc.g, sc.barriers, swapped)
        assert not rep.passed
        failed = set(rep.failures())
        assert failed & {"equation_residual", "skorokhod_jump_A", "skorokhod_jump_B",
                         "skorokhod_jump_A_prime", "skorokhod_jump_B_prime",
                         "jump_identities"}

    def test_hand_solved_one_step_scenario(self, space_2):
        """Per-atom hand solution: dt = 1, driver 1/4, lower barrier with a
        left peak (3, -2) at T, upper barrier 1 before T.

        X_0 = 1/4, shifted barriers (-1/4, 3/4); J has value 1/2 at 0 with a
        left-limit (1, 0) at T, Jbar = 0; Y_0 = 3/4, Z = 5/2,
        dA_1 = (1, 0), everything else zero.
        """
        zero = space_2.zero()
        xi = from_slots(space_2, [zero, [F(3), F(-2)]], [zero, [F(2), F(-2)]], [zero],
                        kind="predictable")
        zeta = from_slots(space_2, [space_2.constant(1), [F(3), F(0)]],
                          [space_2.constant(1), [F(2), F(-2)]], [space_2.constant(1)],
                          kind="predictable")
        pair = BarrierPair(xi=xi, zeta=zeta)
        g = [space_2.constant(F(1, 4))]
        sol = solve_driver_process(pair, g)
        assert sol.y.mid[0] == space_2.constant(F(3, 4))
        assert sol.y.mid[1] == [F(2), F(-2)]
        assert sol.y.minus[1] == [F(3), F(-2)]
        assert sol.z.z[0] == space_2.constant(F(5, 2))
        assert sol.a.left_jump(1) == [F(1), F(0)]
        for comp in (sol.m, sol.b, sol.a_prime, sol.b_prime):
            assert is_zero(comp)
        rep = verify_drbsde_solution(g, pair, sol)
        assert rep.passed and rep.max_residual == 0


class TestMarkAtTimeZero:
    def test_solves_and_martingale_jumps_at_zero(self):
        """A mark at t_0 splits F_0 away from the trivial F_{0^-}; the
        orthogonal part may then jump at time zero (M_{0^-} = 0, M_0 != 0)."""
        cfg = make_config(
            1, 1,
            marks=[{"instant": 0, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free",
                                 "touching": True}},
            driver={"kind": "table", "params": {"scale": "1"}},
            seed=3,
        )
        sc = realize(cfg)
        assert len(sc.space.sigma_mid[0]) == 2 and sc.space.sigma_minus[0] == (
            tuple(range(sc.space.n_paths)),)
        sol = solve_driver_process(sc.barriers, sc.g)
        rep = verify_drbsde_solution(sc.g, sc.barriers, sol)
        assert rep.passed, rep.failures()
        jump0 = sol.m.left_jump(0)
        assert any(x != 0 for x in jump0)
        assert sum(w * x for w, x in zip(sc.space.weights, jump0)) == 0


class TestMutualSingularity:
    def test_disjoint_instants(self, space_8):
        zero, one = space_8.zero(), space_8.constant(1)
        p = from_slots(space_8, [zero, zero, one], [zero, one, one], [zero, one],
                       kind="purely-discontinuous-predictable")  # jumps at instant 1
        q = from_slots(space_8, [zero, one, one], [one, one, one], [one, one],
                       kind="purely-discontinuous-predictable")  # jumps at instant 0
        ok, witness = mutually_singular(p, q)
        assert ok
        assert all(cell[0] == "jump" and cell[1] == 1 for cell in witness)
        assert len(witness) == space_8.n_paths

    def test_shared_cell_fails(self, space_8):
        zero, one = space_8.zero(), space_8.constant(1)
        p = from_slots(space_8, [zero, zero, one], [zero, one, one], [zero, one],
                       kind="purely-discontinuous-predictable")
        ok, _ = mutually_singular(p, p)
        assert not ok

    def test_jordan_outputs_always_singular(self):
        rng = random.Random(29)
        for _ in range(5):
            cfg = make_config(
                2, "1/2",
                marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
                barriers={"kind": "random",
                          "params": {"scale": "2", "left_jumps": "free",
                                     "right_jumps": "free", "touching": True}},
                seed=rng.randint(0, 10**6),
            )
            sc = realize(cfg)
            sol = solve_driver_process(sc.barriers, sc.g)
            assert mutually_singular(sol.a, sol.a_prime)[0]
            assert mutually_singular(sol.b, sol.b_prime)[0]


class TestMokobodzki:
    def test_zero_data_gives_zero_certificate(self, space_8):
        pair = flat_pair(space_8, [space_8.zero()] * 3, [space_8.zero()] * 3)
        g = [space_8.zero()] * 2
        h, hbar = mokobodzki_certificate(pair, g)
        assert is_zero(h) and is_zero(hbar)

    def test_unconstrained_certificate_from_plain_solution(self, space_8):
        rng = random.Random(31)
        term = rand_on(space_8, space_8.sigma_minus[2], rng)
        g = [space_8.zero()] * 2
        x = plain_part(space_8, term, g)
        wide = constant_process(space_8, 30)
        pair = BarrierPair(
            xi=_with_terminal(p_sub(x, wide, kind="predictable"), term),
            zeta=_with_terminal(p_add(x, wide, kind="predictable"), term),
        )
        sol = solve_driver_process(pair, g)
        for comp in (sol.a, sol.b, sol.a_prime, sol.b_prime):
            assert is_zero(comp)
        h, hbar = mokobodzki_certificate(pair, g, solution=sol)
        # positive and negative parts of the plain solution
        diff = p_sub(h, hbar, kind="predictable")
        assert sup_distance(diff, sol.y) == 0

    def test_random_scenario_certificate(self):
        cfg = make_config(
            2, "1/2",
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free"}},
            driver={"kind": "table", "params": {"scale": "1"}},
            seed=37,
        )
        sc = realize(cfg)
        sol = solve_driver_process(sc.barriers, sc.g)
        h, hbar = mokobodzki_certificate(sc.barriers, sc.g, solution=sol)
        for proc in (h, hbar):
            assert is_predictable_strong_supermartingale(proc)
            assert sup_distance(snell_bruteforce(proc), proc) == 0
        diff = p_sub(h, hbar, kind="predictable")
        n = sc.space.n_steps
        for k in range(n + 1):
            assert all(a <= d <= b for a, d, b in
                       zip(sc.barriers.xi.mid[k], diff.mid[k], sc.barriers.zeta.mid[k]))
            assert all(a <= d <= b for a, d, b in
                       zip(sc.barriers.xi.minus[k], diff.minus[k], sc.barriers.zeta.minus[k]))
            if k < n:
                assert all(a <= d <= b for a, d, b in
                           zip(sc.barriers.xi.plus[k], diff.plus[k], sc.barriers.zeta.plus[k]))


class TestMinimality:
    def _solved(self, seed=41):
        cfg = make_config(
            2, "1/2",
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free"}},
            seed=seed,
        )
        sc = realize(cfg)
        xi_t, zeta_t = shift_barriers(sc.barriers, sc.g)
        j, jbar, _ = picard_coupled(xi_t, zeta_t)
        return sc, xi_t, zeta_t, j, jbar

    def test_fixed_point_dominates_itself(self):
        _, xi_t, zeta_t, j, jbar = self._solved()
        assert minimality_check(j, jbar, j, jbar, xi_t, zeta_t)

    def test_shifted_pair(self):
        sc, xi_t, zeta_t, j, jbar = self._solved()
        one = constant_process(sc.space, 1)
        assert minimality_check(j, jbar, p_add(j, one, kind="predictable"),
                                p_add(jbar, one, kind="predictable"), xi_t, zeta_t)

    def test_random_dominating_pairs(self):
        sc, xi_t, zeta_t, j, jbar = self._solved()
        rng = random.Random(43)
        for _ in range(10):
            s = random_nonneg_pss(sc.space, rng)
            h = p_add(j, s, kind="predictable")
            hbar = p_add(jbar, s, kind="predictable")
            assert minimality_check(j, jbar, h, hbar, xi_t, zeta_t)

    def test_precondition_violation_reported(self):
        sc, xi_t, zeta_t, j, jbar = self._solved()
        bad = p_sub(j, constant_process(sc.space, 100), kind="predictable")
        with pytest.raises(ProcessError):
            minimality_check(j, jbar, bad, jbar, xi_t, zeta_t)
