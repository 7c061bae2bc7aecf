"""The Pre operator: dynamic program, enumeration oracle, Mertens parts."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MARK_HALF,
    make_space,
    rand_on,
    random_nonneg_pss,
    random_predictable,
    stopping_rule_count,
    verify_pre_solution,
)
from pdrbsde import values as v
from pdrbsde.prob_space import on_paths
from pdrbsde.processes import (
    constant_process,
    from_cadlag_sequence,
    from_slots,
    is_predictable_strong_supermartingale,
    p_add,
    sup_distance,
)
from pdrbsde.snell import (
    RbsdeQuintuple,
    SnellEnumerationError,
    mertens_decompose,
    pre_operator,
    snell_bruteforce,
    snell_envelope_slots,
)

F = Fraction


def is_zero(proc) -> bool:
    n = proc.n_steps
    return all(all(x == 0 for x in proc.mid[k]) for k in range(n + 1)) and all(
        all(x == 0 for x in proc.minus[k]) for k in range(n + 1)
    )


class TestPreOperator:
    def test_constant_barrier(self, space_8):
        q = pre_operator(constant_process(space_8, F(5, 2)))
        assert sup_distance(q.y, constant_process(space_8, F(5, 2))) == 0
        assert all(all(x == 0 for x in v.entries(zk)) for zk in q.z)
        assert is_zero(q.m) and is_zero(q.a) and is_zero(q.b)

    def test_deterministic_barrier_running_max(self, space_8):
        xi = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (1, 3, 2)])
        q = pre_operator(xi)
        # max over remaining instants: (3, 3, 2)
        for k, want in enumerate((3, 3, 2)):
            assert v.eq(q.y.mid[k], space_8.constant(want))

    def test_two_step_random_barrier_frozen_oracle(self):
        """Values computed independently with the stopping-rule enumeration
        and re-derived by hand from the per-atom averages."""
        space = make_space(2, "1/2",
                           marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}])
        rng = random.Random(101)
        xi = random_predictable(space, rng)
        q = pre_operator(xi)
        assert v.eq(q.y.mid[0], space.constant(3))
        assert [str(x) for x in q.y.mid[1]] == ["2"] * 4 + ["3"] * 4
        assert q.y.mid[2] == xi.mid[2]
        assert [str(x) for x in q.y.plus[1]] == ["2"] * 4 + ["13/4", "13/4", "5/4", "5/4"]
        assert [str(x) for x in q.y.minus[2]] == ["0", "4", "-1", "-1/2", "3", "7/2", "-1", "7/2"]
        assert sup_distance(q.y, snell_bruteforce(xi)) == 0

    def test_quintuple_verifies(self, space_16):
        rng = random.Random(6)
        for _ in range(5):
            xi = random_predictable(space_16, rng)
            q = pre_operator(xi)
            rep = verify_pre_solution(xi, q)
            assert rep.passed, rep.failures()
            assert is_predictable_strong_supermartingale(q.y)


class TestBruteForce:
    def test_terminal_instant_returns_barrier(self, space_2):
        rng = random.Random(1)
        xi = random_predictable(space_2, rng)
        env = snell_bruteforce(xi)
        assert env.mid[-1] == xi.mid[-1]

    def test_constant(self, space_8):
        env = snell_bruteforce(constant_process(space_8, 4))
        assert sup_distance(env, constant_process(space_8, 4)) == 0

    def test_agrees_with_dynamic_program_everywhere(self, space_16):
        rng = random.Random(8)
        for _ in range(10):
            xi = random_predictable(space_16, rng)
            assert sup_distance(snell_envelope_slots(xi), snell_bruteforce(xi)) == 0

    def test_rejects_large_spaces(self):
        space = make_space(3, "3/4", arithmetic="float")
        xi = constant_process(space, 0)
        big = make_space(7, "7/16", arithmetic="float")
        with pytest.raises(SnellEnumerationError):
            snell_bruteforce(constant_process(big, 0))
        assert stopping_rule_count(space) == 2707  # hand-recursed tree count


class TestOperatorProperties:
    def test_monotone(self, space_8):
        rng = random.Random(12)
        for _ in range(5):
            xi = random_predictable(space_8, rng)
            bump = from_slots(
                space_8,
                [rand_on(space_8, space_8.sigma_minus[k], rng, signed=False) for k in range(3)],
                [rand_on(space_8, space_8.sigma_minus[k], rng, signed=False) for k in range(3)],
                [rand_on(space_8, space_8.sigma_mid[k], rng, signed=False) for k in range(2)],
            )
            xi2 = p_add(xi, bump)
            y1, y2 = snell_envelope_slots(xi), snell_envelope_slots(xi2)
            for k in range(3):
                assert all(a <= b for a, b in zip(y1.mid[k], y2.mid[k]))

    def test_dominates(self, space_8):
        rng = random.Random(14)
        xi = random_predictable(space_8, rng)
        y = snell_envelope_slots(xi)
        for k in range(3):
            assert all(a >= b for a, b in zip(y.mid[k], xi.mid[k]))
            assert all(a >= b for a, b in zip(y.minus[k], xi.minus[k]))
            if k < 2:
                assert all(a >= b for a, b in zip(y.plus[k], xi.plus[k]))

    def test_idempotent_on_supermartingales(self, space_8):
        rng = random.Random(16)
        for _ in range(5):
            h = random_nonneg_pss(space_8, rng)
            assert sup_distance(snell_envelope_slots(h), h) == 0

    def test_minimality_against_random_dominators(self, space_8):
        rng = random.Random(18)
        xi = random_predictable(space_8, rng)
        y = snell_envelope_slots(xi)
        for _ in range(5):
            h = p_add(y, random_nonneg_pss(space_8, rng))
            # h is a supermartingale dominating xi; the envelope sits below it
            assert is_predictable_strong_supermartingale(h)
            assert sup_distance(snell_bruteforce(h), h) == 0
            for k in range(3):
                assert all(a <= b for a, b in zip(y.mid[k], h.mid[k]))


def _barrier_from_ints(space, nums) -> "LadlagProcess":
    """Consume integers atom by atom into the slot layout of a predictable
    process on the one-step mark space (6 degrees of freedom)."""
    it = iter(nums)

    def draw(partition):
        return [Fraction(next(it), 2) for _ in range(len(partition))]

    mid = [draw(space.sigma_minus[0]), draw(space.sigma_minus[1])]
    minus = [list(mid[0]), draw(space.sigma_minus[1])]
    plus = [draw(space.sigma_mid[0])]
    return from_slots(space, minus, mid, plus)


class TestOperatorLaws:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-12, 12), min_size=6, max_size=6),
           st.lists(st.integers(0, 8), min_size=6, max_size=6))
    def test_domination_monotonicity_idempotence(self, base, bump):
        space = make_space(1, 1, marks=[MARK_HALF])
        xi = _barrier_from_ints(space, base)
        xi_up = _barrier_from_ints(space, [a + b for a, b in zip(base, bump)])
        y, y_up = snell_envelope_slots(xi), snell_envelope_slots(xi_up)
        for k in range(2):
            assert all(a >= b for a, b in zip(y.mid[k], xi.mid[k]))
            assert all(a >= b for a, b in zip(y.minus[k], xi.minus[k]))
            assert all(a <= b for a, b in zip(y.mid[k], y_up.mid[k]))
        assert all(a >= b for a, b in zip(y.plus[0], xi.plus[0]))
        # the envelope is itself a fixed point of the operator
        assert sup_distance(snell_envelope_slots(y), y) == 0


class TestGridRecursionComparison:
    """The slot grid offers strictly more stopping opportunities than the
    instants alone: a step barrier holds its level across the interval while
    information keeps flowing, so stopping just before the next instant can
    beat any grid-only rule (the familiar gap between continuous-exercise and
    instant-exercise stopping).  For deterministic barriers the extra
    information is worthless and the two values coincide."""

    def _grid_only(self, space, mids):
        from pdrbsde.prob_space import cond_expect

        out = [None] * len(mids)
        out[-1] = mids[-1]
        for k in range(len(mids) - 2, -1, -1):
            cont = cond_expect(space, out[k + 1], space.sigma_minus[k])
            out[k] = v.vmax(mids[k], cont)
        return out

    def test_slot_value_dominates_grid_only_recursion(self):
        space = make_space(2, "1/2", marks=[
            {"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]},
            {"instant": 2, "labels": ["x", "y"], "probs": ["1/4", "3/4"]},
        ])
        rng = random.Random(55)
        saw_strict = False
        for _ in range(10):
            mids = [rand_on(space, space.sigma_minus[k], rng) for k in range(3)]
            y = snell_envelope_slots(from_cadlag_sequence(space, mids))
            grid_only = self._grid_only(space, mids)
            for k in range(3):
                assert all(a >= b for a, b in zip(y.mid[k], on_paths(space, grid_only[k])))
            if any(a > b for k in range(3)
                   for a, b in zip(y.mid[k], on_paths(space, grid_only[k]))):
                saw_strict = True
        assert saw_strict

    def test_deterministic_step_barriers_coincide(self):
        space = make_space(2, "1/2", marks=[
            {"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]},
        ])
        rng = random.Random(57)
        for _ in range(10):
            mids = [space.constant(Fraction(rng.randint(-12, 12), 4)) for _ in range(3)]
            y = snell_envelope_slots(from_cadlag_sequence(space, mids))
            grid_only = self._grid_only(space, mids)
            for k in range(3):
                assert v.eq(y.mid[k], grid_only[k])


class TestMertens:
    def test_martingale_left_limits_has_no_compensators(self, space_16):
        from conftest import random_martingale

        rng = random.Random(31)
        m = random_martingale(space_16, rng)
        n = space_16.n_steps
        # predictable version: value at t_k is the martingale's left limit
        shifted = from_slots(
            space_16,
            [list(m.minus[k]) for k in range(n + 1)],
            [list(m.minus[k]) for k in range(n + 1)],
            [list(m.mid[k]) for k in range(n)],
        )
        nart, a, b = mertens_decompose(shifted)
        assert is_zero(a) and is_zero(b)
        # N is pinned through its left limits only; its terminal jump is
        # canonically zero, so compare everything up to T^-.
        for k in range(n + 1):
            assert nart.minus[k] == m.minus[k]
        for k in range(n):
            assert nart.mid[k] == m.mid[k]
            assert nart.plus[k] == m.plus[k]

    def test_deterministic_nonincreasing(self, space_8):
        vproc = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (5, 3, 2)])
        nart, a, b = mertens_decompose(vproc)
        assert is_zero(b)
        assert v.eq(a.mid[1], space_8.constant(2)) and v.eq(a.mid[2], space_8.constant(3))
        for k in range(3):
            assert v.eq(nart.mid[k], space_8.constant(5))

    def test_matches_pre_operator_extraction_and_unique(self, space_16):
        rng = random.Random(33)
        xi = random_predictable(space_16, rng)
        q = pre_operator(xi)
        nart, a, b = mertens_decompose(q.y)
        assert sup_distance(a, q.a) == 0
        assert sup_distance(b, q.b) == 0
        # V = N_{.-} - A - B_{.-} slot for slot
        for k in range(3):
            lhs = v.sub(v.sub(nart.minus[k], a.mid[k]), b.minus[k])
            assert v.eq(lhs, q.y.mid[k])
        # re-decomposition returns identical parts
        nart2, a2, b2 = mertens_decompose(q.y)
        assert sup_distance(nart, nart2) == 0
        assert sup_distance(a, a2) == 0 and sup_distance(b, b2) == 0

    def test_rejects_non_supermartingale(self, space_8):
        rising = from_cadlag_sequence(space_8, [space_8.constant(k) for k in range(3)])
        with pytest.raises(Exception):
            mertens_decompose(rising)


class TestVerifyRbsde:
    def test_pre_output_passes_with_zero_residual(self, space_8):
        rng = random.Random(41)
        xi = random_predictable(space_8, rng)
        rep = verify_pre_solution(xi, pre_operator(xi))
        assert rep.passed and rep.max_residual == 0

    def test_perturbed_value_flagged(self, space_8):
        rng = random.Random(43)
        xi = random_predictable(space_8, rng)
        q = pre_operator(xi)
        bad_mid = [list(x) for x in q.y.mid]
        bad_mid[1] = v.add(bad_mid[1], space_8.constant(1))
        bad_y = from_slots(space_8, q.y.minus, bad_mid, q.y.plus)
        rep = verify_pre_solution(xi, replace(q, y=bad_y))
        assert not rep.passed
        assert not rep.condition("equation_residual").passed

    def test_hand_built_one_step_quintuple(self, space_2):
        """Solved by hand per atom: barrier 0 at t_0, (2, -2) at t_1 with a
        left peak (3, -2); value 1/2 at t_0, left reflection eats the peak."""
        zero, half = space_2.zero(), space_2.constant(F(1, 2))
        xi = from_slots(space_2, [zero, [F(3), F(-2)]], [zero, [F(2), F(-2)]], [zero])
        y = from_slots(space_2, [half, [F(3), F(-2)]], [half, [F(2), F(-2)]], [half])
        a = from_slots(space_2, [zero, zero], [zero, [F(1), F(0)]], [zero])
        b = from_slots(space_2, [zero, zero], [zero, zero], [zero])
        z = [space_2.constant(F(5, 2))]
        m = constant_process(space_2, 0)
        rep = verify_pre_solution(xi, RbsdeQuintuple(y=y, z=z, m=m, a=a, b=b))
        assert rep.passed, rep.failures()
        # and the solver reproduces exactly the hand solution
        q = pre_operator(xi)
        assert sup_distance(q.y, y) == 0
        assert q.z[0] == z[0]
        assert sup_distance(q.a, a) == 0

