"""Ladlag slot calculus: projections, jumps, martingale tests, decomposition."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import (
    bracket,
    brownian_process,
    predictable_projection,
    rand_on,
    random_martingale,
    random_predictable,
)
from pdrbsde import values as v
from pdrbsde.prob_space import cond_expect, expectation, on_paths
from pdrbsde.processes import (
    ProcessError,
    constant_process,
    from_cadlag_sequence,
    from_slots,
    is_predictable_strong_supermartingale,
    ito_integral,
    orthogonal_decompose,
    running_sum,
    sup_distance,
    validate_process,
)

F = Fraction


def compensated_mark_martingale(space, instant=1, hi=F(1), lo=F(-1)):
    """Mark-driven jump at one instant, compensated to zero conditional mean."""
    n = space.n_steps
    labels = on_paths(space, space.mark_rows[instant])
    raw = [hi if lab == labels[0] else lo for lab in labels]
    jump = v.sub(raw, cond_expect(space, raw, space.sigma_minus[instant]))
    minus, mid, plus = [space.zero()], [], []
    cur = space.zero()
    for k in range(n + 1):
        if k == instant:
            cur = v.add(cur, jump)
        mid.append(cur)
        if k < n:
            plus.append(cur)
            minus.append(cur)
    m = from_slots(space, minus, mid, plus)
    validate_process(m, "cadlag-martingale")
    return m


class TestPredictableProjection:
    def test_predictable_input_fixed(self, space_8):
        xi = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (1, 4, 2)])
        proj = predictable_projection(xi)
        assert sup_distance(proj, xi) == 0

    def test_mark_jump_projects_to_left_limit(self, space_4):
        m = compensated_mark_martingale(space_4)
        proj = predictable_projection(m)
        assert proj.mid[1] == m.minus[1]

    def test_matches_atom_averages(self, space_8):
        rng = random.Random(3)
        n = space_8.n_steps
        mid = [rand_on(space_8, space_8.sigma_mid[k], rng) for k in range(n + 1)]
        plus = [rand_on(space_8, space_8.sigma_mid[k], rng) for k in range(n)]
        minus = [rand_on(space_8, space_8.sigma_minus[k], rng) for k in range(n + 1)]
        minus[0] = list(mid[0])
        # force slot_minus[0] = slot_mid[0] on the optional process
        mid[0] = list(minus[0])
        x = from_slots(space_8, minus, mid, plus)
        proj = predictable_projection(x)
        for k in range(n + 1):
            # oracle: per-atom weighted averages, computed directly
            for atom in space_8.sigma_minus[k]:
                w = sum(space_8.weights[i] for i in atom)
                avg = sum(space_8.weights[i] * x.mid[k][i] for i in atom) / w
                assert all(proj.mid[k][i] == avg for i in atom)
            if k < n:
                for atom in space_8.sigma_minus[k]:
                    w = sum(space_8.weights[i] for i in atom)
                    avg = sum(space_8.weights[i] * x.plus[k][i] for i in atom) / w
                    assert all(proj.plus[k][i] == avg for i in atom)


class TestJumps:
    def test_cadlag_has_no_right_jumps(self, space_8):
        xi = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (1, 4, 2)])
        assert all(all(x == 0 for x in v.entries(xi.right_jump(k))) for k in range(2))
        assert xi.left_jump(1) == space_8.constant(3)

    def test_constant_has_no_jumps(self, space_8):
        c = constant_process(space_8, 5)
        assert all(all(x == 0 for x in v.entries(c.left_jump(k))) for k in range(3))
        assert all(all(x == 0 for x in v.entries(c.right_jump(k))) for k in range(2))

    def test_single_jump_process(self, space_8):
        zero = space_8.zero()
        one = space_8.constant(1)
        b = from_slots(
            space_8,
            [zero, zero, one],
            [zero, one, one],
            [zero, one],
        )
        assert b.left_jump(1) == one
        assert b.left_jump(0) == zero and b.left_jump(2) == zero


class TestIsMartingale:
    """The cadlag-martingale class of ``validate_process``."""

    def test_brownian(self, space_16):
        validate_process(brownian_process(space_16), "cadlag-martingale")

    def test_drift_breaks_it(self, space_16):
        w = brownian_process(space_16)
        n = space_16.n_steps
        drift = from_cadlag_sequence(
            space_16, [space_16.constant(Fraction(k) * space_16.t_horizon / n)
                       for k in range(n + 1)]
        )
        bad = from_slots(
            space_16,
            [v.add(w.minus[k], drift.minus[k]) for k in range(n + 1)],
            [v.add(w.mid[k], drift.mid[k]) for k in range(n + 1)],
            [v.add(w.plus[k], drift.plus[k]) for k in range(n)],
        )
        with pytest.raises(ProcessError, match="martingale increment conditions violated"):
            validate_process(bad, "cadlag-martingale")

    def test_compensated_mark_jump(self, space_4):
        # oracle: construct eta-driven jumps minus their conditional means
        m = compensated_mark_martingale(space_4, hi=F(3), lo=F(-2))
        validate_process(m, "cadlag-martingale")

    def test_random_martingales(self, space_16):
        rng = random.Random(11)
        for _ in range(5):
            validate_process(random_martingale(space_16, rng), "cadlag-martingale")


def _pss_checked(y) -> bool:
    """The slot inequalities, asserted to agree with the enumeration oracle:
    y is a predictable strong supermartingale iff it is its own Snell envelope."""
    from pdrbsde.snell import snell_bruteforce

    fast = is_predictable_strong_supermartingale(y)
    assert fast == (sup_distance(snell_bruteforce(y), y) == 0)
    return fast


class TestSupermartingale:
    def test_constant(self, space_8):
        assert _pss_checked(constant_process(space_8, 2))

    def test_increasing_deterministic_fails(self, space_8):
        xi = from_cadlag_sequence(space_8, [space_8.constant(k) for k in range(3)])
        assert not _pss_checked(xi)

    def test_pre_output_is_supermartingale(self, space_8):
        from pdrbsde.snell import snell_envelope_slots

        rng = random.Random(4)
        for _ in range(5):
            y = snell_envelope_slots(random_predictable(space_8, rng))
            assert _pss_checked(y)

    def test_fast_path_agrees_with_enumeration_on_negatives(self, space_8):
        rng = random.Random(9)
        seen_false = 0
        for _ in range(10):
            y = random_predictable(space_8, rng)
            if not _pss_checked(y):
                seen_false += 1
        assert seen_false > 0


class TestItoIntegral:
    def test_zero_integrand(self, space_8):
        z = [space_8.zero() for _ in range(2)]
        assert sup_distance(ito_integral(space_8, z), constant_process(space_8, 0)) == 0

    def test_unit_integrand_is_brownian(self, space_8):
        ones = [space_8.constant(1) for _ in range(2)]
        w = ito_integral(space_8, ones)
        assert sup_distance(w, brownian_process(space_8)) == 0
        assert w.mid[2] == tuple(a + b for a, b in zip(space_8.dw[0], space_8.dw[1]))

    def test_random_integrand_martingale_and_bracket(self, space_16):
        rng = random.Random(21)
        z = [rand_on(space_16, space_16.sigma_mid[k], rng) for k in range(2)]
        i = ito_integral(space_16, z)
        validate_process(i, "cadlag-martingale")
        br = bracket(i, brownian_process(space_16))
        # oracle: direct summation of z dt over elapsed intervals
        for k in range(space_16.n_steps + 1):
            expected = space_16.zero()
            for j in range(k):
                expected = v.add(expected, v.smul(space_16.dt, z[j]))
            assert v.eq(br.mid[k], expected)


class TestOrthogonalDecompose:
    def test_pure_integral_returns_itself(self, space_8):
        rng = random.Random(2)
        z0 = [rand_on(space_8, space_8.sigma_mid[k], rng) for k in range(2)]
        z, rest = orthogonal_decompose(ito_integral(space_8, z0))
        assert all(v.eq(z[k], z0[k]) for k in range(2))
        assert sup_distance(rest, constant_process(space_8, 0)) == 0

    def test_mark_jump_martingale_is_fully_orthogonal(self, space_4):
        m = compensated_mark_martingale(space_4)
        z, rest = orthogonal_decompose(m)
        assert all(all(x == 0 for x in v.entries(zk)) for zk in z)
        assert sup_distance(rest, m) == 0

    def test_mixed_martingale_exact_reconstruction(self, space_16):
        rng = random.Random(13)
        for _ in range(5):
            m = random_martingale(space_16, rng)
            z, rest = orthogonal_decompose(m)
            recon = from_slots(
                space_16,
                [v.add(ito_integral(space_16, z).minus[k], rest.minus[k]) for k in range(3)],
                [v.add(ito_integral(space_16, z).mid[k], rest.mid[k]) for k in range(3)],
                [v.add(ito_integral(space_16, z).plus[k], rest.plus[k]) for k in range(2)],
            )
            assert sup_distance(recon, m) == 0
            br = bracket(rest, brownian_process(space_16))
            assert all(all(x == 0 for x in br.mid[k]) for k in range(3))
            # orthogonal part carries only instant jumps
            assert all(all(x == 0 for x in v.entries(rest.interval_increment(k))) for k in range(2))

    def test_involution(self, space_16):
        rng = random.Random(17)
        m = random_martingale(space_16, rng)
        z1, n1 = orthogonal_decompose(m)
        rebuilt = from_slots(
            space_16,
            [v.add(ito_integral(space_16, z1).minus[k], n1.minus[k]) for k in range(3)],
            [v.add(ito_integral(space_16, z1).mid[k], n1.mid[k]) for k in range(3)],
            [v.add(ito_integral(space_16, z1).plus[k], n1.plus[k]) for k in range(2)],
        )
        z2, n2 = orthogonal_decompose(rebuilt)
        assert all(z1[k] == z2[k] for k in range(2))
        assert sup_distance(n1, n2) == 0

    def test_rejects_non_martingale(self, space_8):
        xi = from_cadlag_sequence(space_8, [space_8.constant(c) for c in (0, 1, 2)])
        with pytest.raises(ProcessError, match="martingale increment conditions violated"):
            orthogonal_decompose(xi)


class TestBracket:
    def test_brownian_bracket_is_time(self, space_16):
        w = brownian_process(space_16)
        br = bracket(w, w)
        for k in range(space_16.n_steps + 1):
            t_k = Fraction(k) * space_16.t_horizon / space_16.n_steps
            assert v.eq(br.mid[k], space_16.constant(t_k))

    def test_bracket_with_zero(self, space_8):
        w = brownian_process(space_8)
        br = bracket(w, constant_process(space_8, 0))
        assert all(all(x == 0 for x in br.mid[k]) for k in range(3))

    def test_disjoint_increment_supports(self, space_4):
        # oracle: integral moves on intervals, mark martingale at instants
        rng = random.Random(7)
        z = [rand_on(space_4, space_4.sigma_mid[0], rng)]
        m = compensated_mark_martingale(space_4)
        br = bracket(ito_integral(space_4, z), m)
        assert all(all(x == 0 for x in br.mid[k]) for k in range(2))

    def test_expected_bracket_is_second_moment(self, space_16):
        rng = random.Random(23)
        for _ in range(8):
            m = random_martingale(space_16, rng)
            lhs = expectation(space_16, bracket(m, m).mid[-1])
            rhs = expectation(space_16, [x * x for x in m.mid[-1]])
            assert lhs == rhs


class TestRunningSum:
    @pytest.mark.parametrize("moves", [
        ("left",),
        ("left", "interval"),
        ("interval",),
        ("right", "start"),
        ("left", "right", "interval", "start"),
    ], ids="+".join)
    def test_moves_by_exactly_its_rows(self, space_16, moves):
        rng = random.Random(len(moves))
        n = space_16.n_steps
        rows = {
            "left": [rand_on(space_16, space_16.sigma_minus[k], rng) for k in range(n + 1)],
            "right": [rand_on(space_16, space_16.sigma_mid[k], rng) for k in range(n)],
            "interval": [rand_on(space_16, space_16.sigma_minus[k + 1], rng) for k in range(n)],
            "start": rand_on(space_16, space_16.sigma_minus[0], rng),
        }
        given = {name: rows[name] for name in moves}
        p = running_sum(space_16, **given)
        zero = space_16.zero()
        assert v.eq(p.minus[0], given.get("start", zero))
        for k in range(n + 1):
            assert v.eq(p.left_jump(k), rows["left"][k] if "left" in given else zero)
        for k in range(n):
            assert v.eq(p.right_jump(k), rows["right"][k] if "right" in given else zero)
            assert v.eq(p.interval_increment(k),
                        rows["interval"][k] if "interval" in given else zero)


class TestClassValidation:
    def test_rejects_unknown_class(self, space_8):
        with pytest.raises(ProcessError, match="unknown"):
            validate_process(constant_process(space_8, 0), "adapted")

    def test_b_class_needs_zero_start(self, space_8):
        one = space_8.constant(1)
        with pytest.raises(ProcessError):
            validate_process(from_slots(space_8, [one, one, one], [one, one, one], [one, one]),
                             "purely-discontinuous-predictable")

    def test_b_class_may_jump_at_zero(self, space_8):
        zero, one = space_8.zero(), space_8.constant(1)
        b = from_slots(space_8, [zero, one, one], [one, one, one], [one, one])
        validate_process(b, "purely-discontinuous-predictable")
        assert b.left_jump(0) == one

    def test_fv_class_rejects_negative_increment(self, space_8):
        zero, one = space_8.zero(), space_8.constant(1)
        with pytest.raises(ProcessError):
            validate_process(from_slots(space_8, [zero, one, one], [zero, one, zero], [zero, one]),
                             "finite-variation-predictable")
