"""Change-of-variables identity and the a-priori estimates."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

from conftest import make_config, make_space, picard_solution
from pdrbsde import values as v
from pdrbsde.calculus_checks import (
    OptionalSemimartingale,
    Polynomial,
    apriori_estimate_check,
    galchouk_lenglart_check,
    random_polynomial,
    random_semimartingale,
)
from pdrbsde.drbsde import solve_driver_process
from pdrbsde.prob_space import on_paths
from pdrbsde.scenario import perturb_driver, realize

F = Fraction


def semimartingale_from_weights(space, weights: Sequence) -> OptionalSemimartingale:
    """Deterministic finite-variation component with values weights[k] at t_k.

    Carries its whole variation on the intervals, like e^{beta t}.
    """
    n = space.n_steps
    zero = space.zero()
    wvals = [space.constant(w) for w in weights]
    return OptionalSemimartingale(
        space=space,
        x0=wvals[0],
        m_interval=(zero,) * n,
        m_jump=(zero,) * n,
        a_jump=(zero,) * (n + 1),
        a_interval=tuple(v.sub(wvals[k + 1], wvals[k]) for k in range(n)),
        b_jump=(zero,) * n,
    )


def weighted_square(y: OptionalSemimartingale, weights: Sequence):
    """The change of variables of w_t Y_t^2 for a deterministic weight
    sequence: F = x y^2 on the components (w, Y).  The weight's share of the
    dA integral is the corollary's drift term."""
    wproc = semimartingale_from_weights(y.space, weights)
    return galchouk_lenglart_check([wproc, y], Polynomial.from_dict(2, {(1, 2): F(1)}))


class TestPolynomial:
    def test_eval_and_partials(self):
        f = Polynomial.from_dict(2, {(1, 2): F(1)})  # x y^2
        assert f(F(2), F(3)) == 18
        assert f.partial(0)(F(2), F(3)) == 9      # y^2
        assert f.partial(1)(F(2), F(3)) == 12     # 2 x y


class TestChangeOfVariables:
    def test_linear_function_telescopes(self, space_8):
        rng = random.Random(2)
        comps = [random_semimartingale(space_8, rng) for _ in range(2)]
        f = Polynomial.from_dict(2, {(1, 0): F(3), (0, 1): F(-2), (0, 0): F(7)})
        rep = galchouk_lenglart_check(comps, f)
        assert rep.max_deviation == 0
        # corrections vanish for affine functions
        assert all(all(x == 0 for x in v.entries(arr)) for arr in rep.terms["left_jump_sum"])
        assert all(all(x == 0 for x in v.entries(arr)) for arr in rep.terms["right_jump_sum"])

    def test_constant_component(self, space_8):
        zero = space_8.zero()
        const = OptionalSemimartingale(
            space=space_8, x0=space_8.constant(4),
            m_interval=(zero, zero), m_jump=(zero, zero),
            a_jump=(zero, zero, zero), a_interval=(zero, zero), b_jump=(zero, zero),
        )
        f = Polynomial.from_dict(1, {(3,): F(1)})
        rep = galchouk_lenglart_check([const], f)
        assert rep.max_deviation == 0
        assert all(all(x == 0 for x in v.entries(lh)) for lh in rep.lhs)

    def test_weight_times_square_matches_corollary(self, space_8):
        rng = random.Random(4)
        y = random_semimartingale(space_8, rng)
        weights = [F(5, 4) ** k for k in range(space_8.n_steps + 1)]
        rep = weighted_square(y, weights)
        assert rep.max_deviation == 0
        # the left-hand side is w_k Y_k^2 - w_0 Y_0^2
        _, mid, _ = y.states()
        start = v.smul(weights[0], v.mul(mid[0], mid[0]))
        for k in range(space_8.n_steps + 1):
            assert rep.lhs[k] == v.sub(v.smul(weights[k], v.mul(mid[k], mid[k])), start)

    def test_randomized_trials_exact(self):
        rng = random.Random(8)
        for trial in range(40):
            n_steps, horizon = rng.choice([(1, "1"), (1, "4"), (2, "1/2"), (2, "2")])
            space = make_space(n_steps, horizon,
                               marks=[{"instant": 1, "labels": ["a", "b"],
                                       "probs": ["1/2", "1/2"]}] if rng.random() < 0.5 else [])
            n_vars = rng.choice([1, 2, 3])
            comps = [random_semimartingale(space, rng) for _ in range(n_vars)]
            poly = random_polynomial(rng, n_vars)
            assert galchouk_lenglart_check(comps, poly).max_deviation == 0


class TestCorollary:
    def test_zero_process(self, space_8):
        zero = space_8.zero()
        y = OptionalSemimartingale(
            space=space_8, x0=zero,
            m_interval=(zero, zero), m_jump=(zero, zero),
            a_jump=(zero, zero, zero), a_interval=(zero, zero), b_jump=(zero, zero),
        )
        rep = weighted_square(y, [F(2) ** k for k in range(3)])
        assert rep.max_deviation == 0
        assert all(all(x == 0 for x in v.entries(arr)) for arr in rep.terms["dA_integral"])
        assert all(all(x == 0 for x in v.entries(arr)) for arr in rep.lhs)

    def test_constant_process_only_drift(self, space_8):
        zero = space_8.zero()
        c = F(3)
        y = OptionalSemimartingale(
            space=space_8, x0=space_8.constant(c),
            m_interval=(zero, zero), m_jump=(zero, zero),
            a_jump=(zero, zero, zero), a_interval=(zero, zero), b_jump=(zero, zero),
        )
        weights = [F(1), F(2), F(4)]
        rep = weighted_square(y, weights)
        assert rep.max_deviation == 0
        for k in range(3):
            # lhs = c^2 (w_k - w_0), carried entirely by the weight's dA share
            assert rep.lhs[k] == space_8.constant(c * c * (weights[k] - 1))
            assert rep.terms["dA_integral"][k] == rep.lhs[k]
            for name in ("dBM_integral", "bracket", "left_jump_sum", "right_jump_sum"):
                assert all(x == 0 for x in v.entries(rep.terms[name][k]))

    def test_solution_difference_identity_float(self):
        cfg = make_config(
            2, "1/2",
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free"}},
            driver={"kind": "table", "params": {"scale": "1"}},
            arithmetic="float", seed=61,
        )
        sc = realize(cfg)
        s1 = solve_driver_process(sc.barriers, sc.g_rows)
        g2 = perturb_driver(sc.space, sc.g_rows, seed=99)
        s2 = solve_driver_process(sc.barriers, g2)
        space = sc.space
        gd = [v.sub(sc.g_rows[k], g2[k]) for k in range(2)]
        yd = OptionalSemimartingale(
            space=space,
            x0=v.sub(s1.y.mid[0], s2.y.mid[0]),
            m_interval=tuple(
                v.sub(v.sub(s1.y.interval_increment(k), s2.y.interval_increment(k)),
                      v.add(v.smul(-space.dt, gd[k]),
                            v.sub(_net_a_int(s1, k), _net_a_int(s2, k))))
                for k in range(2)
            ),
            m_jump=tuple(
                v.sub(s1.m.left_jump(k), s2.m.left_jump(k)) for k in range(2)
            ),
            a_jump=tuple(
                v.add(v.smul(-1, v.sub(_net_a_jump(s1, k), _net_a_jump(s2, k))),
                      space.zero())
                for k in range(3)
            ),
            a_interval=tuple(
                v.add(v.smul(-space.dt, v.smul(-1, gd[k])),
                      v.smul(-1, v.sub(_net_a_int(s1, k), _net_a_int(s2, k))))
                for k in range(2)
            ),
            b_jump=tuple(
                v.smul(-1, v.sub(_net_b_jump(s1, k), _net_b_jump(s2, k)))
                for k in range(2)
            ),
        )
        rep = weighted_square(yd, [math.exp(5.0 * space.time_float(k)) for k in range(3)])
        assert rep.max_deviation <= 1e-10


def _net_a_int(sol, k):
    return v.sub(sol.a.interval_increment(k), sol.a_prime.interval_increment(k))


def _net_a_jump(sol, k):
    return v.sub(sol.a.left_jump(k), sol.a_prime.left_jump(k))


def _net_b_jump(sol, k):
    return v.sub(sol.b.left_jump(k), sol.b_prime.left_jump(k))


class TestAprioriEstimate:
    def _scenario(self, arithmetic="float", seed=71):
        return make_config(
            2, "1/2",
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free"}},
            driver={"kind": "table", "params": {"scale": "1"}},
            arithmetic=arithmetic, seed=seed,
        )

    def test_identical_drivers_give_exact_zero(self):
        sc = realize(self._scenario(arithmetic="rational"))
        s1 = solve_driver_process(sc.barriers, sc.g_rows)
        s2 = picard_solution(sc.barriers, sc.g_rows, "gauss-seidel")
        rep = apriori_estimate_check(s1, s2, sc.g_rows, sc.g_rows, beta=5.0, eps=0.5, c=2.0)
        assert rep.z_m_lhs == 0 and rep.y_lhs == 0 and rep.z_m_holds

    def test_perturbed_driver_holds_strictly_on_fine_grid(self):
        from pdrbsde.config import config_from_dict
        from pdrbsde.scenario import estimate_template

        sc = realize(config_from_dict(estimate_template(5)))
        s1 = solve_driver_process(sc.barriers, sc.g_rows)
        g2 = perturb_driver(sc.space, sc.g_rows, seed=123)
        s2 = solve_driver_process(sc.barriers, g2)
        rep = apriori_estimate_check(s1, s2, sc.g_rows, g2, beta=5.0, eps=0.5, c=2.0)
        assert rep.z_m_holds and rep.z_m_lhs < rep.z_m_rhs
        assert rep.empirical_c >= 0

    def test_coarse_grid_counterexample_documented(self):
        """The continuous-time bound needs step-size headroom: a mark-driven
        driver difference on a dt = 1 grid gives exactly lhs/rhs = dt/eps^2."""
        cfg = make_config(
            2, 2,
            marks=[{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
            barriers={"kind": "deterministic",
                      "params": {"lower": ["-50", "-50", "0"], "upper": ["50", "50", "0"]}},
            arithmetic="float", seed=0,
        )
        sc = realize(cfg)
        g_bar = [list(gk) for gk in sc.g]
        labels = on_paths(sc.space, sc.space.mark_rows[1])
        for i in range(sc.space.n_paths):
            g_bar[1][i] = 1.0 if labels[i] == "a" else -1.0
        s1 = solve_driver_process(sc.barriers, sc.g_rows)
        s2 = solve_driver_process(sc.barriers, g_bar)
        rep = apriori_estimate_check(s1, s2, sc.g_rows, g_bar, beta=5.0, eps=0.5, c=2.0)
        assert not rep.z_m_holds
        assert rep.z_m_lhs / rep.z_m_rhs == pytest.approx(4.0)  # dt / eps^2

    def test_precondition_beta(self):
        sc = realize(self._scenario())
        s1 = solve_driver_process(sc.barriers, sc.g_rows)
        with pytest.raises(ValueError):
            apriori_estimate_check(s1, s1, sc.g_rows, sc.g_rows, beta=3.9, eps=0.5, c=2.0)
