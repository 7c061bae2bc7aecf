"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here: exact zero in rational mode, 1e-10
for float residuals, 1e-8 for cross-backend agreement, and the Banach fixed
points of the general-driver loop are gated at 1e-10 with the driver
re-evaluated on the solution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from conftest import (
    fixed_point_residual,
    is_quasi_left_continuous,
    picard_solution,
    random_nonneg_pss,
)
from pdrbsde import values as v
from pdrbsde.calculus_checks import (
    apriori_estimate_check,
    galchouk_lenglart_check,
    random_polynomial,
    random_semimartingale,
)
from pdrbsde.config import config_from_dict, load_config
from pdrbsde.drbsde import (
    minimality_check,
    mokobodzki_certificate,
    picard_coupled,
    potential,
    shift_barriers,
    solve_driver_process,
)
from pdrbsde.driver_solver import solve_general
from pdrbsde.prob_space import build_space, cond_expect
from pdrbsde.processes import (
    is_predictable_strong_supermartingale,
    p_add,
    p_sub,
    sup_distance,
)
from pdrbsde.scenario import estimate_template, generate_corpus, perturb_driver, realize
from pdrbsde.snell import pre_operator, snell_bruteforce
from pdrbsde.verify import verify_drbsde_solution

CORPUS_SIZE = 50
FLOAT_TOL = 1e-10
CROSS_TOL = 1e-8


@dataclass
class Record:
    config: object
    scenario: object
    solution: object
    g: list                 # driver process the solution was assembled with
    outer: object = None    # outer trace for linear drivers


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def _solve_record(config) -> Record:
    """Production solve, with the driver process it was solved for."""
    sc = realize(config)
    outer = None
    if sc.has_general_driver:
        sol, outer = solve_general(sc.driver, sc.barriers, config.params)
        g = outer.frozen_g
    else:
        sol = solve_driver_process(sc.barriers, sc.g_rows)
        g = sc.g_rows
    return Record(config, sc, sol, g, outer=outer)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Fifty generated scenarios, solved in rational mode."""
    out = tmp_path_factory.mktemp("corpus")
    return [
        _solve_record(load_config(str(path)))
        for path in generate_corpus(seed=0, count=CORPUS_SIZE, out_dir=out)
    ]


@pytest.fixture(scope="module")
def float_corpus(corpus):
    """The same scenarios re-realized and solved on the float backend."""
    records = []
    for rec in corpus:
        doc = rec.config.to_json_dict()
        doc["arithmetic"] = "float"
        records.append(_solve_record(config_from_dict(doc)))
    return records


def test_criterion_1_snell_oracle_equivalence(corpus):
    """pre_operator equals the stopping-rule enumeration exactly, tolerance 0."""
    checked = 0
    for rec in corpus:
        sc = rec.scenario
        assert sc.space.n_paths <= 64
        for barrier in (sc.barriers.xi, sc.barriers.zeta):
            q = pre_operator(barrier)
            assert sup_distance(q.y, snell_bruteforce(barrier)) == 0
            checked += 1
    _line(1, "snell oracle equivalence", True, f"{checked} envelopes on {len(corpus)} scenarios")


def test_criterion_2_picard_monotone_convergence(corpus, float_corpus):
    """The Picard oracle rises monotonically to an exact fixed point, in both
    orders and both arithmetics: the envelopes of the pair it returns, built
    afresh, equal the pair."""
    violations, residual, runs = 0, 0.0, 0
    for rec in corpus + float_corpus:
        xi_t, zeta_t, _ = shift_barriers(rec.scenario.barriers, rec.g)
        for order in ("jacobi", "gauss-seidel"):
            j, jbar, trace = picard_coupled(xi_t, zeta_t, order=order)
            violations += trace.monotone_violations
            residual = max(residual, float(fixed_point_residual(j, jbar, xi_t, zeta_t)))
            runs += 1
    _line(2, "picard monotonicity and convergence", violations == 0 and residual == 0,
          f"{runs} runs, max residual {residual:g}, {violations} monotonicity violations")


def test_criterion_3_full_definition_verification(corpus, float_corpus):
    worst_rational = 0.0
    for rec in corpus:
        rep = verify_drbsde_solution(rec.g, rec.scenario.barriers, rec.solution)
        assert rep.passed, (rec.config.name, rep.failures())
        worst_rational = max(worst_rational, rep.max_residual)
    worst_float = 0.0
    for rec in float_corpus:
        rep = verify_drbsde_solution(rec.g, rec.scenario.barriers, rec.solution,
                                     tol=FLOAT_TOL)
        assert rep.passed, (rec.config.name, rep.failures())
        worst_float = max(worst_float, rep.max_residual)
    _line(3, "full definition verification",
          worst_rational == 0.0 and worst_float <= FLOAT_TOL,
          f"{len(corpus)} scenarios: rational residual {worst_rational:g}, "
          f"float residual {worst_float:.2e} <= {FLOAT_TOL:g}")


def test_criterion_4_uniqueness(corpus, float_corpus):
    worst_gap = 0.0
    for rec, rec_f in zip(corpus, float_corpus):
        n = rec_f.scenario.space.n_steps
        gap = max(
            abs(float(a) - float(b))
            for k in range(n + 1)
            for a, b in zip(rec.solution.y.mid[k], rec_f.solution.y.mid[k])
        )
        worst_gap = max(worst_gap, gap)
        if not rec.scenario.has_general_driver:
            # two interleavings, identical driver: exactly zero differences
            sol_gs = picard_solution(rec.scenario.barriers, rec.g, "gauss-seidel")
            rep = apriori_estimate_check(rec.solution, sol_gs, rec.g, rec.g,
                                         beta=5.0, eps=0.5, c=2.0)
            assert rep.z_m_lhs == 0 and rep.y_lhs == 0
            assert sup_distance(rec.solution.y, sol_gs.y) == 0
    _line(4, "uniqueness across backends", worst_gap <= CROSS_TOL,
          f"max rational-float gap {worst_gap:.2e} <= {CROSS_TOL:g}")


def test_criterion_5_apriori_estimate_sweep():
    pairs_per_scenario = 20
    violations = 0
    worst_ratio = 0.0
    for seed in (3, 11):
        sc = realize(config_from_dict(estimate_template(seed)))
        base = solve_driver_process(sc.barriers, sc.g_rows)
        for i in range(pairs_per_scenario):
            g_bar = perturb_driver(sc.space, sc.g_rows, seed=seed * 1000 + i)
            sol_bar = solve_driver_process(sc.barriers, g_bar)
            rep = apriori_estimate_check(base, sol_bar, sc.g_rows, g_bar,
                                         beta=5.0, eps=0.5, c=2.0)
            if not rep.z_m_holds:
                violations += 1
            if rep.z_m_rhs > 0:
                worst_ratio = max(worst_ratio, rep.z_m_lhs / rep.z_m_rhs)
    _line(5, "a-priori estimate", violations == 0,
          f"2 scenarios x {pairs_per_scenario} pairs, worst lhs/rhs {worst_ratio:.3f}")


def test_criterion_6_change_of_variables_identity():
    rng = random.Random("acceptance-gl")
    worst = 0.0
    for i in range(200):
        n_steps, horizon = rng.choice([(1, "1"), (1, "4"), (2, "1/2"), (2, "2")])
        marks = ([{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}]
                 if rng.random() < 0.5 else [])
        doc = {"schema": 1, "name": f"gl{i}", "grid": {"N": n_steps, "T": horizon},
               "marks": marks, "barriers": {"kind": "constant", "params": {"value": 0}},
               "driver": {"kind": "zero"}, "params": {}, "arithmetic": "rational", "seed": 0}
        space = build_space(config_from_dict(doc))
        n_vars = rng.choice([1, 2, 3])
        comps = [random_semimartingale(space, rng) for _ in range(n_vars)]
        poly = random_polynomial(rng, n_vars)
        worst = max(worst, galchouk_lenglart_check(comps, poly).max_deviation)
    _line(6, "change-of-variables identity", worst == 0.0,
          f"200 randomized trials, max deviation {worst:g}")


def test_criterion_7_barrier_regularity_consequences(corpus):
    rc_checked = lusc_checked = 0
    for rec in corpus:
        xi = rec.scenario.barriers.xi
        sol = rec.solution
        n = xi.n_steps
        right_continuous = all(xi.plus[k] == xi.mid[k] for k in range(n))
        lusc = all(
            all(m >= mn for m, mn in zip(xi.mid[k], xi.minus[k])) for k in range(n + 1)
        )
        if right_continuous:
            rc_checked += 1
            assert all(all(x == 0 for x in sol.b.mid[k]) for k in range(n + 1)), rec.config.name
        if lusc:
            lusc_checked += 1
            assert all(all(x == 0 for x in v.entries(sol.a.left_jump(k))) for k in range(n + 1)), \
                rec.config.name
    ok = rc_checked >= 5 and lusc_checked >= 5
    _line(7, "barrier-regularity consequences", ok,
          f"B==0 on {rc_checked} right-continuous, dA==0 on {lusc_checked} l.u.s.c. scenarios")


def test_criterion_8_mokobodzki_and_minimality(corpus):
    rng = random.Random("acceptance-minimality")
    for rec in corpus:
        sc = rec.scenario
        h, hbar = mokobodzki_certificate(sc.barriers, rec.g, solution=rec.solution)
        for proc in (h, hbar):
            assert is_predictable_strong_supermartingale(proc), rec.config.name
            # the enumeration oracle agrees: proc is its own Snell envelope
            assert sup_distance(snell_bruteforce(proc), proc) == 0, rec.config.name
        diff = p_sub(h, hbar)
        n = sc.space.n_steps
        for k in range(n + 1):
            assert all(a <= d <= b for a, d, b in
                       zip(sc.barriers.xi.mid[k], diff.mid[k], sc.barriers.zeta.mid[k]))
            assert all(a <= d <= b for a, d, b in
                       zip(sc.barriers.xi.minus[k], diff.minus[k], sc.barriers.zeta.minus[k]))
            if k < n:
                assert all(a <= d <= b for a, d, b in
                           zip(sc.barriers.xi.plus[k], diff.plus[k], sc.barriers.zeta.plus[k]))
        xi_t, zeta_t, _ = shift_barriers(sc.barriers, rec.g)
        j, jbar, _ = picard_coupled(xi_t, zeta_t)
        for _ in range(10):
            s = random_nonneg_pss(sc.space, rng)
            assert minimality_check(
                j, jbar,
                p_add(j, s), p_add(jbar, s),
                xi_t, zeta_t,
            ), rec.config.name
    _line(8, "mokobodzki necessity and minimality", True,
          f"{len(corpus)} certificates, 10 dominating pairs each")


def test_criterion_8_minimality_against_the_reflectors_potentials(corpus, float_corpus):
    """A dominating pair not built from J: the potentials of the solution's
    own reflectors, R = E[(A_T - A) + (B_{T^-} - B_-) | F_-] and Rbar from A'
    and B'.  The minimal pair lies below them in both arithmetics, and equals
    them in rational mode.  Each record's g is the driver process its solution
    was assembled with, so a linear driver's run is an exact fixed point here
    too."""
    for rec in corpus + float_corpus:
        sc, g, sol = rec.scenario, rec.g, rec.solution
        space = sc.space
        zeros = [space.zero()] * space.n_steps
        r = potential(space, space.zero(), zeros, sol.a, sol.b)
        rbar = potential(space, space.zero(), zeros, sol.a_prime, sol.b_prime)
        xi_t, zeta_t, _ = shift_barriers(sc.barriers, g)
        j, jbar, _ = picard_coupled(xi_t, zeta_t)
        assert minimality_check(j, jbar, r, rbar, xi_t, zeta_t), rec.config.name
        if space.mode == "rational":
            assert sup_distance(j, r) == 0 == sup_distance(jbar, rbar), rec.config.name
    _line(8, "minimality against the reflectors' potentials", True,
          f"{len(corpus)} scenarios in each arithmetic")


def test_criterion_9_contraction(corpus):
    linear = [rec for rec in corpus if rec.scenario.has_general_driver]
    assert linear, "corpus contains no linear-driver scenarios"
    worst_ratio = 0.0
    for rec in linear:
        assert rec.outer.contraction_modulus < 1
        assert all(r < 1 for r in rec.outer.ratios), rec.config.name
        if rec.outer.ratios:
            worst_ratio = max(worst_ratio, max(rec.outer.ratios))
        sc = rec.scenario
        g_final = sc.driver.freeze(sc.space, rec.solution.y, rec.solution.z)
        rep = verify_drbsde_solution(g_final, sc.barriers, rec.solution, tol=FLOAT_TOL)
        assert rep.passed, (rec.config.name, rep.failures())
    _line(9, "outer contraction", True,
          f"{len(linear)} linear scenarios, worst observed ratio {worst_ratio:.3g}")


def test_criterion_10_non_qlc_witness(corpus):
    witnesses = 0
    for rec in corpus:
        space = rec.scenario.space
        if is_quasi_left_continuous(space):
            continue
        m = rec.solution.m
        for k in range(space.n_steps + 1):
            jump = m.left_jump(k)
            if any(x != 0 for x in v.entries(jump)):
                proj = cond_expect(space, jump, space.sigma_minus[k])
                assert all(x == 0 for x in v.entries(proj))
                witnesses += 1
                break
    _line(10, "martingale jump at a predictable instant", witnesses > 0,
          f"{witnesses} scenarios exhibit a nonzero orthogonal jump with E[dM|F-]=0")
