"""The one-pass Dynkin recursion against the Picard oracle on the whole corpus.

Rational mode: every component equal with zero tolerance, in both Picard
orders, and for linear drivers the outer loop takes the same number of steps.
The recursion's outputs are held to their process classes here, since the
solver does not re-check them.  Float mode: the same corpus re-realized agrees
within 1e-10.
"""

from __future__ import annotations

from functools import partial

import pytest

import pdrbsde.driver_solver as driver_solver
from conftest import picard_solution
from pdrbsde import values as v
from pdrbsde.config import config_from_dict, load_config
from pdrbsde.drbsde import dynkin_recursion, solve_driver_process
from pdrbsde.driver_solver import ContractionParams, solve_general
from pdrbsde.processes import sup_distance, validate_integrand, validate_process
from pdrbsde.scenario import generate_corpus, realize

FLOAT_TOL = 1e-10
ORDERS = ("jacobi", "gauss-seidel")


@pytest.fixture(scope="module")
def corpus_configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("dynkin_corpus")
    return [load_config(str(p)) for p in generate_corpus(seed=0, count=50, out_dir=out)]


def _solve_general(sc, monkeypatch, order=None):
    """The outer loop, its inner solves run by the recursion or by Picard."""
    cfg = sc.config
    params = ContractionParams(beta=cfg.params.beta, eps=cfg.params.eps, c=cfg.params.c)
    with monkeypatch.context() as mp:
        if order is not None:
            mp.setattr(driver_solver, "solve_driver_process",
                       partial(picard_solution, order=order))
        return solve_general(sc.driver, sc.barriers, params, tol=1e-12,
                             max_outer=cfg.params.max_outer, probe_seed=cfg.seed)


def _check_classes(sol) -> None:
    fv, pd = "finite-variation-predictable", "purely-discontinuous-predictable"
    for comp, kind in ((sol.y, "predictable"), (sol.m, "cadlag-martingale"), (sol.a, fv),
                       (sol.b, pd), (sol.a_prime, fv), (sol.b_prime, pd)):
        validate_process(comp, kind)
    validate_integrand(sol.y.space, sol.z)


def _gap(s1, s2) -> float:
    gap = max(float(sup_distance(getattr(s1, c), getattr(s2, c)))
              for c in ("y", "m", "a", "b", "a_prime", "b_prime"))
    return max([gap] + [abs(float(x)) for z1, z2 in zip(s1.z, s2.z) for x in v.sub(z1, z2)])


def test_rational_corpus_matches_picard_exactly(corpus_configs, monkeypatch):
    linear = 0
    for cfg in corpus_configs:
        sc = realize(cfg)
        if sc.has_general_driver:
            linear += 1
            sol, trace = _solve_general(sc, monkeypatch)
            _check_classes(sol)
            for order in ORDERS:
                oracle, oracle_trace = _solve_general(sc, monkeypatch, order)
                assert sol == oracle, (cfg.name, order)
                assert trace.iterations == oracle_trace.iterations, (cfg.name, order)
            continue
        sol = dynkin_recursion(sc.barriers, sc.g_rows)
        _check_classes(sol)
        assert solve_driver_process(sc.barriers, sc.g_rows) == sol
        for order in ORDERS:
            assert sol == picard_solution(sc.barriers, sc.g_rows, order), (cfg.name, order)
    assert linear == 10


def test_float_corpus_matches_picard(corpus_configs, monkeypatch):
    worst = 0.0
    for cfg in corpus_configs:
        sc = realize(config_from_dict(dict(cfg.to_json_dict(), arithmetic="float")))
        if sc.has_general_driver:
            sol, _ = _solve_general(sc, monkeypatch)
            oracle, _ = _solve_general(sc, monkeypatch, "jacobi")
        else:
            sol = dynkin_recursion(sc.barriers, sc.g_rows)
            oracle = picard_solution(sc.barriers, sc.g_rows)
        _check_classes(sol)
        worst = max(worst, _gap(sol, oracle))
    assert worst <= FLOAT_TOL
