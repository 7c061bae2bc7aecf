"""The one-pass Dynkin recursion against the Picard oracle on the whole corpus.

Rational mode: every component equal with zero tolerance, in both Picard
orders, and for linear drivers the outer loop takes the same number of steps.
The recursion's outputs are held to their process classes here, since the
solver does not re-check them.  Float mode: the same corpus re-realized agrees
within 1e-10.

The recursion sums M, A, A', B and B' on first read: read in any order they
are the same, the outer loop and the a-priori estimate never sum what they do
not read, and each sweep row is dropped once its last reader is summed.
"""

from __future__ import annotations

import json
import random
from functools import partial

import pytest

import pdrbsde.drbsde as drbsde
import pdrbsde.driver_solver as driver_solver
from conftest import picard_solution
from pdrbsde import cli
from pdrbsde import values as v
from pdrbsde.config import config_from_dict, load_config
from pdrbsde.drbsde import SolutionSeptuple, solve_driver_process
from pdrbsde.driver_solver import solve_general
from pdrbsde.prob_space import is_measurable
from pdrbsde.processes import sup_distance, validate_process
from pdrbsde.scenario import estimate_template, generate_corpus, realize

FLOAT_TOL = 1e-10
ORDERS = ("jacobi", "gauss-seidel")


@pytest.fixture(scope="module")
def corpus_configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("dynkin_corpus")
    return [load_config(str(p)) for p in generate_corpus(seed=0, count=50, out_dir=out)]


def _solve_general(sc, monkeypatch, order=None):
    """The outer loop, its inner solves run by the recursion or by Picard."""
    cfg = sc.config
    with monkeypatch.context() as mp:
        if order is not None:
            mp.setattr(driver_solver, "solve_driver_process",
                       partial(picard_solution, order=order))
        return solve_general(sc.driver, sc.barriers, cfg.params, probe_seed=cfg.seed)


def _check_classes(sol) -> None:
    fv, pd = "finite-variation-predictable", "purely-discontinuous-predictable"
    for comp, kind in ((sol.y, "predictable"), (sol.m, "cadlag-martingale"), (sol.a, fv),
                       (sol.b, pd), (sol.a_prime, fv), (sol.b_prime, pd)):
        validate_process(comp, kind)
    space = sol.y.space
    assert all(is_measurable(space, zk, space.sigma_mid[k]) for k, zk in enumerate(sol.z))


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
        sol = solve_driver_process(sc.barriers, sc.g_rows)
        _check_classes(sol)
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
            sol = solve_driver_process(sc.barriers, sc.g_rows)
            oracle = picard_solution(sc.barriers, sc.g_rows)
        _check_classes(sol)
        worst = max(worst, _gap(sol, oracle))
    assert worst <= FLOAT_TOL


# ---------------------------------------------------------------------------
# components summed on first read

SUMMED = ("m", "a", "b", "a_prime", "b_prime")


def _count_sums(monkeypatch) -> list:
    """Record the keywords of each running sum the solver makes."""
    calls = []
    real = drbsde.running_sum

    def counted(space, **rows):
        calls.append(sorted(rows))
        return real(space, **rows)

    monkeypatch.setattr(drbsde, "running_sum", counted)
    return calls


def _summed(sol) -> set:
    return {c for c in SUMMED if c in vars(sol)}


def test_components_read_in_any_order_are_equal(corpus_configs):
    for cfg in corpus_configs:
        sc = realize(cfg)
        if sc.has_general_driver:
            continue
        at_once = solve_driver_process(sc.barriers, sc.g_rows)
        given = SolutionSeptuple(y=at_once.y, z=at_once.z,
                                 **{c: getattr(at_once, c) for c in SUMMED})
        orders = [SUMMED[::-1], random.Random(cfg.name).sample(SUMMED, len(SUMMED))]
        for order in orders:
            sol = solve_driver_process(sc.barriers, sc.g_rows)
            for c in order:
                assert getattr(sol, c) == getattr(given, c), (cfg.name, order, c)
            assert sol == given == at_once, (cfg.name, order)
            assert vars(sol)["_rows"] == {}


def test_each_sweep_row_is_dropped_after_its_last_reader(corpus_configs):
    sc = realize(corpus_configs[0])
    sol = solve_driver_process(sc.barriers, sc.g_rows)
    rows = vars(sol)["_rows"]
    assert sorted(rows) == ["drift", "gap", "m_jumps"] and not _summed(sol)
    for read, kept in (("a", {"drift", "gap", "m_jumps"}),
                       ("b_prime", {"drift", "gap", "m_jumps"}),
                       ("a_prime", {"gap", "m_jumps"}),
                       ("m", {"gap"}),
                       ("b", set())):
        getattr(sol, read)
        assert set(rows) == kept, read
    with pytest.raises(AttributeError):
        sol.c


def test_outer_loop_sums_the_five_components_once(tmp_path, monkeypatch):
    path = generate_corpus(seed=0, count=4, out_dir=tmp_path / "corpus")[3]
    assert json.loads(path.read_text())["driver"]["kind"] == "linear"
    calls = _count_sums(monkeypatch)
    sc = realize(load_config(str(path)))
    sol, trace = solve_general(sc.driver, sc.barriers, sc.config.params)
    assert trace.iterations > 1 and calls == [] and not _summed(sol)
    assert cli.main(["--mode", "solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["trace"]["outer"]["iterations"] > 1
    assert len(calls) == 5


def test_estimate_sums_only_m(tmp_path, monkeypatch):
    calls = _count_sums(monkeypatch)
    sols = []

    def solve(barriers, g):
        sols.append(solve_driver_process(barriers, g))
        return sols[-1]

    monkeypatch.setattr(cli, "solve_driver_process", solve)
    path = tmp_path / "estimate.json"
    path.write_text(json.dumps(estimate_template(0)))
    assert cli.main(["--mode", "estimate", "--pairs", "3", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0
    assert len(sols) == 4 and all(_summed(sol) == {"m"} for sol in sols)
    assert calls == [["left"]] * 4
