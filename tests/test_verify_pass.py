"""The verifier's one walk over the instants: each jump and increment taken
once, and the same report from the solve and from ``--mode verify``, whose
loader hands it rows at other atom lengths than the sweep's."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from pdrbsde import cli, verify
from pdrbsde.config import config_from_dict
from pdrbsde.processes import LadlagProcess
from pdrbsde.scenario import estimate_template, realize


def test_each_jump_is_derived_once(monkeypatch):
    """On float-ladder's N=10 rung (2,048 paths, seed 1), the verifier takes
    each (process, instant) left jump and each (process, interval) increment
    at most once, the component classes included: at most 6 * 11 + 6 * 10."""
    doc = estimate_template(1)
    doc.update(grid={"N": 10, "T": "5/8"}, marks=[dict(doc["marks"][0], instant=5)])
    scenario = realize(config_from_dict(doc))
    sol, g, _ = cli._solve_scenario(scenario)
    for name in ("y", "m", "a", "b", "a_prime", "b_prime"):
        getattr(sol, name)  # sum the components before counting
    calls = Counter()

    def counted(method):
        def derive(proc, k):
            calls[method.__name__, id(proc), k] += 1
            return method(proc, k)
        return derive

    for method in (LadlagProcess.left_jump, LadlagProcess.interval_increment):
        monkeypatch.setattr(LadlagProcess, method.__name__, counted(method))
    report = verify.verify_drbsde_solution(g, scenario.barriers, sol)
    assert report.passed
    assert max(calls.values()) == 1
    assert len(calls) <= 6 * 11 + 6 * 10


@pytest.mark.parametrize("arithmetic", ["rational", "float"])
def test_solve_and_verify_modes_report_alike(tmp_path, arithmetic):
    corpus, out = tmp_path / "corpus", tmp_path / "run"
    assert cli.main(["--mode", "corpus", "--count", "10", "--out", str(corpus)]) == 0
    for mode in ("solve", "verify"):
        assert cli.main(["--mode", mode, "--config", str(corpus), "--arithmetic", arithmetic,
                         "--out", str(out)]) == 0
    runs = sorted(p for p in out.iterdir() if p.is_dir())
    assert len(runs) == 10
    for run in runs:
        solved = json.loads((run / "report.json").read_text(encoding="utf-8"))
        verified = json.loads((run / "verify_report.json").read_text(encoding="utf-8"))
        assert verified == solved["verification"], run.name
