"""Verification reports pinned by digest: the sha256 of the JSON text of every
``VerificationReport`` on a fixed set of solved inputs, before and after
``conftest.move_cells`` (so that failing worst cells are pinned too).

The inputs are corpus seeds 0 and 3 in both arithmetics and the four
float-ladder scenarios of benchmark seed 1; and the pre-operator's solution
on random barriers in both arithmetics, checked as a doubly reflected one
(``conftest.verify_pre_solution``), before and after Y moves at one
instant.  A change to the verifier that moves one bit of one report (a
residual, a worst cell, a NaN or a -0.0) fails here.  To write the digests file again, on purpose:

    PYTHONPATH=src:tests python tests/test_verify_pins.py
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from conftest import make_space, move_cells, random_predictable, verify_pre_solution
from pdrbsde import cli
from pdrbsde import values as v
from pdrbsde.config import config_from_dict
from pdrbsde.processes import from_slots
from pdrbsde.scenario import estimate_template, generate_corpus, realize
from pdrbsde.snell import pre_operator
from pdrbsde.verify import verify_drbsde_solution

DIGESTS = Path(__file__).with_name("verify_report_digests.json")
CORPUS_SEEDS = (0, 3)
CORPUS_SIZE = 10
# the float-ladder rungs of the benchmark (N, T), and its off-grid rung
LADDER = ((6, "3/8"), (8, "1/2"), (10, "5/8"))
OFF_GRID = (10, "1/2", 1)
BARRIER_SEEDS = range(4)


def _inputs(tmp: Path):
    """``(key, scenario document)`` of every pinned input."""
    for seed in CORPUS_SEEDS:
        for path in generate_corpus(seed, CORPUS_SIZE, tmp / f"corpus_{seed}"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            for arithmetic in ("rational", "float"):
                yield f"corpus_{seed}/{path.stem}/{arithmetic}", dict(doc, arithmetic=arithmetic)
    rungs = [(f"ladder_{n}", n, t, 1) for n, t in LADDER]
    rungs.append((f"offgrid_{OFF_GRID[0]}", *OFF_GRID))
    for name, n, t, seed in rungs:
        doc = estimate_template(seed)
        doc.update(name=name, grid={"N": n, "T": t})
        doc["marks"] = [dict(doc["marks"][0], instant=n // 2)]
        yield f"float_ladder/{name}", doc


def report_digests() -> dict:
    """The sha256 of each pinned report, keyed by input and by ``moved``."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, doc in _inputs(Path(tmp)):
            scenario = realize(config_from_dict(doc))
            sol, g, _ = cli._solve_scenario(scenario)
            delta = Fraction(1, 7) if scenario.space.mode == "rational" else 0.1
            for moved in ("", "/moved"):
                if moved:
                    sol = move_cells(sol, delta)
                report = verify_drbsde_solution(g, scenario.barriers, sol,
                                                tol=cli._gate_tol(scenario))
                digests[key + moved] = _digest(report)
    for arithmetic in ("rational", "float"):
        for seed in BARRIER_SEEDS:
            space = make_space(3, "3/4", marks=[{"instant": 1, "labels": ["a", "b"],
                                                 "probs": ["1/2", "1/2"]}], arithmetic=arithmetic)
            xi = random_predictable(space, random.Random(seed))
            q = pre_operator(xi)
            key = f"rbsde/{arithmetic}/{seed}"
            digests[key] = _digest(verify_pre_solution(xi, q))
            mid = list(q.y.mid_rows)
            mid[1] = v.add(mid[1], space.constant(Fraction(1, 3)))
            moved = from_slots(space, q.y.minus_rows, mid, q.y.plus_rows)
            digests[key + "/moved"] = _digest(verify_pre_solution(xi, replace(q, y=moved)))
    return digests


def _digest(report) -> str:
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_match_their_pinned_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = report_digests()
    assert len(want) == 2 * (2 * len(CORPUS_SEEDS) * CORPUS_SIZE + len(LADDER) + 1
                             + 2 * len(BARRIER_SEEDS))
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, moved


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
