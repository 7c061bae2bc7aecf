"""Realize in both backends: the float scenario is float() of the rational one.

Random draws and tree weights are int numerators over one denominator,
divided once into each backend's entry, so the two runs of one scenario see
the same numbers, each float the correctly rounded value of its rational twin.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pdrbsde import values as v
from pdrbsde.config import config_from_dict
from pdrbsde.prob_space import on_paths
from pdrbsde.scenario import (_on_partition, estimate_template, generate_corpus, perturb_driver,
                              realize)


def _in_both(doc: dict):
    return [realize(config_from_dict(dict(doc, arithmetic=mode)))
            for mode in ("rational", "float")]


def _floats_of(rat_rows, flt_rows, where: str) -> None:
    """Each float entry is a float and equals float() of its rational entry."""
    assert [[(type(x), repr(x)) for x in v.entries(row)] for row in flt_rows] == \
        [[(float, repr(float(x))) for x in v.entries(row)] for row in rat_rows], where


def _check(rat, flt, name: str) -> None:
    for part in ("sigma_minus", "sigma_mid"):
        _floats_of([p.row for p in getattr(rat.space, part)],
                   [p.row for p in getattr(flt.space, part)], f"{name}: {part}")
    for barrier in ("xi", "zeta"):
        for slot in ("minus_rows", "mid_rows", "plus_rows"):
            _floats_of(getattr(getattr(rat.barriers, barrier), slot),
                       getattr(getattr(flt.barriers, barrier), slot),
                       f"{name}: {barrier}.{slot}")
    assert (rat.g_rows is None) == (flt.g_rows is None), name
    if rat.g_rows is not None:
        _floats_of(rat.g_rows, flt.g_rows, f"{name}: g")


def test_corpus_realizes_float_as_float_of_rational(tmp_path):
    kinds = set()
    for path in generate_corpus(0, 50, tmp_path):
        doc = json.loads(path.read_text())
        kinds.add(doc["barriers"]["kind"])
        _check(*_in_both(doc), path.stem)
    assert kinds == {"constant", "deterministic", "game_option", "random"}


@pytest.mark.parametrize("seed", [0, 1, 7, 300])
def test_estimate_template_and_perturbation(seed):
    rat, flt = _in_both(estimate_template(seed))
    _check(rat, flt, f"estimate_{seed}")
    for pair in range(3):
        _floats_of(perturb_driver(rat.space, rat.g_rows, pair),
                   perturb_driver(flt.space, flt.g_rows, pair), f"perturb {pair}")
    # per-path rows as well as atom rows
    g_paths = [on_paths(rat.space, row) for row in rat.g_rows]
    _floats_of(perturb_driver(rat.space, g_paths, 0),
               perturb_driver(flt.space, [on_paths(flt.space, r) for r in flt.g_rows], 0),
               "perturb on paths")


def test_touching_barriers_touch_on_a_third_of_the_atoms(tmp_path):
    """A touching random pair draws a zero gap with probability 1/3 plus the
    chance of a zero draw, 1/17 of the rest; without ``touching`` only that."""
    zeros = {True: 0, False: 0}
    cells = {True: 0, False: 0}
    for path in generate_corpus(0, 50, tmp_path):
        doc = json.loads(path.read_text())
        if doc["barriers"]["kind"] != "random":
            continue
        touching = doc["barriers"]["params"].get("touching", False)
        barriers = realize(config_from_dict(doc)).barriers
        for k in range(len(barriers.xi.mid_rows) - 1):
            gap = v.sub(barriers.zeta.mid_rows[k], barriers.xi.mid_rows[k])
            zeros[touching] += len(gap) - sum(map(bool, v.entries(gap)))
            cells[touching] += len(gap)
    assert (zeros, cells) == ({True: 18, False: 5}, {True: 55, False: 70})


def test_touching_draw_against_a_third_keeps_its_outcome():
    """random() is m / 2**53; the float 1/3 and the rational 1/3 put the same
    m on each side, so comparing with either keeps every touching draw."""
    m = 3002399751580330
    for k in (m - 1, m, m + 1, m + 2):
        x = k / 2**53
        assert (x < 1 / 3) == (x < Fraction(1, 3)) == (k <= m)
    rng = random.Random("barriers:0")
    draws = [rng.random() for _ in range(10_000)]
    assert [x < 1 / 3 for x in draws] == [x < Fraction(1, 3) for x in draws]
    assert all((x * 2**53).is_integer() for x in draws)


@pytest.mark.parametrize("seed", [0, 1, 7, "barriers:3"])
def test_atom_row_draws_as_randint(seed):
    """``_on_partition`` on m atoms draws the numerators m calls of
    ``randint(low, 16) * scale.numerator`` draw, each after a
    ``random() < 1 / 3`` test that gives 0 when ``touching``, over
    8 * scale.denominator, and leaves the stream where they leave it, between
    ``random()`` calls too."""
    space = SimpleNamespace(backend=SimpleNamespace(row=lambda nums, den: (nums, den)))
    ours, theirs = random.Random(seed), random.Random(seed)
    for i in range(12):
        for m in (1, 2, 7, 512):
            for low, scale in ((-16, Fraction(1, 4)), (0, Fraction(3))):
                for touching in (False, True):
                    want = [0 if touching and theirs.random() < 1 / 3
                            else theirs.randint(low, 16) * scale.numerator for _ in range(m)]
                    got = _on_partition(space, range(m), ours, low, scale, touching)
                    assert got == (want, 8 * scale.denominator)
                    if i % 3 == 0:  # as the barrier draws interleave them
                        assert ours.random() == theirs.random()
    assert ours.getstate() == theirs.getstate()
