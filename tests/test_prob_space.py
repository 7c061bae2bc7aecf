"""Filtration lattice construction and exact conditional expectation."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MARK_HALF,
    is_quasi_left_continuous,
    json_dumps_space,
    make_config,
    make_space,
    tree_weights_by_fractions,
)
from pdrbsde import values as v
from pdrbsde.config import ConfigError, _rational_sqrt, config_from_dict, load_config
from pdrbsde.prob_space import (
    build_space,
    cond_expect,
    dump_space_json,
    expectation,
    is_measurable,
    on_paths,
)
from pdrbsde.scenario import estimate_template, generate_corpus

F = Fraction


def refines(fine, coarse) -> bool:
    owner = {}
    for j, atom in enumerate(coarse):
        for i in atom:
            owner[i] = j
    return all(len({owner[i] for i in atom}) == 1 for atom in fine)


# the per-path view of a space that its oracle rebuilds
VIEWS = ("mode", "n_steps", "t_horizon", "weights", "dw", "sigma_minus", "sigma_mid")


def build_space_by_grouping(config) -> SimpleNamespace:
    """Oracle for ``build_space``: grow each path as (weight, labels, signs),
    then group paths by their revealed history and check that the groups nest.
    Returns the space's per-path view."""
    n = config.n_steps
    rational = config.arithmetic == "rational"
    s = _rational_sqrt(config.dt) if rational else math.sqrt(float(config.dt))
    mark_at = {m.instant: m for m in config.marks}
    paths = [(F(1), (), ())]
    mark_cols = []
    for k in range(n + 1):
        spec = mark_at.get(k)
        if spec is None:
            mark_cols.append(None)
        else:
            mark_cols.append(len(paths[0][1]))
            paths = [(w * p, labels + (lab,), signs)
                     for (w, labels, signs) in paths
                     for lab, p in zip(spec.labels, spec.probs)]
        if k < n:
            paths = [(w * F(1, 2), labels, signs + (sign,))
                     for (w, labels, signs) in paths for sign in (+1, -1)]
    assert sum(w for w, _, _ in paths) == 1

    def group(key):
        atoms = {}
        for i in range(len(paths)):
            atoms.setdefault(key(i), []).append(i)
        return tuple(tuple(a) for a in atoms.values())

    def history(k, i, through_mark):
        _, labels, signs = paths[i]
        n_marks = sum(1 for j in range(k + through_mark) if mark_cols[j] is not None)
        return labels[:n_marks], signs[:k]

    space = SimpleNamespace(
        mode=config.arithmetic,
        n_steps=n,
        t_horizon=config.t_horizon,
        weights=tuple(w if rational else float(w) for w, _, _ in paths),
        dw=tuple(tuple(s * signs[k] for _, _, signs in paths) for k in range(n)),
        marks=tuple(None if mark_cols[k] is None
                    else tuple(labels[mark_cols[k]] for _, labels, _ in paths)
                    for k in range(n + 1)),
        sigma_minus=tuple(group(lambda i, k=k: history(k, i, 0)) for k in range(n + 1)),
        sigma_mid=tuple(group(lambda i, k=k: history(k, i, 1)) for k in range(n + 1)),
    )
    assert tuple(space.sigma_minus[0]) == (tuple(range(len(paths))),)
    for k in range(n + 1):
        assert refines(space.sigma_mid[k], space.sigma_minus[k])
        if k < n:
            assert refines(space.sigma_minus[k + 1], space.sigma_mid[k])
    return space


def _corpus_configs(tmp_path, seed):
    for path in generate_corpus(seed, 50, tmp_path / str(seed)):
        cfg = load_config(str(path))
        yield cfg
        yield config_from_dict(dict(cfg.to_json_dict(), arithmetic="float"))


def _ladder_configs():
    """The float-ladder rungs (dt = 1/16, mark at N/2), the off-grid rung and N = 12."""
    for n, t in ((6, "3/8"), (8, "1/2"), (10, "5/8"), (10, "1/2"), (12, "1/2")):
        doc = estimate_template(1)
        doc.update(grid={"N": n, "T": t})
        doc["marks"] = [dict(doc["marks"][0], instant=n // 2)]
        yield config_from_dict(doc)


def _edge_mark_configs():
    yield make_config(2, "1/2", marks=[MARK_HALF | {"instant": 0}])
    yield make_config(2, "1/2", marks=[{"instant": 1, "labels": ["only"], "probs": ["1"]}])
    yield make_config(3, "3/4", marks=[
        {"instant": 1, "labels": ["a", "b", "c"], "probs": ["1/2", "1/3", "1/6"]},
        {"instant": 2, "labels": ["x", "y"], "probs": ["1/4", "3/4"]},
        {"instant": 3, "labels": ["u", "v"], "probs": ["2/5", "3/5"]},
    ], arithmetic="float")


@pytest.mark.parametrize("family", ["corpus_0", "corpus_3", "ladder", "edge_marks"])
def test_build_space_matches_key_grouping(tmp_path, family):
    configs = {
        "corpus_0": lambda: _corpus_configs(tmp_path, 0),
        "corpus_3": lambda: _corpus_configs(tmp_path, 3),
        "ladder": _ladder_configs,
        "edge_marks": _edge_mark_configs,
    }[family]()
    for cfg in configs:
        have, want = build_space(cfg), build_space_by_grouping(cfg)
        for name in VIEWS:
            got = getattr(have, name)
            if name.startswith("sigma"):  # each partition as its atoms
                got = tuple(map(tuple, got))
            assert got == getattr(want, name), (cfg.name, name)
        marks = tuple(None if row is None else on_paths(have, row) for row in have.mark_rows)
        assert marks == want.marks, (cfg.name, "marks")
        # each atom's weight is the total weight of its paths
        for part in (*have.sigma_minus, *have.sigma_mid):
            for w, atom in zip(v.entries(part.row), part, strict=True):
                assert abs(w - sum(want.weights[i] for i in atom)) <= have.slack, cfg.name
        assert_increment_moments(have)


def _json_mark_configs():
    """No mark; marks at 2 and 10, whose keys sort as "10" before "2"; labels
    that JSON escapes."""
    yield make_config(3, "3/4")
    yield make_config(10, "5/8", marks=[MARK_HALF | {"instant": 2},
                                        MARK_HALF | {"instant": 10, "labels": ["x", "y"]}])
    yield make_config(2, "1/2", marks=[MARK_HALF | {"labels": ["\u00e9", 'a"b']}],
                      arithmetic="float")


@pytest.mark.parametrize("family", ["corpus_0", "corpus_3", "ladder", "edge_marks", "json_marks"])
def test_space_json_matches_json_module(tmp_path, family):
    """``dump_space_json`` writes the bytes json.dumps(..., sort_keys=True,
    indent=1) writes for the space's document."""
    configs = {
        "corpus_0": lambda: _corpus_configs(tmp_path, 0),
        "corpus_3": lambda: _corpus_configs(tmp_path, 3),
        "ladder": _ladder_configs,
        "edge_marks": _edge_mark_configs,
        "json_marks": _json_mark_configs,
    }[family]()
    out = tmp_path / "space.json"
    for cfg in configs:
        space = build_space(cfg)
        dump_space_json(space, str(out))
        assert out.read_bytes() == json_dumps_space(space).encode(), (cfg.name, cfg.arithmetic)


class _Writes:
    """A text file that keeps each ``write`` it is handed."""

    def __init__(self) -> None:
        self.writes = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def _recorded_dump(monkeypatch, space) -> list:
    """The writes ``dump_space_json`` makes for the space."""
    from pdrbsde import prob_space

    file = _Writes()
    monkeypatch.setattr(prob_space, "open", lambda *args, **kwargs: file, raising=False)
    dump_space_json(space, "space.json")
    return file.writes


def test_space_json_writes_at_most_one_chunk(monkeypatch):
    """On the float-ladder N = 10 space (2,048 paths), no write holds more
    than one chunk: at most ``SPACE_JSON_CHUNK`` path objects, and in the
    ``sigma_*`` sections at most that many path indices, one a line."""
    from pdrbsde.prob_space import SPACE_JSON_CHUNK

    doc = estimate_template(1)
    doc.update(grid={"N": 10, "T": "5/8"}, arithmetic="float")
    doc["marks"] = [dict(doc["marks"][0], instant=5)]
    space = build_space(config_from_dict(doc))
    writes = _recorded_dump(monkeypatch, space)
    assert "".join(writes) == json_dumps_space(space)
    sections = next(j for j, w in enumerate(writes) if '"sigma_mid"' in w)
    assert max(w.count('"index": ') for w in writes) == SPACE_JSON_CHUNK < space.n_paths
    assert max(sum(line[4:].isdigit() for line in w.split("\n"))
               for w in writes[sections:]) == SPACE_JSON_CHUNK


@pytest.mark.parametrize("chunk", [1, 3, 5, 64])
def test_space_json_matches_json_module_in_any_chunk(monkeypatch, chunk):
    """Chunks that cut atoms of every size, of two and of three outcomes, at
    any path give the same bytes."""
    from pdrbsde import prob_space

    monkeypatch.setattr(prob_space, "SPACE_JSON_CHUNK", chunk)
    for cfg in (*_edge_mark_configs(), *_json_mark_configs()):
        space = build_space(cfg)
        assert "".join(_recorded_dump(monkeypatch, space)) == json_dumps_space(space), cfg.name


def _weight_configs(mode: str):
    """No mark, marks of two and three outcomes, two marks, and the
    float-ladder inputs at N = 12."""
    thirds = {"instant": 1, "labels": ["a", "b"], "probs": ["1/3", "2/3"]}
    sevenths = {"instant": 2, "labels": ["x", "y", "z"], "probs": ["1/7", "2/7", "4/7"]}
    for marks in ([], [thirds], [sevenths], [thirds, sevenths]):
        yield make_config(3, "3/4", marks=marks, arithmetic=mode)
    doc = estimate_template(1)
    doc.update(grid={"N": 12, "T": "3/4"}, arithmetic=mode)
    doc["marks"] = [dict(doc["marks"][0], instant=6)]
    yield config_from_dict(doc)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_tree_weights_are_the_fraction_products(mode):
    """Int numerators over one denominator give each partition the weights
    that Fraction products give, entry by entry and type by type."""
    for cfg in _weight_configs(mode):
        space = build_space(cfg)
        minus, mid = tree_weights_by_fractions(cfg)
        for have, want in ((space.sigma_minus, minus), (space.sigma_mid, mid)):
            assert [[(type(w), repr(w)) for w in v.entries(p.row)] for p in have] == \
                [[(type(w), repr(w)) for w in row] for row in want], cfg.name


def assert_increment_moments(space):
    """dW_k is binary, centred and of variance dt on every atom of
    sigma_mid[k]: exactly in rational mode, within ``space.slack`` in float."""
    for k in range(space.n_steps):
        for atom in space.sigma_mid[k]:
            w = sum(space.weights[i] for i in atom)
            m1 = sum(space.weights[i] * space.dw[k][i] for i in atom) / w
            m2 = sum(space.weights[i] * space.dw[k][i] ** 2 for i in atom) / w
            assert abs(m1) <= space.slack
            assert abs(m2 - space.dt) <= space.slack * max(1, space.dt)
            assert len({space.dw[k][i] for i in atom}) == 2


class TestBuildSpace:
    def test_single_step_binary_tree(self, space_2):
        assert space_2.n_paths == 2
        assert tuple(space_2.sigma_mid[0]) == ((0, 1),)  # trivial before the increment
        assert len(space_2.sigma_minus[1]) == 2
        assert sorted(space_2.dw[0]) == [F(-1), F(1)]
        assert sum(space_2.weights) == 1

    def test_product_construction_with_mark(self, space_4):
        assert space_4.n_paths == 4
        assert len(space_4.sigma_minus[1]) == 2
        assert len(space_4.sigma_mid[1]) == 4
        assert not is_quasi_left_continuous(space_4)

    def test_two_step_full_refinement_chain(self, space_16):
        assert space_16.n_paths == 16
        # oracle: pairwise refinement of every adjacent lattice link
        for k in range(space_16.n_steps + 1):
            assert refines(space_16.sigma_mid[k], space_16.sigma_minus[k])
            if k < space_16.n_steps:
                assert refines(space_16.sigma_minus[k + 1], space_16.sigma_mid[k])
        # increments are conditionally centered with the right second moment
        assert space_16.slack == 0
        assert_increment_moments(space_16)

    def test_no_informative_mark_is_qlc(self, space_2):
        assert is_quasi_left_continuous(space_2)

    def test_rejects_zero_steps(self):
        with pytest.raises(ConfigError):
            make_config(0, 1)

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ConfigError):
            make_config(1, 1, marks=[{"instant": 1, "labels": [], "probs": []}])

    def test_rejects_probs_not_summing_to_one(self):
        with pytest.raises(ConfigError):
            make_config(1, 1, marks=[
                {"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/3"]}
            ])

    def test_rejects_irrational_sqrt_dt_in_rational_mode(self):
        with pytest.raises(ConfigError):
            make_config(2, 1, arithmetic="rational")

    def test_float_mode_allows_any_grid(self):
        space = make_space(3, 1, arithmetic="float")
        assert space.n_paths == 8
        assert abs(sum(space.weights) - 1) < 1e-12


class TestCondExpect:
    def test_constant_is_fixed_point(self, space_4):
        x = space_4.constant(7)
        for part in (space_4.sigma_minus[0], space_4.sigma_mid[1]):
            assert v.eq(cond_expect(space_4, x, part), x)

    def test_plain_average(self, space_2):
        out = cond_expect(space_2, [F(2), F(4)], space_2.sigma_minus[0])
        assert on_paths(space_2, out) == (F(3), F(3))

    def test_weighted_average_per_atom(self):
        space = make_space(1, 1, marks=[
            {"instant": 1, "labels": ["a", "b"], "probs": ["1/3", "2/3"]},
        ])
        # paths (dW, mark): (+, a), (+, b), (-, a), (-, b)
        assert space.weights == (F(1, 6), F(1, 3), F(1, 6), F(1, 3))
        out = cond_expect(space, [F(1), F(2), F(3), F(4)], space.sigma_minus[1])
        assert on_paths(space, out) == (F(5, 3), F(5, 3), F(11, 3), F(11, 3))

    def test_tower_property_exact(self, space_16):
        rng = random.Random(5)
        x = [F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(space_16.n_paths)]
        chain = []
        for k in range(space_16.n_steps + 1):
            chain += [space_16.sigma_minus[k], space_16.sigma_mid[k]]
        for fine, coarse in zip(chain[1:], chain[:-1]):
            lhs = cond_expect(space_16, cond_expect(space_16, x, fine), coarse)
            assert lhs == cond_expect(space_16, x, coarse)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-50, 50), min_size=8, max_size=8))
    def test_mean_preserved(self, nums):
        space = make_space(2, "1/2", marks=[MARK_HALF])
        x = [F(n, 3) for n in nums]
        for part in (space.sigma_minus[1], space.sigma_mid[1], space.sigma_minus[2]):
            assert expectation(space, cond_expect(space, x, part)) == expectation(space, x)

    def test_tower_property_float_mode(self):
        space = make_space(2, "1/2", marks=[
            {"instant": 1, "labels": ["a", "b"], "probs": ["1/3", "2/3"]},
        ], arithmetic="float")
        rng = random.Random(9)
        x = [rng.uniform(-5, 5) for _ in range(space.n_paths)]
        chain = []
        for k in range(space.n_steps + 1):
            chain += [space.sigma_minus[k], space.sigma_mid[k]]
        scale = max(abs(val) for val in x)
        for fine, coarse in zip(chain[1:], chain[:-1]):
            lhs = cond_expect(space, cond_expect(space, x, fine), coarse)
            rhs = cond_expect(space, x, coarse)
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(lhs, rhs))


class TestSpread:
    def test_multi_label_mark_lands_on_its_paths(self):
        space = make_space(2, "1/2", marks=[
            {"instant": 1, "labels": ["a", "b", "c"], "probs": ["1/2", "1/4", "1/4"]},
        ])
        part = space.sigma_mid[1]  # dW_0 then the mark: 6 atoms of 2 paths
        assert len(part) == 6
        # mixed-radix digits in revelation order: dW_0, the mark, dW_1
        labels = on_paths(space, space.mark_rows[1])
        assert labels == ("a", "a", "b", "b", "c", "c") * 2
        assert [1 if d > 0 else -1 for d in space.dw[1]] == [1, -1] * 6
        x = [F(j) for j in range(6)]
        for j, atom in enumerate(part):
            assert [on_paths(space, x)[i] for i in atom] == [F(j)] * len(atom)
            assert len({space.dw[0][i] for i in atom}) == 1
            assert len({labels[i] for i in atom}) == 1
        assert on_paths(space, x) == tuple(F(j // 2) for j in range(space.n_paths))
        assert is_measurable(space, x, part)
        assert not is_measurable(space, x, space.sigma_minus[1])


class TestIsMeasurable:
    def test_constant(self, space_4):
        assert is_measurable(space_4, space_4.constant(3), space_4.sigma_minus[0])

    def test_increment_not_yet_revealed(self, space_2):
        assert not is_measurable(space_2, list(space_2.dw[0]), space_2.sigma_mid[0])
        assert is_measurable(space_2, list(space_2.dw[0]), space_2.sigma_minus[1])

    def test_mark_revealed_at_its_instant(self, space_4):
        eta = [F(1) if lab == "a" else F(0) for lab in on_paths(space_4, space_4.mark_rows[1])]
        assert is_measurable(space_4, eta, space_4.sigma_mid[1])
        assert not is_measurable(space_4, eta, space_4.sigma_minus[1])
