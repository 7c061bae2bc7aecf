"""Scenario schema validation, determinism, CLI modes and exit codes."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_config, set_cell
from pdrbsde import values as v
from pdrbsde.cli import main
from pdrbsde.config import ConfigError, config_from_dict, load_config
from pdrbsde.scenario import corpus_templates, estimate_template, generate_corpus, realize


def write_scenario(tmp_path: Path, doc: dict, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def template_doc(ti: int, seed=0, arithmetic="rational", **params) -> dict:
    tpl = corpus_templates()[ti]
    doc = {
        "schema": 1, "name": f"t{ti}", "grid": tpl["grid"], "marks": tpl["marks"],
        "barriers": tpl["barriers"], "driver": tpl["driver"],
        "params": params, "arithmetic": arithmetic, "seed": seed,
    }
    return doc


class TestConfig:
    def test_round_trip_and_digest_stability(self):
        cfg = config_from_dict(template_doc(2, seed=9))
        again = config_from_dict(json.loads(cfg.to_json()))
        assert cfg.digest() == again.digest()

    def test_rejects_unknown_schema(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schema": 99})

    def test_barrier_order_violation_names_cell(self):
        cfg = make_config(
            1, 1,
            barriers={"kind": "deterministic", "params": {"lower": ["2", "0"], "upper": ["1", "0"]}},
        )
        with pytest.raises(ConfigError) as err:
            realize(cfg)
        assert "instant=0" in str(err.value)

    def test_linear_driver_k_consistency(self):
        with pytest.raises(ConfigError):
            config_from_dict(template_doc(8) | {
                "driver": {"kind": "linear", "params": {"a": "1/2", "b": "0", "K": "1/10"}}
            })


def _mark_doc(**mark) -> dict:
    doc = template_doc(1)
    doc["marks"] = [dict(doc["marks"][0], **mark)]
    return doc


def _field_doc(section: str, value) -> dict:
    doc = template_doc(1)
    doc[section] = dict(doc[section], params=value)
    return doc


def _param_doc(ti: int, section: str, **edit) -> dict:
    """Template ``ti`` with some ``barriers`` or ``driver`` parameters set."""
    doc = template_doc(ti)
    doc[section] = dict(doc[section], params=dict(doc[section]["params"], **edit))
    return doc


_TABLES_SHORT_MID = template_doc(0) | {"barriers": {"kind": "tables", "params": {
    "lower": {"mid": [["0"]]}, "upper": {"mid": [["1"], ["0"]]}}}}


# (scenario document, the cell the error names); each is one schema type error
SCHEMA_TYPE_ERRORS = {
    "instant_string": (_mark_doc(instant="1"), "marks[0].instant"),
    "labels_duplicate": (_mark_doc(labels=["a", "a"]), "marks[0].labels"),
    "labels_not_list": (_mark_doc(labels="ab"), "marks[0].labels"),
    "labels_not_strings": (_mark_doc(labels=[0, 1]), "marks[0].labels"),
    "max_iter_string": (template_doc(1, max_iter="ten"), "params.max_iter"),
    "max_iter_fraction": (template_doc(1, max_iter=2.5), "params.max_iter"),
    "max_outer_string": (template_doc(1, max_outer="50"), "params.max_outer"),
    "mark_not_object": (template_doc(1) | {"marks": [1]}, "marks[0]"),
    "seed_string": (template_doc(1) | {"seed": "x"}, "seed"),
    "beta_string": (template_doc(1, beta="abc"), "params.beta"),
    "eps_string": (template_doc(1, eps="abc"), "params.eps"),
    "c_list": (template_doc(1, c=[2]), "params.c"),
    "tol_null": (template_doc(1, tol=None), "params.tol"),
    "divergence_bound_bool": (template_doc(1, divergence_bound=True), "params.divergence_bound"),
    "beta_nan": (template_doc(1, beta="nan"), "params.beta"),
    "eps_inf": (template_doc(1, eps="inf"), "params.eps"),
    "c_minus_inf": (template_doc(1, c="-inf"), "params.c"),
    "tol_nan": (template_doc(1, tol="nan"), "params.tol"),
    "divergence_bound_inf": (template_doc(1, divergence_bound="inf"), "params.divergence_bound"),
    "tol_negative": (template_doc(1, tol=-1), "params.tol"),
    "divergence_bound_zero": (template_doc(1, divergence_bound=0), "params.divergence_bound"),
    "beta_weight_overflow": (template_doc(1, beta=1500), "params.beta"),
    "max_iter_zero": (template_doc(1, max_iter=0), "params.max_iter"),
    "max_outer_zero": (template_doc(1, max_outer=0), "params.max_outer"),
    "max_outer_negative": (template_doc(1, max_outer=-3), "params.max_outer"),
    "barrier_params_list": (_field_doc("barriers", [1, 2]), "barriers.params"),
    "driver_params_list": (_field_doc("driver", ["a"]), "driver.params"),
    "constant_value_string": (_param_doc(0, "barriers", value="x"), "barriers.value"),
    "constant_value_nan": (_param_doc(0, "barriers", value=math.nan), "barriers.value"),
    "deterministic_entry_string": (_param_doc(5, "barriers", lower=["x", "0", "1"]),
                                   "barriers.lower[0]"),
    "deterministic_not_list": (_param_doc(5, "barriers", lower=5), "barriers.lower"),
    "game_option_vol_string": (_param_doc(3, "barriers", vol="x"), "barriers.vol"),
    "game_option_penalty_short": (_param_doc(3, "barriers", penalty=["1"]), "barriers.penalty"),
    "game_option_style_unknown": (_param_doc(3, "barriers", style="straddle"), "barriers.style"),
    "random_scale_string": (_param_doc(1, "barriers", scale="abc"), "barriers.scale"),
    "random_scale_list": (_param_doc(1, "barriers", scale=[1]), "barriers.scale"),
    "random_left_jumps_unknown": (_param_doc(1, "barriers", left_jumps="sideways"),
                                  "barriers.left_jumps"),
    "random_right_jumps_usc": (_param_doc(1, "barriers", right_jumps="usc"),
                               "barriers.right_jumps"),
    "random_touching_string": (_param_doc(1, "barriers", touching="no"), "barriers.touching"),
    "random_unknown_parameter": (_param_doc(1, "barriers", sclae=2), "barriers.sclae"),
    "barrier_kind_list": (template_doc(1) | {"barriers": {"kind": ["random"]}}, "barriers.kind"),
    "tables_mid_short": (_TABLES_SHORT_MID, "barriers.lower.mid"),
    "table_driver_scale_string": (_param_doc(1, "driver", scale="x"), "driver.scale"),
    "linear_c_short": (_param_doc(3, "driver", c=["1"]), "driver.c"),
    "linear_k_below_tiny_a": (_param_doc(3, "driver", a=1e-13, b=0, K=0), "driver.K"),
    "float_t_beyond_range": (template_doc(0, arithmetic="float")
                             | {"grid": dict(template_doc(0)["grid"], T="1e400")}, "grid.T"),
    "rational_t_beyond_range": (template_doc(0) | {"grid": {"N": 1, "T": "1e400"}}, "grid.T"),
    "float_constant_value_beyond_range": (_param_doc(0, "barriers", value="1e400")
                                          | {"arithmetic": "float"}, "barriers.value"),
    "float_game_option_spot_beyond_range": (_param_doc(3, "barriers", spot="1e400")
                                            | {"arithmetic": "float"}, "barriers.spot"),
    # the driver is read as floats in both modes, so each value needs a float
    "rational_linear_k_beyond_range": (_param_doc(3, "driver", K="1e400"), "driver.K"),
    "rational_linear_c_beyond_range": (_param_doc(3, "driver", c="1e400"), "driver.c[0]"),
    "rational_linear_a_beyond_range": (_param_doc(3, "driver", a="1e400", K="1e401"),
                                       "driver.a"),
    "rational_linear_b_beyond_range": (_param_doc(3, "driver", b="-1e400", K="1e401"),
                                       "driver.b"),
    "rational_table_scale_beyond_range": (_param_doc(1, "driver", scale="1e400"),
                                          "driver.scale"),
    "float_linear_k_beyond_range": (_param_doc(3, "driver", K="1e400")
                                    | {"arithmetic": "float"}, "driver.K"),
    "paths_over_cap": (template_doc(1, arithmetic="float") | {"grid": {"N": 40, "T": "1"}},
                       "grid"),
    # a key a section does not read, named under its section (bare at the top)
    "top_level_unknown_key": (template_doc(1) | {"arithmatic": "float"}, "arithmatic"),
    "grid_unknown_key": (template_doc(1) | {"grid": dict(template_doc(1)["grid"], t="1")},
                         "grid.t"),
    "params_unknown_key": (template_doc(1, betta=5), "params.betta"),
    "mark_unknown_key": (_mark_doc(when=1), "marks[0].when"),
    "barriers_unknown_key": (template_doc(1) | {"barriers": dict(template_doc(1)["barriers"],
                                                                 param={})}, "barriers.param"),
    "driver_unknown_key": (template_doc(1) | {"driver": dict(template_doc(1)["driver"],
                                                             kinds="zero")}, "driver.kinds"),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_TYPE_ERRORS))
def test_schema_type_error_names_cell(tmp_path, capsys, monkeypatch, case):
    """A mistyped field exits 2 naming its cell, never a traceback, and no
    space is built."""
    from pdrbsde import scenario

    built = []
    monkeypatch.setattr(scenario, "build_space", built.append)
    doc, cell = SCHEMA_TYPE_ERRORS[case]
    assert corpus_templates()[1]["marks"][0]["labels"]  # template 1 has a mark
    cfg = write_scenario(tmp_path, doc)
    assert main(["--mode", "solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"[at {cell}]" in capsys.readouterr().err
    assert built == []


# (mode, edit of the scenario document, the cell the error names): contraction
# parameters that well-typed configs can still get wrong; the outer loop of a
# linear driver (corpus-0 scenario 003) and the a-priori estimate check them,
# before any solve
CONTRACTION_ERRORS = {
    "solve_beta_below_bound": ("solve", lambda d: d["params"].update(beta=1), "params.beta"),
    "solve_c_modulus": ("solve", lambda d: d["params"].update(c=100), "params"),
    "solve_driver_a_modulus": ("solve", lambda d: d["driver"]["params"].update(a="5"), "params"),
    "estimate_beta_below_bound": ("estimate", lambda d: d["params"].update(beta=1), "params.beta"),
    # eps^2 underflows to zero
    "solve_eps_underflow": ("solve", lambda d: d["params"].update(eps="1e-200"), "params.beta"),
    "estimate_eps_underflow": ("estimate", lambda d: d["params"].update(eps="1e-200"),
                               "params.beta"),
    # eps^2 or c^2 overflows: refused at load, naming the parameter
    "solve_eps_overflow": ("solve", lambda d: d["params"].update(eps="1e200"), "params.eps"),
    "estimate_eps_overflow": ("estimate", lambda d: d["params"].update(eps="1e200"),
                              "params.eps"),
    "estimate_c_overflow": ("estimate", lambda d: d["params"].update(c="1e200"), "params.c"),
}


@pytest.mark.parametrize("case", sorted(CONTRACTION_ERRORS))
def test_contraction_params_exit_two(tmp_path, capsys, monkeypatch, case):
    from pdrbsde import cli, driver_solver

    solves = []
    for module in (cli, driver_solver):
        monkeypatch.setattr(module, "solve_driver_process", lambda *a: solves.append(a))
    mode, edit, cell = CONTRACTION_ERRORS[case]
    if mode == "solve":
        doc = json.loads(generate_corpus(0, 4, tmp_path / "corpus")[3].read_text())
        assert doc["driver"]["kind"] == "linear"
    else:
        doc = estimate_template(0)
    edit(doc)
    cfg = write_scenario(tmp_path, doc)
    assert main(["--mode", mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"[at {cell}]" in capsys.readouterr().err
    assert solves == []


def test_tables_barriers_read_every_slot():
    """Each written slot row lands on its slot; minus falls back to mid (and
    to mid[0] at instant 0), plus to mid on [0, N)."""
    mark = {"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}
    cfg = make_config(2, "1/2", marks=[mark], barriers={"kind": "tables", "params": {
        "lower": {"mid": [["0"], ["0", "1"], ["1"] * 8], "plus": [["0"], ["0", "0", "-1", "-1"]]},
        "upper": {"mid": [["2"], ["2", "2"], ["1"] * 8], "minus": [["5"], ["3", "3"], ["1"] * 8]},
    }})
    pair = realize(cfg).barriers
    xi, zeta = pair.xi, pair.zeta
    def rows(slot):
        return [v.entries(row) for row in slot]

    assert rows(xi.mid_rows) == [[0], [0, 1], [1] * 8] == rows(xi.minus_rows)
    assert rows(xi.plus_rows) == [[0], [0, 0, -1, -1]]
    assert rows(zeta.minus_rows) == [[2], [3, 3], [1] * 8]
    assert rows(zeta.plus_rows) == [[2], [2, 2]]


def _read_as_before(name: str, x, n: int):
    """A parameter as ``realize`` read it before the kind tables: numbers by
    ``Fraction(str(x))``, ``penalty`` and ``c`` once per interval, flags and
    choices as written."""
    if name in ("style", "left_jumps", "right_jumps", "touching"):
        return x
    if name in ("penalty", "c") and not isinstance(x, list):
        return [Fraction(str(x))] * n
    return [Fraction(str(e)) for e in x] if isinstance(x, list) else Fraction(str(x))


def test_parsed_values_match_the_old_reading():
    bundled = Path(__file__).resolve().parent.parent / "scenarios" / "game_option_2step.json"
    configs = [load_config(str(bundled))]
    configs += [config_from_dict(template_doc(ti)) for ti in range(len(corpus_templates()))]
    assert len(configs) == 11
    for cfg in configs:
        for spec in (cfg.barriers, cfg.driver):
            for name, x in spec.params.items():
                want = _read_as_before(name, x, cfg.n_steps)
                assert repr(spec.values[name]) == repr(want), (cfg.name, name)


class TestCorpusGeneration:
    def test_deterministic_bytes(self, tmp_path):
        a = generate_corpus(3, 6, tmp_path / "a")
        b = generate_corpus(3, 6, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_every_scenario_validates_and_realizes(self, tmp_path):
        for path in generate_corpus(1, 10, tmp_path):
            realize(load_config(str(path)))


class TestCliModes:
    def test_solve_writes_artifacts_and_exits_zero(self, tmp_path):
        cfg = write_scenario(tmp_path, template_doc(1, seed=5))
        out = tmp_path / "run"
        assert main(["--mode", "solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "solution_Y.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["verification"]["pass"] is True

    def test_constant_barrier_value_reaches_report(self, tmp_path):
        doc = template_doc(0)
        cfg = write_scenario(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["--mode", "solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["y0"] == 1.5  # constant barriers pin the value

    def test_invalid_config_exits_two(self, tmp_path):
        doc = template_doc(0)
        doc["barriers"] = {"kind": "deterministic",
                           "params": {"lower": ["2", "0"], "upper": ["1", "0"]}}
        cfg = write_scenario(tmp_path, doc)
        assert main(["--mode", "solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_divergence_cap_exits_three(self, tmp_path):
        # The production solve is one backward sweep and has no cap; the caps
        # left are the outer loop's max_outer and the Picard oracle's max_iter.
        linear = write_scenario(tmp_path, template_doc(3, seed=7, max_outer=1), "linear.json")
        assert main(["--mode", "solve", "--config", str(linear),
                     "--out", str(tmp_path / "x")]) == 3
        cfg = write_scenario(tmp_path, template_doc(2, seed=7, max_iter=1))
        assert main(["--mode", "oracle", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 3

    def test_verify_roundtrip_and_corruption(self, tmp_path):
        cfg = write_scenario(tmp_path, template_doc(6, seed=11))
        out = tmp_path / "run"
        assert main(["--mode", "solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["--mode", "verify", "--config", str(cfg), "--out", str(out)]) == 0
        # a process-driver dump is held to exact zero: one Y value moved by 1e-30 fails
        y_csv = out / "solution_Y.csv"
        rows = [line.split(",") for line in y_csv.read_text().splitlines()]
        cell = next(r for r in rows[1:] if r[1] == "mid")
        cell[-1] = str(Fraction(cell[-1]) + Fraction(1, 10**30))
        y_csv.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
        assert main(["--mode", "verify", "--config", str(cfg), "--out", str(out)]) == 4
        # corrupt one Y value
        rows = y_csv.read_text().splitlines()
        head, first, rest = rows[0], rows[1], rows[2:]
        parts = first.split(",")
        parts[-1] = "1000"
        y_csv.write_text("\n".join([head, ",".join(parts)] + rest) + "\n", encoding="utf-8")
        assert main(["--mode", "verify", "--config", str(cfg), "--out", str(out)]) == 4

    def test_linear_driver_solve_verify_certificate(self, tmp_path):
        """A Banach fixed point is gated at 1e-10 by all three modes alike."""
        cfg = generate_corpus(0, 4, tmp_path / "corpus")[3]
        assert json.loads(cfg.read_text())["driver"]["kind"] == "linear"
        out = tmp_path / "run"
        for mode in ("solve", "verify", "certificate"):
            assert main(["--mode", mode, "--config", str(cfg), "--out", str(out)]) == 0, mode
        assert json.loads((out / "certificate.json").read_text())["pass"] is True

    def test_off_grid_float_solve_verifies(self, tmp_path):
        """sqrt(dt) irrational: the solution passes the 1e-10 float gate,
        martingale check included."""
        from pdrbsde.scenario import estimate_template

        doc = estimate_template(1)
        doc.update(grid={"N": 10, "T": "1/2"})
        doc["marks"] = [dict(doc["marks"][0], instant=5)]
        cfg = write_scenario(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["--mode", "solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verification"]["pass"] is True
        assert report["verification"]["max_residual"] <= 1e-10
        assert report["trace"] == {}

    def test_oracle_mode(self, tmp_path):
        cfg = write_scenario(tmp_path, template_doc(1, seed=13))
        assert main(["--mode", "oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_oracle_mode_compares_the_solution(self, tmp_path, monkeypatch):
        """A production solution one Y value off the Picard oracle's fails with exit 5."""
        from pdrbsde import cli

        solve = cli._solve_scenario

        def moved(scenario):
            sol, g, trace = solve(scenario)
            y = set_cell(sol.y, "mid", 0, 0, sol.y.mid[0][0] + Fraction(1, 10**30))
            return replace(sol, y=y), g, trace

        monkeypatch.setattr(cli, "_solve_scenario", moved)
        cfg = write_scenario(tmp_path, template_doc(1, seed=13))
        out = tmp_path / "o"
        assert main(["--mode", "oracle", "--config", str(cfg), "--out", str(out)]) == 5
        report = json.loads((out / "oracle_report.json").read_text())
        assert [m.split(":")[0] for m in report["mismatches"]] == ["y"]

    def test_oracle_rejects_enumeration_past_its_cap(self, tmp_path, capsys, monkeypatch):
        """64 paths but 8.6e27 stopping-rule evaluations: exit 2 before any solve."""
        from pdrbsde import cli
        from pdrbsde.scenario import estimate_template

        def no_solve(scenario):
            raise AssertionError("oracle mode solved before checking the enumeration cap")

        monkeypatch.setattr(cli, "_solve_scenario", no_solve)
        doc = estimate_template(1)
        doc.update(grid={"N": 5, "T": "5/4"}, arithmetic="rational",
                   marks=[dict(doc["marks"][0], instant=2)])
        cfg = write_scenario(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["--mode", "oracle", "--config", str(cfg), "--out", str(out)]) == 2
        assert "rule evaluations" in capsys.readouterr().err
        assert not (out / "oracle_report.json").exists()

    def test_bundled_game_option_scenario_oracle(self, tmp_path):
        bundled = Path(__file__).resolve().parent.parent / "scenarios" / "game_option_2step.json"
        assert bundled.exists()
        out = tmp_path / "go"
        assert main(["--mode", "oracle", "--config", str(bundled), "--out", str(out)]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["pass"] is True and report["mismatches"] == []

    def test_estimate_mode_small(self, tmp_path):
        from pdrbsde.scenario import estimate_template

        cfg = write_scenario(tmp_path, estimate_template(17))
        out = tmp_path / "e"
        assert main(["--mode", "estimate", "--config", str(cfg), "--out", str(out),
                     "--pairs", "3"]) == 0
        report = json.loads((out / "estimate_report.json").read_text())
        assert report["violations"] == 0 and len(report["results"]) == 3
        assert report["grid_headroom"] > 1  # the template grid leaves headroom

    def test_formula_check_mode(self, tmp_path):
        out = tmp_path / "f"
        assert main(["--mode", "formula-check", "--count", "10", "--out", str(out)]) == 0
        report = json.loads((out / "formula_report.json").read_text())
        assert report["max_deviation"] == 0

    def test_certificate_mode(self, tmp_path):
        cfg = write_scenario(tmp_path, template_doc(2, seed=19))
        out = tmp_path / "c"
        assert main(["--mode", "certificate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "certificate.json").read_text())
        assert report["pass"] is True

    def test_corpus_mode_and_fanout(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["--mode", "corpus", "--count", "3", "--out", str(corpus), "--seed", "2"]) == 0
        out = tmp_path / "runs"
        assert main(["--mode", "solve", "--config", str(corpus), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "scenario_000", "scenario_001", "scenario_002"]

    def test_directory_run_carries_on_past_a_failed_scenario(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        paths = generate_corpus(0, 4, corpus)
        doc = json.loads(paths[1].read_text())
        doc["params"]["max_outer"] = 0
        paths[1].write_text(json.dumps(doc), encoding="utf-8")
        doc = json.loads(paths[2].read_text())
        doc["barriers"]["params"]["scale"] = "abc"
        paths[2].write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["--mode", "solve", "--config", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario_001.json: config error:" in err
        assert "scenario_002.json: config error:" in err and "[at barriers.scale]" in err
        assert (out / "scenario_000" / "report.json").exists()
        assert (out / "scenario_003" / "report.json").exists()

    def test_linear_driver_with_large_constant_term(self, tmp_path):
        """A valid driver whose sampled Lipschitz probe rounds above K = 0.01
        solves and verifies, and a directory run goes on to the next scenario."""
        paths = generate_corpus(0, 4, tmp_path / "corpus")
        doc = json.loads(paths[3].read_text())
        doc["driver"]["params"] = {"a": "1/100", "b": "1/100", "c": "1000000"}
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        big_c = write_scenario(mixed, doc, "scenario_000.json")
        (mixed / "scenario_001.json").write_text(paths[1].read_text(), encoding="utf-8")
        out = tmp_path / "run"
        for mode in ("solve", "verify"):
            assert main(["--mode", mode, "--config", str(big_c), "--out", str(out)]) == 0, mode
        assert json.loads((out / "report.json").read_text())["trace"]["outer"][
            "lipschitz_probe"] > 0.01
        assert main(["--mode", "solve", "--config", str(mixed), "--out", str(tmp_path / "m")]) == 0
        for name in ("scenario_000", "scenario_001"):
            assert (tmp_path / "m" / name / "report.json").exists()

    def test_float_overflow_during_the_run_exits_two(self, tmp_path, capsys):
        """Numbers just inside the float range that overflow mid-run (in the
        norms) exit 2 naming the arithmetic, and a directory run carries on."""
        corpus = tmp_path / "corpus"
        paths = generate_corpus(0, 4, corpus)
        for i, edit in ((1, {"scale": "1e307"}), (3, {"spot": "1.7e308", "strike": 0})):
            doc = json.loads(paths[i].read_text())
            doc["arithmetic"] = "float"
            doc["barriers"]["params"].update(edit)
            paths[i].write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"alone_{i}"
            assert main(["--mode", "solve", "--config", str(paths[i]), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: a value left the float range during the run [at arithmetic]\n")
        out = tmp_path / "runs"
        assert main(["--mode", "solve", "--config", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario_001.json: config error: a value left the float range" in err
        assert "scenario_003.json: config error: a value left the float range" in err
        assert (out / "scenario_000" / "report.json").exists()
        assert (out / "scenario_002" / "report.json").exists()

    def test_nonpositive_factor_beyond_the_float_range_names_barriers(self, tmp_path, capsys):
        """An exact underlying factor 1 - vol sqrt(dt) below zero is named as
        such, however large vol is: the sign test does not round it to float."""
        path = generate_corpus(0, 4, tmp_path / "corpus")[3]
        for vol in ("3", "1e400"):
            doc = json.loads(path.read_text())
            doc["barriers"]["params"]["vol"] = vol
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["--mode", "solve", "--config", str(path), "--out", str(tmp_path / "o")]
            assert main(argv) == 2
            assert capsys.readouterr().err == ("config error: underlying factor not positive; "
                                               "reduce vol or dt [at barriers]\n")

    def test_rational_barrier_beyond_the_float_range_names_barriers(self, tmp_path, capsys):
        """An exact barrier value with no float is refused once the barriers
        are realized, before any solve: the reports read values as floats."""
        path = generate_corpus(0, 2, tmp_path / "corpus")[1]
        doc = json.loads(path.read_text())
        assert doc["arithmetic"] == "rational" and doc["barriers"]["kind"] == "random"
        doc["barriers"]["params"]["scale"] = "1e400"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--mode", "solve", "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("config error: a barrier value beyond the float "
                                           "range [at barriers]\n")
        assert not (tmp_path / "o" / "report.json").exists()

    def test_cli_arguments_exit_two(self, tmp_path, capsys):
        """A missing --config path is named; a negative count is refused."""
        missing = tmp_path / "nope.json"
        assert main(["--mode", "solve", "--config", str(missing), "--out", str(tmp_path)]) == 2
        assert f"[at {missing}]" in capsys.readouterr().err
        for argv in (["--mode", "estimate", "--config", str(missing), "--pairs", "-2"],
                     ["--mode", "corpus", "--count", "-1"]):
            assert main([*argv, "--out", str(tmp_path / "o")]) == 2
            assert "--count and --pairs must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_errors_map_to_exit_codes(self, tmp_path, capsys):
        """A space that cannot be built, or a negative params.tol, exits 2; a
        Picard oracle stopped early by params.tol fails the certificate (exit 4)
        and the oracle (exit 5)."""
        doc = template_doc(1, arithmetic="float") | {"grid": {"N": 1, "T": "1e-700"}}
        cfg = write_scenario(tmp_path, doc)
        assert main(["--mode", "solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert "config error: dW_0 not binary" in capsys.readouterr().err
        paths = generate_corpus(0, 5, tmp_path / "corpus")
        for i, tol in ((1, -1), (4, 100)):
            doc = json.loads(paths[i].read_text())
            doc["params"]["tol"] = tol
            paths[i].write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--config", str(paths[1]), "--out", str(tmp_path / "o")]
        assert main(["--mode", "oracle", *argv]) == 2
        assert "[at params.tol]" in capsys.readouterr().err
        argv = ["--config", str(paths[4]), "--out", str(tmp_path / "o")]
        assert main(["--mode", "certificate", *argv]) == 4
        assert "verification failure: H - Hbar" in capsys.readouterr().err
        assert main(["--mode", "oracle", *argv]) == 5
        report = json.loads((tmp_path / "o" / "oracle_report.json").read_text())
        assert report["mismatches"][0].startswith("picard: fixed-point residual")


def _drop_zero_rows(rows):
    return rows[:1] + [r for r in rows[1:] if r[-1] != "0"]


def _set(rows, row, col, value):
    rows[row][col] = value
    return rows


# (file, edit of its rows, text the error names); the dumps are those of
# scenario 002 of corpus seed 0: 16 paths, two steps, zero driver
MALFORMED_DUMPS = {
    "missing_rows": ("solution_B.csv", _drop_zero_rows, "missing row"),
    "duplicate_row": ("solution_Y.csv", lambda rows: rows + [rows[5]], "duplicate row"),
    "unknown_slot": ("solution_M.csv", lambda rows: _set(rows, 3, 1, "middle"), "unknown slot"),
    "index_out_of_range": ("solution_A.csv", lambda rows: _set(rows, 3, 2, "16"),
                           "out of range"),
    "unparseable_value": ("solution_Y.csv", lambda rows: _set(rows, 7, 3, "abc"),
                          "unreadable row"),
    "short_row": ("solution_Y.csv", lambda rows: rows + [["3", "mid"]], "unreadable row"),
    "unmeasurable_driver": ("driver_g.csv", lambda rows: _set(rows, 1, 2, "1"),
                            "not sigma_mid[0]-measurable"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DUMPS))
def test_verify_rejects_malformed_dump(tmp_path, capsys, case):
    """Every malformed dump ends in exit 2 with the file named, never a traceback."""
    name, edit, message = MALFORMED_DUMPS[case]
    cfg = generate_corpus(0, 3, tmp_path / "corpus")[2]
    out = tmp_path / "run"
    assert main(["--mode", "solve", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / name
    rows = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("\n".join(",".join(r) for r in edit(rows)) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["--mode", "verify", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and message in err, err


def test_verify_fails_nan_in_float_dump(tmp_path):
    """A nan read from a float dump fails every residual condition its cell
    enters, not only the class checks."""
    cfg = generate_corpus(0, 3, tmp_path / "corpus")[2]
    out = tmp_path / "run"
    argv = ["--config", str(cfg), "--out", str(out), "--arithmetic", "float"]
    assert main(["--mode", "solve", *argv]) == 0
    path = out / "solution_Y.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    next(r for r in rows[1:] if r[:3] == ["1", "mid", "5"])[3] = "nan"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    assert main(["--mode", "verify", *argv]) == 4
    report = json.loads((out / "verify_report.json").read_text())
    failed = {c["condition"]: c["worst_cell"] for c in report["conditions"] if not c["pass"]}
    assert failed["equation_residual"] == "left_jump,instant=1,path=5"
    assert failed["barrier_sandwich_lower"] == "mid,instant=1,path=5"
    assert failed["value_pinching"] == "pinch,instant=1,path=5"
    assert math.isnan(report["max_residual"])


def test_verify_fails_non_measurable_dumped_component(tmp_path):
    """A dumped M whose left limit at t_1 differs on one path of an atom of
    sigma_minus[1] is kept per path by the loader and fails its class; the
    equation sees the moved cell too."""
    cfg = generate_corpus(0, 3, tmp_path / "corpus")[2]
    out = tmp_path / "run"
    assert main(["--mode", "solve", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "solution_M.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    next(r for r in rows[1:] if r[:3] == ["1", "minus", "5"])[3] = "1/3"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    assert main(["--mode", "verify", "--config", str(cfg), "--out", str(out)]) == 4
    report = json.loads((out / "verify_report.json").read_text())
    failed = {"equation_residual": (0.3333333333333333, "orthogonal_interval,k=0,path=5"),
              "component_classes": (1.0, "M: minus[1] not sigma_minus[1]-measurable")}
    assert report == {
        "pass": False,
        "max_residual": 1.0,
        "conditions": [
            {"condition": name, "pass": name not in failed,
             "max_residual": failed.get(name, (0.0, None))[0],
             "worst_cell": failed.get(name, (0.0, None))[1]}
            for name in ("terminal_value", "equation_residual", "barrier_sandwich_lower",
                         "barrier_sandwich_upper", "skorokhod_interval_A",
                         "skorokhod_interval_A_prime", "skorokhod_jump_A",
                         "skorokhod_jump_A_prime", "skorokhod_jump_B", "skorokhod_jump_B_prime",
                         "mutual_singularity_A", "mutual_singularity_B", "jump_identities",
                         "value_pinching", "component_classes")
        ],
    }


class TestDeterminism:
    def test_reports_byte_identical_apart_from_timings(self, tmp_path):
        cfg = write_scenario(tmp_path, template_doc(4, seed=23))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["--mode", "solve", "--config", str(cfg), "--out", str(out)]) == 0
            doc = json.loads((out / "report.json").read_text())
            doc.pop("timings")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_scenario_parsed_again_only_for_overrides(self, tmp_path, monkeypatch):
        """Without an override a run parses its scenario once; an override
        that restates the file's own values parses it twice and changes no
        output."""
        from pdrbsde import cli, config

        parses = []

        def counted(doc):
            parses.append(doc)
            return config_from_dict(doc)

        monkeypatch.setattr(config, "config_from_dict", counted)
        monkeypatch.setattr(cli, "config_from_dict", counted)
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "game_option_2step.json"
        assert json.loads(scenario.read_text())["seed"] == 7
        outs = {}
        for name, extra, calls in (("once", [], 1), ("twice", ["--seed", "7"], 2)):
            parses.clear()
            out = tmp_path / name
            assert main(["--mode", "solve", "--config", str(scenario), "--out", str(out),
                         *extra]) == 0
            assert len(parses) == calls
            report = json.loads((out / "report.json").read_text())
            report.pop("timings")
            outs[name] = [report] + [f.read_bytes() for f in sorted(out.iterdir())
                                     if f.name != "report.json"]
        assert outs["once"] == outs["twice"]
        assert len(outs["once"]) == 10  # the report, eight CSVs and space.json

    def test_rational_float_coherence(self, tmp_path):
        doc = template_doc(2, seed=29)
        cfg = write_scenario(tmp_path, doc)
        y0 = {}
        for mode in ("rational", "float"):
            out = tmp_path / mode
            assert main(["--mode", "solve", "--config", str(cfg), "--out", str(out),
                         "--arithmetic", mode]) == 0
            y0[mode] = json.loads((out / "report.json").read_text())["y0"]
        assert abs(y0["rational"] - y0["float"]) <= 1e-8
