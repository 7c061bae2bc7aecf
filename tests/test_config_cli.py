"""Scenario schema validation, determinism, CLI modes and exit codes."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_config
from pdrbsde.cli import main
from pdrbsde.config import ConfigError, config_from_dict, load_config
from pdrbsde.scenario import corpus_templates, generate_corpus, realize


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
    "barrier_params_list": (_field_doc("barriers", [1, 2]), "barriers.params"),
    "driver_params_list": (_field_doc("driver", ["a"]), "driver.params"),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_TYPE_ERRORS))
def test_schema_type_error_names_cell(tmp_path, capsys, case):
    """A mistyped field exits 2 naming its cell, never a traceback or a solve."""
    doc, cell = SCHEMA_TYPE_ERRORS[case]
    assert corpus_templates()[1]["marks"][0]["labels"]  # template 1 has a mark
    cfg = write_scenario(tmp_path, doc)
    assert main(["--mode", "solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"[at {cell}]" in capsys.readouterr().err


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
        cfg = write_scenario(tmp_path, template_doc(2, seed=7))
        assert main(["--mode", "oracle", "--config", str(cfg),
                     "--out", str(tmp_path / "y"), "--max-iter", "1"]) == 3

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
            sol.y.mid[0][0] += Fraction(1, 10**30)
            return sol, g, trace

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
