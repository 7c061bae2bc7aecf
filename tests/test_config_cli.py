"""Scenario schema validation, determinism, CLI modes and exit codes."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_config, set_cell
from malformed_inputs import CASES, template_doc
from pdrbsde import values as v
from pdrbsde.cli import main
from pdrbsde.config import ConfigError, config_from_dict, load_config
from pdrbsde.scenario import corpus_templates, estimate_template, generate_corpus, realize


def write_scenario(tmp_path: Path, doc: dict, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestConfig:
    def test_round_trip_and_digest_stability(self):
        cfg = config_from_dict(template_doc(2, seed=9))
        text = json.dumps(cfg.to_json_dict(), sort_keys=True, indent=1)
        again = config_from_dict(json.loads(text))
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


def _exits_two(group: str):
    """The test of the cases of one group of the malformed-input table: each
    exits 2, names its cell, writes no report and keeps its probe."""
    from pdrbsde import cli, driver_solver, scenario

    @pytest.mark.parametrize("name", sorted(n for n, c in CASES.items() if c.group == group))
    def test(tmp_path, capsys, monkeypatch, name):
        case = CASES[name]
        argv = case.write(tmp_path, main)
        capsys.readouterr()

        def started(*args):
            raise AssertionError(f"{case.probe} ran before the input was refused")

        if case.probe == "build_space":
            monkeypatch.setattr(scenario, "build_space", started)
        if case.probe == "solve":
            for module in (cli, driver_solver):
                monkeypatch.setattr(module, "solve_driver_process", started)
        code = main(argv)
        assert case.problems(tmp_path, code, capsys.readouterr().err) == []

    return test


# the cases of the three tables the malformed-input table replaced keep the
# test names they ran under, and so their test ids
test_schema_type_error_names_cell = _exits_two("config")
test_contraction_params_exit_two = _exits_two("contraction")
test_verify_rejects_malformed_dump = _exits_two("dump")
test_malformed_input_exits_two = _exits_two("run")


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

    def test_bundled_game_option_scenario_oracle(self, tmp_path):
        bundled = Path(__file__).resolve().parent.parent / "scenarios" / "game_option_2step.json"
        assert bundled.exists()
        out = tmp_path / "go"
        assert main(["--mode", "oracle", "--config", str(bundled), "--out", str(out)]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["pass"] is True and report["mismatches"] == []

    def test_estimate_mode_small(self, tmp_path):
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

    def test_certificate_minimality_fails_above_the_potentials(self, tmp_path, monkeypatch):
        """A Picard pair 1e-30 above the minimal one lies above the potentials
        of the solution's reflectors: the certificate fails with exit 4."""
        from pdrbsde import cli
        from pdrbsde.processes import constant_process, p_add

        picard = cli._picard_from_solution

        def raised(scenario, g):
            xi_t, zeta_t, x, j, jbar = picard(scenario, g)
            c = constant_process(scenario.space, Fraction(1, 10**30))
            return xi_t, zeta_t, x, p_add(j, c), p_add(jbar, c)

        monkeypatch.setattr(cli, "_picard_from_solution", raised)
        cfg = write_scenario(tmp_path, template_doc(2, seed=19))
        out = tmp_path / "c"
        assert main(["--mode", "certificate", "--config", str(cfg), "--out", str(out)]) == 4
        report = json.loads((out / "certificate.json").read_text())
        assert report["minimality"] is False and report["supermartingales"] is True

    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_certificate_reports_an_inadmissible_pair(self, tmp_path, capsys, arithmetic):
        """With params.tol 100 the outer loop of corpus-0 scenario 003 (a
        linear driver) stops after 2 steps, and H - Hbar of its dominating
        pair leaves the upper shifted barrier: the certificate still writes
        its report, with minimality false, and exits 4."""
        doc = json.loads(generate_corpus(0, 4, tmp_path / "corpus")[3].read_text())
        doc["params"]["tol"] = 100
        cfg = write_scenario(tmp_path, dict(doc, arithmetic=arithmetic))
        out = tmp_path / "c"
        assert main(["--mode", "certificate", "--config", str(cfg), "--out", str(out)]) == 4
        assert "H - Hbar above the upper shifted barrier at instant 0" in capsys.readouterr().err
        report = json.loads((out / "certificate.json").read_text())
        assert report["minimality"] is False and report["pass"] is False

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
        """A directory run carries on past scenarios whose numbers, just
        inside the float range, overflow mid-run (in the norms)."""
        corpus = tmp_path / "corpus"
        paths = generate_corpus(0, 4, corpus)
        for i, edit in ((1, {"scale": "1e307"}), (3, {"spot": "1.7e308", "strike": 0})):
            doc = json.loads(paths[i].read_text())
            doc["arithmetic"] = "float"
            doc["barriers"]["params"].update(edit)
            paths[i].write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["--mode", "solve", "--config", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario_001.json: config error: a value left the float range" in err
        assert "scenario_003.json: config error: a value left the float range" in err
        assert (out / "scenario_000" / "report.json").exists()
        assert (out / "scenario_002" / "report.json").exists()

    def test_run_errors_map_to_exit_codes(self, tmp_path):
        """params.tol is the outer loop's tolerance only: the Picard oracle of
        a table-driver scenario (no outer loop) runs to exact stabilization
        whatever it says, so both oracle modes exit 0 at a large tol and write
        the reports of tol 0, the config digest apart."""
        cases = [(generate_corpus(seed, 5, tmp_path / f"corpus_{seed}")[4], tol)
                 for seed, tol in ((0, 100), (3, 0.5), (3, 100))]
        for path, tol in cases:
            doc = json.loads(path.read_text())
            assert doc["driver"]["kind"] == "table"
            for arithmetic in ("rational", "float"):
                reports = []
                for t in (0, tol):
                    doc["params"]["tol"] = t
                    cfg = write_scenario(tmp_path, doc)
                    out = tmp_path / "o" / f"{path.parent.name}_{arithmetic}_{t}"
                    argv = ["--config", str(cfg), "--out", str(out), "--arithmetic", arithmetic]
                    assert main(["--mode", "oracle", *argv]) == 0, (path, arithmetic, t)
                    assert main(["--mode", "certificate", *argv]) == 0, (path, arithmetic, t)
                    oracle = json.loads((out / "oracle_report.json").read_text())
                    oracle.pop("digest")
                    reports.append((oracle, json.loads((out / "certificate.json").read_text())))
                assert reports[0] == reports[1], (path, arithmetic, tol)

    def test_oracle_modes_build_each_envelope_once(self, tmp_path, monkeypatch):
        """The Picard loop's 2 iterations build 4 envelopes, and the oracle
        modes build no other: assembly decomposes the loop's pair and reuses
        the shift's plain part, and the enumeration check reads the pair."""
        from pdrbsde import cli, drbsde, snell

        calls = {"snell_envelope_slots": 0, "potential": 0}
        iterations = []
        for module, name in ((snell, "snell_envelope_slots"), (drbsde, "snell_envelope_slots"),
                             (drbsde, "potential"), (cli, "potential")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        picard = cli.picard_coupled

        def traced(*args, **kwargs):
            result = picard(*args, **kwargs)
            iterations.append(result[2].iterations)
            return result

        monkeypatch.setattr(cli, "picard_coupled", traced)
        path = generate_corpus(0, 3, tmp_path / "corpus")[2]
        argv = ["--config", str(path), "--out", str(tmp_path / "o")]
        assert main(["--mode", "oracle", *argv]) == 0
        assert iterations == [2] and calls == {"snell_envelope_slots": 4, "potential": 1}
        calls.update(snell_envelope_slots=0)
        assert main(["--mode", "certificate", *argv]) == 0
        assert iterations == [2, 2] and calls["snell_envelope_slots"] == 4


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


def test_verify_takes_the_driver_from_the_scenario(tmp_path):
    """A dump solved for another driver (corpus scenario 004 with its table
    drawn at scale 5) is not a solution of scenario 004: verify holds it to
    the scenario's own driver, whatever driver_g.csv the solve wrote."""
    cfg = generate_corpus(0, 5, tmp_path / "corpus")[4]
    doc = json.loads(cfg.read_text())
    assert doc["driver"] == {"kind": "table", "params": {"scale": "1"}}
    doc["driver"]["params"]["scale"] = "5"
    foreign = write_scenario(tmp_path, doc, "scale_5.json")
    out = tmp_path / "run"
    assert main(["--mode", "solve", "--config", str(foreign), "--out", str(out)]) == 0
    assert main(["--mode", "verify", "--config", str(foreign), "--out", str(out)]) == 0
    assert main(["--mode", "verify", "--config", str(cfg), "--out", str(out)]) == 4
    report = json.loads((out / "verify_report.json").read_text())
    failed = [(c["condition"], c["max_residual"], c["worst_cell"])
              for c in report["conditions"] if not c["pass"]]
    assert failed == [("equation_residual", 2.5, "integrated,instant=0,path=4")]


@pytest.mark.parametrize("arithmetic", ["rational", "float"])
def test_verify_never_reads_the_dumped_driver(tmp_path, arithmetic):
    """Deleting driver_g.csv from an honest dump leaves verify_report.json
    byte-identical, for a table driver and for a linear one (frozen at the
    dumped Y and Z)."""
    for cfg in generate_corpus(0, 5, tmp_path / "corpus")[3:5]:
        out = tmp_path / arithmetic / cfg.stem
        argv = ["--config", str(cfg), "--out", str(out), "--arithmetic", arithmetic]
        assert main(["--mode", "solve", *argv]) == 0
        assert main(["--mode", "verify", *argv]) == 0
        want = (out / "verify_report.json").read_bytes()
        (out / "driver_g.csv").unlink()
        assert main(["--mode", "verify", *argv]) == 0
        assert (out / "verify_report.json").read_bytes() == want, cfg.stem


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
