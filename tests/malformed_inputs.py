"""Every malformed input of the command line, in one table.

The paper's existence and uniqueness results hold only under its hypotheses,
so the program refuses each input outside them at the boundary: it exits 2,
names the offending cell (or the file and row of a dump), writes no report
and prints no traceback.  Each entry of ``CASES`` is one such input:

- a base document: a corpus template, a scenario of ``generate_corpus(0, ...)``,
  an ``estimate_template``, a text or, for a dump case, the dump a solve of
  one wrote;
- the edits made to it;
- the mode and the extra arguments;
- the text stderr must hold;
- the "nothing started" probe it keeps, where it has one: ``build_space``
  (no space is built), ``solve`` (nothing is solved) or ``out`` (the
  ``--out`` path is not created).

tests/test_config_cli.py runs every entry in process, probes included.  Run
as a script, this module runs every entry as a subprocess of
``python -m pdrbsde.cli`` and requires the exit code, the text, a single
stderr line with no traceback, no report of the mode and the ``out`` probe;
the other two probes need the process itself.  Each case's files go under
its own subdirectory of the directory given::

    PYTHONPATH=src python tests/malformed_inputs.py <empty directory>
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pdrbsde.scenario import corpus_templates, estimate_template, generate_corpus

# the report each mode writes once it has run
REPORTS = {"solve": "report.json", "verify": "verify_report.json",
           "oracle": "oracle_report.json", "estimate": "estimate_report.json",
           "certificate": "certificate.json", "formula-check": "formula_report.json"}


def template_doc(ti: int, seed=0, arithmetic="rational", **params) -> dict:
    """Corpus template ``ti`` as a scenario document."""
    tpl = corpus_templates()[ti]
    return {
        "schema": 1, "name": f"t{ti}", "grid": tpl["grid"], "marks": tpl["marks"],
        "barriers": tpl["barriers"], "driver": tpl["driver"],
        "params": params, "arithmetic": arithmetic, "seed": seed,
    }


# -- base documents: each a function of the case directory


def template(ti: int):
    return lambda root: template_doc(ti)


def corpus(i: int):
    """Scenario ``i`` of corpus seed 0 (it does not depend on the corpus size)."""
    return lambda root: json.loads(generate_corpus(0, i + 1, root / "corpus")[i].read_text())


def estimate(seed: int):
    return lambda root: estimate_template(seed)


# -- edits


def at(*keys, **values):
    """Set ``values`` in the part of the document that ``keys`` lead to."""
    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc.update(values)
    return edit


def rows(edit):
    """An edit of a dump file through its rows, each split at the commas."""
    def edit_file(path: Path):
        lines = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("\n".join(",".join(r) for r in edit(lines)) + "\n", encoding="utf-8")
    return edit_file


def _drop_zero_rows(lines):
    return lines[:1] + [r for r in lines[1:] if r[-1] != "0"]


def _set(lines, row, col, value):
    lines[row][col] = value
    return lines


def _not_utf8(path: Path):
    path.write_bytes(path.read_bytes().replace(b"mid", b"m\xefd", 1))


def _directory(path: Path):
    path.unlink()
    path.mkdir()


@dataclass(frozen=True)
class Case:
    """One malformed input.  ``group`` sorts the cases by where the refusal
    falls: ``config`` at load, ``contraction`` at the contraction checks
    before a solve, ``dump`` in the ``--mode verify`` loader, ``run`` in the
    command line's arguments or once the scenario is realized or run."""

    group: str
    mode: str
    base: Callable[[Path], object] | None
    edits: tuple = ()
    expect: str = ""  # "{config}" stands for the scenario file's path
    probe: str | None = None
    argv: tuple = ()
    out: str = "out"  # the --out path, under the case directory
    dump: tuple | None = None  # (file of a solved dump, its edit)

    def write(self, root: Path, run) -> list[str]:
        """Write the case's files under ``root``; ``run(argv)`` runs the
        command line for a dump's solve.  Returns the argv of the case."""
        cfg = root / "scenario.json"
        if self.base is not None:
            doc = self.base(root)
            for edit in self.edits:
                edit(doc)
            cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        if self.dump is not None:
            solve = ["--mode", "solve", "--config", str(cfg), "--out", str(root / self.out)]
            if run(solve) != 0:
                raise RuntimeError(f"the solve of the base scenario failed: {solve}")
            name, edit = self.dump
            edit(root / self.out / name)
        config = [] if self.mode in ("corpus", "formula-check") else ["--config", str(cfg)]
        return ["--mode", self.mode, *config, "--out", str(root / self.out), *self.argv]

    def problems(self, root: Path, code: int, err: str) -> list[str]:
        """How a run that ended with exit ``code`` and stderr ``err`` broke
        the rule, checked from outside the process: [] if it did not."""
        found = []
        if code != 2:
            found.append(f"exit {code}, not 2")
        expect = self.expect.format(config=root / "scenario.json")
        if expect not in err:
            found.append(f"stderr lacks {expect!r}")
        if err.count("\n") != 1 or "Traceback" in err:
            found.append("stderr is not one line without a traceback")
        out = root / self.out
        if self.mode in REPORTS and (out / REPORTS[self.mode]).is_file():
            found.append(f"{self.mode} wrote its report")
        if self.probe == "out" and out.exists():
            found.append(f"{out} was created")
        return found


def config(cell: str, base, *edits, mode="solve") -> Case:
    """A scenario refused at load, naming ``cell``, before any space is built."""
    return Case("config", mode, base, edits, f"[at {cell}]", "build_space")


def contraction(mode: str, cell: str, *edits) -> Case:
    """A contraction parameter a well-typed scenario gets wrong, refused
    before any solve: the outer loop of a linear driver (corpus scenario 003)
    and the a-priori estimate check them."""
    base = corpus(3) if mode == "solve" else estimate(0)
    return Case("contraction", mode, base, edits, f"[at {cell}]", "solve")


def dump(name: str, edit, expect: str) -> Case:
    """A malformed dump of corpus scenario 002 (16 paths, two steps, zero
    driver), refused naming the file and, for a malformed row, the row."""
    return Case("dump", "verify", corpus(2), expect=expect, dump=(name, edit))


def run(mode: str, base, *edits, expect: str, probe=None, argv=(), out="out") -> Case:
    return Case("run", mode, base, edits, expect, probe, argv, out)


_FLOAT = at(arithmetic="float")
_TABLES_SHORT_MID = at(barriers={"kind": "tables", "params": {
    "lower": {"mid": [["0"]]}, "upper": {"mid": [["1"], ["0"]]}}})
_FLOAT_OVERFLOW = "config error: a value left the float range during the run [at arithmetic]\n"
_NONPOSITIVE_FACTOR = ("config error: underlying factor not positive; reduce vol or dt "
                       "[at barriers]\n")
_NEGATIVE_COUNT = "--count and --pairs must be >= 0"

CASES = {
    # -- a field of the wrong type or out of its range, named by its cell
    "instant_string": config("marks[0].instant", template(1), at("marks", 0, instant="1")),
    "labels_duplicate": config("marks[0].labels", template(1), at("marks", 0, labels=["a", "a"])),
    "labels_not_list": config("marks[0].labels", template(1), at("marks", 0, labels="ab")),
    "labels_not_strings": config("marks[0].labels", template(1), at("marks", 0, labels=[0, 1])),
    "max_iter_string": config("params.max_iter", template(1), at("params", max_iter="ten")),
    "max_iter_fraction": config("params.max_iter", template(1), at("params", max_iter=2.5)),
    "max_outer_string": config("params.max_outer", template(1), at("params", max_outer="50")),
    "mark_not_object": config("marks[0]", template(1), at(marks=[1])),
    "seed_string": config("seed", template(1), at(seed="x")),
    "beta_string": config("params.beta", template(1), at("params", beta="abc")),
    "eps_string": config("params.eps", template(1), at("params", eps="abc")),
    "c_list": config("params.c", template(1), at("params", c=[2])),
    "tol_null": config("params.tol", template(1), at("params", tol=None)),
    "divergence_bound_bool": config("params.divergence_bound", template(1),
                                    at("params", divergence_bound=True)),
    "beta_nan": config("params.beta", template(1), at("params", beta="nan")),
    "eps_inf": config("params.eps", template(1), at("params", eps="inf")),
    "c_minus_inf": config("params.c", template(1), at("params", c="-inf")),
    "tol_nan": config("params.tol", template(1), at("params", tol="nan")),
    "divergence_bound_inf": config("params.divergence_bound", template(1),
                                   at("params", divergence_bound="inf")),
    "tol_negative": config("params.tol", template(1), at("params", tol=-1)),
    "oracle_tol_negative": config("params.tol", corpus(1), at("params", tol=-1), mode="oracle"),
    "divergence_bound_zero": config("params.divergence_bound", template(1),
                                    at("params", divergence_bound=0)),
    "beta_weight_overflow": config("params.beta", template(1), at("params", beta=1500)),
    "max_iter_zero": config("params.max_iter", template(1), at("params", max_iter=0)),
    "max_outer_zero": config("params.max_outer", template(1), at("params", max_outer=0)),
    "max_outer_negative": config("params.max_outer", template(1), at("params", max_outer=-3)),
    "barrier_params_list": config("barriers.params", template(1), at("barriers", params=[1, 2])),
    "driver_params_list": config("driver.params", template(1), at("driver", params=["a"])),
    # a present section is read as written: one that is not an object is refused
    "params_empty_string": config("params", template(1), at(params="")),
    "params_null": config("params", template(1), at(params=None)),
    "driver_false": config("driver", template(1), at(driver=False)),
    "barriers_list": config("barriers", template(1), at(barriers=[])),
    "grid_zero": config("grid", template(1), at(grid=0)),
    # a JSON boolean is not a number, nor a schema version; a name is a string
    "grid_t_bool": config("grid.T", template(0), at("grid", T=True)),
    "mark_prob_bool": config("marks[0].probs[0]", template(1), at("marks", 0, probs=[True])),
    "schema_bool": config("schema", template(1), at(schema=True)),
    "name_object": config("name", template(1), at(name={"a": 1})),
    "probs_scalar": config("marks[0].probs", template(1), at("marks", 0, probs=5)),
    # JSON's Infinity has no rational
    "grid_t_infinity": config("grid.T", template(0), at("grid", T=math.inf)),
    "mark_prob_infinity": config("marks[0].probs[0]", template(1),
                                 at("marks", 0, probs=[math.inf, "2/3"])),
    "constant_value_string": config("barriers.value", template(0),
                                    at("barriers", "params", value="x")),
    "constant_value_nan": config("barriers.value", template(0),
                                 at("barriers", "params", value=math.nan)),
    "deterministic_entry_string": config("barriers.lower[0]", template(5),
                                         at("barriers", "params", lower=["x", "0", "1"])),
    "deterministic_not_list": config("barriers.lower", template(5),
                                     at("barriers", "params", lower=5)),
    "game_option_vol_string": config("barriers.vol", template(3),
                                     at("barriers", "params", vol="x")),
    "game_option_penalty_short": config("barriers.penalty", template(3),
                                        at("barriers", "params", penalty=["1"])),
    "game_option_style_unknown": config("barriers.style", template(3),
                                        at("barriers", "params", style="straddle")),
    "random_scale_string": config("barriers.scale", template(1),
                                  at("barriers", "params", scale="abc")),
    "random_scale_list": config("barriers.scale", template(1),
                                at("barriers", "params", scale=[1])),
    "random_left_jumps_unknown": config("barriers.left_jumps", template(1),
                                        at("barriers", "params", left_jumps="sideways")),
    "random_right_jumps_usc": config("barriers.right_jumps", template(1),
                                     at("barriers", "params", right_jumps="usc")),
    "random_touching_string": config("barriers.touching", template(1),
                                     at("barriers", "params", touching="no")),
    "random_unknown_parameter": config("barriers.sclae", template(1),
                                       at("barriers", "params", sclae=2)),
    "barrier_kind_list": config("barriers.kind", template(1), at(barriers={"kind": ["random"]})),
    "tables_mid_short": config("barriers.lower.mid", template(0), _TABLES_SHORT_MID),
    "table_driver_scale_string": config("driver.scale", template(1),
                                        at("driver", "params", scale="x")),
    "linear_c_short": config("driver.c", template(3), at("driver", "params", c=["1"])),
    "linear_k_below_tiny_a": config("driver.K", template(3),
                                    at("driver", "params", a=1e-13, b=0, K=0)),
    "paths_over_cap": config("grid", template(1), _FLOAT, at(grid={"N": 40, "T": "1"})),
    # -- a number with no float, or a float step of zero
    "float_t_beyond_range": config("grid.T", template(0), _FLOAT, at("grid", T="1e400")),
    "rational_t_beyond_range": config("grid.T", template(0), at(grid={"N": 1, "T": "1e400"})),
    # the float step float(T)/N is zero: the norms and the estimate divide by it
    "float_step_underflow": config("grid.T", template(1), _FLOAT,
                                   at(grid={"N": 1, "T": "1e-700"})),
    "step_underflow_estimate": config("grid.T", template(0), at(grid={"N": 1, "T": "1e-400"}),
                                      mode="estimate"),
    "step_underflow_solve": config("grid.T", template(0), at(grid={"N": 1, "T": "1e-400"})),
    # float(T) is not zero, float(T)/4 is
    "subnormal_step_estimate": config("grid.T", template(0), at(grid={"N": 4, "T": "4e-324"}),
                                      mode="estimate"),
    "subnormal_step_solve": config("grid.T", template(0), at(grid={"N": 4, "T": "4e-324"})),
    "float_constant_value_beyond_range": config("barriers.value", template(0), _FLOAT,
                                                at("barriers", "params", value="1e400")),
    "float_game_option_spot_beyond_range": config("barriers.spot", template(3), _FLOAT,
                                                  at("barriers", "params", spot="1e400")),
    # the driver is read as floats in both modes, so each value needs a float
    "rational_linear_k_beyond_range": config("driver.K", template(3),
                                             at("driver", "params", K="1e400")),
    "rational_linear_c_beyond_range": config("driver.c[0]", template(3),
                                             at("driver", "params", c="1e400")),
    "rational_linear_a_beyond_range": config("driver.a", template(3),
                                             at("driver", "params", a="1e400", K="1e401")),
    "rational_linear_b_beyond_range": config("driver.b", template(3),
                                             at("driver", "params", b="-1e400", K="1e401")),
    "rational_table_scale_beyond_range": config("driver.scale", template(1),
                                                at("driver", "params", scale="1e400")),
    "float_linear_k_beyond_range": config("driver.K", template(3), _FLOAT,
                                          at("driver", "params", K="1e400")),
    # -- a key a section does not read, named under its section (bare at the top)
    "top_level_unknown_key": config("arithmatic", template(1), at(arithmatic="float")),
    "grid_unknown_key": config("grid.t", template(1), at("grid", t="1")),
    "params_unknown_key": config("params.betta", template(1), at("params", betta=5)),
    "mark_unknown_key": config("marks[0].when", template(1), at("marks", 0, when=1)),
    "barriers_unknown_key": config("barriers.param", template(1), at("barriers", param={})),
    "driver_unknown_key": config("driver.kinds", template(1), at("driver", kinds="zero")),
    # -- not a scenario file: a text nested past the JSON decoder's limit
    "nested_past_the_decoder": config("{config}", lambda root: "[" * 100_000 + "]" * 100_000),

    "solve_beta_below_bound": contraction("solve", "params.beta", at("params", beta=1)),
    "solve_c_modulus": contraction("solve", "params", at("params", c=100)),
    "solve_driver_a_modulus": contraction("solve", "params", at("driver", "params", a="5")),
    "estimate_beta_below_bound": contraction("estimate", "params.beta", at("params", beta=1)),
    # eps^2 underflows to zero
    "solve_eps_underflow": contraction("solve", "params.beta", at("params", eps="1e-200")),
    "estimate_eps_underflow": contraction("estimate", "params.beta", at("params", eps="1e-200")),
    # eps^2 or c^2 overflows: refused at load, naming the parameter
    "solve_eps_overflow": contraction("solve", "params.eps", at("params", eps="1e200")),
    "estimate_eps_overflow": contraction("estimate", "params.eps", at("params", eps="1e200")),
    "estimate_c_overflow": contraction("estimate", "params.c", at("params", c="1e200")),

    "missing_rows": dump("solution_B.csv", rows(_drop_zero_rows),
                         "solution_B.csv: missing row for slot minus, instant 0, path 0"),
    "duplicate_row": dump("solution_Y.csv", rows(lambda r: r + [r[5]]),
                          "solution_Y.csv row 130: duplicate row for instant 0, path 4"),
    "unknown_slot": dump("solution_M.csv", rows(lambda r: _set(r, 3, 1, "middle")),
                         "solution_M.csv row 4: unknown slot 'middle'"),
    "index_out_of_range": dump("solution_A.csv", rows(lambda r: _set(r, 3, 2, "16")),
                               "solution_A.csv row 4: instant 0, path 16 out of range"),
    "unparseable_value": dump("solution_Y.csv", rows(lambda r: _set(r, 7, 3, "abc")),
                              "solution_Y.csv row 8: unreadable row"),
    "short_row": dump("solution_Y.csv", rows(lambda r: r + [["3", "mid"]]),
                      "solution_Y.csv row 130: unreadable row"),
    "dump_not_utf8": dump("solution_M.csv", _not_utf8, "solution_M.csv: not UTF-8 text"),
    "dump_is_a_directory": dump("solution_Z.csv", _directory,
                                "solution_Z.csv: cannot read the dump (Is a directory)"),

    # -- refused once the scenario is realized: the barriers
    "barrier_order": run("solve", template(0), at(barriers={
        "kind": "deterministic", "params": {"lower": ["2", "0"], "upper": ["1", "0"]}}),
        expect="xi > zeta at mid slot, instant=0, path=0 [at barriers]", probe="solve"),
    # the exact factor 1 - vol sqrt(dt) is tested for its sign unrounded
    "nonpositive_factor": run("solve", corpus(3), at("barriers", "params", vol="3"),
                              expect=_NONPOSITIVE_FACTOR, probe="solve"),
    "nonpositive_factor_beyond_float": run("solve", corpus(3),
                                           at("barriers", "params", vol="1e400"),
                                           expect=_NONPOSITIVE_FACTOR, probe="solve"),
    # an exact barrier value with no float (corpus scenario 001: rational, random barriers)
    "rational_barrier_beyond_float": run(
        "solve", corpus(1), at("barriers", "params", scale="1e400"),
        expect="config error: a barrier value beyond the float range [at barriers]\n",
        probe="solve"),
    # -- numbers just inside the float range that overflow in the run's norms
    "float_run_overflow_scale": run("solve", corpus(1), _FLOAT,
                                    at("barriers", "params", scale="1e307"),
                                    expect=_FLOAT_OVERFLOW),
    "float_run_overflow_spot": run("solve", corpus(3), _FLOAT,
                                   at("barriers", "params", spot="1.7e308", strike=0),
                                   expect=_FLOAT_OVERFLOW),
    # 64 paths, but 8.6e27 stopping-rule evaluations
    "oracle_enumeration_past_cap": run(
        "oracle", estimate(1), at(grid={"N": 5, "T": "5/4"}, arithmetic="rational"),
        at("marks", 0, instant=2), expect="rule evaluations", probe="solve"),
    # -- the command line's arguments
    "config_missing": run("solve", None, expect="[at {config}]", probe="out"),
    "pairs_negative": run("estimate", None, argv=("--pairs", "-2"), expect=_NEGATIVE_COUNT,
                          probe="out"),
    "count_negative": run("corpus", None, argv=("--count", "-1"), expect=_NEGATIVE_COUNT,
                          probe="out"),
    # an --out at the case's scenario file, or under it
    "solve_out_is_a_file": run("solve", template(1), out="scenario.json", expect="[at --out]",
                               probe="build_space"),
    "solve_out_under_a_file": run("solve", template(1), out="scenario.json/out",
                                  expect="[at --out]", probe="build_space"),
    "corpus_out_is_a_file": run("corpus", template(1), out="scenario.json", expect="[at --out]"),
    "corpus_out_under_a_file": run("corpus", template(1), out="scenario.json/out",
                                   expect="[at --out]"),
    "formula_check_out_is_a_file": run("formula-check", template(1), argv=("--count", "1"),
                                       out="scenario.json", expect="[at --out]"),
    "formula_check_out_under_a_file": run("formula-check", template(1), argv=("--count", "1"),
                                          out="scenario.json/out", expect="[at --out]"),
}


def _cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pdrbsde.cli", *argv], capture_output=True,
                          text=True, errors="replace")


def main(root: Path) -> int:
    """Every case as a subprocess of ``python -m pdrbsde.cli``; 1 if any breaks the rule."""
    failed = 0
    for name, case in CASES.items():
        case_dir = root / name
        case_dir.mkdir(parents=True)
        argv = case.write(case_dir, lambda a: _cli(a).returncode)
        done = _cli(argv)
        problems = case.problems(case_dir, done.returncode, done.stderr)
        if problems:
            failed += 1
            print(f"{name}: {'; '.join(problems)}\n{done.stderr}", file=sys.stderr)
    print(f"{len(CASES) - failed} of {len(CASES)} malformed inputs exit 2 as they should",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <empty directory>")
    sys.exit(main(Path(sys.argv[1])))
