"""Scenario-driven command line frontend.

Modes: solve, verify, oracle, estimate, formula-check, certificate, corpus.
Exit codes: 0 all asserted clauses pass; 2 malformed input, named by its cell
(tests/malformed_inputs.py lists them); 3 divergence (the outer loop
for a Lipschitz driver hit ``max_outer``, or the Picard oracle of ``--mode
oracle``/``--mode certificate`` hit its cap); 4 verification failure (also a
process that fails a class the certificate needs); 5 oracle mismatch.
Reports are JSON (timings under their own key so re-runs are byte-identical
elsewhere), process dumps are CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import random
import stat
import sys
import time
from pathlib import Path

from . import values as v
from .calculus_checks import (
    apriori_estimate_check,
    galchouk_lenglart_check,
    random_polynomial,
    random_semimartingale,
)
from .config import ConfigError, ScenarioConfig, config_from_dict, load_config
from .drbsde import (
    DivergenceError,
    SolutionSeptuple,
    _kill_terminal,
    assemble_solution,
    minimality_check,
    mokobodzki_certificate,
    picard_coupled,
    potential,
    shift_barriers,
    solve_driver_process,
)
from .driver_solver import (
    ContractionError,
    beta_norm_h2,
    beta_norm_s2p,
    check_beta,
    solve_general,
)
from .prob_space import FilteredSpace, SpaceError, build_space, is_measurable, space_document
from .processes import (
    LadlagProcess,
    ProcessError,
    from_slots,
    is_predictable_strong_supermartingale,
    p_add,
    p_sub,
    sup_distance,
)
from .scenario import Scenario, generate_corpus, perturb_driver, realize
from .snell import SnellEnumerationError, check_enumerable, snell_bruteforce
from .verify import verify_drbsde_solution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4
EXIT_ORACLE = 5


def main(argv: list[str] | None = None) -> int:
    return _exit_code("", _dispatch, _build_parser().parse_args(argv))


def _exit_code(where: str, run, *args) -> int:
    """``run(*args)``, with the errors a run can end in mapped to their exit
    codes and printed to stderr after ``where``."""
    try:
        try:
            return run(*args)
        except OverflowError:  # the scenario's numbers are too large for floats
            raise ConfigError("a value left the float range during the run", "arithmetic") from None
    except (ConfigError, SpaceError) as exc:
        print(f"{where}config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, ContractionError) as exc:
        print(f"{where}divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ProcessError as exc:
        print(f"{where}verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pdrbsde", description=__doc__)
    p.add_argument("--mode", required=True,
                   choices=["solve", "verify", "oracle", "estimate", "formula-check",
                            "certificate", "corpus"])
    p.add_argument("--config", help="scenario JSON file, or a directory of them")
    p.add_argument("--out", default="pdrbsde_out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--arithmetic", choices=["rational", "float"], default=None)
    p.add_argument("--count", type=int, default=None,
                   help="corpus size / formula-check trial count")
    p.add_argument("--pairs", type=int, default=20, help="estimate-mode perturbation pairs")
    return p


def _dispatch(args) -> int:
    if min(args.pairs, args.count or 0) < 0:
        raise ConfigError(f"--count and --pairs must be >= 0, got {args.count} and {args.pairs}")
    out_dir = Path(args.out)
    if args.mode == "corpus":
        count = args.count if args.count is not None else 10
        _make_out(out_dir)
        paths = generate_corpus(args.seed if args.seed is not None else 0, count, out_dir)
        print(f"wrote {len(paths)} scenarios to {out_dir}")
        return EXIT_OK
    if args.mode == "formula-check":
        return _run_formula_check(args, out_dir)
    if not args.config:
        raise ConfigError("--config is required for this mode")

    cfg_path = Path(args.config)
    if cfg_path.is_dir():
        files = sorted(cfg_path.glob("*.json"))
        if not files:
            raise ConfigError(f"no scenario files in {cfg_path}")
        # one failed scenario does not stop the others
        return max([_exit_code(f"{f.name}: ", _run_single, args, f, out_dir / f.stem)
                    for f in files])
    return _run_single(args, cfg_path, out_dir)


def _make_out(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path, or above it
        raise ConfigError(f"cannot create {out_dir}: {exc.strerror}", "--out") from None


def _load(args, cfg_path: Path) -> ScenarioConfig:
    """The scenario file, read once, and read again only to apply the command
    line's overrides."""
    config = load_config(str(cfg_path))
    if (args.seed, args.arithmetic) == (None, None):
        return config
    doc = config.to_json_dict()
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.arithmetic is not None:
        doc["arithmetic"] = args.arithmetic
    return config_from_dict(doc)


def _run_single(args, cfg_path: Path, out_dir: Path) -> int:
    config = _load(args, cfg_path)
    _make_out(out_dir)
    if args.mode == "solve":
        return _run_solve(config, out_dir)
    if args.mode == "verify":
        return _run_verify(config, out_dir)
    if args.mode == "oracle":
        return _run_oracle(config, out_dir)
    if args.mode == "estimate":
        return _run_estimate(config, out_dir, args.pairs)
    if args.mode == "certificate":
        return _run_certificate(config, out_dir)
    raise ConfigError(f"mode {args.mode} not applicable")


# ---------------------------------------------------------------------------
# solve


def _solve_scenario(scenario: Scenario):
    if scenario.has_general_driver:
        sol, outer = solve_general(scenario.driver, scenario.barriers, scenario.config.params)
        return sol, scenario.driver_rows(sol), {"outer": outer.to_json_dict()}
    return solve_driver_process(scenario.barriers, scenario.g_rows), scenario.g_rows, {}


def _gate_tol(scenario: Scenario, float_tol: float = 1e-10):
    """The tolerance solve, verify and certificate hold a solution to.

    Float runs keep the backend's gate.  Rational runs are exact for a process
    driver; a Banach fixed point for a (y,z)-dependent driver is only reached
    within the outer tolerance, so the re-evaluated equation cannot be exact.
    """
    return v.gate(scenario.space.mode, float_tol, 1e-10 if scenario.has_general_driver else 0)


def _run_solve(config: ScenarioConfig, out_dir: Path) -> int:
    t0 = time.time()
    scenario = realize(config)
    sol, g, trace = _solve_scenario(scenario)
    report = verify_drbsde_solution(g, scenario.barriers, sol, tol=_gate_tol(scenario))
    _dump_solution(out_dir, sol, g)
    _write_json(out_dir / "space.json", space_document(scenario.space, config.marks))
    exit_code = EXIT_OK if report.passed else EXIT_VERIFY
    _write_json(out_dir / "report.json", {
        "mode": "solve", "scenario": config.name, "digest": config.digest(),
        "arithmetic": config.arithmetic, "exit_code": exit_code, "y0": _y0(sol.y),
        "norms": _norms(sol, config), "verification": report.to_json_dict(), "trace": trace,
        "timings": {"wall_seconds": time.time() - t0}})
    print(f"[{config.name}] solve: {'PASS' if report.passed else 'FAIL'} "
          f"(max residual {report.max_residual:g})")
    return exit_code


def _write_json(path: Path, doc: dict) -> None:
    """A report: sorted keys, one space of indent, a final newline."""
    with _output(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


@contextlib.contextmanager
def _output(path: Path):
    """``path`` open for writing as UTF-8 text, ``newline=""``: the opener of
    every file a run writes.  The text goes over the old file in place, and a
    regular file is cut at the final position on exit, by an exception too.
    It is not truncated to zero on opening: ext4 (``auto_da_alloc``) writes a
    file truncated to zero back to disk on close, which costs several times
    the write itself (ROADMAP, Baseline).  A path that cannot be written is a
    ConfigError naming the file."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="utf-8", newline="") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            try:
                yield fh
            finally:
                if regular:  # a device or a pipe has no old text, and cannot be cut
                    fh.truncate()
    except OSError as exc:  # a directory at the path, say
        raise ConfigError(f"cannot write {path.name} ({exc.strerror})", "--out") from None


def _y0(y: LadlagProcess):
    return float(v.entries(y.mid_rows[0])[0])


def _norms(sol: SolutionSeptuple, config: ScenarioConfig) -> dict:
    beta = config.params.beta
    return {
        "y_s2p_beta": beta_norm_s2p(sol.y.space, sol.y.mid_rows, beta),
        "z_h2_beta": beta_norm_h2(sol.y.space, sol.z, beta),
        "y0": _y0(sol.y),
        "sup": {name: v.max_magnitude(getattr(sol, field).mid_rows)
                for name, field in _COMPONENTS.items()},
    }


# ---------------------------------------------------------------------------
# dumps and verify


# each dumped process: its name in the dump files -> its SolutionSeptuple field
_COMPONENTS = {"Y": "y", "M": "m", "A": "a", "B": "b", "A_prime": "a_prime", "B_prime": "b_prime"}


def _dump_solution(out_dir: Path, sol: SolutionSeptuple, g: list) -> None:
    """CSV dumps, one row per cell; ``str`` of a Fraction, ``repr`` of a float.

    Each atom's value is written for every path of its block, and each
    distinct nonzero value is formatted once per file.  A file's cells go to
    ``v.dump_lines`` in slot order, so that a cadlag slot repeating its mid
    row, or a running sum's minus slot its previous mid, is the same row
    object in the next cell and is joined from the pieces it left."""
    space = sol.y.space
    paths = [f"{i}," for i in range(space.n_paths)]

    def slots(proc):
        n = proc.n_steps
        for k in range(n + 1):
            yield f"{k},minus,", proc.minus_rows[k]
            yield f"{k},mid,", proc.mid_rows[k]
            if k < n:
                yield f"{k},plus,", proc.plus_rows[k]

    def write(file: str, header: str, cells) -> None:
        with _output(out_dir / file) as fh:
            fh.write(header)
            fh.writelines(v.dump_lines(space.mode, cells, paths, "\r\n"))

    for name, field in _COMPONENTS.items():
        write(f"solution_{name}.csv", "instant,slot,path,value\r\n", slots(getattr(sol, field)))
    # driver_g.csv is for readers: --mode verify takes the driver from the scenario
    for file, rows in (("solution_Z.csv", sol.z), ("driver_g.csv", g)):
        write(file, "interval,path,value\r\n", ((f"{k},", row) for k, row in enumerate(rows)))


def _read_cells(space: FilteredSpace, path: Path, index: str, partitions: dict) -> dict:
    """The rows of a dumped CSV as ``{slot: [row per index]}``.

    ``partitions`` gives each slot name the partition of each of its instants
    (or intervals); a dump without a ``slot`` column has the one slot None.
    Every cell must appear exactly once: a malformed row, an unknown slot, an
    index out of range, a duplicate or a missing cell is a ConfigError naming
    the file and the row.  A row constant on the atoms of its partition is
    kept once per atom, any other row once per path, as a row of the mode.
    """
    n_paths = space.n_paths
    cells = {slot: [[None] * n_paths for _ in parts] for slot, parts in partitions.items()}
    filled = 0
    parsed = {}  # text -> value, so that a repeated value is parsed once
    parse = space.backend.parse
    reader = csv.reader(_dump_lines(path))
    column = {name: j for j, name in enumerate(next(reader, []))}
    at_slot = column.get("slot", math.inf)  # a dump without slots has the one slot None
    # a column the header lacks is at None, which no row can be indexed by
    at_k, at_i, at_value = map(column.get, (index, "path", "value"))

    def where() -> str:
        return f"{path.name} row {reader.line_num}"

    for row in reader:
        if not row:
            continue
        slot = row[at_slot] if at_slot < len(row) else None
        if slot not in cells:
            raise ConfigError(f"{where()}: unknown slot {slot!r}")
        try:
            k, i, text = int(row[at_k]), int(row[at_i]), row[at_value]
            val = parsed.get(text)
            if val is None:
                val = parse(text)
                if val == val:  # a NaN stays a value of its own
                    parsed[text] = val
        except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where()}: unreadable row ({exc})") from None
        rows = cells[slot]
        if not (0 <= k < len(rows) and 0 <= i < n_paths):
            raise ConfigError(f"{where()}: {index} {k}, path {i} out of range")
        if rows[k][i] is not None:
            raise ConfigError(f"{where()}: duplicate row for {index} {k}, path {i}")
        rows[k][i] = val
        filled += 1
    if filled < sum(map(len, cells.values())) * n_paths:
        slot, k, i = next((slot, k, i) for slot, rows in cells.items()
                          for k, row in enumerate(rows) for i, x in enumerate(row) if x is None)
        name = "" if slot is None else f"slot {slot}, "
        raise ConfigError(f"{path.name}: missing row for {name}{index} {k}, path {i}")
    return {slot: [_collapse(space, row, part) for row, part in zip(rows, partitions[slot])]
            for slot, rows in cells.items()}


def _dump_lines(path: Path):
    """The lines of a dump file, read as UTF-8 text."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from fh
    except OSError as exc:  # a directory at the dump's path, say
        raise ConfigError(f"{path.name}: cannot read the dump ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path.name}: not UTF-8 text") from None


def _collapse(space: FilteredSpace, row: list, partition):
    """The row of the mode, once per atom of the partition if it is measurable
    there, else once per path."""
    if is_measurable(space, row, partition):
        row = v.coarsen(row, len(partition))
    return v.as_row(space.mode, row)


def _load_process(space: FilteredSpace, path: Path) -> LadlagProcess:
    """A dumped process, unchecked: the verifier holds each component to its class."""
    n = space.n_steps
    slots = _read_cells(space, path, "instant", {"minus": space.sigma_minus,
                                                 "mid": space.sigma_mid,
                                                 "plus": space.sigma_mid[:n]})
    return from_slots(space, slots["minus"], slots["mid"], slots["plus"])


def _load_rows(space: FilteredSpace, path: Path) -> list:
    """A dumped integrand: one row per interval, unchecked."""
    return _read_cells(space, path, "interval", {None: space.sigma_mid[:space.n_steps]})[None]


def _run_verify(config: ScenarioConfig, out_dir: Path) -> int:
    scenario = realize(config)
    space = scenario.space
    missing = [n for n in _COMPONENTS if not (out_dir / f"solution_{n}.csv").exists()]
    if missing:
        raise ConfigError(f"no dumped solution in {out_dir} (missing {missing})")
    procs = {field: _load_process(space, out_dir / f"solution_{name}.csv")
             for name, field in _COMPONENTS.items()}
    sol = SolutionSeptuple(z=_load_rows(space, out_dir / "solution_Z.csv"), **procs)
    report = verify_drbsde_solution(scenario.driver_rows(sol), scenario.barriers, sol,
                                    tol=_gate_tol(scenario))
    _write_json(out_dir / "verify_report.json", report.to_json_dict())
    print(f"[{config.name}] verify: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# oracle


def _run_oracle(config: ScenarioConfig, out_dir: Path) -> int:
    """The production solution against the Picard oracle's, and the oracle's
    pair, the dynamic program's envelopes of its barriers, against the
    stopping-rule enumeration's."""
    scenario = realize(config)
    space = scenario.space
    try:
        check_enumerable(space)
    except SnellEnumerationError as exc:
        raise ConfigError(f"oracle mode: {exc}") from None
    sol, g, _ = _solve_scenario(scenario)
    xi_t, zeta_t, x, j, jbar = _picard_from_solution(scenario, g)
    oracle = assemble_solution(j, jbar, x, g, scenario.barriers)
    mismatches = []
    gate = _gate_tol(scenario, float_tol=1e-9)
    for name in _COMPONENTS.values():
        d = float(sup_distance(getattr(sol, name), getattr(oracle, name)))
        if d > gate:
            mismatches.append(f"{name}: solution vs picard differ by {d:g}")
    d = v.max_magnitude(map(v.sub, sol.z, oracle.z))
    if d > gate:
        mismatches.append(f"z: solution vs picard differ by {d:g}")
    tol = v.gate(space.mode, 1e-9)
    for name, envelope, barrier in (("lower", j, _kill_terminal(p_add(jbar, xi_t))),
                                    ("upper", jbar, _kill_terminal(p_sub(j, zeta_t)))):
        d = float(sup_distance(envelope, snell_bruteforce(barrier)))
        if d > tol:
            mismatches.append(f"{name}: dynamic program vs enumeration differ by {d:g}")
    doc = {"scenario": config.name, "digest": config.digest(), "mismatches": mismatches,
           "pass": not mismatches}
    _write_json(out_dir / "oracle_report.json", doc)
    print(f"[{config.name}] oracle: {'PASS' if not mismatches else 'FAIL'}")
    return EXIT_OK if not mismatches else EXIT_ORACLE


def _picard_from_solution(scenario: Scenario, g: list):
    """The shifted barriers, the plain part they were shifted by, and the
    Picard oracle's (J, Jbar) for them."""
    xi_t, zeta_t, x = shift_barriers(scenario.barriers, g)
    params = scenario.config.params
    j, jbar, _ = picard_coupled(xi_t, zeta_t, max_iter=params.max_iter,
                                divergence_bound=params.divergence_bound)
    return xi_t, zeta_t, x, j, jbar


# ---------------------------------------------------------------------------
# estimate


def _run_estimate(config: ScenarioConfig, out_dir: Path, pairs: int) -> int:
    check_beta(config.params.beta, config.params.eps)
    scenario = realize(config)
    if scenario.has_general_driver:
        raise ConfigError("estimate mode needs a process driver (zero or table)")
    cfg = scenario.config
    # The component estimate needs step-size headroom beyond beta > 1/eps^2:
    # a mark-measurable driver difference carries the exact factor dt/eps^2 on
    # the jump channel, so warn when the grid leaves none.
    dt = float(cfg.t_horizon) / cfg.n_steps
    headroom = cfg.params.eps**2 * (1 - math.exp(-cfg.params.beta * dt)) / dt
    if headroom < 1:
        print(
            f"[{config.name}] estimate: warning, grid headroom "
            f"eps^2 (1 - e^(-beta dt))/dt = {headroom:.3f} < 1; violations are "
            f"expected on coarse grids",
            file=sys.stderr,
        )
    g = scenario.g_rows
    base_sol = solve_driver_process(scenario.barriers, g)
    rows, violations = [], 0
    for i in range(pairs):
        g_bar = perturb_driver(scenario.space, g, seed=cfg.seed * 1000 + i)
        sol_bar = solve_driver_process(scenario.barriers, g_bar)
        rep = apriori_estimate_check(
            base_sol, sol_bar, g, g_bar,
            beta=cfg.params.beta, eps=cfg.params.eps, c=cfg.params.c,
        )
        rows.append(rep.to_json_dict())
        if not rep.z_m_holds:
            violations += 1
    doc = {"scenario": config.name, "pairs": pairs, "violations": violations,
           "grid_headroom": headroom, "results": rows}
    _write_json(out_dir / "estimate_report.json", doc)
    print(f"[{config.name}] estimate: {pairs} pairs, {violations} violations")
    return EXIT_OK if violations == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# formula-check


def _run_formula_check(args, out_dir: Path) -> int:
    _make_out(out_dir)
    count = args.count if args.count is not None else 200
    seed = args.seed if args.seed is not None else 0
    worst = 0.0
    for i in range(count):
        rng = random.Random(f"gl:{seed}:{i}")
        n_steps, horizon = rng.choice([(1, "1"), (1, "4"), (2, "1/2"), (2, "2")])
        doc = {
            "schema": 1, "name": f"gl_{i}",
            "grid": {"N": n_steps, "T": horizon},
            "marks": ([{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}]
                      if rng.random() < 0.5 else []),
            "barriers": {"kind": "constant", "params": {"value": 0}},
            "driver": {"kind": "zero", "params": {}},
            "params": {}, "arithmetic": "rational", "seed": seed,
        }
        space = build_space(config_from_dict(doc))
        n_vars = rng.choice([1, 2, 3])
        comps = [random_semimartingale(space, rng) for _ in range(n_vars)]
        poly = random_polynomial(rng, n_vars)
        rep = galchouk_lenglart_check(comps, poly)
        worst = max(worst, rep.max_deviation)
    doc = {"trials": count, "max_deviation": worst, "pass": worst == 0.0}
    _write_json(out_dir / "formula_report.json", doc)
    print(f"formula-check: {count} trials, max deviation {worst:g}")
    return EXIT_OK if worst == 0.0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# certificate


def _run_certificate(config: ScenarioConfig, out_dir: Path) -> int:
    scenario = realize(config)
    sol, g, _ = _solve_scenario(scenario)
    h, hbar = mokobodzki_certificate(scenario.barriers, g, solution=sol)
    xi_t, zeta_t, _, j, jbar = _picard_from_solution(scenario, g)
    # minimality against the potentials of the solution's own reflectors: the
    # minimal pair lies below them and, being minimal, reaches them
    space, min_tol = scenario.space, _gate_tol(scenario)
    zeros = [space.zero()] * space.n_steps
    r = potential(space, space.zero(), zeros, sol.a, sol.b)
    rbar = potential(space, space.zero(), zeros, sol.a_prime, sol.b_prime)
    try:
        ok_min = (minimality_check(j, jbar, r, rbar, xi_t, zeta_t, min_tol)
                  and max(sup_distance(j, r), sup_distance(jbar, rbar)) <= min_tol)
    except ProcessError as exc:  # the dominating pair is not admissible
        print(f"[{config.name}] certificate: {exc}", file=sys.stderr)
        ok_min = False
    ok_pss = (is_predictable_strong_supermartingale(h)
              and is_predictable_strong_supermartingale(hbar))
    diff = p_sub(h, hbar)
    sandwich_dev = 0.0
    for k in range(space.n_steps + 1):
        lows = v.sub(scenario.barriers.xi.mid_rows[k], diff.mid_rows[k])
        highs = v.sub(diff.mid_rows[k], scenario.barriers.zeta.mid_rows[k])
        sandwich_dev = v.max_float(sandwich_dev, (lows, highs))
    ok = ok_pss and ok_min and sandwich_dev <= _gate_tol(scenario, float_tol=1e-9)
    doc = {"scenario": config.name, "supermartingales": ok_pss,
           "sandwich_deviation": sandwich_dev, "minimality": ok_min, "pass": ok,
           "h0": float(v.entries(h.mid_rows[0])[0]),
           "hbar0": float(v.entries(hbar.mid_rows[0])[0])}
    _write_json(out_dir / "certificate.json", doc)
    print(f"[{config.name}] certificate: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
