"""Scenario-driven command line frontend.

Modes: solve, verify, oracle, estimate, formula-check, certificate, corpus.
Exit codes: 0 all asserted clauses pass; 2 config invalid; 3 divergence (the
outer loop for a Lipschitz driver hit ``max_outer``, or the Picard oracle of
``--mode oracle``/``--mode certificate`` hit its cap); 4 verification failure;
5 oracle mismatch.
Reports are JSON (timings under their own key so re-runs are byte-identical
elsewhere), process dumps are CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .calculus_checks import (
    apriori_estimate_check,
    galchouk_lenglart_check,
    random_polynomial,
    random_semimartingale,
)
from .config import ConfigError, ScenarioConfig, config_from_dict, load_config
from .drbsde import (
    DivergenceError,
    NotAFixedPointError,
    SolutionSeptuple,
    assemble_solution,
    minimality_check,
    mokobodzki_certificate,
    random_nonneg_pss,
    shift_barriers,
    solve_driver_process,
    validate_driver_process,
)
from .driver_solver import (
    ContractionError,
    ContractionParams,
    beta_norm_h2,
    beta_norm_s2p,
    solve_general,
)
from .prob_space import FilteredSpace, build_space, dump_space_json
from .processes import (
    IntegrandProcess,
    LadlagProcess,
    ProcessError,
    from_slots,
    is_predictable_strong_supermartingale,
    p_add,
    p_sub,
    sup_distance,
)
from .reports import RunReport
from .scenario import Scenario, generate_corpus, perturb_driver, realize
from .snell import SnellEnumerationError, check_enumerable, snell_bruteforce, snell_envelope_slots
from .verify import verify_drbsde_solution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4
EXIT_ORACLE = 5


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, ContractionError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pdrbsde", description=__doc__)
    p.add_argument("--mode", required=True,
                   choices=["solve", "verify", "oracle", "estimate", "formula-check",
                            "certificate", "corpus"])
    p.add_argument("--config", help="scenario JSON file, or a directory of them")
    p.add_argument("--out", default="pdrbsde_out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--arithmetic", choices=["rational", "float"], default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="outer-loop tolerance for Lipschitz drivers; stopping "
                        "tolerance of the Picard oracle")
    p.add_argument("--max-iter", type=int, default=None,
                   help="iteration cap of the Picard oracle (oracle and certificate modes)")
    p.add_argument("--count", type=int, default=None,
                   help="corpus size / formula-check trial count")
    p.add_argument("--pairs", type=int, default=20, help="estimate-mode perturbation pairs")
    return p


def _dispatch(args) -> int:
    out_dir = Path(args.out)
    if args.mode == "corpus":
        count = args.count if args.count is not None else 10
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
        return max([_run_single(args, f, out_dir / f.stem) for f in files])
    return _run_single(args, cfg_path, out_dir)


def _load(args, cfg_path: Path) -> ScenarioConfig:
    config = load_config(str(cfg_path))
    doc = config.to_json_dict()
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.arithmetic is not None:
        doc["arithmetic"] = args.arithmetic
    if args.tol is not None:
        doc["params"]["tol"] = args.tol
    if args.max_iter is not None:
        doc["params"]["max_iter"] = args.max_iter
    return config_from_dict(doc)


def _run_single(args, cfg_path: Path, out_dir: Path) -> int:
    config = _load(args, cfg_path)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    cfg = scenario.config
    if scenario.has_general_driver:
        params = ContractionParams(beta=cfg.params.beta, eps=cfg.params.eps, c=cfg.params.c)
        sol, outer = solve_general(
            scenario.driver, scenario.barriers, params,
            tol=max(cfg.params.tol, 1e-12), max_outer=cfg.params.max_outer,
            probe_seed=cfg.seed,
        )
        g = scenario.driver.freeze(scenario.space, sol.y, sol.z)
        return sol, g, {"outer": outer.to_json_dict()}
    return solve_driver_process(scenario.barriers, scenario.g), scenario.g, {}


def _gate_tol(scenario: Scenario, float_tol: float = 1e-10):
    """The tolerance solve, verify and certificate hold a solution to.

    Float runs keep the backend's gate.  Rational runs are exact for a process
    driver; a Banach fixed point for a (y,z)-dependent driver is only reached
    within the outer tolerance, so the re-evaluated equation cannot be exact.
    """
    if scenario.space.mode == "float":
        return float_tol
    return 1e-10 if scenario.has_general_driver else 0


def _run_solve(config: ScenarioConfig, out_dir: Path) -> int:
    t0 = time.time()
    scenario = realize(config)
    sol, g, trace = _solve_scenario(scenario)
    report = verify_drbsde_solution(g, scenario.barriers, sol, tol=_gate_tol(scenario))
    _dump_solution(out_dir, sol, g)
    dump_space_json(scenario.space, str(out_dir / "space.json"))
    run = RunReport(
        mode="solve",
        scenario=config.name,
        digest=config.digest(),
        arithmetic=config.arithmetic,
        exit_code=EXIT_OK if report.passed else EXIT_VERIFY,
        y0=_y0(sol.y),
        norms=_norms(sol, config),
        verification=report,
        trace=trace,
        timings={"wall_seconds": time.time() - t0},
    )
    (out_dir / "report.json").write_text(run.to_json() + "\n", encoding="utf-8")
    print(f"[{config.name}] solve: {'PASS' if report.passed else 'FAIL'} "
          f"(max residual {report.max_residual:g})")
    return run.exit_code


def _y0(y: LadlagProcess):
    return float(y.mid[0][0])


def _norms(sol: SolutionSeptuple, config: ScenarioConfig) -> dict:
    beta = config.params.beta

    def sup(proc) -> float:
        return max(
            abs(float(x)) for k in range(proc.n_steps + 1) for x in proc.mid[k]
        )

    return {
        "y_s2p_beta": beta_norm_s2p(sol.y, beta),
        "z_h2_beta": beta_norm_h2(sol.z, beta),
        "y0": _y0(sol.y),
        "sup": {"Y": sup(sol.y), "M": sup(sol.m), "A": sup(sol.a), "B": sup(sol.b),
                "A_prime": sup(sol.a_prime), "B_prime": sup(sol.b_prime)},
    }


# ---------------------------------------------------------------------------
# dumps and verify


_COMPONENTS = ("Y", "M", "A", "B", "A_prime", "B_prime")


def _dump_solution(out_dir: Path, sol: SolutionSeptuple, g: list) -> None:
    """CSV dumps, one row per cell; ``str`` of a Fraction, ``repr`` of a float."""
    fmt = Fraction.__str__ if sol.y.space.mode == "rational" else float.__repr__

    def write(fh, prefix: str, values) -> None:
        fh.write("".join([f"{prefix}{i},{x}\r\n" for i, x in enumerate(map(fmt, values))]))

    for name, proc in zip(_COMPONENTS, (sol.y, sol.m, sol.a, sol.b, sol.a_prime, sol.b_prime)):
        with open(out_dir / f"solution_{name}.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write("instant,slot,path,value\r\n")
            n = proc.n_steps
            for k in range(n + 1):
                write(fh, f"{k},minus,", proc.minus[k])
                write(fh, f"{k},mid,", proc.mid[k])
                if k < n:
                    write(fh, f"{k},plus,", proc.plus[k])
    for file, rows in (("solution_Z.csv", sol.z.z), ("driver_g.csv", g)):
        with open(out_dir / file, "w", newline="", encoding="utf-8") as fh:
            fh.write("interval,path,value\r\n")
            for k, row in enumerate(rows):
                write(fh, f"{k},", row)


def _parse(space: FilteredSpace, s: str):
    return Fraction(s) if space.mode == "rational" else float(s)


def _read_cells(space: FilteredSpace, path: Path, index: str, sizes: dict) -> dict:
    """The values of a dumped CSV as ``{slot: [[value per path] per index]}``.

    ``sizes`` gives each slot name its number of instants (or intervals); a
    dump without a ``slot`` column has the one slot None.  Every cell must
    appear exactly once: a malformed row, an unknown slot, an index out of
    range, a duplicate or a missing cell is a ConfigError naming the file and
    the row.
    """
    cells = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path.name} row {reader.line_num}"
            slot = row.get("slot")
            if slot not in sizes:
                raise ConfigError(f"{where}: unknown slot {slot!r}")
            try:
                k, i = int(row[index]), int(row["path"])
                val = _parse(space, row["value"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{where}: unreadable row ({exc})") from None
            if not (0 <= k < sizes[slot] and 0 <= i < space.n_paths):
                raise ConfigError(f"{where}: {index} {k}, path {i} out of range")
            if (slot, k, i) in cells:
                raise ConfigError(f"{where}: duplicate row for {index} {k}, path {i}")
            cells[slot, k, i] = val
    for slot, size in sizes.items():
        for k in range(size):
            for i in range(space.n_paths):
                if (slot, k, i) not in cells:
                    name = "" if slot is None else f"slot {slot}, "
                    raise ConfigError(f"{path.name}: missing row for {name}{index} {k}, path {i}")
    return {slot: [[cells[slot, k, i] for i in range(space.n_paths)] for k in range(size)]
            for slot, size in sizes.items()}


def _load_process(space: FilteredSpace, path: Path) -> LadlagProcess:
    """A dumped process, unchecked: the verifier holds each component to its class."""
    n = space.n_steps
    slots = _read_cells(space, path, "instant", {"minus": n + 1, "mid": n + 1, "plus": n})
    return from_slots(space, slots["minus"], slots["mid"], slots["plus"])


def _load_integrand(space: FilteredSpace, path: Path) -> IntegrandProcess:
    z = _read_cells(space, path, "interval", {None: space.n_steps})[None]
    return IntegrandProcess(space=space, z=tuple(z))


def _run_verify(config: ScenarioConfig, out_dir: Path) -> int:
    scenario = realize(config)
    space = scenario.space
    missing = [n for n in _COMPONENTS if not (out_dir / f"solution_{n}.csv").exists()]
    if missing:
        raise ConfigError(f"no dumped solution in {out_dir} (missing {missing})")
    procs = {n: _load_process(space, out_dir / f"solution_{n}.csv") for n in _COMPONENTS}
    z = _load_integrand(space, out_dir / "solution_Z.csv")
    g = list(_load_integrand(space, out_dir / "driver_g.csv").z)
    try:
        validate_driver_process(space, g)
    except ProcessError as exc:
        raise ConfigError(f"driver_g.csv: {exc}") from None
    sol = SolutionSeptuple(y=procs["Y"], z=z, m=procs["M"], a=procs["A"], b=procs["B"],
                           a_prime=procs["A_prime"], b_prime=procs["B_prime"])
    report = verify_drbsde_solution(g, scenario.barriers, sol, tol=_gate_tol(scenario))
    (out_dir / "verify_report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    print(f"[{config.name}] verify: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# oracle


def _run_oracle(config: ScenarioConfig, out_dir: Path) -> int:
    """The production solution against the Picard oracle's, and the oracle's
    dynamic program against the stopping-rule enumeration."""
    scenario = realize(config)
    space = scenario.space
    try:
        check_enumerable(space)
    except SnellEnumerationError as exc:
        raise ConfigError(f"oracle mode: {exc}") from None
    sol, g, _ = _solve_scenario(scenario)
    xi_t, zeta_t = shift_barriers(scenario.barriers, g)
    from .drbsde import _kill_terminal

    tol = 0.0 if space.mode == "rational" else 1e-9
    j, jbar, _ = _picard_from_solution(scenario, g)
    mismatches = []
    try:
        oracle = assemble_solution(j, jbar, g, scenario.barriers)
    except NotAFixedPointError as exc:
        mismatches.append(f"picard: {exc}")
    else:
        gate = _gate_tol(scenario, float_tol=1e-9)
        for name in ("y", "m", "a", "b", "a_prime", "b_prime"):
            d = float(sup_distance(getattr(sol, name), getattr(oracle, name)))
            if d > gate:
                mismatches.append(f"{name}: solution vs picard differ by {d:g}")
        d = max((abs(float(a - b)) for zs, zo in zip(sol.z.z, oracle.z.z)
                 for a, b in zip(zs, zo)), default=0.0)
        if d > gate:
            mismatches.append(f"z: solution vs picard differ by {d:g}")
    for name, barrier, target in (
        ("lower", _kill_terminal(p_add(jbar, xi_t, kind="predictable")), j),
        ("upper", _kill_terminal(p_sub(j, zeta_t, kind="predictable")), jbar),
    ):
        dp = snell_envelope_slots(barrier)
        brute = snell_bruteforce(barrier)
        d_oracle = float(sup_distance(dp, brute))
        d_fix = float(sup_distance(dp, target))
        if d_oracle > tol:
            mismatches.append(f"{name}: dynamic program vs enumeration differ by {d_oracle:g}")
        if d_fix > tol:
            mismatches.append(f"{name}: fixed point vs recursion differ by {d_fix:g}")
    doc = {"scenario": config.name, "digest": config.digest(), "mismatches": mismatches,
           "pass": not mismatches}
    (out_dir / "oracle_report.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"[{config.name}] oracle: {'PASS' if not mismatches else 'FAIL'}")
    return EXIT_OK if not mismatches else EXIT_ORACLE


def _picard_from_solution(scenario: Scenario, g: list):
    from .drbsde import picard_coupled

    xi_t, zeta_t = shift_barriers(scenario.barriers, g)
    cfg = scenario.config
    return picard_coupled(xi_t, zeta_t, tol=cfg.params.tol, max_iter=cfg.params.max_iter,
                          divergence_bound=cfg.params.divergence_bound)


# ---------------------------------------------------------------------------
# estimate


def _run_estimate(config: ScenarioConfig, out_dir: Path, pairs: int) -> int:
    scenario = realize(config)
    if scenario.has_general_driver:
        raise ConfigError("estimate mode needs a process driver (zero or table)")
    cfg = scenario.config
    # The component estimate needs step-size headroom beyond beta > 1/eps^2:
    # a mark-measurable driver difference carries the exact factor dt/eps^2 on
    # the jump channel, so warn when the grid leaves none.
    import math

    dt = float(cfg.t_horizon) / cfg.n_steps
    headroom = cfg.params.eps**2 * (1 - math.exp(-cfg.params.beta * dt)) / dt
    if headroom < 1:
        print(
            f"[{config.name}] estimate: warning, grid headroom "
            f"eps^2 (1 - e^(-beta dt))/dt = {headroom:.3f} < 1; violations are "
            f"expected on coarse grids",
            file=sys.stderr,
        )
    base_sol = solve_driver_process(scenario.barriers, scenario.g)
    rows, violations = [], 0
    for i in range(pairs):
        g_bar = perturb_driver(scenario.space, scenario.g, seed=cfg.seed * 1000 + i)
        sol_bar = solve_driver_process(scenario.barriers, g_bar)
        rep = apriori_estimate_check(
            base_sol, sol_bar, scenario.g, g_bar,
            beta=cfg.params.beta, eps=cfg.params.eps, c=cfg.params.c,
        )
        rows.append(rep.to_json_dict())
        if not rep.z_m_holds:
            violations += 1
    doc = {"scenario": config.name, "pairs": pairs, "violations": violations,
           "grid_headroom": headroom, "results": rows}
    (out_dir / "estimate_report.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"[{config.name}] estimate: {pairs} pairs, {violations} violations")
    return EXIT_OK if violations == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# formula-check


def _run_formula_check(args, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
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
    (out_dir / "formula_report.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"formula-check: {count} trials, max deviation {worst:g}")
    return EXIT_OK if worst == 0.0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# certificate


def _run_certificate(config: ScenarioConfig, out_dir: Path) -> int:
    scenario = realize(config)
    sol, g, _ = _solve_scenario(scenario)
    h, hbar = mokobodzki_certificate(scenario.barriers, g, solution=sol)
    xi_t, zeta_t = shift_barriers(scenario.barriers, g)
    j, jbar, _ = _picard_from_solution(scenario, g)
    ok_min = minimality_check(
        j, jbar,
        p_add(j, random_nonneg_pss(scenario.space, random.Random(f"mini:{config.seed}")),
              kind="predictable"),
        p_add(jbar, random_nonneg_pss(scenario.space, random.Random(f"mini:{config.seed}")),
              kind="predictable"),
        xi_t, zeta_t,
    )
    ok_pss = (is_predictable_strong_supermartingale(h)
              and is_predictable_strong_supermartingale(hbar))
    tol = _gate_tol(scenario, float_tol=1e-9)
    diff = p_sub(h, hbar, kind="predictable")
    sandwich_dev = 0.0
    for k in range(scenario.space.n_steps + 1):
        for i in range(scenario.space.n_paths):
            lo = float(scenario.barriers.xi.mid[k][i] - diff.mid[k][i])
            hi = float(diff.mid[k][i] - scenario.barriers.zeta.mid[k][i])
            sandwich_dev = max(sandwich_dev, lo, hi)
    ok = ok_pss and ok_min and sandwich_dev <= tol
    doc = {"scenario": config.name, "supermartingales": ok_pss,
           "sandwich_deviation": sandwich_dev, "minimality": ok_min, "pass": ok,
           "h0": float(h.mid[0][0]), "hbar0": float(hbar.mid[0][0])}
    (out_dir / "certificate.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"[{config.name}] certificate: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
