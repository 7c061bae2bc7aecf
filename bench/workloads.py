"""The three workloads: their inputs, their CLI calls, and their checks.

Each workload writes its scenario files from the seed, names the CLI calls of
one round, counts the operations a round attempted and the ones that failed,
and checks the dumped outputs against the reference recursion.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from pdrbsde.config import config_from_dict
from pdrbsde.scenario import estimate_template, generate_corpus, perturb_driver, realize

import reference as ref

COMPONENTS = ("Y", "M", "A", "B", "A_prime", "B_prime")


# ---------------------------------------------------------------------------
# shared helpers


def problem_of(scenario, g) -> ref.Problem:
    """The reference's view of a realized scenario: plain lists and atoms."""
    space = scenario.space

    def slots(p):
        return ref.Slots(list(p.minus), list(p.mid), list(p.plus))

    return ref.Problem(
        weights=list(space.weights), dw=[list(d) for d in space.dw],
        sigma_minus=space.sigma_minus, sigma_mid=space.sigma_mid, dt=space.dt,
        xi=slots(scenario.barriers.xi), zeta=slots(scenario.barriers.zeta), g=g,
    )


def read_dump(out: Path, n: int, n_paths: int, parse) -> dict:
    """The CLI's solution_*.csv and driver_g.csv files, keyed as the reference
    keys its components (plus ``g``)."""
    dump = {}
    for name in COMPONENTS:
        slots = {"minus": [[None] * n_paths for _ in range(n + 1)],
                 "mid": [[None] * n_paths for _ in range(n + 1)],
                 "plus": [[None] * n_paths for _ in range(n)]}
        with open(out / f"solution_{name}.csv", newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            next(rows)
            for k, slot, i, value in rows:
                slots[slot][int(k)][int(i)] = parse(value)
        dump[name] = ref.Slots(slots["minus"], slots["mid"], slots["plus"])
    for name, file in (("Z", "solution_Z.csv"), ("g", "driver_g.csv")):
        rows_out = [[None] * n_paths for _ in range(n)]
        with open(out / file, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            next(rows)
            for k, i, value in rows:
                rows_out[int(k)][int(i)] = parse(value)
        dump[name] = rows_out
    return dump


def _as_rows(x) -> list:
    return [*x.minus, *x.mid, *x.plus] if isinstance(x, ref.Slots) else x


def max_gap(dump: dict, expected: dict) -> tuple[float, str]:
    """Largest absolute difference over every cell of the expected components,
    with the component it occurs in; exact when both sides are Fractions.  A
    missing cell counts as infinite."""
    worst, where = 0, ""
    for name, want in expected.items():
        for have_row, want_row in zip(_as_rows(dump[name]), _as_rows(want), strict=True):
            for h, w in zip(have_row, want_row, strict=True):
                if h is None:
                    return math.inf, name
                gap = abs(h - w) if type(h) is type(w) else abs(h - float(w))
                if gap > worst:
                    worst, where = gap, name
    return worst, where


def _rows_sub(a: list, b: list) -> list:
    return [ref.sub(x, y) for x, y in zip(a, b)]


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _write(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# float-ladder


class FloatLadder:
    """``--mode solve`` on float scenarios of growing path count.

    The rungs keep dt = 1/16 (so every float value is dyadic and exact) and
    double the paths with each step of N; the off-grid rung keeps the
    template's horizon T = 1/2 at N = 10, so sqrt(dt) is irrational.  Its
    seed is fixed: on it, verification fails every time (see README).
    """

    RUNGS = ((6, "3/8"), (8, "1/2"), (10, "5/8"))
    OFF_GRID = (10, "1/2", 1)

    def write_inputs(self, seed: int, work: Path) -> list[Path]:
        rungs = [(f"ladder_{n}", n, t, seed) for n, t in self.RUNGS]
        n, t, fixed_seed = self.OFF_GRID
        rungs.append((f"offgrid_{n}", n, t, fixed_seed))
        paths = []
        for name, n, t, s in rungs:
            doc = estimate_template(s)
            doc.update(name=name, grid={"N": n, "T": t})
            doc["marks"] = [dict(doc["marks"][0], instant=n // 2)]
            paths.append(_write(work / "in" / f"{name}.json", doc))
        return paths

    def calls(self, work: Path) -> list[list[str]]:
        return [["--mode", "solve", "--config", str(p), "--out", str(work / "out" / p.stem)]
                for p in sorted((work / "in").glob("*.json"))]

    def outcomes(self, work: Path, codes: list[int]) -> tuple[int, int]:
        return len(codes), sum(1 for c in codes if c != 0)

    def check(self, work: Path, scenarios: dict) -> list[str]:
        problems = []
        for name, sc in scenarios.items():
            n, n_paths = sc.space.n_steps, sc.space.n_paths
            out = work / "out" / name
            dump = read_dump(out, n, n_paths, float)
            expected = ref.solve(problem_of(sc, sc.g))
            expected["g"] = sc.g
            gap, where = max_gap(dump, expected)
            if gap > 1e-10:
                problems.append(f"{name}: {where} differs from the recursion by {gap:g}")
            # dt = 1/16 gives a rational realization
            if name.startswith("ladder_"):
                exact = realize(config_from_dict(dict(sc.config.to_json_dict(),
                                                      arithmetic="rational")))
                expected = ref.solve(problem_of(exact, exact.g))
                gap, where = max_gap(dump, expected)
                if gap > 1e-8:
                    problems.append(f"{name}: {where} differs from the exact recursion "
                                    f"by {gap:g}")
        return problems


# ---------------------------------------------------------------------------
# rational-corpus


class RationalCorpus:
    """``--mode solve`` then ``--mode verify`` on the 50-scenario corpus.

    The linear-driver scenarios are always those of corpus seed 0: whether
    ``--mode verify`` passes on them depends on the outer loop's last step
    (see README), so their inputs must not move with the seed.
    """

    SIZE = 50

    def write_inputs(self, seed: int, work: Path) -> list[Path]:
        seeded = generate_corpus(seed, self.SIZE, work / "gen" / "seeded")
        fixed = generate_corpus(0, self.SIZE, work / "gen" / "fixed")
        paths = []
        for mine, seed0 in zip(seeded, fixed):
            doc = json.loads(mine.read_text(encoding="utf-8"))
            if doc["driver"]["kind"] == "linear":
                doc = json.loads(seed0.read_text(encoding="utf-8"))
            paths.append(_write(work / "in" / mine.name, doc))
        return paths

    def calls(self, work: Path) -> list[list[str]]:
        args = ["--config", str(work / "in"), "--out", str(work / "out")]
        return [["--mode", "solve", *args], ["--mode", "verify", *args]]

    def outcomes(self, work: Path, codes: list[int]) -> tuple[int, int]:
        failed = 0
        for path in sorted((work / "in").glob("*.json")):
            out = work / "out" / path.stem
            report = read_json(out / "report.json")
            verify = read_json(out / "verify_report.json")
            failed += report is None or report.get("exit_code") != 0
            failed += verify is None or verify.get("pass") is not True
        return 2 * self.SIZE, failed

    def check(self, work: Path, scenarios: dict) -> list[str]:
        problems = []
        for stem, sc in scenarios.items():
            cfg = sc.config
            dump = read_dump(work / "out" / stem, cfg.n_steps, sc.space.n_paths, Fraction)
            if sc.has_general_driver:
                a, b, c = linear_params(cfg)
                expected = ref.solve_linear(
                    problem_of(sc, None), a, b, c, beta=cfg.params.beta,
                    tol=max(cfg.params.tol, 1e-12), max_outer=cfg.params.max_outer)
                # the CLI dumps the driver re-evaluated on the final solution
                expected["g"] = ref.linear_driver(a, b, c, expected["Y"].mid, expected["Z"])
            else:
                expected = ref.solve(problem_of(sc, sc.g))
                expected["g"] = sc.g
            gap, where = max_gap(dump, expected)
            if gap != 0:
                problems.append(f"{stem}: {where} differs from the recursion by {float(gap):g}")
        return problems


def linear_params(cfg) -> tuple:
    """a, b and the per-interval c of a linear driver a y + b z + c_k."""
    p = cfg.driver.params
    c = p.get("c", 0)
    c = [Fraction(str(x)) for x in c] if isinstance(c, list) else [Fraction(str(c))] * cfg.n_steps
    return Fraction(str(p.get("a", 0))), Fraction(str(p.get("b", 0))), c


# ---------------------------------------------------------------------------
# estimate-sweep


class EstimateSweep:
    """``--mode estimate`` on three spaces: each solved for the base driver
    and for each of 20 perturbed drivers, with the a-priori inequality checked
    per pair.  A space's Picard iteration count moves with its seed; three
    spaces rather than one narrow the spread that adds to a run's time."""

    PAIRS = 20  # the CLI's default
    SPACES = 3

    def write_inputs(self, seed: int, work: Path) -> list[Path]:
        return [_write(work / "in" / f"estimate_{j}.json",
                       estimate_template(self.SPACES * seed + j))
                for j in range(self.SPACES)]

    def calls(self, work: Path) -> list[list[str]]:
        return [["--mode", "estimate", "--config", str(p), "--out", str(work / "out" / p.stem)]
                for p in sorted((work / "in").glob("*.json"))]

    def outcomes(self, work: Path, codes: list[int]) -> tuple[int, int]:
        failed = 0
        for path in sorted((work / "in").glob("*.json")):
            report = read_json(work / "out" / path.stem / "estimate_report.json")
            if report is None or len(report.get("results", ())) != self.PAIRS:
                failed += self.PAIRS
            else:
                failed += sum(1 for r in report["results"] if r["zm"]["holds"] is not True)
        return self.SPACES * self.PAIRS, failed

    def check(self, work: Path, scenarios: dict) -> list[str]:
        problems = []
        for stem, sc in scenarios.items():
            report = read_json(work / "out" / stem / "estimate_report.json")
            problems += [f"{stem}: {line}" for line in self._check_space(sc, report)]
        return problems

    def _check_space(self, sc, report) -> list[str]:
        cfg, p = sc.config, problem_of(sc, sc.g)
        beta, eps, c = cfg.params.beta, cfg.params.eps, cfg.params.c
        report = report or {"results": []}
        if len(report["results"]) != self.PAIRS:
            return [f"estimate report holds {len(report['results'])} pairs, not {self.PAIRS}"]
        base = ref.solve(p)
        problems = []
        for i, row in enumerate(report["results"]):
            g_bar = perturb_driver(sc.space, sc.g, seed=cfg.seed * 1000 + i)
            other = ref.solve(p.with_driver(g_bar))
            g_gap = ref.norm_h2(p, _rows_sub(sc.g, g_bar), beta)
            m_diff = ref.Slots(_rows_sub(base["M"].minus, other["M"].minus),
                               _rows_sub(base["M"].mid, other["M"].mid),
                               _rows_sub(base["M"].plus, other["M"].plus))
            sides = {
                ("zm", "lhs"): ref.norm_h2(p, _rows_sub(base["Z"], other["Z"]), beta)
                + ref.norm_m2(p, m_diff, beta),
                ("zm", "rhs"): eps ** 2 * g_gap,
                ("y", "lhs"): ref.norm_s2p(p, _rows_sub(base["Y"].mid, other["Y"].mid), beta),
                ("y", "rhs"): 2 * eps ** 2 * (1 + 8 * c ** 2) * g_gap,
            }
            for (part, side), value in sides.items():
                got = row[part][side]
                if not math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-15):
                    problems.append(f"pair {i}: {part} {side} reads {got!r}, "
                                    f"the recursion gives {value!r}")
            if sides["zm", "lhs"] > sides["zm", "rhs"]:
                problems.append(f"pair {i}: the a-priori inequality fails "
                                f"({sides['zm', 'lhs']!r} > {sides['zm', 'rhs']!r})")
        return problems


WORKLOADS = {
    "float-ladder": FloatLadder,
    "rational-corpus": RationalCorpus,
    "estimate-sweep": EstimateSweep,
}
