"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of the ``pdrbsde`` modules with
timing wrappers, in every module namespace that holds them (the package
imports most functions by name), and ``uninstall`` puts the originals back.
Spans nest: each records its duration, and the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

CLI = "cli"  # the span around each call of pdrbsde.cli.main

# (module, function) -> span name.  The span name's prefix is the layer.
TARGETS = {
    ("pdrbsde.config", "load_config"): "config.load",
    ("pdrbsde.config", "config_from_dict"): "config.load",
    ("pdrbsde.prob_space", "build_space"): "prob_space.build",
    ("pdrbsde.prob_space", "cond_expect"): "prob_space.cond_expect",
    ("pdrbsde.prob_space", "is_measurable"): "prob_space.measurable",
    ("pdrbsde.scenario", "realize"): "scenario.realize",
    ("pdrbsde.processes", "validate_process"): "processes.validate",
    ("pdrbsde.snell", "snell_envelope_slots"): "snell.envelope",
    ("pdrbsde.snell", "pre_operator"): "snell.pre_operator",
    ("pdrbsde.drbsde", "solve_driver_process"): "drbsde.solve",
    ("pdrbsde.drbsde", "picard_coupled"): "drbsde.picard",
    ("pdrbsde.drbsde", "assemble_solution"): "drbsde.assemble",
    ("pdrbsde.drbsde", "verify_drbsde_solution"): "drbsde.verify",
    ("pdrbsde.driver_solver", "solve_general"): "driver_solver.solve",
    ("pdrbsde.calculus_checks", "apriori_estimate_check"): "calculus_checks.estimate",
}


def _nothing() -> None:
    return None


class Tracer:
    def __init__(self) -> None:
        self.total = defaultdict(float)    # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.nested = defaultdict(float)   # (outer name, inner name) -> time
        self.counts = Counter()            # work counts read off return values
        self._stack: list[list] = []       # [name, start, child time]
        self._depth = Counter()
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            outermost = self._depth[name] == 0
            self._depth[name] += 1
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                self._stack.pop()
                self._depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += duration - frame[2]
                if outermost:
                    self.total[name] += duration
                    for outer in {f[0] for f in self._stack}:
                        self.nested[outer, name] += duration
                if self._stack:
                    self._stack[-1][2] += duration
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        if name == "prob_space.build":
            self.counts["prob_space.paths"] += result.n_paths
        elif name == "drbsde.picard":
            self.counts["drbsde.picard_iters"] += result[2].iterations
        elif name == "driver_solver.solve":
            self.counts["driver_solver.outer_iters"] += result[1].iterations

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("pdrbsde") and m]
        for (mod_name, attr), name in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def wrapper_seconds(self) -> float:
        """The time the wrappers themselves add: every traced call times the
        measured cost of one traced call to a function that does nothing."""
        probe, bare, n = Tracer().wrap("probe", _nothing), _nothing, 20_000
        costs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                probe()
            t1 = time.perf_counter()
            for _ in range(n):
                bare()
            costs.append((2 * t1 - t0 - time.perf_counter()) / n)
        return sorted(costs)[2] * sum(self.calls.values())

    def metrics(self) -> dict:
        t, c = self.total, self.calls
        return {
            "config.load_s": t["config.load"],
            "prob_space.build_s": t["prob_space.build"],
            "prob_space.paths": self.counts["prob_space.paths"],
            "prob_space.cond_expect_s": t["prob_space.cond_expect"],
            "prob_space.cond_expect_calls": c["prob_space.cond_expect"],
            "prob_space.measurable_s": t["prob_space.measurable"],
            "prob_space.measurable_calls": c["prob_space.measurable"],
            "scenario.realize_s": t["scenario.realize"]
            - self.nested["scenario.realize", "prob_space.build"],
            "processes.validate_s": t["processes.validate"],
            "processes.validate_calls": c["processes.validate"],
            "snell.envelope_s": t["snell.envelope"],
            "snell.envelope_calls": c["snell.envelope"],
            "snell.pre_operator_s": t["snell.pre_operator"],
            "drbsde.solve_s": t["drbsde.solve"],
            "drbsde.picard_s": t["drbsde.picard"],
            "drbsde.picard_iters": self.counts["drbsde.picard_iters"],
            "drbsde.assemble_s": t["drbsde.assemble"],
            "drbsde.verify_s": t["drbsde.verify"],
            "driver_solver.solve_s": t["driver_solver.solve"],
            "driver_solver.outer_iters": self.counts["driver_solver.outer_iters"],
            "calculus_checks.estimate_s": t["calculus_checks.estimate"],
            "calculus_checks.estimate_calls": c["calculus_checks.estimate"],
            "cli.self_s": self.self_time[CLI],
        }
