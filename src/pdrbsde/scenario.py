"""Realize scenario configs into spaces, barriers and drivers; corpus generation.

Random data is always drawn as exact rationals from string-seeded generators
and converted to the arithmetic backend afterwards, so the rational and float
runs of one scenario see the same underlying numbers (their outputs can then
be compared across backends).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import values as v
from .config import ConfigError, ScenarioConfig, config_from_dict
from .drbsde import BarrierPair
from .driver_solver import LipschitzDriver, linear_driver
from .prob_space import FilteredSpace, Partition, build_space, on_paths
from .processes import LadlagProcess, ProcessError, from_cadlag_sequence, from_slots


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    space: FilteredSpace
    barriers: BarrierPair
    g_rows: list | None             # process driver (zero/table kinds), one row per interval
    driver: LipschitzDriver | None  # general driver (linear kind)

    @property
    def has_general_driver(self) -> bool:
        return self.driver is not None

    @cached_property
    def g(self) -> tuple | None:
        """The process driver with one value per path on each interval."""
        if self.g_rows is None:
            return None
        return tuple(on_paths(self.space, row) for row in self.g_rows)


def realize(config: ScenarioConfig) -> Scenario:
    config.validate()
    space = build_space(config)
    try:
        barriers = realize_barriers(space, config)
    except ProcessError as exc:  # raised by the BarrierPair check
        raise ConfigError(str(exc), cell="barriers") from exc
    g, driver = realize_driver(space, config)
    return Scenario(config=config, space=space, barriers=barriers, g_rows=g, driver=driver)


# ---------------------------------------------------------------------------
# value generators


def _rand_fraction(rng: random.Random, scale: Fraction) -> Fraction:
    # dyadic rationals keep denominators small under exact arithmetic
    return Fraction(rng.randint(-16, 16) * scale.numerator, 8 * scale.denominator)


def _rand_nonneg(rng: random.Random, scale: Fraction) -> Fraction:
    return Fraction(rng.randint(0, 16) * scale.numerator, 8 * scale.denominator)


def _on_partition(space: FilteredSpace, partition: Partition, draw) -> list:
    return v.convert(space.mode, [draw() for _ in range(len(partition))])


# ---------------------------------------------------------------------------
# barriers


def realize_barriers(space: FilteredSpace, config: ScenarioConfig) -> BarrierPair:
    kind = config.barriers.kind
    params = config.barriers.params
    if kind == "constant":
        return _constant_barriers(space, params)
    if kind == "deterministic":
        return _deterministic_barriers(space, params)
    if kind == "game_option":
        return _game_option_barriers(space, params)
    if kind == "random":
        return _random_barriers(space, params, config.seed)
    if kind == "tables":
        return _table_barriers(space, params)
    raise ConfigError(f"unknown barrier kind {kind!r}", "barriers.kind")


def _constant_barriers(space, params) -> BarrierPair:
    n = space.n_steps
    val = Fraction(str(params.get("value", 0)))
    gap = Fraction(str(params.get("upper_gap", 0)))
    if gap < 0:
        raise ConfigError("upper_gap must be nonnegative", "barriers.upper_gap")
    return _step_barriers(space, [val] * (n + 1), [val + gap] * n + [val])


def _deterministic_barriers(space, params) -> BarrierPair:
    n = space.n_steps
    lower = [Fraction(str(x)) for x in params["lower"]]
    upper = [Fraction(str(x)) for x in params["upper"]]
    if len(lower) != n + 1 or len(upper) != n + 1:
        raise ConfigError("deterministic barrier tables need N+1 entries", "barriers")
    return _step_barriers(space, lower, upper)


def _step_barriers(space, lower: list, upper: list) -> BarrierPair:
    """Deterministic step barriers with values lower[k], upper[k] on [t_k, t_{k+1})."""
    xi = from_cadlag_sequence(space, [space.constant(x) for x in lower])
    zeta = from_cadlag_sequence(space, [space.constant(x) for x in upper])
    return BarrierPair(xi=xi, zeta=zeta)


def _game_option_barriers(space, params) -> BarrierPair:
    """Payoff-plus-penalty pair on a multiplicative binomial underlying.

    The underlying uses the Brownian increments already on the space, so the
    payoff sampled at t_k is measurable for sigma_minus[k]: the barrier is a
    genuinely predictable process with continuous-at-instants slots.
    """
    n = space.n_steps
    spot = Fraction(str(params.get("spot", 100)))
    strike = Fraction(str(params.get("strike", 100)))
    drift = Fraction(str(params.get("drift", 0)))
    vol = Fraction(str(params.get("vol", "1/4")))
    penalties = _per_step(params.get("penalty", "5"), n)
    style = params.get("style", "call")
    dt = space.t_horizon / space.n_steps
    base = space.backend.number(Fraction(1) + drift * dt)
    vol_c = space.backend.number(vol)
    s_rows = [space.constant(spot)]
    for k in range(n):
        factor = v.add([base], v.smul(vol_c, space.dw_rows[k]))
        if v.any_nonpositive(factor):
            raise ConfigError("underlying factor not positive; reduce vol or dt", "barriers")
        s_rows.append(v.mul(s_rows[-1], factor))

    xi_mids = [v.payoff(s, space.backend.number(strike), style == "call") for s in s_rows]
    xi = from_slots(space, xi_mids, xi_mids, xi_mids[:n])
    zeta_mids = [v.add(xi_mids[k], space.constant(penalties[k])) for k in range(n)]
    zeta_mids.append(xi_mids[n])
    zeta = from_slots(space, zeta_mids, zeta_mids, zeta_mids[:n])
    return BarrierPair(xi=xi, zeta=zeta)


def _random_barriers(space, params, seed) -> BarrierPair:
    n = space.n_steps
    rng = random.Random(f"barriers:{seed}")
    scale = Fraction(str(params.get("scale", 2)))
    left = params.get("left_jumps", "free")     # none | usc | free
    right = params.get("right_jumps", "free")   # none | free
    touching = bool(params.get("touching", False))

    def signed():
        return _rand_fraction(rng, scale)

    def nonneg():
        return _rand_nonneg(rng, scale)

    def gap_draw():
        if touching and rng.random() < Fraction(1, 3):
            return Fraction(0)
        return _rand_nonneg(rng, scale)

    def draws(partitions, draw) -> list:
        return [_on_partition(space, p, draw) for p in partitions]

    minus_parts, mid_parts = space.sigma_minus, space.sigma_mid[:n]
    xi_mid = draws(minus_parts, signed)
    if left == "none":
        xi_minus = list(xi_mid)
    elif left == "usc":
        xi_minus = list(map(v.sub, xi_mid, draws(minus_parts, nonneg)))
    else:
        xi_minus = list(map(v.add, xi_mid, draws(minus_parts, signed)))
    xi_minus[0] = xi_mid[0]
    xi_plus = xi_mid[:n] if right == "none" else list(map(v.add, xi_mid, draws(mid_parts, signed)))
    xi = from_slots(space, xi_minus, xi_mid, xi_plus)

    gap_mid = draws(minus_parts[:n], gap_draw) + [space.zero()]
    zeta_mid = list(map(v.add, xi_mid, gap_mid))
    # With left jumps "none" or "usc", zeta stays left lower-semicontinuous:
    # left limits above the value.  With free left jumps its left limit may
    # dip below the value (the mirror of a left peak on the lower barrier),
    # which is what makes the upper instant reflection act.
    zeta_minus = list(map(v.add, zeta_mid,
                          draws(minus_parts, nonneg if left in ("none", "usc") else signed)))
    zeta_minus = list(map(v.vmax, zeta_minus, xi_minus))
    zeta_minus[0] = zeta_mid[0]
    if right == "none":
        zeta_plus = list(map(v.add, xi_plus, gap_mid))
    else:
        zeta_plus = list(map(v.add, map(v.vmax, zeta_mid, xi_plus), draws(mid_parts, gap_draw)))
    zeta_plus = list(map(v.vmax, zeta_plus, xi_plus))
    zeta = from_slots(space, zeta_minus, zeta_mid, zeta_plus)
    return BarrierPair(xi=xi, zeta=zeta)


def _table_barriers(space, params) -> BarrierPair:
    def build(side: dict) -> LadlagProcess:
        n = space.n_steps
        mid = [_spread(space, space.sigma_minus[k], side["mid"][k]) for k in range(n + 1)]
        minus = (
            [_spread(space, space.sigma_minus[k], side["minus"][k]) for k in range(n + 1)]
            if "minus" in side
            else list(mid)
        )
        minus[0] = mid[0]
        plus = (
            [_spread(space, space.sigma_mid[k], side["plus"][k]) for k in range(n)]
            if "plus" in side
            else mid[:n]
        )
        return from_slots(space, minus, mid, plus)

    return BarrierPair(xi=build(params["lower"]), zeta=build(params["upper"]))


def _per_step(raw, n: int) -> list:
    """A config list as exact rationals, or one config value repeated n times."""
    return [Fraction(str(x)) for x in raw] if isinstance(raw, list) else [Fraction(str(raw))] * n


def _spread(space, partition, per_atom) -> list:
    if len(per_atom) != len(partition):
        raise ConfigError(
            f"table row has {len(per_atom)} entries for {len(partition)} atoms", "barriers"
        )
    return v.convert(space.mode, [Fraction(str(raw)) for raw in per_atom])


# ---------------------------------------------------------------------------
# drivers


def realize_driver(space: FilteredSpace, config: ScenarioConfig):
    kind = config.driver.kind
    params = config.driver.params
    if kind == "zero":
        return [space.zero() for _ in range(space.n_steps)], None
    if kind == "table":
        rng = random.Random(f"driver:{config.seed}")
        scale = Fraction(str(params.get("scale", 1)))
        g = [
            _on_partition(space, space.sigma_mid[k], lambda: _rand_fraction(rng, scale))
            for k in range(space.n_steps)
        ]
        return g, None
    if kind == "linear":
        a = space.backend.number(Fraction(str(params.get("a", 0))))
        b = space.backend.number(Fraction(str(params.get("b", 0))))
        c_list = v.convert(space.mode, _per_step(params.get("c", 0), space.n_steps))
        k_decl = params.get("K")
        drv = linear_driver(a, b, c_list, float(Fraction(str(k_decl))) if k_decl is not None else None)
        return None, drv
    raise ConfigError(f"unknown driver kind {kind!r}", "driver.kind")


# ---------------------------------------------------------------------------
# corpus generation


def corpus_templates() -> list[dict]:
    """Scenario families spanning the behaviors the verifier must see:
    QLC and non-QLC filtrations, touching barriers, every barrier jump class,
    and zero / table / linear drivers.  Grids keep sqrt(dt) rational and the
    stopping-rule count enumerable."""
    return [
        {"grid": {"N": 1, "T": "1"}, "marks": [],
         "barriers": {"kind": "constant", "params": {"value": "3/2", "upper_gap": 0}},
         "driver": {"kind": "zero", "params": {}}},
        {"grid": {"N": 1, "T": "1"},
         "marks": [{"instant": 1, "labels": ["a", "b"], "probs": ["1/3", "2/3"]}],
         "barriers": {"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free",
                                 "touching": True}},
         "driver": {"kind": "table", "params": {"scale": "1"}}},
        {"grid": {"N": 2, "T": "1/2"},
         "marks": [{"instant": 1, "labels": ["u", "d"], "probs": ["1/2", "1/2"]},
                   {"instant": 2, "labels": ["x", "y"], "probs": ["1/4", "3/4"]}],
         "barriers": {"kind": "random",
                      "params": {"scale": "2", "left_jumps": "usc", "right_jumps": "none"}},
         "driver": {"kind": "zero", "params": {}}},
        {"grid": {"N": 2, "T": "1/2"},
         "marks": [{"instant": 1, "labels": ["a", "b", "c"], "probs": ["1/2", "1/4", "1/4"]}],
         "barriers": {"kind": "game_option",
                      "params": {"spot": 100, "strike": 100, "vol": "1/2", "penalty": "4"}},
         "driver": {"kind": "linear", "params": {"a": "1/100", "b": "1/200", "c": "1/4"}}},
        {"grid": {"N": 3, "T": "3/4"}, "marks": [],
         "barriers": {"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free"}},
         "driver": {"kind": "table", "params": {"scale": "1"}}},
        {"grid": {"N": 2, "T": "2"},
         "marks": [{"instant": 2, "labels": ["p", "q", "r"], "probs": ["1/3", "1/3", "1/3"]}],
         "barriers": {"kind": "deterministic",
                      "params": {"lower": ["0", "-1", "1"], "upper": ["3", "2", "1"]}},
         "driver": {"kind": "zero", "params": {}}},
        {"grid": {"N": 2, "T": "1/2"},
         "marks": [{"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
         "barriers": {"kind": "random",
                      "params": {"scale": "2", "left_jumps": "none", "right_jumps": "free",
                                 "touching": True}},
         "driver": {"kind": "table", "params": {"scale": "1/2"}}},
        {"grid": {"N": 1, "T": "4"}, "marks": [],
         "barriers": {"kind": "random",
                      "params": {"scale": "3", "left_jumps": "usc", "right_jumps": "free"}},
         "driver": {"kind": "zero", "params": {}}},
        {"grid": {"N": 2, "T": "1/2"},
         "marks": [{"instant": 1, "labels": ["hi", "lo"], "probs": ["3/5", "2/5"]}],
         "barriers": {"kind": "random",
                      "params": {"scale": "2", "left_jumps": "free", "right_jumps": "none"}},
         "driver": {"kind": "linear", "params": {"a": "1/100", "b": "1/100", "c": "0"}}},
        {"grid": {"N": 3, "T": "3"}, "marks": [],
         "barriers": {"kind": "random",
                      "params": {"scale": "1", "left_jumps": "usc", "right_jumps": "none",
                                 "touching": True}},
         "driver": {"kind": "zero", "params": {}}},
    ]


def generate_corpus(seed: int, count: int, out_dir: str | Path) -> list[Path]:
    """Deterministic family of admissible scenarios; same seed, same bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    templates = corpus_templates()
    paths = []
    for i in range(count):
        tpl = templates[i % len(templates)]
        doc = {
            "schema": 1,
            "name": f"corpus_{seed}_{i:03d}",
            "grid": tpl["grid"],
            "marks": tpl["marks"],
            "barriers": tpl["barriers"],
            "driver": tpl["driver"],
            "params": {"beta": 5.0, "eps": 0.5, "c": 2.0, "tol": 0.0,
                       "max_iter": None, "max_outer": 50, "divergence_bound": 1e9},
            "arithmetic": "rational",
            "seed": seed * 10_000 + i,
        }
        config_from_dict(doc)  # validates
        path = out / f"scenario_{i:03d}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def estimate_template(seed: int) -> dict:
    """Grid for the driver-perturbation sweeps: dt small enough that the
    discrete estimate has headroom (dt/eps^2 = 1/4 at the defaults)."""
    return {
        "schema": 1,
        "name": f"estimate_{seed}",
        "grid": {"N": 8, "T": "1/2"},
        "marks": [{"instant": 4, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}],
        "barriers": {"kind": "random",
                     "params": {"scale": "2", "left_jumps": "free", "right_jumps": "free"}},
        "driver": {"kind": "table", "params": {"scale": "1"}},
        "params": {"beta": 5.0, "eps": 0.5, "c": 2.0, "tol": 0.0,
                   "max_iter": None, "max_outer": 50, "divergence_bound": 1e9},
        "arithmetic": "float",
        "seed": seed,
    }


def perturb_driver(space: FilteredSpace, g: list, seed: int) -> list:
    """Seeded sigma_mid-measurable perturbation of a process driver, by
    multiples of 1/32 in [-1/2, 1/2]: per-path rows for a per-path ``g``,
    atom rows for atom rows."""
    rng = random.Random(f"perturb:{seed}")
    out = []
    scale = Fraction(1, 4)
    for k in range(space.n_steps):
        bump = _on_partition(space, space.sigma_mid[k], lambda: _rand_fraction(rng, scale))
        out.append(v.add(g[k], bump))
    return out
