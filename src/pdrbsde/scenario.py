"""Realize scenario configs into spaces, barriers and drivers; corpus generation.

Random data is drawn from string-seeded generators as int numerators over
one known denominator, made into a row at once (``Backend.row``: the int row
itself in rational mode, each n / den in float mode), so a float run sees the
correctly rounded values of the rational run's numbers (their outputs can
then be compared across backends).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from pathlib import Path

from . import values as v
from .config import ConfigError, ScenarioConfig, SolverParams, config_from_dict
from .drbsde import BarrierPair, SolutionSeptuple
from .driver_solver import LinearDriver
from .prob_space import FilteredSpace, Partition, build_space, on_paths
from .processes import LadlagProcess, ProcessError, from_cadlag_sequence, from_slots


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    space: FilteredSpace
    barriers: BarrierPair
    g_rows: list | None          # process driver (zero/table kinds), one row per interval
    driver: LinearDriver | None  # (y, z)-dependent driver (linear kind)

    @property
    def has_general_driver(self) -> bool:
        return self.driver is not None

    @cached_property
    def g(self) -> tuple | None:
        """The process driver with one value per path on each interval."""
        if self.g_rows is None:
            return None
        return tuple(on_paths(self.space, row) for row in self.g_rows)

    def driver_rows(self, sol: SolutionSeptuple) -> list:
        """The driver a solution of this scenario answers to: the realized
        process driver, or a (y, z)-dependent driver frozen at sol's Y and Z."""
        if self.driver is None:
            return self.g_rows
        return self.driver.freeze(self.space, sol.y, sol.z)


def realize(config: ScenarioConfig) -> Scenario:
    space = build_space(config)
    try:
        barriers = _BARRIERS[config.barriers.kind](space, config.barriers.values, config.seed)
    except ProcessError as exc:  # raised by the BarrierPair check
        raise ConfigError(str(exc), cell="barriers") from exc
    try:  # the reports read values as floats, so an exact barrier value needs one
        v.max_magnitude(chain(*barriers.xi.slots, *barriers.zeta.slots))
    except OverflowError:
        raise ConfigError("a barrier value beyond the float range", "barriers") from None
    g, driver = _DRIVERS[config.driver.kind](space, config.driver.values, config.seed)
    return Scenario(config=config, space=space, barriers=barriers, g_rows=g, driver=driver)


# ---------------------------------------------------------------------------
# value generators


def _on_partition(space: FilteredSpace, partition: Partition, rng: random.Random, low: int,
                  scale: Fraction, touching: bool = False) -> v.RV:
    """One draw per atom, in one frame: numerators (low + r) * scale.numerator
    over 8 * scale.denominator (dyadic, so exact arithmetic stays small), each
    r drawn as ``rng.randint(low, 16)`` draws it: k-bit draws, k =
    count.bit_length(), until one lies below count = 17 - low.  With
    ``touching``, an atom draws 0 when a ``rng.random() < 1 / 3`` drawn first
    passes."""
    count, num = 17 - low, scale.numerator
    k, bits, unit = count.bit_length(), rng.getrandbits, rng.random
    nums = []
    for _ in range(len(partition)):
        # random() is j / 2**53, and no such j lies between 1/3 and float(1/3)
        if touching and unit() < 1 / 3:
            nums.append(0)
            continue
        r = bits(k)
        while r >= count:
            r = bits(k)
        nums.append((low + r) * num)
    return space.backend.row(nums, 8 * scale.denominator)


# ---------------------------------------------------------------------------
# barriers


def _constant_barriers(space, p, seed) -> BarrierPair:
    n, val = space.n_steps, p["value"]
    steps = {"lower": [val] * (n + 1), "upper": [val + p["upper_gap"]] * n + [val]}
    return _deterministic_barriers(space, steps, seed)


def _deterministic_barriers(space, p, seed) -> BarrierPair:
    """Step barriers with values lower[k], upper[k] on [t_k, t_{k+1})."""
    xi = from_cadlag_sequence(space, [space.constant(x) for x in p["lower"]])
    zeta = from_cadlag_sequence(space, [space.constant(x) for x in p["upper"]])
    return BarrierPair(xi=xi, zeta=zeta)


def _game_option_barriers(space, p, seed) -> BarrierPair:
    """Payoff-plus-penalty pair on a multiplicative binomial underlying.

    The underlying uses the Brownian increments already on the space, so the
    payoff sampled at t_k is measurable for sigma_minus[k]: the barrier is a
    genuinely predictable process with continuous-at-instants slots.
    """
    n = space.n_steps
    dt = space.t_horizon / space.n_steps
    base = space.constant(Fraction(1) + p["drift"] * dt)
    vol_c = space.backend.number(p["vol"])
    s_rows = [space.constant(p["spot"])]
    for k in range(n):
        factor = v.add(base, v.smul(vol_c, space.dw_rows[k]))
        if v.any_nonpositive(factor):
            raise ConfigError("underlying factor not positive; reduce vol or dt", "barriers")
        s_rows.append(v.mul(s_rows[-1], factor))

    strike = space.backend.number(p["strike"])
    xi_mids = [v.payoff(s, strike, p["style"] == "call") for s in s_rows]
    xi = from_slots(space, xi_mids, xi_mids, xi_mids[:n])
    zeta_mids = [v.add(xi_mids[k], space.constant(p["penalty"][k])) for k in range(n)]
    zeta_mids.append(xi_mids[n])
    zeta = from_slots(space, zeta_mids, zeta_mids, zeta_mids[:n])
    return BarrierPair(xi=xi, zeta=zeta)


def _random_barriers(space, p, seed) -> BarrierPair:
    n = space.n_steps
    rng = random.Random(f"barriers:{seed}")
    scale, left, right, touching = p["scale"], p["left_jumps"], p["right_jumps"], p["touching"]

    signed, nonneg = -16, 0  # the lows of the draws, each up to 16

    def draws(partitions, low, touch=False) -> list:
        return [_on_partition(space, p, rng, low, scale, touch) for p in partitions]

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

    gap_mid = draws(minus_parts[:n], nonneg, touching) + [space.zero()]
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
        zeta_plus = list(map(v.add, map(v.vmax, zeta_mid, xi_plus),
                             draws(mid_parts, nonneg, touching)))
    zeta_plus = list(map(v.vmax, zeta_plus, xi_plus))
    zeta = from_slots(space, zeta_minus, zeta_mid, zeta_plus)
    return BarrierPair(xi=xi, zeta=zeta)


def _table_barriers(space, p, seed) -> BarrierPair:
    def build(side: dict) -> LadlagProcess:
        def rows(slot: str, partitions) -> list:  # the config has N+1 rows, or N for plus
            return [_spread(space, part, row) for part, row in zip(partitions, side[slot])]

        mid = rows("mid", space.sigma_minus)
        minus = list(mid) if side["minus"] is None else rows("minus", space.sigma_minus)
        minus[0] = mid[0]
        plus = mid[:space.n_steps] if side["plus"] is None else rows("plus", space.sigma_mid)
        return from_slots(space, minus, mid, plus)

    return BarrierPair(xi=build(p["lower"]), zeta=build(p["upper"]))


def _spread(space, partition, per_atom) -> v.RV:
    if len(per_atom) != len(partition):
        raise ConfigError(
            f"table row has {len(per_atom)} entries for {len(partition)} atoms", "barriers"
        )
    return v.as_row(space.mode, per_atom)


_BARRIERS = {"constant": _constant_barriers, "deterministic": _deterministic_barriers,
             "game_option": _game_option_barriers, "random": _random_barriers,
             "tables": _table_barriers}


# ---------------------------------------------------------------------------
# drivers


def _zero_driver(space, p, seed):
    return [space.zero() for _ in range(space.n_steps)], None


def _table_driver(space, p, seed):
    rng = random.Random(f"driver:{seed}")
    scale = p["scale"]
    g = [_on_partition(space, space.sigma_mid[k], rng, -16, scale) for k in range(space.n_steps)]
    return g, None


def _linear_driver(space, p, seed):
    a, b = space.backend.number(p["a"]), space.backend.number(p["b"])
    k = max(abs(a), abs(b)) if p["K"] is None else p["K"]
    return None, LinearDriver(a, b, tuple(v.convert(space.mode, p["c"])), float(k))


_DRIVERS = {"zero": _zero_driver, "table": _table_driver, "linear": _linear_driver}


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
            "params": asdict(SolverParams()),
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
        "params": asdict(SolverParams()),
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
        bump = _on_partition(space, space.sigma_mid[k], rng, -16, scale)
        out.append(v.add(g[k], bump))
    return out
