"""Scenario configuration: parsing, validation, canonical digests.

A scenario is a JSON document with top-level ``"schema": 1`` describing the
grid, the filtration marks, the two barriers, the driver and the solver
parameters.  Everything downstream (space construction, barrier realization,
solving, reporting) is a pure function of a validated ``ScenarioConfig`` plus
its seed, so a digest of the canonical JSON identifies a run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

SCHEMA_VERSION = 1

BARRIER_KINDS = ("constant", "deterministic", "game_option", "random", "tables")
DRIVER_KINDS = ("zero", "table", "linear")
ARITHMETIC_MODES = ("rational", "float")


class ConfigError(ValueError):
    """Invalid scenario configuration.  ``cell`` names the offending location."""

    def __init__(self, message: str, cell: str | None = None):
        super().__init__(message if cell is None else f"{message} [at {cell}]")
        self.cell = cell


def _as_fraction(x: Any, where: str) -> Fraction:
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, float):
            return Fraction(x).limit_denominator(10**12)
        if isinstance(x, Fraction):
            return x
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse rational: {x!r} ({exc})", where) from exc
    raise ConfigError(f"cannot parse rational: {x!r}", where)


def _as_int(x: Any, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"expected an integer, got {x!r}", where)
    return x


def _as_float(x: Any, where: str) -> float:
    if not isinstance(x, bool):
        try:
            return float(x)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"expected a number, got {x!r}", where)


def _expect(x: Any, kind: type, where: str) -> Any:
    if not isinstance(x, kind):
        raise ConfigError(f"expected a {kind.__name__}, got {x!r}", where)
    return x


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = _isqrt_exact(p), _isqrt_exact(q)
    if rp is None or rq is None:
        return None
    return Fraction(rp, rq)


def _isqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class MarkSpec:
    """A categorical mark revealed exactly at one grid instant."""

    instant: int
    labels: tuple[str, ...]
    probs: tuple[Fraction, ...]

    def validate(self, n_steps: int) -> None:
        where = f"marks[instant={self.instant}]"
        if not 0 <= self.instant <= n_steps:
            raise ConfigError(f"mark instant {self.instant} outside 0..{n_steps}", where)
        if len(self.labels) == 0:
            raise ConfigError("empty mark alphabet", where)
        if len(self.labels) != len(self.probs):
            raise ConfigError("labels and probs length mismatch", where)
        if any(p <= 0 for p in self.probs):
            raise ConfigError("mark probabilities must be strictly positive", where)
        if sum(self.probs, Fraction(0)) != 1:
            raise ConfigError("mark probabilities must sum to 1 exactly", where)


@dataclass(frozen=True)
class BarrierSpec:
    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def validate(self, n_steps: int) -> None:
        if self.kind not in BARRIER_KINDS:
            raise ConfigError(f"unknown barrier kind {self.kind!r}", "barriers.kind")
        if self.kind == "deterministic":
            lower = self.params.get("lower")
            upper = self.params.get("upper")
            if lower is None or upper is None:
                raise ConfigError("deterministic barriers need 'lower' and 'upper'", "barriers")
            if len(lower) != n_steps + 1 or len(upper) != n_steps + 1:
                raise ConfigError("barrier tables must have N+1 entries", "barriers")


@dataclass(frozen=True)
class DriverSpec:
    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in DRIVER_KINDS:
            raise ConfigError(f"unknown driver kind {self.kind!r}", "driver.kind")
        if self.kind == "linear":
            a = _as_fraction(self.params.get("a", 0), "driver.a")
            b = _as_fraction(self.params.get("b", 0), "driver.b")
            if "K" in self.params:
                k = _as_fraction(self.params["K"], "driver.K")
                if k < max(abs(a), abs(b)):
                    raise ConfigError(
                        f"declared K={k} below max(|a|,|b|)={max(abs(a), abs(b))}",
                        "driver.K",
                    )


@dataclass(frozen=True)
class SolverParams:
    beta: float = 5.0
    eps: float = 0.5
    c: float = 2.0
    # outer-loop tolerance (floored at 1e-12) and the Picard oracle's stopping
    # tolerance (0 means iterate to exact stabilization)
    tol: float = 0.0
    max_iter: int | None = None  # Picard oracle cap; None -> 10 * N * path_count
    max_outer: int = 50
    divergence_bound: float = 1e9  # Picard oracle sup-norm bound


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    n_steps: int
    t_horizon: Fraction
    marks: tuple[MarkSpec, ...]
    barriers: BarrierSpec
    driver: DriverSpec
    params: SolverParams
    arithmetic: str = "float"
    seed: int = 0

    @property
    def dt(self) -> Fraction:
        return self.t_horizon / self.n_steps

    def validate(self) -> None:
        if self.n_steps < 1:
            raise ConfigError("N must be >= 1", "grid.N")
        if self.t_horizon <= 0:
            raise ConfigError("T must be positive", "grid.T")
        if self.arithmetic not in ARITHMETIC_MODES:
            raise ConfigError(f"unknown arithmetic {self.arithmetic!r}", "arithmetic")
        if self.arithmetic == "rational" and _rational_sqrt(self.dt) is None:
            raise ConfigError(
                f"rational mode needs sqrt(dt) rational; dt={self.dt} is not a square",
                "grid",
            )
        seen = set()
        for m in self.marks:
            m.validate(self.n_steps)
            if m.instant in seen:
                raise ConfigError(f"duplicate mark at instant {m.instant}", "marks")
            seen.add(m.instant)
        self.barriers.validate(self.n_steps)
        self.driver.validate()
        if self.params.beta <= 0 or self.params.eps <= 0 or self.params.c <= 0:
            raise ConfigError("beta, eps, c must be positive", "params")

    # -- JSON round trip ----------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "grid": {"N": self.n_steps, "T": str(self.t_horizon)},
            "marks": [
                {"instant": m.instant, "labels": list(m.labels), "probs": [str(p) for p in m.probs]}
                for m in self.marks
            ],
            "barriers": {"kind": self.barriers.kind, "params": _jsonable(self.barriers.params)},
            "driver": {"kind": self.driver.kind, "params": _jsonable(self.driver.params)},
            "params": {
                "beta": self.params.beta,
                "eps": self.params.eps,
                "c": self.params.c,
                "tol": self.params.tol,
                "max_iter": self.params.max_iter,
                "max_outer": self.params.max_outer,
                "divergence_bound": self.params.divergence_bound,
            },
            "arithmetic": self.arithmetic,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def digest(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _mark_spec(m: Any, i: int) -> MarkSpec:
    m = _expect(m, dict, f"marks[{i}]")
    labels = m.get("labels")
    if (not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
            or len(set(labels)) != len(labels)):
        raise ConfigError(f"labels must be a list of distinct strings, got {labels!r}",
                          f"marks[{i}].labels")
    return MarkSpec(
        instant=_as_int(m.get("instant"), f"marks[{i}].instant"),
        labels=tuple(labels),
        probs=tuple(_as_fraction(p, f"marks[{i}].probs") for p in m.get("probs", ())),
    )


def config_from_dict(doc: dict[str, Any]) -> ScenarioConfig:
    doc = _expect(doc, dict, "document")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema {doc.get('schema')!r}", "schema")
    grid = _expect(doc.get("grid") or {}, dict, "grid")
    n_steps = _as_int(grid.get("N"), "grid.N")
    t_horizon = _as_fraction(grid.get("T", 1), "grid.T")
    marks = _expect(doc.get("marks", []), list, "marks")
    marks = tuple(_mark_spec(m, i) for i, m in enumerate(marks))
    b = _expect(doc.get("barriers") or {}, dict, "barriers")
    d = _expect(doc.get("driver") or {"kind": "zero"}, dict, "driver")
    p = _expect(doc.get("params") or {}, dict, "params")
    params = SolverParams(
        beta=_as_float(p.get("beta", 5.0), "params.beta"),
        eps=_as_float(p.get("eps", 0.5), "params.eps"),
        c=_as_float(p.get("c", 2.0), "params.c"),
        tol=_as_float(p.get("tol", 0.0), "params.tol"),
        max_iter=None if p.get("max_iter") is None else _as_int(p["max_iter"], "params.max_iter"),
        max_outer=_as_int(p.get("max_outer", 50), "params.max_outer"),
        divergence_bound=_as_float(p.get("divergence_bound", 1e9), "params.divergence_bound"),
    )
    cfg = ScenarioConfig(
        name=str(doc.get("name", "scenario")),
        n_steps=n_steps,
        t_horizon=t_horizon,
        marks=marks,
        barriers=BarrierSpec(kind=b.get("kind", "constant"),
                             params=dict(_expect(b.get("params", {}), dict, "barriers.params"))),
        driver=DriverSpec(kind=d.get("kind", "zero"),
                          params=dict(_expect(d.get("params", {}), dict, "driver.params"))),
        params=params,
        arithmetic=str(doc.get("arithmetic", "float")),
        seed=_as_int(doc.get("seed", 0), "seed"),
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
