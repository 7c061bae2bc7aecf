"""Scenario configuration: parsing, validation, canonical digests.

A scenario is a JSON document with top-level ``"schema": 1`` describing the
grid, the filtration marks, the two barriers, the driver and the solver
parameters.  ``config_from_dict`` is the one place where a document is read
and checked.  The grid, each mark, the solver parameters and each barrier and
driver kind (``BARRIERS``, ``DRIVERS``) are read through one table each: the
one statement of the keys a section takes, their defaults, and the reader that
parses and checks each of them.  A malformed value is a ``ConfigError`` naming
its cell before any space is built.  Everything downstream (space
construction, barrier realization, solving, reporting) is a pure function of
the resulting ``ScenarioConfig`` plus its seed, so a digest of the canonical
JSON identifies a run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from typing import Any

SCHEMA_VERSION = 1

ARITHMETIC_MODES = ("rational", "float")
# The largest space a scenario may describe: a float solve at N=14 with one
# two-label mark peaks at 65 MB resident (ru_maxrss of one --mode solve in a
# fresh process, Python 3.11 on Linux x86-64), and the space doubles with
# each further step.
MAX_PATHS = 32_768


class ConfigError(ValueError):
    """Invalid scenario configuration.  ``cell`` names the offending location."""

    def __init__(self, message: str, cell: str | None = None):
        super().__init__(message if cell is None else f"{message} [at {cell}]")
        self.cell = cell


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


# ---------------------------------------------------------------------------
# readers: each is called as read(value, cell, N); one that does not use N
# takes it as 0 when it is left out


def _rational(x: Any, where: str, n: int = 0) -> Fraction:
    """A grid or mark number: a JSON float is read as the nearest rational
    with a denominator of at most 10^12.  A JSON boolean is not a number."""
    try:
        if isinstance(x, (str, Fraction)) or type(x) is int:
            return Fraction(x)
        if isinstance(x, float):
            return Fraction(x).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # OverflowError: an infinity
        raise ConfigError(f"cannot parse rational: {x!r} ({exc})", where) from exc
    raise ConfigError(f"cannot parse rational: {x!r}", where)


def _integer(x: Any, where: str, n: int = 0) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"expected an integer, got {x!r}", where)
    return x


def _count(x: Any, where: str, n: int = 0) -> int:
    if (val := _integer(x, where)) < 1:
        raise ConfigError(f"expected an integer >= 1, got {val}", where)
    return val


def _finite(x: Any, where: str, n: int = 0) -> float:
    if not isinstance(x, bool):
        try:
            f = float(x)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(f):
                return f
    raise ConfigError(f"expected a finite number, got {x!r}", where)


def _number(x: Any, where: str, n: int = 0) -> Fraction:
    """A barrier or driver number: ``Fraction(str(x))``, so a JSON float is
    read as its shortest decimal."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a number, got {x!r}", where) from None


def _nonnegative(x: Any, where: str, n: int) -> Fraction:
    if (val := _number(x, where)) < 0:
        raise ConfigError(f"expected a number >= 0, got {val}", where)
    return val


def _list(x: Any, where: str, size: int | None, read=_number) -> list:
    """A list of ``size`` entries (any number when None), each read by ``read``."""
    if not isinstance(x, list) or size not in (None, len(x)):
        count = "" if size is None else f"{size} "
        raise ConfigError(f"expected a list of {count}entries, got {x!r}", where)
    return [read(e, f"{where}[{i}]") for i, e in enumerate(x)]


def _per_step(x: Any, where: str, n: int) -> list[Fraction]:
    """One number per interval: a list of N, or one number for all of them."""
    return _list(x, where, n) if isinstance(x, list) else [_number(x, where)] * n


def _rows(extra: int, read=_number):
    """A list of N + extra entries, each read by ``read``."""
    return lambda x, where, n: _list(x, where, n + extra, read)


def _one_of(*allowed: str):
    def read(x: Any, where: str, n: int) -> str:
        if x not in allowed:
            raise ConfigError(f"expected one of {'|'.join(allowed)}, got {x!r}", where)
        return x
    return read


def _flag(x: Any, where: str, n: int) -> bool:
    return _expect(x, bool, where)


def _optional(read):
    return lambda x, where, n: None if x is None else read(x, where, n)


def _side(x: Any, where: str, n: int) -> dict:
    """One barrier of the ``tables`` kind: ``mid`` on the N+1 instants, and
    optionally ``minus`` (N+1, else ``mid``) and ``plus`` (N, else ``mid``),
    each entry a list of per-atom numbers whose length ``realize`` checks."""
    return _read_params(x, _SIDE, where, n)


def _atoms(x: Any, where: str, n: int = 0) -> list[Fraction]:
    return _list(x, where, None)


def _labels(x: Any, where: str, n: int = 0) -> tuple[str, ...]:
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x) or len(set(x)) != len(x):
        raise ConfigError(f"labels must be a list of distinct strings, got {x!r}", where)
    return tuple(x)


def _probs(x: Any, where: str, n: int = 0) -> tuple[Fraction, ...]:
    return tuple(_list(x, where, None, _rational))


def _mark(x: Any, where: str, n: int = 0) -> MarkSpec:
    return MarkSpec(**_read_params(x, _MARK, where, n))


# Each section or kind: {parameter: (default, reader)}.  A default is read like
# a written value; a parameter whose reader rejects None has no default.
_GRID = {"N": (None, _count), "T": (1, _rational)}
_MARK = {"instant": (None, _integer), "labels": (None, _labels), "probs": ([], _probs)}
_SIDE = {"mid": (None, _rows(1, _atoms)),
         "minus": (None, _optional(_rows(1, _atoms))),
         "plus": (None, _optional(_rows(0, _atoms)))}

BARRIERS = {
    "constant": {"value": (0, _number), "upper_gap": (0, _nonnegative)},
    "deterministic": {"lower": (None, _rows(1)), "upper": (None, _rows(1))},
    "game_option": {"spot": (100, _number), "strike": (100, _number), "drift": (0, _number),
                    "vol": ("1/4", _number), "penalty": ("5", _per_step),
                    "style": ("call", _one_of("call", "put"))},
    "random": {"scale": (2, _number),
               "left_jumps": ("free", _one_of("none", "usc", "free")),
               "right_jumps": ("free", _one_of("none", "free")),
               "touching": (False, _flag)},
    "tables": {"lower": (None, _side), "upper": (None, _side)},
}
DRIVERS = {
    "zero": {},
    "table": {"scale": (1, _number)},
    "linear": {"a": (0, _number), "b": (0, _number), "c": (0, _per_step),
               "K": (None, _optional(_number))},
}


@dataclass(frozen=True)
class KindSpec:
    """The barriers or the driver: a kind, its parameters as written (what the
    digest sees), and their values as read by the kind's table (what
    ``realize`` builds from)."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    values: dict[str, Any] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class SolverParams:
    beta: float = 5.0
    eps: float = 0.5
    c: float = 2.0
    # outer-loop tolerance (floored at 1e-12); the Picard oracle always runs
    # to exact stabilization
    tol: float = 0.0
    max_iter: int | None = None  # Picard oracle cap; None -> 10 * N * path_count
    max_outer: int = 50
    divergence_bound: float = 1e9  # Picard oracle sup-norm bound


# each solver parameter: its field's default, read by the reader of its type
_PARAMS = {f.name: (f.default, {"float": _finite, "int": _count,
                                "int | None": _optional(_count)}[f.type])
           for f in fields(SolverParams)}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    n_steps: int
    t_horizon: Fraction
    marks: tuple[MarkSpec, ...]
    barriers: KindSpec
    driver: KindSpec
    params: SolverParams
    arithmetic: str = "float"
    seed: int = 0

    @property
    def dt(self) -> Fraction:
        return self.t_horizon / self.n_steps

    def validate(self) -> None:
        if self.t_horizon <= 0:
            raise ConfigError("T must be positive", "grid.T")
        _check_float(self.t_horizon, "grid.T")  # the norms read float(T) in both modes
        if float(self.t_horizon) / self.n_steps == 0:  # the norms' and the estimate's float dt
            raise ConfigError("the float step T/N underflows to zero", "grid.T")
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
        # 2^N is computed only once N is known to be small
        alphabets = math.prod(len(m.labels) for m in self.marks)
        if self.n_steps >= MAX_PATHS.bit_length() or 2**self.n_steps * alphabets > MAX_PATHS:
            raise ConfigError(f"2^N times the mark alphabet sizes exceeds {MAX_PATHS} paths",
                              "grid")
        if self.params.beta <= 0 or self.params.eps <= 0 or self.params.c <= 0:
            raise ConfigError("beta, eps, c must be positive", "params")
        for name, x in (("eps", self.params.eps), ("c", self.params.c)):
            if not math.isfinite(x * x):  # the bounds square both, and x ** 2 would raise
                raise ConfigError(f"{name}={x!r} squared leaves the float range", f"params.{name}")
        # the norms' largest weight e^(beta t_N), t_N as FilteredSpace.time_float gives it
        t_end = self.n_steps * float(self.t_horizon) / self.n_steps
        try:
            weight = math.exp(self.params.beta * t_end)
        except OverflowError:
            weight = math.inf
        if not math.isfinite(weight):
            raise ConfigError(f"the norm weight e^(beta T) for beta={self.params.beta!r} leaves "
                              "the float range", "params.beta")
        if self.params.tol < 0:
            raise ConfigError(f"tol must be >= 0, got {self.params.tol!r}", "params.tol")
        if self.params.divergence_bound <= 0:
            raise ConfigError(f"divergence_bound must be positive, got "
                              f"{self.params.divergence_bound!r}", "params.divergence_bound")

    # -- JSON round trip ----------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "grid": {"N": self.n_steps, "T": str(self.t_horizon)},
            "marks": _jsonable([asdict(m) for m in self.marks]),
            "barriers": {"kind": self.barriers.kind, "params": _jsonable(self.barriers.params)},
            "driver": {"kind": self.driver.kind, "params": _jsonable(self.driver.params)},
            "params": asdict(self.params),
            "arithmetic": self.arithmetic,
            "seed": self.seed,
        }

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


def _section(x: Any, keys, where: str) -> dict:
    """``x`` as a dict whose every key is one of ``keys``: an unknown key is
    an error naming it under ``where`` (bare at the top level, "")."""
    x = _expect(x, dict, where or "document")
    for name in x:
        if name not in keys:
            raise ConfigError(f"unknown key {name!r}", f"{where}.{name}" if where else name)
    return x


# the keys each section of a scenario reads
_SCENARIO_KEYS = ("schema", "name", "grid", "marks", "barriers", "driver", "params",
                  "arithmetic", "seed")
_KIND_KEYS = ("kind", "params")


def config_from_dict(doc: dict[str, Any]) -> ScenarioConfig:
    doc = _expect(doc, dict, "document")
    if type(doc.get("schema")) is not int or doc["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema {doc.get('schema')!r}", "schema")
    _section(doc, _SCENARIO_KEYS, "")
    grid = _read_params(doc.get("grid", {}), _GRID, "grid", 0)
    b = _section(doc.get("barriers", {}), _KIND_KEYS, "barriers")
    d = _section(doc.get("driver", {}), _KIND_KEYS, "driver")
    cfg = ScenarioConfig(
        name=_expect(doc.get("name", "scenario"), str, "name"),
        n_steps=grid["N"],
        t_horizon=grid["T"],
        marks=tuple(_list(doc.get("marks", []), "marks", None, _mark)),
        barriers=KindSpec(kind=b.get("kind", "constant"),
                          params=dict(_expect(b.get("params", {}), dict, "barriers.params"))),
        driver=KindSpec(kind=d.get("kind", "zero"),
                        params=dict(_expect(d.get("params", {}), dict, "driver.params"))),
        params=SolverParams(**_read_params(doc.get("params", {}), _PARAMS, "params", 0)),
        arithmetic=str(doc.get("arithmetic", "float")),
        seed=_integer(doc.get("seed", 0), "seed"),
    )
    cfg.validate()  # the grid and its size cap before a table expands to N entries
    cfg = replace(cfg, barriers=_read_kind(cfg.barriers, BARRIERS, "barriers", cfg.n_steps),
                  driver=_read_kind(cfg.driver, DRIVERS, "driver", cfg.n_steps))
    if cfg.arithmetic == "float":
        _check_float(cfg.barriers.values, "barriers")
    # in both modes: the linear driver's K and Lipschitz probe are floats, and
    # a table's values reach the float norms of the report
    _check_float(cfg.driver.values, "driver")
    k, a, b = (cfg.driver.values.get(name) for name in ("K", "a", "b"))
    if k is not None and k < max(abs(a), abs(b)):
        raise ConfigError(f"declared K={k} below max(|a|,|b|)={max(abs(a), abs(b))}", "driver.K")
    return cfg


def _read_kind(spec: KindSpec, kinds: dict, where: str, n: int) -> KindSpec:
    """The spec with each parameter of its kind read from ``spec.params``,
    or from the parameter's default; a parameter the kind does not take is
    an error."""
    if not isinstance(spec.kind, str) or spec.kind not in kinds:
        raise ConfigError(f"unknown kind {spec.kind!r}", f"{where}.kind")
    return KindSpec(spec.kind, spec.params, _read_params(spec.params, kinds[spec.kind], where, n))


def _read_params(params: dict, table: dict, where: str, n: int) -> dict:
    _section(params, table, where)
    return {name: read(params.get(name, default), f"{where}.{name}", n)
            for name, (default, read) in table.items()}


def _check_float(x: Any, where: str) -> None:
    """Every number in ``x`` has a float: one beyond the float range is an
    error naming its cell."""
    if isinstance(x, dict):
        for name, e in x.items():
            _check_float(e, f"{where}.{name}")
    elif isinstance(x, list):
        for i, e in enumerate(x):
            _check_float(e, f"{where}[{i}]")
    elif isinstance(x, Fraction):
        try:
            float(x)
        except OverflowError:
            raise ConfigError("number beyond the float range", where) from None


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc.strerror}", path) from None
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}", path) from None
    return config_from_dict(doc)
