"""Verification and run reports: per-condition residuals, machine-readable."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    max_residual: float
    worst_cell: str | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "condition": self.name,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "worst_cell": self.worst_cell,
        }


@dataclass(frozen=True)
class VerificationReport:
    conditions: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def max_residual(self) -> float:
        mags = [c.max_residual for c in self.conditions]
        return mags[worst_index(mags)] if mags else 0.0

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> list[str]:
        return [c.name for c in self.conditions if not c.passed]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "pass": self.passed,
            "max_residual": self.max_residual,
            "conditions": [c.to_json_dict() for c in self.conditions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)


def worst_index(mags: list) -> int:
    """Index of the worst of nonnegative residuals: the first NaN if there is
    one (a NaN never compares greater, so ``max`` alone would pass it over),
    else the first largest."""
    total = sum(mags)
    if total != total:
        return next(i for i, x in enumerate(mags) if x != x)
    return mags.index(max(mags))


def condition_from_rows(name: str, rows, tol: float) -> ConditionReport:
    """Build a condition from ``(label, residuals)`` rows, one residual per path.

    The worst cell is the first NaN ``|residual|``, else the first largest,
    named ``label,path=i``.  A NaN fails the condition.  ``rows`` is read
    once, so it may be a generator.
    """
    row_worst = []  # (|residual|, label, path) of each row's worst cell
    for label, res in rows:
        mags = list(map(abs, map(float, res)))
        if mags:
            i = worst_index(mags)
            row_worst.append((mags[i], label, i))
    if not row_worst:
        return ConditionReport(name=name, passed=True, max_residual=0.0)
    top, label, i = row_worst[worst_index([r[0] for r in row_worst])]
    return ConditionReport(
        name=name,
        passed=top <= tol,
        max_residual=top,
        worst_cell=f"{label},path={i}" if top != 0 else None,
    )


@dataclass
class RunReport:
    mode: str
    scenario: str
    digest: str
    arithmetic: str
    exit_code: int = 0
    y0: Any = None
    norms: dict = field(default_factory=dict)
    verification: VerificationReport | None = None
    trace: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json_dict(self, include_timings: bool = True) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "mode": self.mode,
            "scenario": self.scenario,
            "digest": self.digest,
            "arithmetic": self.arithmetic,
            "exit_code": self.exit_code,
            "y0": self.y0,
            "norms": self.norms,
            "trace": self.trace,
        }
        doc.update(self.extra)
        if self.verification is not None:
            doc["verification"] = self.verification.to_json_dict()
        if include_timings:
            doc["timings"] = self.timings
        return doc

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timings), sort_keys=True, indent=1)
