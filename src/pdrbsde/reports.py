"""Verification and run reports: per-condition residuals, machine-readable."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from . import values as v


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
        return mags[v.worst_index(mags)] if mags else 0.0

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


def condition_from_rows(name: str, rows, tol: float, n_paths: int) -> ConditionReport:
    """Build a condition from ``(label, residuals)`` rows, each a row of a
    space of ``n_paths`` paths.

    The worst cell is the first NaN ``|residual|``, else the first largest,
    named ``label,path=i`` by the first path i of its atom.  A NaN fails the
    condition.  ``rows`` is read once, so it may be a generator.
    """
    row_worst = []  # (|residual|, label, path) of each row's worst cell
    for label, res in rows:
        if res and not v.any_nonzero(res):  # a row of zeros, in one test
            row_worst.append((0.0, label, 0))
            continue
        mags = v.magnitudes(res)
        if mags:
            j = v.worst_index(mags)
            row_worst.append((mags[j], label, j * n_paths // len(mags)))
    if not row_worst:
        return ConditionReport(name=name, passed=True, max_residual=0.0)
    top, label, i = row_worst[v.worst_index([r[0] for r in row_worst])]
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
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "mode": self.mode,
            "scenario": self.scenario,
            "digest": self.digest,
            "arithmetic": self.arithmetic,
            "exit_code": self.exit_code,
            "y0": self.y0,
            "norms": self.norms,
            "trace": self.trace,
            "timings": self.timings,
        }
        if self.verification is not None:
            doc["verification"] = self.verification.to_json_dict()
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)
