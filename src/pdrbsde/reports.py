"""Verification reports: per-condition residuals, machine-readable."""

from __future__ import annotations

from dataclasses import dataclass
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


class ConditionRows:
    """A condition built from ``(label, residuals)`` rows handed in one at a
    time, each a row of a space of ``n_paths`` paths, and kept only as its
    worst cell.  A row added on a higher ``lane`` counts as read after every
    row of a lower one, whichever came in first.

    The worst cell is the first NaN ``|residual|``, else the first largest,
    named ``label,path=i`` by the first path i of its atom.  A NaN fails the
    condition.
    """

    def __init__(self, name: str, tol: float, n_paths: int) -> None:
        self.name, self.tol, self.n_paths = name, tol, n_paths
        self.lanes: dict[int, list] = {}  # (|residual|, label, path) of each row's worst cell

    def add(self, label, res, lane: int = 0) -> None:
        if res and not v.any_nonzero(res):  # a row of zeros, in one test
            worst = (0.0, label, 0)
        else:
            mags = v.magnitudes(res)
            if not mags:
                return
            j = v.worst_index(mags)
            worst = (mags[j], label, j * self.n_paths // len(mags))
        self.lanes.setdefault(lane, []).append(worst)

    def report(self) -> ConditionReport:
        row_worst = [w for lane in sorted(self.lanes) for w in self.lanes[lane]]
        if not row_worst:
            return ConditionReport(name=self.name, passed=True, max_residual=0.0)
        top, label, i = row_worst[v.worst_index([r[0] for r in row_worst])]
        return ConditionReport(
            name=self.name,
            passed=top <= self.tol,
            max_residual=top,
            worst_cell=f"{label},path={i}" if top != 0 else None,
        )
