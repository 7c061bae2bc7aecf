"""Finite filtered probability spaces with exact conditional expectation.

Information is revealed in two kinds of step.  A categorical mark eta_k is
revealed exactly *at* instant t_k, refining F_{t_k^-} into F_{t_k}; the
Brownian surrogate increment dW_k = +-sqrt(dt) is revealed *across* the
interval (t_k, t_{k+1}), refining F_{t_k} into F_{t_{k+1}^-}.  A filtration is
therefore a chain of partitions

    sigma_minus[0] <= sigma_mid[0] <= sigma_minus[1] <= ... <= sigma_mid[N]

with sigma_mid[k] = sigma_minus[k] v sigma(eta_k) and
sigma_minus[k+1] = sigma_mid[k] v sigma(dW_k).  Any informative mark makes the
filtration non quasi-left continuous: martingales may then jump at the (fully
predictable) grid instants.

A random variable is a plain per-path value list (see values.py);
measurability with respect to a partition means constancy on each atom.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .config import ConfigError, ScenarioConfig, _rational_sqrt
from .values import RV

Atom = tuple[int, ...]
Partition = tuple[Atom, ...]


class SpaceError(ValueError):
    """Violation of a filtered-space construction invariant."""


@dataclass(frozen=True)
class FilteredSpace:
    """Immutable finite filtered probability space.

    Attributes
    ----------
    mode:        "rational" or "float"; sets the value backend everywhere.
    weights:     strictly positive path probabilities, summing to one.
    dw:          dw[k][path] in {+sqrt_dt, -sqrt_dt}, for k = 0..N-1.
    marks:       marks[k] is None or a per-path label list, for k = 0..N.
    sigma_minus: partition representing F_{t_k^-}, k = 0..N.
    sigma_mid:   partition representing F_{t_k} (= F_{t_k^+}), k = 0..N.
    """

    mode: str
    n_steps: int
    t_horizon: Fraction
    weights: tuple
    dw: tuple
    marks: tuple
    sigma_minus: tuple
    sigma_mid: tuple

    @property
    def n_paths(self) -> int:
        return len(self.weights)

    @property
    def dt(self):
        d = self.t_horizon / self.n_steps
        return d if self.mode == "rational" else float(d)

    @property
    def sqrt_dt(self):
        if self.mode == "rational":
            s = _rational_sqrt(self.t_horizon / self.n_steps)
            assert s is not None
            return s
        return math.sqrt(float(self.t_horizon) / self.n_steps)

    def time(self, k: int):
        """Grid instant t_k in the value backend."""
        t = Fraction(k) * self.t_horizon / self.n_steps
        return t if self.mode == "rational" else float(t)

    def time_float(self, k: int) -> float:
        return k * float(self.t_horizon) / self.n_steps

    @property
    def is_quasi_left_continuous(self) -> bool:
        """True iff no mark ever refines sigma_minus[k] into sigma_mid[k]."""
        return all(
            len(self.sigma_mid[k]) == len(self.sigma_minus[k])
            for k in range(self.n_steps + 1)
        )

    def zero(self) -> RV:
        z = Fraction(0) if self.mode == "rational" else 0.0
        return [z] * self.n_paths

    def constant(self, v) -> RV:
        c = Fraction(v) if self.mode == "rational" else float(v)
        return [c] * self.n_paths


# ---------------------------------------------------------------------------
# construction


def build_space(config: ScenarioConfig) -> FilteredSpace:
    """Build the product space described by a validated scenario config.

    Path count is the product of per-step branch counts: each mark multiplies
    by its alphabet size, each interval multiplies by two (binary dW).
    """
    config.validate()
    n = config.n_steps
    rational = config.arithmetic == "rational"
    dt = config.dt
    if rational:
        s = _rational_sqrt(dt)
        if s is None:
            raise ConfigError(f"sqrt(dt) irrational for dt={dt}", "grid")
    else:
        s = math.sqrt(float(dt))

    mark_at = {m.instant: m for m in config.marks}

    # Each path is grown as (weight, mark_labels, dw_signs).
    paths: list[tuple[Fraction, tuple[str, ...], tuple[int, ...]]] = [
        (Fraction(1), (), ())
    ]
    mark_cols: list[int | None] = []  # column index into mark_labels, per instant
    half = Fraction(1, 2)
    for k in range(n + 1):
        spec = mark_at.get(k)
        if spec is None:
            mark_cols.append(None)
        else:
            mark_cols.append(len(paths[0][1]))
            paths = [
                (w * p, labels + (lab,), signs)
                for (w, labels, signs) in paths
                for lab, p in zip(spec.labels, spec.probs)
            ]
        if k < n:
            paths = [
                (w * half, labels, signs + (sign,))
                for (w, labels, signs) in paths
                for sign in (+1, -1)
            ]

    weights_q = [w for w, _, _ in paths]
    total = sum(weights_q, Fraction(0))
    if total != 1:
        raise SpaceError(f"path weights sum to {total}, expected exactly 1")

    n_paths = len(paths)
    if rational:
        weights = tuple(weights_q)
        dw = tuple(
            tuple(s * signs[k] for (_, _, signs) in paths) for k in range(n)
        )
    else:
        weights = tuple(float(w) for w in weights_q)
        dw = tuple(
            tuple(s * signs[k] for (_, _, signs) in paths) for k in range(n)
        )

    marks = tuple(
        tuple(labels[mark_cols[k]] for (_, labels, _) in paths)
        if mark_cols[k] is not None
        else None
        for k in range(n + 1)
    )

    # Partitions: group by the revealed history prefix.
    def key_minus(k: int, idx: int):
        _, labels, signs = paths[idx]
        n_marks = sum(1 for j in range(k) if mark_cols[j] is not None)
        return (labels[:n_marks], signs[:k])

    def key_mid(k: int, idx: int):
        _, labels, signs = paths[idx]
        n_marks = sum(1 for j in range(k + 1) if mark_cols[j] is not None)
        return (labels[:n_marks], signs[:k])

    sigma_minus = tuple(_group(n_paths, lambda i, k=k: key_minus(k, i)) for k in range(n + 1))
    sigma_mid = tuple(_group(n_paths, lambda i, k=k: key_mid(k, i)) for k in range(n + 1))

    space = FilteredSpace(
        mode=config.arithmetic,
        n_steps=n,
        t_horizon=config.t_horizon,
        weights=weights,
        dw=dw,
        marks=marks,
        sigma_minus=sigma_minus,
        sigma_mid=sigma_mid,
    )
    validate_space(space)
    return space


def _group(n_paths: int, key) -> Partition:
    atoms: dict[Any, list[int]] = {}
    for i in range(n_paths):
        atoms.setdefault(key(i), []).append(i)
    return tuple(tuple(a) for a in atoms.values())


def validate_space(space: FilteredSpace) -> None:
    """Check every structural invariant of the filtration lattice."""
    n = space.n_steps
    if space.sigma_minus[0] != (tuple(range(space.n_paths)),):
        raise SpaceError("sigma_minus[0] must be the trivial partition")
    for k in range(n + 1):
        if not refines(space.sigma_mid[k], space.sigma_minus[k]):
            raise SpaceError(f"sigma_mid[{k}] does not refine sigma_minus[{k}]")
        if k < n and not refines(space.sigma_minus[k + 1], space.sigma_mid[k]):
            raise SpaceError(f"sigma_minus[{k+1}] does not refine sigma_mid[{k}]")
    tol = 0 if space.mode == "rational" else 1e-12
    for k in range(n):
        for atom in space.sigma_mid[k]:
            w = sum(space.weights[i] for i in atom)
            if w <= 0:
                raise SpaceError("atom of zero probability")
            m1 = sum(space.weights[i] * space.dw[k][i] for i in atom) / w
            m2 = sum(space.weights[i] * space.dw[k][i] ** 2 for i in atom) / w
            if abs(m1) > tol:
                raise SpaceError(f"E[dW_{k}|atom] = {m1} != 0")
            if abs(m2 - space.dt) > tol * max(1, abs(space.dt)):
                raise SpaceError(f"E[dW_{k}^2|atom] = {m2} != dt")
            if len({space.dw[k][i] for i in atom}) != 2:
                raise SpaceError(f"dW_{k} not binary on an atom of sigma_mid[{k}]")


def refines(fine: Partition, coarse: Partition) -> bool:
    owner = {}
    for j, atom in enumerate(coarse):
        for i in atom:
            owner[i] = j
    return all(len({owner[i] for i in atom}) == 1 for atom in fine)


# ---------------------------------------------------------------------------
# conditional expectation and measurability


def cond_expect(space: FilteredSpace, values: Sequence, partition: Partition) -> RV:
    """E[X | partition]: the probability-weighted average on each atom.

    The result is constant on each atom; the tower property against any
    coarser partition holds exactly in rational mode.
    """
    out = list(values)
    for atom in partition:
        w = sum(space.weights[i] for i in atom)
        if w <= 0:
            raise SpaceError("conditional expectation on a zero-probability atom")
        avg = sum(space.weights[i] * values[i] for i in atom) / w
        for i in atom:
            out[i] = avg
    return out


def expectation(space: FilteredSpace, values: Sequence):
    return sum(w * v for w, v in zip(space.weights, values))


def is_measurable(space: FilteredSpace, values: Sequence, partition: Partition) -> bool:
    """True iff the variable is constant on every atom of the partition."""
    return all(
        all(values[i] == values[atom[0]] for i in atom) for atom in partition
    )


# ---------------------------------------------------------------------------
# export


def space_to_json_dict(space: FilteredSpace) -> dict:
    """Dump paths with weights and the per-instant atom lists."""
    return {
        "mode": space.mode,
        "N": space.n_steps,
        "T": str(space.t_horizon),
        "paths": [
            {
                "index": i,
                "weight": str(space.weights[i]) if space.mode == "rational" else space.weights[i],
                "dw_signs": [1 if space.dw[k][i] > 0 else -1 for k in range(space.n_steps)],
                "marks": {
                    str(k): space.marks[k][i]
                    for k in range(space.n_steps + 1)
                    if space.marks[k] is not None
                },
            }
            for i in range(space.n_paths)
        ],
        "sigma_minus": [[list(a) for a in p] for p in space.sigma_minus],
        "sigma_mid": [[list(a) for a in p] for p in space.sigma_mid],
    }


def dump_space_json(space: FilteredSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(space_to_json_dict(space), sort_keys=True, indent=1))
