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

The space is a product tree.  Its levels are the revelations in time order
(the mark at t_k if any, then dW_k), and path i's outcomes are the
mixed-radix digits of i in that order, most significant first: at a level
with `branching` outcomes and `inner` paths below each outcome, path i takes
outcome (i // inner) % branching, counting a mark's labels in their given
order and dW_k as +sqrt(dt) before -sqrt(dt).  So every atom of
sigma_minus[k] and sigma_mid[k] is a contiguous run of
n_paths // (histories revealed) paths, atoms are listed in path order, and
the partitions nest by construction.  Only this module relies on that
layout; others copy per-atom values onto paths with ``spread``.

A random variable is a plain per-path value list (see values.py);
measurability with respect to a partition means constancy on each atom.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    dw:          dw[k][path] in {+sqrt(dt), -sqrt(dt)}, for k = 0..N-1.
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
    def slack(self):
        """How far a float identity may miss; the int 0 in rational mode, so
        comparisons against it keep Fractions exact."""
        return 0 if self.mode == "rational" else 1e-12

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
    n_paths = 2**n * math.prod(len(m.labels) for m in config.marks)

    # One weight per node of the tree revealed so far, in path order, so
    # len(nodes) is the number of atoms at each level.
    nodes = [Fraction(1)]
    half = Fraction(1, 2)
    dw, marks, sigma_minus, sigma_mid = [], [], [], []
    for k in range(n + 1):
        sigma_minus.append(_blocks(n_paths, len(nodes)))
        spec = mark_at.get(k)
        if spec is None:
            marks.append(None)
        else:
            marks.append(_column(n_paths, len(nodes), spec.labels))
            nodes = [w * p for w in nodes for p in spec.probs]
        sigma_mid.append(_blocks(n_paths, len(nodes)))
        if k < n:
            dw.append(_column(n_paths, len(nodes), (s, -s)))
            nodes = [w * half for w in nodes for _ in range(2)]

    total = sum(nodes, Fraction(0))
    if total != 1:
        raise SpaceError(f"path weights sum to {total}, expected exactly 1")

    space = FilteredSpace(
        mode=config.arithmetic,
        n_steps=n,
        t_horizon=config.t_horizon,
        weights=tuple(nodes) if rational else tuple(float(w) for w in nodes),
        dw=tuple(dw),
        marks=tuple(marks),
        sigma_minus=tuple(sigma_minus),
        sigma_mid=tuple(sigma_mid),
    )
    validate_space(space)
    return space


def _blocks(n_paths: int, n_atoms: int) -> Partition:
    """The partition into n_atoms equal runs of consecutive paths."""
    size = n_paths // n_atoms
    return tuple(tuple(range(j, j + size)) for j in range(0, n_paths, size))


def _column(n_paths: int, n_atoms: int, outcomes: Sequence) -> tuple:
    """Per-path outcome of the level revealed below n_atoms atoms: each atom's
    block splits into one equal run per outcome, in order."""
    run: list = []
    for x in outcomes:
        run += [x] * (n_paths // (n_atoms * len(outcomes)))
    return tuple(run * n_atoms)


def validate_space(space: FilteredSpace) -> None:
    """Check that each dW_k takes two outcomes, centred with variance dt.

    The build gives every atom of sigma_mid[k] both outcomes with equal
    weight, so this covers every atom; the lattice nests by construction."""
    for k, column in enumerate(space.dw):
        outcomes = set(column)
        if len(outcomes) != 2:
            raise SpaceError(f"dW_{k} not binary")
        up, down = outcomes
        mean, second = (up + down) / 2, (up * up + down * down) / 2
        if abs(mean) > space.slack:
            raise SpaceError(f"E[dW_{k}] = {mean} != 0")
        if abs(second - space.dt) > space.slack * max(1, abs(space.dt)):
            raise SpaceError(f"E[dW_{k}^2] = {second} != dt")


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


def spread(space: FilteredSpace, partition: Partition, per_atom_values: Sequence) -> RV:
    """The variable equal to per_atom_values[j] on the j-th atom of one of the
    space's partitions."""
    if len(per_atom_values) != len(partition):
        raise SpaceError(f"{len(per_atom_values)} values for {len(partition)} atoms")
    size = space.n_paths // len(partition)
    out: RV = []
    for x in per_atom_values:
        out += [x] * size
    return out


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
