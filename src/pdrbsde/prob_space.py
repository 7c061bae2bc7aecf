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
the partitions nest by construction.

A random variable is a row (see values.py): one value per atom of a
partition it is measurable for, so its length names the partition.  A
``Partition`` holds its weights as a row, one probability per atom; its
atoms, as tuples of path indices, are made only when asked for, at the
boundaries (the stopping-rule oracle and readers outside the program).
Measurability with respect to a partition means constancy on each of its
atoms: a row no finer than the partition is measurable by its length alone.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import values as v
from .config import ScenarioConfig
from .values import RV


class SpaceError(ValueError):
    """Violation of a filtered-space construction invariant."""


class Partition:
    """A partition of the paths into equal runs of consecutive paths, one
    weight per run.  Iterating it lists its atoms, each a tuple of path
    indices."""

    __slots__ = ("row", "n_paths", "atoms")

    def __init__(self, row, n_paths: int) -> None:
        self.row = row  # the weights as a row: one probability per atom
        self.n_paths, self.atoms = n_paths, len(row)

    def __len__(self) -> int:
        return self.atoms

    def __iter__(self):
        size = self.n_paths // len(self)
        return (tuple(range(j, j + size)) for j in range(0, self.n_paths, size))

    def __repr__(self) -> str:
        return f"Partition({len(self)} atoms of {self.n_paths} paths)"


@dataclass(frozen=True, eq=False)
class FilteredSpace:
    """Immutable finite filtered probability space.

    Attributes
    ----------
    mode:        "rational" or "float": names the number backend (values.BACKENDS).
    sigma_minus: the partition representing F_{t_k^-}, k = 0..N.
    sigma_mid:   the partition representing F_{t_k} (= F_{t_k^+}), k = 0..N;
                 sigma_mid[N] has one atom per path.
    dw_rows:     dw_rows[k] is dW_k in {+sqrt(dt), -sqrt(dt)} on each atom of
                 sigma_minus[k+1], for k = 0..N-1.
    mark_rows:   mark_rows[k] is None, or the label of the mark revealed at
                 t_k on each atom of sigma_mid[k].

    ``weights`` and ``dw`` are the per-path views.
    """

    mode: str
    n_steps: int
    t_horizon: Fraction
    sigma_minus: tuple
    sigma_mid: tuple
    dw_rows: tuple
    mark_rows: tuple

    @property
    def n_paths(self) -> int:
        return len(self.sigma_mid[-1])

    @cached_property
    def weights(self) -> tuple:
        """Strictly positive path probabilities, summing to one."""
        return on_paths(self, self.sigma_mid[-1].row)

    @cached_property
    def dw(self) -> tuple:
        """dw[k][path], for k = 0..N-1."""
        return tuple(on_paths(self, row) for row in self.dw_rows)

    @cached_property
    def _partitions(self) -> dict:
        return {len(p): p for p in (*self.sigma_minus, *self.sigma_mid)}

    def partition_of(self, row) -> Partition:
        """The partition a row is given on: the one with len(row) atoms."""
        try:
            return self._partitions[len(row)]
        except KeyError:
            raise SpaceError(f"no partition has {len(row)} atoms") from None

    @cached_property
    def backend(self) -> v.Backend:
        return v.BACKENDS[self.mode]

    @property
    def dt(self):
        return self.backend.number(self.t_horizon / self.n_steps)

    @property
    def slack(self):
        """How far a float identity may miss; the int 0 in rational mode."""
        return v.gate(self.mode, 1e-12)

    def time_float(self, k: int) -> float:
        return k * float(self.t_horizon) / self.n_steps

    def zero(self) -> RV:
        return self.backend.row([0], 1)

    def constant(self, x) -> RV:
        return v.as_row(self.mode, [x])


# ---------------------------------------------------------------------------
# construction


def build_space(config: ScenarioConfig) -> FilteredSpace:
    """Build the product space described by a validated scenario config.

    Path count is the product of per-step branch counts: each mark multiplies
    by its alphabet size, each interval multiplies by two (binary dW).
    """
    n = config.n_steps
    dt = config.dt
    s = v.BACKENDS[config.arithmetic].sqrt(dt)  # the config checked it is rational in rational mode

    mark_at = {m.instant: m for m in config.marks}
    n_paths = 2**n * math.prod(len(m.labels) for m in config.marks)

    row = v.BACKENDS[config.arithmetic].row

    def level(nodes, den) -> Partition:
        return Partition(row(nodes, den), n_paths)

    # One weight per node of the tree revealed so far, in path order, so
    # len(nodes) is the number of atoms at each level; node j weighs nodes[j] / den.
    nodes, den = [1], 1
    dw_rows, mark_rows, sigma_minus, sigma_mid = [], [], [], []
    for k in range(n + 1):
        sigma_minus.append(level(nodes, den))
        spec = mark_at.get(k)
        if spec is None:
            mark_rows.append(None)
            sigma_mid.append(Partition(sigma_minus[-1].row, n_paths))  # shares its entries
        else:
            mark_rows.append(tuple(spec.labels) * len(nodes))
            common = math.lcm(*(p.denominator for p in spec.probs))
            nodes = v.refine(nodes, [p.numerator * (common // p.denominator) for p in spec.probs])
            den *= common
            sigma_mid.append(level(nodes, den))
        if k < n:
            dw_rows.append(v.as_row(config.arithmetic, (s, -s) * len(nodes)))
            nodes = v.refine(nodes, (1, 1))
            den *= 2

    if sum(nodes) != den:
        raise SpaceError(f"path weights sum to {Fraction(sum(nodes), den)}, expected exactly 1")

    space = FilteredSpace(
        mode=config.arithmetic,
        n_steps=n,
        t_horizon=config.t_horizon,
        sigma_minus=tuple(sigma_minus),
        sigma_mid=tuple(sigma_mid),
        dw_rows=tuple(dw_rows),
        mark_rows=tuple(mark_rows),
    )
    validate_space(space)
    return space


def validate_space(space: FilteredSpace) -> None:
    """Check that each dW_k takes two outcomes, centred with variance dt.

    The build gives every atom of sigma_mid[k] both outcomes with equal
    weight, so this covers every atom; the lattice nests by construction.
    Every atom must have positive probability, so that conditional
    expectations are defined."""
    if v.any_nonpositive(space.sigma_mid[-1].row):
        raise SpaceError("a path has zero probability")
    for k, row in enumerate(space.dw_rows):
        outcomes = set(v.entries(row))
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
    """E[X | partition] as a row on the partition's atoms: on each atom, the
    probability-weighted average of the row's entries below it.

    The tower property against any coarser partition holds exactly in
    rational mode.
    """
    return v.block_means(values, space.partition_of(values).row, len(partition))


def expectation(space: FilteredSpace, values: Sequence):
    return v.dot(space.partition_of(values).row, values)


def is_measurable(space: FilteredSpace, values: Sequence, partition: Partition) -> bool:
    """True iff the variable is constant on every atom of the partition.

    A row no finer than the partition is, unless it holds a NaN: a NaN is
    unequal to itself, so it is measurable for no partition."""
    return v.constant_on_blocks(values, partition.atoms, space.mode)


def on_paths(space: FilteredSpace, row: Sequence) -> tuple:
    """The row's entries, one per path: the per-path view at the boundaries."""
    return tuple(v.expand(v.entries(row), space.n_paths))


# ---------------------------------------------------------------------------
# export


# space.json is written this many paths at a time: path objects, or the path
# indices of one partition's atoms, so no write holds more than one chunk.
SPACE_JSON_CHUNK = 256


def dump_space_json(space: FilteredSpace, path: str) -> None:
    """Write the space as ``json.dumps(doc, sort_keys=True, indent=1)`` writes
    its document: ``N``, ``T``, ``mode``, one object per path (its
    ``dw_signs``, ``index``, ``marks`` by instant and ``weight``), and the atoms
    of ``sigma_mid`` and ``sigma_minus`` as lists of path indices.

    The text is written in chunks of ``SPACE_JSON_CHUNK`` paths.  Each
    distinct value's text is ``json.dumps`` of it, made once, and a path
    takes the texts of its atoms of the dW sign, mark and weight rows; each
    run of an atom within a chunk is one join over the index texts of its
    paths."""
    n_paths, chunk = space.n_paths, SPACE_JSON_CHUNK

    def text(row: Sequence, prefix: str = "") -> tuple[list, int]:
        """``prefix`` and the JSON text of each atom's entry, made once per
        distinct entry (a row holds entries of one type, and never a signed
        zero), and the paths of an atom."""
        memo = {}
        return ([memo[x] if x in memo else memo.setdefault(x, prefix + json.dumps(x))
                 for x in row], n_paths // len(row))

    index = [str(i) for i in range(n_paths)]
    signs = [text(v.signs(row)) for row in space.dw_rows]
    labels = {str(k): row for k, row in enumerate(space.mark_rows) if row is not None}
    marks = [text(labels[k], f"{json.dumps(k)}: ") for k in sorted(labels)]
    weights = text(v.to_json(space.mode, space.sigma_mid[-1].row))[0]  # one atom per path

    def items(texts: Sequence, brackets: str) -> str:
        if not texts:
            return brackets
        return f"{brackets[0]}\n    " + ",\n    ".join(texts) + f"\n   {brackets[1]}"

    def path_objects(start: int, stop: int) -> str:
        """The objects of paths start..stop-1: a column of texts per atom row
        (N >= 1, so there is one), one tuple of them per path."""
        paths, n_signs = range(start, stop), len(signs)
        columns = [[texts[i // size] for i in paths] for texts, size in (*signs, *marks)]
        return ",\n".join(
            f'  {{\n   "dw_signs": {items(cells[:n_signs], "[]")},\n'
            f'   "index": {index[i]},\n'
            f'   "marks": {items(cells[n_signs:], "{}")},\n'
            f'   "weight": {weights[i]}\n  }}'
            for i, cells in zip(paths, zip(*columns)))

    def atoms(size: int, start: int, stop: int) -> str:
        """Paths start..stop-1 of a partition into atoms of ``size`` paths:
        the partition's opening at path 0 and its closing after the last."""
        cuts = [start, *range(start - start % size + size, stop, size), stop]
        runs = (",\n    ".join(index[a:b]) for a, b in zip(cuts, cuts[1:]))
        text = "\n   ],\n   [\n    ".join(runs)
        if start % size:
            text = ",\n    " + text
        else:
            text = ("  [\n   [\n    " if start == 0 else "\n   ],\n   [\n    ") + text
        return text + "\n   ]\n  ]" if stop == n_paths else text

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "N": {space.n_steps},\n "T": {json.dumps(str(space.t_horizon))},\n'
                 f' "mode": {json.dumps(space.mode)},\n "paths": [\n')
        for start in range(0, n_paths, chunk):
            fh.write((",\n" if start else "") + path_objects(start, min(start + chunk, n_paths)))
        for name, parts in (("sigma_mid", space.sigma_mid), ("sigma_minus", space.sigma_minus)):
            fh.write(f'\n ],\n "{name}": [\n')
            for j, p in enumerate(parts):
                for start in range(0, n_paths, chunk):
                    lead = ",\n" if j and not start else ""
                    fh.write(lead + atoms(n_paths // len(p), start, min(start + chunk, n_paths)))
        fh.write("\n ]\n}")
