from __future__ import annotations

import contextlib
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from pdrbsde.config import config_from_dict
from pdrbsde.prob_space import build_space, on_paths


def make_config(n_steps, t_horizon, marks=(), barriers=None, driver=None,
                arithmetic="rational", seed=0, name="test"):
    return config_from_dict({
        "schema": 1,
        "name": name,
        "grid": {"N": n_steps, "T": str(t_horizon)},
        "marks": list(marks),
        "barriers": barriers or {"kind": "constant", "params": {"value": 0}},
        "driver": driver or {"kind": "zero", "params": {}},
        "params": {},
        "arithmetic": arithmetic,
        "seed": seed,
    })


def make_space(n_steps, t_horizon, marks=(), arithmetic="rational", seed=0):
    return build_space(make_config(n_steps, t_horizon, marks=marks,
                                   arithmetic=arithmetic, seed=seed))


MARK_HALF = {"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]}


@pytest.fixture
def space_2(scope="module"):
    """Single step, fair coin, 2 paths."""
    return make_space(1, 1)


@pytest.fixture
def space_4():
    """Single step with a mark revealed at t_1: 4 paths, non-QLC."""
    return make_space(1, 1, marks=[MARK_HALF])


@pytest.fixture
def space_16():
    """Two steps with marks at both instants: 16 paths."""
    return make_space(2, "1/2", marks=[
        {"instant": 1, "labels": ["a", "b"], "probs": ["1/2", "1/2"]},
        {"instant": 2, "labels": ["x", "y"], "probs": ["1/4", "3/4"]},
    ])


@pytest.fixture
def space_8():
    """Two steps, one informative mark: 8 paths."""
    return make_space(2, "1/2", marks=[MARK_HALF])


def rand_on(space, partition, rng, scale=Fraction(2), signed=True):
    """A random row on the partition's atoms."""
    vals = []
    for _ in range(len(partition)):
        val = Fraction(rng.randint(-8 if signed else 0, 8), 4) * scale
        vals.append(float(val) if space.mode == "float" else val)
    return vals


def set_cell(proc, slot, k, i, value):
    """The process with the value of path i in slot row k set to ``value``;
    that row becomes one value per path, so path i moves alone."""
    from pdrbsde.processes import from_slots

    rows = {name: list(getattr(proc, f"{name}_rows")) for name in ("minus", "mid", "plus")}
    row = list(on_paths(proc.space, rows[slot][k]))
    row[i] = value
    rows[slot][k] = row
    return from_slots(proc.space, rows["minus"], rows["mid"], rows["plus"])


def move_cells(sol, delta):
    """The solution with a few Y and A values moved, so that most conditions
    see nonzero residuals."""
    from dataclasses import replace

    n, y = sol.y.n_steps, sol.y
    y = set_cell(y, "mid", 0, 0, y.mid[0][0] + delta)
    y = set_cell(y, "mid", n // 2, -1, y.mid[n // 2][-1] - delta)
    y = set_cell(y, "plus", 0, -1, y.plus[0][-1] + delta)
    a = set_cell(sol.a, "mid", n, 0, sol.a.mid[n][0] + delta)
    return replace(sol, y=y, a=a)


def verify_pre_solution(xi, q, tol=None):
    """The doubly reflected verifier's report on a quintuple ``q`` of the
    one-barrier problem with barrier ``xi``: a solution of it is the doubly
    reflected one with driver 0, upper barrier zeta = Y and A' = B' = 0."""
    from pdrbsde.drbsde import BarrierPair, SolutionSeptuple
    from pdrbsde.processes import zero_process
    from pdrbsde.verify import verify_drbsde_solution

    space, zero = xi.space, zero_process(xi.space)
    septuple = SolutionSeptuple(y=q.y, z=q.z, m=q.m, a=q.a, b=q.b, a_prime=zero, b_prime=zero)
    return verify_drbsde_solution([space.zero()] * space.n_steps, BarrierPair(xi=xi, zeta=q.y),
                                  septuple, tol)


def random_predictable(space, rng, scale=Fraction(2)):
    """Random predictable ladlag process with free minus/plus slots."""
    from pdrbsde.processes import from_slots, validate_process

    n = space.n_steps
    mid = [rand_on(space, space.sigma_minus[k], rng, scale) for k in range(n + 1)]
    minus = [list(mid[0])] + [rand_on(space, space.sigma_minus[k], rng, scale)
                              for k in range(1, n + 1)]
    plus = [rand_on(space, space.sigma_mid[k], rng, scale) for k in range(n)]
    proc = from_slots(space, minus, mid, plus)
    validate_process(proc, "predictable")
    return proc


def random_martingale(space, rng, scale=Fraction(1)):
    """Random square-integrable martingale with M_{0^-} = 0: dW-driven interval
    increments plus compensated mark jumps."""
    from pdrbsde import values as v
    from pdrbsde.processes import from_slots, validate_process
    from pdrbsde.prob_space import cond_expect

    n = space.n_steps
    minus = [space.zero()]
    mid, plus = [], []
    cur = space.zero()
    for k in range(n + 1):
        raw = rand_on(space, space.sigma_mid[k], rng, scale)
        jump = v.sub(raw, cond_expect(space, raw, space.sigma_minus[k]))
        if k == 0:
            jump = space.zero()  # M_0 = 0 normalization
        cur = v.add(cur, jump)
        mid.append(cur)
        if k < n:
            plus.append(cur)
            z = rand_on(space, space.sigma_mid[k], rng, scale)
            cur = v.add(cur, v.mul(z, space.dw_rows[k]))
            minus.append(cur)
    proc = from_slots(space, minus, mid, plus)
    validate_process(proc, "cadlag-martingale")
    return proc


def random_nonneg_pss(space, rng):
    """Random nonnegative predictable strong supermartingale, slack at every link."""
    from pdrbsde import values as v
    from pdrbsde.processes import from_slots
    from pdrbsde.prob_space import cond_expect

    n = space.n_steps

    def rand_nonneg(partition):
        draws = [Fraction(rng.randint(0, 8), 4) for _ in range(len(partition))]
        return v.as_row(space.mode, draws)

    mid: list = [None] * (n + 1)
    minus: list = [None] * (n + 1)
    plus: list = [None] * n
    mid[n] = rand_nonneg(space.sigma_minus[n])
    minus[n] = v.add(mid[n], rand_nonneg(space.sigma_minus[n]))
    for k in range(n - 1, -1, -1):
        plus[k] = v.add(cond_expect(space, minus[k + 1], space.sigma_mid[k]),
                        rand_nonneg(space.sigma_mid[k]))
        mid[k] = v.add(cond_expect(space, plus[k], space.sigma_minus[k]),
                       rand_nonneg(space.sigma_minus[k]))
        minus[k] = v.add(mid[k], rand_nonneg(space.sigma_minus[k]))
    minus[0] = mid[0]
    return from_slots(space, minus, mid, plus)


def picard_solution(barriers, g, order="jacobi"):
    """The Picard oracle's solution of a process-driver problem: shift the
    barriers, iterate in ``order`` to exact stabilization, assemble."""
    from pdrbsde.drbsde import assemble_solution, picard_coupled, shift_barriers

    xi_t, zeta_t, x = shift_barriers(barriers, g)
    j, jbar, _ = picard_coupled(xi_t, zeta_t, order=order)
    return assemble_solution(j, jbar, x, g, barriers)


def fixed_point_residual(j, jbar, xi_t, zeta_t):
    """How far (J, Jbar) is from solving the coupled system: the sup distance
    of each from the envelope of its barrier, built afresh.  ``picard_coupled``
    stops only where this is exactly zero, and ``assemble_solution`` relies on
    it."""
    from pdrbsde.drbsde import _kill_terminal
    from pdrbsde.processes import p_add, p_sub, sup_distance
    from pdrbsde.snell import snell_envelope_slots

    r1 = sup_distance(j, snell_envelope_slots(_kill_terminal(p_add(jbar, xi_t))))
    r2 = sup_distance(jbar, snell_envelope_slots(_kill_terminal(p_sub(j, zeta_t))))
    return max(r1, r2)


def csv_writer_dump(out_dir, sol, g):
    """The solution dump as ``csv.writer`` writes it, one ``writerow`` per
    cell: the oracle for ``cli._dump_solution``."""
    import csv

    def fmt(x):
        return str(x) if isinstance(x, Fraction) else repr(float(x))

    procs = {"Y": sol.y, "M": sol.m, "A": sol.a, "B": sol.b,
             "A_prime": sol.a_prime, "B_prime": sol.b_prime}
    for name, proc in procs.items():
        with open(out_dir / f"solution_{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instant", "slot", "path", "value"])
            n = proc.n_steps
            for k in range(n + 1):
                for slot, arr in (("minus", proc.minus[k]), ("mid", proc.mid[k])):
                    for i, val in enumerate(arr):
                        writer.writerow([k, slot, i, fmt(val)])
                if k < n:
                    for i, val in enumerate(proc.plus[k]):
                        writer.writerow([k, "plus", i, fmt(val)])
    for file, rows in (("solution_Z.csv", sol.z), ("driver_g.csv", g)):
        with open(out_dir / file, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["interval", "path", "value"])
            for k, row in enumerate(rows):
                for i, val in enumerate(on_paths(sol.y.space, row)):
                    writer.writerow([k, i, fmt(val)])


def space_to_json_dict(space):
    """The space as a document with one dict per path and every atom listed."""
    signs = [[1 if x > 0 else -1 for x in on_paths(space, row)] for row in space.dw_rows]
    marks = {str(k): on_paths(space, row)
             for k, row in enumerate(space.mark_rows) if row is not None}
    weights = list(map(str, space.weights)) if space.backend.exact else list(space.weights)
    return {
        "mode": space.mode,
        "N": space.n_steps,
        "T": str(space.t_horizon),
        "paths": [
            {
                "index": i,
                "weight": weights[i],
                "dw_signs": [s[i] for s in signs],
                "marks": {k: labels[i] for k, labels in marks.items()},
            }
            for i in range(space.n_paths)
        ],
        "sigma_minus": [[list(a) for a in p] for p in space.sigma_minus],
        "sigma_mid": [[list(a) for a in p] for p in space.sigma_mid],
    }


def json_dumps_space(space) -> str:
    """The per-path document as the json module writes it: the oracle for
    ``expand_space`` of the compact ``space.json``."""
    import json

    return json.dumps(space_to_json_dict(space), sort_keys=True, indent=1)


def expand_space(doc: dict) -> dict:
    """The per-path document of ``space_to_json_dict`` rebuilt from a compact
    ``space.json`` document: path i takes outcome (i // inner) % branching
    at each level, a mark's labels in their order and dW_k's signs +1 then
    -1, and its weight is the product of its outcomes' probabilities."""
    n_paths, half = doc["n_paths"], Fraction(1, 2)
    paths = [{"index": i, "weight": Fraction(1), "dw_signs": [], "marks": {}}
             for i in range(n_paths)]
    inner = n_paths
    for level in doc["levels"]:
        if "mark" in level:
            outcomes = list(zip(level["labels"], map(Fraction, level["probs"])))
        else:
            outcomes = [(1, half), (-1, half)]
        inner //= len(outcomes)
        for path in paths:
            outcome, prob = outcomes[path["index"] // inner % len(outcomes)]
            path["weight"] *= prob
            if "mark" in level:
                path["marks"][str(level["mark"])] = outcome
            else:
                path["dw_signs"].append(outcome)
    assert inner == 1, "the levels' outcomes multiply to n_paths"
    as_json = str if doc["mode"] == "rational" else float
    for path in paths:
        path["weight"] = as_json(path["weight"])

    def atoms(sizes: list) -> list:
        return [[list(range(j, j + size)) for j in range(0, n_paths, size)] for size in sizes]

    return {"mode": doc["mode"], "N": doc["N"], "T": doc["T"], "paths": paths,
            "sigma_minus": atoms(doc["sigma_minus"]), "sigma_mid": atoms(doc["sigma_mid"])}


def condition_from_rows(name, rows, tol, n_paths):
    """The condition of ``(label, residuals)`` rows read in order, through
    ``reports.ConditionRows``; ``rows`` is read once, so it may be a generator."""
    from pdrbsde.reports import ConditionRows

    acc = ConditionRows(name, tol, n_paths)
    for label, res in rows:
        acc.add(label, res)
    return acc.report()


def cell_scan_condition(name, rows, tol, n_paths):
    """A condition from one ``(|residual|, label)`` tuple per path and a flat
    ``max`` over them: the oracle for ``reports.ConditionRows``."""
    from pdrbsde import values as v
    from pdrbsde.reports import ConditionReport

    cells = [(abs(float(r)), f"{label},path={i}") for label, res in rows
             for i, r in enumerate(v.entries(v.expand(res, n_paths)) if res else res)]
    if not cells:
        return ConditionReport(name=name, passed=True, max_residual=0.0)
    worst, label = max(cells, key=lambda rc: rc[0])
    worst = float(worst)
    return ConditionReport(name=name, passed=worst <= tol, max_residual=worst,
                           worst_cell=label if worst > 0 else None)


def tree_weights_by_fractions(config) -> tuple:
    """The weights of ``sigma_minus`` and ``sigma_mid`` at each instant, as
    ``Fraction`` products through ``v.refine`` turned into the backend's
    entries: the oracle for ``build_space``'s int tree weights."""
    from pdrbsde import values as v

    mark_at = {m.instant: m for m in config.marks}
    nodes, minus, mid = [Fraction(1)], [], []
    for k in range(config.n_steps + 1):
        minus.append(v.convert(config.arithmetic, nodes))
        if k in mark_at:
            nodes = v.refine(nodes, mark_at[k].probs)
        mid.append(v.convert(config.arithmetic, nodes))
        if k < config.n_steps:
            nodes = v.refine(nodes, (Fraction(1, 2), Fraction(1, 2)))
    return minus, mid


def magnitudes_condition(name, rows, tol, n_paths):
    """``condition_from_rows`` with every row, zero or not, taken through
    its magnitudes: the oracle for ``ConditionRows``' one-test pass of a zero
    row."""
    from pdrbsde import values as v
    from pdrbsde.reports import ConditionReport

    row_worst = []
    for label, res in rows:
        mags = v.magnitudes(res)
        if mags:
            j = v.worst_index(mags)
            row_worst.append((mags[j], label, j * n_paths // len(mags)))
    if not row_worst:
        return ConditionReport(name=name, passed=True, max_residual=0.0)
    top, label, i = row_worst[v.worst_index([r[0] for r in row_worst])]
    return ConditionReport(name=name, passed=top <= tol, max_residual=top,
                           worst_cell=f"{label},path={i}" if top != 0 else None)


@contextlib.contextmanager
def fraction_rows():
    """Rational mode with every row a list of ``Fraction`` entries, as rows
    were before ``IntRow``: the rational backend's row constructor is swapped,
    so every row the program builds takes the list bodies of the helpers,
    which compute it exactly.  The oracle for the ``IntRow`` bodies."""
    from pdrbsde import values as v

    rational = v.BACKENDS["rational"]
    v.BACKENDS["rational"] = dataclasses.replace(
        rational, row=lambda nums, den: [Fraction(n, den) for n in nums])
    try:
        yield
    finally:
        v.BACKENDS["rational"] = rational


# ---------------------------------------------------------------------------
# definitions only the tests read: the program checks each in its own terms


def brownian_process(space):
    """The discrete Brownian surrogate W itself: unit integrand, no jumps."""
    from pdrbsde.processes import ito_integral

    return ito_integral(space, [space.constant(1)] * space.n_steps)


def bracket(a, b):
    """Quadratic covariation: co-located increment products, summed.

    Interval increments pair with interval increments, instant jumps with
    instant jumps; the running sum is a cadlag process whose jump at k is
    the product of the two jumps at k.  The reference for the verifier's
    row-by-row [M, W] sum.
    """
    from pdrbsde import values as v
    from pdrbsde.processes import running_sum

    n = a.n_steps
    return running_sum(
        a.space,
        left=[v.mul(a.left_jump(k), b.left_jump(k)) for k in range(n + 1)],
        interval=[v.mul(a.interval_increment(k), b.interval_increment(k)) for k in range(n)],
    )


def mutually_singular(p, q) -> bool:
    """Disjointness of increment supports over (cell, path) pairs.

    Cells are instant jumps and interval increments; the processes are
    mutually singular unless both move on the same path in the same cell.
    Stops at the first cell they share.
    """
    from pdrbsde import values as v

    def increments(x):
        for k in range(x.n_steps + 1):
            yield x.left_jump(k)
            if k < x.n_steps:
                yield x.interval_increment(k)

    return not any(map(v.any_both_nonzero, increments(p), increments(q)))


def predictable_projection(x):
    """(pX)_k = E[X_k | F_{t_k^-}], with plus slots carrying p(X^+)_k.

    The returned process is predictable; its plus slot at k is the predictable
    projection of the right limit, the quantity entering the jump identities.
    """
    from pdrbsde.prob_space import cond_expect
    from pdrbsde.processes import from_slots

    space, n = x.space, x.n_steps
    mid = [cond_expect(space, x.mid_rows[k], space.sigma_minus[k]) for k in range(n + 1)]
    plus = [cond_expect(space, x.plus_rows[k], space.sigma_minus[k]) for k in range(n)]
    return from_slots(space, [mid[0], *x.minus_rows[1:]], mid, plus)


def is_quasi_left_continuous(space) -> bool:
    """True iff no mark ever refines sigma_minus[k] into sigma_mid[k]."""
    return all(len(space.sigma_mid[k]) == len(space.sigma_minus[k])
               for k in range(space.n_steps + 1))


def stopping_rule_count(space) -> int:
    """Number of slot-grid predictable stopping rules from time zero."""
    from pdrbsde.snell import _partition_at, _positions, _rule_counts

    root = next(iter(_partition_at(space, _positions(space.n_steps)[0])))
    return _rule_counts(space)[(0, root)]


# ---------------------------------------------------------------------------
# trees of + and - over rows, for values.combine


class Chain:
    """A row whose ``+`` and ``-`` are ``values.add`` and ``values.sub``: fn
    over Chains is the chain of binary helpers written the same way as fn."""

    def __init__(self, row) -> None:
        self.row = row

    def __add__(self, other):
        from pdrbsde import values as v

        return Chain(v.add(self.row, other.row))

    def __sub__(self, other):
        from pdrbsde import values as v

        return Chain(v.sub(self.row, other.row))


@st.composite
def sum_trees(draw, lo: int, hi: int):
    """A tree of + and - over the arguments lo..hi-1, each once, in order:
    an argument index, or (op, left, right)."""
    if hi - lo == 1:
        return lo
    cut = draw(st.integers(lo + 1, hi - 1))
    return (draw(st.sampled_from("+-")), draw(sum_trees(lo, cut)), draw(sum_trees(cut, hi)))


def tree_fn(tree):
    """The tree as a function of its arguments, evaluated by + and -."""
    def fn(*xs):
        def ev(node):
            if isinstance(node, int):
                return xs[node]
            op, left, right = node
            return ev(left) + ev(right) if op == "+" else ev(left) - ev(right)
        return ev(tree)
    return fn
