from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pdrbsde.config import config_from_dict
from pdrbsde.prob_space import build_space


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
    out = space.zero()
    for atom in partition:
        val = Fraction(rng.randint(-8 if signed else 0, 8), 4) * scale
        if space.mode == "float":
            val = float(val)
        for i in atom:
            out[i] = val
    return out


def random_predictable(space, rng, scale=Fraction(2)):
    """Random predictable ladlag process with free minus/plus slots."""
    from pdrbsde.processes import from_slots, validate_process

    n = space.n_steps
    mid = [rand_on(space, space.sigma_minus[k], rng, scale) for k in range(n + 1)]
    minus = [list(mid[0])] + [rand_on(space, space.sigma_minus[k], rng, scale)
                              for k in range(1, n + 1)]
    plus = [rand_on(space, space.sigma_mid[k], rng, scale) for k in range(n)]
    proc = from_slots(space, minus, mid, plus, kind="predictable")
    validate_process(proc)
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
        mid.append(list(cur))
        if k < n:
            plus.append(list(cur))
            z = rand_on(space, space.sigma_mid[k], rng, scale)
            cur = v.add(cur, v.mul(z, space.dw[k]))
            minus.append(list(cur))
    proc = from_slots(space, minus, mid, plus, kind="cadlag-martingale")
    validate_process(proc)
    return proc


def picard_solution(barriers, g, order="jacobi"):
    """The Picard oracle's solution of a process-driver problem: shift the
    barriers, iterate in ``order`` to exact stabilization, assemble."""
    from pdrbsde.drbsde import assemble_solution, picard_coupled, shift_barriers

    xi_t, zeta_t = shift_barriers(barriers, g)
    j, jbar, _ = picard_coupled(xi_t, zeta_t, order=order)
    return assemble_solution(j, jbar, g, barriers)


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
    for file, rows in (("solution_Z.csv", sol.z.z), ("driver_g.csv", g)):
        with open(out_dir / file, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["interval", "path", "value"])
            for k, row in enumerate(rows):
                for i, val in enumerate(row):
                    writer.writerow([k, i, fmt(val)])


def cell_scan_condition(name, rows, tol):
    """A condition from one ``(|residual|, label)`` tuple per cell and a flat
    ``max`` over them: the oracle for ``reports.condition_from_rows``."""
    from pdrbsde.reports import ConditionReport

    cells = [(abs(float(r)), f"{label},path={i}") for label, res in rows
             for i, r in enumerate(res)]
    if not cells:
        return ConditionReport(name=name, passed=True, max_residual=0.0)
    worst, label = max(cells, key=lambda rc: rc[0])
    worst = float(worst)
    return ConditionReport(name=name, passed=worst <= tol, max_residual=worst,
                           worst_cell=label if worst > 0 else None)
