"""Cases worked out by hand for the reference recursion.

Run ``python3 bench/handcases.py``; it prints each case and exits 1 if any
disagrees.  ``bench/run.py`` runs the same cases in every run's checks.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F

from reference import Problem, Slots, solve


def _tree(n: int, dt: F, mark_at_zero: bool = False) -> dict:
    """Binary increments over n intervals (paths listed with '+' first), with
    an optional fair two-letter mark revealed at instant 0 (outermost)."""
    s = {F(1, 4): F(1, 2), F(1): F(1)}[dt]
    signs = [()]
    for _ in range(n):
        signs = [p + (d,) for p in signs for d in (1, -1)]
    labels = ["a", "b"] if mark_at_zero else [""]
    paths = [(lab, p) for lab in labels for p in signs]
    weight = F(1, len(paths))

    def partition(key):
        atoms: dict = {}
        for i, path in enumerate(paths):
            atoms.setdefault(key(path), []).append(i)
        return list(atoms.values())

    return {
        "weights": [weight] * len(paths),
        "dw": [[s * p[k] for _, p in paths] for k in range(n)],
        "sigma_minus": [partition(lambda q, k=k: (q[0] if k else "", q[1][:k]))
                        for k in range(n + 1)],
        "sigma_mid": [partition(lambda q, k=k: (q[0], q[1][:k])) for k in range(n + 1)],
        "dt": dt,
    }


def _const(n_paths, minus, mid, plus) -> Slots:
    def spread(v):
        return list(v) if isinstance(v, list) else [F(v)] * n_paths
    return Slots([spread(v) for v in minus], [spread(v) for v in mid],
                 [spread(v) for v in plus])


def _cases():
    # 1. Constant barriers 3/2 on both sides with driver 1, N = 2, dt = 1/4:
    #    Y is pinned at 3/2 and A' absorbs the drift, g dt = 1/4 per interval.
    t = _tree(2, F(1, 4))
    c = _const(4, ["3/2"] * 3, ["3/2"] * 3, ["3/2"] * 2)
    yield "constant barriers", Problem(**t, xi=c, zeta=c, g=[[F(1)] * 4] * 2), {
        "Y": _const(4, ["3/2"] * 3, ["3/2"] * 3, ["3/2"] * 2),
        "Z": [[0] * 4] * 2,
        "M": _const(4, [0] * 3, [0] * 3, [0] * 2),
        "A": _const(4, [0] * 3, [0] * 3, [0] * 2),
        "A_prime": _const(4, [0, "1/4", "1/2"], [0, "1/4", "1/2"], [0, "1/4"]),
        "B": _const(4, [0] * 3, [0] * 3, [0] * 2),
        "B_prime": _const(4, [0] * 3, [0] * 3, [0] * 2),
    }
    # 2. Deterministic barriers lower (2, -1, 1), upper (3, 0, 1) held as
    #    step processes, driver 0: the backward running clamp gives
    #    Y = (2, 0, 1) with left limits (2, 2, 0).  A pushes up by 2 at t_1;
    #    A' holds Y_{2-} at the upper left limit 0, below the terminal value 1.
    lo = _const(4, [2, 2, -1], [2, -1, 1], [2, -1])
    hi = _const(4, [3, 3, 0], [3, 0, 1], [3, 0])
    yield "deterministic barriers", Problem(**t, xi=lo, zeta=hi, g=[[F(0)] * 4] * 2), {
        "Y": _const(4, [2, 2, 0], [2, 0, 1], [2, 0]),
        "Z": [[0] * 4] * 2,
        "M": _const(4, [0] * 3, [0] * 3, [0] * 2),
        "A": _const(4, [0, 0, 2], [0, 2, 2], [0, 2]),
        "A_prime": _const(4, [0, 0, 0], [0, 0, 1], [0, 0]),
        "B": _const(4, [0] * 3, [0] * 3, [0] * 2),
        "B_prime": _const(4, [0] * 3, [0] * 3, [0] * 2),
    }
    # 3. One interval, dt = 1/4, dW = +-1/2, driver 2, terminal value 1 after
    #    an up step and 0 after a down step.  The whole move is the Brownian
    #    part, Z_0 = (1/2) / (1/2) = 1, and Y_{0+} = 1/2 + g dt = 1.  The upper
    #    barrier 1/4 at t_0 pushes Y_0 down from 1, so B' jumps by 3/4 there.
    t = _tree(1, F(1, 4))
    up = [F(1), F(0)]
    lo = _const(2, [-10, -10], [-10, up], [-10])
    hi = _const(2, ["1/4", 10], ["1/4", up], [10])
    yield "Brownian terminal value", Problem(**t, xi=lo, zeta=hi, g=[[F(2)] * 2]), {
        "Y": _const(2, ["1/4", up], ["1/4", up], [1]),
        "Z": [[1, 1]],
        "M": _const(2, [0, 0], [0, 0], [0]),
        "A": _const(2, [0, 0], [0, 0], [0]),
        "A_prime": _const(2, [0, 0], [0, 0], [0]),
        "B": _const(2, [0, 0], [0, 0], [0]),
        "B_prime": _const(2, [0, "3/4"], ["3/4", "3/4"], ["3/4"]),
    }
    # 4. A fair mark revealed at t_0, N = 1, dt = 1, driver 0.  The lower
    #    barrier's right limit at t_0 is 2 after mark a and 0 after mark b:
    #    Y_{0+} = (2, 2, 0, 0) with mean 1, so M jumps by +-1 at the
    #    predictable time t_0 and A carries 2 across (t_0, t_1) after mark a.
    #    The lower barrier 3/2 at t_0 lifts Y_0 above that mean: B jumps 1/2.
    t = _tree(1, F(1), mark_at_zero=True)
    after_a = [F(2), F(2), F(0), F(0)]
    lo = _const(4, ["3/2", 0], ["3/2", 0], [after_a])
    hi = _const(4, [10, 10], [10, 0], [10])
    jump = [F(1), F(1), F(-1), F(-1)]
    yield "mark at a predictable time", Problem(**t, xi=lo, zeta=hi, g=[[F(0)] * 4]), {
        "Y": _const(4, ["3/2", 0], ["3/2", 0], [after_a]),
        "Z": [[0] * 4],
        "M": _const(4, [0, jump], [jump, jump], [jump]),
        "A": _const(4, [0, after_a], [0, after_a], [0]),
        "A_prime": _const(4, [0, 0], [0, 0], [0]),
        "B": _const(4, [0, "1/2"], ["1/2", "1/2"], ["1/2"]),
        "B_prime": _const(4, [0, 0], [0, 0], [0]),
    }


def failures() -> list[str]:
    """One line per component of a hand case that the recursion gets wrong."""
    out = []
    for label, problem, expected in _cases():
        got = solve(problem)
        for name, want in expected.items():
            have = got[name]
            if name != "Z":
                have, want = (have.minus, have.mid, have.plus), (want.minus, want.mid, want.plus)
            if have != want:
                out.append(f"{label}: {name} is {have}, expected {want}")
    return out


if __name__ == "__main__":
    problems = failures()
    print("\n".join(problems) if problems else "all hand cases agree")
    sys.exit(1 if problems else 0)
