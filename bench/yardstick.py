"""A fixed computation that measures how fast the machine runs right now.

The machine the benchmark runs on is shared, and its speed drifts by a
quarter and more within seconds (see README).  So the benchmark times this
computation just before and just after each phase it measures, and, while
the CLI calls run, every ``INTERVAL`` seconds of wall time in between.  It
reports each phase's wall time as a multiple of the mean of those samples.
The computation is the float reference recursion of ``reference.py`` on one
fixed binary-tree problem that depends on nothing outside this directory: no
seed and no program code, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import time

import reference as ref

N_STEPS = 7  # 128 paths
PASSES = 2  # one sample takes about 0.01 s
INTERVAL = 0.2  # seconds of wall time between samples
# about one sample's time at this machine's usual speed; it turns the set-up
# time, measured in samples, back into seconds
NOMINAL_S = 0.01


def _problem() -> ref.Problem:
    """Symmetric +-1/2 increments over N_STEPS intervals of length 1/4, with
    barriers and a driver built from each path's running sum of signs."""
    n = N_STEPS
    signs = [()]
    for _ in range(n):
        signs = [p + (d,) for p in signs for d in (1, -1)]
    n_paths = len(signs)
    walk = [[sum(p[:k]) for p in signs] for k in range(n + 1)]

    def partition(k):
        atoms: dict = {}
        for i, p in enumerate(signs):
            atoms.setdefault(p[:k], []).append(i)
        return list(atoms.values())

    def slots(f):
        rows = [[f(k, s) for s in walk[k]] for k in range(n + 1)]
        return ref.Slots(rows, [list(r) for r in rows], [list(r) for r in rows[:n]])

    atoms = [partition(k) for k in range(n + 1)]
    return ref.Problem(
        weights=[1 / n_paths] * n_paths,
        dw=[[p[k] / 2 for p in signs] for k in range(n)],
        sigma_minus=atoms, sigma_mid=atoms, dt=1 / 4,
        xi=slots(lambda k, s: s * s / 4 - 1 - k / 8),
        zeta=slots(lambda k, s: s * s / 4 + s / 3 + 1 / 2),
        g=[[s / 8 - 1 / 5 for s in walk[k]] for k in range(n)],
    )


PROBLEM = _problem()


def sample() -> float:
    """Wall time of PASSES passes of the recursion over the fixed problem."""
    t0 = time.perf_counter()
    for _ in range(PASSES):
        ref.solve(PROBLEM)
    return time.perf_counter() - t0


class Sampler:
    """Takes a sample when asked and, inside ``with``, every INTERVAL seconds
    from a SIGALRM handler, which runs in the main thread between the
    program's bytecodes.  ``spent`` is the wall time all samples took,
    handler included, so that a caller can take it out of the time it
    measured around them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def take(self, *_) -> None:
        if self._busy:  # a signal that arrived during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(sample())
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
