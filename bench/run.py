"""Benchmark of the pdrbsde command line, run in-process.

    python3 bench/run.py --workload float-ladder --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  With ``--trace 0`` the run sets up its scenarios several times,
then runs whole rounds of CLI calls for at most ``--seconds`` (at least one
round) while the yardstick is sampled, checks the outputs of the last round
against the reference recursion, and prints one JSON line with ``setup_s``,
``wall_rel`` and ``peak_rss_mb``.  With ``--trace 1`` it sets up once, runs
one round untraced and one round with per-layer spans, and prints the
per-layer metrics and the tracing overhead instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import handcases
import tracing
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set up at least this many times, and for at least this long, and report
# the median: one set-up of the small workloads takes about 0.1 s
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["float-ladder", "rational-corpus", "estimate-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pdrbsde" / "cli.py").is_file():
        print(f"bench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the CLI fans a directory out over PDRBSDE_THREADS workers; keep its
    # default of one so every run does the same work in one thread
    os.environ.pop("PDRBSDE_THREADS", None)

    sampler = yardstick.Sampler()
    (cli, workloads), import_rel = _timed(sampler, _import_program)
    workload = workloads.WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, workload, work, cli, sampler, import_rel)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()


def _import_program():
    from pdrbsde import cli

    import workloads

    return cli, workloads


def _setup(workload, seed: int, work: Path) -> dict:
    """Write the scenario files, then load and realize each, as every CLI call
    does before it solves.  Returns the scenarios by file stem."""
    from pdrbsde.config import load_config
    from pdrbsde.scenario import realize

    paths = workload.write_inputs(seed, work)
    return {p.stem: realize(load_config(str(p))) for p in paths}


def _timed(sampler, fn, *args):
    """``fn(*args)`` and its wall time as a multiple of the mean yardstick
    sample, taken from just before it to just after it."""
    sampler.take()
    first, spent = len(sampler.samples) - 1, sampler.spent
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0 - (sampler.spent - spent)
    sampler.take()
    return result, wall / statistics.fmean(sampler.samples[first:])


def _files(out: Path) -> dict:
    return {p: (s.st_size, s.st_mtime_ns) for p in out.rglob("*") if p.is_file()
            for s in [p.stat()]}


def _round(workload, work: Path, main, count_bytes: bool = False) -> tuple[float, list, int]:
    """One round of CLI calls: their summed wall time, exit codes, and (when
    asked) the bytes of the files they wrote or rewrote."""
    wall, codes, written = 0.0, [], 0
    for argv in workload.calls(work):
        out = Path(argv[argv.index("--out") + 1])
        before = _files(out) if count_bytes and out.exists() else {}
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # an escaping error fails the operation
                print(f"bench: {' '.join(argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            wall += time.perf_counter() - t0
        codes.append(code)
        if count_bytes:
            written += sum(size for p, (size, mtime) in _files(out).items()
                           if before.get(p) != (size, mtime))
    return wall, codes, written


def _run(args, workload, work: Path, cli, sampler, import_rel: float) -> int:
    setups, scenarios = [], None
    begin = time.perf_counter()
    while not setups or not args.trace and (len(setups) < SETUP_REPEATS or
                                            time.perf_counter() - begin < SETUP_SECONDS):
        scenarios = None  # each set-up starts from the same heap
        gc.collect()
        shutil.rmtree(work, ignore_errors=True)
        scenarios, rel = _timed(sampler, _setup, workload, args.seed, work)
        setups.append(rel)
    gc.collect()

    walls, rounds, counts = [], [], [0, 0]

    def record(wall: float, codes: list) -> None:
        walls.append(wall)
        rounds.append(codes)
        for i, n in enumerate(workload.outcomes(work, codes)):
            counts[i] += n

    tracer = tracing.Tracer() if args.trace else None
    rels = []  # per round: its wall time over the mean yardstick sample
    if tracer is None:
        # whole rounds while the next one, as long as the last, still fits
        begin, last = time.perf_counter(), 0.0
        with sampler:
            while not walls or time.perf_counter() - begin + last <= args.seconds:
                start = time.perf_counter()
                (wall, codes, _), rel = _timed(sampler, _round, workload, work, cli.main)
                rels.append(rel)
                record(wall, codes)
                last = time.perf_counter() - start
    else:
        wall, codes, _ = _round(workload, work, cli.main)
        record(wall, codes)
        tracer.install()
        try:
            wall, codes, written = _round(workload, work, tracer.wrap(tracing.CLI, cli.main),
                                          count_bytes=True)
        finally:
            tracer.uninstall()
        record(wall, codes)
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    problems = handcases.failures() + workload.check(work, scenarios)
    if any(codes != rounds[0] for codes in rounds):
        problems.append(f"exit codes differ between rounds: {rounds}")
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)

    if tracer is not None:
        values = tracer.metrics()
        values["cli.bytes_written"] = written
        values["trace.overhead_s"] = walls[1] - walls[0]
        values["trace.wrapper_s"] = tracer.wrapper_seconds()
    else:
        values = {
            "setup_s": (import_rel + statistics.median(setups)) * yardstick.NOMINAL_S,
            "wall_rel": statistics.median(rels),
            "peak_rss_mb": usage / 1024,  # ru_maxrss is in KiB on Linux
        }
    result = {
        "correct": not problems,
        "attempted": counts[0],
        "failed": counts[1],
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name == "wall_rel":
        return "x"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
