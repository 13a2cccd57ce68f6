"""The workload's own process: runs one grid through ``evomcts.cli.main``
in whole rounds and prints the round timings as one JSON line.

    python3 grid.py SRC WORKLOAD SEED SECONDS WORKDIR TRACE

Rounds repeat the same grid while another round is expected to end
within SECONDS; at least one round runs.  With TRACE=1 the first round
runs untraced (the base of ``trace.overhead``), the process-pool grid
is timed at one and two workers, and the remaining rounds run with the
spans of ``tracing.install`` in place.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
from workloads import POOL_GRID, WORKLOADS, import_evomcts


def timed_main(cli, argv: list, log) -> tuple:
    with contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, wall


def run_rounds(cli, grid, seed, seconds, workdir, log, first_index=0) -> list:
    rounds = []
    while True:
        out = workdir / f"round{first_index + len(rounds)}"
        rc, wall = timed_main(cli, grid.argv(seed, out), log)
        rounds.append({"dir": out.name, "rc": rc, "wall_s": wall})
        walls = [r["wall_s"] for r in rounds]
        if rc != 0 or sum(walls) + statistics.median(walls) > seconds:
            return rounds


def main(argv: list) -> int:
    src, workload, seed, seconds, workdir, trace = argv
    seed, seconds, workdir, trace = int(seed), float(seconds), Path(workdir), trace == "1"
    cli = import_evomcts(Path(src))

    grid = WORKLOADS[workload]
    result: dict = {}
    with open(workdir / "cli-stderr.log", "w") as log:
        if not trace:
            result["rounds"] = run_rounds(cli, grid, seed, seconds, workdir, log)
        else:
            result["rounds"] = run_rounds(cli, grid, seed, 0, workdir, log)
            result["rounds"][0]["untraced"] = True
            pool = {}
            for workers in (1, 2):
                out = workdir / f"pool{workers}"
                rc, wall = timed_main(cli, POOL_GRID.argv(seed, out, workers), log)
                if rc != 0:
                    raise RuntimeError(f"pool grid at --workers {workers} exited {rc}")
                pool[workers] = wall
            result["pool_speedup"] = pool[1] / pool[2]
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                result["rounds"] += run_rounds(cli, grid, seed, seconds, workdir, log, 1)
            finally:
                tracer.uninstall()
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
