"""Seeded-grid benchmark of the evomcts experiment runner.

    python3 perfbench/run.py --workload uct|siea|export --seed N --seconds S --trace 0|1

Runs the workload's grid (``workloads.py``) through ``evomcts.cli.main``
in a fresh process, in whole rounds, for about S seconds; checks every
seeded run's outputs (``checks.py``); prints a header and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from a traced run.  The program is
imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170
SMALL_TREE_NODES = 35
CALLS, TOTAL_S, SELF_S = 0, 1, 2  # columns of a tracing.Tracer span total

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from workloads import WORKLOADS, import_evomcts  # noqa: E402


def child(script: str, *args, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one of this directory's scripts in a fresh interpreter and
    return the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=HERE,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, workdir: Path) -> tuple:
    """Medians over fresh processes of (process start to first search,
    import time of evomcts)."""
    setups, imports = [], []
    for k in range(SETUP_PROBES):
        started = time.monotonic()
        probe = child("setup_probe.py", SRC, workload, workdir / f"setup{k}", timeout=60)
        setups.append(probe["first_search"] - started)
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def replay_first_run(cli, grid, seed: int, workdir: Path) -> bool:
    """Re-run the grid's first run on its own; True when its JSONL log is
    byte-identical to the one from the first round."""
    config_id, function, _, _, _ = grid.configs()[0]
    alone = dataclasses.replace(grid, functions=(function,), agents=grid.agents[:1], runs=1)
    out = workdir / "replay"
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(alone.argv(seed, out))
    log = f"logs/{checks.run_name(config_id, 0)}.jsonl"
    try:
        return rc == 0 and (out / log).read_bytes() == (workdir / "round0" / log).read_bytes()
    except OSError:
        return False


def header_lines(workload: str, fingerprint: str) -> list:
    sha = "none"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    src_loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return [
        f"# git_sha={sha} python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={len(os.sched_getaffinity(0))} src_loc={src_loc}",
        f"# fingerprint {workload} sha256={fingerprint}",
    ]


def layer_metrics(grid, result: dict, check: checks.RoundCheck, round0: Path, import_s: float) -> dict:
    """Per-layer figures of the traced rounds.  A layer that the workload
    never calls reads 0."""
    spans, counts = result["spans"], result["counts"]
    traced = [r for r in result["rounds"] if not r.get("untraced")]
    configs = len(grid.configs()) * len(traced)
    runs = configs * grid.runs
    siea_nodes = [n for name, n in check.node_counts.items() if "_siea_" in name]

    def per_call(name, scale, column=SELF_S):
        calls = spans[name][CALLS]
        return spans[name][column] / calls * scale if calls else 0.0

    def total(name):
        return spans[name][TOTAL_S]

    search_s = total("mcts.run_search") + total("siea.deploy")
    return {
        "bench.sample_reward_us": (per_call("bench.sample_reward", 1e6), "us"),
        "mcts.select_us": (per_call("mcts.select", 1e6), "us"),
        "mcts.rollout_us": (per_call("mcts.rollout", 1e6), "us"),
        "mcts.expand_us": (per_call("mcts.expand", 1e6), "us"),
        "mcts.backpropagate_us": (per_call("mcts.backpropagate", 1e6), "us"),
        "mcts.iteration_us": (search_s / (grid.search_iterations() * len(traced)) * 1e6, "us"),
        "expr.evaluate_us": (per_call("expr.evaluate", 1e6), "us"),
        "expr.mutate_us": (per_call("expr.mutate", 1e6), "us"),
        "siea.generation_ms": (per_call("siea.evolve", 1e3 / grid.ea_generations, TOTAL_S), "ms"),
        "siea.evaluate_individual_ms": (per_call("siea.evaluate_individual", 1e3, TOTAL_S), "ms"),
        "siea.deploy_ms": (per_call("siea.deploy", 1e3, TOTAL_S), "ms"),
        "analysis.run_report_ms": (total("analysis.run_report") / configs * 1e3, "ms"),
        "analysis.aggregate_ms": (total("analysis.aggregate") / configs * 1e3, "ms"),
        "analysis.write_ms": (total("analysis.write") / configs * 1e3, "ms"),
        "analysis.visit_weighted_ms": (total("analysis.visit_weighted_counts") / runs * 1e3, "ms"),
        "cli.self_s": (spans["cli.main"][SELF_S] / len(traced), "s"),
        "cli.output_mb": (sum(p.stat().st_size for p in round0.rglob("*") if p.is_file()) / 1e6, "MB"),
        "cli.pool_speedup": (result["pool_speedup"], "ratio"),
        "setup.import_s": (import_s, "s"),
        "trace.overhead": (
            statistics.median(r["wall_s"] for r in traced) / result["rounds"][0]["wall_s"],
            "ratio",
        ),
        "mcts.rollout_steps_mean": (counts["rollout_steps"] / spans["mcts.rollout"][CALLS], "count"),
        "mcts.policy_calls_per_select": (counts["policy_calls"] / spans["mcts.select"][CALLS], "count"),
        "mcts.nodes_per_run": (statistics.mean(check.node_counts.values()), "count"),
        "siea.small_tree_share": (
            sum(n <= SMALL_TREE_NODES for n in siea_nodes) / len(siea_nodes) if siea_nodes else 0.0,
            "ratio",
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evomcts" / "__init__.py").is_file():
        print(f"error: no evomcts sources under {SRC}", file=sys.stderr)
        return 2
    cli = import_evomcts(SRC)
    from evomcts.expr import parse

    grid = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s, import_s = measure_setup(args.workload, workdir)
        result = child(
            "grid.py", SRC, args.workload, args.seed, args.seconds, workdir, args.trace
        )
        rounds = result["rounds"]
        round0 = workdir / rounds[0]["dir"]
        check = checks.check_round(grid, args.seed, round0, parse)
        failures = {name: "; ".join(reasons) for name, reasons in check.failures.items()}
        if rounds[0]["rc"] != 0:
            failures = dict.fromkeys(check.runs, f"cli.main exited {rounds[0]['rc']}")
        attempted = len(check.runs) * len(rounds)
        first = checks.file_digests(round0)
        for k, r in enumerate(rounds[1:], 1):
            again = checks.file_digests(workdir / r["dir"])
            for name, reason in checks.check_repeat(grid, first, again).items():
                failures[f"round{k}/{name}"] = reason
            for name in check.failures:
                failures[f"round{k}/{name}"] = "failed in the first round"
        if not replay_first_run(cli, grid, args.seed, workdir):
            failures.setdefault(check.runs[0], "replay differs from the first round")
        for line in header_lines(args.workload, checks.fingerprint(round0)):
            print(line)
        walls = [r["wall_s"] for r in rounds]
        print(
            f"# rounds={len(rounds)} runs/round={len(check.runs)} draws/round={check.draws} "
            f"round_wall_s={','.join(f'{w:.3f}' for w in walls)} setup_s={setup_s:.4f}"
        )
        for name, reason in list(failures.items())[:20]:
            print(f"# FAILED {name}: {reason}")
        if args.trace:
            metrics = layer_metrics(grid, result, check, round0, import_s)
            trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({"spans": result["spans"], "counts": result["counts"]}, indent=1))
        else:
            metrics = {
                "draws_per_s": (check.draws / statistics.median(walls), "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
