"""Command-line experiment runner.

Runs a grid of (benchmark function, agent) pairs, each repeated over
independent seeded runs, and writes per-pair aggregate histograms (CSV,
JSON, gnuplot data) plus per-run JSONL logs.  Agents are either fixed
UCB1 selection ("uct:<c>") or an evolved selection formula ("siea").

Seeding: every run derives its own seed as the first 8 bytes of
sha256("<base_seed>:<function>:<agent_label>:<run_index>"), so any
single run can be reproduced in isolation and results do not depend on
scheduling order or worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    aggregate,
    run_report,
    visit_weighted_counts,
    write_csv,
    write_json,
    write_plotdata,
)
from .bench import FUNCTION_IDS, FunctionEnv
from .mcts import UctPolicy, best_child, run_search
from .siea import EvolutionConfig, run_siea_search

__all__ = [
    "AgentSpec",
    "ExperimentConfig",
    "derive_run_seed",
    "run_experiment",
    "main",
]

#: Exploration constants accepted without --allow-any-c.
CANONICAL_C = (0.5, 1.0, math.sqrt(2.0), 2.0, 3.0)
_C_TOLERANCE = 1e-3


@dataclass(frozen=True)
class AgentSpec:
    """One agent in the grid: kind "uct" (with c) or "siea"."""

    kind: str
    c: float | None = None

    def __post_init__(self):
        if self.kind == "uct":
            if self.c is None:
                raise ValueError("uct agent needs an exploration constant")
        elif self.kind == "siea":
            if self.c is not None:
                raise ValueError("siea agent takes no constant")
        else:
            raise ValueError(f"unknown agent kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "uct":
            return f"uct_c{self.c:g}"
        return "siea"


@dataclass
class ExperimentConfig:
    functions: list = field(default_factory=lambda: list(FUNCTION_IDS))
    agents: list = field(
        default_factory=lambda: [AgentSpec("uct", c) for c in CANONICAL_C] + [AgentSpec("siea")]
    )
    iterations: int = 5000
    runs: int = 30
    bins: int = 100
    base_seed: int = 0
    ea: EvolutionConfig = field(default_factory=EvolutionConfig)
    out_dir: Path = Path("results")
    workers: int = 1
    visit_weighted: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.functions:
            raise ValueError("no functions given")
        if not self.agents:
            raise ValueError("no agents given")
        for f in self.functions:
            if f not in FUNCTION_IDS:
                raise ValueError(f"unknown function {f!r}")
        for i, f in enumerate(self.functions):
            if f in self.functions[:i]:
                raise ValueError(f"function {f!r} is listed more than once")
        # Labels name the output files and feed derive_run_seed, so two
        # agents sharing one would share seeds and overwrite each other.
        by_label: dict = {}
        for agent in self.agents:
            other = by_label.setdefault(agent.label, agent)
            if other is not agent:
                raise ValueError(
                    f"agents {other} and {agent} share the label {agent.label!r}"
                )
        if any(a.kind == "siea" for a in self.agents):
            if self.post_iterations < 1:
                raise ValueError(
                    "iterations must exceed the evolution budget "
                    f"({self.ea.eval_budget}) when a siea agent is configured"
                )

    @property
    def post_iterations(self) -> int:
        """Search iterations left for a siea agent after evolution, so
        uct and siea agents consume identical reward budgets."""
        return self.iterations - self.ea.eval_budget


def derive_run_seed(base_seed: int, function_id: str, agent_label: str, run_index: int) -> int:
    """Stable 64-bit per-run seed (see module docstring)."""
    key = f"{base_seed}:{function_id}:{agent_label}:{run_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def _execute_run(payload: dict) -> dict:
    """Run one search; plain-data in, plain-data out (process-safe)."""
    rng = random.Random(payload["seed"])
    env = FunctionEnv(payload["function"])
    if payload["kind"] == "uct":
        root, log = run_search(env, UctPolicy(payload["c"]), payload["iterations"], rng)
        history = None
        best_expr = None
        best_fitness = None
        log_span = payload["iterations"]
    else:
        ea = EvolutionConfig(**payload["ea"])
        root, log, best, history = run_siea_search(
            env, ea, payload["post_iterations"], rng
        )
        best_expr = str(best.expression)
        best_fitness = best.fitness
        log_span = payload["post_iterations"]
    result = {
        "log": [[i, x] for i, x in log],
        "log_span": log_span,
        "history": history,
        "best_expr": best_expr,
        "best_fitness": best_fitness,
        "reward_draws": env.reward_draws,
        "root_visits": root.visits,
        "node_count": root.count_nodes(),
        "best_child_centre": env.centre(best_child(root, rng).state),
    }
    if payload["visit_bins"]:
        result["visit_counts"] = [
            float(v) for v in visit_weighted_counts(root, env, payload["visit_bins"])
        ]
    return result


def _write_run_log(path: Path, payload: dict, result: dict) -> None:
    lines = [
        {
            "type": "run",
            "config_id": payload["config_id"],
            "function": payload["function"],
            "agent": payload["agent_label"],
            "kind": payload["kind"],
            "c": payload["c"],
            "seed": payload["seed"],
            "run_index": payload["run_index"],
            "iterations": payload["iterations"],
            "post_iterations": payload["post_iterations"],
        }
    ]
    if result["history"] is not None:
        for record in result["history"]:
            lines.append({"type": "generation", **record})
        lines.append(
            {"type": "evolved", "expr": result["best_expr"], "fitness": result["best_fitness"]}
        )
    lines.append(
        {
            "type": "expansions",
            "iterations": [i for i, _ in result["log"]],
            "centres": [x for _, x in result["log"]],
        }
    )
    lines.append(
        {
            "type": "summary",
            "reward_draws": result["reward_draws"],
            "root_visits": result["root_visits"],
            "node_count": result["node_count"],
            "best_child_centre": result["best_child_centre"],
        }
    )
    with open(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True))
            fh.write("\n")


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the full grid; returns {config_id: aggregate HistogramReport}."""
    out_dir = Path(cfg.out_dir)
    logs_dir = out_dir / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)

    tasks = []
    for function in cfg.functions:
        for agent in cfg.agents:
            config_id = f"{function}_{agent.label}"
            for run_index in range(cfg.runs):
                payload = {
                    "config_id": config_id,
                    "function": function,
                    "agent_label": agent.label,
                    "kind": agent.kind,
                    "c": agent.c,
                    "run_index": run_index,
                    "seed": derive_run_seed(cfg.base_seed, function, agent.label, run_index),
                    "iterations": cfg.iterations,
                    "post_iterations": cfg.post_iterations if agent.kind == "siea" else None,
                    "ea": None,
                    "visit_bins": cfg.bins if cfg.visit_weighted else None,
                }
                if agent.kind == "siea":
                    payload["ea"] = dataclasses.asdict(cfg.ea)
                tasks.append(payload)

    started = time.monotonic()
    per_config: dict = {}
    visit_rows: dict = {}
    # Both maps are lazy and yield in task order, so each run is written
    # as soon as it and the runs before it are done.
    pool = ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    with pool or contextlib.nullcontext():
        results = map(_execute_run, tasks) if pool is None else pool.map(_execute_run, tasks)
        for k, (payload, result) in enumerate(zip(tasks, results), 1):
            cid = payload["config_id"]
            log_name = f"{cid}_run{payload['run_index']:03d}.jsonl"
            _write_run_log(logs_dir / log_name, payload, result)
            report = run_report(
                [(i, x) for i, x in result["log"]], result["log_span"], cfg.bins, cid
            )
            per_config.setdefault(cid, []).append(report)
            if "visit_counts" in result:
                visit_rows.setdefault(cid, []).append(result["visit_counts"])
            print(
                f"[{k}/{len(tasks)}] {cid} run {payload['run_index']} "
                f"({time.monotonic() - started:.1f}s elapsed)",
                file=sys.stderr,
            )

    reports: dict = {}
    for function in cfg.functions:
        for agent in cfg.agents:
            cid = f"{function}_{agent.label}"
            report = aggregate(per_config[cid])
            reports[cid] = report
            meta = {
                "function": function,
                "policy": agent.kind,
                "c_or_evolved": "evolved" if agent.kind == "siea" else agent.c,
                "run_seed": cfg.base_seed,
            }
            write_csv(report, out_dir / f"{cid}.csv", meta)
            json_meta = {
                **meta,
                "iterations": cfg.iterations,
                "log_span": cfg.post_iterations if agent.kind == "siea" else cfg.iterations,
            }
            if cid in visit_rows:
                json_meta["visit_weighted_mean"] = [
                    float(v) for v in np.mean(visit_rows[cid], axis=0)
                ]
            write_json(report, out_dir / f"{cid}.json", json_meta)
            write_plotdata(report, out_dir / f"{cid}.dat")
    print(
        f"done: {len(tasks)} runs, {len(reports)} configs, "
        f"{time.monotonic() - started:.1f}s",
        file=sys.stderr,
    )
    return reports


def _parse_agents(text: str, allow_any_c: bool) -> list:
    agents = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "siea":
            agents.append(AgentSpec("siea"))
            continue
        if token.startswith("uct:"):
            raw = token[4:]
            c = math.sqrt(2.0) if raw == "sqrt2" else float(raw)
            if not allow_any_c and not any(abs(c - k) <= _C_TOLERANCE for k in CANONICAL_C):
                raise ValueError(
                    f"c={raw} is not one of the canonical constants "
                    f"{{0.5, 1, sqrt2, 2, 3}}; pass --allow-any-c to use it anyway"
                )
            agents.append(AgentSpec("uct", c))
            continue
        raise ValueError(f"cannot parse agent {token!r} (expected uct:<c> or siea)")
    return agents


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evomcts",
        description="Search-histogram experiments: fixed UCB1 vs evolved selection formulas.",
    )
    parser.add_argument("--config", type=Path, help="JSON config file; flags override its values")
    parser.add_argument("--functions", help="comma list from f1..f5 (default: all)")
    parser.add_argument("--agents", help='comma list, e.g. "uct:0.5,uct:sqrt2,siea" (default: full grid)')
    exp, ea = ExperimentConfig, EvolutionConfig
    for flag, kind, text, default in (
        ("--iterations", int, "search iterations per run", exp.iterations),
        ("--runs", int, "independent runs per (function, agent)", exp.runs),
        ("--bins", int, "histogram bins over [0,1]", exp.bins),
        ("--seed", int, "base seed for per-run seed derivation", exp.base_seed),
        ("--ea-generations", int, "evolution generations", ea.generations),
        ("--ea-lambda", int, "offspring per generation", ea.lambda_),
        ("--ea-sims", int, "search iterations per fitness evaluation", ea.sims_per_eval),
        ("--ea-alpha", float, "lower semantic-distance bound", ea.alpha),
        ("--ea-beta", float, "upper semantic-distance bound", ea.beta),
        ("--out", Path, "output directory", exp.out_dir),
        ("--workers", int, "parallel worker processes", exp.workers),
    ):
        parser.add_argument(flag, type=kind, help=f"{text} (default {default})")
    parser.add_argument(
        "--allow-any-c",
        action="store_true",
        help="accept uct constants outside {0.5, 1, sqrt2, 2, 3}",
    )
    parser.add_argument(
        "--visit-weighted",
        action="store_true",
        help="also export visit-weighted histograms (alternative view)",
    )
    return parser


# JSON types a --config value may have: (description, check).
_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_NUMBER = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_STRING = ("a string", lambda v: isinstance(v, str))
_NAMES = (
    "a string or a list of strings",
    lambda v: isinstance(v, str) or (isinstance(v, list) and all(isinstance(x, str) for x in v)),
)

#: Keys a --config file may hold, with the type of each value.
_CONFIG_TYPES = {
    "functions": _NAMES,
    "agents": _NAMES,
    "iterations": _INT,
    "runs": _INT,
    "bins": _INT,
    "seed": _INT,
    "ea_generations": _INT,
    "ea_lambda": _INT,
    "ea_sims": _INT,
    "ea_alpha": _NUMBER,
    "ea_beta": _NUMBER,
    "out": _STRING,
    "workers": _INT,
    "allow_any_c": _BOOL,
    "visit_weighted": _BOOL,
}


def _read_config_file(path: Path) -> dict:
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError(f"{path} must hold a JSON object")
    unknown = sorted(set(values) - set(_CONFIG_TYPES))
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(unknown)} in {path}; "
            f"accepted keys: {', '.join(_CONFIG_TYPES)}"
        )
    for key, value in values.items():
        expected, check = _CONFIG_TYPES[key]
        if not check(value):
            raise ValueError(f"{key} in {path} must be {expected}, got {value!r}")
    return values


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge a --config file and the flags (which win) into a config.

    Only the keys that were given are passed on, so the dataclass
    defaults of ExperimentConfig and EvolutionConfig are the only ones.
    """
    values = _read_config_file(args.config) if args.config is not None else {}
    for key in _CONFIG_TYPES:
        flag_value = getattr(args, key)
        # The two store_true flags read False when absent.
        if flag_value is not None and flag_value is not False:
            values[key] = flag_value

    def given(**fields) -> dict:
        # Config key -> dataclass field, for the keys that were given.
        return {name: values[key] for key, name in fields.items() if key in values}

    ea = EvolutionConfig(
        **given(
            ea_generations="generations",
            ea_lambda="lambda_",
            ea_sims="sims_per_eval",
            ea_alpha="alpha",
            ea_beta="beta",
        )
    )
    kwargs = given(
        iterations="iterations",
        runs="runs",
        bins="bins",
        seed="base_seed",
        workers="workers",
        visit_weighted="visit_weighted",
    )
    if "out" in values:
        kwargs["out_dir"] = Path(values["out"])
    if "functions" in values:
        functions = values["functions"]
        if isinstance(functions, str):
            functions = [f.strip() for f in functions.split(",") if f.strip()]
        kwargs["functions"] = functions
    if "agents" in values:
        agents = values["agents"]
        if isinstance(agents, list):
            agents = ",".join(agents)
        kwargs["agents"] = _parse_agents(agents, values.get("allow_any_c", False))
    return ExperimentConfig(ea=ea, **kwargs)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run_experiment(cfg)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
