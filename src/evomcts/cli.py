"""Command-line experiment runner.

Runs a grid of (benchmark function, agent) pairs, each repeated over
independent seeded runs, and writes per-pair aggregate histograms (CSV,
JSON, gnuplot data) plus per-run JSONL logs.  Agents are either fixed
UCB1 selection ("uct:<c>") or an evolved selection formula ("siea").

Seeding: every run derives its own seed as the first 8 bytes of
sha256("<base_seed>:<function>:<agent_label>:<run_index>"), so any
single run can be reproduced in isolation and results do not depend on
scheduling order or worker count.  A run's log header is the task its
worker executes, so the header alone replays the run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import (
    aggregate,
    run_report,
    visit_weighted_counts,
    write_csv,
    write_json,
    write_plotdata,
)
from .bench import FUNCTION_IDS, FunctionEnv
from .mcts import UctPolicy, best_child, check_count, run_search
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
            # c is in the label and every log header: stored as a float,
            # 1 logs as 1.0 does, and a bool is refused, not read as 0 or 1.
            if isinstance(self.c, bool):
                raise ValueError(f"uct exploration constant must be a number, got {self.c}")
            # An infinite or NaN c turns every UCB1 score into inf or NaN.
            if not math.isfinite(self.c):
                raise ValueError(f"uct exploration constant must be finite, got {self.c}")
            object.__setattr__(self, "c", float(self.c))
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
        self.out_dir = Path(self.out_dir)
        for name in ("iterations", "runs", "bins", "workers"):
            check_count(name, getattr(self, name), 1)
        check_count("base_seed", self.base_seed)
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
            other = by_label.get(agent.label)
            if other is not None:
                raise ValueError(
                    f"agents {other} and {agent} share the label {agent.label!r}"
                )
            by_label[agent.label] = agent
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


@functools.lru_cache(maxsize=None)
def _uct_policy(c: float) -> UctPolicy:
    """One policy per constant and process, shared by its runs.

    Building a policy compiles its descent, and a fresh function starts
    unspecialised: built per run, they made 150-iteration UCB1 searches
    about 17% slower.
    """
    return UctPolicy(c)


def _execute_run(header: dict) -> tuple:
    """Run one search from its log header; plain data in and out (process-safe).

    ``header`` is the run's ``{"type": "run"}`` log record, and it holds
    every setting the run reads: its ``ea`` holds the EvolutionConfig
    fields of a siea run (None for uct), its ``visit_bins`` the bin count
    of the visit-weighted histogram (None for none).
    Returns ``(records, visit_counts)``: the run's log records in order
    (header, generations and evolved formula for siea, expansions,
    summary) and the visit-weighted counts, or None.
    """
    rng = random.Random(header["seed"])
    env = FunctionEnv(header["function"])
    records = [header]
    if header["kind"] == "uct":
        root, log = run_search(env, _uct_policy(header["c"]), header["iterations"], rng)
    else:
        root, log, best, history = run_siea_search(
            env, EvolutionConfig(**header["ea"]), header["post_iterations"], rng
        )
        records += [{"type": "generation", **record} for record in history]
        records.append({"type": "evolved", "expr": str(best.expression), "fitness": best.fitness})
    records.append(
        {"type": "expansions", "iterations": [i for i, _ in log], "centres": [x for _, x in log]}
    )
    records.append(
        {
            "type": "summary",
            "reward_draws": env.reward_draws,
            "root_visits": root.visits,
            "node_count": root.count_nodes(),
            "best_child_centre": env.centre(best_child(root, rng).state),
        }
    )
    if header["visit_bins"] is None:
        return records, None
    return records, visit_weighted_counts(root, env, header["visit_bins"])


@contextlib.contextmanager
def _pool(workers: int):
    """A process pool of ``workers``, or None for one worker.

    The pool forks every worker up front, so the caller sizes it by the
    work.  When the caller raises, the runs still queued are cancelled:
    the pool's exit would otherwise wait for them, and then their results
    would be thrown away.  The pool machinery is imported here, so a
    one-worker grid never loads it.
    """
    if workers <= 1:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the full grid; returns {config_id: aggregate HistogramReport}.

    Each configuration's exports are written as soon as its last run's
    log is, so a failed run leaves every earlier configuration complete.
    Raises FileExistsError, writing nothing, unless ``out_dir`` is new or
    an empty directory, so no earlier grid's files mix with this one's.
    """
    out_dir = cfg.out_dir
    if out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
        raise FileExistsError(f"output directory {out_dir} is not new or empty")
    logs_dir = out_dir / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)

    configs = [(function, agent) for function in cfg.functions for agent in cfg.agents]
    headers = [
        {
            "type": "run",
            "config_id": f"{function}_{agent.label}",
            "function": function,
            "agent": agent.label,
            "kind": agent.kind,
            "c": agent.c,
            "seed": derive_run_seed(cfg.base_seed, function, agent.label, run_index),
            "run_index": run_index,
            "iterations": cfg.iterations,
            "post_iterations": cfg.post_iterations if agent.kind == "siea" else None,
            "ea": dataclasses.asdict(cfg.ea) if agent.kind == "siea" else None,
            "visit_bins": cfg.bins if cfg.visit_weighted else None,
        }
        for function, agent in configs
        for run_index in range(cfg.runs)
    ]

    started = time.monotonic()
    reports: dict = {}
    with _pool(min(cfg.workers, len(headers))) as pool:
        # Both maps are lazy and yield in header order, which is grid order,
        # so each configuration takes the next cfg.runs results as they
        # are done.
        results = map(_execute_run, headers) if pool is None else pool.map(_execute_run, headers)
        results = enumerate(results, 1)
        for function, agent in configs:
            cid = f"{function}_{agent.label}"
            # A siea run logs only its post-evolution search.
            span = cfg.post_iterations if agent.kind == "siea" else cfg.iterations
            run_reports, visit_rows = [], []
            for k, (records, visit_counts) in itertools.islice(results, cfg.runs):
                header, expansions = records[0], records[-2]
                with open(logs_dir / f"{cid}_run{header['run_index']:03d}.jsonl", "w") as fh:
                    for record in records:
                        fh.write(json.dumps(record, sort_keys=True))
                        fh.write("\n")
                log = list(zip(expansions["iterations"], expansions["centres"]))
                run_reports.append(run_report(log, span, cfg.bins, cid))
                if visit_counts is not None:
                    visit_rows.append(visit_counts)
                print(
                    f"[{k}/{len(headers)}] {cid} run {header['run_index']} "
                    f"({time.monotonic() - started:.1f}s elapsed)",
                    file=sys.stderr,
                )
            report = reports[cid] = aggregate(run_reports)
            meta = {
                "function": function,
                "policy": agent.kind,
                "c_or_evolved": "evolved" if agent.kind == "siea" else agent.c,
                "run_seed": cfg.base_seed,
            }
            write_csv(report, out_dir / f"{cid}.csv", meta)
            json_meta = {**meta, "iterations": cfg.iterations, "log_span": span}
            if visit_rows:
                # Exact integer sums, divided once.
                json_meta["visit_weighted_mean"] = [
                    total / len(visit_rows) for total in map(sum, zip(*visit_rows))
                ]
            write_json(report, out_dir / f"{cid}.json", json_meta)
            write_plotdata(report, out_dir / f"{cid}.dat")
    print(
        f"done: {len(headers)} runs, {len(reports)} configs, "
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
    for key, (_, _, flag_type), target, text in _OPTIONS:
        flag = "--" + key.replace("_", "-")
        if flag_type is None:
            # A switch reads None when absent, like every other flag.
            parser.add_argument(flag, action="store_const", const=True, help=text)
        else:
            if target is not None:
                text = f"{text} (default {getattr(*target)})"
            parser.add_argument(flag, type=flag_type, help=text)
    return parser


# JSON types a --config value may have: (description, check, flag type),
# where a switch has no flag type.
_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int)
_NUMBER = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float)
_BOOL = ("true or false", lambda v: isinstance(v, bool), None)
_STRING = ("a string", lambda v: isinstance(v, str), str)
_NAMES = (
    "a string or a list of strings",
    lambda v: isinstance(v, str) or (isinstance(v, list) and all(isinstance(x, str) for x in v)),
    str,
)

_EXP, _EA = ExperimentConfig, EvolutionConfig

#: Every option: (config key, JSON type, (dataclass, field) it sets, help).
#: The flag is "--" plus the key with "-" for "_".  functions, agents and
#: allow_any_c set no field directly; _load_config merges them itself.
_OPTIONS = (
    ("functions", _NAMES, None, "comma list from f1..f5 (default: all)"),
    ("agents", _NAMES, None, 'comma list, e.g. "uct:0.5,uct:sqrt2,siea" (default: full grid)'),
    ("iterations", _INT, (_EXP, "iterations"), "search iterations per run"),
    ("runs", _INT, (_EXP, "runs"), "independent runs per (function, agent)"),
    ("bins", _INT, (_EXP, "bins"), "histogram bins over [0,1]"),
    ("seed", _INT, (_EXP, "base_seed"), "base seed for per-run seed derivation"),
    ("ea_generations", _INT, (_EA, "generations"), "evolution generations"),
    ("ea_lambda", _INT, (_EA, "lambda_"), "offspring per generation"),
    ("ea_sims", _INT, (_EA, "sims_per_eval"), "search iterations per fitness evaluation"),
    ("ea_alpha", _NUMBER, (_EA, "alpha"), "lower semantic-distance bound"),
    ("ea_beta", _NUMBER, (_EA, "beta"), "upper semantic-distance bound"),
    ("out", _STRING, (_EXP, "out_dir"), "output directory"),
    ("workers", _INT, (_EXP, "workers"), "parallel worker processes"),
    ("allow_any_c", _BOOL, None, "accept uct constants outside {0.5, 1, sqrt2, 2, 3}"),
    (
        "visit_weighted",
        _BOOL,
        (_EXP, "visit_weighted"),
        "also export visit-weighted histograms (alternative view)",
    ),
)


def _read_config_file(path: Path) -> dict:
    types = {key: kind for key, kind, _, _ in _OPTIONS}
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError(f"{path} must hold a JSON object")
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(unknown)} in {path}; "
            f"accepted keys: {', '.join(types)}"
        )
    for key, value in values.items():
        expected, check, _ = types[key]
        if not check(value):
            raise ValueError(f"{key} in {path} must be {expected}, got {value!r}")
    return values


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge a --config file and the flags (which win) into a config.

    Only the keys that were given are passed on, so the dataclass
    defaults of ExperimentConfig and EvolutionConfig are the only ones.
    """
    values = _read_config_file(args.config) if args.config is not None else {}
    fields: dict = {_EXP: {}, _EA: {}}
    for key, _, target, _ in _OPTIONS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
        if target is not None and key in values:
            owner, name = target
            fields[owner][name] = values[key]
    ea = EvolutionConfig(**fields[_EA])
    kwargs = fields[_EXP]
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
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
