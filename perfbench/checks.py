"""Output checks computed without the program's help.

Every seeded run is one operation.  A run fails when its JSONL log
breaks one of the rules in ``check_run``, or when its configuration's
histogram (``<config>.json``) differs from counts recomputed here from
the logs.  Only ``parse`` is taken from evomcts, to show that the
evolved formula round-trips through it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

#: Every interval centre the bisection can reach is a dyadic midpoint at
#: depth <= 17, so centre * 2**18 is an integer strictly inside (0, 2**18).
DYADIC_SCALE = 2**18
MAX_EXPR_DEPTH = 8
TERTILES = 3


def derive_seed(base_seed: int, function: str, label: str, run_index: int) -> int:
    """First 8 bytes, little-endian, of sha256("base:function:label:run")."""
    key = f"{base_seed}:{function}:{label}:{run_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def expr_depth(text: str) -> int:
    """Depth of an S-expression formula; a variable or ``(k v)`` is depth 1."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def node(pos):
        if tokens[pos] != "(":
            return 1, pos + 1
        if tokens[pos + 1] == "k":
            return 1, pos + 4
        depth, pos = 0, pos + 2
        while tokens[pos] != ")":
            child, pos = node(pos)
            depth = max(depth, child)
        return depth + 1, pos + 1

    depth, end = node(0)
    if end != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return depth


def run_name(config_id: str, run_index: int) -> str:
    return f"{config_id}_run{run_index:03d}"


@dataclass
class RoundCheck:
    """Result of checking one grid's output directory."""

    runs: list = field(default_factory=list)  # run names in grid order
    failures: dict = field(default_factory=dict)  # run name -> reasons
    node_counts: dict = field(default_factory=dict)  # run name -> node_count
    draws: int = 0

    def fail(self, name: str, reason: str) -> None:
        self.failures.setdefault(name, []).append(reason)


def check_run(lines: list, grid, seed: int, cell: tuple, run_index: int, parse) -> list:
    """Reasons why one run's log is wrong; empty when it is right."""
    config_id, function, label, kind, c = cell
    evolved = kind == "siea"
    span = grid.post_iterations if evolved else grid.iterations
    types = [line.get("type") for line in lines]
    expected_types = ["run"]
    if evolved:
        expected_types += ["generation"] * grid.ea_generations + ["evolved"]
    expected_types += ["expansions", "summary"]
    if types != expected_types:
        return [f"log line types {types[:3]}... do not match the grid"]

    reasons = []
    header = {
        "type": "run",
        "config_id": config_id,
        "function": function,
        "agent": label,
        "kind": kind,
        "c": c,
        "seed": derive_seed(seed, function, label, run_index),
        "run_index": run_index,
        "iterations": grid.iterations,
        "post_iterations": span if evolved else None,
    }
    for key, value in header.items():
        if lines[0].get(key) != value:
            reasons.append(f"header {key}={lines[0].get(key)!r}, expected {value!r}")

    expansions, summary = lines[-2], lines[-1]
    its, centres = expansions["iterations"], expansions["centres"]
    if len(its) != len(centres):
        reasons.append("expansion iterations and centres differ in length")
    if any(b <= a for a, b in zip(its, its[1:])):
        reasons.append("expansion indices do not strictly increase")
    if its and not (0 <= its[0] and its[-1] < span):
        reasons.append(f"expansion indices outside [0, {span})")
    for x in centres:
        scaled = x * DYADIC_SCALE
        if not (0 < scaled < DYADIC_SCALE and scaled == int(scaled)):
            reasons.append(f"centre {x!r} is not a dyadic midpoint at depth <= 17")
            break
    if summary["reward_draws"] != grid.iterations:
        reasons.append(f"reward_draws {summary['reward_draws']} != {grid.iterations}")
    if summary["root_visits"] != span:
        reasons.append(f"root_visits {summary['root_visits']} != {span}")
    if summary["node_count"] != 1 + len(its):
        reasons.append(f"node_count {summary['node_count']} != 1 + {len(its)} expansions")

    if evolved:
        fitnesses = []
        for g, record in enumerate(lines[1 : 1 + grid.ea_generations], 1):
            offspring = record["offspring"]
            if record["generation"] != g or len(offspring) != grid.ea_lambda:
                reasons.append(f"generation {g} does not hold {grid.ea_lambda} offspring")
            fitnesses += [o["fitness"] for o in offspring]
        sims = grid.ea_sims
        for f in fitnesses:
            k = round(f * sims)
            if not (0 <= k <= sims and f == k / sims):
                reasons.append(f"fitness {f!r} is not a multiple of 1/{sims} in [0, 1]")
                break
        best = lines[1 + grid.ea_generations]
        if fitnesses and best["fitness"] != max(fitnesses):
            reasons.append(f"evolved fitness {best['fitness']!r} != max {max(fitnesses)!r}")
        try:
            if str(parse(best["expr"])) != best["expr"]:
                reasons.append("evolved formula does not round-trip through parse")
            if expr_depth(best["expr"]) > MAX_EXPR_DEPTH:
                reasons.append(f"evolved formula deeper than {MAX_EXPR_DEPTH}")
        except (ValueError, IndexError) as exc:
            reasons.append(f"evolved formula unreadable: {exc}")
    return reasons


def check_round(grid, seed: int, out: Path, parse) -> RoundCheck:
    """Check every run log and every configuration histogram under ``out``."""
    result = RoundCheck()
    expected_logs = set()
    for cell in grid.configs():
        config_id, _, _, kind, _ = cell
        span = grid.post_iterations if kind == "siea" else grid.iterations
        counts = [[0] * grid.bins for _ in range(TERTILES)]
        names = [run_name(config_id, k) for k in range(grid.runs)]
        for k, name in enumerate(names):
            result.runs.append(name)
            expected_logs.add(f"{name}.jsonl")
            try:
                text = (out / "logs" / f"{name}.jsonl").read_text()
                lines = [json.loads(line) for line in text.splitlines()]
                reasons = check_run(lines, grid, seed, cell, k, parse)
                summary = lines[-1]
                result.node_counts[name] = summary["node_count"]
                result.draws += summary["reward_draws"]
                expansions = lines[-2]
                for i, x in zip(expansions["iterations"], expansions["centres"]):
                    tertile = 0 if i < span // 3 else 1 if i < 2 * span // 3 else 2
                    counts[tertile][min(int(x * grid.bins), grid.bins - 1)] += 1
            except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                reasons = [f"log unreadable: {exc!r}"]
            for reason in reasons:
                result.fail(name, reason)
        for reason in check_config(grid, out, config_id, counts):
            for name in names:
                result.fail(name, f"{config_id}: {reason}")
    found = {p.name for p in (out / "logs").glob("*")} if (out / "logs").is_dir() else set()
    if found - expected_logs:
        for name in result.runs:
            result.fail(name, f"unexpected logs {sorted(found - expected_logs)[:3]}")
    return result


def check_config(grid, out: Path, config_id: str, counts: list) -> list:
    """Reasons why one configuration's exports are wrong."""
    try:
        data = json.loads((out / f"{config_id}.json").read_text())
        missing = [s for s in (".csv", ".dat") if (out / f"{config_id}{s}").stat().st_size == 0]
    except (OSError, ValueError) as exc:
        return [f"exports unreadable: {exc!r}"]
    reasons = [f"empty {s} export" for s in missing]
    if data.get("runs") != grid.runs or data.get("bins") != grid.bins:
        reasons.append(f"runs={data.get('runs')} bins={data.get('bins')} do not match the grid")
    means = [[c / grid.runs for c in row] for row in counts]
    if data.get("tertile_counts") != means:
        reasons.append("tertile x bin counts differ from the counts in the logs")
    if grid.visit_weighted and len(data.get("visit_weighted_mean") or ()) != grid.bins:
        reasons.append("visit-weighted histogram missing or of the wrong length")
    return reasons


def file_digests(out: Path) -> dict:
    """sha256 of every file under ``out``, by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def check_repeat(grid, first: dict, again: dict) -> dict:
    """Runs whose log or configuration exports differ between two rounds
    of the same grid, as {run name: reason}."""
    names = [run_name(cid, k) for cid, *_ in grid.configs() for k in range(grid.runs)]
    if set(first) != set(again):
        return {name: "file set differs from the first round" for name in names}
    failures = {}
    for config_id, *_ in grid.configs():
        exports = [f"{config_id}{s}" for s in (".csv", ".json", ".dat")]
        exports_differ = any(first[e] != again[e] for e in exports if e in first)
        for k in range(grid.runs):
            name = run_name(config_id, k)
            log = f"logs/{name}.jsonl"
            if log not in first or first[log] != again[log]:
                failures[name] = "log differs from the first round"
            elif exports_differ:
                failures[name] = f"{config_id} exports differ from the first round"
    return failures


def fingerprint(out: Path) -> str:
    """sha256 over the sorted JSONL logs (name and bytes of each)."""
    h = hashlib.sha256()
    for path in sorted((out / "logs").glob("*.jsonl")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
