"""The three seeded grids the benchmark runs, and what each one expects.

A grid is spelled out flag by flag, EA budget included, so that the
output checks never rely on the program's own defaults.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

def import_evomcts(src: Path):
    """Import evomcts and its CLI from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import evomcts
    import evomcts.cli

    if Path(evomcts.__file__).resolve().parent != (src / "evomcts").resolve():
        raise ImportError(f"evomcts was imported from {evomcts.__file__}, not from {src}")
    return evomcts.cli


FUNCTIONS = ("f1", "f2", "f3", "f4", "f5")
CANONICAL_UCT = ("uct:0.5", "uct:1", "uct:sqrt2", "uct:2", "uct:3")


@dataclass(frozen=True)
class Grid:
    functions: tuple
    agents: tuple
    iterations: int
    runs: int
    bins: int = 100
    visit_weighted: bool = False
    ea_generations: int = 20
    ea_lambda: int = 4
    ea_sims: int = 30

    def argv(self, seed: int, out, workers: int = 1) -> list:
        args = [
            "--functions", ",".join(self.functions),
            "--agents", ",".join(self.agents),
            "--iterations", str(self.iterations),
            "--runs", str(self.runs),
            "--bins", str(self.bins),
            "--seed", str(seed),
            "--ea-generations", str(self.ea_generations),
            "--ea-lambda", str(self.ea_lambda),
            "--ea-sims", str(self.ea_sims),
            "--workers", str(workers),
            "--out", str(out),
        ]
        if self.visit_weighted:
            args.append("--visit-weighted")
        return args

    @property
    def post_iterations(self) -> int:
        """Deployment iterations of an evolved run."""
        return self.iterations - self.ea_generations * self.ea_lambda * self.ea_sims

    def configs(self) -> list:
        """(config_id, function, agent_label, kind, c) for every grid cell."""
        cells = []
        for function in self.functions:
            for agent in self.agents:
                if agent == "siea":
                    label, kind, c = "siea", "siea", None
                else:
                    raw = agent.split(":", 1)[1]
                    c = math.sqrt(2.0) if raw == "sqrt2" else float(raw)
                    label, kind = "uct_c" + format(c, "g"), "uct"
                cells.append((f"{function}_{label}", function, label, kind, c))
        return cells

    def search_iterations(self) -> int:
        """Iterations spent inside run_search per grid: full budgets for
        UCB1 runs, the deployment search for evolved runs."""
        per_agent = [
            self.post_iterations if a == "siea" else self.iterations for a in self.agents
        ]
        return len(self.functions) * self.runs * sum(per_agent)


WORKLOADS = {
    # The paper's baseline agents at the paper's budget: closed-form
    # select and the rollout with its reward draw share the time.
    "uct": Grid(FUNCTIONS, CANONICAL_UCT, iterations=5000, runs=1),
    # The evolved agent alone: expression evaluation, mutation and
    # offspring evaluation.  Per-run time varies by about a third from
    # seed to seed, so the grid holds 50 runs to keep the grid's
    # seed-to-seed spread near 5%.
    "siea": Grid(FUNCTIONS, ("siea",), iterations=5000, runs=10),
    # Many short UCB1 runs with fine bins: per-run and per-config
    # fixed costs (histograms, logs, CSV/JSON/.dat writers) weigh about
    # as much as the searches, whose shallow trees keep rollouts long.
    "export": Grid(
        FUNCTIONS, CANONICAL_UCT, iterations=150, runs=8, bins=2500, visit_weighted=True
    ),
}

#: Small UCB1 grid timed at --workers 1 and 2 for the process-pool layer.
POOL_GRID = Grid(("f1", "f2"), ("uct:0.5", "uct:3"), iterations=2500, runs=2)
