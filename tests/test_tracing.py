"""The benchmark's tracer must find every name it wraps.

``perfbench/tracing.py`` wraps functions and methods of ``evomcts`` by
name from outside the package, so renaming one of them would break the
benchmark's traced run without failing any other test.
"""

import importlib.util
from pathlib import Path

from evomcts import bench, cli, mcts, siea

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_attributes():
    owners = {
        cli: (
            "main",
            "run_search",
            "run_siea_search",
            "best_child",
            "visit_weighted_counts",
            "run_report",
            "aggregate",
            "write_csv",
            "write_json",
            "write_plotdata",
        ),
        siea: ("evolve", "evaluate_individual", "mutate", "run_search"),
        mcts: ("select", "expand", "rollout", "backpropagate", "evaluate"),
        mcts.UctPolicy: ("__call__",),
        mcts.ExpressionPolicy: ("__call__",),
        bench.FunctionEnv: ("sample_reward", "apply"),
    }
    return {
        (owner, attr): owner.__dict__[attr] for owner, names in owners.items() for attr in names
    }


def test_tracer_spans_a_tiny_grid_and_uninstalls(tmp_path):
    tracing = _load_tracing()
    before = _wrapped_attributes()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        argv = ["--functions", "f1", "--agents", "uct:1,siea", "--runs", "1"]
        argv += ["--iterations", "200", "--ea-generations", "1", "--bins", "10"]
        assert tracer.spans["mcts.select"][0] == 0
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = ("mcts.select", "mcts.expand", "mcts.rollout", "mcts.backpropagate")
    for name in (*spans, "bench.sample_reward", "siea.evolve"):
        assert tracer.spans[name][0] > 0, name
    after = _wrapped_attributes()
    for key, original in before.items():
        assert after[key] is original, key
