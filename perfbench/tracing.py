"""Spans around the program's public functions, installed from outside.

Each span wrapper times one call and charges its duration to the
enclosing span as child time, so a layer's self time is its duration
minus the wrapped calls nested in it.  Spans are folded into per-layer
totals as they close (calls, total seconds, self seconds): one uct grid
makes close to a million of them, too many to keep one by one.

Count wrappers only count calls made directly inside a named span,
such as environment steps taken inside a rollout.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: dict = {}  # name -> calls made inside the named parent span
        self._stack: list = []  # open spans as [name, child_s]
        self._patched: list = []  # (owner, attribute, original)

    def span(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        self._patch(owner, attr, fn, wrapper)

    def count(self, owner, attr: str, name: str, within: str) -> None:
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == within:
                counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of evomcts where their callers look them up."""
    from evomcts import bench, cli, mcts, siea

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "run_search", "mcts.run_search")
    tracer.span(cli, "run_siea_search", "siea.run_siea_search")
    tracer.span(cli, "best_child", "mcts.best_child")
    tracer.span(cli, "visit_weighted_counts", "analysis.visit_weighted_counts")
    tracer.span(cli, "run_report", "analysis.run_report")
    tracer.span(cli, "aggregate", "analysis.aggregate")
    for writer in ("write_csv", "write_json", "write_plotdata"):
        tracer.span(cli, writer, "analysis.write")
    tracer.span(siea, "evolve", "siea.evolve")
    tracer.span(siea, "evaluate_individual", "siea.evaluate_individual")
    tracer.span(siea, "mutate", "expr.mutate")
    tracer.span(siea, "run_search", "siea.deploy")
    for step in ("select", "expand", "rollout", "backpropagate"):
        tracer.span(mcts, step, f"mcts.{step}")
    tracer.span(mcts, "evaluate", "expr.evaluate")
    tracer.span(bench.FunctionEnv, "sample_reward", "bench.sample_reward")
    tracer.count(bench.FunctionEnv, "apply", "rollout_steps", within="mcts.rollout")
    tracer.count(mcts.UctPolicy, "__call__", "policy_calls", within="mcts.select")
    tracer.count(mcts.ExpressionPolicy, "__call__", "policy_calls", within="mcts.select")
