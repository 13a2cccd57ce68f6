"""(1, lambda) evolution of selection formulas with semantic tie-breaking.

A candidate selection formula is scored by running a short burst of
search iterations with it and averaging the rollout rewards; the vector
of per-iteration rewards is kept as the individual's *semantics*.  When
several offspring tie on fitness, the winner is the one whose semantics
sit just past a lower distance bound from the parent's: different
enough to move, not so different as to be noise.  With Bernoulli
rewards the semantic distance never exceeds 1, so under the default
bounds (alpha=5, beta=10) the semantic branch is inert and fitness ties
fall through to a uniform random pick; the bounds are configuration
values precisely so that narrower ones can be tried.

The strategy is comma-selection: the parent never competes with its
offspring, and the formula used after evolution is the best-of-run by
fitness (most recent on ties), not the final parent, since a comma
strategy can walk away from its best individual.

An offspring's fitness evaluation scores a few hundred children, too
few to repay a ``compile()``, so it scores through closures
(:func:`~evomcts.mcts.scorer_descent`); only the best-of-run formula is
compiled (:class:`~evomcts.mcts.ExpressionPolicy`).  Both routes build
the formula over :data:`~evomcts.mcts.SEARCH_DOMAIN` and score alike.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

from .expr import Expression, mutate, uct_seed
from .mcts import (
    SEARCH_DOMAIN,
    ExpressionPolicy,
    check_count,
    create_root,
    run_iteration,
    run_search,
    scorer_descent,
)

__all__ = [
    "Individual",
    "EvolutionConfig",
    "ssd",
    "evaluate_individual",
    "select_parent",
    "evolve",
    "run_siea_search",
]


@dataclass
class Individual:
    """A selection formula with its evaluation results.

    ``fitness``/``semantics`` are None for the initial, never-evaluated
    parent: the evaluation budget belongs entirely to offspring.
    """

    expression: Expression
    fitness: float | None = None
    semantics: list | None = None


@dataclass
class EvolutionConfig:
    """Knobs of the evolutionary run (defaults are the reference setup)."""

    lambda_: int = 4
    generations: int = 20
    sims_per_eval: int = 30
    alpha: float = 5.0
    beta: float = 10.0

    def __post_init__(self):
        check_count("lambda_", self.lambda_, 1)
        check_count("generations", self.generations, 0)
        check_count("sims_per_eval", self.sims_per_eval, 1)
        # Both are in every siea run header: stored as floats, 5 logs as
        # 5.0 does, and a bool is refused, not read as 0 or 1.
        if isinstance(self.alpha, bool) or isinstance(self.beta, bool):
            raise ValueError(f"alpha and beta must be numbers, got {self.alpha} and {self.beta}")
        # With alpha = -inf every gap to alpha is inf, so the semantic
        # branch would log a uniform pick among all tied offspring.
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha} and {self.beta}")
        self.alpha, self.beta = float(self.alpha), float(self.beta)
        if not self.alpha < self.beta:
            raise ValueError("alpha must be < beta")

    @property
    def eval_budget(self) -> int:
        """Reward draws consumed by one evolutionary run."""
        return self.generations * self.lambda_ * self.sims_per_eval


def ssd(p: list, q: list) -> float:
    """Mean absolute difference between two equal-length reward vectors."""
    if len(p) != len(q):
        raise ValueError(f"semantics lengths differ: {len(p)} vs {len(q)}")
    if not p:
        raise ValueError("semantics must be non-empty")
    return sum(abs(a - b) for a, b in zip(p, q)) / len(p)


def evaluate_individual(expression: Expression, env, sims: int, rng: random.Random) -> Individual:
    """Score a formula by running ``sims`` search iterations with it.

    Works on a fresh root-only tree (building it draws no randomness)
    and discards the tree afterwards; only the reward trace survives.
    Semantics entry i is the rollout reward of iteration i, fitness is
    their mean.  The formula's :func:`~evomcts.mcts.scorer_descent`,
    over the search's domain, walks the tree, compiling nothing: the
    same draws and rewards as a ``run_search`` of ``sims`` iterations
    with ``ExpressionPolicy(expression)``.
    """
    check_count("sims", sims, 1)
    tree = create_root(env)
    # A policy is whatever provides descend; nothing here calls it to score.
    policy = SimpleNamespace(descend=scorer_descent(expression, SEARCH_DOMAIN))
    semantics = []
    for _ in range(sims):
        before = tree.total_reward
        run_iteration(tree, policy, env, rng)
        semantics.append(tree.total_reward - before)
    return Individual(expression, sum(semantics) / sims, semantics)


def select_parent(
    offspring: list,
    parent: Individual,
    alpha: float,
    beta: float,
    rng: random.Random,
) -> tuple:
    """Comma-selection step: pick the next parent among the offspring.

    Returns ``(index, branch)``; the index always points into the
    offspring's max-fitness set.  Branches: "unique_best" (single
    fitness maximum), "semantic" (among tied maxima, the one whose
    distance to the parent exceeds alpha but stays below beta, closest
    to alpha), "random" (tied maxima, no semantically eligible candidate
    or no parent semantics to compare against).  The RNG is consulted
    only on genuine ties.
    """
    if not offspring:
        raise ValueError("offspring must be non-empty")
    best_fitness = max(o.fitness for o in offspring)
    top = [i for i, o in enumerate(offspring) if o.fitness == best_fitness]
    if len(top) == 1:
        return top[0], "unique_best"
    if parent.semantics is None:
        return top[rng.randrange(len(top))], "random"
    eligible = []
    for i in top:
        d = ssd(offspring[i].semantics, parent.semantics)
        if alpha < d < beta:
            eligible.append((i, abs(d - alpha)))
    if eligible:
        closest = min(gap for _, gap in eligible)
        ties = [i for i, gap in eligible if gap == closest]
        return (ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]), "semantic"
    return top[rng.randrange(len(top))], "random"


def evolve(env, config: EvolutionConfig, rng: random.Random):
    """Run the evolutionary loop; returns (best_individual, history).

    Every offspring in every generation is evaluated by
    :func:`evaluate_individual` on its own fresh root-only tree, so
    fitness differences come from the formulas alone; no offspring
    formula is compiled.
    Exactly ``config.eval_budget`` reward draws are consumed.
    ``history`` holds one JSON-ready record per generation: parent, all
    offspring with fitness and distance-to-parent, the selected index
    and which branch selected it.  Best-of-run is by
    fitness with ties going to the most recently evaluated individual;
    with zero generations it is the initial UCB1 seed itself.
    """
    parent = Individual(uct_seed(math.sqrt(2.0)))
    best = parent
    history: list = []
    for generation in range(1, config.generations + 1):
        exprs = [mutate(parent.expression, rng) for _ in range(config.lambda_)]
        offspring = [evaluate_individual(e, env, config.sims_per_eval, rng) for e in exprs]
        index, branch = select_parent(offspring, parent, config.alpha, config.beta, rng)
        for child in offspring:
            if best.fitness is None or child.fitness >= best.fitness:
                best = child
        history.append(
            {
                "generation": generation,
                "parent_expr": str(parent.expression),
                "parent_fitness": parent.fitness,
                "offspring": [
                    {
                        "expr": str(child.expression),
                        "fitness": child.fitness,
                        "ssd_to_parent": (
                            None
                            if parent.semantics is None
                            else ssd(child.semantics, parent.semantics)
                        ),
                    }
                    for child in offspring
                ],
                "selected_index": index,
                "selection_branch": branch,
            }
        )
        parent = offspring[index]
    return best, history


def run_siea_search(env, config: EvolutionConfig, post_iterations: int, rng: random.Random):
    """Evolve a formula, then search a fresh tree with it.

    Returns ``(root, expansion_log, best, history)``: the final tree and
    expansion log of the post-evolution search (``post_iterations``
    iterations), the best-of-run individual whose formula drove it, and
    the per-generation history.  Total reward draws are exactly
    ``config.eval_budget + post_iterations``.  The best-of-run formula
    is the one formula the run compiles, as its ``ExpressionPolicy``.
    Raises ValueError for a ``post_iterations`` that is not an integer
    >= 1 before evolving.
    """
    # Checked here, before evolution spends its draws, not in run_search.
    check_count("post_iterations", post_iterations, 1)
    best, history = evolve(env, config, rng)
    root, log = run_search(env, ExpressionPolicy(best.expression), post_iterations, rng)
    return root, log, best, history
