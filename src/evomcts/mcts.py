"""Monte Carlo tree search engine with pluggable selection formulas.

The engine is generic over an environment object providing
``initial_state() / actions(s) / apply(s, a) / is_terminal(s) /
playout(s, rng) / sample_reward(s, rng) / centre(s)``; ``playout``
walks uniformly at random from ``s`` to a terminal state and returns it.

A selection policy provides ``best_children(n_parent, children) ->
list``: it scores every visited child of one node from its mean reward
``q``, the parent's visit count and its own visit count (both ints >= 1,
the fields of :class:`~evomcts.expr.NodeContext`), and returns the
children tied at the top score in creation order, or an empty list when
no child scores above -inf; ``select`` asks it once per node.  Two
policies are provided: closed-form UCB1 with a fixed exploration
constant, and an expression tree compiled into a per-node chooser.
Each also scores one child when called as ``policy(q, n_parent,
n_child)``, the reference its ``best_children`` reproduces bit for bit.

RNG protocol (all determinism and the trace tests rest on this): the
engine draws from a single ``random.Random`` stream, always via
``rng.randrange(n)`` for index picks and ``rng.random()`` for uniform
floats.  Score ties during selection consult the RNG only when at least
two children are tied at the maximum (children enumerated in creation
order); expansion pops a uniformly random untried action; a rollout
(``env.playout``) makes, per step, the draw ``randrange(branching)``
would make, written inline with ``getrandbits`` as CPython 3.11's
``randrange`` does it, so the values and the stream state afterwards
are the same.
"""

from __future__ import annotations

import math
import random

from .expr import Expression, NodeContext, compile_chooser, evaluate

__all__ = [
    "SearchNode",
    "UctPolicy",
    "ExpressionPolicy",
    "create_root",
    "select",
    "expand",
    "rollout",
    "backpropagate",
    "run_iteration",
    "run_search",
    "best_child",
]


class SearchNode:
    """One state in the search tree.

    ``untried`` holds the actions not yet expanded; a terminal node has
    neither children nor untried actions.  ``total_reward / visits`` is
    the mean reward backed up through this node.
    """

    __slots__ = ("state", "parent", "children", "untried", "visits", "total_reward")

    def __init__(self, state, parent=None, untried=None):
        self.state = state
        self.parent = parent
        self.children: list = []
        self.untried: list = list(untried) if untried is not None else []
        self.visits = 0
        self.total_reward = 0.0

    @property
    def q(self) -> float:
        return self.total_reward / self.visits

    def count_nodes(self) -> int:
        return 1 + sum(child.count_nodes() for child in self.children)

    def __repr__(self):
        return (
            f"SearchNode(state={self.state!r}, visits={self.visits}, "
            f"total_reward={self.total_reward}, children={len(self.children)})"
        )


class UctPolicy:
    """Closed-form UCB1 score: q + c * sqrt(2 * ln(n_parent) / n_child)."""

    def __init__(self, c: float):
        self.c = float(c)

    def __call__(self, q: float, n_parent: int, n_child: int) -> float:
        return q + self.c * math.sqrt(2.0 * math.log(n_parent) / n_child)

    def best_children(self, n_parent: int, children: list) -> list:
        """The children tied at the top ``__call__`` score, bit for bit.

        ``2.0 * log(n_parent) / n_child`` evaluates left to right, so
        hoisting ``2.0 * log(n_parent)`` out of the child loop leaves
        every score unchanged.
        """
        c = self.c
        k = 2.0 * math.log(n_parent)
        sqrt = math.sqrt
        best = -math.inf
        ties: list = []
        for child in children:
            n = child.visits
            score = child.total_reward / n + c * sqrt(k / n)
            if score > best:
                best = score
                ties = [child]
            elif score == best:
                ties.append(child)
        return ties if best != -math.inf else []

    def __repr__(self):
        return f"UctPolicy(c={self.c!r})"


class ExpressionPolicy:
    """Score children with an expression tree.

    ``select`` asks the per-node chooser ``best_children``, compiled
    here; ``__call__`` scores one child with the interpreter, which is
    the reference the chooser reproduces bit for bit.
    """

    def __init__(self, expression: Expression):
        self.expression = expression
        self.best_children = compile_chooser(expression)

    def __call__(self, q: float, n_parent: int, n_child: int) -> float:
        return evaluate(self.expression, NodeContext(q, n_parent, n_child))

    def __repr__(self):
        return f"ExpressionPolicy({str(self.expression)!r})"


def create_root(env) -> SearchNode:
    """Fresh single-node tree for an environment."""
    state = env.initial_state()
    untried = [] if env.is_terminal(state) else list(env.actions(state))
    return SearchNode(state, untried=untried)


def select(root: SearchNode, policy, rng: random.Random) -> SearchNode:
    """Descend by policy score until an expandable or terminal node.

    Only visited children exist in ``children``, so every scored child
    has visits >= 1.  Exact score ties are broken uniformly at random.
    Raises ValueError when the policy scores no child above -inf (for
    instance when it returns NaN).
    """
    choose = policy.best_children
    node = root
    while not node.untried and node.children:
        ties = choose(node.visits, node.children)
        if not ties:
            raise ValueError(f"policy {policy!r} scored no child above -inf")
        node = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
    return node


def expand(node: SearchNode, env, rng: random.Random) -> SearchNode:
    """Materialise one uniformly chosen untried action as a new child."""
    if not node.untried:
        raise ValueError("node has no untried actions")
    action = node.untried.pop(rng.randrange(len(node.untried)))
    state = env.apply(node.state, action)
    untried = [] if env.is_terminal(state) else list(env.actions(state))
    child = SearchNode(state, parent=node, untried=untried)
    node.children.append(child)
    return child


def rollout(node: SearchNode, env, rng: random.Random) -> float:
    """Uniform random playout to a terminal state, then one reward draw.

    Starting at a terminal node the playout has length zero and the
    reward is sampled immediately.
    """
    return env.sample_reward(env.playout(node.state, rng), rng)


def backpropagate(node: SearchNode, reward: float) -> None:
    """Add one visit and the reward to the node and all its ancestors."""
    while node is not None:
        node.visits += 1
        node.total_reward += reward
        node = node.parent


def run_iteration(root: SearchNode, policy, env, rng: random.Random):
    """One select/expand/rollout/backpropagate cycle.

    Returns the newly expanded node, or None when selection ended on a
    terminal node (which is then re-rolled-out and backed up, so every
    iteration consumes exactly one reward draw and root.visits grows by
    one either way).
    """
    node = select(root, policy, rng)
    expanded = None
    if node.untried:
        expanded = expand(node, env, rng)
        node = expanded
    reward = rollout(node, env, rng)
    backpropagate(node, reward)
    return expanded


def run_search(env, policy, iterations: int, rng: random.Random):
    """Run a full search from a fresh root.

    Returns ``(root, expansion_log)`` where the log holds one
    ``(iteration_index, centre)`` pair per expansion, in order.
    Iterations that re-select an already-expanded terminal node consume
    budget without logging anything.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    root = create_root(env)
    log: list = []
    for i in range(iterations):
        expanded = run_iteration(root, policy, env, rng)
        if expanded is not None:
            log.append((i, env.centre(expanded.state)))
    return root, log


def best_child(root: SearchNode, rng: random.Random) -> SearchNode:
    """Child with the highest mean reward; exact ties uniform at random."""
    best_q = -math.inf
    ties: list = []
    for child in root.children:
        if child.visits < 1:
            continue
        q = child.total_reward / child.visits
        if q > best_q:
            best_q = q
            ties = [child]
        elif q == best_q:
            ties.append(child)
    if not ties:
        raise ValueError("root has no visited children")
    return ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
