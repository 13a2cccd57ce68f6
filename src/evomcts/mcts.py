"""Monte Carlo tree search engine with pluggable selection formulas.

The engine is generic over an environment object providing
``initial_state() / actions(s) / apply(s, a) / is_terminal(s) /
playout(s, rng) / sample_reward(s, rng) / centre(s)``; ``playout``
walks uniformly at random from ``s`` to a terminal state and returns it.

A selection policy provides ``descend(node, rng) -> path``, which
``select`` calls once per iteration.  From ``node``, while the node has
no untried action and has children, it scores every child from its mean
reward ``q``, the parent's visit count and its own visit count (both
ints >= 1) and moves to the child with the top score; it returns the
search path, the nodes from ``node`` down to the node it stops at, both
included, and raises ValueError when no child of a level scores above
-inf.  The path is the only record of ancestry: a node has no link to
its parent, so a tree holds no reference cycle and is freed as soon as
its root is dropped.  Called as ``policy(q, n_parent, n_child)``, a
policy scores one child with the arithmetic of its ``descend``.

Every policy scores with a formula, and selection lives in this module
alone: one skeleton, :func:`_descent_factory`, writes the walk, the tie
bookkeeping, the tie-break draw and the -inf check once, around the
lines that score a child.  :class:`ExpressionPolicy` compiles a tree's
:func:`~evomcts.expr.formula_code` into it (:func:`compile_chooser`),
and :class:`UctPolicy` is the policy of UCB1's tree, ``uct_seed(c)``.
:func:`scorer_descent` compiles no formula: it hands
:func:`~evomcts.expr.build_scorer`'s closures to one copy of the
skeleton, compiled at import.  For an evolved formula (7.6 nodes on
average) compiling costs about 0.26 ms and closures 17 us, and a child
then 0.24 us against 0.29 us: even near 5,000 children, so ``siea``
scores each offspring's 30-iteration evaluation with closures.  Both
routes give the same paths and RNG states, bit for bit.

The search domain, :data:`SEARCH_DOMAIN`: a child's mean reward lies in
[0, 1] and is never -0.0, and a visit count is an int >= 1, exact as a
float up to 2^53.  The searches build every formula over it, so each
keeps only the guards the search's statistics can trigger
(:mod:`evomcts.expr` says which) and gives the full formula's bits on
the domain.  The UCB1 tree keeps none: compiled, it is the closed form
``q + c * sqrt(2.0 * log(n_parent) / n_child)``, with ``2.0 *
log(n_parent)`` once per level and int counts.  Without a domain both
routes keep every guard and match :func:`~evomcts.expr.evaluate`.

RNG protocol (all determinism and the trace tests rest on this): the
engine draws from a single ``random.Random`` stream.  Every index pick
makes the draw ``rng.randrange(n)`` would make, through
:func:`draw_index`, which writes it with ``getrandbits`` as CPython
3.11's ``randrange`` does, so the values and the stream state afterwards
are the same; uniform floats come from ``rng.random()``.  Score ties
during selection consult the RNG only when at least two children are
tied at the maximum, and pick among the tied children in creation order
(written in :func:`_descent_factory`'s skeleton); expansion pops a
uniformly random untried action; a rollout (``env.playout``) makes, per
step, the draw ``randrange(2)`` would make, written inline the same way.
"""

from __future__ import annotations

import math
import random
import re

from .expr import (
    MAX_ABS,
    Expression,
    NodeContext,
    build_scorer,
    evaluate,
    formula_code,
    uct_seed,
    value_range,
)

#: The values the search gives a formula's statistics.  ``Q`` is a mean
#: of rewards in [0, 1], never -0.0, and the visit counts ``Np`` and
#: ``Nc`` are at least 1 and exact as floats up to 2^53.
SEARCH_DOMAIN = {"Q": (0.0, 1.0), "Np": (1.0, 2.0**53), "Nc": (1.0, 2.0**53)}

__all__ = [
    "SEARCH_DOMAIN",
    "SearchNode",
    "UctPolicy",
    "ExpressionPolicy",
    "draw_index",
    "check_uct_constant",
    "compile_chooser",
    "scorer_descent",
    "create_root",
    "select",
    "expand",
    "rollout",
    "backpropagate",
    "run_iteration",
    "run_search",
    "best_child",
    "check_count",
]


class SearchNode:
    """One state in the search tree.

    ``untried`` holds the actions not yet expanded; a terminal node has
    neither children nor untried actions.  ``total_reward / visits`` is
    the mean reward backed up through this node.  Links point down only,
    to ``children``; the search path a selection returns is what leads
    back up.
    """

    __slots__ = ("state", "children", "untried", "visits", "total_reward")

    def __init__(self, state, untried=None):
        self.state = state
        self.children: list = []
        self.untried: list = list(untried) if untried is not None else []
        self.visits = 0
        self.total_reward = 0.0

    @property
    def q(self) -> float:
        return self.total_reward / self.visits

    def count_nodes(self) -> int:
        # An explicit stack: a recursion would cost frames per level.
        count = 0
        stack = [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count

    def __repr__(self):
        return (
            f"SearchNode(state={self.state!r}, visits={self.visits}, "
            f"total_reward={self.total_reward}, children={len(self.children)})"
        )


def draw_index(rng: random.Random, n: int) -> int:
    """The index ``rng.randrange(n)`` would draw, for ``n >= 1``.

    Written as CPython 3.11's ``randrange(n)`` draws it:
    ``getrandbits(n.bit_length())``, drawn again while the value is
    ``>= n``.  The value and the RNG state afterwards are the same as
    with ``randrange``, without its two Python-level frames.  The engine
    and every compiled descent make each index pick through it.
    """
    k = n.bit_length()
    i = rng.getrandbits(k)
    while i >= n:
        i = rng.getrandbits(k)
    return i


def _descent_factory(level_lines: list, child_lines: list, score: str, free: tuple = ()):
    """Build ``make(*free) -> descend``, the one descent skeleton.

    At each level of ``descend(node, rng) -> path`` the ``level_lines``
    run once (they may read ``node``), then for each ``child`` the
    ``child_lines``, after which the expression ``score`` is the child's
    score.  Among children tied exactly at the top it moves to the one at
    ``draw_index(rng, len(ties))`` in creation order: a single winner
    leaves the RNG untouched.  ``pick`` is set only on a score above the
    running best, which starts at -inf, so a level that scores no child
    above -inf raises ValueError.  The lines may call ``log`` and
    ``sqrt`` and read the names in ``free``, bound by each call of
    ``make``; the descent calls the ``draw_index`` this module holds
    when the factory is built.
    """
    source = "\n".join(
        [
            f"def make({', '.join(free)}):",
            "    def descend(node, rng):",
            "        path = [node]",
            "        while not node.untried and node.children:",
            *["            " + line for line in level_lines],
            "            best = _NEG_INF",
            "            pick = ties = None",
            "            for child in node.children:",
            *["                " + line for line in child_lines],
            f"                if {score} > best:",
            f"                    best = {score}",
            "                    pick = child",
            "                    ties = None",
            f"                elif {score} == best:",
            "                    if ties is None:",
            "                        ties = [pick, child]",
            "                    else:",
            "                        ties.append(child)",
            "            if pick is None:",
            '                raise ValueError("selection scored no child above -inf")',
            "            node = pick if ties is None else ties[draw_index(rng, len(ties))]",
            "            path.append(node)",
            "        return path",
            "    return descend",
        ]
    )
    namespace = {"log": math.log, "sqrt": math.sqrt, "_NEG_INF": -math.inf, "draw_index": draw_index}
    exec(compile(source, "<compiled descent>", "exec"), namespace)
    # Popped, so the function is not in the globals it holds: no cycle.
    return namespace.pop("make")


# formula_code's names for the statistics (compiled on first use, not at
# import), and the operators to which an int count up to 2^53 gives its
# float's bits: log and sqrt convert it to the same double, and true
# division is correctly rounded.
_STATISTIC = r"\b(q|n_parent|n_child)\b"
_INT_EXACT = ("log", "sqrt", "div")


def compile_chooser(expression: Expression, domain: dict | None = None):
    """Build the search's ``descend(node, rng) -> path`` from the tree.

    The :func:`_descent_factory` walk around the tree's
    :func:`~evomcts.expr.formula_code` over ``domain``, scoring each
    child ``c`` with the bits of ``evaluate(expression, NodeContext(
    c.total_reward / c.visits, node.visits, c.visits))``, for statistics
    in ``domain`` when one is given.  Only the statistics the tree reads
    are fetched, and one read once is written where it is read (Np read
    per child is still fetched once per level).  A count is converted
    with ``float()``, as ``evaluate`` does, unless ``domain`` bounds the
    counts within 2^53 and each read of it is a direct operand of
    ``log``, ``sqrt`` or a division, which give its float's bits from
    the int.  A sum or product of counts can pass 2^53 as an exact int
    and round differently, and a bare count would score as an int.
    """
    per_level, per_child, result, reads = formula_code(expression, domain)
    if "Q" in reads:  # q divides the total reward by n_child
        reads.setdefault("Nc", []).append("div")
    ints = domain is not None and all(abs(x) <= 2.0**53 for n in ("Np", "Nc") for x in domain[n])
    fetch, level_lines, child_lines = {}, [], []

    def fetched(line: str) -> str:
        return re.sub(_STATISTIC, lambda match: fetch[match[1]], line)

    for stat, local, source, lines in (
        ("Np", "n_parent", "node.visits", level_lines),
        ("Nc", "n_child", "child.visits", child_lines),
        ("Q", "q", "child.total_reward / n_child", child_lines),
    ):
        readers = reads.get(stat)
        if not readers:
            continue
        source = fetched(source)
        if stat != "Q" and not (ints and all(op in _INT_EXACT for op in readers)):
            source = f"float({source})"
        once = len(readers) == 1 and readers[0] is not None
        if once and not (stat == "Np" and any(local in line for line in per_child)):
            fetch[local] = f"({source})"
        else:
            lines.append(f"{local} = {source}")
            fetch[local] = local
    level_lines += map(fetched, per_level)
    child_lines += map(fetched, per_child)
    return _descent_factory(level_lines, child_lines, fetched(result))()


_make_scored_descent = _descent_factory(
    ["n_parent = float(node.visits)"],
    ["n_child = float(child.visits)", "s = score(child.total_reward / n_child, n_parent, n_child)"],
    "s",
    ("score",),
)


def scorer_descent(expression: Expression, domain: dict | None = None):
    """The search's ``descend(node, rng) -> path`` for the tree, compiling no formula:
    the skeleton compiled at import around one
    :func:`~evomcts.expr.build_scorer` call per child, with the paths and
    RNG state of :func:`compile_chooser`'s descent over the same ``domain``.
    """
    return _make_scored_descent(build_scorer(expression, domain))


class ExpressionPolicy:
    """Score children with an expression tree: ``descend`` is the tree
    compiled by :func:`compile_chooser` over :data:`SEARCH_DOMAIN`, and
    ``__call__`` scores one child through :func:`~evomcts.expr.evaluate`,
    with the same bits on the search's statistics."""

    def __init__(self, expression: Expression):
        self.expression = expression
        self.descend = compile_chooser(expression, SEARCH_DOMAIN)

    def __call__(self, q: float, n_parent: int, n_child: int) -> float:
        return evaluate(self.expression, NodeContext(q, n_parent, n_child))

    def __repr__(self):
        return f"ExpressionPolicy({str(self.expression)!r})"


def check_uct_constant(c: float) -> float:
    """``c`` as a float, if ``uct_seed(c)`` is UCB1's closed form over
    :data:`SEARCH_DOMAIN`; else ValueError.  It is unless ``c`` is not
    finite (inf scores every child inf, NaN none) or a score reaches the
    saturation at +-``MAX_ABS``: the bonus ``sqrt(2 ln Np / Nc)``
    reaches about 8.57, so ``|c|`` above about 1.17e299 does."""
    if not math.isfinite(c):
        raise ValueError(f"uct exploration constant must be finite, got {c!r}")
    c = float(c)
    lo, hi = value_range(uct_seed(c), SEARCH_DOMAIN)
    if not -MAX_ABS < lo <= hi < MAX_ABS:
        raise ValueError(
            f"uct exploration constant {c!r} is too large: UCB1 scores would reach "
            f"the formula's saturation at +-{MAX_ABS!r}"
        )
    return c


class UctPolicy(ExpressionPolicy):
    """UCB1, q + c * sqrt(2 * ln(n_parent) / n_child): the policy of the
    tree ``uct_seed(c)``, for a ``c`` that :func:`check_uct_constant`
    accepts."""

    def __init__(self, c: float):
        self.c = check_uct_constant(c)
        super().__init__(uct_seed(self.c))

    # Its own entry, so that a tracer can count UCB1's calls apart.
    __call__ = ExpressionPolicy.__call__

    def __repr__(self):
        return f"UctPolicy(c={self.c!r})"


def create_root(env) -> SearchNode:
    """Fresh single-node tree for an environment."""
    state = env.initial_state()
    return SearchNode(state, untried=None if env.is_terminal(state) else env.actions(state))


def select(root: SearchNode, policy, rng: random.Random) -> list:
    """The policy's descent from ``root``: the search path to an
    expandable or terminal node (see the module docstring).  Only visited
    children exist, so every scored child has visits >= 1."""
    return policy.descend(root, rng)


def expand(node: SearchNode, env, rng: random.Random) -> SearchNode:
    """Materialise one uniformly chosen untried action as a new child."""
    untried = node.untried
    if not untried:
        raise ValueError("node has no untried actions")
    action = untried.pop(draw_index(rng, len(untried)))
    state = env.apply(node.state, action)
    child = SearchNode(state, None if env.is_terminal(state) else env.actions(state))
    node.children.append(child)
    return child


def rollout(node: SearchNode, env, rng: random.Random) -> float:
    """Uniform random playout to a terminal state, then one reward draw.

    Starting at a terminal node the playout has length zero and the
    reward is sampled immediately.
    """
    return env.sample_reward(env.playout(node.state, rng), rng)


def backpropagate(path: list, reward: float) -> None:
    """Add one visit and the reward to every node on the search path."""
    for node in path:
        node.visits += 1
        node.total_reward += reward


def run_iteration(root: SearchNode, policy, env, rng: random.Random):
    """One select/expand/rollout/backpropagate cycle.

    The expanded child is appended to the path ``select`` returns, and
    the rollout's reward is backed up along that path.  Returns the newly
    expanded node, or None when selection ended on a terminal node (which
    is then re-rolled-out and backed up, so every iteration consumes
    exactly one reward draw and root.visits grows by one either way).
    """
    path = select(root, policy, rng)
    node = path[-1]
    expanded = None
    if node.untried:
        expanded = expand(node, env, rng)
        path.append(expanded)
        node = expanded
    reward = rollout(node, env, rng)
    backpropagate(path, reward)
    return expanded


def run_search(env, policy, iterations: int, rng: random.Random):
    """Run a full search from a fresh root.

    Returns ``(root, expansion_log)`` where the log holds one
    ``(iteration_index, centre)`` pair per expansion, in order.
    Iterations that re-select an already-expanded terminal node consume
    budget without logging anything.
    """
    check_count("iterations", iterations, 1)
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
    return ties[0] if len(ties) == 1 else ties[draw_index(rng, len(ties))]


def check_count(name: str, value, minimum: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, and at
    least ``minimum`` (when given).

    A float or a bool passes a bare ``value < 1`` test, and then fails
    late or runs the wrong experiment: ``2.5`` raises TypeError deep in
    a run, ``1.0`` formats as ``"1.0"`` where a seed key wants ``"1"``,
    and ``True`` counts as 1.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
