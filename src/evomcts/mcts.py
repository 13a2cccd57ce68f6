"""Monte Carlo tree search engine with pluggable selection formulas.

The engine is generic over an environment object providing
``initial_state() / actions(s) / apply(s, a) / is_terminal(s) /
playout(s, rng) / sample_reward(s, rng) / centre(s)``; ``playout``
walks uniformly at random from ``s`` to a terminal state and returns it.

A selection policy provides ``descend(node, rng) -> path``, which
``select`` calls once per iteration.  From ``node``, while the node has
no untried action and has children, it scores every child from its mean
reward ``q``, the parent's visit count and its own visit count (both
ints >= 1, the fields of :class:`~evomcts.expr.NodeContext`) and moves
to the child with the top score; it returns the search path, the list
of nodes from ``node`` down to the node it stops at, both included, and
raises ValueError when no child of a level scores above -inf.  The path
is the only record of ancestry, and backpropagation walks it: a node
has no link to its parent, so a tree holds no reference cycle and is
freed as soon as its root is dropped.  Each policy also scores one
child when called as ``policy(q, n_parent, n_child)``, with the
arithmetic of its ``descend``.

Selection lives in this module alone.  Every ``descend`` is one
skeleton, :func:`_descent_factory`: the walk, the tie bookkeeping, the
tie-break draw and the -inf check are written there once, around the
lines that score a child.  Two policies are provided.
:class:`UctPolicy` compiles it around closed-form UCB1 with a fixed
exploration constant (:func:`compile_descent`), and
:class:`ExpressionPolicy` around the statements
:func:`~evomcts.expr.formula_code` writes for an expression tree
(:func:`compile_chooser`).  A formula takes one of two routes to a
``descend``, by how often it will score.  :func:`compile_chooser` pays
``compile()`` once, about 0.26 ms for an evolved formula (7.6 nodes on
average), and a child then costs about 0.24 us: the route for a formula
deployed for thousands of iterations.  :func:`scorer_descent` compiles
no formula: it builds :func:`~evomcts.expr.build_scorer`'s closures, in
about 17 us, and hands them to one copy of the skeleton, compiled at
import; a child then costs about 0.29 us.  The two break even near
5,000 scored children, and an offspring's 30-iteration fitness
evaluation scores a few hundred, so ``siea`` takes the closure route.
Both give the same paths and RNG states, bit for bit.

The search domain.  A child's mean reward is a mean of rewards in
[0, 1], never -0.0, and a visit count is an int >= 1, exact as a float
up to 2^53: :data:`SEARCH_DOMAIN`.  Each route takes a ``domain``, and
the searches pass this one: :class:`ExpressionPolicy` compiles its tree
over it, and ``siea`` builds each offspring's closures over it.  A
formula so built keeps only the guards the search's statistics can
trigger (:mod:`evomcts.expr` says which it drops, and why -0.0 and
``log`` need care), so it gives the full formula's bits on the domain
and need not off it; the UCB1 seed tree keeps no guard at all, and runs
:class:`UctPolicy`'s operations in its order.  Without a domain both
routes keep every guard and match :func:`~evomcts.expr.evaluate` on any
float input.

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

from .expr import Expression, NodeContext, build_scorer, evaluate, formula_code

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
    "compile_descent",
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

    ``descend(node, rng) -> path`` serves UCB1, compiled formulas and
    scorer-built formulas alike.  From ``node``, while the node has no
    untried action and has children, it runs ``level_lines`` once (they
    may read ``node``), then for each ``child`` the ``child_lines``,
    after which the expression ``score`` is the child's score, and it
    moves to the child with the top score.  When several children tie
    exactly at the top it moves to the one at ``draw_index(rng,
    len(ties))`` among them in creation order: a single winner leaves
    the RNG untouched, and the list of ties is built only on a tie.
    Returns the path walked, the nodes from ``node`` to the node it
    stops at, both included; raises ValueError when no child of a level
    scores above -inf (``pick`` is set only on a score above the running
    best, which starts at -inf).

    The lines may call ``log`` and ``sqrt``, and read the names in
    ``free``, which are bound by each call of ``make``.  The descent
    calls the ``draw_index`` this module holds when the factory is built.
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
    namespace = {
        "log": math.log,
        "sqrt": math.sqrt,
        "_NEG_INF": -math.inf,
        "draw_index": draw_index,
    }
    exec(compile(source, "<compiled descent>", "exec"), namespace)
    # Popped, so the function is not in the globals it holds: no cycle.
    return namespace.pop("make")


def compile_descent(level_lines: list, child_lines: list, score: str):
    """Compile ``descend(node, rng) -> path`` around one scoring rule
    written as source lines: the :func:`_descent_factory` skeleton with
    no free names."""
    return _descent_factory(level_lines, child_lines, score)()


def compile_chooser(expression: Expression, domain: dict | None = None):
    """Build the search's ``descend(node, rng) -> path`` from the tree.

    The :func:`compile_descent` walk, scoring each child ``c`` bit for
    bit as ``evaluate(expression, NodeContext(c.total_reward /
    c.visits, node.visits, c.visits))`` does: the statements of
    :func:`~evomcts.expr.formula_code`, with their per-level part run
    once per level, before the child loop.  Only the statistics the tree
    reads are fetched, and Np and Nc are converted with ``float()`` as
    ``evaluate`` does.  ``q`` divides by ``float(c.visits)`` when Nc is
    read too, which gives the same bits as dividing by the int.
    ``domain`` goes to ``formula_code``: with :data:`SEARCH_DOMAIN` the
    statements keep only the guards a search's statistics can trigger,
    and the scores hold their bits for statistics in the domain alone.
    """
    per_level, per_child, result, reads = formula_code(expression, domain)
    level_lines = ["n_parent = float(node.visits)"] if "Np" in reads else []
    child_lines = []
    if "Nc" in reads:
        child_lines.append("n_child = float(child.visits)")
    if "Q" in reads:
        visits = "n_child" if "Nc" in reads else "child.visits"
        child_lines.append(f"q = child.total_reward / {visits}")
    return compile_descent(level_lines + per_level, child_lines + per_child, result)


_make_scored_descent = _descent_factory(
    ["n_parent = float(node.visits)"],
    ["n_child = float(child.visits)", "s = score(child.total_reward / n_child, n_parent, n_child)"],
    "s",
    ("score",),
)


def scorer_descent(expression: Expression, domain: dict | None = None):
    """The search's ``descend(node, rng) -> path`` for the tree, compiling no formula.

    The :func:`_descent_factory` walk, compiled once, at import, around
    one :func:`~evomcts.expr.build_scorer` call per child: the same
    paths and RNG state as :func:`compile_chooser`'s descent with the
    same ``domain``, at no ``compile()`` cost, but with one Python call
    per operator node and child.
    """
    return _make_scored_descent(build_scorer(expression, domain))


class UctPolicy:
    """Closed-form UCB1 score: q + c * sqrt(2 * ln(n_parent) / n_child).

    ``descend`` is built by :func:`compile_descent`, with
    ``c`` written into its source and ``2.0 * log(n_parent)`` computed
    once per level: ``2.0 * log(n_parent) / n_child`` evaluates left to
    right, so the hoisting leaves every score unchanged.
    """

    def __init__(self, c: float):
        self.c = float(c)
        # An infinite c scores every child inf, so each level would be an
        # exact tie, and NaN scores none; nor is either repr a float literal.
        if not math.isfinite(self.c):
            raise ValueError(f"uct exploration constant must be finite, got {self.c!r}")
        self.descend = compile_descent(
            ["k = 2.0 * log(node.visits)"],
            ["n = child.visits", f"score = child.total_reward / n + {self.c!r} * sqrt(k / n)"],
            "score",
        )

    def __call__(self, q: float, n_parent: int, n_child: int) -> float:
        return q + self.c * math.sqrt(2.0 * math.log(n_parent) / n_child)

    def __repr__(self):
        return f"UctPolicy(c={self.c!r})"


class ExpressionPolicy:
    """Score children with an expression tree.

    ``select`` calls ``descend``, the tree compiled by
    :func:`compile_chooser` into one function that walks from the root
    to the node to expand and returns the path it walked; ``__call__``
    scores one child through
    :func:`~evomcts.expr.evaluate`, with the same bits on the search's
    statistics: ``descend`` is compiled over :data:`SEARCH_DOMAIN`.
    """

    def __init__(self, expression: Expression):
        self.expression = expression
        self.descend = compile_chooser(expression, SEARCH_DOMAIN)

    def __call__(self, q: float, n_parent: int, n_child: int) -> float:
        return evaluate(self.expression, NodeContext(q, n_parent, n_child))

    def __repr__(self):
        return f"ExpressionPolicy({str(self.expression)!r})"


def create_root(env) -> SearchNode:
    """Fresh single-node tree for an environment."""
    state = env.initial_state()
    return SearchNode(state, untried=None if env.is_terminal(state) else env.actions(state))


def select(root: SearchNode, policy, rng: random.Random) -> list:
    """Descend by policy score until an expandable or terminal node.

    Returns the search path: the nodes from ``root`` to that node, both
    included, in descent order.  Only visited children exist in
    ``children``, so every scored child has visits >= 1.  Exact score
    ties are broken uniformly at random.  Raises ValueError when the
    policy scores no child above -inf (for instance when it returns
    NaN).
    """
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
