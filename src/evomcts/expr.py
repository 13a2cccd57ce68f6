"""Expression trees used as tree-search selection formulas.

An expression is a small immutable tree over three statistics of a
parent/child pair in the search tree (mean reward ``Q``, parent visit
count ``Np``, child visit count ``Nc``) plus numeric constants.  The
operator set is deliberately tiny and every operator is total: division,
logarithm and square root are protected so that evaluation always yields
a finite float, whatever the expression shape.

Trees serialise to S-expressions, e.g. the classic UCB1 selection rule
with exploration constant sqrt(2)::

    (add Q (mul (k 1.4142135623730951) (sqrt (div (mul (k 2.0) (log Np)) Nc))))

and :func:`parse` / ``str()`` round-trip exactly (constants are printed
with ``repr`` so no precision is lost).

The operators' semantics are written once, as the statements of
``_OP_CODE`` (protected division as ``1.0 if abs(b) < 0.001 else a /
b``, protected log as ``0.0 if ax < 0.001 else log(ax)``, saturation as
a conditional at +-1e300), and a tree is scored only through them.
:func:`compile_chooser` turns a tree into Python source once, for the
search, which scores it many times: ``descend(node, rng)`` walks a
search tree from ``node`` to the node to expand in one call and returns
the path it walked.  Every operator is written inline rather than as a
helper call, and the subtrees that read only ``Np`` and constants are
computed once per level, before the child loop.
:func:`compile_descent` is the one descent compiler: it wraps those
lines, or ``UctPolicy``'s closed-form UCB1 lines, in the walk, and the
selection half of the RNG protocol in ``mcts``'s docstring (ties kept in
creation order, one ``draw_index`` draw only on a tie) is written there
and nowhere else.  :func:`build_scorer` runs the same statements
through closures, compiling nothing, and :func:`evaluate` scores one
edge context with it.

A formula takes one of two routes to ``descend``, by how often it will
score.  :func:`compile_chooser` pays ``compile()`` once, about 370 us
for an evolved formula (1,600 offspring of 20 evolved runs, 9.4 nodes
on average), and then scores a child in about 0.56 us: the route for a
formula deployed for thousands of iterations.  :func:`scorer_descent`
compiles nothing: it builds :func:`build_scorer`'s closures, one per
operator node (about 8 us per formula), and hands them to the same
walk; a child then costs about 0.97 us.  The two break even near 870
scored children, and an offspring's 30-iteration fitness evaluation
scores a few hundred, so it takes the closure route.  Both give the
same paths and RNG states, bit for bit.  The closure route's walk and
its operator factories are compiled once, at import (about 7 ms).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "NodeContext",
    "Expression",
    "Const",
    "Var",
    "Func",
    "K_VALUES",
    "DEFAULT_MAX_DEPTH",
    "evaluate",
    "draw_index",
    "compile_descent",
    "compile_chooser",
    "build_scorer",
    "scorer_descent",
    "uct_seed",
    "random_subtree",
    "mutate",
    "parse",
]

#: Values a constant leaf may take when grown or mutated.
K_VALUES = (0.5, 1.0, math.sqrt(2.0), 2.0, 3.0)

#: Global cap on expression depth (a lone leaf has depth 1).
DEFAULT_MAX_DEPTH = 8

# Inputs with magnitude below this threshold trigger the protected
# fallbacks of div and log.
_PROTECT_EPS = 1e-3

# Binary operator results saturate here so that towers of mul/add can
# never overflow to infinity; keeps evaluation total over float64.
_MAX_ABS = 1e300

_VAR_NAMES = ("Q", "Np", "Nc")
_BINARY_OPS = ("add", "sub", "mul", "div")
_UNARY_OPS = ("log", "sqrt")
_OP_NAMES = _BINARY_OPS + _UNARY_OPS


class NodeContext(NamedTuple):
    """Statistics of one parent/child edge, as seen by a selection formula.

    ``q`` is the child's mean rollout reward (in [0, 1] once visited),
    ``n_parent`` the parent's visit count (>= 1) and ``n_child`` the
    child's visit count (>= 1; unvisited children are never scored).
    """

    q: float
    n_parent: float
    n_child: float


@dataclass(frozen=True)
class Const:
    """Constant leaf."""

    value: float

    def __post_init__(self):
        # Also keeps repr(value) a valid literal for compile_chooser.
        if not math.isfinite(self.value):
            raise ValueError(f"constant must be finite, got {self.value!r}")

    def _depth(self) -> int:
        return 1

    def _write(self, out: list) -> None:
        out.append(f"(k {self.value!r})")


@dataclass(frozen=True)
class Var:
    """Statistic leaf: one of Q, Np, Nc."""

    name: str

    def __post_init__(self):
        if self.name not in _VAR_NAMES:
            raise ValueError(f"unknown variable {self.name!r}")

    def _depth(self) -> int:
        return 1

    def _write(self, out: list) -> None:
        out.append(self.name)


@dataclass(frozen=True)
class Func:
    """Operator node: add/sub/mul/div (binary) or log/sqrt (unary)."""

    op: str
    args: tuple

    def __post_init__(self):
        if self.op in _BINARY_OPS:
            arity = 2
        elif self.op in _UNARY_OPS:
            arity = 1
        else:
            raise ValueError(f"unknown operator {self.op!r}")
        if len(self.args) != arity:
            raise ValueError(f"{self.op} expects {arity} argument(s), got {len(self.args)}")

    def _depth(self) -> int:
        return 1 + max(child._depth() for child in self.args)

    def _write(self, out: list) -> None:
        out.append(f"({self.op}")
        for child in self.args:
            out.append(" ")
            child._write(out)
        out.append(")")


@dataclass(frozen=True)
class Expression:
    """Immutable expression tree; ``str()`` yields the S-expression form."""

    root: Const | Var | Func

    def depth(self) -> int:
        return self.root._depth()

    def __str__(self) -> str:
        out: list = []
        self.root._write(out)
        return "".join(out)


def draw_index(rng: random.Random, n: int) -> int:
    """The index ``rng.randrange(n)`` would draw, for ``n >= 1``.

    Written as CPython 3.11's ``randrange(n)`` draws it:
    ``getrandbits(n.bit_length())``, drawn again while the value is
    ``>= n``.  The value and the RNG state afterwards are the same as
    with ``randrange``, without its two Python-level frames.  The search
    engine and the compiled descent make every index pick through it.
    """
    k = n.bit_length()
    i = rng.getrandbits(k)
    while i >= n:
        i = rng.getrandbits(k)
    return i


# Compiled formulas write every operator inline, as the statements below
# (``{r}`` the result, ``{a}``/``{b}`` the operands), and scorer closures
# run the same statements, so both routes take the same branch on every
# input.  The comparisons are written so that NaN fails each of them: a
# NaN divisor divides and a NaN result passes the saturation unchanged.
# Saturation is one conditional expression rather than an if/elif
# statement: the same tests, but cheaper to compile.
_SATURATE = (
    f"{{r}} = {_MAX_ABS!r} if {{r}} > {_MAX_ABS!r} "
    f"else {-_MAX_ABS!r} if {{r}} < {-_MAX_ABS!r} else {{r}}"
)
_OP_CODE = {
    "add": ("{r} = {a} + {b}", _SATURATE),
    "sub": ("{r} = {a} - {b}", _SATURATE),
    "mul": ("{r} = {a} * {b}", _SATURATE),
    "div": (f"{{r}} = 1.0 if abs({{b}}) < {_PROTECT_EPS!r} else {{a}} / {{b}}", _SATURATE),
    "log": ("{r} = abs({a})", f"{{r}} = 0.0 if {{r}} < {_PROTECT_EPS!r} else log({{r}})"),
    "sqrt": ("{r} = sqrt(abs({a}))",),
}
_VAR_CODE = {"Q": ("q", True), "Np": ("n_parent", False), "Nc": ("n_child", True)}


def _emit(node, per_node: list, per_child: list, reads: set) -> tuple:
    # Returns ``(operand, varies)``: the operand naming this node's value
    # and whether it reads Q or Nc.  Operators whose subtree reads only Np
    # and constants go to ``per_node``, the rest to ``per_child``; each
    # operator writes a fresh name, so no tree is too deep for the compiler.
    # ``reads`` collects the names of the variables the tree reads.
    kind = type(node)
    if kind is Const:
        return repr(node.value), False
    if kind is Var:
        reads.add(node.name)
        return _VAR_CODE[node.name]
    operands = []
    varies = False
    for child in node.args:
        operand, child_varies = _emit(child, per_node, per_child, reads)
        operands.append(operand)
        varies = varies or child_varies
    name = f"t{len(per_node) + len(per_child)}"
    code = _OP_CODE[node.op]
    b = operands[1] if len(operands) == 2 else None
    (per_child if varies else per_node).extend(
        line.format(r=name, a=operands[0], b=b) for line in code
    )
    return name, varies


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


def compile_chooser(expression: Expression):
    """Build the search's ``descend(node, rng) -> path`` from the tree.

    The :func:`compile_descent` walk, scoring each child ``c`` bit for
    bit as ``evaluate(expression, NodeContext(c.total_reward /
    c.visits, node.visits, c.visits))`` does.

    Constants are written with ``repr`` (exact for the finite floats
    ``Const`` admits), Np and Nc are converted with ``float()`` as
    :func:`evaluate` does, and each operator is written inline as its
    ``_OP_CODE`` statements.  The operators whose subtree reads only Np
    and constants run once per level, before the child loop, and only
    the statistics the tree reads are fetched.  ``q`` divides by ``float(c.visits)`` when Nc is read
    too, which gives the same bits as dividing by the int.
    """
    per_node: list = []
    per_child: list = []
    reads: set = set()
    result, _ = _emit(expression.root, per_node, per_child, reads)
    level_lines = ["n_parent = float(node.visits)"] if "Np" in reads else []
    child_lines = []
    if "Nc" in reads:
        child_lines.append("n_child = float(child.visits)")
    if "Q" in reads:
        visits = "n_child" if "Nc" in reads else "child.visits"
        child_lines.append(f"q = child.total_reward / {visits}")
    return compile_descent(level_lines + per_node, child_lines + per_child, result)


# How an operator's closure reads an operand: a variable inline, "k" a
# constant bound when the closure is made, "f" a call to the operand's
# own closure.
_OPERAND_KINDS = ("Q", "Np", "Nc", "k", "f")


def _operator_scorers() -> dict:
    # ``make(a, b) -> score`` for each operator and each kind of its
    # operands, where ``score(q, n_parent, n_child)`` runs the
    # operator's _OP_CODE lines, the ones compiled formulas run inline.
    # ``a`` and ``b`` are the constants and the closures the operands
    # need.  A closure operand read twice is called once, first;
    # closures are pure, so the order of the calls changes no result.
    lines = []
    names = {}
    for op, code in _OP_CODE.items():
        args = ("a", "b") if op in _BINARY_OPS else ("a",)
        for kinds in itertools.product(_OPERAND_KINDS, repeat=len(args)):
            names[(op, *kinds)] = name = "_".join(("make", op, *kinds))
            lines += [f"def {name}({', '.join(args)}):", "    def score(q, n_parent, n_child):"]
            operands = {}
            for x, kind in zip(args, kinds):
                if kind != "f":
                    operands[x] = x if kind == "k" else _VAR_CODE[kind][0]
                elif "".join(code).count(f"{{{x}}}") == 1:
                    operands[x] = f"{x}(q, n_parent, n_child)"
                else:
                    lines.append(f"        {x}v = {x}(q, n_parent, n_child)")
                    operands[x] = f"{x}v"
            lines += ["        " + line.format(r="r", **operands) for line in code]
            lines += ["        return r", "    return score"]
    namespace = {"log": math.log, "sqrt": math.sqrt}
    exec(compile("\n".join(lines), "<operator scorers>", "exec"), namespace)
    return {key: namespace.pop(name) for key, name in names.items()}


_OP_SCORERS = _operator_scorers()
_VAR_SCORERS = {
    "Q": lambda q, n_parent, n_child: q,
    "Np": lambda q, n_parent, n_child: n_parent,
    "Nc": lambda q, n_parent, n_child: n_child,
}


def _scorer(func):
    # The closure of an operator node: one frame per tree level, built
    # and called.
    kinds, made_with = [], []
    for child in func.args:
        kind = type(child)
        if kind is Func:
            kinds.append("f")
            made_with.append(_scorer(child))
        elif kind is Const:
            kinds.append("k")
            made_with.append(child.value)
        else:
            kinds.append(child.name)
            made_with.append(None)
    return _OP_SCORERS[(func.op, *kinds)](*made_with)


def build_scorer(expression: Expression):
    """Build ``score(q, n_parent, n_child)`` from the tree, without compiling.

    Each operator node is one closure that runs the statements a
    compiled formula runs inline for it, in the same order, so for
    float ``n_parent`` and ``n_child`` a score has the bits of the
    compiled formula's: NaN, -0.0, the 0.001 guards and the saturation
    at +-1e300 take the same branches.  A variable or constant at the
    root is returned as it is given.
    An operator reads a variable or constant operand inline and calls
    the closure of an operator operand.  The closures are made by one
    factory per operator and kinds of operand, all compiled once, at
    import; building a scorer compiles nothing.
    """
    root = expression.root
    kind = type(root)
    if kind is Func:
        return _scorer(root)
    if kind is Const:
        value = root.value
        return lambda q, n_parent, n_child: value
    return _VAR_SCORERS[root.name]


def evaluate(expression: Expression, ctx: NodeContext) -> float:
    """Score the tree on one edge context.

    The bits ``build_scorer(expression)`` returns for ``ctx.q`` and the
    two visit counts as floats, as a descent converts them.  Total over
    finite inputs: the protected operators and the saturation of the
    binary operators at +-1e300 give a finite float for every expression
    built from the declared operator set.  The closures are built on
    every call; a search builds them, or compiles the tree, once.
    """
    return build_scorer(expression)(ctx.q, float(ctx.n_parent), float(ctx.n_child))


_make_scored_descent = _descent_factory(
    ["n_parent = float(node.visits)"],
    ["n_child = float(child.visits)", "s = score(child.total_reward / n_child, n_parent, n_child)"],
    "s",
    ("score",),
)


def scorer_descent(expression: Expression):
    """The search's ``descend(node, rng) -> path`` for the tree, compiling nothing.

    The :func:`_descent_factory` walk, compiled once, at import, around
    one :func:`build_scorer` call per child: the same paths and RNG
    state as :func:`compile_chooser`'s descent, at no ``compile()``
    cost, but with one Python call per operator node and child.
    """
    return _make_scored_descent(build_scorer(expression))


def uct_seed(c: float) -> Expression:
    """The UCB1 selection rule Q + c*sqrt(2*ln(Np)/Nc) as an expression tree.

    This is the individual every evolutionary run starts from; with the
    statistics produced by the search engine (Np >= 1, Nc >= 1) none of
    the protected fallbacks fire, so the tree evaluates exactly like the
    closed-form rule.
    """
    bonus = Func(
        "sqrt",
        (Func("div", (Func("mul", (Const(2.0), Func("log", (Var("Np"),)))), Var("Nc"))),),
    )
    return Expression(Func("add", (Var("Q"), Func("mul", (Const(float(c)), bonus)))))


def _random_terminal(rng: random.Random):
    # Terminal kinds are uniform over {Q, Np, Nc, constant}; a constant
    # draws its value uniformly from K_VALUES.
    kind = rng.randrange(4)
    if kind == 3:
        return Const(K_VALUES[rng.randrange(len(K_VALUES))])
    return Var(_VAR_NAMES[kind])


def _grow(depth_left: int, rng: random.Random):
    # Below the depth budget, operator vs terminal is a fair coin; at the
    # budget a terminal is forced.  RNG order: coin, operator, children
    # left to right.
    if depth_left > 1 and rng.random() < 0.5:
        op = _OP_NAMES[rng.randrange(len(_OP_NAMES))]
        arity = 2 if op in _BINARY_OPS else 1
        args = tuple(_grow(depth_left - 1, rng) for _ in range(arity))
        return Func(op, args)
    return _random_terminal(rng)


def random_subtree(max_depth: int, rng: random.Random) -> Expression:
    """Grow a random expression of depth at most ``max_depth`` (>= 1)."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    return Expression(_grow(max_depth, rng))


def _collect(node, depth: int, path: tuple, internal: list, leaves: list) -> None:
    if type(node) is Func:
        internal.append((path, depth))
        for i, child in enumerate(node.args):
            _collect(child, depth + 1, path + (i,), internal, leaves)
    else:
        leaves.append((path, depth))


def _replace(node, path: tuple, replacement):
    if not path:
        return replacement
    i = path[0]
    args = list(node.args)
    args[i] = _replace(args[i], path[1:], replacement)
    return Func(node.op, tuple(args))


def mutate(expression: Expression, rng: random.Random) -> Expression:
    """Subtree mutation: regrow a random point within the depth cap.

    The mutation point is an internal (operator) node with probability
    0.9 and a leaf with probability 0.1, uniform within the chosen kind;
    a tree with no internal node mutates a leaf directly (no coin spent).
    The replacement is grown with the depth budget remaining below the
    chosen point, so the result never exceeds ``DEFAULT_MAX_DEPTH``.
    The input expression is never modified.
    """
    internal: list = []
    leaves: list = []
    _collect(expression.root, 1, (), internal, leaves)
    if internal and rng.random() < 0.9:
        path, depth = internal[rng.randrange(len(internal))]
    else:
        path, depth = leaves[rng.randrange(len(leaves))]
    budget = DEFAULT_MAX_DEPTH - depth + 1
    if budget < 1:
        raise ValueError(f"expression deeper than {DEFAULT_MAX_DEPTH}")
    replacement = _grow(budget, rng)
    return Expression(_replace(expression.root, path, replacement))


def _tokenise(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_tokens(tokens: list, pos: int):
    if pos >= len(tokens):
        raise ValueError("unexpected end of expression")
    tok = tokens[pos]
    if tok == ")":
        raise ValueError("unexpected ')'")
    if tok != "(":
        if tok in _VAR_NAMES:
            return Var(tok), pos + 1
        raise ValueError(f"unexpected token {tok!r}")
    head = tokens[pos + 1] if pos + 1 < len(tokens) else None
    if head == "k":
        if pos + 3 >= len(tokens) or tokens[pos + 3] != ")":
            raise ValueError("malformed constant")
        try:
            value = float(tokens[pos + 2])
        except ValueError:
            raise ValueError(f"bad constant {tokens[pos + 2]!r}") from None
        return Const(value), pos + 4
    if head not in _OP_NAMES:
        raise ValueError(f"unknown operator {head!r}")
    arity = 2 if head in _BINARY_OPS else 1
    args = []
    pos += 2
    for _ in range(arity):
        node, pos = _parse_tokens(tokens, pos)
        args.append(node)
    if pos >= len(tokens) or tokens[pos] != ")":
        raise ValueError(f"missing ')' after {head}")
    return Func(head, tuple(args)), pos + 1


def parse(text: str) -> Expression:
    """Parse the S-expression form produced by ``str(expression)``."""
    tokens = _tokenise(text)
    if not tokens:
        raise ValueError("empty expression")
    node, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens: {' '.join(tokens[pos:])}")
    return Expression(node)
