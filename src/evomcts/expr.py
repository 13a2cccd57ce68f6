"""Selection formulas written as expression trees.

An expression is a small immutable tree over three statistics of a
parent/child pair in the search tree (mean reward ``Q``, parent visit
count ``Np``, child visit count ``Nc``) plus numeric constants.  The
operator set is deliberately tiny and every operator is total: division,
logarithm and square root are protected so that evaluation always yields
a finite float, whatever the expression shape.  Every node, a ``Const``,
a ``Var`` or a ``Func``, is an :class:`Expression`: the tree below it.

Trees serialise to S-expressions, e.g. the classic UCB1 selection rule
with exploration constant sqrt(2)::

    (add Q (mul (k 1.4142135623730951) (sqrt (div (mul (k 2.0) (log Np)) Nc))))

and :func:`parse` / ``str()`` round-trip exactly (constants are printed
with ``repr`` so no precision is lost).

The operators' semantics are written once, as the statements of
``_OP_CODE`` (protected division as ``1.0 if abs(b) < 0.001 else a /
b``, protected log as ``0.0 if ax < 0.001 else log(ax)``, saturation as
a conditional at +-1e300), and a tree is scored only through them, by
one of two routes.  :func:`formula_code` writes a tree as those
statements over ``q``, ``n_parent`` and ``n_child``, for ``mcts`` to
compile into a search descent.  :func:`build_scorer` runs the same
statements through closures, one per operator node, and compiles no
formula; :func:`evaluate` scores one edge context with it.  The closure
factories, one per operator and kinds of operand, are compiled on first
use, so a process that never builds a scorer compiles none.  This module
knows nothing of the search tree.
"""

from __future__ import annotations

import functools
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
    "formula_code",
    "build_scorer",
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
    child's visit count (>= 1: a child is scored only once visited).
    """

    q: float
    n_parent: float
    n_child: float


class Expression:
    """A node of an expression tree, and the tree below it.

    ``Const``, ``Var`` and ``Func`` are the node kinds.  ``str()`` gives
    the S-expression form and ``depth()`` the depth: a lone leaf has
    depth 1.
    """

    def depth(self) -> int:
        return 1

    def __str__(self) -> str:
        out: list = []
        self._write(out)
        return "".join(out)


@dataclass(frozen=True)
class Const(Expression):
    """Constant leaf."""

    value: float

    def __post_init__(self):
        # Also keeps repr(value) a valid literal for formula_code.
        if not math.isfinite(self.value):
            raise ValueError(f"constant must be finite, got {self.value!r}")

    def _write(self, out: list) -> None:
        out.append(f"(k {self.value!r})")


@dataclass(frozen=True)
class Var(Expression):
    """Statistic leaf: one of Q, Np, Nc."""

    name: str

    def __post_init__(self):
        if self.name not in _VAR_NAMES:
            raise ValueError(f"unknown variable {self.name!r}")

    def _write(self, out: list) -> None:
        out.append(self.name)


@dataclass(frozen=True)
class Func(Expression):
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

    def depth(self) -> int:
        return 1 + max(child.depth() for child in self.args)

    def _write(self, out: list) -> None:
        out.append(f"({self.op}")
        for child in self.args:
            out.append(" ")
            child._write(out)
        out.append(")")


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


def _emit(node, per_level: list, per_child: list, reads: set) -> tuple:
    # Returns ``(operand, varies)``: the operand naming this node's value
    # and whether it reads Q or Nc.
    kind = type(node)
    if kind is Const:
        return repr(node.value), False
    if kind is Var:
        reads.add(node.name)
        return _VAR_CODE[node.name]
    operands = []
    varies = False
    for child in node.args:
        operand, child_varies = _emit(child, per_level, per_child, reads)
        operands.append(operand)
        varies = varies or child_varies
    name = f"t{len(per_level) + len(per_child)}"
    code = _OP_CODE[node.op]
    b = operands[1] if len(operands) == 2 else None
    (per_child if varies else per_level).extend(
        line.format(r=name, a=operands[0], b=b) for line in code
    )
    return name, varies


def formula_code(expression: Expression) -> tuple:
    """The tree as Python statements: ``(per_level, per_child, result, reads)``.

    Each operator is written inline as its ``_OP_CODE`` statements and
    assigns a fresh name, so no tree is too deep for the compiler.  The
    statements read the statistics as the floats ``q``, ``n_parent`` and
    ``n_child``, may call ``log`` and ``sqrt``, and write constants with
    ``repr`` (exact for the finite floats ``Const`` admits).
    ``per_level`` holds the operators whose subtree reads only Np and
    constants, so a caller can run them once per parent; ``per_child``
    holds the rest and runs after them.  ``result`` is the expression
    that then gives the score, and ``reads`` the set of variable names
    (``"Q"``, ``"Np"``, ``"Nc"``) the tree reads.  Run so, the
    statements give the bits of :func:`evaluate`.
    """
    per_level: list = []
    per_child: list = []
    reads: set = set()
    result, _ = _emit(expression, per_level, per_child, reads)
    return per_level, per_child, result, reads


@functools.cache
def _operator_scorer(op: str, *kinds: str):
    # ``make(a[, b]) -> score`` for operator ``op`` over operands of
    # ``kinds``, where ``score(q, n_parent, n_child)`` runs the
    # operator's _OP_CODE lines, the ones formula_code writes inline.  A
    # kind is a variable's name, read inline; "k", a constant passed to
    # ``make``; or "f", a closure passed to ``make`` and called.  A
    # closure operand read twice is called once, first; closures are
    # pure, so the order of the calls changes no result.
    code = _OP_CODE[op]
    args = ("a", "b")[: len(kinds)]
    lines = [f"def make({', '.join(args)}):", "    def score(q, n_parent, n_child):"]
    operands = {}
    for x, kind in zip(args, kinds):
        if kind == "k":
            operands[x] = x
        elif kind != "f":
            operands[x] = _VAR_CODE[kind][0]
        elif "".join(code).count(f"{{{x}}}") == 1:
            operands[x] = f"{x}(q, n_parent, n_child)"
        else:
            lines.append(f"        {x}v = {x}(q, n_parent, n_child)")
            operands[x] = f"{x}v"
    lines += ["        " + line.format(r="r", **operands) for line in code]
    lines += ["        return r", "    return score"]
    namespace = {"log": math.log, "sqrt": math.sqrt}
    exec(compile("\n".join(lines), "<operator scorers>", "exec"), namespace)
    return namespace.pop("make")


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
    return _operator_scorer(func.op, *kinds)(*made_with)


def build_scorer(expression: Expression):
    """Build ``score(q, n_parent, n_child)`` from the tree, compiling no formula.

    Each operator node is one closure that runs the statements
    :func:`formula_code` writes inline for it, in the same order, so for
    float ``n_parent`` and ``n_child`` a score has the bits of the
    compiled formula's: NaN, -0.0, the 0.001 guards and the saturation
    at +-1e300 take the same branches.  A variable or constant at the
    root is returned as it is given.
    An operator reads a variable or constant operand inline and calls
    the closure of an operator operand.  The closures are made by one
    factory per operator and kinds of operand, compiled the first time
    any tree needs it and kept for the life of the process.
    """
    kind = type(expression)
    if kind is Func:
        return _scorer(expression)
    if kind is Const:
        value = expression.value
        return lambda q, n_parent, n_child: value
    return _VAR_SCORERS[expression.name]


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
    return Func("add", (Var("Q"), Func("mul", (Const(float(c)), bonus))))


def _random_terminal(rng: random.Random):
    # Terminal kinds are uniform over {Q, Np, Nc, constant}; a constant
    # draws its value uniformly from K_VALUES.
    kind = rng.randrange(4)
    if kind == 3:
        return Const(K_VALUES[rng.randrange(len(K_VALUES))])
    return Var(_VAR_NAMES[kind])


def _grow(depth_left: int, rng: random.Random):
    # Below the depth budget, operator vs terminal is a fair coin; at the
    # budget a terminal is forced.  RNG order: coin, operator, operands
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
    return _grow(max_depth, rng)


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
    The input expression is never modified.  A tree deeper than the cap
    raises ValueError before any draw.
    """
    internal: list = []
    leaves: list = []
    _collect(expression, 1, (), internal, leaves)
    # The deepest node is a leaf.
    if max(depth for _, depth in leaves) > DEFAULT_MAX_DEPTH:
        raise ValueError(f"expression deeper than {DEFAULT_MAX_DEPTH}")
    if internal and rng.random() < 0.9:
        path, depth = internal[rng.randrange(len(internal))]
    else:
        path, depth = leaves[rng.randrange(len(leaves))]
    replacement = _grow(DEFAULT_MAX_DEPTH - depth + 1, rng)
    return _replace(expression, path, replacement)


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
    return node
