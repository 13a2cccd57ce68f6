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

Both routes take an optional *domain*: a closed interval ``(lo, hi)``
for each of ``Q``, ``Np`` and ``Nc``, the values a caller promises the
statistics keep.  One range pass then walks the tree once, bounding
every node's value, and keeps only the guards that some input in the
domain could trigger.  It drops an operator's saturation when the
unsaturated result lies within +-1e300, div's protected branch when the
divisor's magnitude is at least 0.001 over its whole interval, log's
and sqrt's ``abs`` when the operand cannot be negative, and log's zero
guard when its operand's magnitude is at least 0.001.  On the domain the
pruned statements give the full ones' bits; off it they need not.
"Cannot be negative" excludes -0.0: ``sqrt(-0.0)`` is -0.0 where
``sqrt(abs(-0.0))`` is 0.0, and ``-0.0 >= 0`` holds, so an interval
whose value may be -0.0 keeps -0.0 or less as its lower end (a parsed
``(k -0.0)`` has the interval [-0.0, -0.0]), and only a lower end of
+0.0 or more rules out a negative operand.  ``+ - * /`` and ``sqrt``
round correctly, so the results at the operands' bounds bound every
result; libm's ``log`` is not guaranteed to, so the bounds taken from it
are widened by a relative margin of 1e-12.  An endpoint that comes out
NaN leaves the interval unbounded.  Without a domain both routes give
the full statements on every input.
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
# The same operators with some guards dropped, by operator and the guards
# kept: "abs" (the absolute value log and sqrt take), "protect" (the
# 0.001 guard of div and log) and "saturate".  With every guard kept an
# operator is its _OP_CODE statements, which are not repeated here.
_PRUNED_CODE = {
    ("add", ()): ("{r} = {a} + {b}",),
    ("sub", ()): ("{r} = {a} - {b}",),
    ("mul", ()): ("{r} = {a} * {b}",),
    ("div", ("protect",)): (_OP_CODE["div"][0],),
    ("div", ("saturate",)): ("{r} = {a} / {b}", _SATURATE),
    ("div", ()): ("{r} = {a} / {b}",),
    ("log", ("abs",)): ("{r} = log(abs({a}))",),
    ("log", ("protect",)): (f"{{r}} = 0.0 if {{a}} < {_PROTECT_EPS!r} else log({{a}})",),
    ("log", ()): ("{r} = log({a})",),
    ("sqrt", ()): ("{r} = sqrt({a})",),
}
_VAR_CODE = {"Q": ("q", True), "Np": ("n_parent", False), "Nc": ("n_child", True)}

# libm's log need not round correctly, so the range pass widens each
# bound it takes from log by this share of its magnitude.
_LOG_MARGIN = 1e-12


def _statements(op: str, kept: tuple) -> tuple:
    return _PRUNED_CODE.get((op, kept), _OP_CODE[op])


def _check_domain(domain: dict) -> None:
    for name in _VAR_NAMES:
        lo, hi = domain[name]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"domain of {name} must be a finite interval, got {(lo, hi)!r}")


def _non_negative(span: tuple) -> bool:
    # A span's low end is -0.0 or below whenever the value may be -0.0,
    # so a clear sign bit there rules out -0.0 as well.
    return math.copysign(1.0, span[0]) == 1.0


def _span(values: list, negative_zero: bool) -> tuple:
    # The span of results taken at the operands' bounds; a NaN there
    # (inf * 0, inf - inf) leaves it unbounded.  A zero low end is -0.0
    # when the result may be -0.0, else 0.0.
    if any(v != v for v in values):
        return (-math.inf, math.inf)
    lo = min(values)
    if lo == 0:
        lo = -0.0 if negative_zero else 0.0
    return lo, max(values)


def _magnitude(span: tuple) -> tuple:
    # The span of abs() over a span whose low end may be negative.
    lo, hi = span
    return (0.0, max(-lo, hi)) if hi >= 0 else (-hi, -lo)


def _guarded(op: str, spans: list) -> tuple:
    """``(statements, span)`` of operator ``op`` over operand values that
    lie in ``spans``, each a ``(lo, hi)`` pair: the operator's
    statements with only the guards some operand value could trigger,
    and the span of its result.

    ``+ - * /`` and ``sqrt`` round correctly and monotonically, so the
    results at the operands' bounds bound every result; log's bounds are
    widened by ``_LOG_MARGIN``.
    """
    a = spans[0]
    if op in _UNARY_OPS:
        kept = () if _non_negative(a) else ("abs",)
        lo, hi = _magnitude(a) if kept else a
        if op == "sqrt":
            return _statements(op, kept), (math.sqrt(lo), math.sqrt(hi))
        logs = []
        if lo < _PROTECT_EPS:
            kept += ("protect",)
            logs.append(0.0)
        if hi >= _PROTECT_EPS:
            low, high = math.log(max(lo, _PROTECT_EPS)), math.log(hi)
            logs += [low - abs(low) * _LOG_MARGIN, high + abs(high) * _LOG_MARGIN]
        # log never gives -0.0, and log(1.0) is 0.0.
        return _statements(op, kept), (min(logs), max(logs))
    b = spans[1]
    kept = ()
    # A sum is -0.0 only when both terms are, a difference only when
    # the first is -0.0 and the second 0.0.
    if op == "add":
        raw = _span([a[0] + b[0], a[1] + b[1]], not (_non_negative(a) or _non_negative(b)))
    elif op == "sub":
        raw = _span([a[0] - b[1], a[1] - b[0]], not _non_negative(a) and b[0] <= 0 <= b[1])
    else:
        # A product's or quotient's sign bit, a zero's included, is the
        # exclusive or of its operands'.
        negative_zero = (not _non_negative(a) and b[1] >= 0) or (not _non_negative(b) and a[1] >= 0)
        if op == "mul":
            raw = _span([x * y for x in a for y in b], negative_zero)
        else:
            # The divisors that divide lie on either side of the guard.
            divisors = []
            if b[0] <= -_PROTECT_EPS:
                divisors += [b[0], min(b[1], -_PROTECT_EPS)]
            if b[1] >= _PROTECT_EPS:
                divisors += [max(b[0], _PROTECT_EPS), b[1]]
            quotients = [x / y for x in a for y in divisors]
            if b[0] < _PROTECT_EPS and b[1] > -_PROTECT_EPS:
                kept = ("protect",)
                quotients.append(1.0)
            raw = _span(quotients, negative_zero)
    if -_MAX_ABS <= raw[0] and raw[1] <= _MAX_ABS:
        return _statements(op, kept), raw
    kept += ("saturate",)
    return _statements(op, kept), (max(raw[0], -_MAX_ABS), min(raw[1], _MAX_ABS))


def _leaf_span(node, domain) -> tuple:
    return (node.value, node.value) if type(node) is Const else domain[node.name]


def _emit(node, domain, per_level: list, per_child: list, reads: set) -> tuple:
    # Returns ``(operand, varies, span)``: the operand naming this node's
    # value, whether it reads Q or Nc, and the span of its value over
    # ``domain`` (None without a domain).
    kind = type(node)
    if kind is not Func:
        span = None if domain is None else _leaf_span(node, domain)
        if kind is Const:
            return repr(node.value), False, span
        reads.add(node.name)
        return (*_VAR_CODE[node.name], span)
    operands, spans = [], []
    varies = False
    for child in node.args:
        operand, child_varies, span = _emit(child, domain, per_level, per_child, reads)
        operands.append(operand)
        spans.append(span)
        varies = varies or child_varies
    name = f"t{len(per_level) + len(per_child)}"
    code, span = (_OP_CODE[node.op], None) if domain is None else _guarded(node.op, spans)
    b = operands[1] if len(operands) == 2 else None
    (per_child if varies else per_level).extend(
        line.format(r=name, a=operands[0], b=b) for line in code
    )
    return name, varies, span


def formula_code(expression: Expression, domain: dict | None = None) -> tuple:
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

    ``domain`` maps ``"Q"``, ``"Np"`` and ``"Nc"`` to finite closed
    intervals ``(lo, hi)``.  With one, each operator keeps only the
    guards that some input in the domain could trigger (see the module
    docstring), and the statements give :func:`evaluate`'s bits on the
    domain alone.  Without one they are the full statements.
    """
    if domain is not None:
        _check_domain(domain)
    per_level: list = []
    per_child: list = []
    reads: set = set()
    result, _, _ = _emit(expression, domain, per_level, per_child, reads)
    return per_level, per_child, result, reads


@functools.cache
def _operator_scorer(code: tuple, *kinds: str):
    # ``make(a[, b]) -> score`` for an operator written as the statements
    # ``code`` over operands of ``kinds``, where ``score(q, n_parent,
    # n_child)`` runs those statements, the ones formula_code writes
    # inline.  A kind is a variable's name, read inline; "k", a constant
    # passed to ``make``; or "f", a closure passed to ``make`` and
    # called.  A closure operand read twice is called once, first;
    # closures are pure, so the order of the calls changes no result.
    # Keyed by the statements, so an operator with guards dropped never
    # shares a factory with the full one.
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


def _scorer(func, domain) -> tuple:
    # ``(closure, span)`` of an operator node: one frame per tree level,
    # built and called, and the span of its value as ``_emit`` takes it.
    kinds, made_with, spans = [], [], []
    for child in func.args:
        kind = type(child)
        if kind is Func:
            closure, span = _scorer(child, domain)
            kinds.append("f")
            made_with.append(closure)
        else:
            span = None if domain is None else _leaf_span(child, domain)
            if kind is Const:
                kinds.append("k")
                made_with.append(child.value)
            else:
                kinds.append(child.name)
                made_with.append(None)
        spans.append(span)
    code, span = (_OP_CODE[func.op], None) if domain is None else _guarded(func.op, spans)
    return _operator_scorer(code, *kinds)(*made_with), span


def build_scorer(expression: Expression, domain: dict | None = None):
    """Build ``score(q, n_parent, n_child)`` from the tree, compiling no formula.

    Each operator node is one closure that runs the statements
    :func:`formula_code` writes inline for it, with the same ``domain``,
    in the same order, so for float ``n_parent`` and ``n_child`` a score
    has the bits of the compiled formula's: NaN, -0.0, the 0.001 guards
    and the saturation at +-1e300 take the same branches.  A variable or
    constant at the root is returned as it is given.
    An operator reads a variable or constant operand inline and calls
    the closure of an operator operand.  The closures are made by one
    factory per operator's statements and kinds of operand, compiled the
    first time any tree needs it and kept for the life of the process.
    """
    if domain is not None:
        _check_domain(domain)
    kind = type(expression)
    if kind is Func:
        return _scorer(expression, domain)[0]
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
