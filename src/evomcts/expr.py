"""Selection formulas written as expression trees.

An expression is a small immutable tree over three statistics of a
parent/child pair in the search tree (mean reward ``Q``, parent visit
count ``Np``, child visit count ``Nc``) plus numeric constants.  Every
operator is total: division, logarithm and square root are protected
and binary results saturate at +-``MAX_ABS``, so a score is always a
finite float.  Every node, a ``Const``, a ``Var`` or a ``Func``, is an
:class:`Expression`: the tree below it.  Trees serialise to
S-expressions, e.g. UCB1 with exploration constant sqrt(2)::

    (add Q (mul (k 1.4142135623730951) (sqrt (div (mul (k 2.0) (log Np)) Nc))))

and :func:`parse` / ``str()`` round-trip exactly (constants are printed
with ``repr``).

The operators' semantics are written once, as the statements of
``_OP_CODE``, and a tree is scored only through them, by one of two
routes: :func:`formula_code` writes the tree as source, for ``mcts`` to
compile into a search descent, and :func:`build_scorer` runs the same
statements through closures, one per operator node, from factories
compiled on first use.  This module knows nothing of the search tree.

Both routes take an optional *domain*: a closed interval ``(lo, hi)``
for each statistic, the values a caller promises it keeps.  One range
pass then bounds every node's value and keeps only the guards some input
in the domain could trigger: an operator's saturation unless its result
lies within +-MAX_ABS, div's protection unless the divisor's magnitude
is at least 0.001, log's and sqrt's ``abs`` unless the operand cannot be
negative, and log's zero guard unless the operand's magnitude is at
least 0.001.  On the domain the pruned statements give the full ones'
bits.  "Cannot be negative" excludes -0.0, since ``sqrt(-0.0)`` is -0.0
where ``sqrt(abs(-0.0))`` is 0.0: an interval whose value may be -0.0
keeps -0.0 or less as its lower end (a parsed ``(k -0.0)`` has
[-0.0, -0.0]).  ``+ - * /`` and ``sqrt`` round correctly, so the results
at the operands' bounds bound every result; libm's ``log`` need not, so
its bounds are widened by a relative 1e-12.  An endpoint that comes out
NaN leaves the interval unbounded.
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
    "MAX_ABS",
    "evaluate",
    "formula_code",
    "value_range",
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

#: Binary operator results saturate here, so that towers of mul/add can
#: never overflow to infinity: evaluation stays total over float64.
MAX_ABS = 1e300

_VAR_NAMES = ("Q", "Np", "Nc")
_BINARY_OPS = ("add", "sub", "mul", "div")
_UNARY_OPS = ("log", "sqrt")
_OP_NAMES = _BINARY_OPS + _UNARY_OPS


class NodeContext(NamedTuple):
    """Statistics of one parent/child edge: the child's mean reward and
    the parent's and the child's visit counts."""

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


# Each operator as statements (``{r}`` the result, ``{a}``/``{b}`` the
# operands), which both routes run, so they take the same branch on every
# input.  NaN fails every comparison: a NaN divisor divides and a NaN
# result passes the saturation unchanged.  Saturation is one conditional
# expression, not an if/elif statement: the same tests, cheaper to compile.
_SATURATE = (
    f"{{r}} = {MAX_ABS!r} if {{r}} > {MAX_ABS!r} "
    f"else {-MAX_ABS!r} if {{r}} < {-MAX_ABS!r} else {{r}}"
)
_OP_CODE = {
    "add": ("{r} = {a} + {b}", _SATURATE),
    "sub": ("{r} = {a} - {b}", _SATURATE),
    "mul": ("{r} = {a} * {b}", _SATURATE),
    "div": (f"{{r}} = 1.0 if abs({{b}}) < {_PROTECT_EPS!r} else {{a}} / {{b}}", _SATURATE),
    "log": ("{r} = abs({a})", f"{{r}} = 0.0 if {{r}} < {_PROTECT_EPS!r} else log({{r}})"),
    "sqrt": ("{r} = sqrt(abs({a}))",),
}
# The operators with only some guards kept, by operator and guards kept:
# "abs" (of log's and sqrt's operand), "protect" (div's and log's 0.001
# guard) and "saturate".  With all of them kept an operator is _OP_CODE's.
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
    """``(kept, span)`` of operator ``op`` over operands in ``spans``,
    each a ``(lo, hi)`` pair: the guards some operand value could
    trigger, as in ``_PRUNED_CODE``'s keys, and the span of the result."""
    a = spans[0]
    if op in _UNARY_OPS:
        kept = () if _non_negative(a) else ("abs",)
        lo, hi = _magnitude(a) if kept else a
        if op == "sqrt":
            return kept, (math.sqrt(lo), math.sqrt(hi))
        logs = []
        if lo < _PROTECT_EPS:
            kept += ("protect",)
            logs.append(0.0)
        if hi >= _PROTECT_EPS:
            low, high = math.log(max(lo, _PROTECT_EPS)), math.log(hi)
            logs += [low - abs(low) * _LOG_MARGIN, high + abs(high) * _LOG_MARGIN]
        # log never gives -0.0, and log(1.0) is 0.0.
        return kept, (min(logs), max(logs))
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
    if -MAX_ABS <= raw[0] and raw[1] <= MAX_ABS:
        return kept, raw
    return kept + ("saturate",), (max(raw[0], -MAX_ABS), min(raw[1], MAX_ABS))


def _leaf_span(node, domain) -> tuple:
    return (node.value, node.value) if type(node) is Const else domain[node.name]


def _operator(op: str, spans: list, domain) -> tuple:
    # ``(statements, inline, span)``: the full statements without a
    # domain, else those the range pass keeps, inline when it keeps none.
    if domain is None:
        return _OP_CODE[op], False, None
    kept, span = _guarded(op, spans)
    return _statements(op, kept), not kept, span


# Inline operators nest at most this deep before their value is named,
# far inside the parser's limits on nested parentheses and calls.
_MAX_NESTING = 16


def _name(code, varies: bool, per_level: list, per_child: list, **operands) -> str:
    # Writes the statements ``code`` with a fresh name as ``{r}``.
    name = f"t{len(per_level) + len(per_child)}"
    (per_child if varies else per_level).extend(line.format(r=name, **operands) for line in code)
    return name


def _emit(node, domain, per_level: list, per_child: list, reads: dict) -> tuple:
    # ``(operand, varies, span, nesting)``: the text of the node's value,
    # whether it reads Q or Nc, its span over ``domain`` (None without
    # one) and how deep an inline operator's text nests (else 0).  Binary
    # parents wrap a binary operator's inline text in parentheses.
    kind = type(node)
    if kind is not Func:
        span = None if domain is None else _leaf_span(node, domain)
        if kind is Const:
            return repr(node.value), False, span, 0
        return (*_VAR_CODE[node.name], span, 0)
    emitted = [_emit(child, domain, per_level, per_child, reads) for child in node.args]
    varies = any(child_varies for _, child_varies, _, _ in emitted)
    code, inline, span = _operator(node.op, [e[2] for e in emitted], domain)
    operands, nesting = {}, 0
    for x, child, (operand, child_varies, _, depth) in zip("ab", node.args, emitted):
        uses = 1 if inline else "".join(code).count(f"{{{x}}}")
        if type(child) is Var:
            reads.setdefault(child.name, []).extend([node.op] * uses)
        # An operand read twice, or a per-level value read per child,
        # is named once.
        if depth and (uses > 1 or (varies and not child_varies)):
            operand, depth = _name([f"{{r}} = {operand}"], child_varies, per_level, per_child), 0
        if depth and node.op in _BINARY_OPS and child.op in _BINARY_OPS:
            operand = f"({operand})"
        operands[x] = operand
        nesting = max(nesting, depth)
    if inline and nesting + 1 < _MAX_NESTING:
        return code[0].removeprefix("{r} = ").format(**operands), varies, span, nesting + 1
    return _name(code, varies, per_level, per_child, **operands), varies, span, 0


def formula_code(expression: Expression, domain: dict | None = None) -> tuple:
    """The tree as Python statements: ``(per_level, per_child, result, reads)``.

    The statements read the statistics as ``q``, ``n_parent`` and
    ``n_child`` and may call ``log`` and ``sqrt``.  ``per_level`` holds
    those whose values read only Np and constants, for a caller to run
    once per parent; ``per_child`` runs after them, and the name,
    variable or constant ``result`` then gives the score.  ``reads`` maps
    each statistic read (``"Q"``, ``"Np"``, ``"Nc"``) to the operators
    reading it, one per read in the statements, or to ``[None]`` when it
    is ``result``.  With float statistics the statements give
    :func:`evaluate`'s bits.

    Without a domain each operator is its ``_OP_CODE`` statements,
    assigned to a fresh name.  With ``domain``, a finite ``(lo, hi)`` per
    statistic, each keeps only the guards some input in it could
    trigger, and gives :func:`evaluate`'s bits there alone; an operator
    that keeps no guard is written inline, inside its parent.  Four kinds
    of value are named: an operator that keeps a guard; an operand that a
    guarded statement reads twice (div's divisor, and log's operand when
    only its 0.001 guard stays); a per-level value read per child, so it
    is still computed once per parent; and an inline chain 16 operators
    deep, within the parser's nesting limits.  An inline result is named
    too, as a descent reads the score more than once.
    """
    if domain is not None:
        _check_domain(domain)
    per_level, per_child, reads = [], [], {}
    result, varies, _, nesting = _emit(expression, domain, per_level, per_child, reads)
    if nesting:
        result = _name([f"{{r}} = {result}"], varies, per_level, per_child)
    elif type(expression) is Var:
        reads[expression.name] = [None]
    return per_level, per_child, result, reads


def value_range(expression: Expression, domain: dict) -> tuple:
    """``(lo, hi)``: the range pass's bounds on the tree's value over
    ``domain``, which maps ``"Q"``, ``"Np"`` and ``"Nc"`` to finite
    closed intervals."""
    _check_domain(domain)
    return _emit(expression, domain, [], [], {})[2]


@functools.cache
def _operator_scorer(code: tuple, *kinds: str):
    # ``make(a[, b]) -> score``, where ``score(q, n_parent, n_child)``
    # runs the statements ``code`` over operands of ``kinds``: a
    # variable's name, read inline; "k", a constant passed to ``make``; or
    # "f", a closure passed to ``make`` and called, once and first when it
    # is read twice (closures are pure).  Keyed by the statements, so a
    # pruned operator never shares a factory with the full one.
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
    code, _, span = _operator(func.op, spans, domain)
    return _operator_scorer(code, *kinds)(*made_with), span


def build_scorer(expression: Expression, domain: dict | None = None):
    """Build ``score(q, n_parent, n_child)`` from the tree, compiling no formula.

    Each operator node is one closure that runs the statements
    :func:`formula_code` writes for it with the same ``domain``, reading
    a variable or constant operand inline and calling an operator
    operand's closure, so for float counts a score has the bits of the
    compiled formula's.  A variable or constant at the root is returned
    as it is given.  The closure factories, one per operator's statements
    and kinds of operand, are compiled on first use and kept.
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
    """Score the tree on one edge context: the bits
    ``build_scorer(expression)`` returns for ``ctx.q`` and the two visit
    counts as floats, a finite float for finite inputs.  The closures are
    built on every call; a search builds them, or compiles the tree, once.
    """
    return build_scorer(expression)(ctx.q, float(ctx.n_parent), float(ctx.n_child))


def uct_seed(c: float) -> Expression:
    """The UCB1 selection rule Q + c*sqrt(2*ln(Np)/Nc) as an expression tree.

    Every evolutionary run starts from it, and ``mcts.UctPolicy`` scores
    with it: on the search's statistics no guard fires for a ``c`` that
    ``mcts.check_uct_constant`` accepts, so it is the closed form.
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
