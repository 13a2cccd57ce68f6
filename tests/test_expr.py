"""Expression-tree tests: protected operators, evaluation, the seeded
selection rule, random growth, subtree mutation, and serialisation."""

import ast
import math
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_descent_picks, closed_form_uct, interpret, leaf, one_level_root
from evomcts.expr import (
    Const,
    DEFAULT_MAX_DEPTH,
    Expression,
    Func,
    K_VALUES,
    NodeContext,
    Var,
    build_scorer,
    evaluate,
    formula_code,
    mutate,
    parse,
    random_subtree,
    uct_seed,
)
from evomcts.mcts import SEARCH_DOMAIN, compile_chooser, scorer_descent

ANY_CTX = NodeContext(0.5, 10.0, 5.0)

# The two routes from a tree to a descent: the tree compiled as source,
# and the tree's closures around a walk compiled at import.  Each must
# match conftest's interpreter on every input the tests below draw.
DESCENT_BUILDERS = (compile_chooser, scorer_descent)


def _walk(node):
    yield node
    if type(node) is Func:
        for child in node.args:
            yield from _walk(child)


def _const_values(expression):
    return [n.value for n in _walk(expression) if type(n) is Const]


def _one_op(op, a, b=None):
    """``evaluate`` of ``(op Q)`` at Q = a, or of ``(op Q Nc)`` at Q = a
    and Nc = b: one protected operator, through the shipped route."""
    args = (Var("Q"),) if b is None else (Var("Q"), Var("Nc"))
    return evaluate(Func(op, args), NodeContext(a, 1.0, 1.0 if b is None else b))


class TestProtectedOperators:
    def test_div_near_zero_divisor_returns_one(self):
        assert _one_op("div", 1.0, 0.0005) == 1.0
        assert _one_op("div", 123.0, -0.0009) == 1.0
        assert _one_op("div", 0.0, 0.0) == 1.0

    def test_div_normal(self):
        assert _one_op("div", 6.0, 3.0) == 2.0
        assert _one_op("div", 1.0, -2.0) == -0.5
        # Threshold is on magnitude and exclusive: 0.001 itself divides.
        assert _one_op("div", 1.0, 0.001) == 1000.0

    def test_log_magnitude_and_floor(self):
        assert _one_op("log", math.e) == pytest.approx(1.0)
        assert _one_op("log", -math.e) == pytest.approx(1.0)
        assert _one_op("log", 0.0) == 0.0
        assert _one_op("log", 0.0005) == 0.0
        assert _one_op("log", -0.0009) == 0.0

    def test_sqrt_magnitude(self):
        assert _one_op("sqrt", 4.0) == 2.0
        assert _one_op("sqrt", -4.0) == 2.0
        assert _one_op("sqrt", 0.0) == 0.0


class TestEvaluate:
    def test_constant_leaf(self):
        e = Const(math.sqrt(2.0))
        assert evaluate(e, ANY_CTX) == math.sqrt(2.0)
        assert evaluate(e, NodeContext(0.0, 1.0, 1.0)) == math.sqrt(2.0)

    def test_variable_leaves(self):
        ctx = NodeContext(0.25, 7.0, 3.0)
        assert evaluate(Var("Q"), ctx) == 0.25
        assert evaluate(Var("Np"), ctx) == 7.0
        assert evaluate(Var("Nc"), ctx) == 3.0

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            Var("Xp")

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            Func("add", (Var("Q"),))
        with pytest.raises(ValueError):
            Func("log", (Var("Q"), Var("Nc")))
        with pytest.raises(ValueError):
            Func("pow", (Var("Q"), Var("Nc")))

    def test_non_finite_constant_rejected(self):
        # A NaN constant used to parse and then make every score NaN, so
        # select failed later with "empty range for randrange()".
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                Const(value)
        for text in ("(add Q (k nan))", "(k inf)", "(k 1e999)"):
            with pytest.raises(ValueError, match="finite"):
                parse(text)

    def test_protection_inside_tree(self):
        # div picks the fallback when the evaluated divisor is tiny.
        e = Func("div", (Var("Np"), Var("Q")))
        assert evaluate(e, NodeContext(0.0, 5.0, 1.0)) == 1.0
        # log of a tiny subexpression falls back to 0.
        e = Func("log", (Var("Q"),))
        assert evaluate(e, NodeContext(0.0, 5.0, 1.0)) == 0.0

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(50):
            e = random_subtree(6, rng)
            ctx = NodeContext(rng.random(), 1.0 + rng.random() * 99, 1.0 + rng.random() * 9)
            assert evaluate(e, ctx) == evaluate(e, ctx)


class TestNodes:
    def test_every_tree_is_an_expression(self):
        for text in ("Q", "(k 0.5)", "(log Np)", "(add Q (div (k 1.0) Nc))"):
            assert isinstance(parse(text), Expression)
        rng = random.Random(41)
        for tree in (uct_seed(1.0), random_subtree(4, rng), mutate(uct_seed(1.0), rng)):
            assert isinstance(tree, Expression)

    def test_str_and_depth_on_bare_nodes(self):
        assert (str(Var("Nc")), Var("Nc").depth()) == ("Nc", 1)
        assert (str(Const(0.5)), Const(0.5).depth()) == ("(k 0.5)", 1)
        node = Func("add", (Var("Q"), Func("log", (Const(2.0),))))
        assert (str(node), node.depth()) == ("(add Q (log (k 2.0)))", 3)
        # Every subtree is a tree of its own.
        assert (str(node.args[1]), node.args[1].depth()) == ("(log (k 2.0))", 2)


class TestUctSeed:
    def test_serialised_shape(self):
        assert str(uct_seed(math.sqrt(2.0))) == (
            "(add Q (mul (k 1.4142135623730951) "
            "(sqrt (div (mul (k 2.0) (log Np)) Nc))))"
        )

    def test_depth_within_cap(self):
        assert uct_seed(1.0).depth() == 7
        assert uct_seed(1.0).depth() <= DEFAULT_MAX_DEPTH

    def test_value_c1(self):
        got = evaluate(uct_seed(1.0), NodeContext(0.5, 10.0, 5.0))
        assert got == pytest.approx(1.4597051824376162, abs=1e-12)
        assert got == pytest.approx(closed_form_uct(0.5, 10.0, 5.0, 1.0), abs=1e-12)

    def test_value_csqrt2(self):
        got = evaluate(uct_seed(math.sqrt(2.0)), NodeContext(0.5, 100.0, 10.0))
        assert got == pytest.approx(1.8572280848830225, abs=1e-12)

    def test_single_visit_root_gives_zero_bonus(self):
        assert evaluate(uct_seed(1.0), NodeContext(0.0, 1.0, 1.0)) == 0.0

    def test_matches_closed_form_on_random_contexts(self):
        rng = random.Random(20260819)
        for c in K_VALUES:
            seed_tree = uct_seed(c)
            worst = 0.0
            for _ in range(1000):
                n_parent = rng.randrange(1, 1_000_000)
                n_child = rng.randrange(1, n_parent + 1)
                ctx = NodeContext(rng.random(), float(n_parent), float(n_child))
                worst = max(worst, abs(evaluate(seed_tree, ctx) - closed_form_uct(*ctx, c)))
            assert worst <= 1e-9


class TestRandomSubtree:
    def test_depth_one_is_always_terminal(self):
        rng = random.Random(11)
        for _ in range(500):
            e = random_subtree(1, rng)
            assert type(e) in (Const, Var)
            assert e.depth() == 1

    def test_depth_never_exceeds_budget(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(2000):
            e = random_subtree(6, rng)
            assert 1 <= e.depth() <= 6
            seen.add(e.depth())
        assert len(seen) > 2  # growth actually varies

    def test_terminal_kinds_uniform(self):
        rng = random.Random(13)
        counts = {"Q": 0, "Np": 0, "Nc": 0, "k": 0}
        const_values = {}
        n = 100_000
        for _ in range(n):
            root = random_subtree(1, rng)
            if type(root) is Const:
                counts["k"] += 1
                const_values[root.value] = const_values.get(root.value, 0) + 1
            else:
                counts[root.name] += 1
        for kind, c in counts.items():
            assert abs(c / n - 0.25) < 0.02, (kind, c / n)
        assert set(const_values) == set(K_VALUES)
        for value, c in const_values.items():
            assert abs(c / counts["k"] - 0.2) < 0.02, (value, c / counts["k"])

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            random_subtree(0, random.Random(1))


def _diff_path(a, b, path=()):
    """Topmost position at which two trees differ, or None if equal."""
    if a == b:
        return None
    if type(a) is Func and type(b) is Func and a.op == b.op:
        diffs = [i for i, (x, y) in enumerate(zip(a.args, b.args)) if x != y]
        if len(diffs) == 1:
            return _diff_path(a.args[diffs[0]], b.args[diffs[0]], path + (diffs[0],))
    return path


def _node_at(node, path):
    for i in path:
        node = node.args[i]
    return node


def _pick_kind(seed, has_internal):
    # Mirror of the documented mutation-point protocol: when the tree has
    # internal nodes, one uniform draw below 0.9 selects the internal
    # branch; a leaf-only tree spends no draw.
    if not has_internal:
        return "leaf"
    return "internal" if random.Random(seed).random() < 0.9 else "leaf"


class TestMutate:
    # add, mul, sqrt, div, log: exactly five internal nodes.
    FIVE_INTERNAL = Func(
        "add",
        (
            Var("Q"),
            Func(
                "mul",
                (
                    Const(0.5),
                    Func("sqrt", (Func("div", (Func("log", (Var("Np"),)), Var("Nc"))),)),
                ),
            ),
        ),
    )

    def test_depth_cap_holds_over_trials(self):
        rng = random.Random(21)
        deep = []
        while len(deep) < 50:
            e = random_subtree(8, rng)
            if e.depth() == 8:
                deep.append(e)
        for i in range(10_000):
            assert mutate(deep[i % 50], rng).depth() <= 8

    @pytest.mark.parametrize("depth", [DEFAULT_MAX_DEPTH + 1, 11])
    def test_tree_deeper_than_cap_rejected_before_any_draw(self, depth):
        # Whether such a tree failed used to depend on the draws: a point
        # deep in the chain raised, one high in it gave a tree within the
        # cap, and the Q leaf left the chain, deeper than the cap, as it was.
        chain = Var("Np")
        for _ in range(depth - 2):
            chain = Func("sqrt", (chain,))
        e = Func("add", (Var("Q"), chain))
        assert e.depth() == depth
        for seed in range(200):
            rng = random.Random(seed)
            state = rng.getstate()
            with pytest.raises(ValueError, match=f"expression deeper than {DEFAULT_MAX_DEPTH}"):
                mutate(e, rng)
            assert rng.getstate() == state

    def test_input_not_modified(self):
        e = self.FIVE_INTERNAL
        before = str(e)
        rng = random.Random(22)
        for _ in range(200):
            mutate(e, rng)
        assert str(e) == before
        assert e == self.FIVE_INTERNAL

    def test_single_leaf_tree_mutates_the_leaf(self):
        rng = random.Random(23)
        changed = 0
        for _ in range(200):
            out = mutate(Var("Q"), rng)
            assert out.depth() <= DEFAULT_MAX_DEPTH
            if out != Var("Q"):
                changed += 1
        assert changed > 100  # regrowing exactly Q is the rare case

    def test_internal_pick_frequency(self):
        n = 100_000
        internal = sum(1 for seed in range(n) if _pick_kind(seed, True) == "internal")
        assert abs(internal / n - 0.90) < 0.01

    def test_pick_kind_agrees_with_behaviour_on_leaves(self):
        # When the protocol mirror says "leaf", any change must sit at a
        # leaf position of the original tree.
        e = self.FIVE_INTERNAL
        checked = 0
        for seed in range(4000):
            kind = _pick_kind(seed, True)
            if kind != "leaf":
                continue
            out = mutate(e, random.Random(seed))
            diff = _diff_path(e, out)
            if diff is None:
                continue  # replacement happened to regrow the same leaf
            assert type(_node_at(e, diff)) is not Func
            checked += 1
        assert checked > 200

    def test_internal_picks_do_change_operator_nodes(self):
        # Conversely some mutations must land on internal positions.
        e = self.FIVE_INTERNAL
        internal_hits = 0
        for seed in range(2000):
            out = mutate(e, random.Random(seed))
            diff = _diff_path(e, out)
            if diff is not None and type(_node_at(e, diff)) is Func:
                internal_hits += 1
        assert internal_hits > 1000

    def test_constants_stay_in_mutation_set(self):
        rng = random.Random(24)
        e = uct_seed(math.sqrt(2.0))
        for _ in range(300):
            e = mutate(e, rng)
            assert e.depth() <= DEFAULT_MAX_DEPTH
            for value in _const_values(e):
                assert value in K_VALUES

class TestParseRoundTrip:
    def test_seed_round_trip(self):
        for c in K_VALUES:
            e = uct_seed(c)
            assert parse(str(e)) == e

    def test_random_round_trip(self):
        rng = random.Random(31)
        for _ in range(500):
            e = random_subtree(8, rng)
            assert parse(str(e)) == e
            assert str(parse(str(e))) == str(e)

    def test_full_precision_constants(self):
        e = Const(math.sqrt(2.0))
        parsed = parse(str(e))
        assert parsed.value == math.sqrt(2.0)

    def test_integer_constant_text_accepted(self):
        assert parse("(k 2)") == Const(2.0)

    def test_parse_errors(self):
        for text in [
            "",
            "(add Q)",
            "(log Q Nc)",
            "(frob Q Nc)",
            "(add Q Nc",
            "(add Q Nc)) ",
            "Q Q",
            "(k )",
            "(k spam)",
            "Xp",
        ]:
            with pytest.raises(ValueError):
                parse(text)


_terminals = st.one_of(
    st.sampled_from([Var("Q"), Var("Np"), Var("Nc")]),
    st.builds(Const, st.sampled_from(list(K_VALUES))),
    st.builds(Const, st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)),
)
_trees = st.recursive(
    _terminals,
    lambda sub: st.one_of(
        st.builds(lambda op, a: Func(op, (a,)), st.sampled_from(["log", "sqrt"]), sub),
        st.builds(
            lambda op, a, b: Func(op, (a, b)),
            st.sampled_from(["add", "sub", "mul", "div"]),
            sub,
            sub,
        ),
    ),
    max_leaves=25,
)
_finite = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)


@st.composite
def _children(draw):
    """Search-node stand-ins drawn from a small pool of statistics, so
    that several children often share them and tie exactly."""
    pool = draw(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=10**9), _finite),
            min_size=1,
            max_size=3,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return [leaf(pool[i][0], pool[i][1]) for i in picks]


class _Reward:
    """A stand-in child's total reward whose mean is given outright, so
    that the child can carry any (Q, Nc) pair, Nc of 0, inf or NaN
    included."""

    def __init__(self, mean):
        self.mean = mean

    def __truediv__(self, visits):
        return self.mean


def _reference_ties(expression, n_parent, children):
    best, ties = -math.inf, []
    for child in children:
        score = interpret(expression, child.total_reward / child.visits, n_parent, child.visits)
        if score > best:
            best, ties = score, [child]
        elif score == best:
            ties.append(child)
    return ties if best != -math.inf else []


class TestTotalisation:
    @given(root=_trees, q=_finite, n_parent=_finite, n_child=_finite)
    @settings(max_examples=300)
    def test_every_tree_evaluates_finite(self, root, q, n_parent, n_child):
        value = evaluate(root, NodeContext(q, n_parent, n_child))
        assert math.isfinite(value)

    @given(root=_trees)
    @settings(max_examples=200)
    def test_round_trip_property(self, root):
        assert parse(str(root)) == root

    @given(
        root=_trees,
        n_parent=st.one_of(st.integers(min_value=1, max_value=10**9), _finite),
        children=_children(),
    )
    @settings(max_examples=300)
    def test_chooser_matches_interpreter_ties(self, root, n_parent, children):
        want = _reference_ties(root, n_parent, children)
        for build in DESCENT_BUILDERS:
            assert_descent_picks(build(root), one_level_root(n_parent, children), want)

    @given(root=_trees, q=_finite, n_parent=_finite, n_child=_finite)
    @settings(max_examples=300)
    def test_scorer_matches_interpreter_bits(self, root, q, n_parent, n_child):
        score = build_scorer(root)
        for ctx in (NodeContext(q, n_parent, n_child), NodeContext(n_child, q, n_parent)):
            got, want = score(*ctx), interpret(root, *ctx)
            assert struct.pack("<d", got) == struct.pack("<d", want)

    @given(
        root=_trees,
        q=_finite,
        n_parent=st.one_of(st.integers(min_value=1, max_value=10**9), _finite),
        n_child=st.one_of(st.integers(min_value=1, max_value=10**9), _finite),
    )
    @settings(max_examples=300)
    def test_evaluate_matches_interpreter_bits(self, root, q, n_parent, n_child):
        # Int visit counts too: evaluate converts them with float(), as
        # a descent does and the closures do not.  Ints up to 10^9 often
        # give the same bits unconverted, so the type is checked as well.
        ctx = NodeContext(q, n_parent, n_child)
        got, want = evaluate(root, ctx), interpret(root, q, n_parent, n_child)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "log", "sqrt"])
    def test_compiled_matches_interpreter_on_edges(self, op):
        # The protection thresholds, the saturation bounds, signed zeros
        # and non-finite inputs: each inline comparison must take the
        # interpreter's branch exactly there.
        edges = [0.001, -0.001, 0.0009999999999999998, 0.0, -0.0, 1e300, -1e300]
        edges += [1.0000000000000002e300, 1e308, -1e308, math.inf, -math.inf, math.nan]
        arity = 1 if op in ("log", "sqrt") else 2
        # The operator once per child, on every (Q, Nc) pair: each pair of
        # children must come back in the interpreter's order, ties and
        # NaN (which loses every comparison) included.
        e = Func(op, (Var("Q"), Var("Nc"))[:arity])
        pairs = [leaf(n, _Reward(q)) for q in edges for n in edges]
        for build in DESCENT_BUILDERS:
            descend = build(e)
            for i, a in enumerate(pairs):
                for b in pairs[i:]:
                    want = _reference_ties(e, 3, [a, b])
                    assert_descent_picks(descend, one_level_root(3, [a, b]), want)
        # The operator once per child, and once per node.
        children = [leaf(1, q) for q in edges]
        per_node = Func(op, (Var("Np"), Var("Np"))[:arity])
        for root in (Func(op, (Var("Q"), Var("Np"))[:arity]), Func("sub", (per_node, Var("Q")))):
            for build in DESCENT_BUILDERS:
                descend = build(root)
                for n_parent in edges:
                    want = _reference_ties(root, n_parent, children)
                    assert_descent_picks(descend, one_level_root(n_parent, children), want)

    def test_chooser_on_deep_tree(self):
        node = Var("Nc")
        for _ in range(300):
            node = Func("add", (node, Const(0.5)))
        children = [leaf(v, 0.0) for v in (3, 1, 3)]
        root = one_level_root(7, children)
        for build in DESCENT_BUILDERS:
            assert_descent_picks(build(node), root, [children[0], children[2]])

    def test_compiled_tree_deeper_than_parser_nesting(self):
        # A 300-deep chain would exceed the nesting limit of Python's
        # parser as a single nested expression.  Without a domain each
        # node is its own statement; over the search's domain the chain
        # keeps no guard and is written inline, and named every 16 levels.
        # The scorer's closures nest 300 calls deep, as the interpreter
        # does.
        # The chain reads only Np, so it runs in the per-node stage; the
        # score Q - chain * Nc ties the three children exactly when the
        # chain's value is 1.0, as the interpreter computes it.
        node = Var("Np")
        for _ in range(300):
            node = Func("sqrt", (node,))
        e = Func("sub", (Var("Q"), Func("mul", (node, Var("Nc")))))
        assert interpret(node, 0.5, 7.0, 3.0) == 1.0
        children = [leaf(v, v * v) for v in (1, 2, 3)]
        want = _reference_ties(e, 7, children)
        assert want == children
        per_level, per_child, _, _ = formula_code(e, SEARCH_DOMAIN)
        assert len(per_level) == 300 // 16 + 1 and len(per_child) == 1
        assert max(line.count("(") for line in per_level) == 16
        for build in DESCENT_BUILDERS:
            for domain in (None, SEARCH_DOMAIN):
                assert_descent_picks(build(e, domain), one_level_root(7, children), want)

    def test_saturation_on_product_towers(self):
        # A balanced tower of 128 multiplied parent counts overflows
        # float64; the result must clamp instead of reaching infinity.
        node = Var("Np")
        for _ in range(7):
            node = Func("mul", (node, node))
        value = evaluate(node, NodeContext(0.5, 1e6, 1.0))
        assert math.isfinite(value)
        assert value == 1e300


def test_interpreter_shares_no_code_with_expr():
    # The oracle must not reach the module whose routes it checks, or a
    # bug there could appear on both sides of every comparison.
    tree = ast.parse(Path(__file__).with_name("conftest.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            assert name != "evomcts.expr" and not name.startswith("evomcts.expr."), name


# The statements every operator compiled to before the range pass, with
# every guard: without a domain both routes must still write them.
_FULL_STATEMENTS = {
    "add": ["{r} = {a} + {b}", "{r} = 1e+300 if {r} > 1e+300 else -1e+300 if {r} < -1e+300 else {r}"],
    "sub": ["{r} = {a} - {b}", "{r} = 1e+300 if {r} > 1e+300 else -1e+300 if {r} < -1e+300 else {r}"],
    "mul": ["{r} = {a} * {b}", "{r} = 1e+300 if {r} > 1e+300 else -1e+300 if {r} < -1e+300 else {r}"],
    "div": [
        "{r} = 1.0 if abs({b}) < 0.001 else {a} / {b}",
        "{r} = 1e+300 if {r} > 1e+300 else -1e+300 if {r} < -1e+300 else {r}",
    ],
    "log": ["{r} = abs({a})", "{r} = 0.0 if {r} < 0.001 else log({r})"],
    "sqrt": ["{r} = sqrt(abs({a}))"],
}

# Constants next to the guards' thresholds, negative ones and -0.0, as
# text: the trees below are parsed from it.
_EDGE_CONSTANTS = [
    "0.001", "0.0009999999999999998", "0.0010000000000000002", "-0.001",
    "1e300", "9.999999999999999e299", "1.0000000000000002e300", "-1e300",
    "0.0", "-0.0", "-1.0", "-0.5", "-3.0", "1e150", "-1e150", "1e-300",
    "1.7976931348623157e308", "-1.7976931348623157e308",
]
_domain_trees = st.recursive(
    st.one_of(_terminals, st.sampled_from(_EDGE_CONSTANTS).map(lambda v: parse(f"(k {v})"))),
    lambda sub: st.one_of(
        st.builds(lambda op, a: Func(op, (a,)), st.sampled_from(["log", "sqrt"]), sub),
        st.builds(
            lambda op, a, b: Func(op, (a, b)),
            st.sampled_from(["add", "sub", "mul", "div"]),
            sub,
            sub,
        ),
    ),
    max_leaves=25,
).map(lambda tree: parse(str(tree)))
# Visit counts as the search keeps them: ints from 1 to 2^53, and their floats.
_counts = st.integers(min_value=1, max_value=2**53)
_any_count = st.one_of(_counts, _counts.map(float))


@st.composite
def _mean(draw):
    """An exact mean of rewards in [0, 1]: k / n for 0 <= k <= n."""
    n = draw(_counts)
    return draw(st.integers(min_value=0, max_value=n)) / n


@st.composite
def _search_children(draw):
    """Children whose statistics the search could reach, from a small
    pool, so that several often tie."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(_any_count)
        k = draw(st.integers(min_value=0, max_value=int(n)))
        pool.append((n, float(k)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return [leaf(*pool[i]) for i in picks]


def _compiled_score(expression, domain=None):
    """``score(q, n_parent, n_child)`` running ``formula_code``'s
    statements, per-level part first, as a descent runs them."""
    per_level, per_child, result, _ = formula_code(expression, domain)
    body = "".join(f"    {line}\n" for line in per_level + per_child)
    namespace = {"log": math.log, "sqrt": math.sqrt}
    exec(f"def score(q, n_parent, n_child):\n{body}    return {result}\n", namespace)
    return namespace["score"]


def _power_of_np(squarings):
    text = "Np"
    for _ in range(squarings):
        text = f"(mul {text} {text})"
    return text


def _inline_power_of_np(squarings):
    # The statement text of _power_of_np(squarings) with no guard kept.
    text = "n_parent * n_parent"
    for _ in range(squarings - 1):
        text = f"({text}) * ({text})"
    return text


def _bits(value):
    return struct.pack("<d", value)


class TestIntCounts:
    """A compiled descent passes a visit count to ``log``, ``sqrt`` and a
    division as the int itself (``mcts.compile_chooser``).  That rests on
    these giving the bits of the same operations on the count's float,
    for counts up to 2^53, on every Python the package supports."""

    @given(
        n=st.integers(1, 2**53),
        m=st.integers(1, 2**53),
        x=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=500)
    def test_an_int_count_gives_its_floats_bits(self, n, m, x):
        fn, fm = float(n), float(m)
        pairs = [(math.log(n), math.log(fn)), (math.sqrt(n), math.sqrt(fn))]
        pairs += [(x / n, x / fn), (n / m, fn / fm)]
        if x != 0:
            pairs.append((n / x, fn / x))
        for got, want in pairs:
            assert _bits(got) == _bits(want)


class TestRangePass:
    @pytest.mark.parametrize("op", sorted(_FULL_STATEMENTS))
    def test_no_domain_writes_the_full_statements(self, op):
        # Variable, constant and operator operands alike.
        full = _FULL_STATEMENTS[op]
        unary = op in ("log", "sqrt")
        e = Func(op, (Var("Q"),) if unary else (Var("Q"), Var("Nc")))
        want = [line.format(r="t0", a="q", b="n_child") for line in full]
        # One reader per read: div's statements read the divisor twice.
        reads = {"Q": [op] * "".join(full).count("{a}")}
        if not unary:
            reads["Nc"] = [op] * "".join(full).count("{b}")
        assert formula_code(e) == ([], want, "t0", reads)
        inner = Func("add", (Var("Np"), Const(2.0)))
        e = Func(op, (inner,) if unary else (inner, Const(0.5)))
        per_level, per_child, result, reads = formula_code(e)
        inner_lines = [line.format(r="t0", a="n_parent", b="2.0") for line in _FULL_STATEMENTS["add"]]
        outer = [line.format(r="t2", a="t0", b="0.5") for line in full]
        assert (per_level, per_child, result, reads) == (inner_lines + outer, [], "t2", {"Np": ["add"]})

    @pytest.mark.parametrize("c", K_VALUES)
    def test_ucb1_seed_keeps_no_guard(self, c):
        # On the search's statistics the seed tree is UCB1's closed form,
        # operation for operation, written inline: 2.0 * log(n_parent) is
        # read per child, so it is named once per level, and the score is
        # named for the skeleton to read.
        per_level, per_child, result, reads = formula_code(uct_seed(c), SEARCH_DOMAIN)
        assert per_level == ["t0 = 2.0 * log(n_parent)"]
        assert per_child == [f"t1 = q + ({c!r} * sqrt(t0 / n_child))"]
        assert (result, reads) == ("t1", {"Np": ["log"], "Nc": ["div"], "Q": ["add"]})

    @pytest.mark.parametrize(
        "text, kept",
        [
            # Q can be 0: log keeps its zero guard, not its abs.
            ("(log Q)", ["t0 = 0.0 if q < 0.001 else log(q)"]),
            ("(log (sub Q (k 0.5)))", ["t0 = abs(q - 0.5)", "t0 < 0.001"]),
            ("(sqrt (sub Q (k 0.5)))", ["t0 = sqrt(abs(q - 0.5))"]),
            # -0.0 >= 0, yet sqrt(-0.0) is -0.0 and sqrt(abs(-0.0)) is 0.0.
            ("(sqrt (k -0.0))", ["t0 = sqrt(abs(-0.0))"]),
            ("(sqrt (mul (k -0.0) Q))", ["t0 = sqrt(abs(-0.0 * q))"]),
            ("(sqrt (add (k -0.0) (k -0.0)))", ["t0 = sqrt(abs(-0.0 + -0.0))"]),
            ("(sqrt (sub (k -0.0) Q))", ["t0 = sqrt(abs(-0.0 - q))"]),
            ("(sqrt (add (k -0.0) Q))", ["t0 = sqrt(-0.0 + q)"]),
            # A divisor that can come near 0 keeps the protection; the
            # quotient is then at most 1000 in magnitude, not saturated.
            ("(div Q (sub Np Nc))", ["t1 = 1.0 if abs(t0) < 0.001 else q / t0"]),
            # Every divisor is guarded: the result is 1.0, not saturated.
            ("(div Nc (k 0.0009999999999999998))", ["abs(0.0009999999999999998) < 0.001"]),
            ("(div (k 1e300) Q)", ["abs(q) < 0.001", "1e+300 if t0 > 1e+300"]),
            ("(div Q (k 0.001))", ["t0 = q / 0.001"]),
            # 1e300 + 1.0 rounds to 1e300, which the clamp leaves as it is.
            ("(add Q (k 1e300))", ["t0 = q + 1e+300"]),
            ("(add Q (k 1.0000000000000002e300))", ["1e+300 if t0 > 1e+300"]),
            ("(sub (k -1e300) Q)", ["t0 = -1e+300 - q"]),
            ("(sub (k -1.0000000000000002e300) Q)", ["-1e+300 if t0 < -1e+300"]),
            # 2^53 to the 16th power is below 1e300, to the 32nd above.
            (_power_of_np(4), [f"t0 = {_inline_power_of_np(4)}"]),
            (_power_of_np(5), [f"t0 = ({_inline_power_of_np(4)}) * (", "1e+300 if t0 > 1e+300"]),
            # Q * Q cannot be negative but can come near 0: the operand
            # that the zero guard reads twice is named.
            ("(log (mul Q Q))", ["t0 = q * q", "t1 = 0.0 if t0 < 0.001 else log(t0)"]),
        ],
    )
    def test_guards_kept_where_the_domain_reaches_them(self, text, kept):
        per_level, per_child, _, _ = formula_code(parse(text), SEARCH_DOMAIN)
        code = "\n".join(per_level + per_child)
        for fragment in kept:
            assert fragment in code, (fragment, code)
        assert ("1e+300" in code) == any("1e+300" in fragment for fragment in kept)

    @given(
        root=_domain_trees,
        q=_mean(),
        n_parent=_any_count,
        n_child=_any_count,
        children=_search_children(),
    )
    @settings(max_examples=400)
    def test_pruned_code_has_the_full_bits_on_the_search_domain(
        self, root, q, n_parent, n_child, children
    ):
        stats = (q, float(n_parent), float(n_child))
        want = _bits(interpret(root, *stats))
        scores = [_compiled_score(root), _compiled_score(root, SEARCH_DOMAIN)]
        scores += [build_scorer(root), build_scorer(root, SEARCH_DOMAIN)]
        for score in scores:
            assert _bits(score(*stats)) == want
        ties = _reference_ties(root, n_parent, children)
        for build in DESCENT_BUILDERS:
            assert_descent_picks(build(root, SEARCH_DOMAIN), one_level_root(n_parent, children), ties)

    def test_a_guarded_divisor_is_named_once(self):
        # The protected division reads its divisor twice; an inline
        # divisor would be computed twice.
        per_level, per_child, result, _ = formula_code(parse("(div Q (sub Np Nc))"), SEARCH_DOMAIN)
        want = ["t0 = n_parent - n_child", "t1 = 1.0 if abs(t0) < 0.001 else q / t0"]
        assert (per_level, per_child, result) == ([], want, "t1")

    def test_negative_zero_operand_keeps_its_abs(self):
        for text in ("(sqrt (k -0.0))", "(log (k -0.0))", "(sqrt (mul (k -0.0) Q))"):
            e = parse(text)
            for score in (_compiled_score(e, SEARCH_DOMAIN), build_scorer(e, SEARCH_DOMAIN)):
                assert _bits(score(0.0, 1.0, 1.0)) == _bits(0.0), text

    def test_pruned_and_full_closures_share_no_factory(self):
        e = uct_seed(1.0)
        pruned, full = build_scorer(e, SEARCH_DOMAIN), build_scorer(e)
        assert pruned.__code__ is not full.__code__
        # The same statements share one factory.
        assert build_scorer(uct_seed(2.0), SEARCH_DOMAIN).__code__ is pruned.__code__

    @pytest.mark.parametrize(
        "bounds", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (2.0, 1.0)]
    )
    def test_domain_must_be_finite_intervals(self, bounds):
        domain = {**SEARCH_DOMAIN, "Np": bounds}
        for build in (formula_code, build_scorer, compile_chooser, scorer_descent):
            with pytest.raises(ValueError, match="domain of Np"):
                build(uct_seed(1.0), domain)
