"""Search-engine tests: selection, expansion, rollouts, backpropagation,
full iterations, the statistics invariants of the grown tree, and that
no search leaves reference cycles behind."""

import gc
import math
import random
from types import SimpleNamespace

import pytest

from conftest import (
    ExpectedRewardEnv,
    assert_descent_picks,
    assert_same_path,
    closed_form_uct,
    closed_form_uct_descent,
    interpret,
    tree_signature,
)
from evomcts import mcts
from evomcts.bench import FUNCTION_IDS, FunctionEnv, IntervalState, eval_function
from evomcts.cli import CANONICAL_C
from evomcts.expr import K_VALUES, formula_code, parse, uct_seed
from evomcts.mcts import (
    SEARCH_DOMAIN,
    ExpressionPolicy,
    SearchNode,
    UctPolicy,
    backpropagate,
    best_child,
    check_uct_constant,
    compile_chooser,
    create_root,
    draw_index,
    expand,
    rollout,
    run_iteration,
    run_search,
    scorer_descent,
    select,
)
from evomcts.siea import EvolutionConfig, evaluate_individual, run_siea_search


def _reference_score(policy):
    """The score a policy's ``descend`` must reproduce: UCB1's closed
    form, conftest's interpreter on the policy's expression, or, for a
    test's own policy, its ``__call__``."""
    if isinstance(policy, UctPolicy):
        return lambda q, n_parent, n_child: closed_form_uct(q, n_parent, n_child, policy.c)
    if isinstance(policy, ExpressionPolicy):
        return lambda q, n_parent, n_child: interpret(policy.expression, q, n_parent, n_child)
    return policy


def _best_children(policy, n_parent, children):
    """Reference chooser: score each child with the policy's reference
    score and keep the ties at the top score, among which each level of
    a ``descend`` must pick."""
    score_of = _reference_score(policy)
    best_score = -math.inf
    ties = []
    for child in children:
        score = score_of(child.total_reward / child.visits, n_parent, child.visits)
        if score > best_score:
            best_score = score
            ties = [child]
        elif score == best_score:
            ties.append(child)
    return ties if best_score != -math.inf else []


def _reference_select(root, policy, rng):
    """The per-level selection loop a ``descend`` replaces: one chooser
    call per node, and ``randrange`` on a tie.  Returns the path from
    ``root`` to the node it stops at."""
    path = [root]
    node = root
    while not node.untried and node.children:
        ties = _best_children(policy, node.visits, node.children)
        if not ties:
            raise ValueError(f"policy {policy!r} scored no child above -inf")
        node = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
        path.append(node)
    return path


def _stats_root(child_stats):
    """Root with fixed child statistics: child_stats = [(visits, total), ...]."""
    root = SearchNode(IntervalState(0.0, 1.0), untried=None)
    root.untried = []
    for visits, total in child_stats:
        child = SearchNode(IntervalState(0.0, 0.5), untried=[0, 1])
        child.visits = visits
        child.total_reward = total
        root.children.append(child)
        root.visits += visits
    return root


def _assert_same_descent(descend, reference, root):
    # The same path and RNG state as the reference descent, on a tie too.
    got_rng, want_rng = random.Random(50), random.Random(50)
    assert_same_path(descend(root, got_rng), reference(root, want_rng))
    assert got_rng.getstate() == want_rng.getstate()


def _ucb1_samples(rng, count):
    """``count`` of ``(q, n_parent, n_child, root)``: a root over one
    child with statistics ``q`` and ``n_child``, half the time a second
    child equal to it, so that the top score ties, and one other."""
    for _ in range(count):
        n_child = rng.randrange(1, 5_000)
        q = rng.randrange(n_child + 1) / n_child
        visits, total = rng.randrange(1, 20), float(rng.randrange(20))
        stats = [(n_child, q * n_child), (n_child, q * n_child), (visits, min(total, visits))]
        root = _stats_root(stats[rng.randrange(2) :])
        yield q, root.visits, n_child, root


class TestPolicies:
    def test_uct_policy_matches_closed_form(self):
        rng = random.Random(51)
        for c in K_VALUES:
            policy, reference = UctPolicy(c), closed_form_uct_descent(c)
            for q, n_parent, n_child, root in _ucb1_samples(rng, 200):
                assert policy(q, n_parent, n_child) == closed_form_uct(q, n_parent, n_child, c)
                _assert_same_descent(policy.descend, reference, root)

    def test_expression_policy_equals_uct_policy(self):
        # None of the seed tree's protected fallbacks or saturations fire
        # on search statistics, so the tree scores and descends as UCB1's
        # closed form does, bit for bit.
        rng = random.Random(52)
        for c in (*K_VALUES, 0.7, 1e-3, 0.0, -1.0, 123.456):
            tree_policy, reference = ExpressionPolicy(uct_seed(c)), closed_form_uct_descent(c)
            for q, n_parent, n_child, root in _ucb1_samples(rng, 200):
                assert tree_policy(q, n_parent, n_child) == closed_form_uct(q, n_parent, n_child, c)
                _assert_same_descent(tree_policy.descend, reference, root)

    @pytest.mark.parametrize("function_id", FUNCTION_IDS)
    def test_ucb1_is_already_a_formula(self, function_id):
        # The seed tree, compiled over the search's domain, runs a UCB1
        # search exactly as the closed-form descent does: the same
        # expansions, tree and RNG state, for every canonical constant.
        for c in CANONICAL_C:
            for seed in (31, 32):
                runs = []
                for policy in (
                    SimpleNamespace(descend=closed_form_uct_descent(c)),
                    UctPolicy(c),
                    ExpressionPolicy(uct_seed(c)),
                ):
                    rng = random.Random(seed)
                    root, log = run_search(FunctionEnv(function_id), policy, 1_000, rng)
                    runs.append((log, tree_signature(root), rng.getstate()))
                assert runs[0] == runs[1] == runs[2], (c, seed)

    def test_expression_policy_compiles_over_the_search_domain(self):
        # No guard is left to call abs() in the deployed seed formula, and
        # its counts feed only log and a division, so they stay ints.
        for c in K_VALUES:
            names = ExpressionPolicy(uct_seed(c)).descend.__code__.co_names
            assert "log" in names and "sqrt" in names
            assert "abs" not in names and "float" not in names
        names = compile_chooser(uct_seed(1.0)).__code__.co_names
        assert "abs" in names and "float" in names
        # Counts past 2^53 need not convert exactly.
        domain = {**SEARCH_DOMAIN, "Np": (1.0, 2.0**60)}
        assert "float" in compile_chooser(uct_seed(1.0), domain).__code__.co_names

    @pytest.mark.parametrize(
        "text, converts",
        [
            # A product or sum of counts can pass 2^53 as an exact int.
            ("(mul Np Nc)", True),
            ("(add (log Np) (mul Np Q))", True),
            ("(sub Q Nc)", True),
            # A bare count would reach the score as an int.
            ("Nc", True),
            ("(div Nc Np)", False),
            ("(add (log (sqrt Nc)) (div Q Np))", False),
        ],
    )
    def test_counts_stay_ints_only_under_log_sqrt_and_div(self, text, converts):
        names = ExpressionPolicy(parse(text)).descend.__code__.co_names
        assert ("float" in names) == converts

    def test_descent_lines_fetch_each_statistic_once(self, monkeypatch):
        # UCB1 compiles to the closed form's operations: 2.0 * log of the
        # parent's count once per level, and the child's count fetched
        # once for its two reads.  Np read per child is still fetched
        # once per level.
        lines = []

        def spy(level_lines, child_lines, score):
            lines.append((level_lines, child_lines, score))
            return lambda: None

        monkeypatch.setattr(mcts, "_descent_factory", spy)
        ExpressionPolicy(uct_seed(0.5))
        ExpressionPolicy(parse("(div Nc Np)"))
        assert lines == [
            (
                ["t0 = 2.0 * log((node.visits))"],
                ["n_child = child.visits", "t1 = (child.total_reward / n_child) + (0.5 * sqrt(t0 / n_child))"],
                "t1",
            ),
            (["n_parent = node.visits"], ["t0 = (child.visits) / n_parent"], "t0"),
        ]

    def test_uct_policy_is_the_seed_formula(self):
        policy = UctPolicy(2)
        assert isinstance(policy, ExpressionPolicy)
        assert policy.c == 2.0 and type(policy.c) is float
        assert policy.expression == uct_seed(2.0)
        assert repr(policy) == "UctPolicy(c=2.0)"
        # The method a tracer counts UCB1's calls by.
        assert "__call__" in UctPolicy.__dict__

    def test_uct_constant_stops_where_the_formula_would_saturate(self):
        # The range pass bounds the bonus sqrt(2 ln Np / Nc) by about
        # 8.57, so near 1e300 / 8.57 mul's saturation would come back.
        largest = 1.166633214614198e299
        for sign in (1.0, -1.0):
            c = sign * largest
            assert check_uct_constant(c) == c
            per_level, per_child, _, _ = formula_code(uct_seed(c), SEARCH_DOMAIN)
            assert "1e+300" not in "\n".join(per_level + per_child)
            for c in (sign * math.nextafter(largest, math.inf), sign * 1e300, sign * 1.7e308):
                with pytest.raises(ValueError, match="saturation"):
                    UctPolicy(c)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_uct_policy_rejects_non_finite_c(self, c):
        # An infinite c scored every child inf: each level an exact tie,
        # so the descent was a uniform random walk.
        with pytest.raises(ValueError, match="must be finite"):
            UctPolicy(c)

    def test_both_policies_descend_through_one_compiler(self):
        descents = [UctPolicy(1.0).descend, ExpressionPolicy(uct_seed(1.0)).descend]
        descents.append(scorer_descent(uct_seed(1.0)))
        assert [d.__code__.co_filename for d in descents] == ["<compiled descent>"] * 3
        # The scorer-built descents share one code object, compiled once.
        assert descents[2].__code__ is scorer_descent(parse("Q")).__code__

    def test_uct_descent_matches_generic_loop(self):
        # Equal statistics give exact ties; the hoisted 2*log(n_parent)
        # must leave every score, and so every tie list, unchanged.
        rng = random.Random(60)
        for c in (*K_VALUES, 0.7, 1e-3, 0.0, -1.0):
            policy = UctPolicy(c)
            for _ in range(300):
                pool = [(rng.randrange(1, 50), rng.randrange(0, 50) * 0.5) for _ in range(3)]
                stats = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(1, 7))]
                root = _stats_root([(v, min(t, float(v))) for v, t in stats])
                want = _best_children(policy, root.visits, root.children)
                assert want
                assert_descent_picks(policy.descend, root, want)

    def test_uct_descent_keeps_ties_between_different_statistics(self):
        # Children with different visit counts whose __call__ scores tie
        # exactly: a score that differs in the last bit breaks the tie.
        rng = random.Random(61)
        found = 0
        for c in K_VALUES:
            policy = UctPolicy(c)
            for _ in range(200):
                n_a, n_b = rng.randrange(1, 40), rng.randrange(1, 40)
                n_parent = n_a + n_b + rng.randrange(0, 200)
                total_a = rng.randrange(0, n_a + 1) * 1.0
                target = policy(total_a / n_a, n_parent, n_a)
                total_b = (target - policy(0.0, n_parent, n_b)) * n_b
                for _ in range(8):
                    score = policy(total_b / n_b, n_parent, n_b)
                    if score == target:
                        break
                    total_b = math.nextafter(total_b, math.inf if score < target else -math.inf)
                if score != target or n_a == n_b:
                    continue
                found += 1
                root = _stats_root([(n_a, total_a), (n_b, total_b)])
                root.visits = n_parent
                want = _best_children(policy, n_parent, root.children)
                assert want == root.children
                assert_descent_picks(policy.descend, root, want)
        assert found >= 200

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda c: UctPolicy(c),
            lambda c: ExpressionPolicy(uct_seed(c)),
            # Every child scores the same: a uniform walk, a tie per level.
            lambda c: ExpressionPolicy(parse(f"(k {c!r})")),
            # The least visited child; equal visits tie.
            lambda c: ExpressionPolicy(parse(f"(div (k {c!r}) Nc)")),
            lambda c: ExpressionPolicy(parse(f"(sub Q (mul (k {c!r}) (log Np)))")),
        ],
    )
    def test_descent_matches_select_loop_on_grown_trees(self, make_policy, monkeypatch):
        # From every node of trees grown by run_search, with terminals
        # reached or not: the same node and the same RNG state as the
        # per-level loop, ties at several levels of one descent included.
        tie_breaks = []

        def counted_draw(rng, n):
            tie_breaks.append(n)
            return draw_index(rng, n)

        monkeypatch.setattr(mcts, "draw_index", counted_draw)
        descents = tied = multi_tied = 0
        for c in (0.5, math.sqrt(2.0), 3.0):
            policy = make_policy(c)
            for seed, threshold in ((80, 0.02), (81, 0.004), (82, 1e-5)):
                env = FunctionEnv("f2", threshold=threshold)
                root, _ = run_search(env, policy, 300, random.Random(seed))
                stack = [root]
                while stack:
                    node = stack.pop()
                    stack.extend(node.children)
                    for draw_seed in range(2):
                        got_rng, want_rng = random.Random(draw_seed), random.Random(draw_seed)
                        tie_breaks.clear()
                        got = policy.descend(node, got_rng)
                        assert_same_path(got, _reference_select(node, policy, want_rng))
                        assert got_rng.getstate() == want_rng.getstate()
                        descents += 1
                        tied += len(tie_breaks) > 0
                        multi_tied += len(tie_breaks) > 1
        assert descents > 900
        assert tied > 40
        assert multi_tied > 0

    def test_expression_policy_call_matches_closed_form(self):
        policy = ExpressionPolicy(uct_seed(1.0))
        assert policy(0.5, 10, 5) == closed_form_uct(0.5, 10, 5, 1.0)


class TestDrawIndex:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_same_draws_as_randrange(self, n):
        # Every engine index pick goes through draw_index in place of
        # ``randrange(n)``.  A Python whose ``randrange`` draws otherwise
        # fails here before any search result changes.
        want_rng, got_rng = random.Random(2000 + n), random.Random(2000 + n)
        for _ in range(2000):
            assert draw_index(got_rng, n) == want_rng.randrange(n)
        assert got_rng.getstate() == want_rng.getstate()


class TestSelect:
    def test_expandable_root_returned_without_descent(self):
        env = FunctionEnv("f1")
        root = create_root(env)
        rng = random.Random(53)
        assert_same_path(select(root, UctPolicy(1.0), rng), [root])

    def test_higher_scored_child_chosen_deterministically(self):
        # Parent seen 10 times; child A (5 visits, mean 0.5) scores
        # 1.4597051824376162 under c=1, child B (8 visits, mean 0.3)
        # scores 1.0587135646925732, so A wins without touching the RNG.
        root = _stats_root([(5, 2.5), (8, 2.4)])
        root.visits = 10
        rng = random.Random(54)
        state_before = rng.getstate()
        picked = select(root, UctPolicy(1.0), rng)
        assert_same_path(picked, [root, root.children[0]])
        assert rng.getstate() == state_before
        a = closed_form_uct(0.5, 10, 5, 1.0)
        b = closed_form_uct(0.3, 10, 8, 1.0)
        assert a == pytest.approx(1.4597051824376162, abs=1e-12)
        assert b == pytest.approx(1.0587135646925732, abs=1e-12)

    def test_identical_children_split_evenly(self):
        rng = random.Random(55)
        counts = [0, 0]
        for _ in range(10_000):
            root = _stats_root([(5, 2.0), (5, 2.0)])
            root_, picked = select(root, UctPolicy(math.sqrt(2.0)), rng)
            assert root_ is root
            counts[root.children.index(picked)] += 1
        assert abs(counts[0] / 10_000 - 0.5) < 0.02

    def test_three_way_tie_uniform(self):
        rng = random.Random(56)
        counts = [0, 0, 0]
        for _ in range(12_000):
            root = _stats_root([(4, 1.0), (4, 1.0), (4, 1.0)])
            root_, picked = select(root, UctPolicy(1.0), rng)
            assert root_ is root
            counts[root.children.index(picked)] += 1
        for c in counts:
            assert abs(c / 12_000 - 1 / 3) < 0.02

    def test_scaled_policy_selects_identically(self):
        # Multiplying every score by 2 (exact in binary floating point,
        # so ties are preserved bit for bit) must not change anything.
        base = UctPolicy(math.sqrt(2.0))
        env1, env2 = FunctionEnv("f1"), FunctionEnv("f1")
        root1, log1 = run_search(env1, base, 400, random.Random(57))

        class Doubled:
            def __call__(self, q, n_parent, n_child):
                return 2.0 * base(q, n_parent, n_child)

            def descend(self, node, rng):
                return _reference_select(node, self, rng)

        root2, log2 = run_search(env2, Doubled(), 400, random.Random(57))
        assert log1 == log2
        assert tree_signature(root1) == tree_signature(root2)

    def test_policy_scoring_no_child_rejected(self):
        # A NaN mean reward makes every UCB1 score NaN, which is never the
        # best, so without a check the tie list stays empty and the
        # tie-break draws from an empty range.
        root = _stats_root([(5, math.nan), (5, math.nan)])
        root.visits = 10
        with pytest.raises(ValueError, match="above -inf"):
            select(root, UctPolicy(1.0), random.Random(59))

    @pytest.mark.parametrize(
        "policy, total",
        [
            # A NaN mean reward makes every score of Q + bonus NaN.
            (ExpressionPolicy(uct_seed(1.0)), math.nan),
            # Scores of exactly -inf tie with the starting best; they
            # must still count as no child above -inf.
            (ExpressionPolicy(parse("Q")), -math.inf),
            (UctPolicy(1.0), -math.inf),
        ],
    )
    def test_no_child_above_minus_inf_rejected(self, policy, total):
        root = _stats_root([(5, total), (5, total)])
        root.visits = 10
        with pytest.raises(ValueError, match="above -inf"):
            select(root, policy, random.Random(59))

    def test_descent_stops_at_expandable_node(self):
        env = FunctionEnv("f1")
        rng = random.Random(58)
        root = create_root(env)
        for _ in range(50):
            run_iteration(root, UctPolicy(0.5), env, rng)
        path = select(root, UctPolicy(0.5), rng)
        assert path[0] is root and len(path) > 1
        for parent, child in zip(path, path[1:]):
            assert child in parent.children
        node = path[-1]
        assert node.untried or not node.children


class TestExpand:
    def test_expansion_pops_one_action(self):
        env = FunctionEnv("f1")
        root = create_root(env)
        rng = random.Random(59)
        child = expand(root, env, rng)
        assert len(root.untried) == 1
        assert root.children == [child]
        assert child in root.children
        assert child.visits == 0 and child.total_reward == 0.0

    def test_both_children_partition_parent(self):
        env = FunctionEnv("f1")
        root = create_root(env)
        rng = random.Random(60)
        expand(root, env, rng)
        expand(root, env, rng)
        states = {child.state for child in root.children}
        assert states == {IntervalState(0.0, 0.5), IntervalState(0.5, 1.0)}
        with pytest.raises(ValueError):
            expand(root, env, rng)

    def test_first_expansion_uniform_over_actions(self):
        rng = random.Random(61)
        low = 0
        for _ in range(10_000):
            env = FunctionEnv("f1")
            root = create_root(env)
            child = expand(root, env, rng)
            if child.state == IntervalState(0.0, 0.5):
                low += 1
        assert abs(low / 10_000 - 0.5) < 0.02

    def test_new_nodes_own_their_untried_lists(self):
        # create_root and expand hand env.actions(state) to SearchNode,
        # which makes the node's one list of it: popping an action must
        # never reach a list the environment shares between states.
        class SharedActions(FunctionEnv):
            shared = [0, 1]

            def actions(self, state):
                return self.shared

        env = SharedActions("f1")
        rng = random.Random(62)
        root = create_root(env)
        child = expand(root, env, rng)
        expand(child, env, rng)
        assert env.shared == [0, 1]
        assert len(root.untried) == len(child.untried) == 1

    def test_terminal_child_has_no_untried(self):
        env = FunctionEnv("f1", threshold=0.6)
        root = create_root(env)
        child = expand(root, env, random.Random(62))
        assert env.is_terminal(child.state)
        assert child.untried == []


class TestRollout:
    def test_zero_length_rollout_at_terminal(self):
        env = ExpectedRewardEnv("f1", threshold=2.0)
        node = SearchNode(env.initial_state())
        rng = random.Random(63)
        before = rng.getstate()
        reward = rollout(node, env, rng)
        assert reward == eval_function("f1", 0.5)
        assert rng.getstate() == before

    def test_sure_reward(self):
        env = FunctionEnv(lambda x: 1.0, threshold=2.0)
        node = SearchNode(env.initial_state())
        rng = random.Random(64)
        assert all(rollout(node, env, rng) == 1.0 for _ in range(100))

    def test_bernoulli_mean_from_rollouts(self):
        env = FunctionEnv(lambda x: 0.98, threshold=2.0)
        node = SearchNode(env.initial_state())
        rng = random.Random(65)
        total = sum(rollout(node, env, rng) for _ in range(10_000))
        assert abs(total / 10_000 - 0.98) < 0.01

    def test_random_descent_reaches_terminal(self):
        env = ExpectedRewardEnv("f1", threshold=0.2)
        node = SearchNode(env.initial_state())
        rng = random.Random(66)
        rewards = {rollout(node, env, rng) for _ in range(200)}
        # Eight depth-3 leaves; their deterministic values must all appear.
        want = {
            eval_function("f1", (2 * k + 1) / 16)
            for k in range(8)
        }
        assert rewards == want


class TestBackpropagate:
    def _chain(self, length):
        nodes = [SearchNode(IntervalState(0.0, 1.0))]
        for _ in range(length - 1):
            child = SearchNode(IntervalState(0.0, 0.5))
            nodes[-1].children.append(child)
            nodes.append(child)
        return nodes

    def test_path_of_depth_three_updates_four_nodes(self):
        nodes = self._chain(4)
        sibling = SearchNode(IntervalState(0.5, 1.0))
        nodes[0].children.append(sibling)
        backpropagate(nodes, 1.0)
        assert [n.visits for n in nodes] == [1, 1, 1, 1]
        assert [n.total_reward for n in nodes] == [1.0, 1.0, 1.0, 1.0]
        assert sibling.visits == 0

    def test_mean_after_two_rewards(self):
        nodes = self._chain(2)
        backpropagate(nodes, 1.0)
        backpropagate(nodes, 0.0)
        assert nodes[-1].q == 0.5
        assert nodes[0].visits == 2


class TestSearchNode:
    def test_count_nodes_of_a_deep_chain(self):
        # A recursive count costs two frames per level (the method and
        # its generator), so a chain this deep would pass the recursion
        # limit.
        root = node = SearchNode(IntervalState(0.0, 1.0))
        for _ in range(599):
            child = SearchNode(IntervalState(0.0, 0.5))
            node.children.append(child)
            node = child
        assert root.count_nodes() == 600


class TestRunIteration:
    def test_first_iteration_creates_second_node(self):
        env = FunctionEnv("f1")
        root = create_root(env)
        expanded = run_iteration(root, UctPolicy(1.0), env, random.Random(67))
        assert expanded is not None and expanded in root.children
        assert root.count_nodes() == 2
        assert root.visits == 1

    def test_node_count_tracks_iterations_before_terminals(self):
        env = FunctionEnv("f1")
        root = create_root(env)
        rng = random.Random(68)
        for _ in range(40):
            assert run_iteration(root, UctPolicy(1.0), env, rng) is not None
        assert root.count_nodes() == 41
        assert root.visits == 40

    def test_terminal_reselection_consumes_budget_without_growth(self):
        env = ExpectedRewardEnv("f1", threshold=0.6)
        root = create_root(env)
        rng = random.Random(69)
        assert run_iteration(root, UctPolicy(1.0), env, rng) is not None
        assert run_iteration(root, UctPolicy(1.0), env, rng) is not None
        for i in range(3, 10):
            assert run_iteration(root, UctPolicy(1.0), env, rng) is None
            assert root.count_nodes() == 3
            assert root.visits == i


class TestRunSearch:
    @pytest.mark.parametrize("iterations", [2.5, 1.0, True])
    def test_non_integer_iterations_rejected(self, iterations):
        # 2.5 and 1.0 used to fail with a TypeError from range(); True
        # ran one iteration.
        env = FunctionEnv("f1")
        with pytest.raises(ValueError, match="iterations must be an integer"):
            run_search(env, UctPolicy(1.0), iterations, random.Random(70))
        assert env.reward_draws == 0

    def test_log_matches_expansions(self):
        env = FunctionEnv("f1")
        root, log = run_search(env, UctPolicy(0.5), 300, random.Random(70))
        assert len(log) == 300  # depth-17 terminals unreachable this early
        assert root.count_nodes() == 301
        assert root.visits == 300
        indices = [i for i, _ in log]
        assert indices == sorted(indices) == list(range(300))
        assert all(0.0 <= x <= 1.0 for _, x in log)

    def test_three_iterations_log_three_expansions(self):
        env = FunctionEnv("f1")
        _, log = run_search(env, UctPolicy(1.0), 3, random.Random(71))
        assert len(log) == 3

    def test_seeded_rerun_is_identical(self):
        roots, logs = [], []
        for _ in range(2):
            env = FunctionEnv("f1")
            root, log = run_search(env, UctPolicy(math.sqrt(2.0)), 500, random.Random(72))
            roots.append(root)
            logs.append(log)
        assert logs[0] == logs[1]
        assert tree_signature(roots[0]) == tree_signature(roots[1])

    def test_statistics_invariants_after_real_run(self):
        env = FunctionEnv("f1")
        root, log = run_search(env, UctPolicy(0.5), 300, random.Random(73))
        stack = [root]
        seen = {id(root)}
        while stack:
            node = stack.pop()
            assert 0.0 <= node.total_reward <= node.visits
            if node.visits:
                assert 0.0 <= node.q <= 1.0
            for child in node.children:
                # Every node hangs under exactly one parent.
                assert id(child) not in seen
                seen.add(id(child))
                stack.append(child)
            if node.children:
                expected = sum(c.visits for c in node.children)
                if node is not root:
                    expected += 1  # the rollout run at its own expansion
                assert node.visits == expected

    def test_bad_iteration_count_rejected(self):
        with pytest.raises(ValueError):
            run_search(FunctionEnv("f1"), UctPolicy(1.0), 0, random.Random(0))


class TestCloneAndBestChild:
    def test_best_child_picks_highest_mean(self):
        root = _stats_root([(10, 3.0), (10, 7.0)])
        assert best_child(root, random.Random(75)) is root.children[1]

    def test_value_beats_visit_count(self):
        root = _stats_root([(100, 50.0), (2, 1.8)])
        assert best_child(root, random.Random(76)) is root.children[1]

    def test_ties_uniform(self):
        rng = random.Random(77)
        counts = [0, 0]
        for _ in range(10_000):
            root = _stats_root([(4, 2.0), (8, 4.0)])
            counts[root.children.index(best_child(root, rng))] += 1
        assert abs(counts[0] / 10_000 - 0.5) < 0.02

    def test_error_without_visited_children(self):
        env = FunctionEnv("f1")
        with pytest.raises(ValueError):
            best_child(create_root(env), random.Random(78))

    def test_create_root_on_terminal_environment(self):
        # The root interval is already terminal.
        root = create_root(FunctionEnv("f1", threshold=2.0))
        assert root.untried == []


class TestNoReferenceCycles:
    """Nodes link only to their children, a compiled formula is not in
    its own globals and a scorer's closures link only down the formula
    tree, so reference counting frees every search's objects when its
    result is dropped, with nothing left for the cyclic garbage
    collector."""

    @pytest.mark.parametrize(
        "search",
        [
            lambda: run_search(FunctionEnv("f2"), UctPolicy(1.0), 300, random.Random(90)),
            lambda: run_search(
                FunctionEnv("f2"), ExpressionPolicy(uct_seed(1.0)), 300, random.Random(91)
            ),
            lambda: UctPolicy(1.0),
            lambda: ExpressionPolicy(parse("(add Q (div (k 1.0) Nc))")),
            lambda: run_search(
                FunctionEnv("f2"),
                SimpleNamespace(descend=scorer_descent(uct_seed(1.0))),
                300,
                random.Random(94),
            ),
            lambda: evaluate_individual(uct_seed(1.0), FunctionEnv("f2"), 30, random.Random(92)),
            lambda: run_siea_search(
                FunctionEnv("f2"),
                EvolutionConfig(lambda_=2, generations=2, sims_per_eval=5),
                50,
                random.Random(93),
            ),
        ],
        ids=[
            "uct-search",
            "expression-search",
            "uct-policy",
            "expression-policy",
            "scorer-search",
            "evaluation",
            "siea",
        ],
    )
    def test_search_leaves_no_garbage_cycles(self, search):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            search()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
