"""Search-engine tests: selection, expansion, rollouts, backpropagation,
full iterations, and the statistics invariants of the grown tree."""

import math
import random

import pytest

from conftest import closed_form_uct, tree_signature
from evomcts.bench import FunctionEnv, IntervalState, eval_function
from evomcts.expr import K_VALUES, parse, uct_seed
from evomcts.mcts import (
    ExpressionPolicy,
    SearchNode,
    UctPolicy,
    backpropagate,
    best_child,
    create_root,
    expand,
    rollout,
    run_iteration,
    run_search,
    select,
)


def _leaf_env(**kwargs):
    """Environment whose root interval is already terminal."""
    return FunctionEnv(kwargs.pop("function", "f1"), threshold=2.0, **kwargs)


def _best_children(policy, n_parent, children):
    """Reference chooser: score each child with ``policy(q, n_parent,
    n_child)`` and keep the ties at the top score, as ``best_children``
    must."""
    best_score = -math.inf
    ties = []
    for child in children:
        score = policy(child.total_reward / child.visits, n_parent, child.visits)
        if score > best_score:
            best_score = score
            ties = [child]
        elif score == best_score:
            ties.append(child)
    return ties if best_score != -math.inf else []


def _stats_root(child_stats):
    """Root with fixed child statistics: child_stats = [(visits, total), ...]."""
    root = SearchNode(IntervalState(0.0, 1.0), untried=None)
    root.untried = []
    for visits, total in child_stats:
        child = SearchNode(IntervalState(0.0, 0.5), parent=root, untried=[0, 1])
        child.visits = visits
        child.total_reward = total
        root.children.append(child)
        root.visits += visits
    return root


class TestPolicies:
    def test_uct_policy_matches_closed_form(self):
        rng = random.Random(51)
        for c in K_VALUES:
            policy = UctPolicy(c)
            for _ in range(200):
                n_parent = rng.randrange(1, 10_000)
                n_child = rng.randrange(1, n_parent + 1)
                q = rng.random()
                assert policy(q, n_parent, n_child) == closed_form_uct(q, n_parent, n_child, c)

    def test_expression_policy_equals_uct_policy(self):
        rng = random.Random(52)
        for c in K_VALUES:
            tree_policy = ExpressionPolicy(uct_seed(c))
            closed = UctPolicy(c)
            for _ in range(200):
                n_parent = rng.randrange(1, 10_000)
                n_child = rng.randrange(1, n_parent + 1)
                stats = (rng.random(), n_parent, n_child)
                assert abs(tree_policy(*stats) - closed(*stats)) <= 1e-9

    def test_uct_best_children_matches_generic_loop(self):
        # Equal statistics give exact ties; the hoisted 2*log(n_parent)
        # must leave every score, and so every tie list, unchanged.
        rng = random.Random(60)
        for c in (*K_VALUES, 0.7, 1e-3):
            policy = UctPolicy(c)
            for _ in range(300):
                pool = [(rng.randrange(1, 50), rng.randrange(0, 50) * 0.5) for _ in range(3)]
                stats = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(1, 7))]
                root = _stats_root([(v, min(t, float(v))) for v, t in stats])
                want = _best_children(policy, root.visits, root.children)
                got = policy.best_children(root.visits, root.children)
                assert [id(n) for n in got] == [id(n) for n in want]
                assert want

    def test_uct_best_children_keeps_ties_between_different_statistics(self):
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
                assert policy.best_children(n_parent, root.children) == want
        assert found >= 200

    def test_expression_policy_call_matches_closed_form(self):
        policy = ExpressionPolicy(uct_seed(1.0))
        assert policy(0.5, 10, 5) == closed_form_uct(0.5, 10, 5, 1.0)


class TestSelect:
    def test_expandable_root_returned_without_descent(self):
        env = FunctionEnv("f1")
        root = create_root(env)
        rng = random.Random(53)
        assert select(root, UctPolicy(1.0), rng) is root

    def test_higher_scored_child_chosen_deterministically(self):
        # Parent seen 10 times; child A (5 visits, mean 0.5) scores
        # 1.4597051824376162 under c=1, child B (8 visits, mean 0.3)
        # scores 1.0587135646925732, so A wins without touching the RNG.
        root = _stats_root([(5, 2.5), (8, 2.4)])
        root.visits = 10
        rng = random.Random(54)
        state_before = rng.getstate()
        picked = select(root, UctPolicy(1.0), rng)
        assert picked is root.children[0]
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
            picked = select(root, UctPolicy(math.sqrt(2.0)), rng)
            counts[root.children.index(picked)] += 1
        assert abs(counts[0] / 10_000 - 0.5) < 0.02

    def test_three_way_tie_uniform(self):
        rng = random.Random(56)
        counts = [0, 0, 0]
        for _ in range(12_000):
            root = _stats_root([(4, 1.0), (4, 1.0), (4, 1.0)])
            picked = select(root, UctPolicy(1.0), rng)
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

            def best_children(self, n_parent, children):
                return _best_children(self, n_parent, children)

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
        node = select(root, UctPolicy(0.5), rng)
        assert node.untried or not node.children


class TestExpand:
    def test_expansion_pops_one_action(self):
        env = FunctionEnv("f1")
        root = create_root(env)
        rng = random.Random(59)
        child = expand(root, env, rng)
        assert len(root.untried) == 1
        assert root.children == [child]
        assert child.parent is root
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

    def test_terminal_child_has_no_untried(self):
        env = FunctionEnv("f1", threshold=0.6)
        root = create_root(env)
        child = expand(root, env, random.Random(62))
        assert env.is_terminal(child.state)
        assert child.untried == []


class TestRollout:
    def test_zero_length_rollout_at_terminal(self):
        env = _leaf_env(bernoulli=False)
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
        env = FunctionEnv("f1", threshold=0.2, bernoulli=False)
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
            child = SearchNode(IntervalState(0.0, 0.5), parent=nodes[-1])
            nodes[-1].children.append(child)
            nodes.append(child)
        return nodes

    def test_path_of_depth_three_updates_four_nodes(self):
        nodes = self._chain(4)
        sibling = SearchNode(IntervalState(0.5, 1.0), parent=nodes[0])
        nodes[0].children.append(sibling)
        backpropagate(nodes[-1], 1.0)
        assert [n.visits for n in nodes] == [1, 1, 1, 1]
        assert [n.total_reward for n in nodes] == [1.0, 1.0, 1.0, 1.0]
        assert sibling.visits == 0

    def test_mean_after_two_rewards(self):
        nodes = self._chain(2)
        backpropagate(nodes[-1], 1.0)
        backpropagate(nodes[-1], 0.0)
        assert nodes[-1].q == 0.5
        assert nodes[0].visits == 2


class TestRunIteration:
    def test_first_iteration_creates_second_node(self):
        env = FunctionEnv("f1")
        root = create_root(env)
        expanded = run_iteration(root, UctPolicy(1.0), env, random.Random(67))
        assert expanded is not None and expanded.parent is root
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
        env = FunctionEnv("f1", threshold=0.6, bernoulli=False)
        root = create_root(env)
        rng = random.Random(69)
        assert run_iteration(root, UctPolicy(1.0), env, rng) is not None
        assert run_iteration(root, UctPolicy(1.0), env, rng) is not None
        for i in range(3, 10):
            assert run_iteration(root, UctPolicy(1.0), env, rng) is None
            assert root.count_nodes() == 3
            assert root.visits == i


class TestRunSearch:
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
        while stack:
            node = stack.pop()
            assert 0.0 <= node.total_reward <= node.visits
            if node.visits:
                assert 0.0 <= node.q <= 1.0
            for child in node.children:
                assert child.parent is node
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
        root = create_root(_leaf_env())
        assert root.untried == []
