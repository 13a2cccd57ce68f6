"""Evolution-strategy tests: semantic distance, the tie-break ladder of
parent selection, fitness evaluation on fresh trees, the full
evolutionary loop, and the evolve-then-search driver."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tree_signature
from evomcts import mcts, siea
from evomcts.bench import FunctionEnv
from evomcts.expr import DEFAULT_MAX_DEPTH, parse, random_subtree, uct_seed
from evomcts.mcts import ExpressionPolicy, run_search, scorer_descent
from evomcts.siea import (
    EvolutionConfig,
    Individual,
    evaluate_individual,
    evolve,
    run_siea_search,
    select_parent,
    ssd,
)

_vectors = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40)


class TestSemanticDistance:
    def test_frozen_example(self):
        assert ssd([1.0, 0.0, 1.0], [0.0, 0.0, 1.0]) == pytest.approx(1 / 3)

    def test_identity(self):
        v = [0.2, 0.9, 0.0, 1.0]
        assert ssd(v, v) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssd([1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            ssd([], [])

    @given(p=_vectors)
    @settings(max_examples=100)
    def test_non_negative_and_identity(self, p):
        assert ssd(p, p) == 0.0
        q = [1.0 - x for x in p]
        assert ssd(p, q) >= 0.0

    @given(data=st.data(), n=st.integers(min_value=1, max_value=30))
    @settings(max_examples=150)
    def test_symmetry_and_triangle(self, data, n):
        box = st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
        )
        p, q, r = data.draw(box), data.draw(box), data.draw(box)
        assert ssd(p, q) == ssd(q, p)
        assert ssd(p, r) <= ssd(p, q) + ssd(q, r) + 1e-12

    def test_bounded_by_one_for_rewards(self):
        rng = random.Random(81)
        for _ in range(500):
            n = rng.randrange(1, 40)
            p = [rng.random() for _ in range(n)]
            q = [rng.random() for _ in range(n)]
            assert 0.0 <= ssd(p, q) <= 1.0


def _ind(fitness, semantics, tag="Q"):
    return Individual(parse(tag), fitness, semantics)


class TestSelectParent:
    def test_unique_best_wins_regardless_of_semantics(self):
        parent = _ind(0.5, [0.5] * 4)
        offspring = [
            _ind(0.2, [0.2] * 4),
            _ind(0.9, [0.9] * 4),
            _ind(0.4, [0.4] * 4),
        ]
        for seed in range(20):
            picked = select_parent(offspring, parent, 5.0, 10.0, random.Random(seed))
            assert picked == (1, "unique_best")

    def test_semantic_tiebreak_prefers_closest_to_alpha(self):
        # Two tied-best children at distances 6 and 9 from the parent:
        # both fall inside the (5, 10) band and 6 is nearer the floor.
        parent = _ind(0.5, [0.0, 0.0])
        near = _ind(0.9, [6.0, 6.0], tag="Np")
        far = _ind(0.9, [9.0, 9.0], tag="Nc")
        for seed in range(20):
            picked = select_parent([far, near], parent, 5.0, 10.0, random.Random(seed))
            assert picked == (1, "semantic")

    def test_distance_inside_band_takes_semantic(self):
        # Distance 7 lies inside (5, 10); the tied sibling at distance 0 does not.
        parent = _ind(0.5, [0.0, 0.0])
        same = _ind(0.9, [0.0, 0.0], tag="Np")
        inside = _ind(0.9, [7.0, 7.0], tag="Nc")
        for seed in range(20):
            picked = select_parent([same, inside], parent, 5.0, 10.0, random.Random(seed))
            assert picked == (1, "semantic")

    def test_zero_distance_falls_through_to_random(self):
        parent = _ind(0.5, [1.0])
        offspring = [_ind(0.9, [1.0], tag="Np"), _ind(0.9, [1.0], tag="Nc")]
        for seed in range(20):
            _, branch = select_parent(offspring, parent, 0.5, 10.0, random.Random(seed))
            assert branch == "random"

    def test_band_bounds_are_strict(self):
        # Distances of exactly alpha = 5 and beta = 10 are both outside.
        parent = _ind(0.5, [0.0, 0.0])
        at_alpha = _ind(0.9, [5.0, 5.0], tag="Np")
        at_beta = _ind(0.9, [10.0, 10.0], tag="Nc")
        for seed in range(20):
            _, branch = select_parent([at_alpha, at_beta], parent, 5.0, 10.0, random.Random(seed))
            assert branch == "random"

    def test_semantic_tiebreak_with_small_band(self):
        parent = _ind(0.5, [0.5] * 10)
        inside = _ind(0.9, [0.4] * 10, tag="Np")  # distance 0.1
        outside = _ind(0.9, [0.9] * 10, tag="Nc")  # distance 0.4
        picked = select_parent([outside, inside], parent, 0.05, 0.2, random.Random(7))
        assert picked == (1, "semantic")

    def test_empty_band_falls_back_to_uniform(self):
        parent = _ind(0.5, [0.0] * 4)
        a = _ind(0.9, [0.2] * 4)
        b = _ind(0.9, [0.4] * 4)
        rng = random.Random(82)
        counts = {(0, "random"): 0, (1, "random"): 0}
        for _ in range(10_000):
            counts[select_parent([a, b], parent, 5.0, 10.0, rng)] += 1
        assert abs(counts[(0, "random")] / 10_000 - 0.5) < 0.02

    def test_unevaluated_parent_falls_back_to_uniform(self):
        parent = Individual(uct_seed(math.sqrt(2.0)))
        a = _ind(0.9, [0.9] * 4)
        b = _ind(0.9, [0.1] * 4)
        rng = random.Random(83)
        counts = {(0, "random"): 0, (1, "random"): 0}
        for _ in range(4000):
            counts[select_parent([a, b], parent, 0.05, 0.2, rng)] += 1
        assert counts[(0, "random")] > 1500 and counts[(1, "random")] > 1500

    def test_result_always_in_max_fitness_set(self):
        rng = random.Random(84)
        for _ in range(300):
            n = rng.randrange(1, 6)
            offspring = [
                _ind(rng.choice([0.3, 0.6, 0.9]), [rng.random() for _ in range(5)])
                for _ in range(n)
            ]
            parent = _ind(0.5, [rng.random() for _ in range(5)])
            best = max(o.fitness for o in offspring)
            index, _ = select_parent(offspring, parent, 0.05, 0.2, rng)
            assert offspring[index].fitness == best

    def test_empty_offspring_rejected(self):
        with pytest.raises(ValueError):
            select_parent([], _ind(0.5, [0.5]), 5.0, 10.0, random.Random(0))


class TestEvaluateIndividual:
    def test_sure_reward_gives_unit_fitness(self):
        env = FunctionEnv(lambda x: 1.0)
        got = evaluate_individual(uct_seed(1.0), env, 30, random.Random(85))
        assert got.fitness == 1.0
        assert got.semantics == [1.0] * 30

    def test_same_draws_as_a_search_from_a_fresh_root(self):
        env = FunctionEnv("f2")
        rng_eval, rng_search = random.Random(86), random.Random(86)
        got = evaluate_individual(uct_seed(1.0), env, 30, rng_eval)
        root, _ = run_search(env, ExpressionPolicy(uct_seed(1.0)), 30, rng_search)
        assert rng_eval.getstate() == rng_search.getstate()
        assert sum(got.semantics) == root.total_reward

    def test_fitness_is_mean_of_semantics(self):
        env = FunctionEnv("f1")
        got = evaluate_individual(uct_seed(math.sqrt(2.0)), env, 30, random.Random(88))
        assert len(got.semantics) == 30
        assert all(v in (0.0, 1.0) for v in got.semantics)
        assert got.fitness == pytest.approx(sum(got.semantics) / 30)
        assert 0.0 <= got.fitness <= 1.0

    def test_deterministic_per_seed(self):
        env = FunctionEnv("f1")
        runs = [
            evaluate_individual(uct_seed(math.sqrt(2.0)), env, 30, random.Random(89))
            for _ in range(2)
        ]
        assert runs[0].fitness == runs[1].fitness
        assert runs[0].semantics == runs[1].semantics

    def test_draw_budget_matches_sims(self):
        env = FunctionEnv("f1")
        evaluate_individual(uct_seed(1.0), env, 17, random.Random(90))
        assert env.reward_draws == 17

    @pytest.mark.parametrize("sims", [2.5, 1.0, True])
    def test_non_integer_sims_rejected(self, sims):
        # 2.5 and 1.0 used to fail with a TypeError from range(); True
        # ran one iteration.
        env = FunctionEnv("f1")
        with pytest.raises(ValueError, match="sims must be an integer"):
            evaluate_individual(uct_seed(1.0), env, sims, random.Random(90))
        assert env.reward_draws == 0

    def test_offspring_scored_over_the_search_domain(self, monkeypatch):
        domains = []

        def spy(expression, domain=None):
            domains.append(domain)
            return scorer_descent(expression, domain)

        monkeypatch.setattr(siea, "scorer_descent", spy)
        evaluate_individual(uct_seed(1.0), FunctionEnv("f1"), 5, random.Random(93))
        assert domains == [mcts.SEARCH_DOMAIN]

    @given(
        tree_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        function=st.sampled_from(["f1", "f2", "f3", "f4", "f5"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_run_as_a_compiled_search(self, tree_seed, seed, function):
        # Random evolved-size formulas: the scorer-built descent that
        # evaluates offspring must walk exactly as the compiled one.
        e = random_subtree(DEFAULT_MAX_DEPTH, random.Random(tree_seed))
        env_eval, env_search = _RecordingEnv(function), _RecordingEnv(function)
        rng_eval, rng_search = random.Random(seed), random.Random(seed)
        got = evaluate_individual(e, env_eval, 30, rng_eval)
        run_search(env_search, ExpressionPolicy(e), 30, rng_search)
        assert got.semantics == env_search.rewards
        assert got.fitness == sum(env_search.rewards) / 30
        assert rng_eval.getstate() == rng_search.getstate()
        assert env_eval.reward_draws == env_search.reward_draws == 30


class _RecordingEnv(FunctionEnv):
    """Keeps every reward it hands out, in order."""

    def __init__(self, function):
        super().__init__(function)
        self.rewards = []

    def sample_reward(self, state, rng):
        reward = super().sample_reward(state, rng)
        self.rewards.append(reward)
        return reward


class TestEvolutionConfig:
    def test_defaults_budget(self):
        assert EvolutionConfig().eval_budget == 2400

    def test_validation(self):
        with pytest.raises(TypeError):
            EvolutionConfig(mu=2)  # a (1, lambda) strategy has no mu field
        with pytest.raises(ValueError):
            EvolutionConfig(lambda_=0)
        with pytest.raises(ValueError):
            EvolutionConfig(generations=-1)
        with pytest.raises(ValueError):
            EvolutionConfig(sims_per_eval=0)
        with pytest.raises(ValueError):
            EvolutionConfig(alpha=10.0, beta=10.0)

    @pytest.mark.parametrize("field", ["lambda_", "generations", "sims_per_eval"])
    @pytest.mark.parametrize("value", [2.5, 2.0, 1.0, True, False, "2"])
    def test_counts_must_be_integers(self, field, value):
        # lambda_=2.5 used to construct and then fail with a TypeError
        # inside evolve; generations=True gave an eval_budget of 120.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EvolutionConfig(**{field: value})

    @pytest.mark.parametrize(
        "alpha, beta",
        [(-math.inf, math.inf), (-math.inf, 10.0), (5.0, math.inf), (math.nan, 10.0), (5.0, math.nan)],
    )
    def test_non_finite_bounds_rejected(self, alpha, beta):
        # alpha = -inf, beta = inf used to pass: every gap abs(d - alpha)
        # was inf, so a uniform pick was logged as "semantic".
        with pytest.raises(ValueError, match="must be finite"):
            EvolutionConfig(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("alpha, beta", [(True, 10.0), (0.0, True), (False, 10.0)])
    def test_bool_bounds_rejected(self, alpha, beta):
        # alpha=True used to be accepted and read as 1.
        with pytest.raises(ValueError, match="must be numbers"):
            EvolutionConfig(alpha=alpha, beta=beta)

    def test_bounds_stored_as_floats(self):
        # Both are logged in every siea run header, so 5 must log as 5.0.
        cfg = EvolutionConfig(alpha=5, beta=10)
        assert type(cfg.alpha) is float and type(cfg.beta) is float


class TestEvolve:
    def test_zero_generations_returns_seed(self):
        env = FunctionEnv("f1")
        best, history = evolve(env, EvolutionConfig(generations=0), random.Random(91))
        assert str(best.expression) == str(uct_seed(math.sqrt(2.0)))
        assert best.fitness is None
        assert history == []
        assert env.reward_draws == 0

    def test_default_budget_consumed_exactly(self):
        env = FunctionEnv("f1")
        evolve(env, EvolutionConfig(), random.Random(92))
        assert env.reward_draws == 2400

    def test_history_schema(self):
        env = FunctionEnv("f1")
        cfg = EvolutionConfig(generations=5, lambda_=3, sims_per_eval=4)
        best, history = evolve(env, cfg, random.Random(93))
        assert len(history) == 5
        for g, record in enumerate(history, start=1):
            assert record["generation"] == g
            assert isinstance(record["parent_expr"], str)
            assert len(record["offspring"]) == 3
            assert record["selection_branch"] in ("unique_best", "semantic", "random")
            assert 0 <= record["selected_index"] < 3
            for entry in record["offspring"]:
                assert set(entry) == {"expr", "fitness", "ssd_to_parent"}
                assert 0.0 <= entry["fitness"] <= 1.0
        # The first parent is the never-evaluated seed.
        assert history[0]["parent_fitness"] is None
        assert history[0]["parent_expr"] == str(uct_seed(math.sqrt(2.0)))
        # Subsequent parents are the previously selected offspring.
        for prev, record in zip(history, history[1:]):
            chosen = prev["offspring"][prev["selected_index"]]
            assert record["parent_expr"] == chosen["expr"]
            assert record["parent_fitness"] == chosen["fitness"]

    def test_parent_depth_capped_every_generation(self):
        env = FunctionEnv("f1")
        cfg = EvolutionConfig(generations=12, lambda_=4, sims_per_eval=2)
        _, history = evolve(env, cfg, random.Random(94))
        for record in history:
            assert parse(record["parent_expr"]).depth() <= DEFAULT_MAX_DEPTH
            for entry in record["offspring"]:
                assert parse(entry["expr"]).depth() <= DEFAULT_MAX_DEPTH

    def test_best_of_run_is_max_offspring_fitness(self):
        env = FunctionEnv("f1")
        cfg = EvolutionConfig(generations=8, lambda_=4, sims_per_eval=5)
        best, history = evolve(env, cfg, random.Random(95))
        all_fitness = [e["fitness"] for r in history for e in r["offspring"]]
        assert best.fitness == max(all_fitness)

    def test_semantic_branch_inert_under_default_bounds(self):
        # Rewards live in [0,1], so semantic distances never reach the
        # default lower bound of 5: ties must resolve by the random arm.
        env = FunctionEnv("f1")
        cfg = EvolutionConfig(generations=15, lambda_=4, sims_per_eval=6)
        _, history = evolve(env, cfg, random.Random(96))
        branches = {r["selection_branch"] for r in history}
        assert "semantic" not in branches
        for record in history:
            for entry in record["offspring"]:
                if entry["ssd_to_parent"] is not None:
                    assert entry["ssd_to_parent"] <= 1.0

    def test_semantic_branch_reachable_with_tight_bounds(self):
        # With the band lowered into the reward scale the semantic arm
        # must actually fire on ties somewhere across a handful of runs.
        env = FunctionEnv("f1")
        cfg = EvolutionConfig(generations=20, lambda_=4, sims_per_eval=6, alpha=0.02, beta=0.9)
        seen = set()
        for seed in range(8):
            _, history = evolve(env, cfg, random.Random(seed))
            seen.update(r["selection_branch"] for r in history)
        assert "semantic" in seen


class TestRunSieaSearch:
    CFG = dict(generations=2, lambda_=2, sims_per_eval=3)

    def test_budget_conservation_small(self):
        env = FunctionEnv("f1")
        cfg = EvolutionConfig(**self.CFG)
        root, log, best, history = run_siea_search(env, cfg, post_iterations=20, rng=random.Random(97))
        assert env.reward_draws == cfg.eval_budget + 20 == 32
        assert len(log) <= 20
        assert root.visits == 20
        assert len(history) == 2

    def test_post_search_uses_fresh_tree(self):
        env = FunctionEnv("f1")
        root, log, _, _ = run_siea_search(
            env, EvolutionConfig(**self.CFG), post_iterations=15, rng=random.Random(98)
        )
        assert root.count_nodes() == len(log) + 1

    def test_seeded_reruns_identical(self):
        outcomes = []
        for _ in range(2):
            env = FunctionEnv("f1")
            root, log, best, history = run_siea_search(
                env, EvolutionConfig(**self.CFG), post_iterations=30, rng=random.Random(99)
            )
            outcomes.append((str(best.expression), log, tree_signature(root), history))
        assert outcomes[0] == outcomes[1]

    def test_rng_required(self):
        with pytest.raises(TypeError):
            run_siea_search(FunctionEnv("f1"), EvolutionConfig(**self.CFG), 10)

    @pytest.mark.parametrize("post_iterations", [0, -1])
    def test_empty_deployment_rejected_before_evolving(self, post_iterations):
        # It used to spend all 2,400 evolution draws, then raise from
        # run_search.
        env = FunctionEnv("f1")
        with pytest.raises(ValueError, match="post_iterations must be >= 1"):
            run_siea_search(env, EvolutionConfig(), post_iterations, random.Random(100))
        assert env.reward_draws == 0

    @pytest.mark.parametrize("post_iterations", [2.5, 20.0, 1.0, True])
    def test_non_integer_deployment_rejected_before_evolving(self, post_iterations):
        # 2.5 passed the < 1 check, spent the evolution draws, and then
        # range() raised a TypeError; True would have run one iteration.
        env = FunctionEnv("f1")
        with pytest.raises(ValueError, match="post_iterations must be an integer"):
            run_siea_search(env, EvolutionConfig(**self.CFG), post_iterations, random.Random(100))
        assert env.reward_draws == 0

    def test_compiles_only_the_deployed_formula(self, monkeypatch):
        # Offspring are scored through closures; only the best-of-run
        # formula's descent is compiled, by its ExpressionPolicy.  (The
        # closure factories expr compiles on first use are per operator,
        # not per formula.)
        sources = []

        def counted_compile(source, *args, **kwargs):
            sources.append(source)
            return compile(source, *args, **kwargs)

        monkeypatch.setattr(mcts, "compile", counted_compile, raising=False)
        run_siea_search(FunctionEnv("f1"), EvolutionConfig(**self.CFG), 20, random.Random(101))
        assert len(sources) == 1
