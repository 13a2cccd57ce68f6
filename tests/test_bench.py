"""Benchmark-function and bisection-environment tests.

The five functions are checked against scalar re-derivations and numpy
array forms in ``conftest`` (second routes to each value) on top of the
frozen spot values, and the interval mechanics are checked down to the
exact dyadic grid of terminal centres."""

import hashlib
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from conftest import SCALAR_ORACLES, eval_clipped, eval_raw
from evomcts.bench import (
    DEFAULT_THRESHOLD,
    FUNCTION_IDS,
    FunctionEnv,
    IntervalState,
    eval_function,
)


class TestFunctionValues:
    def test_frozen_spot_values(self):
        assert eval_function("f1", 0.5) == pytest.approx(1.0, abs=1e-12)
        assert eval_function("f2", 0.0) == pytest.approx(0.5, abs=1e-12)
        assert eval_function("f3", 0.0) == 0.5
        assert eval_function("f4", 0.0) == pytest.approx(0.0, abs=1e-12)
        assert eval_function("f4", 0.1) == pytest.approx(0.98, abs=1e-12)
        assert eval_function("f5", 0.5) == pytest.approx(0.90, abs=1e-12)
        assert eval_function("f3", 0.75) == pytest.approx(0.7891749261968658, abs=1e-12)

    def test_matches_scalar_oracles(self):
        rng = random.Random(41)
        xs = [rng.random() for _ in range(10_000)] + [0.0, 0.5, 1.0]
        for fid in ("f1", "f2", "f4", "f5"):
            oracle = SCALAR_ORACLES[fid]
            for x in xs:
                want = min(max(oracle(x), 0.0), 1.0)
                assert eval_function(fid, x) == pytest.approx(want, abs=1e-12), (fid, x)

    def test_f3_matches_scalar_oracle_where_conditioned(self):
        # Below x ~ 0.1 the oscillation argument 1/x^5 exceeds 1e5 and a
        # one-ulp difference in the argument moves sin by more than any
        # useful tolerance, so the two-route comparison is restricted to
        # the well-conditioned region; the wild region is covered by the
        # branch-range test below.
        rng = random.Random(48)
        xs = [0.1 + 0.9 * rng.random() for _ in range(10_000)] + [0.1, 0.5, 0.75, 1.0]
        for x in xs:
            want = min(max(SCALAR_ORACLES["f3"](x), 0.0), 1.0)
            assert eval_function("f3", x) == pytest.approx(want, abs=1e-9), x

    def test_f3_branch_ranges(self):
        # The raw array oracle, and the library's clamped scalar form,
        # which leaves these ranges alone.
        xs = np.linspace(0.0, 1.0, 200_001)
        for ys in (eval_raw("f3", xs), np.array([eval_function("f3", x) for x in xs.tolist()])):
            left = ys[xs < 0.5]
            right = ys[xs >= 0.5]
            assert np.all((left >= 0.5) & (left <= 1.0))
            assert np.all((right >= 0.35) & (right <= 0.85))

    def test_scalar_in_scalar_out(self):
        y = eval_function("f1", 0.25)
        assert isinstance(y, float)
        assert eval_function("f1", 0) == eval_function("f1", 0.0)

    def test_one_real_number_only(self):
        # The array forms are test oracles now; the library takes one x.
        with pytest.raises(TypeError, match="real number"):
            eval_function("f1", np.linspace(0.0, 1.0, 3))
        with pytest.raises(TypeError, match="real number"):
            eval_function("f1", "0.5")

    def test_vectorised_matches_scalar(self):
        xs = np.linspace(0.0, 1.0, 1001)
        for fid in FUNCTION_IDS:
            ys = eval_clipped(fid, xs)
            assert ys.shape == xs.shape
            for i in (0, 123, 500, 1000):
                assert ys[i] == eval_function(fid, float(xs[i]))

    def test_range_containment_on_grid(self):
        xs = np.linspace(0.0, 1.0, 100_001).tolist()
        for fid in FUNCTION_IDS:
            ys = [eval_function(fid, x) for x in xs]
            assert all(0.0 <= y <= 1.0 for y in ys), fid

    def test_no_clamping_needed_for_smooth_functions(self):
        xs = np.linspace(0.0, 1.0, 100_001)
        for fid in ("f1", "f2", "f4", "f5"):
            raw = eval_raw(fid, xs)
            assert int(np.sum((raw < 0.0) | (raw > 1.0))) == 0, fid

    def test_argmax_locations(self):
        xs = np.linspace(0.0, 1.0, 1_000_001)
        assert abs(xs[np.argmax(eval_raw("f1", xs))] - 0.5) <= 1e-6
        assert abs(xs[np.argmax(eval_raw("f4", xs))] - 0.1) <= 1e-3
        assert abs(xs[np.argmax(eval_raw("f5", xs))] - 0.1) <= 1e-3

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            eval_function("f1", -0.001)
        with pytest.raises(ValueError):
            eval_function("f2", 1.0001)
        with pytest.raises(ValueError):
            eval_raw("f1", np.array([0.5, 2.0]))

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            eval_function("f6", 0.5)

    def test_nan_rejected_on_scalar_path(self):
        # NaN fails both x < 0 and x > 1, so a check written that way
        # let it through and f1 returned nan.
        with pytest.raises(ValueError, match="outside"):
            eval_function("f1", math.nan)

    def test_nan_rejected_on_array_path(self):
        with pytest.raises(ValueError, match="outside"):
            eval_raw("f1", np.array([0.5, math.nan]))
        with pytest.raises(ValueError, match="outside"):
            eval_clipped("f4", np.array([math.nan]))


def _exact_f3(x):
    """f3 with x^5 rounded once from the exact rational power: no libm,
    no SIMD kernel."""
    osc = 0.5 * abs(math.sin(1.0 / float(Fraction(x) ** 5)))
    return (0.5 if x < 0.5 else 0.35) + osc


def test_f3_fifth_power_is_exactly_rounded_on_every_leaf():
    # The leaf centres (2i + 1) / 2^18.  numpy's power and libm's pow each
    # round thousands of them differently, and differently from each other.
    n = 1 << 18
    for i in range(1, n, 2):
        x = i / n
        assert eval_function("f3", x) == _exact_f3(x), x


# sha256 over struct.pack("<d", p) of the reward probability at each of
# the 2^17 depth-17 leaves, left to right.  f1, f2, f4 and f5 were
# computed through numpy's scalar path before the search switched to the
# plain-math forms; f3 with its exactly rounded x^5.
LEAF_TABLE_SHA256 = {
    "f1": "5584e868fd169bb48f95822fe7fb2227a402c1fe0f6f3e047c6198b315c2faa9",
    "f2": "485951cac4a10c9cef62c6cd364510e32e5e269631a3a8f000f9bff214a621d0",
    "f3": "102e07bb28812b5ecbfdc9b85bc8cfa56ea72bd1e025fa32458e8966d0e1f6e0",
    "f4": "601111a5f48ac13f868aabc9cca1a4f6e65823efac1384bab8e20e1b231bc862",
    "f5": "2c021cc6c01abc7e5703067f9ae59c446e3bf3709705b92a5faf2e12d36d3b6f",
}


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_leaf_table_unchanged(fid):
    env = FunctionEnv(fid)
    n = 1 << 17
    digest = hashlib.sha256()
    for i in range(n):
        digest.update(struct.pack("<d", env.probability(IntervalState(i / n, (i + 1) / n))))
    assert digest.hexdigest() == LEAF_TABLE_SHA256[fid]


def _split(env, state):
    return [env.apply(state, action) for action in env.actions(state)]


class TestIntervalMechanics:
    env = FunctionEnv("f1")

    def test_bisection_of_unit_interval(self):
        kids = _split(self.env, IntervalState(0.0, 1.0))
        assert kids == [IntervalState(0.0, 0.5), IntervalState(0.5, 1.0)]

    def test_bisection_of_half_interval(self):
        kids = _split(self.env, IntervalState(0.5, 1.0))
        assert kids == [IntervalState(0.5, 0.75), IntervalState(0.75, 1.0)]

    def test_children_partition_exactly(self):
        rng = random.Random(42)
        state = IntervalState(0.0, 1.0)
        for _ in range(16):
            kids = _split(self.env, state)
            assert kids[0].a == state.a
            assert kids[-1].b == state.b
            assert kids[0].b == kids[1].a
            width = state.b - state.a
            for kid in kids:
                assert kid.b - kid.a == width / 2
            state = kids[rng.randrange(2)]

    def test_terminal_threshold_boundaries(self):
        assert not self.env.is_terminal(IntervalState(0.0, 1.0))
        assert self.env.is_terminal(IntervalState(0.0, 2.0**-17))
        assert not self.env.is_terminal(IntervalState(0.0, 2.0**-16))

    def test_terminal_depth_is_seventeen(self):
        state = IntervalState(0.0, 1.0)
        depth = 0
        while not self.env.is_terminal(state):
            state = self.env.apply(state, 0)
            depth += 1
        assert depth == 17
        assert state == IntervalState(0.0, 2.0**-17)

    def test_random_paths_reach_depth_seventeen(self):
        rng = random.Random(43)
        for _ in range(50):
            state = IntervalState(0.0, 1.0)
            depth = 0
            while not self.env.is_terminal(state):
                state = self.env.apply(state, rng.randrange(2))
                depth += 1
            assert depth == 17
            # Terminal centres live on the odd dyadic grid (2k+1)/2^18.
            numerator = self.env.centre(state) * 2.0**18
            assert numerator == int(numerator)
            assert int(numerator) % 2 == 1

    def test_centre_midpoints(self):
        assert self.env.centre(IntervalState(0.0, 1.0)) == 0.5
        assert self.env.centre(IntervalState(0.5, 0.75)) == 0.625
        rng = random.Random(44)
        state = IntervalState(0.0, 1.0)
        for _ in range(17):
            state = self.env.apply(state, rng.randrange(2))
            assert state.a < self.env.centre(state) < state.b


class TestFunctionEnv:
    def test_engine_contract(self):
        env = FunctionEnv("f1")
        root = env.initial_state()
        assert root == IntervalState(0.0, 1.0)
        assert list(env.actions(root)) == [0, 1]
        assert env.apply(root, 0) == IntervalState(0.0, 0.5)
        assert env.apply(root, 1) == IntervalState(0.5, 1.0)
        assert env.centre(root) == 0.5
        assert not env.is_terminal(root)
        assert env.threshold == DEFAULT_THRESHOLD

    def test_reward_requires_terminal(self):
        env = FunctionEnv("f1")
        with pytest.raises(ValueError):
            env.sample_reward(env.initial_state(), random.Random(0))
        assert env.reward_draws == 0

    def test_sure_rewards(self):
        rng = random.Random(45)
        always = FunctionEnv(lambda x: 1.0, threshold=2.0)  # root is terminal
        never = FunctionEnv(lambda x: 0.0, threshold=2.0)
        state = always.initial_state()
        assert all(always.sample_reward(state, rng) == 1.0 for _ in range(200))
        assert all(never.sample_reward(state, rng) == 0.0 for _ in range(200))

    def test_bernoulli_mean(self):
        env = FunctionEnv(lambda x: 0.5, threshold=2.0)
        rng = random.Random(46)
        state = env.initial_state()
        n = 100_000
        total = sum(env.sample_reward(state, rng) for _ in range(n))
        assert abs(total / n - 0.5) < 0.005
        assert env.reward_draws == n

    def test_callable_probability_clamped(self):
        env = FunctionEnv(lambda x: 1.7, threshold=2.0)
        assert env.probability(env.initial_state()) == 1.0
        env = FunctionEnv(lambda x: -0.3, threshold=2.0)
        assert env.probability(env.initial_state()) == 0.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            FunctionEnv("f9")
        with pytest.raises(ValueError):
            FunctionEnv("f1", threshold=0.0)
        with pytest.raises(ValueError, match="threshold must be positive"):
            FunctionEnv("f1", threshold=float("nan"))

    def test_raised_threshold_shrinks_depth(self):
        # Width 2^-3 = 0.125 < 0.2: terminal depth becomes exactly 3.
        env = FunctionEnv("f1", threshold=0.2)
        state = env.initial_state()
        depth = 0
        while not env.is_terminal(state):
            state = env.apply(state, 0)
            depth += 1
        assert depth == 3


def _stepwise_playout(env, state, rng):
    """The rollout loop the engine ran before ``FunctionEnv.playout``."""
    while not env.is_terminal(state):
        actions = env.actions(state)
        state = env.apply(state, actions[rng.randrange(len(actions))])
    return state


def _half(state, action):
    """Half ``action`` of ``state`` in step arithmetic, ``a + action * step``:
    an oracle for ``FunctionEnv.apply`` that shares none of its code."""
    a, b = state
    step = (b - a) / 2
    lo = a + action * step
    hi = b if action == 1 else lo + step
    return IntervalState(lo, hi)


def _half_playout(state, threshold, rng):
    """``FunctionEnv.playout`` written with ``_half`` and ``randrange``."""
    while not (state.b - state.a) < threshold:
        state = _half(state, rng.randrange(2))
    return state


class TestPlayout:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_getrandbits_loop_is_randrange(self, n):
        # ``playout`` draws each step with this loop in place of
        # ``randrange(n)``.  A Python whose ``randrange`` draws otherwise
        # fails here before any search result changes.
        want_rng, got_rng = random.Random(1000 + n), random.Random(1000 + n)
        k = n.bit_length()
        for _ in range(2000):
            got = got_rng.getrandbits(k)
            while got >= n:
                got = got_rng.getrandbits(k)
            assert got == want_rng.randrange(n)
        assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("threshold", [DEFAULT_THRESHOLD, 1e-3, 0.05, 0.34, 2.0])
    def test_matches_stepwise_loop(self, threshold):
        # ``_stepwise_playout`` follows ``env.apply``, while ``_half``
        # computes each half on its own, so a change made to ``apply`` and
        # ``playout`` alike still shows, down to the last bit.
        env = FunctionEnv("f1", threshold=threshold)
        for seed in range(40):
            # Start at depth 0 to 3: rollouts start below the root.
            start = env.initial_state()
            rng_walk = random.Random(-seed)
            for _ in range(seed % 4):
                if not env.is_terminal(start):
                    start = env.apply(start, rng_walk.randrange(2))
            for action in env.actions(start):
                got = env.apply(start, action)
                assert type(got) is IntervalState
                assert struct.pack("<2d", *got) == struct.pack("<2d", *_half(start, action))
            got_rng, step_rng, half_rng = (random.Random(seed) for _ in range(3))
            got = env.playout(start, got_rng)
            assert type(got) is IntervalState
            for want in (
                _stepwise_playout(env, start, step_rng),
                _half_playout(start, threshold, half_rng),
            ):
                assert struct.pack("<2d", *got) == struct.pack("<2d", *want)
            assert got_rng.getstate() == step_rng.getstate() == half_rng.getstate()

    def test_terminal_start_draws_nothing(self):
        env = FunctionEnv("f1", threshold=2.0)
        rng = random.Random(72)
        before = rng.getstate()
        assert env.playout(env.initial_state(), rng) == env.initial_state()
        assert rng.getstate() == before
