"""One-dimensional benchmark functions and the bisection environment.

Five functions map [0, 1] into [0, 1] and act as reward probabilities:
a state is an interval, the environment splits it into equal halves
until its width drops below a threshold, and a terminal interval pays a
Bernoulli reward with success probability f(centre).  f1 is smooth and
unimodal, f2 mildly multimodal, f3 has a discontinuity at 0.5 and wild
oscillation near 0, f4 and f5 are deceptive: periodic bumps riding on a
slope, with the global optimum at x = 0.1 on the *low* side of the
slope (f5's bumps are much narrower than f4's).

Each function is written with plain ``math`` calls and takes one float;
``eval_function`` and every reward draw of the search
(``FunctionEnv.probability``) go through these forms, and the runtime
needs no numpy.  f1, f2, f4 and f5 reproduce numpy's scalar results bit
for bit on all 2^17 depth-17 leaf centres.  f3 computes x^5 exactly
rounded, as ``n**5 / d**5`` from ``x.as_integer_ratio()``: CPython rounds
int/int true division correctly, so the value is the same on any IEEE
machine, where libm ``pow`` and numpy's SIMD ``power`` kernels each
round some leaves differently.  The numpy array forms of the five
functions are a test oracle in ``tests/conftest.py``.

Outputs are defensively clamped to [0, 1]; the clamp is a no-op
everywhere except for float noise at the boundaries.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

__all__ = [
    "IntervalState",
    "FUNCTION_IDS",
    "eval_function",
    "FunctionEnv",
    "DEFAULT_THRESHOLD",
]

DEFAULT_THRESHOLD = 1e-5

FUNCTION_IDS = ("f1", "f2", "f3", "f4", "f5")

_ACTIONS = range(2)


class IntervalState(NamedTuple):
    """Closed interval [a, b] inside [0, 1]."""

    a: float
    b: float


def _f1_scalar(x: float) -> float:
    return math.sin(math.pi * x)


def _f2_scalar(x: float) -> float:
    return 0.5 * math.sin(13.0 * x) * math.sin(27.0 * x) + 0.5


def _f3_scalar(x: float) -> float:
    base = 0.5 if x < 0.5 else 0.35
    if x == 0.0:
        return base
    # Exactly rounded x^5: see the module docstring.
    n, d = x.as_integer_ratio()
    x5 = n**5 / d**5
    inv = 1.0 / x5 if x5 else math.inf
    if inv == math.inf:
        return math.nan  # sin(inf): x^5 underflows to 0 below about 1e-65
    return base + 0.5 * abs(math.sin(inv))


def _f4_scalar(x: float) -> float:
    return 0.5 * x + (-0.7 * x + 1.0) * math.sin(5.0 * math.pi * x) ** 4


def _f5_scalar(x: float) -> float:
    return 0.5 * x + (-0.7 * x + 1.0) * math.sin(5.0 * math.pi * x) ** 80


_SCALAR = {"f1": _f1_scalar, "f2": _f2_scalar, "f3": _f3_scalar, "f4": _f4_scalar, "f5": _f5_scalar}


def eval_function(function_id: str, x: float) -> float:
    """Function value at one real ``x`` in [0, 1], clamped into [0, 1]."""
    fn = _SCALAR.get(function_id)
    if fn is None:
        raise ValueError(f"unknown function {function_id!r}")
    if not isinstance(x, (int, float)):
        raise TypeError(f"x must be a real number, got {type(x).__name__}")
    x = float(x)
    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0.0 <= x <= 1.0:
        raise ValueError("x outside [0, 1]")
    return min(max(fn(x), 0.0), 1.0)


class FunctionEnv:
    """Binary bisection environment over one benchmark function.

    Implements the search-engine contract: initial_state, actions,
    apply, is_terminal, playout, sample_reward, centre.  ``function`` is
    one of the ids in FUNCTION_IDS or any callable mapping [0, 1] ->
    [0, 1].  Every state has the two actions 0 and 1, which keep the
    lower and the upper half of the interval split at its midpoint
    ``a + (b - a) / 2``.  A terminal state pays 1.0 with probability
    f(centre) and 0.0 otherwise, one ``rng.random()`` per draw.

    ``reward_draws`` counts every reward sample handed out, which is how
    the fixed simulation budgets are audited.
    """

    def __init__(self, function, threshold: float = DEFAULT_THRESHOLD):
        if callable(function):
            self._fn = function
        else:
            if function not in _SCALAR:
                raise ValueError(f"unknown function {function!r}")
            self._fn = _SCALAR[function]
        # Written so NaN fails too: a NaN threshold never ends a playout.
        if not threshold > 0.0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.reward_draws = 0

    def initial_state(self) -> IntervalState:
        return IntervalState(0.0, 1.0)

    def actions(self, state: IntervalState):
        return _ACTIONS

    def apply(self, state: IntervalState, action: int) -> IntervalState:
        a, b = state
        mid = a + (b - a) / 2
        return IntervalState(mid, b) if action else IntervalState(a, mid)

    def is_terminal(self, state: IntervalState) -> bool:
        return (state.b - state.a) < self.threshold

    def centre(self, state: IntervalState) -> float:
        return 0.5 * (state.a + state.b)

    def playout(self, state: IntervalState, rng: random.Random) -> IntervalState:
        """Uniform random walk from ``state`` to a terminal state.

        One loop in place of ``is_terminal``/``actions``/``apply`` per
        step, keeping a random half of the interval split at its
        midpoint.  Each step makes the draw ``rng.randrange(2)`` would
        make, written inline as CPython 3.11's ``randrange(n)`` does it:
        ``getrandbits(n.bit_length())``, here ``getrandbits(2)``, drawn
        again while the value is ``>= 2``.  The values and the RNG state
        afterwards are the same as with ``randrange``.
        """
        a, b = state
        threshold = self.threshold
        getrandbits = rng.getrandbits
        while not (b - a) < threshold:
            mid = a + (b - a) / 2
            action = getrandbits(2)
            while action >= 2:
                action = getrandbits(2)
            if action:
                a = mid
            else:
                b = mid
        return IntervalState(a, b)

    def probability(self, state: IntervalState) -> float:
        """Reward probability of a state: f evaluated at its centre."""
        return min(max(float(self._fn(0.5 * (state.a + state.b))), 0.0), 1.0)

    def sample_reward(self, state: IntervalState, rng: random.Random) -> float:
        """Draw one reward at a terminal state (counted in reward_draws)."""
        if not self.is_terminal(state):
            raise ValueError("reward is only defined at terminal states")
        self.reward_draws += 1
        p = self.probability(state)
        return 1.0 if rng.random() < p else 0.0
