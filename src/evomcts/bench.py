"""One-dimensional benchmark functions and the bisection environment.

Five functions map [0, 1] into [0, 1] and act as reward probabilities:
a state is an interval, the environment splits it into equal halves
until its width drops below a threshold, and a terminal interval pays a
Bernoulli reward with success probability f(centre).  f1 is smooth and
unimodal, f2 mildly multimodal, f3 has a discontinuity at 0.5 and wild
oscillation near 0, f4 and f5 are deceptive: periodic bumps riding on a
slope, with the global optimum at x = 0.1 on the *low* side of the
slope (f5's bumps are much narrower than f4's).

Each function has two forms.  The scalar form, written with plain
``math`` calls, serves ``eval_function`` on a float and every reward
draw of the search (``FunctionEnv.probability``); it is about ten times
cheaper per call than numpy on a 0-d array.  The array form serves
``eval_raw`` and ``eval_function`` on anything else.  On all 2^17
depth-17 leaf centres the scalar form reproduces numpy's scalar results
bit for bit; f3 computes x^5 with ``np.power`` because Python's ``x**5``
(libm ``pow``) differs from it in the last bit on 7,001 of those leaves.
numpy's array path itself differs from its scalar path in the last bit
on 1,807 f4 leaves and 399 f5 leaves, so a search result must never be
derived from the array form.

Outputs are defensively clamped to [0, 1]; the clamp is a no-op
everywhere except for float noise at the boundaries (see ``eval_raw``
for the unclamped values).
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

__all__ = [
    "IntervalState",
    "FUNCTION_IDS",
    "eval_function",
    "eval_raw",
    "FunctionEnv",
    "DEFAULT_THRESHOLD",
    "DEFAULT_BRANCHING",
]

DEFAULT_THRESHOLD = 1e-5
DEFAULT_BRANCHING = 2

FUNCTION_IDS = ("f1", "f2", "f3", "f4", "f5")


class IntervalState(NamedTuple):
    """Closed interval [a, b] inside [0, 1]."""

    a: float
    b: float


def _f1(x):
    return np.sin(np.pi * x)


def _f2(x):
    return 0.5 * np.sin(13.0 * x) * np.sin(27.0 * x) + 0.5


def _f3(x):
    # 0.5 + 0.5|sin(1/x^5)| left of 0.5, dropping to 0.35 + 0.5|sin(1/x^5)|
    # from 0.5 on; the oscillation is defined as 0 at x = 0 itself.
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        osc = 0.5 * np.abs(np.sin(1.0 / x**5))
    base = np.where(x < 0.5, 0.5, 0.35)
    return base + np.where(x == 0.0, 0.0, osc)


def _f4(x):
    return 0.5 * x + (-0.7 * x + 1.0) * np.sin(5.0 * np.pi * x) ** 4


def _f5(x):
    return 0.5 * x + (-0.7 * x + 1.0) * np.sin(5.0 * np.pi * x) ** 80


_RAW = {"f1": _f1, "f2": _f2, "f3": _f3, "f4": _f4, "f5": _f5}


def _f1_scalar(x: float) -> float:
    return math.sin(math.pi * x)


def _f2_scalar(x: float) -> float:
    return 0.5 * math.sin(13.0 * x) * math.sin(27.0 * x) + 0.5


def _f3_scalar(x: float) -> float:
    base = 0.5 if x < 0.5 else 0.35
    if x == 0.0:
        return base
    # np.power, not x**5: see the module docstring.
    x5 = float(np.power(x, 5.0))
    inv = 1.0 / x5 if x5 else math.inf
    if inv == math.inf:
        return math.nan  # sin(inf), as numpy computes it for x^5 underflowing
    return base + 0.5 * abs(math.sin(inv))


def _f4_scalar(x: float) -> float:
    return 0.5 * x + (-0.7 * x + 1.0) * math.sin(5.0 * math.pi * x) ** 4


def _f5_scalar(x: float) -> float:
    return 0.5 * x + (-0.7 * x + 1.0) * math.sin(5.0 * math.pi * x) ** 80


_SCALAR = {"f1": _f1_scalar, "f2": _f2_scalar, "f3": _f3_scalar, "f4": _f4_scalar, "f5": _f5_scalar}


def eval_raw(function_id: str, x):
    """Unclamped function value(s); x must lie in [0, 1]."""
    fn = _RAW.get(function_id)
    if fn is None:
        raise ValueError(f"unknown function {function_id!r}")
    arr = np.asarray(x, dtype=float)
    # Written so that NaN, which fails every comparison, is rejected too.
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("x outside [0, 1]")
    return fn(arr)


def eval_function(function_id: str, x):
    """Function value(s) clamped into [0, 1]; scalar in, scalar out.

    A float goes through the scalar form, anything else through numpy.
    """
    if isinstance(x, float):
        fn = _SCALAR.get(function_id)
        if fn is None:
            raise ValueError(f"unknown function {function_id!r}")
        if not 0.0 <= x <= 1.0:
            raise ValueError("x outside [0, 1]")
        return min(max(float(fn(x)), 0.0), 1.0)
    y = np.clip(eval_raw(function_id, x), 0.0, 1.0)
    if np.ndim(y) == 0:
        return float(y)
    return y


class FunctionEnv:
    """Bisection environment over one benchmark function.

    Implements the search-engine contract: initial_state, actions,
    apply, is_terminal, playout, sample_reward, centre.  ``function`` is
    one of the ids in FUNCTION_IDS or any callable mapping [0, 1] ->
    [0, 1].  With ``bernoulli=False`` (test stub) the reward is f(centre)
    itself rather than a coin flip, and no randomness is consumed.

    ``reward_draws`` counts every reward sample handed out, which is how
    the fixed simulation budgets are audited.
    """

    def __init__(
        self,
        function,
        branching: int = DEFAULT_BRANCHING,
        threshold: float = DEFAULT_THRESHOLD,
        bernoulli: bool = True,
    ):
        if callable(function):
            self._fn = function
            self.function_id = getattr(function, "__name__", "custom")
        else:
            if function not in _SCALAR:
                raise ValueError(f"unknown function {function!r}")
            self._fn = _SCALAR[function]
            self.function_id = function
        if branching < 2:
            raise ValueError("branching must be >= 2")
        # Written so NaN fails too: a NaN threshold never ends a playout.
        if not threshold > 0.0:
            raise ValueError("threshold must be positive")
        self.branching = branching
        self.threshold = threshold
        self.bernoulli = bernoulli
        self.reward_draws = 0
        self._actions = range(branching)

    def initial_state(self) -> IntervalState:
        return IntervalState(0.0, 1.0)

    def actions(self, state: IntervalState):
        return self._actions

    def apply(self, state: IntervalState, action: int) -> IntervalState:
        a, b = state
        step = (b - a) / self.branching
        lo = a + action * step
        hi = b if action == self.branching - 1 else lo + step
        return IntervalState(lo, hi)

    def is_terminal(self, state: IntervalState) -> bool:
        return (state.b - state.a) < self.threshold

    def centre(self, state: IntervalState) -> float:
        return 0.5 * (state.a + state.b)

    def playout(self, state: IntervalState, rng: random.Random) -> IntervalState:
        """Uniform random walk from ``state`` to a terminal state.

        One loop in place of ``is_terminal``/``actions``/``apply`` per
        step, with ``apply``'s arithmetic.  Each step makes the draw
        ``rng.randrange(branching)`` would make, since ``actions`` is
        ``range(branching)``, written inline as CPython 3.11's
        ``randrange(n)`` does it: ``getrandbits(n.bit_length())``, drawn
        again while the value is ``>= n``.  The values and the RNG state
        afterwards are the same as with ``randrange``.
        """
        a, b = state
        threshold, branching = self.threshold, self.branching
        last = branching - 1
        getrandbits = rng.getrandbits
        k = branching.bit_length()
        while not (b - a) < threshold:
            step = (b - a) / branching
            action = getrandbits(k)
            while action >= branching:
                action = getrandbits(k)
            a = a + action * step
            if action != last:
                b = a + step
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
        if not self.bernoulli:
            return p
        return 1.0 if rng.random() < p else 0.0
