"""Shared helpers for the test suite.

Everything here is written independently of the library internals: the
scalar benchmark oracles re-derive each function with plain ``math``
calls, the array oracles evaluate it over numpy arrays (numpy is a test
dependency only), ``closed_form_uct`` is the selection score written
out directly, and ``interpret`` scores an expression tree node by node,
with the protected operators written out here.  Tests compare these
second routes against the library so a bug would have to appear twice,
identically, to slip through.  ``interpret`` reads a tree only through
its nodes' fields and imports nothing from ``evomcts.expr``, the module
whose two scoring routes it checks.

Two stand-ins replace what the library no longer ships for tests alone:
``ExpectedRewardEnv``, a ``FunctionEnv`` that pays a terminal state's
success probability instead of a coin flip, and ``report_from_rows``,
which builds a ``HistogramReport`` from dense rows of mean counts.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from evomcts.analysis import HistogramReport
from evomcts.bench import FunctionEnv

# Property tests draw the same examples on every run, so a tier-1 result
# never depends on which random examples a run happened to try.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# ----------------------------------------------------------------------
# Closed-form selection score (reference for policy / seed-tree tests)
# ----------------------------------------------------------------------


def closed_form_uct(q, n_parent, n_child, c):
    """Mean value plus c * sqrt(2 ln(parent visits) / child visits)."""
    return q + c * math.sqrt(2.0 * math.log(n_parent) / n_child)


# ----------------------------------------------------------------------
# Expression interpreter (reference for compiled and closure-built scores)
# ----------------------------------------------------------------------


def interpret(expression, q, n_parent, n_child):
    """Score an expression tree on one edge, node by node.

    A constant node has ``value``, a variable ``name`` (Q, Np or Nc; the
    visit counts are read as floats) and an operator ``op`` and
    ``args``, evaluated left to right.  Division by a divisor of
    magnitude below 0.001 gives 1.0; log is ln|x|, 0.0 for |x| below
    0.001; sqrt is sqrt(|x|); the results of add, sub, mul and div are
    clamped to +-1e300.  Every comparison is the one written below, so
    NaN fails it: a NaN divisor divides and a NaN result is not clamped.
    """

    def value(node):
        if hasattr(node, "value"):
            return node.value
        if hasattr(node, "name"):
            if node.name == "Q":
                return q
            return float(n_parent if node.name == "Np" else n_child)
        op = node.op
        a = value(node.args[0])
        if op == "log":
            a = abs(a)
            return 0.0 if a < 0.001 else math.log(a)
        if op == "sqrt":
            return math.sqrt(abs(a))
        b = value(node.args[1])
        if op == "add":
            r = a + b
        elif op == "sub":
            r = a - b
        elif op == "mul":
            r = a * b
        else:
            r = 1.0 if abs(b) < 0.001 else a / b
        if r > 1e300:
            return 1e300
        if r < -1e300:
            return -1e300
        return r

    return value(expression.root)


# ----------------------------------------------------------------------
# One-level descents (reference ties against a policy's ``descend``)
# ----------------------------------------------------------------------


def leaf(visits, total_reward):
    """Search-node stand-in with an untried action: a descent that moves
    to it stops there."""
    return SimpleNamespace(visits=visits, total_reward=total_reward, untried=[0], children=[])


def one_level_root(n_parent, children):
    """Fully expanded root over ``children`` with ``n_parent`` visits."""
    return SimpleNamespace(visits=n_parent, total_reward=0.0, untried=[], children=list(children))


class ScriptedRng:
    """RNG stand-in whose ``getrandbits(k)`` returns ``i``; records each k."""

    def __init__(self, i):
        self.i = i
        self.bits = []

    def getrandbits(self, k):
        self.bits.append(k)
        return self.i


class UntouchableRng:
    """RNG stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"RNG used: {name}")


def assert_same_path(got, want):
    """``got`` holds the very nodes of ``want``, in order.  Compared by
    identity: the stand-ins above compare equal by their fields."""
    assert type(got) is list
    assert len(got) == len(want), (len(got), len(want))
    for depth, (a, b) in enumerate(zip(got, want)):
        assert a is b, depth


def assert_descent_picks(descend, root, ties):
    """``descend(root, rng)`` against the reference ``ties`` of a
    one-level ``root``: the path from ``root`` to the i-th tie in
    creation order when the RNG's ``getrandbits`` returns i (one draw of
    ``randrange(len(ties))``'s width), to the single winner without
    touching the RNG, and ValueError when no child scores above -inf."""
    if not ties:
        with pytest.raises(ValueError, match="above -inf"):
            descend(root, UntouchableRng())
    elif len(ties) == 1:
        assert_same_path(descend(root, UntouchableRng()), [root, ties[0]])
    else:
        for i, child in enumerate(ties):
            rng = ScriptedRng(i)
            assert_same_path(descend(root, rng), [root, child])
            assert rng.bits == [len(ties).bit_length()]


# ----------------------------------------------------------------------
# Scalar benchmark oracles (independent of the library and of numpy)
# ----------------------------------------------------------------------


def oracle_f1(x):
    return math.sin(math.pi * x)


def oracle_f2(x):
    return 0.5 * math.sin(13.0 * x) * math.sin(27.0 * x) + 0.5


def oracle_f3(x):
    if x == 0.0:
        return 0.5
    osc = 0.5 * abs(math.sin(1.0 / x**5))
    if x < 0.5:
        return 0.5 + osc
    return 0.35 + osc


def oracle_f4(x):
    return 0.5 * x + (-0.7 * x + 1.0) * math.sin(5.0 * math.pi * x) ** 4


def oracle_f5(x):
    return 0.5 * x + (-0.7 * x + 1.0) * math.sin(5.0 * math.pi * x) ** 80


SCALAR_ORACLES = {
    "f1": oracle_f1,
    "f2": oracle_f2,
    "f3": oracle_f3,
    "f4": oracle_f4,
    "f5": oracle_f5,
}


# ----------------------------------------------------------------------
# numpy array oracles: the five functions over arrays of points
# ----------------------------------------------------------------------
# numpy's array path differs from the library's scalar forms in the last
# bit on some points (1,807 f4 and 399 f5 depth-17 leaves), so a search
# result must never be derived from these.


def _array_f1(x):
    return np.sin(np.pi * x)


def _array_f2(x):
    return 0.5 * np.sin(13.0 * x) * np.sin(27.0 * x) + 0.5


def _array_f3(x):
    # 0.5 + 0.5|sin(1/x^5)| left of 0.5, dropping to 0.35 + 0.5|sin(1/x^5)|
    # from 0.5 on; the oscillation is defined as 0 at x = 0 itself.
    with np.errstate(divide="ignore", invalid="ignore"):
        osc = 0.5 * np.abs(np.sin(1.0 / x**5))
    base = np.where(x < 0.5, 0.5, 0.35)
    return base + np.where(x == 0.0, 0.0, osc)


def _array_f4(x):
    return 0.5 * x + (-0.7 * x + 1.0) * np.sin(5.0 * np.pi * x) ** 4


def _array_f5(x):
    return 0.5 * x + (-0.7 * x + 1.0) * np.sin(5.0 * np.pi * x) ** 80


ARRAY_ORACLES = {
    "f1": _array_f1,
    "f2": _array_f2,
    "f3": _array_f3,
    "f4": _array_f4,
    "f5": _array_f5,
}


def eval_raw(function_id, x):
    """Unclamped values of a function over an array of points in [0, 1]."""
    fn = ARRAY_ORACLES.get(function_id)
    if fn is None:
        raise ValueError(f"unknown function {function_id!r}")
    arr = np.asarray(x, dtype=float)
    # Written so that NaN, which fails every comparison, is rejected too.
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("x outside [0, 1]")
    return fn(arr)


def eval_clipped(function_id, x):
    """``eval_raw`` clamped into [0, 1], as the library clamps."""
    return np.clip(eval_raw(function_id, x), 0.0, 1.0)


# ----------------------------------------------------------------------
# Deterministic rewards and dense histogram rows
# ----------------------------------------------------------------------


class ExpectedRewardEnv(FunctionEnv):
    """A ``FunctionEnv`` whose reward is the success probability itself,
    so a search's rewards follow from its states alone; a reward draw
    consumes no randomness and is counted in ``reward_draws``."""

    def sample_reward(self, state, rng):
        if not self.is_terminal(state):
            raise ValueError("reward is only defined at terminal states")
        self.reward_draws += 1
        return self.probability(state)


def report_from_rows(bins, rows, runs, config_id):
    """A ``HistogramReport`` from three dense rows of ``bins`` mean
    counts, one per tertile: each row's bins other than 0.0, as floats
    (so a -0.0 becomes a cell)."""
    cells = [
        {i: float(v) for i, v in enumerate(row) if v or math.copysign(1.0, v) < 0} for row in rows
    ]
    return HistogramReport(bins, cells, runs, config_id)


# ----------------------------------------------------------------------
# Search-tree fingerprinting
# ----------------------------------------------------------------------


def tree_signature(node):
    """Hashable fingerprint of a search tree: states, statistics,
    untried actions and child order, recursively.  Two trees with equal
    signatures are interchangeable for every engine operation."""
    return (
        node.state,
        node.visits,
        node.total_reward,
        tuple(node.untried),
        tuple(tree_signature(child) for child in node.children),
    )
