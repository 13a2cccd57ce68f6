"""Shared helpers for the test suite.

Everything here is written independently of the library internals: the
scalar benchmark oracles re-derive each function with plain ``math``
calls, and ``closed_form_uct`` is the selection score written out
directly.  Tests compare these second routes against the library so a
bug would have to appear twice, identically, to slip through.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import settings

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
# Scalar benchmark oracles (independent of the numpy implementations)
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
