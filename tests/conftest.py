"""Shared helpers for the test suite.

Everything here is written independently of the library internals: the
scalar benchmark oracles re-derive each function with plain ``math``
calls, and ``closed_form_uct`` is the selection score written out
directly.  Tests compare these second routes against the library so a
bug would have to appear twice, identically, to slip through.
"""

import math

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
