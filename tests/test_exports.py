"""Every name a module exports must exist, so that deleting a function
cannot leave a dangling entry in an ``__all__`` list behind."""

import importlib
import pkgutil

import pytest

import evomcts

MODULES = ["evomcts"] + [f"evomcts.{m.name}" for m in pkgutil.iter_modules(evomcts.__path__)]


def test_every_submodule_is_checked():
    assert set(MODULES) >= {
        "evomcts.analysis",
        "evomcts.bench",
        "evomcts.cli",
        "evomcts.expr",
        "evomcts.mcts",
        "evomcts.siea",
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], name
    assert len(set(module.__all__)) == len(module.__all__), name
