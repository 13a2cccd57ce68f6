"""Every name a module exports must exist, so that deleting a function
cannot leave a dangling entry in an ``__all__`` list behind, and the
README's library example must run as written."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import evomcts
from evomcts.expr import parse

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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    state, mass, formula = capsys.readouterr().out.splitlines()
    assert state.startswith("IntervalState(")
    assert float(mass) > 0.0
    assert str(parse(formula)) == formula
