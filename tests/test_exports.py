"""Every exported name resolves, so no deletion leaves a stale export behind;
and every module imports only the modules below it in the package layering."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bubbletree

MODULES = sorted(m.name for m in pkgutil.iter_modules(bubbletree.__path__) if m.name != "__main__")
PACKAGE = Path(bubbletree.__file__).parent
# bottom-up layer order: the first word of each line of the package docstring's table
LAYERS = [
    line.split()[0]
    for line in bubbletree.__doc__.splitlines()
    if line.split() and line.split()[0] in MODULES
]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bubbletree.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_resolves():
    exported = bubbletree.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(bubbletree, n)] == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "errors"])
def test_module_imports_only_lower_layers(name):
    text = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    imported = set(re.findall(r"^\s*from \.(\w+) import", text, re.MULTILINE)) - {"errors"}
    below = set(LAYERS[: LAYERS.index(name)])
    assert sorted(imported - below) == []
