"""Every exported name resolves, so no deletion leaves a stale export behind."""

import importlib
import pkgutil

import pytest

import bubbletree

MODULES = sorted(m.name for m in pkgutil.iter_modules(bubbletree.__path__) if m.name != "__main__")


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
