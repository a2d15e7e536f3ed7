"""Every exported name resolves, so no deletion leaves a stale export behind;
every module imports only the modules below it in the package layering, and
no private name of another; and the package loads its modules, and numpy,
only when a caller reaches them."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


def private_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each ``_``-prefixed name the file imports from a
    bubbletree module, at any depth: lazy imports inside functions and
    parenthesised import lists included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "bubbletree")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_import_guard_sees_lazy_and_parenthesised_imports(tmp_path):
    path = tmp_path / "lazy.py"
    path.write_text(
        "from __future__ import annotations\n"
        "def f():\n"
        "    if True:\n"
        "        from .families import (\n"
        "            make_family,\n"
        "            _N_T,\n"
        "        )\n"
        "    from bubbletree.quadrature import _ABS_TOL as floor\n"
    )
    assert private_imports(path) == [(4, "_N_T"), (8, "_ABS_TOL")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_no_private_name(path):
    assert private_imports(path) == []


# the modules the package re-exports, in export order
EXPORT_ORDER = ("curve", "driver", "errors", "families", "measure", "neck", "quadrature", "renorm")
CURVE_CONFIG = PACKAGE.parents[1] / "configs" / "curve_query.yaml"


def test_package_all_is_the_modules_all_in_order():
    want = [n for m in EXPORT_ORDER for n in importlib.import_module(f"bubbletree.{m}").__all__]
    assert bubbletree.__all__ == want


def test_star_import_binds_the_module_objects():
    namespace = {}
    exec("from bubbletree import *", namespace)
    for m in EXPORT_ORDER:
        module = importlib.import_module(f"bubbletree.{m}")
        assert [n for n in module.__all__ if namespace[n] is not getattr(module, n)] == []


def fresh_modules(code: str, args: list[str], cwd: Path) -> tuple[int, set[str]]:
    """Exit code of one line of Python run with ``args`` in a fresh
    interpreter, and the modules loaded when it ended."""
    script = f"import sys\ntry:\n    {code}\nfinally:\n    print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    return proc.returncode, set(proc.stdout.splitlines()[-1].split())


LOAD_CONFIG = "from pathlib import Path; from bubbletree.cli import load_config; load_config(Path(sys.argv[1]))"
MAIN = "from bubbletree.cli import main; sys.exit(main(sys.argv[1:]))"
PYTHON_M = "import runpy; runpy.run_module('bubbletree', run_name='__main__', alter_sys=True)"
# a curve config that also carries a neck section, whose schedule rule runs at load
CURVE_NECK = (
    f"curve:\n  graph: {CURVE_CONFIG.with_name('two_component.txt')}\n  edge: 0\n"
    "neck:\n  deltas: [0.1, 0.05]\n  eps: 0.01\n"
)
WRITE_CURVE_NECK = f"from pathlib import Path; Path('run.yaml').write_text({CURVE_NECK!r}); "
NUMPY_FREE_CALLS = [
    ("import", "import bubbletree", [], 0),
    ("import_cli", "import bubbletree.cli", [], 0),
    ("from_package_import_cli", "from bubbletree import cli", [], 0),
    ("load_config", LOAD_CONFIG, [str(CURVE_CONFIG)], 0),
    ("main_curve", MAIN, ["curve", "--config", str(CURVE_CONFIG), "--out", "out"], 0),
    (
        "main_curve_with_neck",
        WRITE_CURVE_NECK + MAIN,
        ["curve", "--config", "run.yaml", "--out", "out"],
        0,
    ),
    ("python_m_help", PYTHON_M, ["--help"], 0),
    ("missing_config", MAIN, ["extract", "--config", "nope.yaml"], 2),
]


@pytest.mark.parametrize(
    "code, args, exit_code", [c[1:] for c in NUMPY_FREE_CALLS], ids=[c[0] for c in NUMPY_FREE_CALLS]
)
def test_start_up_paths_load_no_numpy(tmp_path, code, args, exit_code):
    rc, loaded = fresh_modules(code, args, tmp_path)
    assert rc == exit_code
    assert "bubbletree" in loaded and "numpy" not in loaded


def test_submodule_import_loads_only_that_module(tmp_path):
    rc, loaded = fresh_modules("from bubbletree import curve", [], tmp_path)
    assert rc == 0
    ours = sorted(m for m in loaded if m.split(".")[0] == "bubbletree")
    assert ours == ["bubbletree", "bubbletree.curve", "bubbletree.errors"]
