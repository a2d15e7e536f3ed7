"""Hand mutants of the verdict code, each run against the tests that import
its module.

Usage: python3 tools/verdict_mutants.py [--root CHECKOUT] [--only NAME ...]

For each mutant in ``MUTANTS`` the checkout (``src``, ``tests``, ``configs``,
``bench``, ``runs`` and ``pyproject.toml``) is copied to a fresh temporary
directory, one exact text substitution is made in one module of
``src/bubbletree`` (refused unless the target text occurs exactly once), and
``pytest -x -q`` runs on the test files that import that module, one process
at a time.  A test file imports a module when it names ``bubbletree.<module>``
or imports the module or a name of its ``__all__`` from ``bubbletree``; the
``__all__`` lists are read from the sources with ``ast``, so nothing of the
package is imported here.  One line is printed per mutant: ``killed`` with the
first failing test, or ``survived``.  The exit status is 1 when a mutant
survives or a substitution is refused, else 0.

Standard library only.  The tests themselves need the package's own
requirements (numpy, PyYAML, pytest, hypothesis, scipy).
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# name -> (module, target text, replacement text)
MUTANTS: dict[str, tuple[str, str, str]] = {
    "connected-always-true": (
        "driver",
        "connected = all(n.zero_neck.passed for n in necks if n.zero_neck is not None)",
        "connected = True",
    ),
    "smooth-route-tolerance-x100": (
        "driver",
        "if abs(ledger - site_route - bias) > 1e-3 * (1.0 + limit_energy):",
        "if abs(ledger - site_route - bias) > 1e-1 * (1.0 + limit_energy):",
    ),
    "nodal-route-tolerance-0.5": (
        "driver",
        "if queue and abs(ledger - site_route) > 0.05 + 1e-3 * limit_energy:",
        "if queue and abs(ledger - site_route) > 0.5 + 1e-3 * limit_energy:",
    ),
    "nodal-base-clipped": (
        "driver",
        "base_energy -= sum(s.mass for s in singular)",
        "base_energy = max(0.0, base_energy - sum(s.mass for s in singular))",
    ),
    "detection-consistency-2eps": (
        "measure",
        "if np.any(devs >= epses):",
        "if np.any(devs >= 2 * epses):",
    ),
    "zero-neck-pass-without-diameter": (
        "neck",
        "passed=energy <= eps and diam <= eps,",
        "passed=energy <= eps,",
    ),
    "alpha-freeze-dropped": (
        "driver",
        "if not abs(diag_last.alpha) <= _ALPHA_TOL * (1.0 + limit_energy):",
        "if False:",
    ),
    "trace-decrement-halved": (
        "driver",
        "step = self.eps_bar / 2.0 - self.step_tol",
        "step = (self.eps_bar / 2.0 - self.step_tol) / 2.0",
    ),
    "regularity-genus-split-dropped": (
        "curve",
        "    elif side_genus == c.arithmetic_genus:\n"
        "        tail = set(range(c.n_vertices)) - side\n"
        "    else:\n"
        '        return RegularityVerdict(status="not_regular", witness=None)\n',
        "    else:\n        tail = set(range(c.n_vertices)) - side\n",
    ),
}

_COPIED = ("src", "tests", "configs", "bench", "runs", "pyproject.toml")
_IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def module_exports(package: Path) -> dict[str, set[str]]:
    """Each module of the package and the names of its literal ``__all__``."""
    out = {}
    for path in sorted(package.glob("*.py")):
        names: set[str] = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names = set(ast.literal_eval(node.value))
        out[path.stem] = names
    return out


def importers(tests: Path, module: str, exports: dict[str, set[str]]) -> list[str]:
    """The test files that import ``module`` (module docstring), as paths
    relative to the checkout."""
    wanted = {module} | exports.get(module, set())
    found = []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            hit = False
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module == f"bubbletree.{module}":
                    hit = True
                elif node.module == "bubbletree":
                    hit = any(a.name in wanted for a in node.names)
            elif isinstance(node, ast.Import):
                hit = any(a.name == f"bubbletree.{module}" for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = node.value.id == "bubbletree" and node.attr in wanted
            if hit:
                found.append(f"tests/{path.name}")
                break
    return found


def copy_checkout(root: Path, dest: Path) -> None:
    for name in _COPIED:
        src = root / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=_IGNORED)
        elif src.is_file():
            shutil.copy2(src, dest / name)


def run_mutant(root: Path, name: str, exports: dict[str, set[str]]) -> tuple[str, float]:
    module, target, replacement = MUTANTS[name]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        copy_checkout(root, work)
        source = work / "src" / "bubbletree" / f"{module}.py"
        text = source.read_text(encoding="utf-8")
        count = text.count(target)
        if count != 1:
            return f"refused: target text occurs {count} times in {module}.py", 0.0
        source.write_text(text.replace(target, replacement), encoding="utf-8")
        files = importers(work / "tests", module, exports)
        if not files:
            return f"refused: no test file imports {module}", 0.0
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *files],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
        )
    elapsed = time.perf_counter() - start
    if proc.returncode == 0:
        return f"survived ({len(files)} test files)", elapsed
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    by = failed.group(1) if failed else f"pytest exit {proc.returncode}"
    return f"killed by {by}", elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run hand mutants of the verdict code against the tests that import them."
    )
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--only", nargs="*", choices=sorted(MUTANTS), default=None)
    args = parser.parse_args(argv)
    exports = module_exports(args.root / "src" / "bubbletree")
    total = time.perf_counter()
    bad = 0
    for name in args.only or MUTANTS:
        outcome, elapsed = run_mutant(args.root, name, exports)
        bad += not outcome.startswith("killed")
        print(f"{name}: {outcome} [{elapsed:.1f} s]", flush=True)
    count = len(args.only or MUTANTS)
    print(f"{count} mutants, {bad} not killed, {time.perf_counter() - total:.0f} s in all")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
