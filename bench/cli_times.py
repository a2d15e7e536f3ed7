"""Reference wall times of the CLI, one fresh interpreter per call.

    python3 bench/cli_times.py

Times every shipped config through ``python3 -m bubbletree`` (the ``extract``,
``neck``, ``curve`` and ``selftest`` commands) and a bare import, and prints
the median of three calls each.  Reports go to ``.bench_out/cli``.  These figures
are quoted in ``bench/README.md``; the benchmark itself does not use them.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 3

CALLS = [
    ("extract bubble1", ["extract", "--config", "configs/bubble1.yaml"]),
    ("extract bubble2", ["extract", "--config", "configs/bubble2.yaml"]),
    ("extract plumbing", ["extract", "--config", "configs/plumbing.yaml"]),
    ("extract plumbing_bubble", ["extract", "--config", "configs/plumbing_bubble.yaml"]),
    ("extract torus", ["extract", "--config", "configs/torus.yaml"]),
    ("neck plumbing", ["neck", "--config", "configs/plumbing.yaml"]),
    ("neck torus", ["neck", "--config", "configs/torus.yaml"]),
    ("selftest", ["selftest"]),
    ("curve curve_query", ["curve", "--config", "configs/curve_query.yaml"]),
]


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = ROOT / ".bench_out" / "cli"
    rows = [(name, ["-m", "bubbletree", *argv]) for name, argv in CALLS]
    rows.append(("bare import", ["-c", "import bubbletree.cli"]))
    for name, argv in rows:
        if argv[:2] == ["-m", "bubbletree"] and argv[2] != "selftest":
            argv = [*argv, "--out", str(out / name.replace(" ", "_"))]
        times = []
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True, capture_output=True)
            times.append(time.perf_counter() - t0)
        print(f"{name:26s} {statistics.median(times):7.2f} s")


if __name__ == "__main__":
    main()
