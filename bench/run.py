"""Benchmark of bubbletree: end-to-end metrics, or per-layer metrics from a traced pass.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/bubbletree`` and ``configs``).
One run:

1. set-up: a fresh interpreter imports ``bubbletree.cli`` and loads the
   workload's configs with ``load_config``, five times at the start of the
   run and five times at its end; ``setup_s`` is the median CPU time the
   interpreter reports once the configs are loaded;
2. one untimed pass, then timed passes until ``--seconds`` have elapsed,
   at least two; ``pass_s`` and ``cpu_s`` are medians over the timed passes;
3. with ``--trace 1``, one more pass with spans recorded at every layer
   boundary (see ``tracing.py``);
4. checks of every pass against independent references, a self-check of
   the checkers, and the byte identity of reports between passes.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Reports go to a scratch
directory under ``.bench_out/``, which also receives the result and the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5  # fresh interpreters timed at the start of a run, and again at its end
# A pass can read a quarter slower when other tenants take the cores, so even
# a pass longer than --seconds is measured twice and pass_s is a median.
MIN_PASSES = 2

SETUP_CODE = """
import sys, time
from pathlib import Path
from bubbletree.cli import load_config
for path in sys.argv[1:]:
    load_config(Path(path), [])
print(time.process_time())
"""


def fail(msg: str) -> NoReturn:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def measure_setup(configs: list[Path], runs: int) -> tuple[list[float], list[float]]:
    """CPU and wall times of fresh interpreters importing the CLI and loading the configs.

    ``setup_s`` is the CPU time the interpreter has used once the configs are
    loaded, as it reports itself.  On a shared two-core machine the wall time
    also holds whatever time other tenants took the cores, which moved the
    median of a run by up to a third; the wall times are kept in the result
    file.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", SETUP_CODE, *map(str, configs)]
    cpu, wall = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()}")
        cpu.append(float(proc.stdout.split()[-1]))
    return cpu, wall


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "bubbletree" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"{ROOT} is not a bubbletree checkout (src/bubbletree and configs/ missing)")
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, samples, spans = run(args, workloads, tracing, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"result": result, "samples": samples}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))


def run(args, workloads, tracing, scratch: Path):
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    # the first start compiles bytecode into the checkout; it is not counted
    measure_setup(wl.config_paths(), 1)
    setup, setup_wall = measure_setup(wl.config_paths(), SETUP_RUNS)

    passes = []

    def one_pass() -> tuple[float, float]:
        out = scratch / f"pass{len(passes)}"
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = wl.run_pass(out)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        passes.append(wl.collect(out, result))
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu

    warm_s, _ = one_pass()  # first-call costs inside the process are not timed
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, cpu = one_pass()
        walls.append(wall)
        cpus.append(cpu)
    pass_s = statistics.median(walls)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s, _ = one_pass()
        finally:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # a second set of starts at the end spreads the sample over the run's duration
    cpu, wall = measure_setup(wl.config_paths(), SETUP_RUNS)
    setup += cpu
    setup_wall += wall

    attempted, failed, problems = wl.check(passes)
    problems += wl.selfcheck(passes[0])
    for msg in problems[:20]:
        print(f"check: {msg}", file=sys.stderr)

    if args.trace:
        metrics = {}
        units = {}
        for name, value in tracer.summary(traced_s).items():
            metrics[name] = value
            units[name] = "count" if isinstance(value, int) else ("fraction" if name.endswith("share") else "s")
        metrics["cli.report_bytes"] = wl.report_bytes(passes[-1])
        units["cli.report_bytes"] = "bytes"
        metrics["trace.pass_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - pass_s
        units["trace.pass_s"] = units["trace.overhead_s"] = "s"
        out_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)}
        spans = tracer.spans_json()
    else:
        out_metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        spans = None
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    samples = {"setup_s": setup, "setup_wall_s": setup_wall, "warm_s": warm_s, "pass_s": walls, "cpu_s": cpus, "problems": problems}
    return result, samples, spans


if __name__ == "__main__":
    main()
