"""The committed runs/ goldens match what the CLI writes for each shipped config.

A golden is regenerated with the CLI, e.g. for runs/plumbing:

    PYTHONPATH=src python -m bubbletree extract --config configs/plumbing.yaml --out runs/plumbing
    PYTHONPATH=src python -m bubbletree neck --config configs/plumbing.yaml --out runs/plumbing

(`neck` only for configs with a `neck` section; `curve` alone for curve configs.)
"""

import json
import math
from pathlib import Path

import pytest
import yaml

from bubbletree.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))

# Reports are byte-identical for identical configs on one platform, and
# this one reproduces runs/ exactly.  A different numpy build or CPU may
# change summation order and with it the last bits of a float, so floats
# compare to a relative 1e-9 (far below every printed tolerance, far above
# rounding).  The alpha and Pohozaev residuals of a conformal neck are exactly
# 0 (its two squared speeds are one array), but a cancellation residual near
# zero, such as the alpha deviation of a torus neck, has no relative digits
# to keep, so an absolute 1e-12 floor applies to it.
RTOL = 1e-9
ATOL = 1e-12


def _subcommands(cfg: dict) -> list[str]:
    if "curve" in cfg:
        return ["curve"]
    return ["extract"] + (["neck"] if "neck" in cfg else [])


def _same(a, b, where: str) -> None:
    if isinstance(a, float) or isinstance(b, float):
        assert isinstance(a, (int, float)) and isinstance(b, (int, float)), where
        assert math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL), f"{where}: {a!r} != {b!r}"
    elif isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), where
        for k in a:
            _same(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{where}[{i}]")
    else:
        assert type(a) is type(b) and a == b, f"{where}: {a!r} != {b!r}"


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_runs_golden_matches_cli(config, tmp_path):
    cfg = yaml.safe_load(config.read_text(encoding="utf-8"))
    golden = ROOT / cfg["out"]
    for sub in _subcommands(cfg):
        assert main([sub, "--config", str(config), "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for name in written:
        _same(_read(tmp_path / name), _read(golden / name), f"{cfg['out']}/{name}")


# The neck reports read every bit of the collar grids, and a change there
# that only moves last bits passes the comparison above at rtol 1e-9.  So do
# the smooth reports with the particle measures: the lattice preimages, their
# ball masses and the balanced centers print to the last digit.  On the
# platform that wrote runs/, these match it byte for byte.
NECK_REPORTS = [
    ("extract", "plumbing"),
    ("extract", "plumbing_bubble"),
    ("extract", "torus"),
    ("neck", "plumbing"),
    ("neck", "torus"),
]
SMOOTH_REPORTS = [("extract", "bubble1"), ("extract", "bubble2")]


@pytest.mark.parametrize("command, stem", NECK_REPORTS, ids=lambda x: x)
def test_neck_reports_match_runs_byte_for_byte(command, stem, tmp_path):
    _assert_runs_bytes(command, stem, tmp_path)


@pytest.mark.parametrize("command, stem", SMOOTH_REPORTS, ids=lambda x: x)
def test_smooth_reports_match_runs_byte_for_byte(command, stem, tmp_path):
    _assert_runs_bytes(command, stem, tmp_path)


def _assert_runs_bytes(command, stem, tmp_path):
    config = ROOT / "configs" / f"{stem}.yaml"
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    written = sorted(tmp_path.iterdir())
    assert written
    for path in written:
        golden = ROOT / "runs" / stem / path.name
        assert path.read_bytes() == golden.read_bytes(), f"{command} {stem}: {path.name}"
