"""The names the traced benchmark (``bench/tracing.py``) patches and counts.

The tracer is loaded read-only from its path, installed around one
full-sphere energy or one smooth marking, and removed; so a change that
deletes or renames a function the traced bench reads fails here, not only in
the bench.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from bubbletree import RationalMap, ScaleLadder, WeightedParticleMeasure, families, quadrature
from bubbletree import renorm

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_sphere_energy_and_restores():
    originals = (
        quadrature.adaptive_polar_quadrature,
        families.adaptive_polar_quadrature,
        families.energy_quadrature,
    )
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert families.energy_quadrature is not originals[2]
        families.energy_quadrature(RationalMap((1.0, 0.0), (1.0,)))
    finally:
        tracer.remove()
    counts = tracer.counts
    # the z chart and the reversed chart, 64 initial panels each at least
    assert counts["quadrature.calls"] == 2
    assert counts["quadrature.panels"] >= 128
    assert counts["quadrature.density_calls"] > 0
    assert counts["families.energy_quadrature_calls"] == 1
    assert (
        quadrature.adaptive_polar_quadrature,
        families.adaptive_polar_quadrature,
        families.energy_quadrature,
    ) == originals


def radial_cloud(k, n=2000):
    """n atoms of total mass 4 pi whose radii follow the profile of k z at scale 1/k."""
    q = (np.arange(n) + 0.5) / n
    theta = np.random.default_rng(int(k)).uniform(0.0, 2.0 * math.pi, n)
    points = np.minimum(np.sqrt(q / (1.0 - q)) / k, 1.0) * np.exp(1j * theta)
    return WeightedParticleMeasure(points, np.full(n, 4.0 * math.pi / n), 1.0)


def test_tracer_times_one_smooth_marking_and_restores():
    originals = (
        renorm.mark_smooth_bubble,
        renorm.find_balanced_center,
        renorm.solve_neck_scale,
    )
    mus = [radial_cloud(316.0), radial_cloud(3162.0)]
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert renorm.mark_smooth_bubble is not originals[0]
        renorm.mark_smooth_bubble(mus, ScaleLadder(1.0, 0.2, 6))
    finally:
        tracer.remove()
    summary = tracer.summary(1.0)
    assert summary["renorm.mark_s"] > 0.0
    assert summary["renorm.center_s"] > 0.0
    # every probe of the center functional solves through the public name,
    # at least once per member
    assert tracer.counts["renorm.neck_scale_calls"] >= len(mus)
    assert (
        renorm.mark_smooth_bubble,
        renorm.find_balanced_center,
        renorm.solve_neck_scale,
    ) == originals
