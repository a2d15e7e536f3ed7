"""The names the traced benchmark (``bench/tracing.py``) patches and counts.

The tracer is loaded read-only from its path, installed around one
full-sphere energy, and removed; so a change that deletes or renames a
function the traced bench reads fails here, not only in the bench.
"""

import importlib.util
from pathlib import Path

from bubbletree import RationalMap, families, quadrature

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
