"""Randomized property checks for the algebraic building blocks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bubbletree import (
    MarkedNodalCurve,
    WeightedParticleMeasure,
    curve_from_text,
    curve_to_text,
    forget_mark,
    is_stable,
    mass_in,
    solve_neck_scale_from_cdf,
)
from bubbletree.errors import CurveError

@given(
    radii=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=30),
    weights=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30),
    r1=st.floats(0.0, 1.0),
    r2=st.floats(0.0, 1.0),
)
def test_ball_mass_monotone_in_radius(radii, weights, r1, r2):
    n = min(len(radii), len(weights))
    pts = np.array([r * np.exp(2j * math.pi * i / n) for i, r in enumerate(radii[:n])])
    mu = WeightedParticleMeasure(pts, np.array(weights[:n]), 1.0)
    lo, hi = sorted((r1, r2))
    assert mass_in(mu, 0j, lo) <= mass_in(mu, 0j, hi) + 1e-15
    assert mass_in(mu, 0j, 1.0) == np.sum(mu.weights)


@given(
    scale=st.floats(0.1, 3.0),
    total=st.floats(0.5, 20.0),
    frac=st.floats(0.05, 0.95),
)
@settings(max_examples=50)
def test_neck_scale_inverts_exponential_profiles(scale, total, frac):
    # closed-form check on mass_outside(s) = total * exp(-s / scale)
    eps_bar = frac * total
    res = solve_neck_scale_from_cdf(
        lambda s: total * math.exp(-s / scale), total, eps_bar
    )
    s_exact = -scale * math.log(frac)
    assert abs(res.s - s_exact) <= 1e-6 * (1.0 + s_exact)
    assert abs(res.t - s_exact / (1.0 + s_exact)) <= 1e-6


@st.composite
def stable_curves(draw):
    """Stable curves on 1-4 vertices of genus 0-2: a random spanning tree plus
    up to three extra edges (self-loops, parallel edges, cycles) and 0-3 marks
    per vertex, kept only when stable.  Labels ascend in vertex order, the
    order in which ``curve_from_text`` reads them back."""
    nv = draw(st.integers(1, 4))
    genus = draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    vertex = st.integers(0, nv - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    counts = draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
    n = sum(counts)
    labels = iter(sorted(draw(st.lists(st.integers(1, 30), min_size=n, max_size=n, unique=True))))
    legs = [(v, next(labels)) for v in range(nv) for _ in range(counts[v])]
    c = MarkedNodalCurve(tuple(genus), tuple(edges), tuple(legs))
    assume(is_stable(c).stable)
    return c


@given(c=stable_curves())
@settings(max_examples=80)
def test_text_round_trip_on_random_curves(c):
    assert is_stable(c).stable
    assert curve_from_text(curve_to_text(c)) == c


@given(c=stable_curves(), data=st.data())
@settings(max_examples=80)
def test_forgetting_preserves_stability(c, data):
    # a single forget lands on a stable curve, unless 2g - 2 + n would drop to 0
    assume(c.n_marks > 0)
    label = data.draw(st.sampled_from(c.mark_labels))
    if 2 * c.arithmetic_genus - 2 + c.n_marks - 1 <= 0:
        with pytest.raises(CurveError, match="stratum empty"):
            forget_mark(c, label)
        return
    res = forget_mark(c, label)
    assert is_stable(res.curve).stable
    assert res.curve.n_marks == c.n_marks - 1
    assert res.curve.arithmetic_genus == c.arithmetic_genus
    # forgetting is insensitive to how the input vertices were numbered: the
    # reversed numbering of the input induces the reversed numbering of its
    # image, since a contracted host drops out at the mirrored index and the
    # other vertices keep their mirrored order
    assert forget_mark(reversed_vertices(c), label).curve == reversed_vertices(res.curve)


def reversed_vertices(c):
    """``c`` with vertex v renumbered n - 1 - v; edges and legs keep their order."""
    n = c.n_vertices
    return MarkedNodalCurve(
        c.genus[::-1],
        tuple((n - 1 - i, n - 1 - j) for i, j in c.edges),
        tuple((n - 1 - v, lab) for v, lab in c.legs),
    )
