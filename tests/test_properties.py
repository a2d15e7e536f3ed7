"""Randomized property checks for the algebraic building blocks."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletree import (
    MarkedNodalCurve,
    WeightedParticleMeasure,
    curve_from_text,
    curve_to_text,
    curves_isomorphic,
    forget_mark,
    is_stable,
    mass_in,
    solve_neck_scale_from_cdf,
)

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
    nv = draw(st.integers(1, 3))
    edges = tuple((i, i + 1) for i in range(nv - 1))
    legs = []
    label = 1
    for v in range(nv):
        deg = sum(1 for e in edges if v in e)
        n_legs = draw(st.integers(max(0, 3 - deg), 4))
        for _ in range(n_legs):
            legs.append((v, label))
            label += 1
    if len(legs) < 3:
        for _ in range(3 - len(legs)):
            legs.append((0, label))
            label += 1
    return MarkedNodalCurve((0,) * nv, edges, tuple(legs))


@given(c=stable_curves())
@settings(max_examples=80)
def test_text_round_trip_on_random_curves(c):
    assert is_stable(c).stable
    assert curve_from_text(curve_to_text(c)) == c


@given(c=stable_curves(), data=st.data())
@settings(max_examples=80)
def test_forgetting_preserves_stability(c, data):
    # any single forget on a curve with enough marks lands on a stable curve
    if c.n_marks <= 3:
        return
    label = data.draw(st.sampled_from(c.mark_labels))
    res = forget_mark(c, label)
    assert is_stable(res.curve).stable
    assert res.curve.n_marks == c.n_marks - 1
    assert res.curve.arithmetic_genus == c.arithmetic_genus
    # forgetting is insensitive to how the input vertices were numbered
    perm = list(range(c.n_vertices))[::-1]
    renamed = MarkedNodalCurve(
        tuple(c.genus[perm[v]] for v in range(c.n_vertices)),
        tuple((perm.index(i), perm.index(j)) for i, j in c.edges),
        tuple((perm.index(v), lab) for v, lab in c.legs),
    )
    assert curves_isomorphic(forget_mark(renamed, label).curve, res.curve)
