"""Particle measures, scale ladders, and concentration detection.

Detection tests run on synthetic atom clouds built from the closed-form
radial profile m(r) = M r^2/(r^2 + s^2): quantile atoms make every ball
mass exact to one atom weight, so band arithmetic is checkable by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubbletree import (
    ScaleLadder,
    WeightedParticleMeasure,
    detect_concentrations,
    mass_in,
    restrict,
)
from bubbletree.errors import ConcentrationError, LadderError, MeasureError

FOUR_PI = 4.0 * math.pi


def bubble_atoms(scale, center=0j, mass=FOUR_PI, n=4000, chart_radius=1.0, seed=7):
    """Quantile atoms of the profile mass-in-r = mass * r^2/(r^2 + scale^2)."""
    rng = np.random.default_rng(seed)
    qs = (np.arange(n) + 0.5) / n
    # cap quantiles so every atom stays inside the chart around its center
    r_max = chart_radius - abs(center)
    cap = r_max**2 / (r_max**2 + scale**2)
    qs = qs[qs < cap]
    r = scale * np.sqrt(qs / (1.0 - qs))
    th = rng.uniform(0.0, 2.0 * math.pi, len(r))
    pts = center + r * np.exp(1j * th)
    wts = np.full(len(r), mass / n)
    return WeightedParticleMeasure(pts, wts, chart_radius)


def test_mass_in_counts_closed_ball():
    mu = WeightedParticleMeasure(
        np.array([0j, 0.5 + 0j, 1.0 + 0j]), np.array([1.0, 2.0, 4.0]), 2.0
    )
    assert mass_in(mu, 0j, 0.5) == 3.0
    assert mass_in(mu, 0j, 0.499) == 1.0
    assert mu.mass == 7.0


def test_restrict_recentres():
    mu = WeightedParticleMeasure(
        np.array([0.4 + 0j, 0.6 + 0j]), np.array([1.0, 1.0]), 1.0
    )
    sub = restrict(mu, 0.5, 0.11)
    assert sub.mass == 2.0
    assert np.allclose(sorted(sub.points.real), [-0.1, 0.1])
    assert sub.chart_radius == 0.11


def test_negative_weights_rejected():
    with pytest.raises(MeasureError):
        WeightedParticleMeasure(np.array([0j]), np.array([-1.0]), 1.0)


def test_ladder_shape():
    lad = ScaleLadder(1.0, 0.2, 6)
    assert np.allclose(lad.delta, [1.0 / 2**m for m in range(7)])
    assert lad.finest_scale == 1.0 / 64.0
    assert lad.working_index == 3
    with pytest.raises(LadderError):
        ScaleLadder(1.0, 0.2, 1)


def reference_ladder(delta0, eps_bar, depth):
    """The dyadic ladder's arrays and the array checks ``ScaleLadder`` ran
    before its admissibility had a closed form: build, then test the shape,
    the halving rules, eps_0 = eps_bar/4 and conditions (1) and (2) at the
    working index.  Returns (delta, eps) or raises ``LadderError``."""
    if depth < 2:
        raise LadderError(f"depth must be >= 2, got {depth}")
    ks = np.arange(depth + 1, dtype=np.float64)
    delta = delta0 * 0.5**ks
    eps = (eps_bar / 4.0) * 0.5**ks
    if eps_bar <= 0.0:
        raise LadderError(f"eps_bar must be positive, got {eps_bar}")
    if delta.shape != (depth + 1,) or eps.shape != (depth + 1,):
        raise LadderError("delta/eps must have length depth + 1")
    if delta[0] <= 0.0:
        raise LadderError("delta_0 must be positive")
    if abs(eps[0] - eps_bar / 4.0) > 1e-15 * eps_bar:
        raise LadderError(f"eps_0 must equal eps_bar/4, got {eps[0]}")
    if np.any(delta[1:] > delta[:-1] / 2.0 * (1.0 + 1e-15)):
        raise LadderError("delta_k <= delta_(k-1)/2 violated")
    if np.any(eps[1:] > eps[:-1] / 2.0 * (1.0 + 1e-15)):
        raise LadderError("eps_k <= eps_(k-1)/2 violated")
    k = depth // 2
    if 2.0 * eps[k] + 2.0 * eps[2 * k] >= eps_bar:
        raise LadderError(f"condition (1) violated at working index {k}")
    if 3.0 * delta[2 * k - 1] >= delta[k]:
        raise LadderError(f"condition (2) violated at working index {k}")
    return delta, eps


@settings(max_examples=500, deadline=None)
@given(
    depth=st.integers(2, 200),
    log_delta0=st.floats(-6.0, 6.0),
    log_eps_bar=st.floats(-6.0, 6.0),
)
@example(depth=5, log_delta0=0.0, log_eps_bar=0.0)
@example(depth=6, log_delta0=-6.0, log_eps_bar=6.0)
def test_ladder_closed_form_matches_reference_checks(depth, log_delta0, log_eps_bar):
    delta0, eps_bar = 10.0**log_delta0, 10.0**log_eps_bar
    try:
        want = reference_ladder(delta0, eps_bar, depth)
    except LadderError:
        want = None
    assert (want is None) == (depth < 6)
    if want is None:
        with pytest.raises(LadderError, match="depth must be >= 6"):
            ScaleLadder(delta0, eps_bar, depth)
        return
    lad = ScaleLadder(delta0, eps_bar, depth)
    assert lad.delta.tobytes() == want[0].tobytes()
    assert lad.eps.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("delta0, eps_bar", [(0.0, 0.2), (1.0, -0.2), (np.inf, 0.2), (1.0, np.nan)])
def test_ladder_refuses_non_positive_or_non_finite_values(delta0, eps_bar):
    with pytest.raises(LadderError, match="positive and finite"):
        ScaleLadder(delta0, eps_bar, 6)


def test_detects_single_bubble_with_stated_mass():
    lad = ScaleLadder(1.0, 0.2, 6)
    mus = [bubble_atoms(1.0 / k) for k in (316.0, 3162.0, 10000.0)]
    empty = WeightedParticleMeasure.empty(1.0)
    rep = detect_concentrations(mus, empty, lad, chart_kind="smooth")
    assert len(rep.sites) == 1
    site = rep.sites[0]
    assert abs(site.location) <= 2.0 * lad.finest_scale
    assert abs(site.mass - FOUR_PI) <= 0.02 * FOUR_PI
    assert len(site.subsequence) == lad.working_index
    members = [idx for _, idx in site.subsequence]
    assert members == sorted(members)


def test_detection_subtracts_limit_measure():
    # a fixed background blob plus one concentrating bubble: the background
    # is part of the limit and must not register as a site
    lad = ScaleLadder(1.0, 0.2, 6)
    bg = bubble_atoms(0.3, center=0.5, mass=2.0, seed=11)
    mus = []
    for k in (316.0, 3162.0, 10000.0):
        bub = bubble_atoms(1.0 / k, center=-0.5, seed=13)
        mus.append(
            WeightedParticleMeasure(
                np.concatenate([bub.points, bg.points]),
                np.concatenate([bub.weights, bg.weights]),
                1.0,
            )
        )
    rep = detect_concentrations(mus, bg, lad, chart_kind="smooth")
    assert len(rep.sites) == 1
    assert abs(rep.sites[0].location - (-0.5)) <= 2.0 * lad.finest_scale


def test_two_sites_sorted_by_mass():
    lad = ScaleLadder(1.0, 0.2, 6)
    mus = []
    for k in (316.0, 3162.0, 10000.0):
        a = bubble_atoms(1.0 / k, center=-0.5, mass=FOUR_PI, seed=3)
        b = bubble_atoms(1.0 / k, center=0.5, mass=2.0 * FOUR_PI, n=8000, seed=5)
        mus.append(
            WeightedParticleMeasure(
                np.concatenate([a.points, b.points]),
                np.concatenate([a.weights, b.weights]),
                1.0,
            )
        )
    rep = detect_concentrations(mus, WeightedParticleMeasure.empty(1.0), lad, chart_kind="smooth")
    assert len(rep.sites) == 2
    assert rep.sites[0].mass > rep.sites[1].mass
    assert abs(rep.sites[0].location - 0.5) <= 2.0 * lad.finest_scale


def test_no_concentration_yields_no_sites():
    lad = ScaleLadder(1.0, 0.2, 6)
    mus = [bubble_atoms(0.5, mass=1.0, seed=s) for s in (1, 2, 3)]
    rep = detect_concentrations(
        mus, WeightedParticleMeasure.empty(1.0), lad, chart_kind="smooth"
    )
    assert rep.sites == ()


def test_unstabilized_profile_raises():
    # a bubble whose scale never drops below the tested scales: ball masses
    # at the ladder scales disagree, so no excess value has stabilized
    lad = ScaleLadder(1.0, 0.2, 6)
    mus = [bubble_atoms(0.05, seed=s) for s in (1, 2, 3)]
    with pytest.raises(ConcentrationError, match="inconsistent across scales"):
        detect_concentrations(
            mus, WeightedParticleMeasure.empty(1.0), lad, chart_kind="smooth"
        )


def test_needs_at_least_two_members():
    lad = ScaleLadder(1.0, 0.2, 6)
    with pytest.raises(ConcentrationError):
        detect_concentrations(
            [bubble_atoms(0.01)], WeightedParticleMeasure.empty(1.0), lad, chart_kind="smooth"
        )
