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
    RationalMap,
    ScaleLadder,
    WeightedParticleMeasure,
    build_nodal_pushforward,
    density_to_measure,
    detect_concentrations,
    mass_in,
    measure,
    restrict,
    solve_neck_scale,
    solve_neck_scale_from_cdf,
)
from bubbletree.errors import (
    ConcentrationError,
    LadderError,
    MeasureError,
    NeckScaleError,
    SubsequenceError,
)
from bubbletree.families import _N_SPHERE

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


@st.composite
def ball_queries(draw):
    """A measure of up to 700 atoms (weights over eleven decades, so sums
    depend on their order), a center, and radii: 0, free values, NaN (no
    atom), the exact distances of atoms (closed balls), repeated and in any
    order."""
    n = draw(st.sampled_from([0, 1, 5, 129, 700]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * math.pi * rng.uniform(size=n))
    wts = rng.exponential(size=n) * 10.0 ** rng.integers(-8, 3, size=n)
    mu = WeightedParticleMeasure(pts, wts, 1.0)
    center = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
    dist = np.abs(mu.points - center).tolist()
    radius = st.one_of(
        st.sampled_from([0.0, math.nan]),
        st.floats(0.0, 2.0),
        st.sampled_from(dist) if dist else st.just(0.0),
    )
    radii = draw(st.lists(radius, max_size=12))
    radii += draw(st.lists(st.sampled_from(radii), max_size=4)) if radii else []
    return mu, center, draw(st.permutations(radii))


@settings(max_examples=300, deadline=None)
@given(query=ball_queries())
@example(query=(WeightedParticleMeasure.empty(1.0), 0j, [0.5, 0.0, 0.5]))
def test_ball_masses_keep_the_bits_of_each_ball(query):
    mu, center, radii = query
    got = measure.ball_masses(mu, center, radii)
    want = np.array([mass_in(mu, center, r) for r in radii], dtype=np.float64)
    # the masked sum each closed ball took before the helper
    masked = np.array(
        [float(mu.weights[np.abs(mu.points - center) <= r].sum()) for r in radii],
        dtype=np.float64,
    )
    assert got.tobytes() == want.tobytes() == masked.tobytes()


@pytest.mark.parametrize(
    "center", [math.nan, complex(0.0, math.nan), math.inf, complex(-math.inf, 0.5)], ids=repr
)
def test_ball_masses_and_restrict_refuse_a_center_that_is_not_finite(center):
    """A center that is not finite holds no atom: refused, not read as an
    empty ball, on an empty measure too."""
    for mu in (bubble_atoms(0.1), WeightedParticleMeasure.empty(1.0)):
        with pytest.raises(MeasureError, match="center must be finite"):
            measure.ball_masses(mu, center, (0.5, 0.1))
        with pytest.raises(MeasureError, match="center must be finite"):
            mass_in(mu, center, 0.5)
        with pytest.raises(MeasureError, match="center must be finite"):
            restrict(mu, center, 0.5)


def test_ball_masses_refuse_a_negative_radius():
    mu = WeightedParticleMeasure(np.array([0j]), np.array([1.0]), 1.0)
    with pytest.raises(MeasureError, match="negative radius"):
        measure.ball_masses(mu, 0j, (math.nan, 0.5, -1e-300))
    with pytest.raises(MeasureError, match="negative radius"):
        mass_in(mu, 0j, -1.0)


def test_restrict_recentres():
    mu = WeightedParticleMeasure(
        np.array([0.4 + 0j, 0.6 + 0j]), np.array([1.0, 1.0]), 1.0
    )
    sub = restrict(mu, 0.5, 0.11)
    assert sub.mass == 2.0
    assert np.allclose(sorted(sub.points.real), [-0.1, 0.1])
    assert sub.chart_radius == 0.11


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, True, "1.0"])
def test_non_finite_chart_radius_is_refused(radius):
    """Detection bins a measure on a grid over its chart: a NaN or infinite
    chart has none, from the constructor or from restrict; nor is a bool or
    a string a chart radius."""
    with pytest.raises(MeasureError, match="positive and finite"):
        WeightedParticleMeasure(np.array([0j]), np.array([1.0]), radius)
    with pytest.raises(MeasureError, match="positive and finite"):
        WeightedParticleMeasure.empty(radius)
    with pytest.raises(MeasureError, match="positive and finite"):
        restrict(bubble_atoms(0.1), 0.05, radius)


def _assert_moduli(mu):
    assert not mu.moduli.flags.writeable
    assert mu.moduli.dtype == np.float64
    assert mu.moduli.tobytes() == np.abs(mu.points).tobytes()


def test_every_measure_keeps_its_moduli(bubble2_family, plumbing_family):
    """Lattice preimages (every root in the chart, kept as they are, and
    some outside it, selected), restrictions (about 0, signed zeros and off
    it), nodal pushforwards, empty measures and the plumbing limit measure
    all hold |points|, read-only, with the bits of a fresh np.abs."""
    some_outside = density_to_measure(RationalMap((3.0, 0.0, -1.0), (1.0, 2.0)), 1.5)
    all_inside = density_to_measure(RationalMap((1e3, 0.0), (1.0,)), 1.0)
    assert 0 < len(some_outside) < 2 * _N_SPHERE and len(all_inside) == _N_SPHERE
    mu = bubble2_family.members[0].measure
    assert len(mu) == 2 * _N_SPHERE
    restricted = [
        (center, radius, restrict(mu, center, radius))
        for center, radius in (
            (0.0, 0.7),
            (-0.0, 0.7),
            (complex(-0.0, -0.0), 0.3),
            (0.5 + 1e-3j, 0.25),
            (-0.5, 0.25),
            (0.25j, 2.0),
        )
    ]
    for center, radius, sub in restricted:
        sel = np.abs(mu.points - center) <= radius
        assert sub.points.tobytes() == (mu.points[sel] - center).tobytes()
        assert sub.weights.tobytes() == mu.weights[sel].tobytes()
        assert 0 < len(sub) < len(mu) or radius == 2.0
    measures = [
        some_outside,
        all_inside,
        mu,
        *(sub for _, _, sub in restricted),
        build_nodal_pushforward(plumbing_family.members[-1].field),
        WeightedParticleMeasure.empty(2.0),
        plumbing_family.limit_measure,
    ]
    for m in measures:
        _assert_moduli(m)
    assert len(measures[-2]) == 0 and len(measures[-1]) > 1


# the chart origin as every caller spells it
_ORIGINS = [0, 0.0, 0j, -0.0, complex(-0.0, -0.0)]


@pytest.mark.parametrize("origin", _ORIGINS, ids=repr)
def test_questions_about_the_origin_match_a_fresh_distance_pass(origin, bubble2_family):
    """Ball masses, restriction and the neck-scale solve about 0 read the
    stored moduli; each equals the computation from np.abs(points - q)."""
    mu = bubble2_family.members[-1].measure
    signed = WeightedParticleMeasure(
        np.array([complex(-0.0, 0.1), complex(0.2, -0.0), complex(-0.0, -0.0)]), np.ones(3), 1.0
    )
    radii = [0.5, 1e-3, 0.25, 0.0, 1.0]
    for m, cut in ((mu, 0.5), (signed, 0.15)):
        masked = [float(m.weights[np.abs(m.points - origin) <= r].sum()) for r in radii]
        got = measure.ball_masses(m, origin, radii)
        assert got.tobytes() == np.array(masked).tobytes()
        sub = restrict(m, origin, cut)
        sel = np.abs(m.points - origin) <= cut
        assert sub.points.tobytes() == (m.points[sel] - origin).tobytes()
        assert sub.weights.tobytes() == m.weights[sel].tobytes()

    class Fresh:
        """mu without stored moduli: every distance a fresh pass."""

        points, weights, mass = mu.points, mu.weights, mu.mass

        def distances(self, q):
            return np.abs(self.points - q)

        def __len__(self):
            return len(mu)

    for eps_bar in (0.2, 1.0):
        want = solve_neck_scale(Fresh(), origin, eps_bar)
        res = solve_neck_scale(mu, origin, eps_bar)
        assert res == want and res.outside.tobytes() == want.outside.tobytes()


def test_total_mass_is_not_an_init_parameter():
    with pytest.raises(TypeError):
        WeightedParticleMeasure(np.array([0j]), np.array([1.0]), 1.0, 99.0)
    assert WeightedParticleMeasure(np.array([0j]), np.array([1.0]), 1.0).mass == 1.0


def test_the_constructor_copies_the_callers_arrays():
    points, weights = np.array([0.1j, 0.2]), np.ones(2)
    mu = WeightedParticleMeasure(points, weights, 1.0)
    assert points.flags.writeable and weights.flags.writeable
    assert not any(a.flags.writeable for a in (mu.points, mu.weights, mu.moduli))
    points[0], weights[0] = 0.5, 3.0
    assert (mu.points[0], mu.weights[0], mu.mass) == (0.1j, 1.0, 2.0)


@pytest.mark.parametrize(
    "point, weight",
    [(complex(math.nan, 0.0), 1.0), (complex(0.0, -math.inf), 1.0), (0.5j, math.nan), (0.5, math.inf)],
    ids=repr,
)
def test_non_finite_atom_or_weight_is_refused(point, weight):
    """Refused whether the atom comes first or last, and on a chart of any
    radius; an atom whose modulus overflows is finite, and outside the chart."""
    for pts, wts in (([point, 0.1], [weight, 1.0]), ([0.1, point], [1.0, weight])):
        with pytest.raises(MeasureError, match="non-finite atom or weight"):
            WeightedParticleMeasure(np.array(pts, dtype=complex), np.array(wts), 1e300)
    with pytest.raises(MeasureError, match="outside chart"):
        WeightedParticleMeasure(np.array([complex(1e308, 1e308)]), np.array([1.0]), 1e300)


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


@pytest.mark.parametrize("depth", [6.5, True, math.inf, "7"], ids=repr)
def test_ladder_refuses_a_depth_that_is_not_an_integer(depth):
    with pytest.raises(LadderError, match="depth must be an integer"):
        ScaleLadder(1.0, 0.2, depth)


def test_ladder_stores_an_integral_float_depth_as_an_int():
    lad = ScaleLadder(1.0, 0.2, 7.0)
    assert type(lad.depth) is int and type(lad.working_index) is int
    assert lad == ScaleLadder(1.0, 0.2, 7)
    assert lad.delta.tobytes() == ScaleLadder(1.0, 0.2, 7).delta.tobytes()


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


@pytest.mark.parametrize(
    "delta0, eps_bar, depth",
    [
        (1.0, 0.2, 1074),
        (1.0, 0.2, 1100),
        (1.0, 1e300, 1075),
        (1e-300, 1e300, 1080),
        (1.0, 0.2, 10**400),
    ],
    ids=["tolerance", "both", "scale", "small_delta0", "beyond_float_range"],
)
def test_ladder_refuses_a_finest_value_that_underflows_before_building_arrays(
    monkeypatch, delta0, eps_bar, depth
):
    def refuse(*args, **kwargs):
        raise AssertionError("ladder arrays built for a refused depth")

    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(LadderError, match=f"depth {depth} underflows"):
        ScaleLadder(delta0, eps_bar, depth)


def test_ladder_keeps_a_subnormal_finest_scale():
    lad = ScaleLadder(1.0, 1e300, 1074)
    assert lad.finest_scale == 5e-324
    assert lad.eps[-1] > 0.0


@pytest.mark.parametrize(
    "delta0, eps_bar",
    [(0.0, 0.2), (1.0, -0.2), (np.inf, 0.2), (1.0, np.nan), (1.0, True), (True, 0.2), ("1.0", 0.2)],
)
def test_ladder_refuses_non_positive_or_non_finite_values(delta0, eps_bar):
    """Zero, negative and non-finite scales are refused, and so are bools and
    strings."""
    with pytest.raises(LadderError, match="positive and finite"):
        ScaleLadder(delta0, eps_bar, 6)


@pytest.mark.parametrize("eps_bar", [math.nan, math.inf, True, "0.2"], ids=repr)
def test_neck_scale_refuses_an_eps_bar_that_is_not_a_finite_number(eps_bar):
    """Refused before the far tail's first guess, which cannot count a NaN."""
    mu = bubble_atoms(0.1)
    with pytest.raises(NeckScaleError, match="eps_bar must be a finite number"):
        solve_neck_scale(mu, 0.0, eps_bar)
    with pytest.raises(NeckScaleError, match="eps_bar must be a finite number"):
        solve_neck_scale_from_cdf(lambda s: 1.0 / (1.0 + s * s), 1.0, eps_bar)
    with pytest.raises(NeckScaleError, match="eps_bar must be positive"):
        solve_neck_scale(mu, 0.0, -0.0)


def test_detects_single_bubble_with_stated_mass():
    lad = ScaleLadder(1.0, 0.2, 6)
    mus = [bubble_atoms(1.0 / k) for k in (316.0, 3162.0, 10000.0)]
    empty = WeightedParticleMeasure.empty(1.0)
    sites = detect_concentrations(mus, empty, lad, chart_kind="smooth")
    assert len(sites) == 1
    site = sites[0]
    assert abs(site.location) <= 2.0 * lad.finest_scale
    assert abs(site.mass - FOUR_PI) <= 0.02 * FOUR_PI
    assert len(site.subsequence) == lad.working_index
    members = list(site.subsequence)
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
    sites = detect_concentrations(mus, bg, lad, chart_kind="smooth")
    assert len(sites) == 1
    assert abs(sites[0].location - (-0.5)) <= 2.0 * lad.finest_scale


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
    sites = detect_concentrations(mus, WeightedParticleMeasure.empty(1.0), lad, chart_kind="smooth")
    assert len(sites) == 2
    assert sites[0].mass > sites[1].mass
    assert abs(sites[0].location - 0.5) <= 2.0 * lad.finest_scale


def test_no_concentration_yields_no_sites():
    lad = ScaleLadder(1.0, 0.2, 6)
    mus = [bubble_atoms(0.5, mass=1.0, seed=s) for s in (1, 2, 3)]
    sites = detect_concentrations(
        mus, WeightedParticleMeasure.empty(1.0), lad, chart_kind="smooth"
    )
    assert sites == ()


def test_unstabilized_profile_raises():
    # a bubble whose scale never drops below the tested scales: ball masses
    # at the ladder scales disagree, so no excess value has stabilized
    lad = ScaleLadder(1.0, 0.2, 6)
    mus = [bubble_atoms(0.05, seed=s) for s in (1, 2, 3)]
    with pytest.raises(SubsequenceError, match="not extracted: last member inconsistent"):
        detect_concentrations(
            mus, WeightedParticleMeasure.empty(1.0), lad, chart_kind="smooth"
        )


def test_needs_at_least_two_members():
    lad = ScaleLadder(1.0, 0.2, 6)
    with pytest.raises(ConcentrationError) as exc:
        detect_concentrations(
            [bubble_atoms(0.01)], WeightedParticleMeasure.empty(1.0), lad, chart_kind="smooth"
        )
    assert not isinstance(exc.value, SubsequenceError)


def reference_subsequence(excess, m_p, eps, kw, loc=0j):
    """The greedy diagonal extraction and its post-fix that
    ``detect_concentrations`` ran before the subsequence had a closed form.
    ``excess[i][m]`` is member i's ball excess at ladder scale m; the last
    member passes every level.  Returns the ((j, member), ...) assignment or
    raises the same ``ConcentrationError``."""
    last_idx = len(excess) - 1
    assignment = []
    member = 0
    for j in range(1, kw + 1):
        found = None
        limit = last_idx if j < kw else last_idx + 1
        while member < limit:
            ok = True
            for m in range(1, 2 * j + 1):
                if abs(excess[member][m] - m_p) >= eps[m]:
                    ok = False
                    break
            if ok:
                found = member
                member += 1
                break
            member += 1
        if found is None:
            break
        assignment.append((j, found))
    if not assignment or assignment[0][1] == last_idx:
        raise ConcentrationError(
            f"subsequence not extracted: no earlier member corroborates site {loc:.4g}"
        )
    levels_found = len(assignment)
    if assignment[-1][1] != last_idx:
        if levels_found < kw:
            assignment.append((levels_found + 1, last_idx))
        else:
            assignment[-1] = (kw, last_idx)
    return tuple(assignment)


def detect_from_table(monkeypatch, excess, ladder, candidates=(0j,), chart_kind="smooth"):
    """``detect_concentrations`` on placeholder members whose ball excess at
    ladder scale m is ``excess[i][m]`` (their ball mass, over an empty limit),
    at the given candidate locations."""
    mus = [WeightedParticleMeasure.empty(1.0) for _ in excess]
    index = {id(mu): i for i, mu in enumerate(mus)}
    scale = {float(d): m for m, d in enumerate(ladder.delta)}
    monkeypatch.setattr(measure, "_candidate_locations", lambda *args: list(candidates))
    monkeypatch.setattr(
        measure,
        "ball_masses",
        lambda mu, center, radii: np.array(
            [excess[index[id(mu)]][scale[float(r)]] if id(mu) in index else 0.0 for r in radii]
        ),
    )
    return detect_concentrations(mus, WeightedParticleMeasure.empty(1.0), ladder, chart_kind)


@settings(max_examples=500, deadline=None)
@given(
    depth=st.integers(6, 12),
    levels=st.lists(st.integers(0, 6), min_size=1, max_size=7),
    fail_step=st.lists(st.integers(1, 2), min_size=7, max_size=7),
    fracs=st.lists(st.floats(-0.5, 0.5), min_size=25, max_size=25),
    m_p=st.floats(0.2, 10.0),
)
@example(depth=6, levels=[3, 3, 3, 3], fail_step=[1] * 7, fracs=[0.0] * 25, m_p=1.0)
@example(depth=6, levels=[0, 0], fail_step=[1] * 7, fracs=[0.0] * 25, m_p=1.0)
@example(depth=12, levels=[1, 0, 6, 2, 6], fail_step=[2] * 7, fracs=[0.0] * 25, m_p=4.0)
def test_closed_form_subsequence_matches_greedy_reference(depth, levels, fail_step, fracs, m_p):
    # earlier member i passes exactly the levels j <= levels[i]: its excess is
    # within eps_m of m_p at every m <= 2 levels[i] and misses at the next
    # scale or the one after; the last member reads m_p at every scale
    lad = ScaleLadder(1.0, 0.2, depth)
    kw = lad.working_index
    eps = [float(e) for e in lad.eps]
    excess = []
    for i, level in enumerate(min(v, kw) for v in levels):
        fail = 2 * level + fail_step[i] if level < kw else None
        row = [
            m_p + (3.0 if m == fail else fracs[m]) * eps[m] if m else m_p
            for m in range(2 * kw + 1)
        ]
        excess.append(row)
    excess.append([m_p] * (2 * kw + 1))
    try:
        want = reference_subsequence(excess, m_p, eps, kw)
    except ConcentrationError as exc:
        want = str(exc)
    with pytest.MonkeyPatch.context() as mp:
        try:
            (site,) = detect_from_table(mp, excess, lad)
            # a member's ladder level is its position in the subsequence + 1
            got = tuple((i + 1, member) for i, member in enumerate(site.subsequence))
        except SubsequenceError as exc:
            got = str(exc)
    assert got == want
    if not isinstance(want, str):
        assert want[-1] == (len(want), len(excess) - 1)


def test_two_candidates_snapped_to_the_node_are_refused(monkeypatch):
    # candidates 3 finest scales apart are two sites on a smooth chart; on a
    # nodal chart both lie within 2 finest scales of the node and snap to it
    lad = ScaleLadder(1.0, 0.2, 6)
    excess = [[1.0] * (lad.depth + 1)] * 3
    d = 1.5 * lad.finest_scale
    sites = detect_from_table(monkeypatch, excess, lad, candidates=(d, -d))
    assert [s.kind for s in sites] == ["smooth", "smooth"]
    with pytest.raises(ConcentrationError, match=r"separated by 0 < 2 \* finest scale") as exc:
        detect_from_table(monkeypatch, excess, lad, candidates=(d, -d), chart_kind="nodal")
    # not a subsequence failure: the driver freezes only those at a node
    assert not isinstance(exc.value, SubsequenceError)


def reference_candidate_locations(mu_last, mu_limit, ladder):
    """``measure._candidate_locations`` as it was before local suppression:
    each accepted candidate suppresses by a distance test over every cell of
    the grid."""
    dK = ladder.finest_scale
    scan_r = mu_last.chart_radius
    n = int(min(1024, max(8, np.ceil(2.0 * scan_r / dK))))
    pitch = 2.0 * scan_r / n
    edges = np.linspace(-scan_r, scan_r, n + 1)

    def grid(mu):
        if len(mu) == 0:
            return np.zeros((n, n))
        h, _, _ = np.histogram2d(
            mu.points.real, mu.points.imag, bins=(edges, edges), weights=mu.weights
        )
        return h

    excess = grid(mu_last) - grid(mu_limit)
    block = np.zeros_like(excess)
    padded = np.pad(excess, 1)
    for di in range(3):
        for dj in range(3):
            block += padded[di : di + n, dj : dj + n]
    xc = 0.5 * (edges[:-1] + edges[1:])
    centers_re, centers_im = np.meshgrid(xc, xc, indexing="ij")
    out = []
    work = block.copy()
    for _ in range(64):
        idx = np.unravel_index(int(np.argmax(work)), work.shape)
        if work[idx] < 0.5 * ladder.eps_bar:
            break
        i0, j0 = idx
        wsum = 0.0
        csum = 0.0 + 0.0j
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                i, j = i0 + di, j0 + dj
                if 0 <= i < n and 0 <= j < n and excess[i, j] > 0:
                    wsum += excess[i, j]
                    csum += excess[i, j] * (centers_re[i, j] + 1j * centers_im[i, j])
        loc = csum / wsum if wsum > 0 else centers_re[idx] + 1j * centers_im[idx]
        out.append(complex(loc))
        dist = np.abs((centers_re + 1j * centers_im) - loc)
        work[dist < 2.0 * dK + 2.0 * pitch] = -np.inf
    return out


@st.composite
def cluster_measures(draw):
    """Clouds of a few to many atom clusters anywhere in the chart, edges and
    corners included, over a limit that holds some of them."""
    chart = draw(st.sampled_from([0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 80))
    # corner and edge cells, where the suppression box is clipped, in part
    centers = rng.uniform(-chart, chart, k) + 1j * rng.uniform(-chart, chart, k)
    if draw(st.booleans()):
        centers = chart * np.sign(centers.real) + 1j * centers.imag
    spread = rng.uniform(0.0, 0.05 * chart, k)
    counts = rng.integers(1, 40, k)
    pts = np.concatenate(
        [c + s * (rng.normal(size=m) + 1j * rng.normal(size=m))
         for c, s, m in zip(centers, spread, counts)]
    )
    pts = np.clip(pts.real, -chart, chart) + 1j * np.clip(pts.imag, -chart, chart)
    pts *= np.minimum(1.0, chart / np.maximum(np.abs(pts), 1e-300))
    wts = rng.uniform(0.0, 0.5, pts.size)
    mu_last = WeightedParticleMeasure(pts, wts, chart)
    held = rng.random(pts.size) < draw(st.floats(0.0, 1.0))
    mu_limit = WeightedParticleMeasure(pts[held], 0.5 * wts[held], chart)
    ladder = ScaleLadder(chart, draw(st.floats(0.05, 2.0)), draw(st.integers(6, 8)))
    return mu_last, mu_limit, ladder


@given(case=cluster_measures())
@settings(max_examples=80, deadline=None)
def test_candidate_scan_matches_full_grid_suppression(case):
    """Suppression inside a box about each accepted cell picks the same
    candidates, to the bit, as the distance test over the whole grid."""
    got = measure._candidate_locations(*case)
    want = reference_candidate_locations(*case)
    assert isinstance(got, list)
    assert np.array(got, dtype=complex).tobytes() == np.array(want, dtype=complex).tobytes()
