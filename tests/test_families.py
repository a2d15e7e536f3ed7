"""Generated holomorphic families and their exactly known energies."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bubbletree import (
    FamilySpec,
    RationalMap,
    contour_energy,
    density_to_measure,
    diagnostics,
    driver,
    energy_quadrature,
    extract_bubble_tree,
    families,
    is_regular_node,
    is_stable,
    make_family,
    quadrature,
)
from bubbletree.errors import FamilyError
from bubbletree.families import _BUILDERS, _N_SPHERE, _horner, _quadrature_checked, _trim

FOUR_PI = 4.0 * math.pi
# the weight of one lattice atom: a lattice measure's disk mass misses the
# closed form by the lattice's miscount of the disk's image
ATOM = FOUR_PI / _N_SPHERE


def fs_disk_mass(k, r):
    u = (k * r) ** 2
    return FOUR_PI * u / (1.0 + u)


def test_rational_map_validation():
    with pytest.raises(FamilyError, match="share a root"):
        RationalMap((1.0, -1.0), (1.0, -1.0))
    with pytest.raises(FamilyError, match="share a root"):
        RationalMap((1.0, 0.0), (2.0, 0.0))
    with pytest.raises(FamilyError, match="vanishes identically"):
        RationalMap((1.0,), (0.0,))
    with pytest.raises(FamilyError, match="non-finite"):
        RationalMap((np.inf,), (1.0,))
    # a subnormal leading coefficient overflows np.roots' companion matrix
    with pytest.raises(FamilyError, match="ill-scaled"):
        RationalMap((1j, 0.0), (5e-324j, 1.0))


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan, True, "1.0"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda m, radius: energy_quadrature(m, radius=radius),
        lambda m, radius: density_to_measure(m, radius),
        lambda m, radius: contour_energy(m, radius),
    ],
    ids=["energy_quadrature", "density_to_measure", "contour_energy"],
)
def test_disk_radius_must_be_positive_and_finite(entry, radius):
    with pytest.raises(FamilyError, match="disk radius must be positive and finite"):
        entry(RationalMap((3.0, 0.0), (1.0,)), radius)


def test_rational_map_degree_and_density():
    m = RationalMap((1.0, 0.0, 1.0), (1.0, 0.0))  # z + 1/z
    assert m.degree == 2
    z = np.array([0.3 + 0.2j, 1.5 - 0.7j, -0.1 + 1.1j])
    expected = 4.0 * np.abs(m.derivative(z)) ** 2 / (1.0 + np.abs(m.value(z)) ** 2) ** 2
    assert np.allclose(m.density(z), expected, rtol=1e-12)


# coefficient parts: ordinary values and both signed zeros, so that a leading
# coefficient can keep a zero real or imaginary part after _trim
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_COEFFS = st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=6).map(
    lambda parts: _trim(np.array([complex(a, b) for a, b in parts]))
)
# signed zeros and real and imaginary axis points, where polyval's start
# 0 * z + c[0] shows in the sign of a zero part
_AXIS = np.array([complex(a, b) for a in (0.0, -0.0, 0.5, -2.0) for b in (0.0, -0.0, 0.5, -2.0)])


def _seeded_points(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=40) + 1j * rng.normal(size=40)


@given(c=_COEFFS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_horner_is_polyval_bit_for_bit(c, seed):
    z = np.concatenate([_seeded_points(seed), _AXIS])
    assert _horner(c, z).tobytes() == np.polyval(c, z).tobytes()


@given(num=_COEFFS, den=_COEFFS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_rational_map_evaluation_matches_polyval(num, den, seed):
    """density, value and derivative agree bit for bit with the same formulas
    over np.polyval."""
    try:
        m = RationalMap(num, den)
    except FamilyError:
        assume(False)
    z = _seeded_points(seed)
    p, q, w = (np.polyval(c, z) for c in (m.num, m.den, m._wronskian))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        density = 4.0 * np.abs(w) ** 2 / (np.abs(p) ** 2 + np.abs(q) ** 2) ** 2
        assert m.density(z).tobytes() == density.tobytes()
        assert m.value(z).tobytes() == (p / q).tobytes()
        assert m.derivative(z).tobytes() == (w / q**2).tobytes()


@given(num=_COEFFS, lead=st.tuples(_PARTS, _PARTS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_density_with_constant_denominator_is_bit_identical(num, lead, seed):
    """A constant denominator (and, for num of degree <= 1, a constant
    Wronskian) enters the density as a scalar |c|^2; the density keeps the
    bits of the full-array expression, at signed zeros and axis points too."""
    try:
        m = RationalMap(num, (complex(*lead),))
    except FamilyError:
        assume(False)
    z = np.concatenate([_seeded_points(seed), _AXIS])
    p, q, w = (_horner(c, z) for c in (m.num, m.den, m._wronskian))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        density = 4.0 * np.abs(w) ** 2 / (np.abs(p) ** 2 + np.abs(q) ** 2) ** 2
        got = m.density(z)
    assert got.shape == z.shape
    assert got.tobytes() == density.tobytes()


def test_quadrature_refuses_a_nan_density():
    # NaN fails the error-versus-tolerance comparison, so it must be refused apart
    with pytest.raises(FamilyError, match="non-finite"):
        _quadrature_checked(lambda z: np.full(z.shape, np.nan), 0j, 1.0)


def test_chart_reversed_represents_the_same_sphere_map():
    m = RationalMap((2.0, 1.0, 0.5), (1.0, -0.25))
    rev = m.chart_reversed()
    z = np.array([0.7 + 0.1j, 1.3 - 0.4j, 0.2 + 0.9j])
    assert np.allclose(rev.value(1.0 / z), m.value(z), rtol=1e-12)
    # the reversal is an involution up to coefficient scaling
    assert np.allclose(
        rev.chart_reversed().value(z), m.value(z), rtol=1e-12
    )


def test_full_sphere_energy_is_area_times_degree():
    for d in (1, 2, 3):
        coeffs = np.zeros(d + 1)
        coeffs[0] = 1.0
        m = RationalMap(coeffs, (1.0,))
        assert energy_quadrature(m) == pytest.approx(FOUR_PI * d, rel=1e-9)
    # k^4 z^2 / (k^3 z + 1) at k where the rules see both of its bubbles
    for k in (10.0, 30.0):
        m = RationalMap((k**4, 0.0, 0.0), (k**3, 1.0))
        assert energy_quadrature(m) == pytest.approx(2.0 * FOUR_PI, rel=1e-9)


@pytest.mark.parametrize("k", [316.0, 3162.0, 1e4])
def test_sphere_energy_refuses_a_missed_bubble(k):
    """k^4 z^2 / (k^3 z + 1) has degree 2, so energy 8 pi; its second bubble,
    at scale k^-5 about the pole -1/k^3, is too small for every sampled rule,
    and the quadrature reads 4 pi with its error estimates resolved."""
    m = RationalMap((k**4, 0.0, 0.0), (k**3, 1.0))
    with pytest.raises(FamilyError, match="off 4 pi degree"):
        energy_quadrature(m)


def test_disk_energy_closed_form():
    k = 100.0
    m = RationalMap((k, 0.0), (1.0,))
    for r in (0.01, 0.1, 1.0):
        assert energy_quadrature(m, radius=r) == pytest.approx(
            fs_disk_mass(k, r), rel=1e-9
        )


@pytest.mark.parametrize("k", [316.0, 3162.0, 1e4])
def test_contour_sees_the_child_bubble_the_quadrature_misses(k):
    """k^4 z^2/(k^3 z + 1): degree 2, a bubble at scale 1/k about 0 and its
    child at scale k^-5 about the pole -1/k^3."""
    m = RationalMap((k**4, 0.0, 0.0), (k**3, 1.0))
    exact = 2.0 * FOUR_PI - FOUR_PI / (1.0 + k * k)
    assert contour_energy(m, 1.0) == pytest.approx(exact, rel=1e-12)


def test_contour_energy_of_the_smallest_plumbing_member():
    # x + t/x on |x| <= delta at t = 1e-9: the pole at 0 and the circle, where
    # the map is delta + t/delta, give 4 pi/(1 + delta^2) + 8 pi delta^2/(1 + delta^2)
    delta = 0.5
    exact = FOUR_PI / (1.0 + delta**2) + 2.0 * FOUR_PI * delta**2 / (1.0 + delta**2)
    assert exact == pytest.approx(15.0796447, abs=1e-7)
    m = RationalMap((1.0, 0.0, 1e-9), (1.0, 0.0))
    assert contour_energy(m, delta) == pytest.approx(exact, rel=1e-12)


def fs_offcentre_disk_mass(k, center, r):
    """Energy of k z on the disk B(center, r): its image is the disk
    B(k center, k r), whose stereographic image is a cap of angular radius
    theta = arctan(k|center| + k r) - arctan(k|center| - k r)."""
    theta = math.atan(k * abs(center) + k * r) - math.atan(k * abs(center) - k * r)
    return FOUR_PI * math.sin(theta / 2.0) ** 2


@pytest.mark.parametrize(
    "k, center, r",
    [
        (1e4, 3e-5 + 1e-5j, 1.0 / 64.0),
        (100.0, 0.3 - 0.2j, 0.1),
        (100.0, 0.05j, 0.2),
        (2.0, -1.5, 1.0),
        # the bubble at 0 sits 0.01 r and 0.002 r outside the circle, so the
        # sums settle only past 512 nodes
        (100.0, 1.01, 1.0),
        (1e3, -1.002, 1.0),
    ],
)
def test_contour_energy_on_offcentre_disks(k, center, r):
    m = RationalMap((k, 0.0), (1.0,))
    assert contour_energy(m, r, center) == pytest.approx(
        fs_offcentre_disk_mass(k, center, r), rel=1e-12
    )


def test_contour_matches_the_quadrature_on_the_shipped_driver_caps(
    bubble1_family, bubble2_family, monkeypatch
):
    caps = []  # (map, radius, center) of every cap the driver takes

    def spy(rmap, radius, center):
        caps.append((rmap, radius, center))
        return contour_energy(rmap, radius, center)

    monkeypatch.setattr(driver, "contour_energy", spy)
    for fam in (bubble1_family, bubble2_family):
        extract_bubble_tree(fam)
    assert len(caps) == 3
    for rmap, radius, center in caps:
        assert contour_energy(rmap, radius, center) == pytest.approx(
            energy_quadrature(rmap, radius=radius, center=center), rel=1e-13
        )
    # bubble1's cap is k z on an off-centre disk, whose energy is closed form
    rmap, radius, center = caps[0]
    assert contour_energy(rmap, radius, center) == pytest.approx(
        fs_offcentre_disk_mass(rmap.num[0].real, center, radius), rel=1e-13
    )


_BAND = st.one_of(st.just(0.0), st.floats(0.01, 0.95), st.floats(1.05, 3.0))
_UNIT = st.floats(-1.0, 1.0)


@given(
    moduli=st.lists(_BAND, min_size=1, max_size=4),
    turn=st.floats(0.0, 2.0 * math.pi),
    num=st.lists(st.tuples(_UNIT, _UNIT), min_size=5, max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_contour_energies_of_the_two_charts_sum_to_the_degree(moduli, turn, num):
    """|z| <= 1 and, chart reversed, |w| <= 1 tile the sphere: the two contour
    energies sum to 4 pi degree.  Poles lie at least 0.05 from the unit circle
    on either side, spread at equal angles (clustered poles make Q's values in
    its coefficients lose digits near them)."""
    d = len(moduli)
    poles = np.array(moduli) * np.exp(1j * (turn + 2.0 * np.pi * np.arange(d) / d))
    try:
        m = RationalMap([complex(a, b) for a, b in num[: d + 1]], np.poly(poles))
        far = m.chart_reversed()
    except FamilyError:
        assume(False)
    assume(m.degree == d)
    total = contour_energy(m, 1.0) + contour_energy(far, 1.0)
    assert total == pytest.approx(FOUR_PI * d, rel=1e-12)


def test_contour_of_a_constant_map_is_zero():
    assert contour_energy(RationalMap((2.0,), (3.0,)), 1.0) == 0.0
    # the zero map over z: Q has a root inside, and still there is no energy
    assert contour_energy(RationalMap((0.0,), (1.0, 0.0)), 1.0) == 0.0


@pytest.mark.parametrize("center", [math.inf, complex(0.0, math.nan), complex(math.inf, 1.0)])
def test_contour_refuses_a_centre_that_is_not_finite(center):
    with pytest.raises(FamilyError, match="disk center must be finite"):
        contour_energy(RationalMap((3.0, 0.0), (1.0,)), 1.0, center)


@pytest.mark.parametrize(
    "den, radius, center",
    [
        ((1.0, -1.0), 1.0, 0j),  # a pole at a node
        ((1.0, -1.0 - 1e-9), 1.0, 0j),
        ((1.0, 1e-7 - 1.0), 1.0, 0j),
        ((1.0, 0.0, 1.0), 1.0, 0j),  # two poles, at +-i
        ((1.0, -0.5 - 1e-10 - 0.5j), 0.5, 0.5j),  # off-centre circle
    ],
)
def test_contour_refuses_a_pole_on_or_near_the_circle(den, radius, center):
    with pytest.raises(FamilyError, match=r"^a pole lies on or near the circle .* at 65536 nodes"):
        contour_energy(RationalMap((1.0,), den), radius, center)


def test_contour_refuses_sums_that_do_not_settle():
    # a bubble of scale 1e-9 centred 1e-7 outside the unit circle: narrower
    # than the spacing of 65,536 nodes, so the n- and 2n-node sums disagree
    m = RationalMap((1e9, -1e9 * (1.0 + 1e-7)), (1.0,))
    with pytest.raises(FamilyError, match=r"did not settle by 65536 nodes"):
        contour_energy(m, 1.0)


def test_quadrature_refuses_unresolvable_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    m = RationalMap((1e4, 0.0), (1.0,))
    with pytest.raises(FamilyError, match="resolution insufficient"):
        _quadrature_checked(m.density, 0j, 1.0)


def test_density_to_measure_mass_and_granularity():
    """k z sends the disk |z| <= r onto a polar cap of the sphere; the lattice
    heights split the sphere into equal-area bands, so the cap holds its
    closed-form mass to within one atom at every radius."""
    k = 316.0
    m = RationalMap((k, 0.0), (1.0,))
    mu = density_to_measure(m, 1.0)
    assert mu.chart_radius == 1.0
    assert np.all(mu.weights == ATOM)
    for r in (1.0 / k, 2.5 / k, 0.1, 1.0):
        ball = mu.weights[np.abs(mu.points) <= r].sum()
        assert abs(ball - fs_disk_mass(k, r)) <= ATOM, r


# the Fibonacci lattice on the unit sphere, stereographic from the north pole
_J = np.arange(_N_SPHERE)
_H = 1.0 - (2.0 * _J + 1.0) / _N_SPHERE
LATTICE = np.sqrt(1.0 - _H**2) / (1.0 - _H) * np.exp(2j * np.pi * _J / ((1.0 + 5**0.5) / 2.0) ** 2)


def _seeded_map(seed):
    """A seeded rational map of degree 0 to 4 with normal coefficients, and a
    radius (twice the Cauchy bound over every lattice polynomial P - y Q)
    that encloses every root, or None when P and Q share a root."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(0, 5))
    other = int(rng.integers(0, d + 1))
    n_num, n_den = (d, other) if rng.integers(2) else (other, d)
    num, den = (rng.normal(size=(n + 1, 2)) @ np.array([1.0, 1j]) for n in (n_num, n_den))
    try:
        m = RationalMap(num, den)
    except FamilyError:
        return None, 0.0
    if d == 0:
        return m, 1.0
    return m, _root_bound(m)


def _root_bound(m):
    """Twice the Cauchy bound over every lattice polynomial of m, a map of
    positive degree: a disk of this radius holds all N deg(m) atoms."""
    p, q = m._padded()
    c = p - LATTICE[:, None] * q
    return 2.0 * (1.0 + np.max(np.abs(c[:, 1:]) / np.abs(c[:, :1])))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_density_to_measure_atoms_are_lattice_preimages(seed):
    """Over a disk holding every root, a degree-d map has exactly N d atoms,
    each of weight 4 pi / N, listed lattice point by lattice point, and each
    solves P(z) = y_j Q(z) to a small relative residual."""
    m, radius = _seeded_map(seed)
    assume(m is not None)
    d = m.degree
    mu = density_to_measure(m, radius)
    assert len(mu) == _N_SPHERE * d
    assert np.all(mu.weights == ATOM)
    if d == 0:
        return
    z = mu.points
    y = np.repeat(LATTICE, d)
    p, q = np.polyval(m.num, z), np.polyval(m.den, z)
    scale = np.polyval(np.abs(m.num), np.abs(z)) + np.abs(y) * np.polyval(np.abs(m.den), np.abs(z))
    assert np.max(np.abs(p - y * q) / scale) <= 1e-10


def test_density_to_measure_refuses_a_lattice_point_at_infinity():
    # (y z + 1) / z takes the lattice value y at z = infinity, so P - y Q
    # loses its leading coefficient: it has no monic form, hence neither the
    # closed form of degree 1 and 2 nor a companion matrix
    y = families._sphere_lattice()[7]
    with pytest.raises(FamilyError, match="value at z = infinity"):
        density_to_measure(RationalMap((y, 1.0), (1.0, 0.0)), 1.0)


def reference_density_to_measure(m, radius):
    """Atoms and weights of ``density_to_measure`` with the coefficients of
    P - y_j Q held lattice point by lattice point, an (N, d + 1) array: the
    layout before the coefficient rows, kept as the reference for their bits."""
    d = m.degree
    if d == 0:
        return np.zeros(0, np.complex128), np.zeros(0)
    num, den = m._padded()
    coeffs = num - families._sphere_lattice()[:, None] * den
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = coeffs[:, 1:] / coeffs[:, :1]
    if not np.all(np.isfinite(monic)):
        raise FamilyError("a sphere lattice point is the map's value at z = infinity")
    if d == 1:
        roots = -monic[:, 0]
    elif d == 2:
        h, c = 0.5 * monic[:, 0], monic[:, 1]
        g = np.ldexp(1.0, np.frexp(np.maximum(np.abs(h), np.sqrt(np.abs(c))))[1] - 1)
        u = h / g
        r = np.sqrt(u * u - c / g / g)
        big = -h - g * np.where((u.conj() * r).real < 0.0, -r, r)
        small = np.divide(c, big, out=np.zeros_like(c), where=big != 0.0)
        roots = np.stack([big, small], axis=1).ravel()
    else:
        companion = np.zeros((_N_SPHERE, d, d), np.complex128)
        companion[:, 0, :] = -monic
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        roots = np.linalg.eigvals(companion).ravel()
    inside = roots[np.abs(roots) <= radius]
    return inside, np.full(inside.size, 4.0 * np.pi / _N_SPHERE)


def _assert_rows_match_reference(m, radius):
    """density_to_measure and its row-major reference give the same atom and
    weight bytes, or refuse alike."""
    with np.errstate(all="ignore"):
        try:
            want = reference_density_to_measure(m, radius)
        except FamilyError as exc:
            with pytest.raises(FamilyError) as got:
                density_to_measure(m, radius)
            assert str(got.value) == str(exc)
            return
        mu = density_to_measure(m, radius)
    assert mu.points.tobytes() == want[0].tobytes()
    assert mu.weights.tobytes() == want[1].tobytes()
    assert mu.moduli.tobytes() == np.abs(want[0]).tobytes()


# coefficient lists of at most three entries: maps of degree 0 to 2
_LOW_COEFFS = st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=3).map(
    lambda parts: _trim(np.array([complex(a, b) for a, b in parts]))
)


@given(num=_LOW_COEFFS, den=_LOW_COEFFS, radius=st.sampled_from([0.01, 1.0, 30.0]))
@settings(max_examples=80, deadline=None)
def test_coefficient_rows_match_the_row_major_reference(num, den, radius):
    """Maps of degree 1 and 2, denominators of lower degree and signed-zero
    coefficient parts included: the same atoms, bit for bit."""
    try:
        m = RationalMap(num, den)
    except FamilyError:
        assume(False)
    assume(m.degree >= 1)
    _assert_rows_match_reference(m, radius)


@pytest.mark.parametrize(
    "num, den",
    [
        # a lattice point is the value at infinity: both refuse
        ((complex(families._sphere_lattice()[7]), 1.0), (1.0, 0.0)),
        ((1.0, complex(-0.0, 0.5), 0.0, -2.0), (complex(2.0, -0.0), 1.0)),
        ((complex(0.5, -0.0), 0.0, 1.0, -0.0, -1.0), (1.0, 0.0, 3.0j)),
    ],
    ids=["infinity", "degree-3", "degree-4"],
)
def test_eigensolved_rows_match_the_row_major_reference(num, den):
    _assert_rows_match_reference(RationalMap(num, den), 2.0)


def _companion_roots(m):
    """Every root of P - y_j Q, one row per point of the package's lattice, by
    the companion-matrix eigensolve: the reference for the closed forms."""
    p, q = m._padded()
    c = p - families._sphere_lattice()[:, None] * q
    d = m.degree
    companion = np.zeros((_N_SPHERE, d, d), np.complex128)
    companion[:, 0, :] = -c[:, 1:] / c[:, :1]
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return np.linalg.eigvals(companion)


def _assert_closed_form_matches_eigensolve(m, inside, radius):
    """All roots of m agree with the reference, bit for bit at degree 1 and,
    at degree 2, as an unordered pair per lattice point within 1e-13 of the
    pair's larger modulus; ``inside``, the atoms of m's measure on
    |z| <= radius, are as many as the reference puts there."""
    ref = _companion_roots(m)
    got = density_to_measure(m, _root_bound(m)).points.reshape(ref.shape)
    assert len(inside) == np.count_nonzero(np.abs(ref) <= radius)
    if m.degree == 1:
        assert np.array_equal(got.view(np.float64), ref.view(np.float64))
        assert np.array_equal(inside, ref[np.abs(ref) <= radius])
    else:
        assert m.degree == 2
        straight = np.abs(got - ref).max(axis=1)
        swapped = np.abs(got - ref[:, ::-1]).max(axis=1)
        assert np.max(np.minimum(straight, swapped) / np.abs(ref).max(axis=1)) <= 1e-13


def test_closed_form_roots_match_the_companion_eigensolve():
    """Seeded maps of degree 1 and 2, every member of the shipped bubble
    schedules, and the plumbing limit's map z on |z| <= delta."""
    seeded = [m for m, _ in map(_seeded_map, range(40)) if m is not None and m.degree in (1, 2)]
    assert {m.degree for m in seeded} == {1, 2}
    for m in seeded:
        _assert_closed_form_matches_eigensolve(m, density_to_measure(m, 1.0).points, 1.0)
    for kind in ("bubble1", "bubble2"):
        fam = make_family(FamilySpec(kind=kind, schedule=(316.0, 3162.0, 10000.0)))
        for mem in fam.members:
            _assert_closed_form_matches_eigensolve(mem.rational, mem.measure.points, 1.0)
    fam = make_family(FamilySpec(kind="plumbing", schedule=(1e-3,), delta=0.5))
    # the limit lists the visible atoms, then the far side's atom at the node
    visible = fam.limit_measure.points[:-1]
    _assert_closed_form_matches_eigensolve(RationalMap((1.0, 0.0), (1.0,)), visible, 0.5)


def test_closed_form_quadratics_at_degenerate_lattice_points():
    """A lattice point that is a critical value gives a double root, and one
    that is the value at 0 a root at exactly 0; neither raises a floating
    point error nor leaves a NaN, and neither does a linear coefficient whose
    square overflows.  Roots eight orders apart keep their digits: at every
    lattice point their sum and product are -b and c to 1e-14."""
    lattice = families._sphere_lattice()
    y = lattice[7]
    b = 0.3 - 0.7j
    far = -1e8 + 2e7j
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        double = density_to_measure(RationalMap((1.0, 0.0, y), (1.0,)), 1e3)
        simple = density_to_measure(RationalMap((1.0, b, y), (1.0,)), 1e3)
        split = density_to_measure(RationalMap((1.0, far, 0.0), (1.0,)), 1e9)
        huge = density_to_measure(RationalMap((1e-200, 1.0, 0.0), (1.0,)), 1e201)
    for mu in (double, simple, split, huge):
        assert len(mu) == 2 * _N_SPHERE and np.all(np.isfinite(mu.points))
    assert np.all(double.points.reshape(-1, 2)[7] == 0.0)
    assert sorted(simple.points.reshape(-1, 2)[7].tolist(), key=abs) == [0.0, -b]
    pairs = split.points.reshape(-1, 2)
    assert np.max(np.abs(pairs.sum(axis=1) + far)) <= 1e-14 * abs(far)
    assert np.max(np.abs(pairs.prod(axis=1) + lattice) / np.abs(lattice)) <= 1e-14


class _Eigensolve(Exception):
    pass


def test_shipped_rational_families_never_reach_the_eigensolve(monkeypatch):
    """bubble1, bubble2 and the plumbing limit are of degree 1 or 2; from
    degree 3 on the companion eigensolve still runs.  The lattice is built
    once and cannot be written."""
    cubic = RationalMap((1.0, 0.0, 0.0, 0.5), (1.0,))

    def refuse(a):
        raise _Eigensolve

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    for kind in ("bubble1", "bubble2"):
        assert len(make_family(FamilySpec(kind=kind, **_ONE_MEMBER[kind])).members[0].measure)
    assert len(make_family(FamilySpec(kind="plumbing", **_ONE_MEMBER["plumbing"])).limit_measure)
    with pytest.raises(_Eigensolve):
        density_to_measure(cubic, 1.0)
    lattice = families._sphere_lattice()
    assert lattice is families._sphere_lattice()
    with pytest.raises(ValueError):
        lattice[0] = 0.0


def test_lattice_measures_of_one_degree_share_one_read_only_weight_array(
    bubble1_family, bubble2_family
):
    """No lattice measure owns its weights: each is a slice of one array of
    4 pi / N per degree, shared, read-only, by every member of that degree
    and by a map of that degree with roots outside the disk."""
    part = density_to_measure(RationalMap((1.0, 0.0), (1.0,)), 1.0)  # |z| > 1 left out
    assert 0 < len(part) < _N_SPHERE
    degree1 = [m.measure.weights for m in bubble1_family.members] + [part.weights]
    degree2 = [m.measure.weights for m in bubble2_family.members]
    for ws in (degree1, degree2):
        assert len(ws) >= 2
        for w in ws:
            assert not w.flags.writeable and not w.flags.owndata
            assert np.all(w == ATOM)
            assert np.shares_memory(w, ws[0])
    assert not np.shares_memory(degree1[0], degree2[0])


@pytest.mark.parametrize(
    "num, bound", [((1e3, 0.0), 62.0), ((1e4, 0.0, -2.5e3), 100.0)], ids=["degree1", "degree2"]
)
def test_density_to_measure_peak_memory_per_atom(num, bound):
    """Traced peak bytes per atom of a lattice measure whose roots all lie in
    the disk, as in the shipped bubble families.  With a weight array of its
    own and moduli taken again by the measure, the peaks were 64.1 (degree 1)
    and 116.1 (degree 2) bytes per atom; built from the builder's arrays they
    are 58.1 and 94.1, so adding back either 8-byte-per-atom array fails.
    What the measure keeps is its points and moduli, 24 bytes per atom: no
    weights of its own, and at degree 1 not the coefficient buffer its roots
    were a row of."""
    m = RationalMap(num, (1.0,))
    density_to_measure(m, 1.0)  # builds the lattice and the weights of this degree
    tracemalloc.start()
    try:
        mu = density_to_measure(m, 1.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mu) == _N_SPHERE * m.degree
    assert peak / len(mu) < bound
    assert kept / len(mu) < 25.0


def test_bubble1_family_contents():
    spec = FamilySpec(kind="bubble1", schedule=(316.0, 3162.0))
    fam = make_family(spec)
    assert fam.members[0].rational.degree == 1
    assert [m.parameter for m in fam.members] == [316.0, 3162.0]
    for mem in fam.members:
        assert mem.rational is not None and mem.measure is not None
        assert mem.field is None
        assert mem.measure.mass == pytest.approx(fs_disk_mass(mem.parameter, 1.0), abs=ATOM)
    assert fam.limit_measure is not None and fam.limit_measure.mass == 0.0


def test_bubble2_degree_two_and_separation():
    spec = FamilySpec(kind="bubble2", schedule=(316.0,), separation=0.5)
    fam = make_family(spec)
    assert fam.members[0].rational.degree == 2
    assert np.sort(np.roots(fam.members[0].rational.num).real) == pytest.approx([-0.5, 0.5])
    # k(z^2 - a^2): full sphere energy is 8 pi regardless of k
    assert energy_quadrature(fam.members[0].rational) == pytest.approx(
        2.0 * FOUR_PI, rel=1e-9
    )


def test_plumbing_family_limit_mass_identity():
    spec = FamilySpec(kind="plumbing", schedule=(1e-3, 1e-5), delta=0.5)
    fam = make_family(spec)
    # limit measure = visible disk energy of the identity chart map plus an
    # equal atom at the node for the far side
    visible = fs_disk_mass(1.0, spec.delta)
    assert fam.limit_measure.mass == pytest.approx(2.0 * visible, abs=2.0 * ATOM)
    assert fam.limit_measure is fam.limit_measure  # built once, with the members
    node_atoms = np.abs(fam.limit_measure.points) == 0.0
    assert fam.limit_measure.weights[node_atoms].sum() == pytest.approx(visible, abs=ATOM)
    for mem in fam.members:
        assert mem.field is not None
        assert mem.field.pinch == complex(mem.parameter)
        assert mem.field.half_length == pytest.approx(
            math.log(spec.delta / math.sqrt(mem.parameter))
        )


def test_torus_family_linear_diagnostics():
    spec = FamilySpec(kind="torus_linear", schedule=(1e-2, 1e-4), slopes=(2.0, 1.0))
    fam = make_family(spec)
    assert len(fam.limit_measure) == 0 and fam.limit_measure.mass == 0.0
    for mem in fam.members:
        d = diagnostics(mem.field)
        T = mem.field.half_length
        assert d.alpha == pytest.approx(3.0 * math.pi, abs=1e-9)
        assert d.energy == pytest.approx(2.0 * math.pi * T * 5.0, rel=1e-12)


# a one-member spec of every kind; a new kind needs an entry here
_ONE_MEMBER = {
    "bubble1": {"schedule": (316.0,)},
    "bubble2": {"schedule": (316.0,)},
    "plumbing": {"schedule": (1e-3,)},
    "plumbing_bubble": {"schedule": (1e-6,)},
    "torus_linear": {"schedule": (1e-2,), "slopes": (2.0, 1.0)},
}


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_family_carries_its_stable_base_curve(kind):
    fam = make_family(FamilySpec(kind=kind, **_ONE_MEMBER[kind]))
    assert is_stable(fam.curve).stable
    if fam.members[0].field is not None:
        # edge 0 is the node the fields sample; only the torus cycle is not a bridge
        expected = "not_regular" if kind == "torus_linear" else "regular"
        assert is_regular_node(fam.curve, 0).status == expected


def test_family_regeneration_is_bit_identical():
    spec = FamilySpec(kind="bubble1", schedule=(316.0,))
    a, b = make_family(spec), make_family(spec)
    assert np.array_equal(a.members[0].measure.points, b.members[0].measure.points)
    assert np.array_equal(a.members[0].measure.weights, b.members[0].measure.weights)
    spec_t = FamilySpec(kind="torus_linear", schedule=(1e-2,), slopes=(2.0, 1.0))
    fa, fb = make_family(spec_t), make_family(spec_t)
    assert np.array_equal(fa.members[0].field.points, fb.members[0].field.points)


def test_spec_validation():
    with pytest.raises(FamilyError, match="unknown family kind"):
        FamilySpec(kind="mystery", schedule=(1.0,))
    with pytest.raises(FamilyError, match="empty parameter schedule"):
        FamilySpec(kind="bubble1", schedule=())
    with pytest.raises(FamilyError, match="positive and finite"):
        FamilySpec(kind="bubble1", schedule=(1.0, -2.0))
    with pytest.raises(FamilyError, match="separation"):
        FamilySpec(kind="bubble2", schedule=(10.0,), separation=1.5)
    with pytest.raises(FamilyError, match="winding"):
        FamilySpec(kind="torus_linear", schedule=(1e-2,), slopes=(1.0, 0.5))
    with pytest.raises(FamilyError, match="unknown family options"):
        FamilySpec.from_dict({"kind": "bubble1", "schedule": [1.0], "color": "red"})
    with pytest.raises(FamilyError, match="bad family spec"):
        FamilySpec.from_dict({"schedule": [1.0]})


@pytest.mark.parametrize(
    "options, message",
    [
        ({"schedule": [True, 2.0]}, "schedule entry must be a finite number"),
        ({"schedule": ["316", "3162"]}, "schedule entry must be a finite number"),
        ({"slopes": [2, 1, 5]}, "slopes must be a pair"),
        ({"slopes": [2.0, math.nan]}, "slope must be a finite number"),
        ({"delta": True}, "delta must be a finite number"),
        ({"delta": math.inf}, "delta must be a finite number"),
        ({"separation": "0.5"}, "separation must be a finite number"),
    ],
    ids=[
        "bool_schedule",
        "string_schedule",
        "three_slopes",
        "non_finite_slope",
        "bool_delta",
        "non_finite_delta",
        "string_separation",
    ],
)
def test_spec_refuses_values_that_are_not_finite_numbers(options, message):
    with pytest.raises(FamilyError, match=message):
        FamilySpec.from_dict({"kind": "torus_linear", "schedule": [1e-2], **options})


def test_spec_keeps_integers_valid():
    spec = FamilySpec.from_dict(
        {"kind": "torus_linear", "schedule": [1], "delta": 2, "slopes": [2, 1]}
    )
    assert (spec.schedule, spec.delta, spec.slopes) == ((1.0,), 2, (2.0, 1.0))


def test_plumbing_schedule_constraints():
    # the spec itself refuses a schedule no neck builder can sample
    with pytest.raises(FamilyError, match="does not exceed sqrt"):
        FamilySpec(kind="plumbing", schedule=(0.5,), delta=0.5)
    with pytest.raises(FamilyError, match="decrease strictly"):
        FamilySpec(kind="plumbing", schedule=(1e-5, 1e-3), delta=0.5)
    with pytest.raises(FamilyError, match="sqrt"):
        FamilySpec(kind="torus_linear", schedule=(0.3,), delta=0.5, slopes=(1.0, 0.0))


def test_plumbing_pinch_is_refused_at_load_exactly_when_its_map_is():
    # x + t/x: its zeros +-i sqrt(t) sit within 1e-12 of the pole from t = 1e-24 on
    with pytest.raises(FamilyError, match=r"pinch t = 1e-24: .* share a root"):
        FamilySpec(kind="plumbing", schedule=(1e-3, 1e-24), delta=0.5)
    spec = FamilySpec(kind="plumbing", schedule=(1e-3, 1e-22), delta=0.5)
    assert [m.rational.num.size for m in make_family(spec).members] == [3, 3]


@pytest.mark.parametrize("kind", ["plumbing", "plumbing_bubble", "torus_linear"])
def test_neck_pinch_bound_is_one_rule_for_every_neck_kind(kind):
    # sqrt(0.01) = 0.1 exactly although 0.01 < 0.1**2 = 0.010000000000000002
    message = r"delta 0.1 does not exceed sqrt\(t\) for the pinch t = 0.01"
    with pytest.raises(FamilyError, match=message):
        FamilySpec(kind=kind, schedule=(0.01,), delta=0.1)
    assert FamilySpec(kind=kind, schedule=(0.0099,), delta=0.1).schedule == (0.0099,)


def test_only_plumbing_kinds_need_decreasing_pinches():
    # a torus schedule is sampled member by member, in any order
    assert FamilySpec(kind="torus_linear", schedule=(1e-4, 1e-2)).schedule == (1e-4, 1e-2)
    assert FamilySpec(kind="bubble1", schedule=(1e-4, 1e-2)).schedule == (1e-4, 1e-2)
    with pytest.raises(FamilyError, match="decrease strictly"):
        FamilySpec(kind="plumbing_bubble", schedule=(1e-9, 1e-9))


def _first_member_bytes(spec):
    m = make_family(spec).members[0]
    return (m.field.points if m.measure is None else m.measure.points).tobytes()


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
@pytest.mark.parametrize(
    "option, value", [("delta", 0.25), ("separation", 0.25), ("slopes", (3.0, 2.0))]
)
def test_spec_loads_exactly_the_options_its_kind_reads(kind, option, value):
    """An option loads when the kind's builder reads it (a new value moves the
    members) and is refused at load when it does not."""
    base = FamilySpec(kind=kind, **_ONE_MEMBER[kind])
    reads = _first_member_bytes(dataclasses.replace(base, **{option: value})) != (
        _first_member_bytes(base)
    )
    data = {"kind": kind, **_ONE_MEMBER[kind], option: value}
    if reads:
        assert getattr(FamilySpec.from_dict(data), option) == value
    else:
        unread = rf"kind '{kind}' does not read options \['{option}'\]"
        with pytest.raises(FamilyError, match=unread):
            FamilySpec.from_dict(data)
    assert reads == (option in families._OPTIONS[kind])
