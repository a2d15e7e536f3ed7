"""Generated holomorphic families and their exactly known energies."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bubbletree import (
    FamilySpec,
    RationalMap,
    density_to_measure,
    diagnostics,
    energy_quadrature,
    is_regular_node,
    is_stable,
    make_family,
    quadrature,
)
from bubbletree.errors import FamilyError
from bubbletree.families import _BUILDERS, _MASS_FRAC, _horner, _quadrature_checked, _trim

FOUR_PI = 4.0 * math.pi


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
        _quadrature_checked(lambda z: np.full(z.shape, np.nan), 0j, 1.0, 1e-9)


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


def test_disk_energy_closed_form():
    k = 100.0
    m = RationalMap((k, 0.0), (1.0,))
    for r in (0.01, 0.1, 1.0):
        assert energy_quadrature(m, radius=r) == pytest.approx(
            fs_disk_mass(k, r), rel=1e-9
        )


def test_quadrature_refuses_unresolvable_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    m = RationalMap((1e4, 0.0), (1.0,))
    with pytest.raises(FamilyError, match="resolution insufficient"):
        _quadrature_checked(m.density, 0j, 1.0, 1e-12)


def test_density_to_measure_mass_and_granularity():
    k = 316.0
    m = RationalMap((k, 0.0), (1.0,))
    mu = density_to_measure(m, 1.0)
    assert mu.mass == pytest.approx(fs_disk_mass(k, 1.0), rel=1e-6)
    assert mu.weights.max() <= _MASS_FRAC * mu.mass * (1.0 + 1e-9)
    assert mu.chart_radius == 1.0


def test_bubble1_family_contents():
    spec = FamilySpec(kind="bubble1", schedule=(316.0, 3162.0))
    fam = make_family(spec)
    assert fam.kind == "bubble1"
    assert fam.members[0].rational.degree == 1
    assert [m.parameter for m in fam.members] == [316.0, 3162.0]
    for mem in fam.members:
        assert mem.rational is not None and mem.measure is not None
        assert mem.field is None
        assert mem.measure.mass == pytest.approx(
            fs_disk_mass(mem.parameter, 1.0), rel=1e-6
        )
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
    assert fam.limit_measure.mass == pytest.approx(2.0 * visible, rel=1e-6)
    assert fam.limit_measure is fam.limit_measure  # built once, on first read
    node_atoms = np.abs(fam.limit_measure.points) == 0.0
    assert fam.limit_measure.weights[node_atoms].sum() == pytest.approx(
        visible, rel=1e-6
    )
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
