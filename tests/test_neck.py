"""Cylinder diagnostics: energy split, diameter bound, zero-neck, Pohozaev."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bubbletree import (
    CylinderField,
    FamilySpec,
    FlatTorusTarget,
    NeckDiagnostics,
    SphereTarget,
    ZeroNeckRow,
    build_nodal_pushforward,
    collar_diagnostics,
    cylinder_field_from_sphere_chart,
    diagnostics,
    make_family,
    profile_to_csv,
    zero_neck_test,
)
from bubbletree.errors import NeckError
from bubbletree.families import _N_T, _N_THETA, _plumbing_transition
from bubbletree.neck import _collar_points, _diameter_bracket, _trapezoid, collar_half_length
from bubbletree.neck import collar_rows

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def linear_torus_field(a, b, pinch, delta, n_t=128, n_theta=64):
    """(t, theta) -> (a t, b theta) into the square flat torus, on the
    delta-collar of ``pinch``."""
    T = collar_half_length(delta, pinch)
    t = np.linspace(-T, T, n_t + 1)
    th = np.arange(n_theta) * (TWO_PI / n_theta)
    u = a * t[:, None] + 0.0 * th[None, :]
    v = b * th[None, :] + 0.0 * t[:, None]
    return CylinderField(
        points=FlatTorusTarget.point(u, v),
        ft_sq=np.full(u.shape, a * a),
        fth_sq=np.full(u.shape, b * b),
        target=FlatTorusTarget,
        pinch=pinch,
        delta=delta,
    )


def identity_sphere_neck(pinch, delta, n_t=256, n_theta=64):
    return cylinder_field_from_sphere_chart(
        lambda x: x, lambda x: np.ones_like(x), pinch, delta, n_t, n_theta
    )


def t_nodes(field):
    """The field's uniform t grid over [-T, T], both endpoints included."""
    return np.linspace(-field.half_length, field.half_length, field.n_t + 1)


@dataclasses.dataclass(frozen=True)
class Cut:
    """Rows of a field cut out as a cylinder of half-length T = half_length.

    A ``CylinderField`` derives its half-length from its collar; rows snapped
    to the grid need not be a collar to the last bit, so a cut sub-field is
    this record, and ``reference_diagnostics`` reads it."""

    points: np.ndarray
    ft_sq: np.ndarray
    fth_sq: np.ndarray
    target: object
    half_length: float

    @property
    def n_t(self):
        return self.points.shape[0] - 1

    @property
    def n_theta(self):
        return self.points.shape[1]


def cut(field, i0, i1, half_length):
    rows = slice(i0, i1 + 1)
    return Cut(field.points[rows], field.ft_sq[rows], field.fth_sq[rows], field.target, half_length)


def restrict(field, half_length):
    """Sub-cylinder |t| <= half_length, snapped inward to grid nodes: the
    restriction that ``collar`` must cut about the node."""
    t = t_nodes(field)
    idx = np.nonzero(np.abs(t) <= half_length * (1.0 + 1e-12))[0]
    return cut(field, idx[0], idx[-1], float(t[idx[-1]]))


def collar(field, delta):
    """Sub-cylinder of ``field.collar_window(delta)``: the cut collar that
    the row windows agree with bit for bit."""
    return cut(field, *field.collar_window(delta))


def spherical_cap_area(r):
    return 4.0 * math.pi * r * r / (1.0 + r * r)


def test_cylinder_field_validation():
    f = linear_torus_field(1.0, 1.0, 1.0, math.exp(2.0))
    # the collar half-length log(delta / sqrt|pinch|) must be positive and finite
    for pinch, delta in ((1.0, 1.0), (1.0, 0.5), (1.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(NeckError, match="does not exceed"):
            CylinderField(f.points, f.ft_sq, f.fth_sq, f.target, pinch, delta)
    with pytest.raises(NeckError, match="unbounded"):
        CylinderField(f.points, f.ft_sq, f.fth_sq, f.target, 1.0, math.inf)
    with pytest.raises(NeckError, match="target manifold"):
        CylinderField(1.5 * f.points, f.ft_sq, f.fth_sq, f.target, f.pinch, f.delta)
    with pytest.raises(NeckError, match="dimension"):
        CylinderField(f.points, f.ft_sq, f.fth_sq, SphereTarget, f.pinch, f.delta)
    with pytest.raises(NeckError, match="degenerate grid"):
        CylinderField(f.points[:2], f.ft_sq[:2], f.fth_sq[:2], f.target, f.pinch, f.delta)
    # non-finite inputs fail every comparison, so each needs its own refusal
    nan_point = f.points.copy()
    nan_point[3, 5, 0] = math.nan
    with pytest.raises(NeckError, match="non-finite"):
        CylinderField(nan_point, f.ft_sq, f.fth_sq, f.target, f.pinch, f.delta)


def with_entry(s, value):
    """A copy of s with one entry set to value."""
    s = s.copy()
    s.flat[7] = value
    return s


@pytest.mark.parametrize("which", ["ft_sq", "fth_sq"])
@pytest.mark.parametrize(
    "spoil, match",
    [
        (lambda s: s[:, :-1], "not on the grid"),
        (lambda s: s[:-1], "not on the grid"),
        (lambda s: s[..., None], "not on the grid"),
        (lambda s: with_entry(s, -1e-300), "negative"),
        (lambda s: with_entry(s, math.nan), "non-finite"),
        (lambda s: with_entry(s, math.inf), "non-finite"),
    ],
    ids=["short_theta", "short_t", "vector", "negative", "nan", "inf"],
)
def test_squared_speeds_are_refused_unless_finite_nonnegative_and_on_the_grid(
    which, spoil, match
):
    f = identity_sphere_neck(1e-6, 0.5, n_t=16, n_theta=8)
    with pytest.raises(NeckError, match=match):
        dataclasses.replace(f, **{which: spoil(getattr(f, which))})


@st.composite
def neck_fields(draw):
    """Sphere necks of the identity and of x + t/x, and linear torus necks, on
    the 1/2-collar of a pinch, at t and theta steps of at most 0.2."""
    kind = draw(st.sampled_from(["identity", "plumbing", "torus"]))
    pinch = 10.0 ** draw(st.floats(-12.0, -2.0))
    n_t, n_theta = draw(st.integers(128, 256)), draw(st.integers(32, 96))
    if kind == "identity":
        return identity_sphere_neck(pinch, 0.5, n_t, n_theta)
    if kind == "plumbing":
        return cylinder_field_from_sphere_chart(
            lambda x: x + pinch / x, lambda x: 1.0 - pinch / (x * x), pinch, 0.5, n_t, n_theta
        )
    a, b = draw(st.floats(-3.0, 3.0)), draw(st.integers(-3, 3))
    return linear_torus_field(a, b, pinch, 0.5, n_t, n_theta)


@given(field=neck_fields())
@settings(max_examples=60, deadline=None)
def test_speeds_match_finite_differences_of_the_points(field):
    """sqrt(ft_sq) and sqrt(fth_sq) are the lengths of the second-order central
    differences of the points (interior t nodes, wrapping around in theta) up
    to their error h^2 |third derivative| / 6.  A curve of speed s on a unit
    circle has third derivative s^3, and these necks stay below (1 + s)^3 at
    their largest speed s."""
    s = float(np.sqrt(max(field.ft_sq.max(), field.fth_sq.max())))
    h_t = 2.0 * field.half_length / field.n_t
    d_t = (field.points[2:] - field.points[:-2]) / (2.0 * h_t)
    err_t = np.abs(np.linalg.norm(d_t, axis=-1) - np.sqrt(field.ft_sq[1:-1]))
    h_th = TWO_PI / field.n_theta
    d_th = (np.roll(field.points, -1, axis=1) - np.roll(field.points, 1, axis=1)) / (2.0 * h_th)
    err_th = np.abs(np.linalg.norm(d_th, axis=-1) - np.sqrt(field.fth_sq))
    assert err_t.max() <= h_t**2 * (1.0 + s) ** 3 / 6.0
    assert err_th.max() <= h_th**2 * (1.0 + s) ** 3 / 6.0


def test_torus_closed_forms():
    # (t, theta) -> (a t, b theta): alpha = pi (a^2 - b^2), Theta = 2 pi b^2,
    # E = 2 pi T (a^2 + b^2); the trapezoid rule is exact for constants
    T = 3.0
    for a, b in ((2.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        d = diagnostics(linear_torus_field(a, b, 1.0, math.exp(T)))
        assert d.alpha == pytest.approx(math.pi * (a * a - b * b), abs=1e-10)
        assert d.alpha_deviation <= 1e-10
        assert d.energy == pytest.approx(TWO_PI * T * (a * a + b * b), rel=1e-12)
        assert np.allclose(d.theta_profile, TWO_PI * b * b, atol=1e-10)
        assert d.theta_integral == pytest.approx(2.0 * T * TWO_PI * b * b, rel=1e-12)
        # split identity re-assembled from the reported pieces
        assert d.energy == pytest.approx(2.0 * T * d.alpha + d.theta_integral)
    # the conformal slope pair has zero alpha; the (2,1) pair has
    # energy / (2 T alpha) = (a^2+b^2)/(a^2-b^2) = 5/3
    d = diagnostics(linear_torus_field(2.0, 1.0, 1.0, math.exp(T)))
    assert d.energy / (2.0 * T * d.alpha) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_sphere_identity_neck_matches_cap_areas():
    pinch, delta = 1e-6, 0.5
    f = identity_sphere_neck(pinch, delta, n_t=1024)
    d = diagnostics(f)
    r_in = abs(pinch) / delta
    expected = spherical_cap_area(delta) - spherical_cap_area(r_in)
    # trapezoid error is second order: rel 3.8e-4 at n_t = 256 shrinks 16x here
    assert d.energy == pytest.approx(expected, rel=1e-4)
    # holomorphic, hence conformal: alpha vanishes slice by slice, exactly,
    # since both squared speeds are one array
    assert d.alpha == 0.0 and d.alpha_deviation == 0.0
    assert d.pohozaev_residual == 0.0
    # the image is a small cap at the pole: diameter comparable to 2 delta
    assert d.diameter <= 5.0 * delta


def test_restrict_is_consistent_with_sub_annulus():
    pinch, delta = 1e-8, 0.5
    f = identity_sphere_neck(pinch, delta, n_t=2048)
    sub_T = f.half_length / 2.0
    sub = restrict(f, sub_T)
    # the restricted grid snaps inward to nodes
    assert sub.half_length <= sub_T * (1.0 + 1e-12)
    r_out = math.sqrt(abs(pinch)) * math.exp(sub.half_length)
    r_in = math.sqrt(abs(pinch)) * math.exp(-sub.half_length)
    expected = spherical_cap_area(r_out) - spherical_cap_area(r_in)
    assert reference_diagnostics(sub).energy == pytest.approx(expected, rel=1e-4)


def test_collar_is_the_delta_ball_restriction():
    pinch, delta = 1e-6, 0.5
    f = identity_sphere_neck(pinch, delta)
    sub = collar(f, 0.1)
    assert sub.half_length == restrict(f, math.log(0.1 / math.sqrt(pinch))).half_length
    assert collar(f, delta).half_length == f.half_length
    with pytest.raises(NeckError, match="does not exceed"):
        collar(f, math.sqrt(pinch))
    with pytest.raises(NeckError, match="sampled chart"):
        collar(f, 2.0 * delta)


def test_zero_neck_passes_on_conformal_plumbing():
    pinches = [10.0 ** (-k) for k in (4, 5, 6, 7, 8, 9)]
    necks = [identity_sphere_neck(p, 0.5, n_t=384) for p in pinches]
    rep = zero_neck_test(necks, 0.01, [0.1, 0.05, 0.02, 0.01, 0.005, 0.002])
    assert rep.passed
    assert rep.chosen_delta is not None and rep.chosen_delta <= 0.005
    assert rep.late_count == 3
    # energy shrinks like the cap area as delta drops
    energies = [row.max_energy for row in rep.rows]
    assert all(e2 < e1 for e1, e2 in zip(energies, energies[1:]))
    # conformal necks have vanishing predicted energy at every delta
    assert all(row.predicted_pass for row in rep.rows)


def test_zero_neck_fails_on_flat_torus_neck():
    fields = []
    for p in (1e-4, 1e-6, 1e-8):
        fields.append(linear_torus_field(1.0, 0.0, p, 0.5, n_t=256))
    rep = zero_neck_test(fields, 0.01, [0.1, 0.02, 0.005])
    assert not rep.passed and rep.chosen_delta is None
    # for the (1, 0) slopes the alpha prediction reproduces the energy exactly
    for row in rep.rows:
        assert row.max_energy == pytest.approx(row.predicted_energy, rel=1e-9)
        assert not row.predicted_pass


def test_zero_neck_prediction_cannot_see_length():
    # (t, theta) -> (L t / 2T, 0): image length L on every member while the
    # energy pi L^2 / 2T vanishes, a geodesic neck
    L, delta = 0.3, 0.5
    fields = []
    for k in (8, 16, 24, 32):
        p = 10.0**-k
        T = math.log(delta / math.sqrt(p))
        fields.append(linear_torus_field(L / (2.0 * T), 0.0, p, delta, n_t=256))
    rep = zero_neck_test(fields, 0.01, [0.1, 0.05, 0.01, 0.002])
    assert not rep.passed
    for row in rep.rows:
        assert row.predicted_pass and row.max_energy <= 0.01
        assert not row.passed and row.max_diameter > 0.25


def test_zero_neck_schedule_validation():
    f = identity_sphere_neck(1e-6, 0.5)
    with pytest.raises(NeckError, match="decreasing"):
        zero_neck_test([f], 0.01, [0.01, 0.05])
    with pytest.raises(NeckError, match="empty"):
        zero_neck_test([f], 0.01, [])
    # a non-positive delta is refused before any logarithm is taken
    for bad in ([-0.1], [0.0], [0.1, 0.0]):
        with pytest.raises(NeckError, match="deltas must be positive"):
            zero_neck_test([f], 0.01, bad)
    # a delta beyond the sampled chart is refused, not clipped to the chart
    with pytest.raises(NeckError, match="sampled chart"):
        zero_neck_test([f, f], 0.01, [1.0, 0.1])


@pytest.mark.parametrize("eps", [math.inf, math.nan, True, -1.0, 0.0], ids=repr)
def test_zero_neck_test_refuses_an_eps_the_loader_refuses(eps):
    # errors.neck_schedule owns the tolerance rule at load and at run time
    f = identity_sphere_neck(1e-6, 0.5)
    with pytest.raises(NeckError, match="^eps must be (a finite number|positive)"):
        zero_neck_test([f, f], eps, [0.1])


def test_pohozaev_residual_routes():
    f = identity_sphere_neck(1e-6, 0.5)
    assert diagnostics(f).pohozaev_residual <= 1e-10
    # stretching f_t by 1.2 (|f_t|^2 by 1.44) on a conformal neck gives the
    # defect |1.44 - 1| / (1.44 + 1) on every slice
    stretched = dataclasses.replace(f, ft_sq=1.44 * f.ft_sq)
    assert diagnostics(stretched).pohozaev_residual == pytest.approx(0.44 / 2.44, rel=1e-12)


def test_profile_csv_round_trip():
    d = diagnostics(linear_torus_field(2.0, 1.0, 1.0, math.exp(1.5), n_t=16))
    text = profile_to_csv(d)
    lines = text.strip().split("\n")
    assert lines[0] == "t,theta,alpha_slice"
    assert len(lines) == 18
    assert "np." not in text
    t, th, al = (float(c) for c in lines[1].split(","))
    assert t == -1.5 and th == pytest.approx(TWO_PI) and al == pytest.approx(3 * math.pi)


def pair_distances(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


@st.composite
def point_sets(draw):
    """2-300 points in R^2..R^4: generic, repeated, collinear, or two far clusters."""
    n = draw(st.integers(2, 300))
    dim = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["generic", "repeated", "collinear", "clusters"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    if kind == "generic":
        pts = rng.normal(size=(n, dim))
    elif kind == "repeated":
        distinct = rng.normal(size=(draw(st.integers(1, 3)), dim))
        pts = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == "collinear":
        pts = rng.normal(size=dim) + rng.normal(size=n)[:, None] * rng.normal(size=dim)
    else:
        pts = rng.normal(size=(n, dim))
        pts[: n // 2] += draw(st.floats(1e2, 1e6)) * rng.normal(size=dim)
    return scale * pts


def reference_bracket(points):
    """The diameter bracket on row-major samples: ``mean`` over the samples
    and ``einsum`` over the coordinates, the orders the coordinate planes of
    ``_diameter_bracket`` reproduce."""
    pts = points.reshape(-1, points.shape[-1])
    pts = pts - pts.mean(axis=0)

    def dist(c):
        d = pts - c
        return np.sqrt(np.einsum("ij,ij->i", d, d))

    r_centroid = dist(np.zeros(pts.shape[1]))
    a = b = int(np.argmax(r_centroid))
    lower = 0.0
    while True:
        d = dist(pts[b])
        k = int(np.argmax(d))
        if not d[k] > lower:
            break
        lower, a, b = float(d[k]), b, k
    r_mid = dist(0.5 * (pts[a] + pts[b]))
    return lower, 2.0 * float(min(r_centroid.max(), r_mid.max()))


@given(pts=point_sets(), nan_row=st.none() | st.integers(0, 299))
@settings(max_examples=300, deadline=None)
def test_diameter_bracket_matches_row_major_reference(pts, nan_row):
    if nan_row is not None:
        pts[nan_row % len(pts)] = math.nan
    before = pts.copy()
    got = _diameter_bracket(pts)
    assert pts.tobytes() == before.tobytes()  # the planes are a copy
    assert np.array(got).tobytes() == np.array(reference_bracket(pts)).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [5, 257 * 64 + 1])
def test_diameter_bracket_matches_reference_on_far_offset_samples(dim, n):
    # an offset 1e6 times the spread makes every rounding of the centroid show
    rng = np.random.default_rng(dim * n)
    pts = rng.normal(size=(n, dim)) + 1e6 * rng.normal(size=dim)
    got = _diameter_bracket(pts)
    assert np.array(got).tobytes() == np.array(reference_bracket(pts)).tobytes()


@given(pts=point_sets())
@settings(max_examples=200, deadline=None)
def test_diameter_bracket_brackets_the_sample_diameter(pts):
    lower, upper = _diameter_bracket(pts)
    dist = pair_distances(pts)
    diam = float(dist.max())
    # centring first rounds at the size of the coordinates, not of the distances
    tol = 1e-12 * float(np.abs(pts).max())
    assert float(np.min(np.abs(dist - lower))) <= tol  # a real sample pair
    assert lower <= diam + tol
    assert diam <= upper + tol


def restricted_band_diameters(field, deltas):
    """Diameter over all samples of the field restricted to each delta-ball.

    The restricted row sets are nested, so the largest distance between every
    pair of rows of the widest one is computed once, a few rows against all
    later rows at a time on centred coordinates (no digits lost to |p|^2 +
    |q|^2 - 2 p.q), and each delta reads its square of that table.
    """
    t = t_nodes(field)
    halves = [np.log(d / np.sqrt(abs(field.pinch))) for d in deltas]
    keeps = [np.abs(t) <= min(h, field.half_length) * (1.0 + 1e-12) for h in halves]
    rows = np.nonzero(np.logical_or.reduce(keeps))[0]
    sub = field.points[rows]
    n_rows, cols, dim = sub.shape
    flat = sub.reshape(-1, dim)
    flat = flat - flat.mean(axis=0)
    sq = np.sum(flat * flat, axis=1)
    row_max = np.zeros((n_rows, n_rows))
    block = 8
    for lo in range(0, n_rows, block):
        hi = min(n_rows, lo + block)
        a, rest = flat[lo * cols : hi * cols], flat[lo * cols :]
        d2 = sq[lo * cols : hi * cols, None] + sq[None, lo * cols :] - 2.0 * (a @ rest.T)
        row_max[lo:hi, lo:] = d2.reshape(hi - lo, cols, n_rows - lo, cols).max(axis=(1, 3))
    row_max = np.sqrt(np.maximum(np.maximum(row_max, row_max.T), 0.0))
    out = []
    for keep in keeps:
        idx = np.nonzero(keep[rows])[0]
        out.append(float(row_max[np.ix_(idx, idx)].max()))
    return out


@pytest.mark.parametrize("stem", ["plumbing", "torus"])
def test_zero_neck_diameters_bound_every_sample_pair(stem):
    raw = yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text(encoding="utf-8"))
    fields = [m.field for m in make_family(FamilySpec.from_dict(raw["family"])).members]
    deltas = raw["neck"]["deltas"]
    rep = zero_neck_test(fields, raw["neck"]["eps"], deltas)
    late = fields[-rep.late_count :]
    exact = np.max([restricted_band_diameters(f, deltas) for f in late], axis=0)
    for row, diam in zip(rep.rows, exact):
        assert row.max_diameter >= diam
        if stem == "plumbing":
            assert row.max_diameter <= 1.10 * diam
        else:
            # the (2, 1) neck wraps the unit square torus: the bound is its chord
            assert row.max_diameter == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)


def test_diameter_bound_covers_points_between_samples():
    # with an odd theta count no two samples of the outer circle (diameter
    # 1.6 on the sphere) are antipodal, so the samples alone under-report
    coarse = identity_sphere_neck(1e-6, 0.5, n_t=32, n_theta=15)
    fine = identity_sphere_neck(1e-6, 0.5, n_t=128, n_theta=60)
    sampled = float(pair_distances(coarse.points.reshape(-1, 3)).max())
    (finer,) = restricted_band_diameters(fine, [0.5])
    assert sampled < 1.6 - 1e-3 and finer == pytest.approx(1.6, abs=1e-9)
    assert diagnostics(coarse).diameter >= finer


def test_diameter_self_check_fires():
    # points spread over the equator of the sphere while f_t = f_theta = 0: a
    # real sample pair 2 apart against 2 max-arc + average length = 0
    theta = np.arange(16) * (TWO_PI / 16)
    equator = np.stack([np.cos(theta), np.sin(theta), np.zeros(16)], axis=-1)
    pts = np.broadcast_to(equator, (9, 16, 3)).copy()
    zero = np.zeros(pts.shape[:2])
    field = CylinderField(pts, zero, zero, SphereTarget, 1.0, math.e)
    with pytest.raises(NeckError, match="diameter bound violated"):
        diagnostics(field)


def reference_collar_points(pinch, t, n_theta):
    """The collar grid as one complex exp of the whole grid, the construction
    ``_collar_points`` replaced."""
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    return np.sqrt(complex(pinch)) * np.exp(t[:, None] + 1j * theta[None, :])


def reference_sphere_field(m, m_prime, pinch, delta, n_t, n_theta):
    """Points and squared speed of ``cylinder_field_from_sphere_chart`` as it
    was built before: the complex-exp grid and the points by ``np.stack``."""
    T = collar_half_length(delta, pinch)
    x = reference_collar_points(pinch, np.linspace(-T, T, n_t + 1), n_theta)
    w, dw = m(x), m_prime(x) * x
    u, v = w.real, w.imag
    n = 1.0 + u * u + v * v
    points = np.stack([2.0 * u / n, 2.0 * v / n, (n - 2.0) / n], axis=-1)
    return points, 4.0 * (dw.real * dw.real + dw.imag * dw.imag) / (n * n)


def reference_torus_points(a, b, pinch, delta):
    """Points of a torus member as they were built before: the trig of the
    full ``np.meshgrid`` grid, stacked by ``np.stack``."""
    T = collar_half_length(delta, pinch)
    t = np.linspace(-T, T, _N_T + 1)
    theta = np.arange(_N_THETA) * (TWO_PI / _N_THETA)
    tt, th = np.meshgrid(t, theta, indexing="ij")
    u, v = a * tt, b * th
    return np.stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)], axis=-1)


def reference_diagnostics(field):
    """The per-sample diagnostics the row table replaced, on a field or a cut."""
    T = field.half_length
    h_t = 2.0 * T / field.n_t
    h_th = TWO_PI / field.n_theta
    t = t_nodes(field)
    w_t = _trapezoid(len(t), h_t)
    ft_sq, fth_sq = field.ft_sq, field.fth_sq
    alpha_profile = 0.5 * np.sum(ft_sq - fth_sq, axis=1) * h_th
    theta_profile = np.sum(fth_sq, axis=1) * h_th
    slice_energy = np.sum(ft_sq + fth_sq, axis=1) * h_th
    alpha = float(np.sum(w_t * alpha_profile) / (2.0 * T))
    ft_norm, fth_norm = np.sqrt(ft_sq), np.sqrt(fth_sq)
    avg_length = float(np.sum(w_t * np.sum(ft_norm, axis=1)) * h_th / TWO_PI)
    _, upper = reference_bracket(field.points)
    rho = 0.5 * (h_t * float(ft_norm.max()) + h_th * float(fth_norm.max()))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(slice_energy > 0.0, 2.0 * np.abs(alpha_profile) / slice_energy, 0.0)
    return NeckDiagnostics(
        alpha=alpha,
        alpha_deviation=float(np.max(np.abs(alpha_profile - alpha))),
        t_nodes=t,
        theta_profile=theta_profile,
        alpha_profile=alpha_profile,
        energy=float(0.5 * np.sum(w_t * slice_energy)),
        theta_integral=float(np.sum(w_t * theta_profile)),
        avg_length=avg_length,
        diameter=min(upper + 2.0 * rho, field.target.chord_diameter),
        pohozaev_residual=float(np.max(ratio)),
        half_length=T,
    )


def reference_pushforward(field, delta):
    """Collar energy atoms built from the cut sub-field, as before the table."""
    sub = collar(field, delta)
    t = t_nodes(sub)
    w_t = _trapezoid(len(t), t[1] - t[0])
    density = 0.5 * (sub.ft_sq + sub.fth_sq) * w_t[:, None] * (TWO_PI / sub.n_theta)
    return reference_collar_points(field.pinch, t, field.n_theta).ravel(), density.ravel()


def same_bits(got, want):
    """Every field of two NeckDiagnostics agrees bit for bit."""
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


def reference_rows(necks, eps, deltas):
    """Zero-neck rows from diagnostics of the cut collars of the late half."""
    late = necks[-((len(necks) + 1) // 2) :]
    rows = []
    for delta in deltas:
        diags = [reference_diagnostics(collar(f, delta)) for f in late]
        energy = max(d.energy for d in diags)
        diam = max(d.diameter for d in diags)
        pred = max(abs(2.0 * d.half_length * d.alpha) for d in diags)
        rows.append(
            ZeroNeckRow(
                float(delta), energy, diam, pred, energy <= eps and diam <= eps, pred <= eps
            )
        )
    return tuple(rows)


@pytest.mark.parametrize("stem", ["plumbing", "plumbing_bubble", "torus"])
def test_collar_windows_match_cut_collars_bit_for_bit(stem):
    raw = yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text(encoding="utf-8"))
    fields = [m.field for m in make_family(FamilySpec.from_dict(raw["family"])).members]
    # the shipped schedule (plumbing_bubble has none) and the chart radius itself
    chart = raw["family"]["delta"]
    deltas = [chart, *raw.get("neck", {}).get("deltas", [0.1, 0.02, 0.005, 0.002])]
    rep = zero_neck_test(fields, 0.01, deltas)
    assert rep.rows == reference_rows(fields, 0.01, deltas)
    for f in fields:
        same_bits(diagnostics(f), reference_diagnostics(f))
        for delta in (d for d in deltas if d > math.sqrt(abs(f.pinch))):
            same_bits(collar_diagnostics(f, delta), reference_diagnostics(collar(f, delta)))
        mu = build_nodal_pushforward(f)
        x, w = reference_pushforward(f, chart)
        assert mu.points.tobytes() == x.tobytes()
        assert mu.weights.tobytes() == w.tobytes()


@given(
    log_pinch=st.floats(-24.0, -3.0),
    n_t=st.integers(2, 96),
    n_theta=st.integers(4, 24),
    node=st.floats(0.0, 1.0),
    on_chart=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_collar_windows_match_on_grid_nodes(log_pinch, n_t, n_theta, node, on_chart):
    """delta on a grid node (or the chart radius) snaps the same way in the
    window as in the cut collar; a window too short for the grid is refused
    alike."""
    pinch = 10.0**log_pinch
    f = cylinder_field_from_sphere_chart(
        lambda x: x + pinch / x, lambda x: 1.0 - pinch / (x * x), pinch, 0.5, 2 * n_t, n_theta
    )
    t = t_nodes(f)
    k = n_t + int(round(node * n_t))  # a node at or right of t = 0
    delta = 0.5 if on_chart else math.sqrt(pinch) * math.exp(t[k])
    try:
        sub = collar(f, delta)
    except NeckError as exc:
        with pytest.raises(NeckError) as got:
            collar_diagnostics(f, delta)
        assert str(got.value) == str(exc)
        return
    if on_chart:
        x, w = reference_pushforward(f, delta)
        mu = build_nodal_pushforward(f)
        assert mu.points.tobytes() == x.tobytes() and mu.weights.tobytes() == w.tobytes()
        # the pushforward reads the per-sample density, not the row table
        assert "rows" not in vars(f)
    same_bits(collar_diagnostics(f, delta), reference_diagnostics(sub))


def reference_collar_rows(delta, pinch, chart, n_t):
    """The scan ``collar_rows`` replaced: build the whole t grid with
    np.linspace and keep the nodes with |t| <= the half-length up to 1e-12."""
    half_length = collar_half_length(chart, pinch)
    half = min(collar_half_length(delta, pinch, chart), half_length)
    t = np.linspace(-half_length, half_length, n_t + 1)
    idx = np.nonzero(np.abs(t) <= half * (1.0 + 1e-12))[0]
    if len(idx) < 3:
        raise NeckError(
            f"delta {delta} leaves a degenerate grid on the collar of pinch t = {abs(pinch):g}"
        )
    return int(idx[0]), int(idx[-1]), float(t[idx[-1]])


def _rows_outcome(rows, *args):
    try:
        got = rows(*args)
    except NeckError as exc:
        return str(exc)
    assert [type(x) for x in got] == [int, int, float]
    return got


def delta_of_half(pinch, half):
    """A delta whose collar half-length is ``half``: sqrt(pinch) e^half,
    stepped a float at a time toward it (at most 8 steps)."""
    delta = math.sqrt(pinch) * math.exp(half)
    for _ in range(8):
        got = collar_half_length(delta, pinch)
        if got == half:
            break
        delta = math.nextafter(delta, math.inf if got < half else 0.0)
    return delta


@given(
    log_pinch=st.floats(-30.0, 0.5),
    chart=st.floats(1e-3, 2.0),
    n_t=st.integers(0, 600),
    node=st.floats(0.0, 1.0),
    nudge=st.sampled_from([None, 0.0, 5e-13, -5e-13, 2e-12, -2e-12]),
)
@settings(max_examples=300, deadline=None)
def test_collar_rows_match_the_linspace_scan(log_pinch, chart, n_t, node, nudge):
    """Half-lengths on a grid node, within the 1e-12 slack of one or just
    outside it, off the grid (nudge None) and grids of fewer than three rows:
    the same rows, half-length bits and refusals as the scan."""
    pinch = 10.0**log_pinch
    delta = chart * (0.5 + node)
    if nudge is not None and chart > math.sqrt(pinch):
        half_length = collar_half_length(chart, pinch)
        t = np.linspace(-half_length, half_length, n_t + 1)
        half = abs(float(t[round(node * n_t)]))
        if half > 0.0:
            delta = delta_of_half(pinch, half * (1.0 + nudge))
    args = (delta, pinch, chart, n_t)
    assert _rows_outcome(collar_rows, *args) == _rows_outcome(reference_collar_rows, *args)


def test_collar_rows_keep_a_node_on_the_half_length_and_within_the_slack():
    """A node on the half-length, or 5e-13 of it outside, is kept; 2e-12
    outside, it is not.  Fewer than three rows are refused."""
    pinch, chart, n_t = 1e-6, 0.5, 256
    half_length = collar_half_length(chart, pinch)
    t = np.linspace(-half_length, half_length, n_t + 1)
    for k in (140, 200, 255):
        on = delta_of_half(pinch, float(t[k]))
        assert collar_half_length(on, pinch) == t[k]
        inside = delta_of_half(pinch, float(t[k]) * (1.0 - 5e-13))
        outside = delta_of_half(pinch, float(t[k]) * (1.0 - 2e-12))
        for delta, last in ((on, k), (inside, k), (outside, k - 1)):
            rows = collar_rows(delta, pinch, chart, n_t)
            assert rows == reference_collar_rows(delta, pinch, chart, n_t)
            assert rows == (n_t - last, last, float(t[last]))
    for short in (0, 1):
        with pytest.raises(NeckError, match="degenerate grid"):
            collar_rows(chart, pinch, chart, short)


def test_zero_neck_refuses_collars_like_the_cut():
    pinch, delta = 1e-6, 0.5
    f = identity_sphere_neck(pinch, delta, n_t=64)
    h_t = 2.0 * f.half_length / f.n_t
    for bad, match in (
        (2.0 * delta, "sampled chart"),
        (math.sqrt(pinch), "does not exceed"),
        (0.5 * math.sqrt(pinch), "does not exceed"),
        # half a grid step: only the t = 0 row is kept
        (math.sqrt(pinch) * math.exp(0.5 * h_t), "degenerate"),
    ):
        with pytest.raises(NeckError, match=match) as cut:
            collar(f, bad)
        with pytest.raises(NeckError, match=match) as windowed:
            zero_neck_test([f], 0.01, [bad])
        assert str(windowed.value) == str(cut.value)


@given(
    log_pinch=st.floats(-30.0, 0.5),
    log_delta=st.floats(-3.0, 0.3),
    n_t=st.integers(2, 600),
    n_theta=st.integers(4, 200),
)
@settings(max_examples=100, deadline=None)
def test_collar_points_equal_the_complex_exp_grid(log_pinch, log_delta, n_t, n_theta):
    """One exp per row and per column gives the bits of the full-grid
    complex exp; the real ``np.exp`` of t would not."""
    pinch = 10.0**log_pinch
    try:
        T = collar_half_length(10.0**log_delta, pinch)
    except NeckError:
        assume(False)
    t = np.linspace(-T, T, n_t + 1)
    got = _collar_points(pinch, t, n_theta)
    assert got.tobytes() == reference_collar_points(pinch, t, n_theta).tobytes()


@given(
    kind=st.sampled_from(["plumbing", "plumbing_bubble"]),
    log_pinch=st.floats(-20.0, -2.0),
    n_t=st.integers(1, 64),
    n_theta=st.integers(4, 32),
)
@settings(max_examples=60, deadline=None)
def test_sphere_fields_and_pushforwards_equal_the_complex_exp_construction(
    kind, log_pinch, n_t, n_theta
):
    pinch = 10.0**log_pinch
    m = _plumbing_transition(kind, pinch)
    f = cylinder_field_from_sphere_chart(m.value, m.derivative, pinch, 0.5, 2 * n_t, n_theta)
    points, speed_sq = reference_sphere_field(m.value, m.derivative, pinch, 0.5, 2 * n_t, n_theta)
    assert f.points.tobytes() == points.tobytes()
    assert f.ft_sq.tobytes() == speed_sq.tobytes() and f.fth_sq is f.ft_sq
    x, w = reference_pushforward(f, 0.5)
    mu = build_nodal_pushforward(f)
    assert mu.points.tobytes() == x.tobytes() and mu.weights.tobytes() == w.tobytes()


@given(
    a=st.floats(-8.0, 8.0),
    b=st.integers(-6, 6),
    log_pinch=st.floats(-16.0, -2.0),
    delta=st.floats(0.2, 1.0),
)
@example(a=2.0, b=1, log_pinch=-2.0, delta=0.5)  # the members of configs/torus.yaml
@example(a=2.0, b=1, log_pinch=-4.0, delta=0.5)
@example(a=2.0, b=1, log_pinch=-6.0, delta=0.5)
@example(a=2.0, b=1, log_pinch=-8.0, delta=0.5)
@settings(max_examples=40, deadline=None)
def test_torus_members_equal_the_meshgrid_construction(a, b, log_pinch, delta):
    """The trig of the t column and the theta row, broadcast, gives the bits
    of the trig of the full grid."""
    pinch = 10.0**log_pinch
    spec = FamilySpec(kind="torus_linear", schedule=(pinch,), delta=delta, slopes=(a, b))
    f = make_family(spec).members[0].field
    assert f.points.tobytes() == reference_torus_points(a, float(b), pinch, delta).tobytes()
    assert f.ft_sq.shape == f.fth_sq.shape == f.points.shape[:2]


@pytest.mark.parametrize("target", ["sphere", "torus"])
@pytest.mark.parametrize("scale, refused", [(1.0 + 1e-9, True), (1.0 + 1e-11, False)])
def test_points_off_the_target_by_more_than_1e_10_are_refused(target, scale, refused):
    if target == "sphere":
        f = identity_sphere_neck(1e-6, 0.5, n_t=16, n_theta=8)
    else:
        f = linear_torus_field(2.0, 1.0, 1e-4, 0.5)
    points = scale * f.points
    if refused:
        with pytest.raises(NeckError, match="leave the target manifold"):
            dataclasses.replace(f, points=points)
    else:
        assert dataclasses.replace(f, points=points).points is points


@pytest.mark.parametrize("value, match", [(math.nan, "non-finite"), (-1e-300, "negative")])
def test_a_shared_sphere_speed_array_is_checked(value, match):
    """A conformal sphere field holds one array for both squared speeds,
    which the field checks once; a bad entry in it is still refused."""
    f = identity_sphere_neck(1e-6, 0.5, n_t=16, n_theta=8)
    assert f.fth_sq is f.ft_sq
    speed_sq = with_entry(f.ft_sq, value)
    with pytest.raises(NeckError, match=match):
        dataclasses.replace(f, ft_sq=speed_sq, fth_sq=speed_sq)
