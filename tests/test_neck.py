"""Cylinder diagnostics: energy split, diameter bound, zero-neck, Pohozaev."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletree import (
    CylinderField,
    FamilySpec,
    FlatTorusTarget,
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
from bubbletree.neck import _diameter_bracket, _sq_norm, _trapezoid

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def linear_torus_field(a, b, half_length, n_t=128, n_theta=64, pinch=None, delta=None):
    """(t, theta) -> (a t, b theta) into the square flat torus."""
    tor = FlatTorusTarget()
    t = np.linspace(-half_length, half_length, n_t + 1)
    th = np.arange(n_theta) * (TWO_PI / n_theta)
    u = a * t[:, None] + 0.0 * th[None, :]
    v = b * th[None, :] + 0.0 * t[:, None]
    points, e_u, e_v = tor.frame(u, v)
    return CylinderField(
        half_length=half_length,
        points=points,
        f_t=a * e_u,
        f_theta=b * e_v,
        target=tor,
        pinch=pinch,
        delta=delta,
    )


def identity_sphere_neck(pinch, delta, n_t=256, n_theta=64):
    return cylinder_field_from_sphere_chart(
        lambda x: x, lambda x: np.ones_like(x), pinch, delta, n_t, n_theta
    )


def finite_difference_defect(field):
    """Max deviation of (f_t, f_theta) from second-order differences of the
    points: central differences on interior t nodes, wrapping around in theta."""
    h_t = 2.0 * field.half_length / field.n_t
    d_t = (field.points[2:] - field.points[:-2]) / (2.0 * h_t)
    def_t = float(np.max(np.linalg.norm(d_t - field.f_t[1:-1], axis=-1)))
    h_th = TWO_PI / field.n_theta
    d_th = (np.roll(field.points, -1, axis=1) - np.roll(field.points, 1, axis=1)) / (
        2.0 * h_th
    )
    def_th = float(np.max(np.linalg.norm(d_th - field.f_theta, axis=-1)))
    return def_t, def_th


def t_nodes(field):
    """The field's uniform t grid over [-T, T], both endpoints included."""
    return np.linspace(-field.half_length, field.half_length, field.n_t + 1)


def restrict(field, half_length):
    """Sub-cylinder |t| <= half_length, snapped inward to grid nodes: the
    restriction that ``collar`` must cut about the node."""
    t = t_nodes(field)
    idx = np.nonzero(np.abs(t) <= half_length * (1.0 + 1e-12))[0]
    rows = slice(idx[0], idx[-1] + 1)
    return CylinderField(
        float(t[idx[-1]]), field.points[rows], field.f_t[rows], field.f_theta[rows], field.target
    )


def collar(field, delta):
    """Sub-cylinder of ``field.collar_window(delta)``, without plumbing
    metadata: the cut collar that the row windows agree with bit for bit."""
    i0, i1, half_length = field.collar_window(delta)
    rows = slice(i0, i1 + 1)
    return CylinderField(
        half_length, field.points[rows], field.f_t[rows], field.f_theta[rows], field.target
    )


def spherical_cap_area(r):
    return 4.0 * math.pi * r * r / (1.0 + r * r)


def test_cylinder_field_validation():
    f = linear_torus_field(1.0, 1.0, 2.0)
    with pytest.raises(NeckError, match="positive"):
        CylinderField(-1.0, f.points, f.f_t, f.f_theta, f.target)
    with pytest.raises(NeckError, match="shapes"):
        CylinderField(2.0, f.points, f.f_t[:, :-1], f.f_theta, f.target)
    with pytest.raises(NeckError, match="target manifold"):
        CylinderField(2.0, 1.5 * f.points, 1.5 * f.f_t, 1.5 * f.f_theta, f.target)
    with pytest.raises(NeckError, match="together"):
        CylinderField(2.0, f.points, f.f_t, f.f_theta, f.target, pinch=1e-4)
    with pytest.raises(NeckError, match="inconsistent"):
        CylinderField(
            2.0, f.points, f.f_t, f.f_theta, f.target, pinch=1e-4, delta=0.5
        )
    # non-finite inputs fail every comparison, so each needs its own refusal
    with pytest.raises(NeckError, match="finite"):
        CylinderField(math.nan, f.points, f.f_t, f.f_theta, f.target)
    nan_point = f.points.copy()
    nan_point[3, 5, 0] = math.nan
    with pytest.raises(NeckError, match="non-finite"):
        CylinderField(2.0, nan_point, f.f_t, f.f_theta, f.target)
    inf_ft = f.f_t.copy()
    inf_ft[0, 0, 2] = math.inf
    with pytest.raises(NeckError, match="non-finite"):
        CylinderField(2.0, f.points, inf_ft, f.f_theta, f.target)


def test_torus_closed_forms():
    # (t, theta) -> (a t, b theta): alpha = pi (a^2 - b^2), Theta = 2 pi b^2,
    # E = 2 pi T (a^2 + b^2); the trapezoid rule is exact for constants
    T = 3.0
    for a, b in ((2.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        d = diagnostics(linear_torus_field(a, b, T))
        assert d.alpha == pytest.approx(math.pi * (a * a - b * b), abs=1e-10)
        assert d.alpha_deviation <= 1e-10
        assert d.energy == pytest.approx(TWO_PI * T * (a * a + b * b), rel=1e-12)
        assert np.allclose(d.theta_profile, TWO_PI * b * b, atol=1e-10)
        assert d.theta_integral == pytest.approx(2.0 * T * TWO_PI * b * b, rel=1e-12)
        # split identity re-assembled from the reported pieces
        assert d.energy == pytest.approx(2.0 * T * d.alpha + d.theta_integral)
    # the conformal slope pair has zero alpha; the (2,1) pair has
    # energy / (2 T alpha) = (a^2+b^2)/(a^2-b^2) = 5/3
    d = diagnostics(linear_torus_field(2.0, 1.0, T))
    assert d.energy / (2.0 * T * d.alpha) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_sphere_identity_neck_matches_cap_areas():
    pinch, delta = 1e-6, 0.5
    f = identity_sphere_neck(pinch, delta, n_t=1024)
    assert max(finite_difference_defect(f)) < 1e-2
    d = diagnostics(f)
    r_in = abs(pinch) / delta
    expected = spherical_cap_area(delta) - spherical_cap_area(r_in)
    # trapezoid error is second order: rel 3.8e-4 at n_t = 256 shrinks 16x here
    assert d.energy == pytest.approx(expected, rel=1e-4)
    # holomorphic, hence conformal: alpha vanishes slice by slice
    assert abs(d.alpha) <= 1e-12 * d.energy + 1e-15
    assert d.pohozaev_residual <= 1e-10
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
    assert diagnostics(sub).energy == pytest.approx(expected, rel=1e-4)


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
    with pytest.raises(NeckError, match="plumbing metadata"):
        collar(linear_torus_field(1.0, 0.0, 2.0), 0.1)


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
        T = math.log(0.5 / math.sqrt(p))
        fields.append(linear_torus_field(1.0, 0.0, T, n_t=256, pinch=p, delta=0.5))
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
        fields.append(linear_torus_field(L / (2.0 * T), 0.0, T, n_t=256, pinch=p, delta=delta))
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
    bare = linear_torus_field(1.0, 0.0, 2.0)
    with pytest.raises(NeckError, match="plumbing metadata"):
        zero_neck_test([bare], 0.01, [0.1])
    # a delta beyond the sampled chart is refused, not clipped to the chart
    with pytest.raises(NeckError, match="sampled chart"):
        zero_neck_test([f, f], 0.01, [1.0, 0.1])


def test_pohozaev_residual_routes():
    f = identity_sphere_neck(1e-6, 0.5)
    assert diagnostics(f).pohozaev_residual <= 1e-10
    # stretching f_t by 1.2 on a conformal neck gives the defect
    # |1.44 - 1| / (1.44 + 1) on every slice
    stretched = dataclasses.replace(f, f_t=1.2 * f.f_t)
    assert diagnostics(stretched).pohozaev_residual == pytest.approx(0.44 / 2.44, rel=1e-12)


def test_profile_csv_round_trip():
    d = diagnostics(linear_torus_field(2.0, 1.0, 1.5, n_t=16))
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
@settings(max_examples=100, deadline=None)
def test_sq_norm_matches_row_major_sum(pts):
    # spread the magnitudes per coordinate so that any other order rounds apart
    pts = pts * np.geomspace(1.0, 1e-7, pts.shape[1])
    assert _sq_norm(pts).tobytes() == np.sum(pts * pts, axis=-1).tobytes()


def reference_push(w, zeta):
    """The chart differential applied as one broadcast over (..., 3)."""
    u, v = np.real(w), np.imag(w)
    n = 1.0 + u * u + v * v
    du = np.stack([2.0 * (n - 2.0 * u * u), -4.0 * u * v, 4.0 * u], axis=-1)
    dv = np.stack([-4.0 * u * v, 2.0 * (n - 2.0 * v * v), 4.0 * v], axis=-1)
    return (du * np.real(zeta)[..., None] + dv * np.imag(zeta)[..., None]) / (n * n)[..., None]


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(1,), (7,), (5, 4), (3, 2, 6)]),
    log_scale=st.floats(-8.0, 8.0),
)
@settings(max_examples=60, deadline=None)
def test_sphere_differential_matches_stacked_formula(seed, shape, log_scale):
    rng = np.random.default_rng(seed)
    w = 10.0**log_scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    zeta = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    push = SphereTarget.differential(w)
    for z in (zeta, 1j * zeta):
        assert push(z).tobytes() == reference_push(w, z).tobytes()


def reference_frame(u, v):
    """The torus frame with each image stacked from four planes, zeros included."""
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    zero = np.zeros_like(cu)
    return (
        np.stack([cu, su, cv, sv], axis=-1),
        np.stack([-su, cu, zero, zero], axis=-1),
        np.stack([zero, zero, -sv, cv], axis=-1),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(1,), (7,), (5, 4), (3, 2, 6)]),
    log_scale=st.floats(-8.0, 8.0),
)
@settings(max_examples=60, deadline=None)
def test_torus_frame_matches_stacked_formula(seed, shape, log_scale):
    rng = np.random.default_rng(seed)
    u, v = 10.0**log_scale * rng.normal(size=(2, *shape))
    # signed zeros: sin(-0.0) is -0.0, so both formulas must negate it to +0.0
    u.flat[0], v.flat[0] = -0.0, 0.0
    for got, want in zip(FlatTorusTarget.frame(u, v), reference_frame(u, v)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


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
    zero = np.zeros_like(pts)
    field = CylinderField(1.0, pts, zero, zero, SphereTarget)
    with pytest.raises(NeckError, match="diameter bound violated"):
        diagnostics(field)


def reference_diagnostics(field):
    """The per-sample diagnostics the row table replaced, as tuples of floats
    and arrays in ``NeckDiagnostics`` field order."""
    T = field.half_length
    h_t = 2.0 * T / field.n_t
    h_th = TWO_PI / field.n_theta
    t = t_nodes(field)
    w_t = _trapezoid(len(t), h_t)
    ft_sq = np.sum(field.f_t * field.f_t, axis=-1)
    fth_sq = np.sum(field.f_theta * field.f_theta, axis=-1)
    alpha_profile = 0.5 * np.sum(ft_sq - fth_sq, axis=1) * h_th
    theta_profile = np.sum(fth_sq, axis=1) * h_th
    slice_energy = np.sum(ft_sq + fth_sq, axis=1) * h_th
    alpha = float(np.sum(w_t * alpha_profile) / (2.0 * T))
    ft_norm = np.linalg.norm(field.f_t, axis=-1)
    fth_norm = np.linalg.norm(field.f_theta, axis=-1)
    avg_length = float(np.sum(w_t * np.sum(ft_norm, axis=1)) * h_th / TWO_PI)
    _, upper = reference_bracket(field.points)
    rho = 0.5 * (h_t * float(ft_norm.max()) + h_th * float(fth_norm.max()))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(slice_energy > 0.0, 2.0 * np.abs(alpha_profile) / slice_energy, 0.0)
    return (
        alpha,
        float(np.max(np.abs(alpha_profile - alpha))),
        t,
        theta_profile,
        alpha_profile,
        float(0.5 * np.sum(w_t * slice_energy)),
        float(np.sum(w_t * theta_profile)),
        avg_length,
        min(upper + 2.0 * rho, field.target.chord_diameter),
        float(np.max(ratio)),
        T,
    )


def reference_pushforward(field, delta):
    """Collar energy atoms built from the cut sub-field, as before the table."""
    sub = collar(field, delta)
    t = t_nodes(sub)
    w_t = _trapezoid(len(t), t[1] - t[0])
    ft_sq = np.sum(sub.f_t * sub.f_t, axis=-1)
    fth_sq = np.sum(sub.f_theta * sub.f_theta, axis=-1)
    density = 0.5 * (ft_sq + fth_sq) * w_t[:, None] * (TWO_PI / sub.n_theta)
    x = np.sqrt(complex(field.pinch)) * np.exp(t[:, None] + 1j * sub.theta_nodes[None, :])
    return x.ravel(), density.ravel()


def same_bits(got, want):
    """Every field of a NeckDiagnostics equals the reference tuple bit for bit."""
    got = [getattr(got, f.name) for f in dataclasses.fields(got)]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def reference_rows(necks, eps, deltas):
    """Zero-neck rows from diagnostics of the cut collars of the late half."""
    late = necks[-((len(necks) + 1) // 2) :]
    rows = []
    for delta in deltas:
        diags = [diagnostics(collar(f, delta)) for f in late]
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
            mu = build_nodal_pushforward(f, delta)
            x, w = reference_pushforward(f, delta)
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
    x, w = reference_pushforward(f, delta)
    mu = build_nodal_pushforward(f, delta)
    assert mu.points.tobytes() == x.tobytes() and mu.weights.tobytes() == w.tobytes()
    # the pushforward reads the per-sample density, not the row table
    assert "rows" not in vars(f)
    same_bits(collar_diagnostics(f, delta), reference_diagnostics(sub))


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
