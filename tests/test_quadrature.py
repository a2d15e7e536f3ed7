"""Adaptive polar quadrature against an independent integrator and a two-pass reference."""

import heapq
import math

import numpy as np
import pytest
from scipy import integrate

from bubbletree import PanelQuadrature, RationalMap, adaptive_polar_quadrature

# Gauss-Legendre pairs of the coarse and fine panel rules, independent of the
# module under test
_XC, _WC = np.polynomial.legendre.leggauss(8)
_XF, _WF = np.polynomial.legendre.leggauss(16)


def fs_density(k):
    def density(z):
        a = np.abs(z) ** 2
        return 4.0 * k * k / (1.0 + k * k * a) ** 2

    return density


def test_fs_bubble_disk_mass_closed_form():
    for k in (1.0, 10.0, 100.0):
        for radius in (0.5, 1.0, 2.0):
            res = adaptive_polar_quadrature(fs_density(k), 0j, radius)
            exact = 4.0 * math.pi * (k * radius) ** 2 / (1.0 + (k * radius) ** 2)
            assert abs(res.value - exact) <= 1e-8 * exact
            assert res.error <= 1e-6 * exact


def test_matches_scipy_on_offset_gaussian():
    # independent route: scipy adaptive 2d quadrature in cartesian form
    c = 0.3 + 0.4j

    def density(z):
        return np.exp(-8.0 * np.abs(z - c) ** 2)

    res = adaptive_polar_quadrature(density, 0j, 1.5, rel_tol=1e-10)

    def integrand(y, x):
        return math.exp(-8.0 * ((x - c.real) ** 2 + (y - c.imag) ** 2))

    ref, ref_err = integrate.dblquad(
        integrand,
        -1.5,
        1.5,
        lambda x: -math.sqrt(max(1.5**2 - x * x, 0.0)),
        lambda x: math.sqrt(max(1.5**2 - x * x, 0.0)),
        epsabs=1e-12,
        epsrel=1e-12,
    )
    assert abs(res.value - ref) <= 1e-8 * abs(ref) + 10.0 * ref_err


def test_annulus_excludes_inner_disk():
    density = fs_density(10.0)
    full = adaptive_polar_quadrature(density, 0j, 1.0)
    inner = adaptive_polar_quadrature(density, 0j, 0.25)
    ann = adaptive_polar_quadrature(density, 0j, 1.0, r_inner=0.25)
    assert abs(ann.value - (full.value - inner.value)) <= 1e-9 * full.value


def test_particle_emission_preserves_total_and_balls():
    k = 100.0
    res = adaptive_polar_quadrature(
        fs_density(k),
        0j,
        1.0,
        emit_particles=True,
        emit_mass_frac=2.5e-3,
    )
    pts, wts = res.points, res.weights
    assert abs(wts.sum() - res.value) <= 1e-9 * res.value
    # ball masses at reference radii r = j/k with closed-form disk masses
    r = np.abs(pts)
    for j in (1.0, 2.5, 5.0):
        radius = j / k
        ball = wts[r <= radius].sum()
        exact = 4.0 * math.pi * j * j / (1.0 + j * j)
        assert abs(ball - exact) <= 0.01 * exact, (j, ball, exact)


def test_panel_budget_caps_refinement():
    res = adaptive_polar_quadrature(
        fs_density(1e4), 0j, 1.0, rel_tol=1e-12, max_panels=80
    )
    assert res.n_panels <= 80
    assert res.error > 0.0


def test_zero_density_integrates_to_zero():
    res = adaptive_polar_quadrature(lambda z: np.zeros_like(z, dtype=float), 0j, 1.0)
    assert res.value == 0.0


def _panel_nodes(center, r0, r1, t0, t1, xs, ws):
    rm, rh = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    r = rm + rh * xs
    t = tm + th * xs
    wr = rh * ws
    wt = th * ws
    z = center + r[:, None] * np.exp(1j * t)[None, :]
    jac = (wr * r)[:, None] * wt[None, :]
    return z.ravel(), jac.ravel()


def _panel_value(density, center, box, xs, ws):
    """One panel's tensor-rule value from its own density call."""
    z, jac = _panel_nodes(center, *box, xs, ws)
    return float(np.dot(density(z), jac))


def _emit_cdf_nodes(density, center, box, fine_value, n_shell, n_fine=48):
    """One panel's atoms at its radial mass quantiles, from its own density call."""
    r0, r1, t0, t1 = box
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    theta = tm + th * _XC
    wth = th * _WC
    redges = np.linspace(r0, r1, n_fine + 1)
    rmid = 0.5 * (redges[:-1] + redges[1:])
    dr = (r1 - r0) / n_fine
    z = center + rmid[:, None] * np.exp(1j * theta)[None, :]
    cell = density(z) * (rmid[:, None] * dr) * wth[None, :]
    radial = cell.sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(radial)])
    total = cum[-1]
    if total <= 0.0 or fine_value == 0.0:
        return np.zeros(0, np.complex128), np.zeros(0, np.float64)
    targets = (np.arange(n_shell) + 0.5) * (total / n_shell)
    r_shell = np.interp(targets, cum, redges)
    rows = np.clip(np.searchsorted(cum, targets) - 1, 0, n_fine - 1)
    prof = cell[rows]
    row_mass = prof.sum(axis=1)
    flat = row_mass <= 0.0
    if np.any(flat):
        prof[flat] = wth / wth.sum()
        row_mass[flat] = 1.0
    weights = prof / row_mass[:, None] * (fine_value / n_shell)
    points = center + r_shell[:, None] * np.exp(1j * theta)[None, :]
    return points.ravel(), weights.ravel()


def two_pass_reference(
    density,
    center,
    r_outer,
    r_inner=0.0,
    rel_tol=1e-9,
    abs_tol=1e-14,
    max_panels=20000,
    emit_particles=False,
    emit_mass_frac=None,
):
    """Reference: the error pass and the granularity pass written out apart,
    one density call per panel rule, re-evaluating the coarse rule of every
    panel they split and of both chosen children (nine panel rules per
    split), and one density call per emitted panel."""
    boxes = []
    redges = np.linspace(r_inner, r_outer, 9)
    tedges = np.linspace(0.0, 2.0 * np.pi, 9)
    for i in range(8):
        for j in range(8):
            boxes.append((redges[i], redges[i + 1], tedges[j], tedges[j + 1]))
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0

    def push(box):
        nonlocal counter, total, total_err
        coarse = _panel_value(density, center, box, _XC, _WC)
        fine = _panel_value(density, center, box, _XF, _WF)
        err = abs(fine - coarse)
        heapq.heappush(heap, (-err, counter, box, fine))
        counter += 1
        total += fine
        total_err += err

    def children_of(box, can_r, can_t):
        r0, r1, t0, t1 = box
        rm, tm = 0.5 * (r0 + r1), 0.5 * (t0 + t1)
        r_children = [(r0, rm, t0, t1), (rm, r1, t0, t1)]
        t_children = [(r0, r1, t0, tm), (r0, r1, tm, t1)]
        r_sum = sum(_panel_value(density, center, b, _XC, _WC) for b in r_children)
        t_sum = sum(_panel_value(density, center, b, _XC, _WC) for b in t_children)
        coarse = _panel_value(density, center, box, _XC, _WC)
        if can_r and (not can_t or abs(r_sum - coarse) >= abs(t_sum - coarse)):
            return r_children
        return t_children

    for box in boxes:
        push(box)
    width_floor = 1e-13 * max(r_outer, 1.0)
    while len(heap) < max_panels:
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            break
        neg_err, cnt, box, fine = heapq.heappop(heap)
        total -= fine
        total_err -= -neg_err
        if -neg_err <= 0.0:
            heapq.heappush(heap, (neg_err, cnt, box, fine))
            total += fine
            total_err += -neg_err
            break
        can_r = (box[1] - box[0]) > width_floor
        can_t = (box[3] - box[2]) > 1e-13
        if not can_r and not can_t:
            heapq.heappush(heap, (0.0, counter, box, fine))
            counter += 1
            total += fine
            continue
        for child in children_of(box, can_r, can_t):
            push(child)

    if emit_particles and emit_mass_frac is not None:
        mass_heap = [(-abs(it[3]), it[1], it[2], it[3], -it[0]) for it in heap]
        heapq.heapify(mass_heap)
        while len(mass_heap) < max_panels:
            neg_mass, _, box, fine, err = mass_heap[0]
            if -neg_mass <= emit_mass_frac * abs(total):
                break
            heapq.heappop(mass_heap)
            can_r = (box[1] - box[0]) > width_floor
            can_t = (box[3] - box[2]) > 1e-13
            if not can_r and not can_t:
                heapq.heappush(mass_heap, (0.0, counter, box, fine, err))
                counter += 1
                continue
            total -= fine
            total_err -= err
            for child in children_of(box, can_r, can_t):
                c_coarse = _panel_value(density, center, child, _XC, _WC)
                c_fine = _panel_value(density, center, child, _XF, _WF)
                c_err = abs(c_fine - c_coarse)
                heapq.heappush(mass_heap, (-abs(c_fine), counter, child, c_fine, c_err))
                counter += 1
                total += c_fine
                total_err += c_err
        final_boxes = [(it[2], it[3]) for it in mass_heap]
        error = float(sum(it[4] for it in mass_heap))
    else:
        final_boxes = [(it[2], it[3]) for it in heap]
        error = float(sum(-it[0] for it in heap))
    value = float(sum(v for _, v in final_boxes))

    points = np.zeros(0, dtype=np.complex128)
    weights = np.zeros(0, dtype=np.float64)
    if emit_particles:
        frac = emit_mass_frac if emit_mass_frac is not None else 1.0 / 64.0
        shell_target = 0.25 * frac * abs(value)
        pts_list, wts_list = [], []
        for box, fine in final_boxes:
            n_shell = 4
            if shell_target > 0.0:
                n_shell = int(np.clip(np.ceil(abs(fine) / shell_target), 4, 24))
            z, w = _emit_cdf_nodes(density, center, box, fine, n_shell)
            pts_list.append(z)
            wts_list.append(w)
        points = np.concatenate(pts_list)
        weights = np.concatenate(wts_list)
        order = np.argsort(points.real, kind="stable")
        points, weights = points[order], weights[order]
    return PanelQuadrature(value, error, points, weights, len(final_boxes))


def _bits(x):
    return np.asarray(x).tobytes()


def zero_density(z):
    return np.zeros_like(z, dtype=float)


def partial_zero_density(z):
    """Smooth bump on a disk of radius 1/2 about 0.3, zero outside it, so some
    panels are partly and some wholly outside its support."""
    return np.maximum(0.25 - np.abs(z - 0.3) ** 2, 0.0) ** 4


# the keyword arguments density_to_measure passes for the bubble families
MEASURE_KWARGS = {
    "rel_tol": 1e-7,
    "abs_tol": 1e-12,
    "emit_particles": True,
    "emit_mass_frac": 2.5e-3,
}

SINGLE_PASS_CASES = [
    *[(f"fs_k{k:g}", (fs_density(k), 0j, 1.0), {}) for k in (1.0, 10.0, 100.0, 1e3, 1e4)],
    ("off_centre_annulus", (fs_density(10.0), 0.2 - 0.1j, 1.0), {"r_inner": 0.25}),
    ("budget_cap", (fs_density(1e4), 0j, 1.0), {"rel_tol": 1e-12, "max_panels": 80}),
    (
        "emission",
        (fs_density(100.0), 0j, 1.0),
        {"emit_particles": True, "emit_mass_frac": 2.5e-3},
    ),
    ("emission_default_frac", (fs_density(100.0), 0j, 1.0), {"emit_particles": True}),
    ("zero_density", (zero_density, 0j, 1.0), {}),
    (
        "bubble1_k3162_measure",
        (RationalMap(np.array([3162.0, 0.0]), np.array([1.0])).density, 0j, 1.0),
        MEASURE_KWARGS,
    ),
    (
        "bubble2_k316_measure",
        (RationalMap(np.array([316.0, 0.0, -316.0 * 0.25]), np.array([1.0])).density, 0j, 1.0),
        MEASURE_KWARGS,
    ),
    # 186 final panels: more than one emission chunk, and a partial last chunk
    (
        "emission_off_centre_annulus",
        (fs_density(10.0), 0.2 - 0.1j, 1.0),
        {"r_inner": 0.25, "emit_particles": True, "emit_mass_frac": 1e-2},
    ),
    # zero total: no shell target, and every panel emits nothing
    ("zero_density_emission", (zero_density, 0j, 1.0), {"emit_particles": True}),
    # panels with zero-mass radial rows, and panels that emit nothing beside
    # panels that do
    (
        "partial_zero_emission",
        (partial_zero_density, 0j, 1.0),
        {"emit_particles": True, "emit_mass_frac": 1e-2},
    ),
]


@pytest.mark.parametrize(
    "args, kwargs", [c[1:] for c in SINGLE_PASS_CASES], ids=[c[0] for c in SINGLE_PASS_CASES]
)
def test_shared_split_matches_two_pass_reference(args, kwargs):
    got = adaptive_polar_quadrature(*args, **kwargs)
    want = two_pass_reference(*args, **kwargs)
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.error) == _bits(want.error)
    assert got.n_panels == want.n_panels
    assert got.points.dtype == want.points.dtype and got.weights.dtype == want.weights.dtype
    assert _bits(got.points) == _bits(want.points)
    assert _bits(got.weights) == _bits(want.weights)


def test_density_calls_are_batched():
    """2 calls for the initial grid, 2 per split (four coarse candidate halves,
    then the two chosen fine children) and one per 32 emitted panels, over
    exactly the nodes a per-panel evaluation visits."""
    calls = points = 0

    def counted(z):
        nonlocal calls, points
        calls += 1
        points += z.size
        return fs_density(100.0)(z)

    res = adaptive_polar_quadrature(
        counted, 0j, 1.0, emit_particles=True, emit_mass_frac=2.5e-3
    )
    assert res.n_panels == 610
    splits = res.n_panels - 64
    assert calls == 2 + 2 * splits + math.ceil(res.n_panels / 32) == 1114
    # per panel: 64 + 256 initial nodes; per split: 4 * 64 coarse and
    # 2 * 256 fine nodes; per emitted panel: 48 x 8 cell midpoints
    assert points == 64 * 320 + splits * 768 + res.n_panels * 384 == 674048
