"""Adaptive polar quadrature against an independent integrator and a two-pass reference."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bubbletree import PanelQuadrature, RationalMap, adaptive_polar_quadrature, quadrature

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


def test_particle_emission_preserves_total_and_balls():
    k = 100.0
    res = adaptive_polar_quadrature(fs_density(k), 0j, 1.0, emit_mass_frac=2.5e-3)
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
    rel_tol=1e-9,
    abs_tol=1e-14,
    max_panels=20000,
    emit_mass_frac=None,
):
    """Reference: the error pass and the granularity pass written out apart,
    one density call per panel rule, re-evaluating the coarse rule of every
    panel they split and of both chosen children (nine panel rules per
    split), and one density call per emitted panel."""
    boxes = []
    redges = np.linspace(0.0, r_outer, 9)
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

    if emit_mass_frac is not None:
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
    if emit_mass_frac is not None:
        shell_target = 0.25 * emit_mass_frac * abs(value)
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


def point_density(z):
    """Integrable point singularity off the centre: at rel_tol 1e-15 every
    panel stays above tolerance, so the budget stops the refinement and
    panels at the singularity retire at the width floor."""
    return np.abs(z - (0.3 + 0.2j)) ** -1.5


POINT_KWARGS = {"rel_tol": 1e-15, "abs_tol": 0.0, "max_panels": 1500}

# the keyword arguments density_to_measure passes for the bubble families
MEASURE_KWARGS = {"rel_tol": 1e-7, "abs_tol": 1e-12, "emit_mass_frac": 2.5e-3}

SINGLE_PASS_CASES = [
    *[(f"fs_k{k:g}", (fs_density(k), 0j, 1.0), {}) for k in (1.0, 10.0, 100.0, 1e3, 1e4)],
    ("off_centre_disk", (fs_density(10.0), 0.2 - 0.1j, 1.0), {}),
    ("budget_cap", (fs_density(1e4), 0j, 1.0), {"rel_tol": 1e-12, "max_panels": 80}),
    ("emission", (fs_density(100.0), 0j, 1.0), {"emit_mass_frac": 2.5e-3}),
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
    # 189 final panels: more than one emission chunk, and a partial last chunk
    ("emission_off_centre_disk", (fs_density(10.0), 0.2 - 0.1j, 1.0), {"emit_mass_frac": 1e-2}),
    # zero total: no shell target, and every panel emits nothing
    ("zero_density_emission", (zero_density, 0j, 1.0), {"emit_mass_frac": 1e-2}),
    # panels with zero-mass radial rows, and panels that emit nothing beside
    # panels that do
    ("partial_zero_emission", (partial_zero_density, 0j, 1.0), {"emit_mass_frac": 1e-2}),
    # the budget stops the granularity pass early: 8 of the 80 panels hold 24
    # shells and the rest 4, so two chunks mix shell counts and the last holds
    # 4-shell panels only
    (
        "bubble2_k300_budget_emission",
        (RationalMap(np.array([300.0, 0.0, -300.0 * 0.25]), np.array([1.0])).density, 0j, 1.0),
        {**MEASURE_KWARGS, "max_panels": 80},
    ),
    # the budget ends both passes with splits computed ahead and never used,
    # and retired panels (no split) sit in the same batches as split ones
    ("point_singularity", (point_density, 0j, 1.0), POINT_KWARGS),
    (
        "point_singularity_emission",
        (point_density, 0j, 1.0),
        {**POINT_KWARGS, "emit_mass_frac": 1e-2},
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


# cell masses with empty cells and subnormal ones (whose brackets overflow
# np.interp's slope), cell edges that may start at -0.0, and targets on,
# between and beyond the cumulative edges
_CELL_MASSES = st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 0.5, 1.0, 3.0])


@st.composite
def _quantile_rows(draw):
    n_rows, n_cells = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    n_targets = draw(st.integers(1, 6))
    size = n_rows * n_cells
    masses = np.array(draw(st.lists(_CELL_MASSES, min_size=size, max_size=size)))
    cum = np.zeros((n_rows, n_cells + 1))
    np.cumsum(masses.reshape(n_rows, n_cells), axis=1, out=cum[:, 1:])
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n_cells, max_size=n_cells))
    start = draw(st.sampled_from([-0.0, 0.0, 0.25]))
    redges = np.tile(np.concatenate([[start], start + np.cumsum(steps)]), (n_rows, 1))
    targets = np.empty((n_rows, n_targets))
    for i in range(n_rows):
        for k in range(n_targets):
            kind = draw(st.sampled_from(["edge", "between", "beyond"]))
            if kind == "edge":
                targets[i, k] = cum[i, draw(st.integers(0, n_cells))]
            elif kind == "between":
                targets[i, k] = draw(st.floats(0.0, 1.0)) * cum[i, -1]
            else:
                targets[i, k] = cum[i, -1] + draw(st.floats(1e-3, 1.0))
    return cum, redges, targets


@given(_quantile_rows())
@settings(max_examples=300)
def test_quantile_cells_match_interp_and_searchsorted(case):
    cum, redges, targets = case
    rows, radii = quadrature._quantile_cells(cum, redges, targets)
    n_cells = cum.shape[1] - 1
    for i in range(len(cum)):
        want_rows = np.clip(np.searchsorted(cum[i], targets[i]) - 1, 0, n_cells - 1)
        assert rows[i].tolist() == want_rows.tolist()
        assert _bits(radii[i]) == _bits(np.interp(targets[i], cum[i], redges[i]))


BUBBLE_MEASURE_CASES = [c for c in SINGLE_PASS_CASES if c[0].endswith("_measure")]


@pytest.mark.parametrize("batch", [1, 256])
@pytest.mark.parametrize(
    "args, kwargs",
    [c[1:] for c in BUBBLE_MEASURE_CASES],
    ids=[c[0] for c in BUBBLE_MEASURE_CASES],
)
def test_split_batch_does_not_change_results(monkeypatch, args, kwargs, batch):
    want = adaptive_polar_quadrature(*args, **kwargs)
    monkeypatch.setattr(quadrature, "_SPLIT_BATCH", batch)
    got = adaptive_polar_quadrature(*args, **kwargs)
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.error) == _bits(want.error)
    assert got.n_panels == want.n_panels
    assert _bits(got.points) == _bits(want.points)
    assert _bits(got.weights) == _bits(want.weights)


def test_density_calls_are_batched():
    """2 calls for the initial grid, 2 per batch of splits (four coarse
    candidate halves per panel, then the chosen fine children) and one per 32
    emitted panels.  Splitting one panel at a time visits 674,048 nodes; the
    lookahead takes only panels the pass must split, so here it visits no
    more."""
    calls = points = 0

    def counted(z):
        nonlocal calls, points
        calls += 1
        points += z.size
        return fs_density(100.0)(z)

    res = adaptive_polar_quadrature(counted, 0j, 1.0, emit_mass_frac=2.5e-3)
    assert res.n_panels == 610
    splits = res.n_panels - 64
    assert calls == 2 + 2 * 21 + math.ceil(res.n_panels / 32) == 64
    # per panel: 64 + 256 initial nodes; per split: 4 * 64 coarse and
    # 2 * 256 fine nodes; per emitted panel: 48 x 8 cell midpoints
    sequential = 64 * 320 + splits * 768 + res.n_panels * 384
    assert sequential == 674048
    assert points == sequential
