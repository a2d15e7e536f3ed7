"""Adaptive polar quadrature against an independent integrator and an accuracy
reference that splits one panel at a time (``two_pass_reference``, named for the
two passes it once wrote out)."""

import heapq
import math

import numpy as np
import pytest
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


def test_panel_budget_caps_refinement(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 80)
    res = adaptive_polar_quadrature(fs_density(1e4), 0j, 1.0, rel_tol=1e-12)
    assert res.n_panels <= 80
    assert res.error > 0.0


def test_error_keeps_the_panels_retired_at_the_width_floor(monkeypatch):
    """A panel too narrow to split retires with its fine-coarse difference,
    which the reported error must still count: near a strong point
    singularity the retired panels hold far more than the error target, so
    the integral must come back above its bound."""
    monkeypatch.setattr(quadrature, "_ABS_TOL", 0.0)
    retired = []
    split_panels = quadrature._split_panels

    def recording(density, center, panels, width_floor):
        out = split_panels(density, center, panels, width_floor)
        retired.extend(box for box, children in out.items() if children is None)
        return out

    monkeypatch.setattr(quadrature, "_split_panels", recording)

    def density(z):
        return np.abs(z - (0.3 + 0.2j)) ** -1.99

    res = adaptive_polar_quadrature(density, 0j, 1.0, rel_tol=1e-6)
    assert retired
    fine = [_panel_value(density, 0j, box, _XF, _WF) for box in retired]
    coarse = [_panel_value(density, 0j, box, _XC, _WC) for box in retired]
    held = sum(abs(f - c) for f, c in zip(fine, coarse))
    assert held > 1e-6 * abs(res.value)
    assert res.error >= held * (1.0 - 1e-12)
    assert res.error > 1e-6 * abs(res.value)


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


def two_pass_reference(density, center, r_outer, rel_tol=1e-9):
    """Reference: the error pass one split at a time, one density call per
    panel rule, re-evaluating the coarse rule of every panel it splits and of
    both chosen children (nine panel rules per split).  The absolute floor and
    the panel budget are the module's, read at the call."""
    abs_tol, max_panels = quadrature._ABS_TOL, quadrature._MAX_PANELS
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
        heapq.heappush(heap, (-err, counter, box, fine, err))
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
        key, cnt, box, fine, err = heapq.heappop(heap)
        total -= fine
        total_err -= err
        if key >= 0.0:
            heapq.heappush(heap, (key, cnt, box, fine, err))
            total += fine
            total_err += err
            break
        can_r = (box[1] - box[0]) > width_floor
        can_t = (box[3] - box[2]) > 1e-13
        if not can_r and not can_t:
            # retired: out of the queue and the running sum, not the error
            heapq.heappush(heap, (0.0, counter, box, fine, err))
            counter += 1
            total += fine
            continue
        for child in children_of(box, can_r, can_t):
            push(child)

    value = float(sum(it[3] for it in heap))
    error = float(sum(it[4] for it in heap))
    return PanelQuadrature(value, error, len(heap))


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


def pole_sum(lams, poles):
    """f = sum lam_i / (z - p_i): a bubble of scale |lam_i| at each pole."""
    den = np.poly(poles)
    num = sum(lam * np.poly([q for q in poles if q != p]) for lam, p in zip(lams, poles))
    return RationalMap(num, den)


# a degree-4 pole sum at scale 3000, as the benchmark draws them: poles in
# [-0.5, 0.5]^2 at least 0.1 apart, |lam_i| = 1 / (3000 u) with u in [0.5, 1]
POLES = [0.31 + 0.12j, -0.27 + 0.38j, -0.08 - 0.41j, 0.44 - 0.29j]
PHASES_AND_U = [(0.1, 0.6), (0.45, 0.9), (0.7, 0.55), (0.9, 1.0)]
LAMS = [np.exp(2j * np.pi * a) / (3000.0 * u) for a, u in PHASES_AND_U]
POLE_SUM = pole_sum(LAMS, POLES)
CAP_RADIUS = 0.55

# the quadrature constants a case runs at, where they differ from the module's
BUDGET_80 = {"_MAX_PANELS": 80}
POINT_LIMITS = {"_ABS_TOL": 0.0, "_MAX_PANELS": 1500}

# the energy densities of bubble family members, at a looser tolerance
MEASURE_KWARGS = {"rel_tol": 1e-7}

# (id, positional arguments, keyword arguments, quadrature constants)
SINGLE_PASS_CASES = [
    *[(f"fs_k{k:g}", (fs_density(k), 0j, 1.0), {}, {}) for k in (1.0, 10.0, 100.0, 1e3, 1e4)],
    ("off_centre_disk", (fs_density(10.0), 0.2 - 0.1j, 1.0), {}, {}),
    ("budget_cap", (fs_density(1e4), 0j, 1.0), {"rel_tol": 1e-12}, BUDGET_80),
    ("zero_density", (zero_density, 0j, 1.0), {}, {}),
    (
        "bubble1_k3162_measure",
        (RationalMap(np.array([3162.0, 0.0]), np.array([1.0])).density, 0j, 1.0),
        MEASURE_KWARGS,
        {},
    ),
    (
        "bubble2_k316_measure",
        (RationalMap(np.array([316.0, 0.0, -316.0 * 0.25]), np.array([1.0])).density, 0j, 1.0),
        MEASURE_KWARGS,
        {},
    ),
    # energy quadratures of the benchmark's pole sums, which the error pass
    # ends: the z chart, the reversed chart beyond the cap, a cap about a pole
    ("pole_sum_disk", (POLE_SUM.density, 0j, 1.0), {"rel_tol": 1e-9}, {}),
    (
        "pole_sum_reversed_chart",
        (POLE_SUM.chart_reversed().density, 0j, 1.0 / CAP_RADIUS),
        {"rel_tol": 1e-9},
        {},
    ),
    (
        "pole_sum_pole_cap",
        (POLE_SUM.density, POLES[0], 10.0 * abs(LAMS[0])),
        {"rel_tol": 1e-9},
        {},
    ),
    # the budget ends the pass, and retired panels (no split) sit in the
    # same levels as split ones
    ("point_singularity", (point_density, 0j, 1.0), {"rel_tol": 1e-15}, POINT_LIMITS),
]


def set_constants(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(quadrature, name, value)


@pytest.mark.parametrize(
    "args, kwargs, constants",
    [c[1:] for c in SINGLE_PASS_CASES],
    ids=[c[0] for c in SINGLE_PASS_CASES],
)
def test_shared_split_matches_two_pass_reference(monkeypatch, args, kwargs, constants):
    """The level loop and the reference agree within their summed error
    estimates, plus rounding (fs_k1 differs by 6.2e-15 on errors of 1.3e-15).
    The level loop resolves its target, except in the cases run on a small
    panel budget, where both runs fill it."""
    set_constants(monkeypatch, constants)
    got = adaptive_polar_quadrature(*args, **kwargs)
    want = two_pass_reference(*args, **kwargs)
    assert abs(got.value - want.value) <= got.error + want.error + 1e-14 * abs(want.value)
    if "_MAX_PANELS" in constants:
        assert got.n_panels == want.n_panels == quadrature._MAX_PANELS
    else:
        target = max(quadrature._ABS_TOL, kwargs.get("rel_tol", 1e-9) * abs(got.value))
        assert got.error <= target
    assert got.points.size == 0


BATCH_CASES = [c for c in SINGLE_PASS_CASES if c[0].endswith("_measure") or "pole_sum" in c[0]]


@pytest.mark.parametrize("batch", [1, 256])
@pytest.mark.parametrize(
    "args, kwargs, constants",
    [c[1:] for c in BATCH_CASES],
    ids=[c[0] for c in BATCH_CASES],
)
def test_split_batch_does_not_change_results(monkeypatch, args, kwargs, constants, batch):
    """A panel's values do not depend on which panels share its density call:
    splitting each level's panels ``batch`` at a time gives the same bits."""
    set_constants(monkeypatch, constants)
    want = adaptive_polar_quadrature(*args, **kwargs)
    split_panels = quadrature._split_panels

    def batched(density, center, panels, width_floor):
        out = {}
        for i in range(0, len(panels), batch):
            out.update(split_panels(density, center, panels[i : i + batch], width_floor))
        return out

    monkeypatch.setattr(quadrature, "_split_panels", batched)
    got = adaptive_polar_quadrature(*args, **kwargs)
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.error) == _bits(want.error)
    assert got.n_panels == want.n_panels


def test_nan_density_returns():
    """A NaN error sum meets no target, so no level splits a panel and the
    integration returns at once with a non-finite value."""
    res = adaptive_polar_quadrature(lambda z: np.full(z.shape, np.nan), 0j, 1.0)
    assert not np.isfinite(res.value)
    assert res.n_panels <= quadrature._MAX_PANELS


def counted_run(density, *args, **kwargs):
    """The result, and the density calls and nodes it took."""
    calls = points = 0

    def counted(z):
        nonlocal calls, points
        calls += 1
        points += z.size
        return density(z)

    return adaptive_polar_quadrature(counted, *args, **kwargs), calls, points


def test_density_calls_are_batched():
    """2 calls for the initial grid and 2 per level of splits (four coarse
    candidate halves per panel, then the chosen fine children).  Splitting one
    panel at a time visits 45,056 nodes; each level splits only the shortest
    worst-first prefix that meets the target, so here it visits no more."""
    res, calls, points = counted_run(fs_density(100.0), 0j, 1.0)
    assert res.n_panels == 96
    splits = res.n_panels - 64
    assert calls == 2 + 2 * 4 == 10
    # per panel: 64 + 256 initial nodes; per split: 4 * 64 coarse and
    # 2 * 256 fine nodes
    sequential = 64 * 320 + splits * 768
    assert sequential == 45056
    assert points == sequential


# (id, positional arguments, keyword arguments, quadrature constants, most
# density calls, reference nodes).  The reference is an earlier batched split,
# which split each popped panel with up to 31 next worst queued panels whose
# own error passed the bound; it took 100 and 762 calls on these cases.
WORK_CASES = [
    # the error target ends it: at most half the reference's calls
    ("fs_k1e4_error_pass", (fs_density(1e4), 0j, 1.0), {"rel_tol": 1e-9}, {}, 50, 86528),
    # the panel budget ends it: no more calls
    (
        "point_singularity",
        (point_density, 0j, 1.0),
        {"rel_tol": 1e-15},
        POINT_LIMITS,
        762,
        1751552,
    ),

]


@pytest.mark.parametrize(
    "args, kwargs, constants, max_calls, reference_nodes",
    [c[1:] for c in WORK_CASES],
    ids=[c[0] for c in WORK_CASES],
)
def test_frontier_work_counts(monkeypatch, args, kwargs, constants, max_calls, reference_nodes):
    """At most ``max_calls`` density calls, and at most 10% more nodes than
    the reference took."""
    set_constants(monkeypatch, constants)
    _, calls, points = counted_run(*args, **kwargs)
    assert calls <= max_calls
    assert points <= 1.1 * reference_nodes
