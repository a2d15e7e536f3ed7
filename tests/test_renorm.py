"""Neck-scale solver, balanced centers, and marking validation."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bubbletree import (
    ScaleLadder,
    WeightedParticleMeasure,
    build_nodal_pushforward,
    center_functional,
    extract_bubble_tree,
    find_balanced_center,
    mark_nodal_bubble,
    mark_smooth_bubble,
    renormalization_map,
    solve_neck_scale,
    solve_neck_scale_from_cdf,
)
from bubbletree import renorm
from bubbletree.errors import CenterError, MarkingError, NeckScaleError
from bubbletree.renorm import NeckScaleResult

FOUR_PI = 4.0 * math.pi
T_ORACLE = 2.0 * math.sqrt(3.0) - 3.0


def radial_quantile_atoms(cdf_inverse, n, mass=1.0, center=0j, chart=10.0, seed=0):
    rng = np.random.default_rng(seed)
    qs = (np.arange(n) + 0.5) / n
    r = np.minimum(np.asarray(cdf_inverse(qs), dtype=float), chart - abs(center))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    pts = center + r * np.exp(1j * th)
    return WeightedParticleMeasure(pts, np.full(n, mass / n), chart)


def test_cross_ratio_normalization_points():
    q, t = 0.3 + 0.1j, 0.25
    mob = renormalization_map(q, t)
    assert mob(q) == 0.0
    s = t / (1.0 - t)
    assert abs(mob(q + s) - 1.0) <= 1e-15


def test_uniform_disk_neck_scale_cdf_oracle():
    res = solve_neck_scale_from_cdf(
        lambda s: max(0.0, 1.0 - s * s), total=1.0, eps_bar=0.25
    )
    assert abs(res.t - T_ORACLE) <= 1e-9
    fs = [f for _, f in res.history]
    ts = [t for t, _ in res.history]
    order = np.argsort(ts)
    sorted_f = np.asarray(fs)[order]
    assert np.all(np.diff(sorted_f) <= 1e-12)


def test_particle_route_agrees_with_cdf_route():
    # dual routes on the same density: atoms quantile-sampled from the
    # uniform disk vs the closed-form mass function; the particle solve
    # lands on the jump nearest the level, so it misses eps_bar by at most
    # half an atom's weight, and its tolerance widens to that jump
    n = 200_000
    mu = radial_quantile_atoms(np.sqrt, n, mass=1.0)
    res = solve_neck_scale(mu, 0j, 0.25)
    assert abs(res.t - T_ORACLE) <= 1e-4
    assert res.residual <= 0.5 / n * (1.0 + 1e-9)
    assert res.mass_outside == pytest.approx(0.25, abs=res.tol_effective)


def test_neck_scale_monotone_history_on_random_smooth_profiles():
    rng = np.random.default_rng(42)
    for _ in range(100):
        # random smooth radial density: mixture of squared-exponential bumps
        k = rng.integers(1, 4)
        amps = rng.uniform(0.5, 2.0, k)
        scales = rng.uniform(0.2, 2.0, k)

        def mass_outside(s, amps=amps, scales=scales):
            return float(np.sum(amps * np.exp(-((s / scales) ** 2))))

        total = mass_outside(0.0)
        eps_bar = rng.uniform(0.1, 0.9) * total
        res = solve_neck_scale_from_cdf(mass_outside, total, eps_bar)
        ts = np.array([t for t, _ in res.history])
        fs = np.array([f for _, f in res.history])
        order = np.argsort(ts)
        assert np.all(np.diff(fs[order]) <= 1e-12 * total)
        assert abs(res.mass_outside - eps_bar) <= res.tol_effective


def test_neck_scale_rejects_insufficient_mass():
    mu = WeightedParticleMeasure(np.array([0.5 + 0j]), np.array([0.1]), 1.0)
    with pytest.raises(NeckScaleError, match="below quantum"):
        solve_neck_scale(mu, 0j, 0.2)


def _particle_tie(a, total):
    """solve_neck_scale on atoms at distances 0, 2 and 3 from q = 0 of the
    given total mass, with eps_bar = 1 halfway across the jump at 2: the
    mass outside reads 1 + a at its lower end and 1 - a at its upper."""
    wts = np.array([total - 1.0 - a, 2.0 * a, 1.0 - a])
    mu = WeightedParticleMeasure(np.array([0j, 2.0 + 0j, 3.0 + 0j]), wts, 4.0)
    return solve_neck_scale(mu, 0j, 1.0)


def _cdf_tie(a, total):
    """solve_neck_scale_from_cdf on a profile stepping from 1 + a to 1 - a
    at s = 2, with eps_bar = 1."""
    return solve_neck_scale_from_cdf(lambda s: 1.0 + a if s < 2.0 else 1.0 - a, total, 1.0)


@pytest.mark.parametrize(
    "solve, cap, a",
    [(_particle_tie, renorm._JUMP_CAP, 2.0**-4), (_cdf_tie, renorm._CDF_JUMP_CAP, 2.0**-18)],
    ids=["particle", "cdf"],
)
def test_neck_scale_solves_share_one_acceptance(solve, cap, a):
    # eps_bar sits exactly halfway across a jump of 2a, so both ends are a
    # away: a tie.  With the route's cap on the jump just above a, both
    # routes take the lower end; with it just below, both refuse alike
    res = solve(a, 1.01 * a / cap)
    assert (res.mass_outside, res.residual) == (1.0 + a, a)
    assert res.t == max(t for t, f in res.history if f >= 1.0)
    with pytest.raises(
        NeckScaleError,
        match=r"^mass function not spanning eps_bar: residual \S+ across a jump of \S+$",
    ):
        solve(a, 0.99 * a / cap)


def test_neck_scale_rejects_fat_jump():
    # half the mass sits on one circle: the level cannot be met within the
    # jump and the instance must be refused, not silently accepted
    pts = np.concatenate([np.full(10, 0.5 + 0j), np.full(10, 2.0 + 0j)])
    wts = np.full(20, 0.05)
    mu = WeightedParticleMeasure(pts, wts, 3.0)
    with pytest.raises(NeckScaleError, match="not spanning"):
        solve_neck_scale(mu, 0j, 0.25)


def full_sort_neck_scale(mu, q, eps_bar, tol=None, gap_fraction=0.05):
    """Reference closed form on the fully (stably) sorted radial profile.

    The mass outside radius s is read from prefix sums.  t_lo is the largest
    float t in [0, 1) whose radius t/(1-t) keeps mass >= eps_bar outside,
    found by bisection on the bit patterns of the floats (ordered like the
    floats themselves); t_hi is the next float up."""
    if eps_bar <= 0.0:
        raise NeckScaleError(f"eps_bar must be positive, got {eps_bar}")
    total = mu.mass
    if total <= eps_bar:
        raise NeckScaleError(f"energy below quantum: total mass {total:.6g}")
    tol = 1e-9 * total if tol is None else tol
    d = np.abs(mu.points - q)
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    cum = np.concatenate([[0.0], np.cumsum(mu.weights[order])])
    if d_sorted[-1] == 0.0:
        raise NeckScaleError("energy below quantum: all mass sits at q")

    def radius(t):
        return t / (1.0 - t) if t < 1.0 else math.inf

    def f(t):
        return float(cum[-1] - cum[int(np.searchsorted(d_sorted, radius(t), side="left"))])

    bits = lambda t: int(np.float64(t).view(np.int64))
    lo, hi = bits(0.0), bits(1.0)  # f(0) = total >= eps_bar > f(1) = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(float(np.int64(mid).view(np.float64))) >= eps_bar:
            lo = mid
        else:
            hi = mid
    t_lo = float(np.int64(lo).view(np.float64))
    t_hi = math.nextafter(t_lo, 1.0)
    f_lo, f_hi = f(t_lo), f(t_hi)
    if t_lo == 0.0:
        raise NeckScaleError(f"mass function not spanning eps_bar: only {f_hi:.6g}")
    t_star, f_star = (t_lo, f_lo) if abs(f_lo - eps_bar) <= abs(f_hi - eps_bar) else (t_hi, f_hi)
    residual = abs(f_star - eps_bar)
    tol_effective = max(tol, min(f_lo - f_hi, gap_fraction * total))
    if residual > tol_effective:
        raise NeckScaleError("mass function not spanning eps_bar: residual")
    if not 0.0 < 1.0 / t_star - 1.0 < math.inf:
        raise NeckScaleError("mass function not spanning eps_bar: no finite renormalization")
    s_star = radius(t_star)
    history = ((t_lo, f_lo), (t_hi, f_hi))
    return NeckScaleResult(
        t_star, s_star, f_star, residual, tol_effective, history, np.flatnonzero(d >= s_star)
    )


def full_sort_bisection(mu, q, eps_bar, tol=None, gap_fraction=0.05):
    """Bracket reference: bisection in t = s/(1+s) on the fully (stably)
    sorted radial profile, evaluating the mass function from the prefix sums
    at every step, with an early exit once an end is within tol."""
    if eps_bar <= 0.0:
        raise NeckScaleError(f"eps_bar must be positive, got {eps_bar}")
    total = mu.mass
    if total <= eps_bar:
        raise NeckScaleError(f"energy below quantum: total mass {total:.6g}")
    tol = 1e-9 * total if tol is None else tol
    d = np.abs(mu.points - q)
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    cum = np.concatenate([[0.0], np.cumsum(mu.weights[order])])
    positive = d_sorted[d_sorted > 0.0]
    if not len(positive):
        raise NeckScaleError("energy below quantum: all mass sits at q")
    reachable = float(cum[-1] - cum[int(np.searchsorted(d_sorted, 0.0, side="right"))])
    if reachable <= eps_bar:
        raise NeckScaleError(f"mass function not spanning eps_bar: only {reachable:.6g}")

    def f(t):
        idx = int(np.searchsorted(d_sorted, t / (1.0 - t), side="left"))
        return float(cum[-1] - cum[idx])

    s_lo, s_hi = float(positive[0]) * 0.5, float(d_sorted[-1]) * 2.0 + 1.0
    t_lo, t_hi = s_lo / (1.0 + s_lo), s_hi / (1.0 + s_hi)
    f_lo, f_hi = f(t_lo), f(t_hi)
    history = [(t_lo, f_lo), (t_hi, f_hi)]
    if not (f_lo >= eps_bar >= f_hi):
        raise NeckScaleError("mass function not spanning eps_bar: range")
    while abs(f_lo - eps_bar) > tol and abs(f_hi - eps_bar) > tol and (t_hi - t_lo) > 1e-14:
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = f(t_mid)
        history.append((t_mid, f_mid))
        if f_mid >= eps_bar:
            t_lo, f_lo = t_mid, f_mid
        else:
            t_hi, f_hi = t_mid, f_mid
    history.sort(key=lambda p: p[0])
    gap = f_lo - f_hi
    t_star, f_star = (t_lo, f_lo) if abs(f_lo - eps_bar) <= abs(f_hi - eps_bar) else (t_hi, f_hi)
    residual = abs(f_star - eps_bar)
    tol_effective = max(tol, min(gap, gap_fraction * total))
    if residual > tol_effective:
        raise NeckScaleError("mass function not spanning eps_bar: residual")
    s_star = t_star / (1.0 - t_star)
    return NeckScaleResult(t_star, s_star, f_star, residual, tol_effective, tuple(history))


def _separated(mu, q, eps_bar, tol, gap_fraction=0.05):
    """True when every decision of the solve is clear of rounding: no
    plateau of the mass function (summed exactly) near eps_bar, eps_bar +- tol
    or the fat-jump bound, and eps_bar not near the middle of a jump."""
    d = np.abs(mu.points - q)
    levels = [math.fsum(mu.weights[d >= v]) for v in np.unique(d)] + [0.0]
    margin = 1e-9 * mu.mass
    for p in levels:
        for level in (eps_bar, eps_bar + tol, eps_bar - tol):
            if abs(p - level) <= margin:
                return False
        if abs(abs(p - eps_bar) - gap_fraction * mu.mass) <= margin:
            return False
    return all(abs(0.5 * (a + b) - eps_bar) > margin for a, b in zip(levels, levels[1:]))


def _outcome(solver, *args):
    try:
        return solver(*args)
    except NeckScaleError as exc:
        return exc


@st.composite
def neck_instances(draw):
    """(points, weights, q, eps_bar / total, tol / total or None, first tail size)."""
    q = draw(st.sampled_from([0j, 0.25 - 0.5j]))
    radius = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.floats(0.0, 2.0))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 8.0))
    points, weights = [], []
    for r, k, copies in draw(
        st.lists(st.tuples(radius, st.integers(0, 7), st.integers(1, 4)), min_size=1, max_size=16)
    ):
        # duplicates and, around q = 0, the four axis directions give exact ties
        points += [q + r * complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4))] * copies
        weights += draw(st.lists(weight, min_size=copies, max_size=copies))
    eps_frac = draw(st.one_of(st.floats(0.01, 0.999), st.sampled_from([0.9, 0.99])))
    tol_frac = draw(st.one_of(st.none(), st.floats(1e-6, 0.3)))
    return points, weights, q, eps_frac, tol_frac, draw(st.sampled_from([1, 2, 5, 256]))


def _instance(case):
    """(measure, q, eps_bar, tol or None) of a neck instance."""
    points, weights, q, eps_frac, tol_frac, _ = case
    pts = np.asarray(points, dtype=complex)
    mu = WeightedParticleMeasure(pts, np.asarray(weights), 1.0 + float(np.abs(pts).max()))
    return mu, q, eps_frac * mu.mass, None if tol_frac is None else tol_frac * mu.mass


def _solve(case):
    """solve_neck_scale on a neck instance with its first tail size and tolerance."""
    mu, q, eps_bar, _ = _instance(case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(renorm, "_TAIL_MIN", case[5])
        if case[4] is not None:
            mp.setattr(renorm, "_NECK_TOL", case[4])
        return _outcome(solve_neck_scale, mu, q, eps_bar)


# the tail of one atom stops at two of four tied atoms at distance 1 from q
TAIL_CUT_TIE = ([0.1] * 5 + [1.0, 1j, -1.0, -1j], [1.0] * 9, 0j, 0.3 / 9.0, None, 1)


@given(case=neck_instances())
@example(case=([0.5] * 10 + [2.0] * 10, [0.05] * 20, 0j, 0.3, None, 1))  # fat jump
@example(case=([0j] * 3 + [1.0, 1j, -1.0, -1j], [0.3] * 3 + [0.1] * 4, 0j, 0.28, None, 1))
@example(case=([0j] * 3 + [1.0, 1j, -1.0, -1j], [0.3] * 3 + [0.1] * 4, 0j, 0.35, None, 1))
@example(case=([1.0, 1j, -1.0, -1j, 0.5, 2.0], [1.0, 0.0, 1.0, 0.0, 2.0, 0.25], 0j, 0.97, None, 1))
@example(case=([0.1 * (k + 1) for k in range(12)], [0.5] * 12, 0j, 0.31, 0.15, 1))  # tol exit
@example(  # light far atoms: the tail doubles three times before it holds 2 eps_bar
    case=([0.1] * 10 + [1.0, 1.1, 1.2, 1.3], [1.0] * 10 + [0.04] * 4, 0j, 0.01, None, 1)
)
@example(  # nearest positive distance denormal: its t has no finite renormalization
    case=([0j] * 7 + [5e-324 + 0j], [0.0] * 6 + [1.0, 1.0], 0j, 0.46875, None, 1)
)
@example(case=TAIL_CUT_TIE)
@settings(max_examples=300, deadline=None)
def test_tail_solver_matches_full_sort_bisection(case):
    # bitwise against the full-sort closed form; the full-sort bisection
    # brackets the same crossing
    mu, q, eps_bar, tol = _instance(case)
    total = mu.mass
    assume(total == 0.0 or _separated(mu, q, eps_bar, 1e-9 * total if tol is None else tol))
    got = _solve(case)
    want = _outcome(full_sort_neck_scale, mu, q, eps_bar, tol)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got).split(":")[0] == str(want).split(":")[0]
        return
    assert not isinstance(got, Exception), got
    bound = 1e-12 * total
    assert (got.t, got.s) == (want.t, want.s)
    assert [t for t, _ in got.history] == [t for t, _ in want.history]
    for (_, fg), (_, fw) in zip(got.history, want.history):
        assert abs(fg - fw) <= bound
    assert abs(got.mass_outside - want.mass_outside) <= bound
    assert abs(got.tol_effective - want.tol_effective) <= bound
    assert np.array_equal(got.outside, want.outside)

    old = _outcome(full_sort_bisection, mu, q, eps_bar, tol)
    if isinstance(old, Exception):
        return
    (t_lo, f_lo), (t_hi, f_hi) = [
        max((p for p in old.history if p[1] >= eps_bar), key=lambda p: p[0]),
        min((p for p in old.history if p[1] < eps_bar), key=lambda p: p[0]),
    ]
    assert t_lo <= got.t <= t_hi
    (_, g_lo), (_, g_hi) = got.history
    if abs(f_lo - g_lo) <= bound and abs(f_hi - g_hi) <= bound:  # one jump: the same plateau
        assert abs(got.mass_outside - old.mass_outside) <= bound
    else:  # an early exit or a bracket over several jumps: never a farther plateau
        assert got.residual <= old.residual + bound


@pytest.mark.parametrize(
    "weights, eps_bar",
    [
        ([1.0, 1.0], 0.9375),
        ([0.02, 1.0], 0.99),  # the full-sort bisection returns t = 0 here
    ],
)
def test_neck_scale_refuses_a_cut_with_no_finite_renormalization(weights, eps_bar):
    # the crossing sits at a denormal distance: t = 5e-324 would make the
    # renormalization scale 1/t - 1 infinite
    mu = WeightedParticleMeasure(np.array([0j, 5e-324 + 0j]), np.array(weights), 1.0)
    with pytest.raises(NeckScaleError, match="no finite renormalization"):
        solve_neck_scale(mu, 0j, eps_bar)


@given(case=neck_instances())
@example(case=TAIL_CUT_TIE)
@example(case=([0j] * 3 + [1.0, 1j, -1.0, -1j], [0.3] * 3 + [0.1] * 4, 0j, 0.28, None, 1))
@example(case=([0.25 - 0.5j] * 4 + [0.75 - 0.5j] * 3, [1.0] * 7, 0.25 - 0.5j, 0.4, None, 1))
@settings(max_examples=100, deadline=None)
def test_center_probe_reads_the_cut_atoms(case):
    # the inside mass, F(q) and the centroid from the whole measure less the
    # cut atoms equal the masked sums over the atoms with |x - q| < s, within
    # gamma = 8 (n + 2) 2^-53 of the sums of |w x| and |w q| (recursive or
    # pairwise summation of n products, twice); duplicates, atoms at q and
    # ties at the tail cut come from the instances
    mu, q, eps_bar, _ = _instance(case)
    res = _solve(case)
    assume(not isinstance(res, Exception))
    with mock.patch.object(renorm, "solve_neck_scale", lambda *args: res):
        fq, centroid, got = renorm._center_value(mu, q, eps_bar, renorm._first_moment(mu))
    assert got is res
    w, x = mu.weights, mu.points
    sel = np.abs(x - q) < res.s
    assert np.array_equal(np.flatnonzero(~sel), res.outside)
    inside = math.fsum(w[sel])
    first = complex(math.fsum((w * x)[sel].real), math.fsum((w * x)[sel].imag))
    moment = complex(
        math.fsum((w * (x - q))[sel].real), math.fsum((w * (x - q))[sel].imag)
    ) * (1.0 / res.t - 1.0)
    gamma = 8.0 * (len(mu) + 2) * 2.0**-53
    mass_bound = gamma * mu.mass
    first_bound = gamma * math.fsum(w * np.abs(x))
    assert abs(res.mass_outside - math.fsum(w[~sel])) <= mass_bound
    # twice: the direct sum has its own error, over w |x - q| <= w |x| + w |q|
    assert abs(fq - moment) <= 2.0 * (first_bound + abs(q) * mass_bound) * (1.0 / res.t - 1.0)
    if inside > 2.0 * mass_bound:  # below, rounding leaves the centroid unresolved
        want = first / inside
        err = (first_bound + abs(want) * mass_bound) / (inside - mass_bound)
        assert abs(centroid - want) <= err + 4.0 * 2.0**-53 * abs(want)


def gaussian_cloud(center, sigma, n, mass, chart, seed):
    rng = np.random.default_rng(seed)
    pts = center + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    pts = pts[np.abs(pts) < chart]
    return WeightedParticleMeasure(pts, np.full(len(pts), mass / n), chart)


def test_balanced_center_on_gaussian_clouds(monkeypatch):
    # acceptance-grade property on a handful here; the full 50-instance run
    # lives in the acceptance suite
    monkeypatch.setattr(renorm, "_CENTER_TOL", 1e-8)
    lad = ScaleLadder(1.0, 0.2, 6)
    k = 2
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        delta_2k = lad.delta[2 * k]
        c = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * delta_2k / 2.0
        sigma = 0.002
        mu = gaussian_cloud(c, sigma, 40_000, FOUR_PI, 1.0, seed)
        res = find_balanced_center(mu, lad, k)
        val = center_functional(mu, res.q, 0.2)
        assert abs(val) <= 1e-8 * mu.mass
        assert abs(res.q - c) <= 3.0 * sigma


def step_from_origin_leaves(monkeypatch, radius):
    """Patch the centroid step so that the step from 0 leaves the circle of
    the given radius, which refuses the fixed-point run seeded at 0; F and
    every other step are unchanged.  Returns the list of probes at 0."""
    center_value, origin_probes = renorm._center_value, []

    def leaving(mu, q, eps_bar, first):
        fq, centroid, res = center_value(mu, q, eps_bar, first)
        if q == 0:
            origin_probes.append(q)
            centroid = complex(2.0 * radius)
        return fq, centroid, res

    monkeypatch.setattr(renorm, "_center_value", leaving)
    return origin_probes


def off_center_cloud():
    """A cloud off 0 inside B_2k whose balanced center the run from 0 finds."""
    lad = ScaleLadder(1.0, 0.2, 6)
    k = 2
    c = 0.3 * lad.delta[2 * k] * (0.6 + 0.8j)
    return gaussian_cloud(c, 0.002, 2000, FOUR_PI, 1.0, seed=7), lad, k


def test_balanced_center_refuses_when_origin_run_leaves(monkeypatch):
    # the run from 0 is the only run: when its first step leaves the circle
    # the center is refused, and no other seed is probed
    mu, lad, k = off_center_cloud()
    find_balanced_center(mu, lad, k)  # the unpatched run localizes the zero
    origin_probes = step_from_origin_leaves(monkeypatch, float(lad.delta[2 * k - 1]))
    with pytest.raises(CenterError, match="zero not localized"):
        find_balanced_center(mu, lad, k)
    assert origin_probes == [0]


def test_balanced_center_refuses_a_run_still_moving_at_the_cap(monkeypatch):
    # a cloud symmetric about 0 has its zero at 0; a centroid step patched
    # to creep by 1e-12 of the radius never settles, and although |F| stays
    # far below _CENTER_TOL along the way, the run is refused at the cap
    lad = ScaleLadder(1.0, 0.2, 6)
    k = 2
    half = gaussian_cloud(0.0, 0.002, 1000, FOUR_PI / 2.0, 1.0, seed=7)
    mu = WeightedParticleMeasure(
        np.concatenate([half.points, -half.points]),
        np.concatenate([half.weights, half.weights]),
        1.0,
    )
    creep = 1e-12 * float(lad.delta[2 * k - 1])
    assert abs(find_balanced_center(mu, lad, k).q) <= creep
    center_value, values = renorm._center_value, []

    def creeping(mu, q, eps_bar, first):
        fq, _, res = center_value(mu, q, eps_bar, first)
        values.append(abs(fq))
        return fq, q + creep, res

    monkeypatch.setattr(renorm, "_center_value", creeping)
    with pytest.raises(CenterError, match="zero not localized: centroid step still moving"):
        find_balanced_center(mu, lad, k)
    assert max(values[-61:]) <= 1e-8 * mu.mass


def test_balanced_center_refuses_winding_other_than_one(monkeypatch):
    # a far cluster that pulls the centroid of the measure outside the circle
    # (winding 0), and a lighter one that keeps winding 1 on the 720-sample
    # ring but too little margin to certify it: both are refused by the
    # closed-form boundary bound, before any probe of F
    lad = ScaleLadder(1.0, 0.2, 6)
    k = 2
    radius = float(lad.delta[2 * k - 1])
    measures = [far_cluster_measure(radius, gap) for gap in (-0.5, 0.01)]
    for mu, winding in zip(measures, (0, 1)):
        value = lambda q, mu=mu: center_functional(mu, q, lad.eps_bar)
        assert fixed_ring(value, radius)[0] == winding
    center_value, probes = renorm._center_value, []

    def counted(mu, q, eps_bar, first):
        probes.append(q)
        return center_value(mu, q, eps_bar, first)

    monkeypatch.setattr(renorm, "_center_value", counted)
    for mu in measures:
        with pytest.raises(CenterError, match="degree argument fails: boundary margin"):
            find_balanced_center(mu, lad, k)
    assert probes == []


def test_balanced_center_needs_concentration():
    lad = ScaleLadder(1.0, 0.2, 6)
    mu = radial_quantile_atoms(lambda q: 0.9 * np.sqrt(q), 5000, mass=6.0, chart=1.0)
    with pytest.raises(CenterError, match="not concentrated"):
        find_balanced_center(mu, lad, 3)


def test_mark_smooth_bubble_levels_and_bounds(monkeypatch):
    monkeypatch.setattr(renorm, "_CENTER_TOL", 1e-6)
    lad = ScaleLadder(1.0, 0.2, 6)
    mus = []
    for k in (316.0, 3162.0, 10000.0):
        inv = lambda q, k=k: np.sqrt(q / (1.0 - q)) / k
        mus.append(radial_quantile_atoms(inv, 60_000, mass=FOUR_PI, chart=1.0, seed=int(k)))
    marks = mark_smooth_bubble(mus, lad)
    assert [m.level for m in marks] == [1, 2, 3]
    for m, k in zip(marks, (316.0, 3162.0, 10000.0)):
        assert m.case == 1
        # cut radius approximates the eps_bar quantile of the profile
        s_expected = math.sqrt((FOUR_PI - 0.2) / 0.2) / k
        assert abs(m.r - m.q) == pytest.approx(s_expected, rel=0.05)
        assert abs(m.r) <= lad.delta[m.level] * (1.0 + 1e-9)


def test_mark_smooth_bubble_scale_must_shrink(monkeypatch):
    monkeypatch.setattr(renorm, "_CENTER_TOL", 1e-6)
    lad = ScaleLadder(1.0, 0.2, 6)
    inv = lambda q: 0.3 * np.sqrt(q / (1.0 - q))
    mus = [
        radial_quantile_atoms(inv, 20_000, mass=FOUR_PI, chart=1.0, seed=s)
        for s in (1, 2)
    ]
    with pytest.raises(MarkingError):
        mark_smooth_bubble(mus, lad)


def test_mark_nodal_bubble_refusals(plumbing_bubble_family, plumbing_bubble_tree):
    lad = ScaleLadder(0.5, 0.2, 6)
    fields = [m.field for m in plumbing_bubble_family.members]
    mus = [build_nodal_pushforward(f) for f in fields]
    pinches = [f.pinch for f in fields]
    # the driver marks the measures it detected on: same ratios as a fresh marking
    nodal = [n for n in plumbing_bubble_tree.necks if n.kind == "nodal"][0]
    members = list(nodal.members)
    marks = mark_nodal_bubble(
        [mus[i] for i in members], [pinches[i] for i in members], lad
    )
    assert tuple(m.neck_ratio for m in marks) == nodal.thinness_ratios
    # thinness ratios that grow (members out of order) or repeat are refused
    for order in ([2, 1], [1, 1]):
        with pytest.raises(MarkingError, match="nodal bubble hypothesis violated"):
            mark_nodal_bubble([mus[i] for i in order], [pinches[i] for i in order], lad)
    with pytest.raises(MarkingError, match="pinches"):
        mark_nodal_bubble(mus[1:3], pinches[1:2], lad)
    with pytest.raises(MarkingError, match="no members"):
        mark_nodal_bubble([], [], lad)


def two_smooth_clouds():
    """Radial clouds of 20k atoms concentrating at scales 1/316 and 1/3162."""
    return [
        radial_quantile_atoms(
            lambda q, k=k: np.sqrt(q / (1.0 - q)) / k, 20_000, mass=FOUR_PI, chart=1.0, seed=int(k)
        )
        for k in (316.0, 3162.0)
    ]


def test_marking_refuses_a_neck_scale_that_misses_eps_bar(monkeypatch):
    # a center whose neck scale is 20% too wide leaves too little mass outside
    real = renorm.find_balanced_center

    def wide(mu, ladder, k):
        c = real(mu, ladder, k)
        return dataclasses.replace(c, scale=dataclasses.replace(c.scale, t=c.scale.t * 1.2))

    monkeypatch.setattr(renorm, "find_balanced_center", wide)
    with pytest.raises(MarkingError, match="misses eps_bar"):
        mark_smooth_bubble(two_smooth_clouds(), ScaleLadder(1.0, 0.2, 6))


def test_marking_refuses_an_off_center_renormalization(monkeypatch):
    # moving q by 1e-4 of the cut radius keeps the mass outside but not the balance
    real = renorm.find_balanced_center

    def shifted(mu, ladder, k):
        c = real(mu, ladder, k)
        return dataclasses.replace(c, q=c.q + 1e-4 * c.scale.s)

    monkeypatch.setattr(renorm, "find_balanced_center", shifted)
    with pytest.raises(MarkingError, match="renormalized center of mass .* exceeds tolerance"):
        mark_smooth_bubble(two_smooth_clouds(), ScaleLadder(1.0, 0.2, 6))


def test_nodal_marking_refuses_a_cut_outside_the_working_scale(plumbing_bubble_family):
    fields = [m.field for m in plumbing_bubble_family.members][-2:]
    mus = [build_nodal_pushforward(f) for f in fields]
    with pytest.raises(MarkingError, match=r"cut point \|r\| = .* outside B\(0, 5e-05\)"):
        mark_nodal_bubble(mus, [f.pinch for f in fields], ScaleLadder(1e-4, 0.2, 6))


def fixed_ring(value, radius, samples=720):
    """Reference: the fixed boundary ring of find_balanced_center before the
    certified one, with principal increments summed over equally spaced
    samples.  Returns (winding, whether F points inward at every sample)."""
    qs = radius * np.exp(1j * (np.arange(samples) * (2.0 * np.pi / samples)))
    vals = np.array([value(q) for q in qs])
    ang = np.angle(vals)
    inc = np.diff(np.concatenate([ang, ang[:1]]))
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(np.sum(inc) / (2.0 * np.pi)))), bool(np.all(np.real(vals / -qs) > 0.0))


def acceptance_clouds():
    """The 50 Gaussian clouds of test_04 in tests/test_acceptance.py."""
    lad = ScaleLadder(1.0, 0.2, 6)
    big_radius = float(lad.delta[4])
    n = 10_000
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        r = big_radius * math.sqrt(rng.uniform(0.01, 0.64))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        c = r * complex(math.cos(ang), math.sin(ang))
        sigma = (big_radius - abs(c)) / 20.0
        pts = c + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        yield WeightedParticleMeasure(pts, np.full(n, FOUR_PI / n), 1.0), lad, 2


def _assert_matches_fixed_ring(calls):
    # a certified center has winding 1 and F inward on the whole circle
    for mu, lad, k, res in calls:
        assert res.margin > 0.0
        value = lambda q: center_functional(mu, q, lad.eps_bar)
        assert fixed_ring(value, float(lad.delta[2 * k - 1])) == (1, True)


def test_certified_ring_matches_fixed_ring_on_gaussian_clouds():
    _assert_matches_fixed_ring(
        [(mu, lad, k, find_balanced_center(mu, lad, k)) for mu, lad, k in acceptance_clouds()]
    )


@pytest.fixture(scope="module", params=["bubble1_family", "bubble2_family"])
def bubble_centers(request):
    """(mu, ladder, k, CenterResult) of every balanced center that extracting
    the family computes."""
    calls, find = [], renorm.find_balanced_center

    def recording(mu, ladder, k):
        res = find(mu, ladder, k)
        calls.append((mu, ladder, k, res))
        return res

    with mock.patch.object(renorm, "find_balanced_center", recording):
        extract_bubble_tree(request.getfixturevalue(request.param))
    assert calls
    return calls


def test_certified_ring_matches_fixed_ring_on_bubble_members(bubble_centers):
    _assert_matches_fixed_ring(bubble_centers)


def test_bubble_member_centers_are_fixed_points(bubble_centers):
    # every center is an exact zero of F, up to rounding, not just within
    # the acceptance bound _CENTER_TOL
    for mu, lad, _, res in bubble_centers:
        assert abs(center_functional(mu, res.q, lad.eps_bar)) <= 1e-12 * mu.mass


def test_bubble_member_centers_carry_their_margin(bubble_centers):
    # the margin that certified the circle, recomputed from its closed form;
    # every shipped center clears it by most of M rho
    for mu, lad, k, res in bubble_centers:
        rho = float(lad.delta[2 * k - 1])
        f_max = lad.eps_bar + max(renorm._NECK_TOL, renorm._JUMP_CAP) * mu.mass
        far = float(np.abs(mu.points).max())
        first = complex(np.sum(mu.weights * mu.points))
        assert res.margin == mu.mass * rho - abs(first) - f_max * (far + rho)
        assert 0.8 * mu.mass * rho < res.margin < mu.mass * rho
        assert 0 <= res.steps <= 60


def test_center_steps_count_the_centroid_steps(monkeypatch):
    # one probe at 0, then one probe per step
    mu, lad, k = off_center_cloud()
    center_value, probes = renorm._center_value, []

    def counting(mu, q, eps_bar, first):
        probes.append(q)
        return center_value(mu, q, eps_bar, first)

    monkeypatch.setattr(renorm, "_center_value", counting)
    res = find_balanced_center(mu, lad, k)
    assert res.steps == len(probes) - 1 >= 1
    assert probes[0] == 0 and probes[-1] == res.q


def test_bubble2_mirror_bubbles_have_equal_annulus_excess(bubble2_tree):
    # z -> k(z^2 - 1/4) is even, so the two bubbles at +-1/2 are mirror
    # images under z -> -z and their balanced centers see the same annulus
    a, b = (n.annulus_excess for n in bubble2_tree.necks if n.kind == "smooth")
    assert abs(a - b) <= 1e-9 * abs(a)


def far_cluster_measure(radius, gap):
    """A cloud of mass 4 pi at 0 and a heavy cluster at 0.45, outside B_k
    (k = 2 on ScaleLadder(1, 0.2, 6)), whose pull puts the zero of F the
    fraction gap of the radius inside the circle |q| = radius (outside it
    when gap < 0)."""
    rho, phi = 0.45, math.pi * (1.0 + 1.0 / 16.0)
    heavy = 0.2 + (1.0 - gap) * FOUR_PI * radius / (rho - (1.0 - gap) * radius)
    rng = np.random.default_rng(3)
    n, n_heavy = 10_000, 4_000
    cloud = 0.004 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    cluster = rho * np.exp(1j * phi) + 0.004 * (
        rng.standard_normal(n_heavy) + 1j * rng.standard_normal(n_heavy)
    )
    return WeightedParticleMeasure(
        np.concatenate([cloud, cluster]),
        np.concatenate([np.full(n, FOUR_PI / n), np.full(n_heavy, heavy / n_heavy)]),
        1.0,
    )


def test_certified_ring_on_a_measure_a_16_sample_ring_misreads(monkeypatch):
    # the zero of F a hundredth of the radius inside the circle, half a
    # 16-ring step from the samples: the fast turn of F there is invisible
    # at 16 samples
    monkeypatch.setattr(renorm, "_CENTER_TOL", 1e-8)
    lad = ScaleLadder(1.0, 0.2, 6)
    k = 2
    radius = float(lad.delta[2 * k - 1])
    mu = far_cluster_measure(radius, 0.01)
    value = lambda q: center_functional(mu, q, lad.eps_bar)
    want, _ = fixed_ring(value, radius)
    assert fixed_ring(value, radius, samples=16)[0] != want
    try:
        res = find_balanced_center(mu, lad, k)
    except CenterError:
        return
    assert want == 1  # a certified center has winding 1
    assert abs(center_functional(mu, res.q, lad.eps_bar)) <= 1e-8 * mu.mass


def cloud_and_clusters(seed, spot, spread, mass, clusters, d2k):
    """A Gaussian cloud of the given mass centered at the fraction spot[0] of
    d2k (at angle spot[1]), with standard deviation spread * d2k, and a
    cluster of 500 atoms for each (mass, angle, distance) in clusters."""
    c = spot[0] * d2k * complex(math.cos(spot[1]), math.sin(spot[1]))
    parts = [gaussian_cloud(c, spread * d2k, 2000, mass, 1.0, seed)]
    for j, (m, angle, dist) in enumerate(clusters):
        at = dist * complex(math.cos(angle), math.sin(angle))
        parts.append(gaussian_cloud(at, 0.004, 500, m, 1.0, seed + 1 + j))
    return WeightedParticleMeasure(
        np.concatenate([p.points for p in parts]),
        np.concatenate([p.weights for p in parts]),
        1.0,
    )


@given(
    seed=st.integers(0, 2**16),
    spot=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 2.0 * math.pi)),
    spread=st.floats(0.01, 0.05),
    mass=st.floats(0.5, FOUR_PI),
    clusters=st.lists(
        st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 2.0 * math.pi), st.floats(0.28, 0.95)),
        max_size=3,
    ),
)
@example(seed=0, spot=(0.3, 1.0), spread=0.03, mass=FOUR_PI, clusters=[(3.0, 2.0, 0.3)])
@example(seed=0, spot=(0.3, 1.0), spread=0.03, mass=FOUR_PI, clusters=[(4.0, 2.0, 0.9)])
@example(  # winding 0, refused only for the pull of the mass a solve cuts
    seed=55,
    spot=(0.41, 1.16),
    spread=0.03,
    mass=1.04,
    clusters=[(0.19, 4.28, 0.48), (0.39, 1.65, 0.6)],
)
@settings(max_examples=40, deadline=None)
def test_boundary_bound_certifies_only_inward_rings(seed, spot, spread, mass, clusters):
    # a Gaussian cloud in B_2k and up to three clusters outside B_k.
    # Whenever the bound certifies the circle, the 720-sample ring of the
    # true F reads winding 1 and F inward at every sample
    lad = ScaleLadder(1.0, 0.2, 6)
    k = 2
    radius = float(lad.delta[2 * k - 1])
    mu = cloud_and_clusters(seed, spot, spread, mass, clusters, float(lad.delta[2 * k]))
    try:
        find_balanced_center(mu, lad, k)
    except CenterError as exc:
        if str(exc).startswith("degree argument fails"):
            # a lone cloud of mass >= 0.5 in B_2k always clears the bound
            assert clusters
            return
    value = lambda q: center_functional(mu, q, lad.eps_bar)
    assert fixed_ring(value, radius) == (1, True)
