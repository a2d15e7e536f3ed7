"""Cross-ratio renormalization of concentrating measures.

Given a measure concentrating at a point q, the map R_{q,t}(x) =
(1/t - 1)(x - q) rescales the chart so that exactly the energy quantum
eps_bar sits outside the unit disk.  The neck scale t of a particle measure
is read in closed form off the sorted mass-outside step function; that of a
continuous radial profile is found by bisection.  The balanced center q is
the zero of the first-moment functional F(q) of the renormalized measure.
A degree (winding) argument certifies that a zero exists; F(q) = 0 says
that q is the centroid of the mass strictly inside the cut circle, so the
zero is found as a fixed point of the step q <- that centroid, run once
from 0.  A measure whose boundary circle is not certified is refused
("degree argument fails"), and so is a run that leaves the circle, does not
settle in 60 steps or ends away from a zero ("zero not localized"): no
other seed is searched.

The boundary is certified in closed form, before any probe of F: with M
the total mass, ``first`` the whole first moment, R the largest atom
modulus and f_max the most mass a neck solve may leave outside its cut,
the margin M rho - |first| - f_max (R + rho) > 0 makes F point strictly
inward at every point of the circle |q| = rho, so its winding there is +1
(the argument is in ``find_balanced_center``).

Every probe of F solves a neck scale, so the particle solve never sorts
the whole measure: it selects and sorts only the far tail of atoms holding
2 eps_bar, takes the crossing atom off the tail's suffix masses and reports
the atoms it cut.  The probe then reads the inside mass and first moment as
the whole measure's less those of the cut atoms, so each probe makes one
distance pass over the atoms.

Two marking procedures wrap this machinery: one for concentration at a
smooth point (solve for q, then t), one for concentration at a node (q is
pinned at the node; only the cut radius r is solved).  Both take member
measures; the nodal one reads each neck's energy already pushed to the
x-side chart of the node, with the member's pinch for the thinness ratio.
Each checks its renormalization once, on the member's atoms moved by the
renormalization map, and returns only the record (``Marking``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CenterError, MarkingError, NeckScaleError
from .measure import (
    PlanarMoebius,
    ScaleLadder,
    WeightedParticleMeasure,
    ball_masses,
)

__all__ = [
    "renormalization_map",
    "NeckScaleResult",
    "solve_neck_scale",
    "solve_neck_scale_from_cdf",
    "center_functional",
    "CenterResult",
    "find_balanced_center",
    "Marking",
    "mark_smooth_bubble",
    "mark_nodal_bubble",
]

# fewest atoms in the first far-tail guess of solve_neck_scale
_TAIL_MIN = 256
# neck-scale tolerances, as fractions of the total mass: particle and
# continuous-profile solves
_NECK_TOL = 1e-9
_CDF_TOL = 1e-12
# largest mass jump a particle solve accepts across its crossing (a
# discretization artifact), as a fraction of the total mass; it bounds the
# mass a solve may leave outside its cut, which the boundary margin of
# find_balanced_center reads
_JUMP_CAP = 0.05
# the same cap for a continuous-profile solve, whose bisection narrows its
# bracket until only a true step of the profile can be left across it
_CDF_JUMP_CAP = 1e-6
# acceptance bound of find_balanced_center on |F(q)|, and of a smooth
# marking's inside center of mass, as a fraction of the total mass; a fixed
# point of the centroid step is a zero up to rounding (about 1e-17 of the
# total on the shipped families)
_CENTER_TOL = 1e-5


def renormalization_map(q: complex, t: float) -> PlanarMoebius:
    """R_{q,t}(x) = (1/t - 1)(x - q); sends q to 0 and q + t/(1-t) to 1."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    scale = 1.0 / t - 1.0
    return PlanarMoebius(scale, -scale * q)


@dataclass(frozen=True)
class NeckScaleResult:
    """Solved neck scale: mass outside R_{q,t}^{-1}(D) equals eps_bar up to residual.

    s = t/(1-t) is the cut radius in the source chart; tol_effective is the
    acceptance bound actually applied (the requested tolerance, widened to
    the local atom jump when the target level falls inside one).  A particle
    solve lists in ``outside`` the indices of the atoms at distance >= s,
    ascending; a continuous-profile solve has none.
    """

    t: float
    s: float
    mass_outside: float
    residual: float
    tol_effective: float
    history: tuple[tuple[float, float], ...]
    outside: np.ndarray | None = field(default=None, compare=False, repr=False)


def _check_levels(total: float, eps_bar: float) -> None:
    if eps_bar <= 0.0:
        raise NeckScaleError(f"eps_bar must be positive, got {eps_bar}")
    if total <= eps_bar:
        raise NeckScaleError(
            f"energy below quantum: total mass {total:.6g} <= eps_bar {eps_bar:.6g}"
        )


def _split_scale(d: float) -> float:
    """The largest float t with t/(1-t) <= d (0 when d is 0)."""
    t = d / (1.0 + d)
    while t >= 1.0 or t / (1.0 - t) > d:
        t = math.nextafter(t, 0.0)
    while (u := math.nextafter(t, 1.0)) < 1.0 and u / (1.0 - u) <= d:
        t = u
    return t


def _accept_nearer(
    lo: tuple[float, float], hi: tuple[float, float], eps_bar: float, tol: float, cap: float
) -> tuple[tuple[float, float], float, float]:
    """The bracket end (t, mass outside) nearer eps_bar, ties to ``lo``, with
    its residual and the bound it met: tol widened to the jump across the
    bracket, but never beyond cap.  lo holds at least eps_bar outside, hi
    less; an end farther than that bound is "not spanning"."""
    gap = lo[1] - hi[1]
    end = lo if abs(lo[1] - eps_bar) <= abs(hi[1] - eps_bar) else hi
    residual = abs(end[1] - eps_bar)
    tol_effective = max(tol, min(gap, cap))
    if residual > tol_effective:
        raise NeckScaleError(
            f"mass function not spanning eps_bar: residual {residual:.6g} across a "
            f"jump of {gap:.6g}"
        )
    return end, residual, tol_effective


def solve_neck_scale(mu: WeightedParticleMeasure, q: complex, eps_bar: float) -> NeckScaleResult:
    """Closed-form t with mass of mu outside R_{q,t}^{-1}(unit disk) = eps_bar.

    The mass outside the cut circle of radius s = t/(1-t), M(s) = mass of
    the atoms with |x - q| >= s, is a nonincreasing step function of t.  So
    the level is crossed between two adjacent floats, with no iteration:
    t_lo, the largest t with t/(1-t) <= D, and t_hi, the next float up,
    where D is the largest atom distance with M(D) >= eps_bar.  Then
    M(t_lo) >= eps_bar > M(t_hi), and the history is these two ends.  The
    nearer end is accepted (``_accept_nearer``) when its residual is within
    the tolerance (``_NECK_TOL`` of the total), widened to the jump but never
    beyond ``_JUMP_CAP`` of the total mass; a farther end is "not spanning",
    as is an end whose renormalization scale 1/t - 1 is not positive and
    finite.

    No step sorts the whole measure.  Only the far tail is sorted: the
    farthest atoms from q, doubled in count until they carry 2 eps_bar of
    mass (or are all the atoms).  M is read off the tail's suffix masses.
    These are cumulative sums of nonnegative weights, which never decrease
    in floating point, so they never increase toward the far end and D is
    the farthest tail atom whose suffix mass reaches eps_bar.  When
    t_lo/(1-t_lo) does not clear the nearest tail distance, an atom left out
    of the tail may tie or pass the cut, and the whole measure is taken as
    the tail.  ``outside`` lists the atoms at distance >= s.
    """
    total = mu.mass
    _check_levels(total, eps_bar)
    tol = _NECK_TOL * total
    d = np.abs(mu.points - q)
    w = mu.weights
    n = len(d)
    # far tail: the m farthest atoms.  First guess: four times the count
    # that would carry 2 eps_bar at equal weights (far atoms are light)
    m = min(n, max(_TAIL_MIN, int(8.0 * eps_bar / total * n)))
    while True:
        idx = np.argpartition(d, n - m)[n - m :] if m < n else np.arange(n)
        if m < n and float(w[idx].sum()) < 2.0 * eps_bar:
            m = min(n, 2 * m)
            continue
        idx = idx[np.argsort(d[idx])]
        d_tail = d[idx]
        if d_tail[-1] == 0.0:
            raise NeckScaleError("energy below quantum: all mass sits at q")
        suffix = np.append(np.cumsum(w[idx][::-1])[::-1], 0.0)
        t_lo = _split_scale(float(d_tail[np.count_nonzero(suffix >= eps_bar) - 1]))
        s_lo = t_lo / (1.0 - t_lo)
        if m == n or s_lo > d_tail[0]:
            break
        m = n

    t_hi = math.nextafter(t_lo, 1.0)
    s_hi = t_hi / (1.0 - t_hi) if t_hi < 1.0 else math.inf
    i_lo, i_hi = d_tail.searchsorted([s_lo, s_hi])
    f_lo, f_hi = float(suffix[i_lo]), float(suffix[i_hi])
    if t_lo == 0.0:
        raise NeckScaleError(
            f"mass function not spanning eps_bar: only {f_hi:.6g} away from q"
        )
    (t, f), residual, tol_effective = _accept_nearer(
        (t_lo, f_lo), (t_hi, f_hi), eps_bar, tol, _JUMP_CAP * total
    )
    cut = i_lo if t == t_lo else i_hi
    if not 0.0 < 1.0 / t - 1.0 < math.inf:
        raise NeckScaleError(
            f"mass function not spanning eps_bar: t = {t:.6g} has no finite renormalization"
        )
    return NeckScaleResult(
        t=t,
        s=t / (1.0 - t),
        mass_outside=f,
        residual=residual,
        tol_effective=tol_effective,
        history=((t_lo, f_lo), (t_hi, f_hi)),
        outside=np.sort(idx[cut:]),
    )


def solve_neck_scale_from_cdf(
    mass_outside: Callable[[float], float],
    total: float,
    eps_bar: float,
) -> NeckScaleResult:
    """Bisection twin of solve_neck_scale for a continuous radial profile.

    mass_outside(s) must be a nonincreasing function of the radius s on
    [1e-9, 1e9].  Bisection in t = s/(1+s) stops once an end of the bracket
    is within tol (``_CDF_TOL`` of the total) of eps_bar or the bracket is
    narrower than 1e-15 in t.  The history must be nonincreasing in t; the
    nearer end is accepted (``_accept_nearer``) when its residual is within
    tol, widened to the final jump of the bracket but never beyond
    ``_CDF_JUMP_CAP`` of the total.  A continuous profile lets the
    bisection reach machine-level residuals, which the step function of a
    particle measure cannot.
    """
    _check_levels(total, eps_bar)
    tol = _CDF_TOL * total
    s_lo, s_hi = 1e-9, 1e9
    t_lo = s_lo / (1.0 + s_lo)
    t_hi = s_hi / (1.0 + s_hi)
    f_lo = float(mass_outside(s_lo))
    f_hi = float(mass_outside(s_hi))
    history = [(t_lo, f_lo), (t_hi, f_hi)]
    if not (f_lo >= eps_bar >= f_hi):
        raise NeckScaleError(
            f"mass function not spanning eps_bar: range [{f_hi:.6g}, {f_lo:.6g}]"
        )
    while abs(f_lo - eps_bar) > tol and abs(f_hi - eps_bar) > tol and (t_hi - t_lo) > 1e-15:
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = float(mass_outside(t_mid / (1.0 - t_mid)))
        history.append((t_mid, f_mid))
        if f_mid >= eps_bar:
            t_lo, f_lo = t_mid, f_mid
        else:
            t_hi, f_hi = t_mid, f_mid

    history.sort(key=lambda p: p[0])
    for (_, fa), (_, fb) in zip(history, history[1:]):
        if fb > fa + 1e-12 * max(total, 1.0):
            raise NeckScaleError("mass function increased across bisection history")

    (t_star, f_star), residual, tol_effective = _accept_nearer(
        (t_lo, f_lo), (t_hi, f_hi), eps_bar, tol, _CDF_JUMP_CAP * total
    )
    return NeckScaleResult(
        t=t_star,
        s=t_star / (1.0 - t_star),
        mass_outside=f_star,
        residual=residual,
        tol_effective=tol_effective,
        history=tuple(history),
    )


def _first_moment(mu: WeightedParticleMeasure) -> complex:
    """The sum of w x over every atom of mu."""
    return complex(np.sum(mu.weights * mu.points))


def _center_value(
    mu: WeightedParticleMeasure, q: complex, eps_bar: float, first: complex
) -> tuple[complex, complex, NeckScaleResult]:
    """F(q), the centroid of the mass strictly inside the cut circle, and the
    neck-scale solve at q; first is ``_first_moment(mu)``.  The inside sums
    are the whole measure's less those of the atoms the solve cut, summed in
    index order, so the centroid depends on q only through the cut; they
    carry the rounding of the whole measure's sums.  F(q) = 0 exactly when q
    is that centroid."""
    res = solve_neck_scale(mu, q, eps_bar)
    w = mu.weights[res.outside]
    inside = mu.mass - float(w.sum())
    first = first - complex(np.sum(w * mu.points[res.outside]))
    moment = (first - inside * q) * (1.0 / res.t - 1.0)
    centroid = first / inside if inside > 0.0 else q
    return moment, centroid, res


def center_functional(mu: WeightedParticleMeasure, q: complex, eps_bar: float) -> complex:
    """F(q): first moment over the open unit disk of the renormalized measure."""
    return _center_value(mu, q, eps_bar, _first_moment(mu))[0]


@dataclass(frozen=True)
class CenterResult:
    """A certified balanced center: a fixed point of the inside-centroid step
    inside a boundary circle on which F points inward, so of winding +1.
    ``margin`` is the positive boundary margin that certified the circle,
    ``steps`` the number of centroid steps the run from 0 took."""

    q: complex
    value: complex
    scale: NeckScaleResult  # neck-scale solve at the returned q
    r: complex  # q + t/(1-t)
    margin: float
    steps: int


def find_balanced_center(
    mu: WeightedParticleMeasure,
    ladder: ScaleLadder,
    k: int,
) -> CenterResult:
    """Zero of the center functional inside B(0, delta_{2k-1}).

    Preconditions of the concentration assumption at index k are checked:
    mass(B_k) > eps_bar and annulus mass B_k minus B_2k below
    2 eps_k + 2 eps_2k (both ball masses from one distance pass).  Existence
    is certified by the degree of F on the circle |q| = rho,
    rho = delta_{2k-1}, in closed form and before any probe:
    with M the total mass, first the sum of w x, R the largest |x| and
    f_max = eps_bar + max(``_NECK_TOL``, ``_JUMP_CAP``) M, the most mass a
    neck solve may leave outside its cut (residual within tol_effective),
    the margin M rho - |first| - f_max (R + rho) must be positive.  At any q
    on the circle where the solve succeeds, the inside sum is
        sum_I w (x - q) = (first - M q) - sum_O w (x - q),
    where the cut atoms O carry at most f_max and each lies within R + rho
    of q, so Re(F(q) conj(-q)) >= (1/t - 1) rho margin > 0.  F points
    strictly inward at every point of the circle, so its winding is +1.  A
    margin that is not positive is refused ("degree argument fails"); this
    covers a measure whose centroid |first|/M lies outside the circle.

    F(q) vanishes exactly when q is the centroid of the mass strictly inside
    the cut circle |x - q| < s(q), so the zero is a fixed point of the step
    q <- that centroid (the flat-kernel mean shift).  The step runs once
    from 0 and stops when the centroid stops moving; it is refused ("zero
    not localized") when a step leaves the circle, when it is still moving
    after 60 steps, or when it ends with |F(q)| above ``_CENTER_TOL`` of the
    total mass.  No other seed is tried.
    """
    if k < 1 or 2 * k > ladder.depth:
        raise CenterError(f"index {k} outside the ladder (need 1 <= k and 2k <= depth)")
    eps_bar = ladder.eps_bar
    total = mu.mass
    m_k, m_2k = ball_masses(mu, 0.0, (ladder.delta[k], ladder.delta[2 * k]))
    if m_k <= eps_bar:
        raise CenterError(
            "degree argument fails: measure not concentrated: mass in B_k "
            f"{m_k:.6g} <= eps_bar {eps_bar:.6g}"
        )
    annulus = m_k - m_2k
    bound = 2.0 * float(ladder.eps[k]) + 2.0 * float(ladder.eps[2 * k])
    if annulus >= bound:
        raise CenterError(
            "degree argument fails: measure not concentrated: annulus mass "
            f"{annulus:.6g} >= {bound:.6g}"
        )
    radius = float(ladder.delta[2 * k - 1])
    tol_abs = _CENTER_TOL * total
    first = _first_moment(mu)
    f_max = eps_bar + max(_NECK_TOL, _JUMP_CAP) * total
    far = float(np.abs(mu.points).max())
    margin = total * radius - abs(first) - f_max * (far + radius)
    if not margin > 0.0:
        raise CenterError(
            f"degree argument fails: boundary margin {margin:.6g} <= 0 on |q| = "
            f"{radius:.6g} (centroid at {abs(first) / total:.6g}, farthest atom {far:.6g})"
        )

    q = 0.0 + 0.0j
    fq, c, res = _center_value(mu, q, eps_bar, first)
    steps = 0
    while c != q:
        if steps == 60:
            raise CenterError("zero not localized: centroid step still moving after 60 steps")
        if abs(c) > radius:
            raise CenterError(
                f"zero not localized: centroid step leaves the circle at |q| = {abs(c):.6g}"
            )
        q = c
        steps += 1
        fq, c, res = _center_value(mu, q, eps_bar, first)
    if abs(fq) > tol_abs:
        raise CenterError(f"zero not localized: |F| = {abs(fq):.3g} above {tol_abs:.3g}")
    r = q + res.s
    if abs(r) > float(ladder.delta[k]) * (1.0 + 1e-12):
        raise CenterError(
            f"cut radius escapes the working scale: |r| = {abs(r):.6g} > "
            f"delta_k = {float(ladder.delta[k]):.6g}"
        )
    return CenterResult(q=q, value=fq, scale=res, r=r, margin=margin, steps=steps)


@dataclass(frozen=True)
class Marking:
    """A bubble record at one ladder index, as ``markings.csv`` prints it.

    case 1 carries the balanced center q and R_{q,t} renormalizes; case 2
    pins q at the node (q is None), renormalizes by x -> x/r and carries the
    neck thinness ratio |pinch|/r.  The renormalized measure is not kept:
    the marker checks it once, on the moved atoms (``_check_renormalized``).
    """

    case: int
    q: complex | None
    r: complex
    t: float
    level: int
    neck_ratio: float | None = None


def _check_renormalized(
    mu: WeightedParticleMeasure,
    transform: PlanarMoebius,
    eps_bar: float,
    mass_tol: float,
    centered: bool,
) -> None:
    """Check a renormalization on mu's atoms moved by transform.

    The mass outside the unit disk must meet eps_bar within mass_tol, with a
    one-ulp band around the circle for atoms sitting exactly on it; when
    centered, the center of mass inside the disk must also be within
    ``_CENTER_TOL`` of the total mass (plus the band's mass).
    """
    x = transform(mu.points)
    w = mu.weights
    z = np.abs(x)
    outside_lo = float(w[z > 1.0 + 1e-12].sum())
    outside_hi = float(w[z >= 1.0 - 1e-12].sum())
    if not (outside_lo - mass_tol <= eps_bar <= outside_hi + mass_tol):
        raise MarkingError(
            f"renormalized mass outside D in [{outside_lo:.6g}, {outside_hi:.6g}] "
            f"misses eps_bar {eps_bar:.6g} by more than {mass_tol:.3g}"
        )
    if centered:
        sel = z < 1.0 - 1e-12
        band = float(w[np.abs(z - 1.0) <= 1e-12].sum())
        moment = abs(complex(np.sum(w[sel] * x[sel])))
        if moment > _CENTER_TOL * mu.mass + band:
            raise MarkingError(f"renormalized center of mass {moment:.3g} exceeds tolerance")


def _check_members(n: int, ladder: ScaleLadder) -> None:
    """Refuse a marking of n members that the ladder cannot hold."""
    if not n:
        raise MarkingError("no members to mark")
    if n > ladder.working_index:
        raise MarkingError(
            f"{n} members exceed the ladder working index {ladder.working_index}"
        )


def mark_smooth_bubble(mus: list[WeightedParticleMeasure], ladder: ScaleLadder) -> list[Marking]:
    """Mark a concentration at a smooth point along a certified subsequence.

    Member i is handled at ladder index k = i + 1: the balanced center q_k
    is found in B(0, delta_{2k-1}) to ``_CENTER_TOL``, with the neck scale t
    there, and the member's atoms moved by R_{q_k,t} are checked to hold
    eps_bar outside the unit disk and to be centered inside it.
    """
    _check_members(len(mus), ladder)
    markings = []
    for i, mu in enumerate(mus):
        k = i + 1
        try:
            center = find_balanced_center(mu, ladder, k)
            res = center.scale
            transform = renormalization_map(center.q, res.t)
            _check_renormalized(mu, transform, ladder.eps_bar, res.tol_effective, centered=True)
            markings.append(Marking(case=1, q=center.q, r=center.r, t=res.t, level=k))
        except (NeckScaleError, CenterError, MarkingError) as exc:
            raise MarkingError(
                f"marking failed at member {i} (ladder index {k}): {exc}"
            ) from exc
    return markings


def mark_nodal_bubble(
    mus: list[WeightedParticleMeasure],
    pinches: list[complex],
    ladder: ScaleLadder,
) -> list[Marking]:
    """Mark a concentration at a regular node along a certified subsequence.

    mus are the members' neck energies on the x-side chart of the node
    (``neck.build_nodal_pushforward``), pinches their plumbing parameters.
    The center is pinned at the node, so only the cut radius r_k is solved
    (mass outside B(0, r_k) equal to eps_bar, checked on the member's atoms
    moved by the renormalization x -> x/r_k) and must lie within delta_k,
    as ``find_balanced_center`` requires of a smooth cut.  The thinness
    ratios |pinch_k|/r_k must decrease toward 0; otherwise the inner disk is
    hiding mass and the marking is invalid.
    """
    _check_members(len(mus), ladder)
    if len(pinches) != len(mus):
        raise MarkingError(f"{len(mus)} measures but {len(pinches)} pinches")
    markings = []
    ratios = []
    for i, (mu, pinch) in enumerate(zip(mus, pinches)):
        k = i + 1
        try:
            res = solve_neck_scale(mu, 0.0, ladder.eps_bar)
            r = res.s
            transform = PlanarMoebius(1.0 / r, 0.0)
            _check_renormalized(mu, transform, ladder.eps_bar, res.tol_effective, centered=False)
            delta_k = float(ladder.delta[k])
            if r > delta_k * (1.0 + 1e-12):
                raise MarkingError(f"cut point |r| = {r:.6g} outside B(0, {delta_k:.6g})")
            ratio = abs(pinch) / r
            markings.append(Marking(case=2, q=None, r=r, t=res.t, level=k, neck_ratio=ratio))
            ratios.append(ratio)
        except (NeckScaleError, MarkingError) as exc:
            raise MarkingError(
                f"marking failed at member {i} (ladder index {k}): {exc}"
            ) from exc
    for a, b in zip(ratios, ratios[1:]):
        if b >= a:
            raise MarkingError(
                "nodal bubble hypothesis violated: mass hiding in inner disk "
                f"(thinness ratios {ratios} fail to decrease)"
            )
    return markings
