"""Weighted particle measures on planar charts, scale ladders, and
concentration detection for sequences of energy-density measures.

A measure is a finite sum of weighted atoms in a complex chart.  All
renormalization maps used downstream are affine transforms of the chart.
Closed-ball masses at several radii about one center come from one
distance pass (``ball_masses``), each with the bits of its own masked sum.
A measure keeps its atom moduli |x| as ``moduli``, and every question about
the chart origin reads them: ball masses (the balanced center's m_k and
annulus, nodal detection), ``restrict``, the neck-scale solve at q = 0 and
the balanced center's farthest atom.  A builder that already holds the
moduli hands them over rather than have the measure take them again:
``restrict`` the distances it selected by (|x - center| of the recentred
atoms), and ``families.density_to_measure`` the |z| of its chart test.
Either way one routine validates the measure, and it reads the chart test
off the moduli.

The scale ladder fixes the dyadic radii delta_k and tolerances eps_k used
to certify that a sequence of measures concentrates a definite amount of
energy at a point.  Detection extracts, per candidate site, a diagonal
subsequence: the member certified at ladder level j must reproduce the
stabilized excess mass at every scale delta_m, m <= 2j, within eps_m.
Detection checks the last member at every tested scale first, so it passes
every level and the subsequence is closed form: earlier members take levels
1, 2, ... in turn, and the last member the level after them.  Each
member's ball masses at the scales it is tested on, and the limit's, are
one ``ball_masses`` call per candidate.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConcentrationError,
    LadderError,
    MeasureError,
    SubsequenceError,
    integer,
    positive_number,
)

__all__ = [
    "MIN_MEMBERS",
    "WeightedParticleMeasure",
    "ScaleLadder",
    "ConcentrationSite",
    "ball_masses",
    "mass_in",
    "restrict",
    "detect_concentrations",
]

MIN_MEMBERS = 2  # detection corroborates the last member by an earlier one

@dataclass(frozen=True)
class WeightedParticleMeasure:
    """Finite nonnegative measure given by weighted atoms in a chart.

    points : complex atom locations, all within ``chart_radius`` of 0
    weights : nonnegative atom masses
    chart_radius : radius of the chart disk, positive and finite
    moduli : |points|, read-only; computed at construction, or handed over
        by a builder that already holds them (``_with_moduli``)

    The arrays are made read-only and may be shared: lattice measures of one
    degree share one weight array.  The constructor copies the arrays it is
    given, so the caller's stay writeable; ``_with_moduli`` takes over the
    arrays of a builder that made them.
    """

    points: NDArray[np.complex128]
    weights: NDArray[np.float64]
    chart_radius: float
    _mass: float = field(init=False, repr=False, compare=False)
    moduli: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", np.array(self.points, dtype=np.complex128))
        object.__setattr__(self, "weights", np.array(self.weights, dtype=np.float64))
        self._settle(None)

    @classmethod
    def _with_moduli(
        cls,
        points: NDArray[np.complex128],
        weights: NDArray[np.float64],
        chart_radius: float,
        moduli: NDArray[np.float64],
    ) -> "WeightedParticleMeasure":
        """The measure of the given atoms, whose moduli the builder already
        holds: ``moduli`` must be ``np.abs(points)`` bit for bit.  It runs
        the checks of construction, reading the chart test off ``moduli``."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "points", points)
        object.__setattr__(mu, "weights", weights)
        object.__setattr__(mu, "chart_radius", chart_radius)
        mu._settle(moduli)
        return mu

    def _settle(self, moduli: NDArray[np.float64] | None) -> None:
        """Validate the fields and freeze them, with the moduli taken here
        when none are given."""
        pts = np.ascontiguousarray(self.points, dtype=np.complex128)
        wts = np.ascontiguousarray(self.weights, dtype=np.float64)
        if pts.ndim != 1 or wts.ndim != 1 or pts.shape != wts.shape:
            raise MeasureError(
                f"points/weights must be matching 1-d arrays, got {pts.shape} vs {wts.shape}"
            )
        if not np.all(np.isfinite(wts)):
            raise MeasureError("non-finite atom or weight")
        if wts.size and wts.min() < 0.0:
            raise MeasureError(f"negative weight {wts.min()!r}")
        radius = positive_number(self.chart_radius, "chart_radius", MeasureError)
        if moduli is None:
            moduli = np.abs(pts)
        # the largest modulus is NaN or inf when an atom is not finite, so
        # the atoms are scanned only when the chart test fails
        rmax = float(moduli.max(initial=0.0))
        if not rmax <= radius * (1.0 + 1e-12):
            if not np.all(np.isfinite(pts)):
                raise MeasureError("non-finite atom or weight")
            raise MeasureError(f"atom at |z| = {rmax:.6g} outside chart of radius {radius:.6g}")
        for a in (pts, wts, moduli):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "_mass", float(wts.sum()))

    @property
    def mass(self) -> float:
        """Total mass, summed once at construction (the arrays are read-only)."""
        return self._mass

    def distances(self, center: complex) -> NDArray[np.float64]:
        """|x - center| for every atom; at center 0 the stored moduli, the
        same bits.  A center that is not finite is refused."""
        if center == 0:
            return self.moduli
        if not cmath.isfinite(center):
            raise MeasureError(f"center must be finite, got {center!r}")
        return np.abs(self.points - center)

    def __len__(self) -> int:
        return int(self.points.size)

    @staticmethod
    def empty(chart_radius: float = 1.0) -> "WeightedParticleMeasure":
        return WeightedParticleMeasure(
            np.zeros(0, dtype=np.complex128), np.zeros(0, dtype=np.float64), chart_radius
        )


def ball_masses(
    mu: WeightedParticleMeasure, center: complex, radii: Sequence[float]
) -> NDArray[np.float64]:
    """Masses of the closed disks |z - center| <= r, one per radius in radii.

    The distances to center are computed once.  Each mass is the sum of the
    weights of the atoms within r, in index order, so it equals
    ``mu.weights[np.abs(mu.points - center) <= r].sum()`` bit for bit; the
    radii are visited largest first, each narrowing the atoms the last one
    kept (or reusing them when it keeps them all), so the masked arrays and
    their sums are the same.  A negative radius or a center that is not
    finite is refused.
    """
    radii = np.asarray(radii, dtype=np.float64)
    negative = radii[radii < 0.0]
    if negative.size:
        raise MeasureError(f"negative radius {negative[0]}")
    out = np.zeros(radii.shape)
    dist = mu.distances(center)
    if not dist.size:
        return out
    w = mu.weights
    # largest first; a NaN radius holds no atom and sorts last
    for i in np.argsort(-radii, kind="stable"):
        sel = dist <= radii[i]
        if not sel.all():  # np.compress: a boolean index branches per atom
            dist, w = np.compress(sel, dist), np.compress(sel, w)
        out[i] = w.sum()
    return out


def mass_in(mu: WeightedParticleMeasure, center: complex, radius: float) -> float:
    """Mass of the closed disk: sum of weights of atoms with |z - center| <= radius."""
    return float(ball_masses(mu, center, (radius,))[0])


def restrict(
    mu: WeightedParticleMeasure, center: complex, radius: float
) -> WeightedParticleMeasure:
    """Submeasure of atoms in the closed disk |z - center| <= radius, recentred
    at 0.  Its moduli are the distances it selected by: |x - center| is the
    modulus of the recentred atom x - center, bit for bit.  The radius is
    its chart radius, refused before any selection unless positive and
    finite."""
    dist = mu.distances(center)
    sel = dist <= positive_number(radius, "chart_radius", MeasureError)
    points = np.compress(sel, mu.points)
    points -= center
    return WeightedParticleMeasure._with_moduli(
        points, np.compress(sel, mu.weights), radius, np.compress(sel, dist)
    )


# ---------------------------------------------------------------------------
# scale ladder


@dataclass(frozen=True)
class ScaleLadder:
    """Dyadic scales delta_k = delta0 2^-k and tolerances eps_k = (eps_bar/4) 2^-k,
    k = 0..depth, for detection.

    Admissibility at the working index k = depth // 2 asks for
      (1) 2 eps_k + 2 eps_{2k} < eps_bar, that is 2^-k + 2^-2k < 2, which
          holds for every k >= 1, and
      (2) 3 delta_{2k-1} < delta_k, that is 3 2^(1-k) < 1, which holds
          exactly when k >= 3;
    the halving rules and eps_0 = eps_bar/4 hold by construction.  So a
    ladder with positive finite delta0 and eps_bar (real numbers, not bools
    or strings: ``errors.positive_number``) is admissible exactly when
    depth >= 6, and construction refuses any other.  It also refuses a
    depth at which the finest scale or tolerance underflows to 0.0 (every
    depth from 1075 on, up to and beyond the float range), before any array
    is built.  The depth is an integer by ``errors.integer``, the rule the
    config loader calls too: an integral float is stored as an int, and a
    bool or any other value is refused.
    """

    delta0: float
    eps_bar: float
    depth: int
    delta: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    eps: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positive_number(self.delta0, "delta0", LadderError)
        positive_number(self.eps_bar, "eps_bar", LadderError)
        object.__setattr__(self, "depth", integer(self.depth, "depth", LadderError))
        if self.depth < 6:
            raise LadderError(
                f"depth must be >= 6 (3 delta_(2k-1) < delta_k at k = depth // 2), "
                f"got {self.depth}"
            )
        # 0.5**k is 0.0 from k = 1075 on, so the cap changes no value; it keeps
        # a depth beyond the float range from raising OverflowError
        finest = 0.5 ** min(self.depth, 1075)
        if self.delta0 * finest == 0.0 or (self.eps_bar / 4.0) * finest == 0.0:
            raise LadderError(
                f"depth {self.depth} underflows the finest scale or tolerance to 0.0"
            )
        ks = np.arange(self.depth + 1, dtype=np.float64)
        delta = self.delta0 * 0.5**ks
        eps = (self.eps_bar / 4.0) * 0.5**ks
        delta.setflags(write=False)
        eps.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "eps", eps)

    @property
    def working_index(self) -> int:
        return self.depth // 2

    @property
    def finest_scale(self) -> float:
        return float(self.delta[-1])


# ---------------------------------------------------------------------------
# concentration detection


@dataclass(frozen=True)
class ConcentrationSite:
    """A certified energy-concentration site.

    location : chart point of the site
    mass : stabilized excess mass m_p (last member, finest tested scale)
    kind : 'smooth' or 'nodal' (nodal = site at the origin of a nodal chart)
    subsequence : member indices, strictly increasing and ending at the last
        member; the member at position i takes ladder level i + 1 and passed
        every scale m <= 2 (i + 1)
    """

    location: complex
    mass: float
    kind: str
    subsequence: tuple[int, ...]


def _candidate_locations(
    mu_last: WeightedParticleMeasure,
    mu_limit: WeightedParticleMeasure,
    ladder: ScaleLadder,
) -> list[complex]:
    """Grid scan for local excess-mass maxima at the finest scale.

    Bins both measures on a square grid of pitch ~ finest scale, sums 3x3
    blocks (a ball-like window), then greedily picks maxima with 2*delta_K
    suppression.  Candidate locations are excess-weighted block centroids.
    """
    dK = ladder.finest_scale
    scan_r = mu_last.chart_radius
    n = int(min(1024, max(8, np.ceil(2.0 * scan_r / dK))))
    pitch = 2.0 * scan_r / n
    edges = np.linspace(-scan_r, scan_r, n + 1)

    def grid(mu: WeightedParticleMeasure) -> NDArray[np.float64]:
        if len(mu) == 0:
            return np.zeros((n, n))
        h, _, _ = np.histogram2d(
            mu.points.real, mu.points.imag, bins=(edges, edges), weights=mu.weights
        )
        return h

    excess = grid(mu_last) - grid(mu_limit)
    # 3x3 block sums approximate delta_K-ball masses on the grid
    block = np.zeros_like(excess)
    padded = np.pad(excess, 1)
    for di in range(3):
        for dj in range(3):
            block += padded[di : di + n, dj : dj + n]
    xc = 0.5 * (edges[:-1] + edges[1:])
    centers = xc[:, None] + 1j * xc[None, :]
    reach = 2.0 * dK + 2.0 * pitch
    # a centroid lies within a cell of its block's centre: cells past box miss reach
    box = int(np.ceil(reach / pitch)) + 2

    out: list[complex] = []
    work = block.copy()
    for _ in range(64):
        idx = np.unravel_index(int(np.argmax(work)), work.shape)
        if work[idx] < 0.5 * ladder.eps_bar:
            break
        i0, j0 = idx
        # excess-weighted centroid of the 3x3 block, guarded against cancellation
        wsum = 0.0
        csum = 0.0 + 0.0j
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                i, j = i0 + di, j0 + dj
                if 0 <= i < n and 0 <= j < n and excess[i, j] > 0:
                    wsum += excess[i, j]
                    csum += excess[i, j] * centers[i, j]
        loc = csum / wsum if wsum > 0 else centers[idx]
        out.append(complex(loc))
        # suppress the neighborhood of the accepted candidate
        near = np.s_[max(i0 - box, 0) : i0 + box + 1, max(j0 - box, 0) : j0 + box + 1]
        work[near][np.abs(centers[near] - loc) < reach] = -np.inf
    return out


def detect_concentrations(
    mus: Sequence[WeightedParticleMeasure],
    mu_limit: WeightedParticleMeasure,
    ladder: ScaleLadder,
    chart_kind: str = "smooth",
) -> tuple[ConcentrationSite, ...]:
    """Certified concentration sites of a measure sequence against its
    limit, heaviest first.

    A candidate site p (grid scan of the last member) is skipped when the
    last member's excess over mu_limit in B(p, delta_1) is below eps_bar, and
    admitted when
      * that excess is >= eps_bar at every tested scale m = 1..2k (k the
        working index), and
      * |excess(delta_m) - m_p| < eps_m at all those scales, where m_p is the
        last member's excess at the finest tested scale, and
      * an earlier member passes level 1 (the bounds at m <= 2).

    Level j asks for the bounds at m <= 2j, so the last member passes every
    level.  The subsequence is closed form: levels 1..k-1 go in turn to the
    next earlier member passing them, up to the first level none passes, and
    the last member takes the next level.  Sites closer than 2 * finest scale
    (two nodal candidates snapped to the origin) are refused.

    Raises SubsequenceError ("subsequence not extracted") when a candidate
    holds eps_bar excess at the coarsest tested scale but the sequence does
    not stabilize (the excess falls below eps_bar at a finer scale, the last
    member fails its own multi-scale consistency, or no earlier member
    corroborates level 1): a site skipped there would be booked as base
    energy.
    """
    if chart_kind not in ("smooth", "nodal"):
        raise MeasureError(f"unknown chart kind {chart_kind!r}")
    if len(mus) < MIN_MEMBERS:
        raise ConcentrationError(f"need at least {MIN_MEMBERS} sequence members")
    eps_bar = ladder.eps_bar
    kw = ladder.working_index
    scales = ladder.delta[1 : 2 * kw + 1]  # tested scales m = 1..2k
    epses = ladder.eps[1 : 2 * kw + 1]
    mu_last = mus[-1]
    last_idx = len(mus) - 1

    sites: list[ConcentrationSite] = []
    for loc in _candidate_locations(mu_last, mu_limit, ladder):
        if chart_kind == "nodal" and abs(loc) < 2.0 * ladder.finest_scale:
            loc = 0.0 + 0.0j  # the node is the chart origin
            kind = "nodal"
        else:
            kind = "smooth"
        limit = ball_masses(mu_limit, loc, scales)
        excess_last = ball_masses(mu_last, loc, scales) - limit
        if excess_last[0] < eps_bar:
            continue  # no concentration even at the coarsest tested scale
        if np.any(excess_last < eps_bar):
            raise SubsequenceError(
                f"subsequence not extracted: excess at site {loc:.4g} falls below "
                f"eps_bar at a finer scale (to {excess_last.min():.3g})"
            )
        m_p = float(excess_last[-1])
        devs = np.abs(excess_last - m_p)
        if np.any(devs >= epses):
            raise SubsequenceError(
                "subsequence not extracted: last member inconsistent across scales "
                f"at site {loc:.4g} (max deviation {devs.max():.3g})"
            )
        # earlier members take levels 1..kw-1 in turn; the last member passes
        # every level (checked above) and takes the next one
        assignment: list[int] = []
        for member in range(last_idx):
            j = len(assignment) + 1
            if j == kw:
                break
            excess = ball_masses(mus[member], loc, scales[: 2 * j]) - limit[: 2 * j]
            if np.all(np.abs(excess - m_p) < epses[: 2 * j]):
                assignment.append(member)
        if not assignment:
            raise SubsequenceError(
                f"subsequence not extracted: no earlier member corroborates site {loc:.4g}"
            )
        assignment.append(last_idx)
        sites.append(
            ConcentrationSite(
                location=complex(loc), mass=m_p, kind=kind, subsequence=tuple(assignment)
            )
        )
    sites.sort(key=lambda s: (-s.mass, s.location.real, s.location.imag))
    for a, b in combinations(sites, 2):
        d = abs(a.location - b.location)
        if d < 2.0 * ladder.finest_scale:
            raise ConcentrationError(
                f"sites {a.location:.6g} and {b.location:.6g} separated by {d:.6g} "
                f"< 2 * finest scale {ladder.finest_scale:.6g}"
            )
    return tuple(sites)
