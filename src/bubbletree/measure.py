"""Weighted particle measures on planar charts, scale ladders, and
concentration detection for sequences of energy-density measures.

A measure is a finite sum of weighted atoms in a complex chart.  All
renormalization maps used downstream are affine transforms of the chart.
Closed-ball masses at several radii about one center come from one
distance pass (``ball_masses``), each with the bits of its own masked sum.

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

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ConcentrationError, LadderError, MeasureError, SubsequenceError

__all__ = [
    "WeightedParticleMeasure",
    "PlanarMoebius",
    "ScaleLadder",
    "ConcentrationSite",
    "ball_masses",
    "mass_in",
    "restrict",
    "detect_concentrations",
]

@dataclass(frozen=True)
class WeightedParticleMeasure:
    """Finite nonnegative measure given by weighted atoms in a chart.

    points : complex atom locations, all within ``chart_radius`` of 0
    weights : nonnegative atom masses
    chart_radius : radius of the chart disk the measure lives on
    """

    points: NDArray[np.complex128]
    weights: NDArray[np.float64]
    chart_radius: float
    _mass: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(self.points, dtype=np.complex128)
        wts = np.ascontiguousarray(self.weights, dtype=np.float64)
        if pts.ndim != 1 or wts.ndim != 1 or pts.shape != wts.shape:
            raise MeasureError(
                f"points/weights must be matching 1-d arrays, got {pts.shape} vs {wts.shape}"
            )
        if not np.all(np.isfinite(wts)) or not np.all(np.isfinite(pts)):
            raise MeasureError("non-finite atom or weight")
        if wts.size and wts.min() < 0.0:
            raise MeasureError(f"negative weight {wts.min()!r}")
        if self.chart_radius <= 0.0:
            raise MeasureError(f"chart_radius must be positive, got {self.chart_radius}")
        if pts.size:
            rmax = float(np.abs(pts).max())
            if rmax > self.chart_radius * (1.0 + 1e-12):
                raise MeasureError(
                    f"atom at |z| = {rmax:.6g} outside chart of radius {self.chart_radius:.6g}"
                )
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "_mass", float(wts.sum()))

    @property
    def mass(self) -> float:
        """Total mass, summed once at construction (the arrays are read-only)."""
        return self._mass

    def __len__(self) -> int:
        return int(self.points.size)

    @staticmethod
    def empty(chart_radius: float = 1.0) -> "WeightedParticleMeasure":
        return WeightedParticleMeasure(
            np.zeros(0, dtype=np.complex128), np.zeros(0, dtype=np.float64), chart_radius
        )


@dataclass(frozen=True)
class PlanarMoebius:
    """Planar affine transform z -> a z + b, a != 0.

    These are the Moebius maps that fix infinity, which is all the
    cross-ratio renormalizations and chart rescalings need; each is
    injective on the whole plane.
    """

    a: complex
    b: complex

    def __post_init__(self) -> None:
        if abs(self.a) == 0.0:
            raise MeasureError("degenerate affine transform (a = 0)")

    def __call__(self, z: NDArray[np.complex128] | complex) -> NDArray[np.complex128] | complex:
        return self.a * z + self.b


def ball_masses(
    mu: WeightedParticleMeasure, center: complex, radii: Sequence[float]
) -> NDArray[np.float64]:
    """Masses of the closed disks |z - center| <= r, one per radius in radii.

    The distances to center are computed once.  Each mass is the sum of the
    weights of the atoms within r, in index order, so it equals
    ``mu.weights[np.abs(mu.points - center) <= r].sum()`` bit for bit; the
    radii are visited largest first, each narrowing the atoms the last one
    kept, so the masked arrays and their sums are the same.
    """
    radii = np.asarray(radii, dtype=np.float64)
    negative = radii[radii < 0.0]
    if negative.size:
        raise MeasureError(f"negative radius {negative[0]}")
    out = np.zeros(radii.shape)
    if len(mu) == 0:
        return out
    dist = np.abs(mu.points - center)
    w = mu.weights
    # largest first; a NaN radius holds no atom and sorts last
    for i in np.argsort(-radii, kind="stable"):
        sel = dist <= radii[i]
        dist, w = dist[sel], w[sel]
        out[i] = w.sum()
    return out


def mass_in(mu: WeightedParticleMeasure, center: complex, radius: float) -> float:
    """Mass of the closed disk: sum of weights of atoms with |z - center| <= radius."""
    return float(ball_masses(mu, center, (radius,))[0])


def restrict(
    mu: WeightedParticleMeasure, center: complex, radius: float
) -> WeightedParticleMeasure:
    """Submeasure of atoms in the closed disk |z - center| <= radius, recentred at 0."""
    sel = np.abs(mu.points - center) <= radius
    return WeightedParticleMeasure(
        (mu.points[sel] - center).astype(np.complex128),
        mu.weights[sel].astype(np.float64),
        radius,
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
    ladder with positive finite delta0 and eps_bar is admissible exactly
    when depth >= 6, and construction refuses any other.  It also refuses a
    depth at which the finest scale or tolerance underflows to 0.0 (every
    depth from 1075 on, up to and beyond the float range), before any array
    is built.
    """

    delta0: float
    eps_bar: float
    depth: int
    delta: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    eps: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.delta0 < np.inf and 0.0 < self.eps_bar < np.inf):
            raise LadderError(
                f"delta0 and eps_bar must be positive and finite, "
                f"got {self.delta0!r} and {self.eps_bar!r}"
            )
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
    centers_re, centers_im = np.meshgrid(xc, xc, indexing="ij")

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
                    csum += excess[i, j] * (centers_re[i, j] + 1j * centers_im[i, j])
        loc = csum / wsum if wsum > 0 else centers_re[idx] + 1j * centers_im[idx]
        out.append(complex(loc))
        # suppress the neighborhood of the accepted candidate
        dist = np.abs((centers_re + 1j * centers_im) - loc)
        work[dist < 2.0 * dK + 2.0 * pitch] = -np.inf
    return out


def detect_concentrations(
    mus: Sequence[WeightedParticleMeasure],
    mu_limit: WeightedParticleMeasure,
    ladder: ScaleLadder,
    chart_kind: str = "smooth",
) -> tuple[ConcentrationSite, ...]:
    """Certified concentration sites of a measure sequence against its
    limit, heaviest first.

    A candidate site p (grid scan of the last member) is admitted when
      * the last member's excess over mu_limit in B(p, delta_m) is >= eps_bar
        at every tested scale m = 1..2k (k the working index), and
      * |excess(delta_m) - m_p| < eps_m at all those scales, where m_p is the
        last member's excess at the finest tested scale, and
      * an earlier member passes level 1 (the bounds at m <= 2).

    Level j asks for the bounds at m <= 2j, so the last member passes every
    level.  The subsequence is closed form: levels 1..k-1 go in turn to the
    next earlier member passing them, up to the first level none passes, and
    the last member takes the next level.  Sites closer than 2 * finest scale
    (two nodal candidates snapped to the origin) are refused.

    Raises SubsequenceError ("subsequence not extracted") when a candidate
    holds eps_bar excess but the sequence does not stabilize (the last
    member fails its own multi-scale consistency, or no earlier member
    corroborates level 1).
    """
    if chart_kind not in ("smooth", "nodal"):
        raise MeasureError(f"unknown chart kind {chart_kind!r}")
    if len(mus) < 2:
        raise ConcentrationError("need at least two sequence members")
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
        if np.any(excess_last < eps_bar):
            continue  # not a concentration at every tested scale
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
