"""Explicit test families with analytically known energy behavior.

Rational maps to the round sphere are holomorphic, hence harmonic, and their
full-sphere energy is exactly 4*pi*degree; that makes them the ground truth
for every diagnostic in this package.  Alongside them live plumbing-neck
families (cylinder fields over a degenerating annulus) and linear torus maps.

Chart convention, fixed once for the whole package: the sphere is covered by
the two stereographic charts z and w = 1/z, and in the z chart the energy
density of f = P/Q is

    e(z) = 4 |P'Q - PQ'|^2 / (|P|^2 + |Q|^2)^2

per euclidean chart area.  This is pole-free whenever P and Q share no root.
Its integral over a chart disk is exact by Stokes' theorem
(``contour_energy``): a boundary integral plus 4 pi per pole inside.  The
driver and ``selftest`` read energies that way; ``energy_quadrature``, the
adaptive quadrature of the density, serves the tests and the bench.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .curve import MarkedNodalCurve
from .errors import FamilyError, NeckError, finite_number, positive_number
from .measure import WeightedParticleMeasure
from .neck import CylinderField, FlatTorusTarget, collar_half_length, collar_rows
from .neck import cylinder_field_from_sphere_chart
from .quadrature import adaptive_polar_quadrature

__all__ = [
    "RationalMap",
    "contour_energy",
    "FamilySpec",
    "FamilyMember",
    "Family",
    "energy_quadrature",
    "density_to_measure",
    "make_family",
]

# resolution of every generated family and quadrature, fixed for the package;
# the quadrature's absolute floor and panel budget are constants of quadrature
_ENERGY_REL_TOL = 1e-9  # energy_quadrature
# contour_energy: first and largest node counts, and the agreement of the
# n- and 2n-node sums, relative to the scale of the sum
_CONTOUR_FIRST, _CONTOUR_LAST = 256, 65536
_CONTOUR_TOL = 1e-12
_N_SPHERE = 20000  # lattice points on the sphere, each of weight 4 pi / N
_CHART_RADIUS = 1.0  # rational families live on the unit disk of the z chart
_N_T, _N_THETA = 256, 64  # cylinder grid of the neck families
# a plumbing member squares x and its map on the collar |t|/delta <= |x| <= delta;
# both radii in this range keep every sample finite
_PLUMBING_RADII = (2.0**-511, 2.0**510)


def _polyder(c: np.ndarray) -> np.ndarray:
    n = c.size - 1
    if n <= 0:
        return np.zeros(1, dtype=np.complex128)
    return c[:-1] * np.arange(n, 0, -1)


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``np.polyval(c, z)`` bit for bit at finite z, without its zero array.

    polyval starts from 0 * z + c[0], which is c[0] itself unless c[0] has a
    -0.0 part, whose sign then follows z; only that case keeps the step.
    """
    lead = c[0]
    if any(p == 0.0 and math.copysign(1.0, p) < 0.0 for p in (lead.real, lead.imag)):
        y, rest = 0.0 * z + lead, c[1:]
    elif c.size == 1:
        return np.full(z.shape, lead)
    else:
        y, rest = lead * z + c[1], c[2:]
    for a in rest:
        y *= z
        y += a
    return y


def _abs2(c: np.ndarray, z: np.ndarray) -> np.ndarray | np.float64:
    """|polynomial c at z|^2; for a constant c the scalar a * a, which is what
    ``** 2`` computes at each element of the full array, so it broadcasts to the
    same bits."""
    if c.size == 1:
        a = np.abs(c[0])
        return a * a
    return np.abs(_horner(c, z)) ** 2


def _trim(c: np.ndarray) -> np.ndarray:
    out = np.trim_zeros(c, "f")
    if out.size == 0:
        return np.zeros(1, dtype=np.complex128)
    return out


@dataclass(frozen=True)
class RationalMap:
    """Rational sphere map P/Q with coefficients highest degree first."""

    num: np.ndarray
    den: np.ndarray
    _wronskian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num = _trim(np.atleast_1d(np.asarray(self.num, dtype=np.complex128)))
        den = _trim(np.atleast_1d(np.asarray(self.den, dtype=np.complex128)))
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise FamilyError("non-finite coefficient")
        if den.size == 1 and den[0] == 0:
            raise FamilyError("denominator vanishes identically")
        if num.size > 1 and den.size > 1:
            # a leading coefficient tiny against the rest overflows the
            # companion matrix, whose roots np.roots then cannot find
            try:
                with np.errstate(over="raise", invalid="raise"):
                    rp = np.roots(num)
                    rq = np.roots(den)
            except (FloatingPointError, np.linalg.LinAlgError):
                raise FamilyError(
                    "coefficients too ill-scaled to locate the roots"
                ) from None
            # roots near the float limit may overflow |.|: inf/inf is no match
            with np.errstate(over="ignore", invalid="ignore"):
                sep = np.abs(rp[:, None] - rq[None, :])
                rel = sep / (1.0 + np.abs(rp[:, None]))
            rel = np.where(np.isnan(rel), np.inf, rel)
            j = np.argmin(rel)
            if rel.flat[j] < 1e-12:
                bad = rp.flat[j // rq.size]
                raise FamilyError(
                    f"numerator and denominator share a root near {bad:.6g}"
                )
        a = np.convolve(_polyder(num), den)
        b = np.convolve(num, _polyder(den))
        n = max(a.size, b.size)
        a = np.concatenate([np.zeros(n - a.size, np.complex128), a])
        b = np.concatenate([np.zeros(n - b.size, np.complex128), b])
        wr = a - b
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_wronskian", _trim(wr))

    @property
    def degree(self) -> int:
        if self.num.size == 1 and self.num[0] == 0:
            return 0
        return max(self.num.size, self.den.size) - 1

    def value(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        return _horner(self.num, z) / _horner(self.den, z)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        return _horner(self._wronskian, z) / _horner(self.den, z) ** 2

    def density(self, z: np.ndarray) -> np.ndarray:
        """Energy density in the chart; finite everywhere (no common roots)."""
        z = np.asarray(z, dtype=np.complex128)
        p = _horner(self.num, z)
        return 4.0 * _abs2(self._wronskian, z) / (np.abs(p) ** 2 + _abs2(self.den, z)) ** 2

    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        """num and den, each padded with leading zeros to degree + 1 entries;
        for a map of positive degree (the zero map may have a longer den)."""
        n = self.degree + 1
        return tuple(
            np.concatenate([np.zeros(n - c.size, np.complex128), c]) for c in (self.num, self.den)
        )

    def chart_reversed(self) -> "RationalMap":
        """The same sphere map in the w = 1/z chart, again as a rational map."""
        if self.degree == 0:
            return RationalMap(self.num.copy(), self.den.copy())
        num, den = self._padded()
        return RationalMap(num[::-1].copy(), den[::-1].copy())


def _disk_radius(radius: float) -> float:
    """The radius of a chart disk, refused unless positive and finite."""
    return positive_number(radius, "disk radius", FamilyError)


def contour_energy(rmap: RationalMap, radius: float, center: complex = 0j) -> float:
    """Energy of a rational map over the chart disk |z - center| <= radius, exactly
    by Stokes' theorem.

    Away from infinity the sphere's area form is d(2 rho^2/(1 + rho^2) dphi),
    so for f = P/Q with no pole on the circle C bounding the disk B

        E(f; B) = 4 pi N + integral over C of 2 Im(conj(P) W dz / Q) / (|P|^2 + |Q|^2),

    with W = P'Q - PQ' and N the poles in B counted with multiplicity.  The
    integrand is real-analytic and periodic, so its trapezoid sum converges
    geometrically: n starts at 256 and doubles until the n- and 2n-node sums
    agree within ``_CONTOUR_TOL`` of 4 pi N plus the integrand's absolute
    sum, and the 2n-node value is returned.  N is the winding of Q along the
    2n nodes, certified: on the arc of length h from a node z_j to the next,
    |Q(z) - Q(z_j)| <= |Q'(z_j)| h + M h^2 / 2, where
    M = sum k (k - 1) |q_k| (|center| + radius)^(k-2) bounds |Q''| on C from
    Q's coefficients; once every sampled |Q| exceeds its bound, Q turns by
    less than pi/2 between nodes and the principal arguments add up to the
    winding.  Refused past 65,536 nodes (a pole on C or within that margin
    of it, or sums that do not settle), and for a radius that is not positive
    and finite or a centre that is not finite.  A constant map has energy 0.
    """
    r = _disk_radius(radius)
    c = complex(center)
    if not np.isfinite(c):
        raise FamilyError(f"disk center must be finite, got {center}")
    if rmap.degree == 0:
        return 0.0
    den, slope = rmap.den, _polyder(rmap.den)
    k = np.arange(den.size - 1, 1, -1)  # the powers of z that Q'' keeps
    bend = float(np.sum(k * (k - 1) * np.abs(den[:-2]) * (abs(c) + r) ** (k - 2)))
    n = _CONTOUR_FIRST
    while 2 * n <= _CONTOUR_LAST:
        step = np.pi / n  # the angle between neighbouring nodes of 2n
        e = np.exp(1j * step * np.arange(2 * n))
        z = c + r * e
        q = _horner(den, z)
        h = r * step
        # |Q(z) - Q(z_j)| on the arc from z_j to the next node is at most reach_j
        reach = np.abs(_horner(slope, z)) * h + 0.5 * bend * h * h
        gap = np.abs(q) - reach
        n *= 2
        if gap.min() <= 0.0:
            continue
        poles = round(float(np.sum(np.angle(np.roll(q, -1) / q))) / (2.0 * np.pi))
        p = _horner(rmap.num, z)
        g = (np.conj(p) * _horner(rmap._wronskian, z) * (1j * r) * e / q).imag
        g *= 2.0 / (np.abs(p) ** 2 + np.abs(q) ** 2)
        fine, coarse = step * float(np.sum(g)), 2.0 * step * float(np.sum(g[::2]))
        scale = 4.0 * np.pi * poles + step * float(np.sum(np.abs(g)))
        if abs(fine - coarse) <= _CONTOUR_TOL * scale:
            return 4.0 * np.pi * poles + fine
    where = f"the circle |z - {c:.6g}| = {r:.6g}"
    if gap.min() <= 0.0:
        j = int(np.argmin(gap))
        raise FamilyError(
            f"a pole lies on or near {where}: at {n} nodes, |Q| = {abs(q[j]):.3g} at "
            f"z = {z[j]:.6g} does not exceed the bound {reach[j]:.3g} on its change "
            "to the next node"
        )
    raise FamilyError(
        f"contour energy on {where} did not settle by {n} nodes: "
        f"{coarse:.12g} vs {fine:.12g}"
    )


def _quadrature_checked(
    density: Callable[[np.ndarray], np.ndarray], center: complex, radius: float
):
    """The quadrature of ``density`` on a disk at the package resolution;
    refused unless the radius is positive and finite, and unless its error
    meets the target the quadrature reports."""
    result = adaptive_polar_quadrature(
        density, center=center, r_outer=_disk_radius(radius), rel_tol=_ENERGY_REL_TOL
    )
    # a NaN value or error fails every comparison, so it needs its own refusal
    if not (np.isfinite(result.value) and np.isfinite(result.error)):
        raise FamilyError(
            f"quadrature returned a non-finite value {result.value} +- {result.error}"
        )
    if result.error > result.target:
        raise FamilyError(
            "quadrature resolution insufficient: achieved "
            f"{result.value:.12g} +- {result.error:.3g} with {result.n_panels} panels"
        )
    return result


def energy_quadrature(
    rmap: RationalMap, radius: float | None = None, center: complex = 0j
) -> float:
    """Energy of a rational map over a chart disk, or the full sphere.

    radius None integrates both unit-disk charts (z and 1/z), which tile the
    sphere; otherwise the disk |z - center| <= radius in the z chart.  The
    sphere's energy is exactly 4 pi degree, so a full-sphere value off it by
    more than 1e-6 of 4 pi max(degree, 1) (the bound of ``selftest``) is
    refused: the error estimates cannot see a bubble too small for every
    sampled rule.  No pipeline command calls it; the bench's oracle battery
    (``bench/workloads.py``) integrates seeded maps with it, over the whole
    sphere as well as over disks.
    """
    if radius is not None:
        return float(_quadrature_checked(rmap.density, complex(center), radius).value)
    here = _quadrature_checked(rmap.density, 0j, 1.0)
    far = _quadrature_checked(rmap.chart_reversed().density, 0j, 1.0)
    energy = float(here.value + far.value)
    exact = 4.0 * np.pi * rmap.degree
    if not abs(energy - exact) <= 1e-6 * 4.0 * np.pi * max(rmap.degree, 1):
        raise FamilyError(
            f"sphere energy {energy:.12g} is off 4 pi degree = {exact:.12g}: "
            "the quadrature missed a bubble"
        )
    return energy


@cache
def _sphere_lattice() -> np.ndarray:
    """Chart values of the ``_N_SPHERE``-point Fibonacci lattice on the unit sphere.

    Point j sits at height h = 1 - (2j + 1)/N, so the points split the sphere
    into N bands of equal area, and at longitude j times the golden angle.  The
    chart is the stereographic projection w = (x + iy)/(1 - h) from the north
    pole, whose pullback of the sphere's area is 4/(1 + |w|^2)^2, the density
    convention of this module; no point is a pole.  Built on first call and
    shared, read-only, by every later one.
    """
    j = np.arange(_N_SPHERE, dtype=np.float64)
    h = 1.0 - (2.0 * j + 1.0) / _N_SPHERE
    w = np.sqrt((1.0 + h) / (1.0 - h)) * np.exp(1j * (np.pi * (3.0 - np.sqrt(5.0))) * j)
    w.flags.writeable = False
    return w


@cache
def _lattice_weights(degree: int) -> np.ndarray:
    """N * degree copies of 4 pi / N, the weight of every lattice preimage of
    a map of that degree.  Built on first call per degree and shared,
    read-only: each measure's weights are a slice of it."""
    w = np.full(_N_SPHERE * degree, 4.0 * np.pi / _N_SPHERE)
    w.flags.writeable = False
    return w


def density_to_measure(rmap: RationalMap, radius: float) -> WeightedParticleMeasure:
    """Particle measure of the energy density over the chart disk |z| <= radius.

    The density is the pullback of the sphere's area, so the measure takes the
    preimages of one fixed equal-area point set: every root z of P - y_j Q with
    |z| <= radius, for each of the ``_N_SPHERE`` Fibonacci-lattice values y_j
    (``_sphere_lattice``), each atom of weight 4 pi / N.  Over the whole chart
    a map of degree d has exactly N d atoms, total mass 4 pi d; a disk holds
    the preimages of the lattice points in its image, so its mass is off by
    the lattice's miscount of that image.  Every member of a family reads the
    same lattice.  The roots are closed form at degree 1 and 2 (the quadratic
    formula without cancellation: the larger root first, the other as the
    product of the roots over it); from degree 3 on they come from one batched
    eigenvalue call on the companion matrices of all N polynomials.  The
    coefficients are d + 1 rows of N values (each step one loop over N); the
    atoms are listed lattice point by lattice point, and degree 0 has none.
    The measure is built from the arrays in hand: the |z| of the chart test
    are its moduli, the roots themselves its points when all lie in the
    disk, and its weights a read-only slice of one array per degree
    (``_lattice_weights``) that every measure of that degree shares.
    """
    chart = _disk_radius(radius)
    d = rmap.degree
    if d == 0:
        return WeightedParticleMeasure.empty(chart)
    num, den = rmap._padded()
    coeffs = _sphere_lattice() * den[:, None]  # row k: coefficient k of each P - y_j Q
    np.subtract(num[:, None], coeffs, out=coeffs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = np.divide(coeffs[1:], coeffs[0], out=coeffs[1:])
    if not np.all(np.isfinite(monic)):
        # a lattice value the map takes at infinity (to the float range) has
        # a root there, and its other roots would need their own solve
        raise FamilyError("a sphere lattice point is the map's value at z = infinity")
    if d == 1:
        roots = np.negative(monic[0], out=monic[0])
    elif d == 2:
        # z^2 + 2 h z + c, with h = g u scaled by a power of 2 so that no
        # square overflows; r takes the sign that makes |u + r| the larger
        h, c = 0.5 * monic[0], monic[1]
        g = np.ldexp(1.0, np.frexp(np.maximum(np.abs(h), np.sqrt(np.abs(c))))[1] - 1)
        u = h / g
        r = np.sqrt(u * u - c / g / g)
        big = -h - g * np.where((u.conj() * r).real < 0.0, -r, r)
        small = np.divide(c, big, out=np.zeros_like(c), where=big != 0.0)
        roots = np.stack([big, small], axis=1).ravel()
    else:
        companion = np.zeros((_N_SPHERE, d, d), np.complex128)
        companion[:, 0, :] = -monic.T
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        roots = np.linalg.eigvals(companion).ravel()
    moduli = np.abs(roots)
    inside = moduli <= chart
    if not inside.all():  # np.compress: a boolean index branches per atom
        moduli = np.compress(inside, moduli)
        roots = np.compress(inside, roots)
    elif d == 1:
        roots = roots.copy()  # a row of the coefficients, which the measure must not pin
    return WeightedParticleMeasure._with_moduli(
        roots, _lattice_weights(d)[: roots.size], chart, moduli
    )


@dataclass(frozen=True)
class FamilySpec:
    """Validated descriptor of one generated family."""

    kind: str
    schedule: tuple[float, ...]
    delta: float = 0.5
    separation: float = 0.5
    slopes: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.kind not in _BUILDERS:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        for name, value in (("schedule", self.schedule), ("slopes", self.slopes)):
            if not isinstance(value, (list, tuple)):  # a mapping would read as its keys
                raise FamilyError(f"{name} must be a list, got {reprlib.repr(value)}")
        schedule = tuple(finite_number(x, "schedule entry", FamilyError) for x in self.schedule)
        if not schedule:
            raise FamilyError("empty parameter schedule")
        if not all(x > 0 for x in schedule):
            raise FamilyError("schedule entries must be positive and finite")
        if len(self.slopes) != 2:
            raise FamilyError(f"slopes must be a pair of numbers, got {reprlib.repr(self.slopes)}")
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(
            self, "slopes", tuple(finite_number(x, "slope", FamilyError) for x in self.slopes)
        )
        if finite_number(self.delta, "delta", FamilyError) <= 0:
            raise FamilyError("delta must be positive")
        finite_number(self.separation, "separation", FamilyError)
        if self.kind == "bubble2" and not (0 < self.separation < self.chart_radius):
            raise FamilyError("bubble2 separation must lie inside the chart disk")
        if self.kind == "torus_linear":
            b = self.slopes[1]
            if abs(b - round(b)) > 0:
                raise FamilyError("theta slope must be an integer winding number")
        if self.samples_neck:
            # each member is sampled on the delta-collar of its pinch t
            try:
                for t in schedule:
                    collar_half_length(self.delta, t)
            except NeckError as exc:
                raise FamilyError(str(exc)) from exc
        if _BUILDERS[self.kind] is _plumbing_family:
            if any(a <= b for a, b in zip(schedule, schedule[1:])):
                raise FamilyError("pinch magnitudes must decrease strictly")
            lo, hi = _PLUMBING_RADII
            for t in schedule:
                try:
                    _plumbing_transition(self.kind, t)
                except FamilyError as exc:
                    raise FamilyError(f"pinch t = {t:g}: {exc}") from exc
                if not (lo <= t / self.delta and self.delta <= hi):
                    raise FamilyError(
                        f"pinch t = {t:g}: the collar radii |t|/delta = {t / self.delta:.3g} "
                        f"and delta = {self.delta:g} must lie in [2^-511, 2^510] to be sampled"
                    )

    @property
    def samples_neck(self) -> bool:
        """Whether the members are cylinder fields about a node, sampled out
        to radius ``delta``; no other kind reads ``delta``."""
        return "delta" in _OPTIONS[self.kind]

    @property
    def chart_radius(self) -> float:
        """Radius of the chart disk the members live on, where each chart's
        scale ladder starts: the collar radius ``delta`` of a neck family,
        the unit disk of the z chart otherwise."""
        return self.delta if self.samples_neck else _CHART_RADIUS

    def collar_rows(self, delta: float, pinches: Sequence[float]) -> list[tuple[int, int, float]]:
        """``neck.collar_rows`` of delta on the member field of each
        pinch in ``pinches`` (entries of the schedule), without building the
        fields; raises ``NeckError`` as that does."""
        return [collar_rows(delta, t, self.delta, _N_T) for t in pinches]

    @staticmethod
    def from_dict(data: dict) -> "FamilySpec":
        if not isinstance(data, dict):
            raise FamilyError(f"family spec must be a mapping, got {reprlib.repr(data)}")
        known = {f.name for f in fields(FamilySpec)}
        extra = set(data) - known
        if extra:
            raise FamilyError(f"unknown family options {sorted(extra, key=str)}")
        try:
            spec = FamilySpec(**data)
        except TypeError as exc:
            raise FamilyError(f"bad family spec: {exc}") from exc
        unread = set(data) - {"kind", "schedule", *_OPTIONS[spec.kind]}
        if unread:
            raise FamilyError(f"family kind {spec.kind!r} does not read options {sorted(unread)}")
        return spec


@dataclass(frozen=True)
class FamilyMember:
    """One generated member; unused carriers are None."""

    label: str
    parameter: float
    rational: RationalMap | None
    measure: WeightedParticleMeasure | None
    field: CylinderField | None


@dataclass(frozen=True)
class Family:
    """Generated members over the base dual graph ``curve``, with the limit
    measure their energy converges to off the sites, built with them; for
    neck fields, edge 0 of the curve is the node they sample."""

    members: tuple[FamilyMember, ...]
    curve: MarkedNodalCurve
    limit_measure: WeightedParticleMeasure


def _bubble_family(spec: FamilySpec) -> Family:
    """k z (bubble1) or k (z^2 - a^2) (bubble2) on the unit disk of a smooth sphere."""
    a = spec.separation
    members = []
    for k in spec.schedule:
        rmap = RationalMap((k, 0.0) if spec.kind == "bubble1" else (k, 0.0, -k * a * a), (1.0,))
        mu = density_to_measure(rmap, spec.chart_radius)
        members.append(FamilyMember(f"k={k:g}", float(k), rmap, mu, None))
    return Family(
        tuple(members),
        MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3))),
        WeightedParticleMeasure.empty(spec.chart_radius),
    )


def _plumbing_transition(kind: str, t: float) -> RationalMap:
    """Transition map of the plumbing member of pinch t: x + t/x (plumbing),
    or a bubble of scale t^(1/3) riding in the neck, whose side limits both
    vanish (plumbing_bubble)."""
    if kind == "plumbing":
        return RationalMap((1.0, 0.0, t), (1.0, 0.0))
    return RationalMap((t ** (1.0 / 3.0),), (1.0, 0.0))


def _plumbing_family(spec: FamilySpec) -> Family:
    members = []
    for t in spec.schedule:
        m = _plumbing_transition(spec.kind, t)
        fld = cylinder_field_from_sphere_chart(
            m.value, m.derivative, pinch=t, delta=spec.delta, n_t=_N_T, n_theta=_N_THETA
        )
        members.append(FamilyMember(f"t={t:g}", float(t), m, None, fld))
    limit = WeightedParticleMeasure.empty(spec.chart_radius)
    if spec.kind == "plumbing":
        # both sides of x + t/x limit to the identity chart map, so the far
        # side contributes its disk energy as an atom at the node
        near = density_to_measure(RationalMap((1.0, 0.0), (1.0,)), spec.chart_radius)
        limit = WeightedParticleMeasure._with_moduli(
            np.append(near.points, 0j),
            np.append(near.weights, near.mass),
            near.chart_radius,
            np.append(near.moduli, 0.0),
        )
    # two genus-0 sides joined at the node, each stabilized by its marks
    curve = MarkedNodalCurve((0, 0), ((0, 1),), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)))
    return Family(tuple(members), curve, limit)


def _torus_family(spec: FamilySpec) -> Family:
    a, b = spec.slopes
    target = FlatTorusTarget
    members = []
    for t in spec.schedule:
        half = collar_half_length(spec.delta, t)
        t_nodes = np.linspace(-half, half, _N_T + 1)
        theta = np.arange(_N_THETA) * (2.0 * np.pi / _N_THETA)
        points = target.point(a * t_nodes[:, None], b * theta[None, :])
        fld = CylinderField(
            points=points,
            ft_sq=np.full(points.shape[:2], a * a),
            fth_sq=np.full(points.shape[:2], b * b),
            target=target,
            pinch=complex(t),
            delta=spec.delta,
        )
        members.append(FamilyMember(f"t={t:g}", float(t), None, None, fld))
    # the neck closes a cycle through two genus-0 components: edge 0 is not
    # a bridge, so the node it samples is not regular
    return Family(
        tuple(members),
        MarkedNodalCurve((0, 0), ((0, 1), (0, 1)), ((0, 1), (1, 2))),
        WeightedParticleMeasure.empty(spec.chart_radius),
    )


# family kind -> builder; FamilySpec accepts exactly these kinds
_BUILDERS: dict[str, Callable[[FamilySpec], Family]] = {
    "bubble1": _bubble_family,
    "bubble2": _bubble_family,
    "plumbing": _plumbing_family,
    "plumbing_bubble": _plumbing_family,
    "torus_linear": _torus_family,
}


# family kind -> the options its builder reads besides the schedule;
# ``FamilySpec.from_dict`` refuses any other
_OPTIONS: dict[str, tuple[str, ...]] = {
    "bubble1": (),
    "bubble2": ("separation",),
    "plumbing": ("delta",),
    "plumbing_bubble": ("delta",),
    "torus_linear": ("delta", "slopes"),
}


def make_family(spec: FamilySpec) -> Family:
    """Generate a family deterministically; identical specs give identical output."""
    return _BUILDERS[spec.kind](spec)
