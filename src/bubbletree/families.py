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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import FamilyError
from .measure import WeightedParticleMeasure
from .neck import CylinderField, FlatTorusTarget, cylinder_field_from_sphere_chart
from .quadrature import adaptive_polar_quadrature

__all__ = [
    "RationalMap",
    "FamilySpec",
    "FamilyMember",
    "Family",
    "energy_quadrature",
    "density_to_measure",
    "make_family",
]

FAMILY_KINDS = ("bubble1", "bubble2", "plumbing", "plumbing_bubble", "torus_linear")


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
        q = _horner(self.den, z)
        w = _horner(self._wronskian, z)
        return 4.0 * np.abs(w) ** 2 / (np.abs(p) ** 2 + np.abs(q) ** 2) ** 2

    def chart_reversed(self) -> "RationalMap":
        """The same sphere map in the w = 1/z chart, again as a rational map."""
        d = self.degree
        if d == 0:
            return RationalMap(self.num.copy(), self.den.copy())
        num = np.concatenate([np.zeros(d + 1 - self.num.size, np.complex128), self.num])
        den = np.concatenate([np.zeros(d + 1 - self.den.size, np.complex128), self.den])
        return RationalMap(num[::-1].copy(), den[::-1].copy())


def _quadrature_checked(
    density: Callable[[np.ndarray], np.ndarray],
    center: complex,
    radius: float,
    rel_tol: float,
    abs_tol: float,
    max_panels: int,
    emit: bool = False,
    mass_frac: float | None = None,
):
    result = adaptive_polar_quadrature(
        density,
        center=center,
        r_outer=radius,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_panels=max_panels,
        emit_particles=emit,
        emit_mass_frac=mass_frac if emit else None,
    )
    if result.error > max(abs_tol, rel_tol * abs(result.value)):
        raise FamilyError(
            "quadrature resolution insufficient: achieved "
            f"{result.value:.12g} +- {result.error:.3g} with {result.n_panels} panels"
        )
    return result


def energy_quadrature(
    rmap: RationalMap,
    radius: float | None = None,
    center: complex = 0j,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_panels: int = 20000,
) -> float:
    """Energy of a rational map over a chart disk, or the full sphere.

    radius None integrates both unit-disk charts (z and 1/z), which tile the
    sphere; otherwise the disk |z - center| <= radius in the z chart.
    """
    if radius is not None:
        if not (radius > 0 and np.isfinite(radius)):
            raise FamilyError(f"cap radius must be positive and finite, got {radius}")
        res = _quadrature_checked(
            rmap.density, complex(center), float(radius), rel_tol, abs_tol, max_panels
        )
        return float(res.value)
    here = _quadrature_checked(rmap.density, 0j, 1.0, rel_tol, abs_tol, max_panels)
    rev = rmap.chart_reversed()
    far = _quadrature_checked(rev.density, 0j, 1.0, rel_tol, abs_tol, max_panels)
    return float(here.value + far.value)


def density_to_measure(
    rmap: RationalMap,
    radius: float,
    center: complex = 0j,
    rel_tol: float = 1e-7,
    abs_tol: float = 1e-12,
    max_panels: int = 20000,
    mass_frac: float = 2.5e-3,
) -> WeightedParticleMeasure:
    """Particle measure of the energy density over a chart disk.

    The emitted total mass equals the adaptive quadrature value over the same
    disk at the same resolution parameters, up to summation order; atom
    granularity is bounded by mass_frac of the total, with atoms placed at
    radial mass quantiles so ball masses track the density's.
    """
    if not (radius > 0 and np.isfinite(radius)):
        raise FamilyError(f"disk radius must be positive and finite, got {radius}")
    res = _quadrature_checked(
        rmap.density,
        complex(center),
        float(radius),
        rel_tol,
        abs_tol,
        max_panels,
        emit=True,
        mass_frac=mass_frac,
    )
    keep = res.weights > 0.0
    return WeightedParticleMeasure(
        res.points[keep], res.weights[keep], chart_radius=abs(center) + float(radius)
    )


@dataclass(frozen=True)
class FamilySpec:
    """Validated descriptor of one generated family."""

    kind: str
    schedule: tuple[float, ...]
    chart_radius: float = 1.0
    delta: float = 0.5
    separation: float = 0.5
    slopes: tuple[float, float] = (1.0, 1.0)
    rel_tol: float = 1e-7
    max_panels: int = 20000
    n_t: int = 256
    n_theta: int = 64

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        schedule = tuple(float(x) for x in self.schedule)
        if not schedule:
            raise FamilyError("empty parameter schedule")
        if not all(np.isfinite(x) and x > 0 for x in schedule):
            raise FamilyError("schedule entries must be positive and finite")
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "slopes", (float(self.slopes[0]), float(self.slopes[1])))
        if self.chart_radius <= 0 or self.delta <= 0:
            raise FamilyError("chart_radius and delta must be positive")
        if self.kind == "bubble2" and not (0 < self.separation < self.chart_radius):
            raise FamilyError("bubble2 separation must lie inside the chart disk")
        if self.kind == "torus_linear":
            b = self.slopes[1]
            if abs(b - round(b)) > 0:
                raise FamilyError("theta slope must be an integer winding number")
        if self.rel_tol <= 0 or self.max_panels < 64:
            raise FamilyError("bad resolution parameters")
        if self.n_t < 8 or self.n_theta < 8:
            raise FamilyError("cylinder grid too coarse")

    @staticmethod
    def from_dict(data: dict) -> "FamilySpec":
        known = {f.name for f in fields(FamilySpec)}
        extra = set(data) - known
        if extra:
            raise FamilyError(f"unknown family options {sorted(extra)}")
        kwargs = dict(data)
        if "schedule" in kwargs:
            kwargs["schedule"] = tuple(kwargs["schedule"])
        if "slopes" in kwargs:
            kwargs["slopes"] = tuple(kwargs["slopes"])
        try:
            return FamilySpec(**kwargs)
        except TypeError as exc:
            raise FamilyError(f"bad family spec: {exc}") from exc


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
    kind: str
    members: tuple[FamilyMember, ...]
    limit_measure: WeightedParticleMeasure | None
    meta: dict


def _with_atom(
    mu: WeightedParticleMeasure, location: complex, weight: float
) -> WeightedParticleMeasure:
    return WeightedParticleMeasure(
        np.concatenate([mu.points, [complex(location)]]),
        np.concatenate([mu.weights, [float(weight)]]),
        mu.chart_radius,
    )


def _bubble_family(spec: FamilySpec, coeffs) -> Family:
    numerator, denominator = coeffs
    members = []
    for k in spec.schedule:
        rmap = RationalMap(
            np.asarray(numerator(k), dtype=np.complex128),
            np.asarray(denominator(k), dtype=np.complex128),
        )
        mu = density_to_measure(
            rmap, spec.chart_radius, rel_tol=spec.rel_tol, max_panels=spec.max_panels
        )
        members.append(FamilyMember(f"k={k:g}", float(k), rmap, mu, None))
    meta = {"degree": members[0].rational.degree, "chart_radius": spec.chart_radius}
    if spec.kind == "bubble2":
        meta["separation"] = spec.separation
    return Family(
        kind=spec.kind,
        members=tuple(members),
        limit_measure=WeightedParticleMeasure.empty(spec.chart_radius),
        meta=meta,
    )


def _plumbing_family(spec: FamilySpec) -> Family:
    if spec.kind == "plumbing":

        def transition(t: float) -> RationalMap:
            return RationalMap((1.0, 0.0, t), (1.0, 0.0))  # x + t/x

    else:

        def transition(t: float) -> RationalMap:
            # bubble of scale t^(1/3) riding in the neck; both side limits vanish
            return RationalMap((t ** (1.0 / 3.0),), (1.0, 0.0))

    # neck xy = t, |x|, |y| <= delta for each pinch t
    if any(t >= spec.delta**2 for t in spec.schedule):
        raise FamilyError("pinch magnitudes must stay below delta^2")
    if any(a <= b for a, b in zip(spec.schedule, spec.schedule[1:])):
        raise FamilyError("pinch magnitudes must decrease strictly")
    members = []
    for t in spec.schedule:
        m = transition(t)
        fld = cylinder_field_from_sphere_chart(
            m.value, m.derivative, pinch=t, delta=spec.delta, n_t=spec.n_t, n_theta=spec.n_theta
        )
        members.append(FamilyMember(f"t={t:g}", float(t), m, None, fld))
    if spec.kind == "plumbing":
        # both sides of x + t/x limit to the identity chart map, so the far
        # side contributes its disk energy as an atom at the node
        identity = RationalMap((1.0, 0.0), (1.0,))
        visible = density_to_measure(
            identity, spec.delta, rel_tol=spec.rel_tol, max_panels=spec.max_panels
        )
        limit = _with_atom(visible, 0j, visible.mass)
    else:
        limit = WeightedParticleMeasure.empty(spec.delta)
    meta = {"delta": spec.delta, "pinches": spec.schedule}
    return Family(kind=spec.kind, members=tuple(members), limit_measure=limit, meta=meta)


def _torus_family(spec: FamilySpec) -> Family:
    a, b = spec.slopes
    target = FlatTorusTarget()
    members = []
    for t in spec.schedule:
        if np.sqrt(t) >= spec.delta:
            raise FamilyError(f"pinch {t:g} must satisfy sqrt(t) < delta")
        half = float(np.log(spec.delta / np.sqrt(t)))
        t_nodes = np.linspace(-half, half, spec.n_t + 1)
        theta = np.arange(spec.n_theta) * (2.0 * np.pi / spec.n_theta)
        tt, th = np.meshgrid(t_nodes, theta, indexing="ij")
        u = a * tt
        v = b * th
        fld = CylinderField(
            half_length=half,
            points=target.point(u, v),
            f_t=target.push(u, v, np.full_like(u, a), np.zeros_like(u)),
            f_theta=target.push(u, v, np.zeros_like(u), np.full_like(u, float(b))),
            target=target,
            pinch=complex(t),
            delta=spec.delta,
        )
        members.append(FamilyMember(f"t={t:g}", float(t), None, None, fld))
    meta = {"slope_t": a, "slope_theta": b, "delta": spec.delta}
    return Family(kind=spec.kind, members=tuple(members), limit_measure=None, meta=meta)


def make_family(spec: FamilySpec) -> Family:
    """Generate a family deterministically; identical specs give identical output."""
    if spec.kind == "bubble1":
        return _bubble_family(spec, (lambda k: (k, 0.0), lambda k: (1.0,)))
    if spec.kind == "bubble2":
        a = spec.separation
        return _bubble_family(
            spec, (lambda k: (k, 0.0, -k * a * a), lambda k: (1.0,))
        )
    if spec.kind in ("plumbing", "plumbing_bubble"):
        return _plumbing_family(spec)
    if spec.kind == "torus_linear":
        return _torus_family(spec)
    raise FamilyError(f"unknown family kind {spec.kind!r}")
