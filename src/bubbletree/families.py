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
from functools import cached_property
from typing import Callable

import numpy as np

from .curve import MarkedNodalCurve
from .errors import FamilyError, NeckError, finite_number
from .measure import WeightedParticleMeasure
from .neck import CylinderField, FlatTorusTarget, collar_half_length
from .neck import cylinder_field_from_sphere_chart
from .quadrature import _ABS_TOL, adaptive_polar_quadrature

__all__ = [
    "RationalMap",
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
_MEASURE_REL_TOL = 1e-7  # density_to_measure
_MASS_FRAC = 2.5e-3  # atom weight bound, as a fraction of the emitted mass
_CHART_RADIUS = 1.0  # rational families live on the unit disk of the z chart
_N_T, _N_THETA = 256, 64  # cylinder grid of the neck families


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
    mass_frac: float | None = None,
):
    """The quadrature of ``density`` on a disk at the package resolution,
    emitting particles when ``mass_frac`` is given; refused unless resolved."""
    result = adaptive_polar_quadrature(
        density,
        center=center,
        r_outer=radius,
        rel_tol=rel_tol,
        emit_mass_frac=mass_frac,
    )
    # a NaN value or error fails every comparison, so it needs its own refusal
    if not (np.isfinite(result.value) and np.isfinite(result.error)):
        raise FamilyError(
            f"quadrature returned a non-finite value {result.value} +- {result.error}"
        )
    if result.error > max(_ABS_TOL, rel_tol * abs(result.value)):
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
    sphere; otherwise the disk |z - center| <= radius in the z chart.
    """
    if radius is not None:
        if not (radius > 0 and np.isfinite(radius)):
            raise FamilyError(f"cap radius must be positive and finite, got {radius}")
        res = _quadrature_checked(
            rmap.density, complex(center), float(radius), _ENERGY_REL_TOL
        )
        return float(res.value)
    here = _quadrature_checked(rmap.density, 0j, 1.0, _ENERGY_REL_TOL)
    far = _quadrature_checked(rmap.chart_reversed().density, 0j, 1.0, _ENERGY_REL_TOL)
    return float(here.value + far.value)


def density_to_measure(rmap: RationalMap, radius: float) -> WeightedParticleMeasure:
    """Particle measure of the energy density over the chart disk |z| <= radius.

    The emitted total mass equals the adaptive quadrature value over the same
    disk at the same resolution, up to summation order; atom granularity is
    bounded by ``_MASS_FRAC`` of the total, with atoms placed at radial mass
    quantiles so ball masses track the density's.
    """
    if not (radius > 0 and np.isfinite(radius)):
        raise FamilyError(f"disk radius must be positive and finite, got {radius}")
    res = _quadrature_checked(rmap.density, 0j, float(radius), _MEASURE_REL_TOL, _MASS_FRAC)
    keep = res.weights > 0.0
    return WeightedParticleMeasure(res.points[keep], res.weights[keep], chart_radius=float(radius))


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
        schedule = tuple(finite_number(x, "schedule entry", FamilyError) for x in self.schedule)
        if not schedule:
            raise FamilyError("empty parameter schedule")
        if not all(x > 0 for x in schedule):
            raise FamilyError("schedule entries must be positive and finite")
        if len(self.slopes) != 2:
            raise FamilyError(f"slopes must be a pair of numbers, got {self.slopes!r}")
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(
            self, "slopes", tuple(finite_number(x, "slope", FamilyError) for x in self.slopes)
        )
        if finite_number(self.delta, "delta", FamilyError) <= 0:
            raise FamilyError("delta must be positive")
        finite_number(self.separation, "separation", FamilyError)
        if self.kind == "bubble2" and not (0 < self.separation < _CHART_RADIUS):
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
        if _BUILDERS[self.kind] is _plumbing_family and any(
            a <= b for a, b in zip(schedule, schedule[1:])
        ):
            raise FamilyError("pinch magnitudes must decrease strictly")

    @property
    def samples_neck(self) -> bool:
        """Whether the members are cylinder fields about a node, sampled out
        to radius ``delta``; otherwise ``delta`` is not read."""
        return _BUILDERS[self.kind] is not _bubble_family

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
    """Generated members over the base dual graph ``curve``; for neck fields,
    edge 0 of the curve is the node they sample.  The limit measure is built
    on first read, by ``build_limit``, so callers that never read it pay
    nothing for it."""

    kind: str
    members: tuple[FamilyMember, ...]
    curve: MarkedNodalCurve
    build_limit: Callable[[], WeightedParticleMeasure] = field(repr=False, compare=False)

    @cached_property
    def limit_measure(self) -> WeightedParticleMeasure:
        return self.build_limit()


def _with_atom(
    mu: WeightedParticleMeasure, location: complex, weight: float
) -> WeightedParticleMeasure:
    return WeightedParticleMeasure(
        np.concatenate([mu.points, [complex(location)]]),
        np.concatenate([mu.weights, [float(weight)]]),
        mu.chart_radius,
    )


def _bubble_family(spec: FamilySpec) -> Family:
    """k z (bubble1) or k (z^2 - a^2) (bubble2) on the unit disk of a smooth sphere."""
    a = spec.separation
    members = []
    for k in spec.schedule:
        rmap = RationalMap((k, 0.0) if spec.kind == "bubble1" else (k, 0.0, -k * a * a), (1.0,))
        mu = density_to_measure(rmap, _CHART_RADIUS)
        members.append(FamilyMember(f"k={k:g}", float(k), rmap, mu, None))
    return Family(
        kind=spec.kind,
        members=tuple(members),
        curve=MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3))),
        build_limit=lambda: WeightedParticleMeasure.empty(_CHART_RADIUS),
    )


def _plumbing_family(spec: FamilySpec) -> Family:
    if spec.kind == "plumbing":

        def transition(t: float) -> RationalMap:
            return RationalMap((1.0, 0.0, t), (1.0, 0.0))  # x + t/x

    else:

        def transition(t: float) -> RationalMap:
            # bubble of scale t^(1/3) riding in the neck; both side limits vanish
            return RationalMap((t ** (1.0 / 3.0),), (1.0, 0.0))

    members = []
    for t in spec.schedule:
        m = transition(t)
        fld = cylinder_field_from_sphere_chart(
            m.value, m.derivative, pinch=t, delta=spec.delta, n_t=_N_T, n_theta=_N_THETA
        )
        members.append(FamilyMember(f"t={t:g}", float(t), m, None, fld))

    def limit() -> WeightedParticleMeasure:
        if spec.kind != "plumbing":
            return WeightedParticleMeasure.empty(spec.delta)
        # both sides of x + t/x limit to the identity chart map, so the far
        # side contributes its disk energy as an atom at the node
        visible = density_to_measure(RationalMap((1.0, 0.0), (1.0,)), spec.delta)
        return _with_atom(visible, 0j, visible.mass)

    # two genus-0 sides joined at the node, each stabilized by its marks
    curve = MarkedNodalCurve((0, 0), ((0, 1),), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)))
    return Family(kind=spec.kind, members=tuple(members), curve=curve, build_limit=limit)


def _torus_family(spec: FamilySpec) -> Family:
    a, b = spec.slopes
    target = FlatTorusTarget
    members = []
    for t in spec.schedule:
        half = collar_half_length(spec.delta, t)
        t_nodes = np.linspace(-half, half, _N_T + 1)
        theta = np.arange(_N_THETA) * (2.0 * np.pi / _N_THETA)
        tt, th = np.meshgrid(t_nodes, theta, indexing="ij")
        points, e_u, e_v = target.frame(a * tt, b * th)
        fld = CylinderField(
            half_length=half,
            points=points,
            f_t=a * e_u,
            f_theta=b * e_v,
            target=target,
            pinch=complex(t),
            delta=spec.delta,
        )
        members.append(FamilyMember(f"t={t:g}", float(t), None, None, fld))
    # the neck closes a cycle through two genus-0 components: edge 0 is not
    # a bridge, so the node it samples is not regular
    return Family(
        kind=spec.kind,
        members=tuple(members),
        curve=MarkedNodalCurve((0, 0), ((0, 1), (0, 1)), ((0, 1), (1, 2))),
        build_limit=lambda: WeightedParticleMeasure.empty(spec.delta),
    )


# family kind -> builder; FamilySpec accepts exactly these kinds
_BUILDERS: dict[str, Callable[[FamilySpec], Family]] = {
    "bubble1": _bubble_family,
    "bubble2": _bubble_family,
    "plumbing": _plumbing_family,
    "plumbing_bubble": _plumbing_family,
    "torus_linear": _torus_family,
}


def make_family(spec: FamilySpec) -> Family:
    """Generate a family deterministically; identical specs give identical output."""
    return _BUILDERS[spec.kind](spec)
