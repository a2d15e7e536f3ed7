"""Cylindrical neck analysis.

A neck is sampled on the delta-collar [-T, T] x S^1 of the pinch xy = pinch,
in the chart x = sqrt(pinch) e^{t + i theta} with T = log(delta / sqrt|pinch|):
its points on an embedded target (the unit sphere in R^3, or the square flat
torus R^2/(2 pi Z)^2 as the product of two unit circles in R^4) and its
squared speeds |f_t|^2 and |f_theta|^2 at each point.  Every diagnostic reads
only those, through the energy split

    E = 2T * alpha + integral of Theta,   alpha(t) = 1/2 int (|f_t|^2 - |f_theta|^2) dtheta,
                                          Theta(t) = int |f_theta|^2 dtheta,

and reports the average length, an upper bound on the image diameter, the
per-slice conformality defect in Pohozaev form (the largest 2|alpha(t)| over
the slice energy, zero for a conformal neck), and tests the vanishing of neck
energy and diameter over a schedule of shrinking chart radii.

The delta-collar |pinch|/delta <= |x| <= delta of xy = pinch has one rule,
``collar_half_length``, and ``collar_rows`` alone turns it into the rows
i0..i1 of a field's t grid; the config loader calls it too, through
``FamilySpec.collar_rows`` on the members of ``late_half``, so load and the
zero-neck test refuse the same neck deltas.
Each field caches, on first use, its per-sample energy density
|f_t|^2 + |f_theta|^2 and one table of per-t-row theta-sums, and a collar is
a window of them: ``collar_diagnostics`` (which the zero-neck test calls for
every delta) reads rows i0..i1 of the sums, and the nodal pushforward (collar
energy as atoms on the x-side chart) rows i0..i1 of the density alone;
neither builds a sub-field.  Both agree bit for bit with the diagnostics
and atoms of the cut sub-field, which the tests keep as their reference.

The diameter is bounded on the safe side with O(N) work over all N samples.
A farthest-point sweep finds a real sample pair; its distance is checked
against 2 max-slice-arc + average length.  No two samples are farther apart
than twice the largest distance from a centre to a sample, taken at the
better of two centres.  Twice a covering radius of the grid cells extends
that bound from the samples to the whole image, assuming |f_t| and |f_theta|
stay below their largest sampled values inside each cell; the result is
capped at the chord diameter of the target.  The samples are read as
coordinate planes, and every sum runs in a fixed order: the centroid is a
sequential sum over the samples, and each squared distance adds its
even-coordinate lane to its odd-coordinate lane.  The bracket therefore
equals the row-major reference (``mean`` over samples, ``einsum`` over
coordinates) bit for bit.

Quadrature is trapezoidal in t and the uniform periodic rule in theta; both
are spectrally accurate for the smooth periodic integrands arising here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NeckError, neck_schedule
from .measure import WeightedParticleMeasure

__all__ = [
    "SphereTarget",
    "FlatTorusTarget",
    "CylinderField",
    "build_nodal_pushforward",
    "collar_diagnostics",
    "NeckDiagnostics",
    "ZeroNeckRow",
    "ZeroNeckReport",
    "cylinder_field_from_sphere_chart",
    "diagnostics",
    "zero_neck_test",
    "profile_to_csv",
]

_TWO_PI = 2.0 * np.pi
_SLACK = 1e-12  # relative slack of the chart bound and of the snap to grid nodes


class SphereTarget:
    """Unit sphere in R^3, charted by inverse stereographic projection."""

    dim = 3
    chord_diameter = 2.0

    @staticmethod
    def point(w: np.ndarray) -> np.ndarray:
        u, v = np.real(w), np.imag(w)
        n = 1.0 + u * u + v * v
        return np.stack([2.0 * u / n, 2.0 * v / n, (n - 2.0) / n], axis=-1)

    @staticmethod
    def residual(points: np.ndarray) -> float:
        return float(np.max(np.abs(np.linalg.norm(points, axis=-1) - 1.0)))


class FlatTorusTarget:
    """Square flat torus R^2/(2 pi Z)^2, embedded as the product of two unit
    circles in R^4."""

    dim = 4
    chord_diameter = 2.0 * float(np.sqrt(2.0))

    @staticmethod
    def point(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)], axis=-1)

    @staticmethod
    def residual(points: np.ndarray) -> float:
        r1 = np.hypot(points[..., 0], points[..., 1]) - 1.0
        r2 = np.hypot(points[..., 2], points[..., 3]) - 1.0
        return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


@dataclass(frozen=True)
class CylinderField:
    """Sampled map on the delta-collar [-T, T] x S^1 of the pinch xy = pinch,
    in the chart x = sqrt(pinch) e^{t + i theta}.

    points : array of shape (n_t + 1, n_theta, dim) on the target; the t
    grid is uniform including both endpoints, the theta grid is uniform
    over [0, 2 pi) without the duplicate endpoint.
    ft_sq, fth_sq : |f_t|^2 and |f_theta|^2 at each sample, arrays of shape
    (n_t + 1, n_theta); the diagnostics read nothing else of the derivatives.
    half_length : T = ``collar_half_length(delta, pinch)``, derived.
    """

    points: np.ndarray
    ft_sq: np.ndarray
    fth_sq: np.ndarray
    target: object
    pinch: complex
    delta: float
    half_length: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_length", collar_half_length(self.delta, self.pinch))
        shape = self.points.shape
        if len(shape) != 3 or shape[0] < 3 or shape[1] < 4:
            raise NeckError("degenerate grid")
        if shape[2] != self.target.dim:
            raise NeckError("sample dimension does not match the target")
        if self.ft_sq.shape != shape[:2] or self.fth_sq.shape != shape[:2]:
            raise NeckError("squared speeds are not on the grid of the points")
        if not all(np.isfinite(a).all() for a in (self.points, self.ft_sq, self.fth_sq)):
            raise NeckError("non-finite samples")
        if not (np.all(self.ft_sq >= 0.0) and np.all(self.fth_sq >= 0.0)):
            raise NeckError("negative squared speed")
        res = self.target.residual(self.points)
        if res > 1e-10:
            raise NeckError(f"sample points leave the target manifold by {res:.3e}")

    @property
    def n_t(self) -> int:
        return self.points.shape[0] - 1

    @property
    def n_theta(self) -> int:
        return self.points.shape[1]

    @property
    def theta_nodes(self) -> np.ndarray:
        return np.arange(self.n_theta) * (_TWO_PI / self.n_theta)

    @cached_property
    def density(self) -> np.ndarray:
        """Per-sample energy density |f_t|^2 + |f_theta|^2, shape
        (n_t + 1, n_theta), built on first use."""
        return self.ft_sq + self.fth_sq

    @cached_property
    def rows(self) -> "_RowTable":
        """Per-t-row theta-sums of the squared speeds, built on first use."""
        ft_sq, fth_sq = self.ft_sq, self.fth_sq
        ft_norm = np.sqrt(ft_sq)
        fth_norm = np.sqrt(fth_sq)
        return _RowTable(
            split=np.sum(ft_sq - fth_sq, axis=1),
            theta=np.sum(fth_sq, axis=1),
            energy=np.sum(ft_sq + fth_sq, axis=1),
            ft=np.sum(ft_norm, axis=1),
            fth=np.sum(fth_norm, axis=1),
            ft_max=ft_norm.max(axis=1),
            fth_max=fth_norm.max(axis=1),
        )

    def collar_window(self, delta: float) -> tuple[int, int, float]:
        """``collar_rows`` of this field."""
        return collar_rows(delta, self.pinch, self.delta, self.n_t)


def late_half(members: Sequence) -> Sequence:
    """The later half of a family, middle included: what the zero-neck test reads."""
    return members[-((len(members) + 1) // 2) :]


def collar_half_length(delta: float, pinch: complex, chart: float | None = None) -> float:
    """Half-length log(delta / sqrt|pinch|) of the delta-collar of xy = pinch,
    refused unless positive and finite, and unless delta <= ``chart`` (a
    field's sampled radius, when given) up to a relative 1e-12.  Every neck
    grid is built on it, so it keeps numpy's log: ``math.log`` can differ in
    the last bit."""
    if chart is not None and delta > chart * (1.0 + _SLACK):
        raise NeckError(f"delta {delta} exceeds the sampled chart {chart}")
    half = float(np.log(delta / np.sqrt(abs(pinch))))
    if not half > 0:
        raise NeckError(f"delta {delta} does not exceed sqrt(t) for the pinch t = {abs(pinch):g}")
    if half == np.inf:
        raise NeckError(f"delta {delta} cuts an unbounded collar of the pinch t = {abs(pinch):g}")
    return half


def collar_rows(delta: float, pinch: complex, chart: float, n_t: int) -> tuple[int, int, float]:
    """Rows i0..i1 (at least three) of the delta-collar, snapped inward, and
    its half-length t[i1], on the n_t + 1 t nodes of the field of ``pinch``
    sampled out to radius ``chart``."""
    half_length = collar_half_length(chart, pinch)
    half = min(collar_half_length(delta, pinch, chart), half_length)
    t = np.linspace(-half_length, half_length, n_t + 1)
    idx = np.nonzero(np.abs(t) <= half * (1.0 + _SLACK))[0]
    if len(idx) < 3:
        raise NeckError(
            f"delta {delta} leaves a degenerate grid on the collar of pinch t = {abs(pinch):g}"
        )
    return int(idx[0]), int(idx[-1]), float(t[idx[-1]])


@dataclass(frozen=True)
class _RowTable:
    """Theta-sums over each t row of one field, arrays of shape (n_t + 1,).

    split, theta and energy sum |f_t|^2 - |f_theta|^2, |f_theta|^2 and
    |f_t|^2 + |f_theta|^2 (the field's density) over a row; ft and fth sum
    |f_t| and |f_theta|, and ft_max, fth_max are their row maxima.
    """

    split: np.ndarray
    theta: np.ndarray
    energy: np.ndarray
    ft: np.ndarray
    fth: np.ndarray
    ft_max: np.ndarray
    fth_max: np.ndarray


def _trapezoid(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of n equally spaced nodes h apart."""
    w = np.full(n, h)
    w[[0, -1]] *= 0.5
    return w


def build_nodal_pushforward(neck: CylinderField, delta: float) -> WeightedParticleMeasure:
    """Energy of rows ``neck.collar_window(delta)`` as atoms at
    x = sqrt(pinch) e^{t+i theta}.

    Each sample carries its quadrature share of the collar energy, so the
    disk B(0, |pinch|/delta) carries nothing and the total is the collar energy.
    """
    i0, i1, half = neck.collar_window(delta)
    t = np.linspace(-half, half, i1 - i0 + 1)
    w_t = _trapezoid(len(t), t[1] - t[0])
    h_th = _TWO_PI / neck.n_theta
    density = 0.5 * neck.density[i0 : i1 + 1] * w_t[:, None] * h_th
    root = np.sqrt(complex(neck.pinch))
    x = root * np.exp(t[:, None] + 1j * neck.theta_nodes[None, :])
    return WeightedParticleMeasure(x.ravel(), density.ravel(), chart_radius=delta)


def cylinder_field_from_sphere_chart(
    m: Callable[[np.ndarray], np.ndarray],
    m_prime: Callable[[np.ndarray], np.ndarray],
    pinch: complex,
    delta: float,
    n_t: int = 128,
    n_theta: int = 64,
) -> CylinderField:
    """Sample x -> m(x) on the annulus |pinch|/delta <= |x| <= delta.

    m is a holomorphic chart map to the sphere, given with its complex
    derivative; the cylinder coordinate is x = sqrt(pinch) e^{t + i theta}.
    Holomorphic maps are conformal: f_theta is f_t turned by a right angle,
    so both squared speeds are 4 |x m'(x)|^2 / (1 + |m|^2)^2 and the field
    holds them as one array.
    """
    root = np.sqrt(complex(pinch))
    half_length = collar_half_length(delta, pinch)
    t = np.linspace(-half_length, half_length, n_t + 1)
    theta = np.arange(n_theta) * (_TWO_PI / n_theta)
    x = root * np.exp(t[:, None] + 1j * theta[None, :])
    w = m(x)
    dw = m_prime(x) * x
    n = 1.0 + w.real * w.real + w.imag * w.imag
    speed_sq = 4.0 * (dw.real * dw.real + dw.imag * dw.imag) / (n * n)
    return CylinderField(
        SphereTarget.point(w), speed_sq, speed_sq, SphereTarget, complex(pinch), float(delta)
    )


@dataclass(frozen=True)
class NeckDiagnostics:
    alpha: float
    alpha_deviation: float
    t_nodes: np.ndarray
    theta_profile: np.ndarray  # Theta(t) per t node
    alpha_profile: np.ndarray  # alpha(t) per t node
    energy: float
    theta_integral: float
    avg_length: float
    diameter: float  # upper bound on the image diameter (module docstring)
    pohozaev_residual: float
    half_length: float


def _diameter_bracket(points: np.ndarray) -> tuple[float, float]:
    """(lower, upper) bracket of the diameter of the sample points, in O(N).

    lower: farthest-point sweep from the sample farthest from the centroid,
    stepping to the sample farthest from the current one while that distance
    grows; it is the distance of a real sample pair.  upper: 2 min R(c) over
    the centroid and the midpoint of the sweep pair, R(c) the largest
    distance from c to a sample; no two samples are farther apart than 2R(c).
    Coordinates are centred first so the distances lose no digits.

    The samples (dim >= 2) are read as dim coordinate planes of length N, in
    a fixed summation order: the centroid is a sequential sum over the
    samples, and a squared distance is the sum of its even-coordinate lane
    and its odd-coordinate lane, (d0^2 + d2^2) + (d1^2 + d3^2).  These are
    the orders of the row-major ``pts.mean(axis=0)`` and
    ``einsum("ij,ij->i", d, d)``, so the bracket equals that reference bit
    for bit.
    """
    cols = points.reshape(-1, points.shape[-1]).T.copy()
    dim, n = cols.shape
    cols -= (np.cumsum(cols, axis=1)[:, -1] / n)[:, None]
    sq = np.empty_like(cols)

    def dist(c: np.ndarray) -> np.ndarray:
        np.subtract(cols, c[:, None], out=sq)
        np.multiply(sq, sq, out=sq)
        even, odd = sq[0], sq[1]
        for k in range(2, dim, 2):
            even += sq[k]
        for k in range(3, dim, 2):
            odd += sq[k]
        even += odd
        return np.sqrt(even)

    r_centroid = dist(np.zeros(dim))
    a = b = int(np.argmax(r_centroid))
    lower = 0.0
    while True:
        d = dist(cols[:, b])
        k = int(np.argmax(d))
        if not d[k] > lower:  # also stops on NaN samples
            break
        lower, a, b = float(d[k]), b, k
    r_mid = dist(0.5 * (cols[:, a] + cols[:, b]))
    return lower, 2.0 * float(min(r_centroid.max(), r_mid.max()))


def diagnostics(field: CylinderField) -> NeckDiagnostics:
    """Energy split, average length, diameter bound, and conformality defects.

    Asserts the split identity E = 2T alpha + int Theta, and that the
    farthest sample pair found is no farther apart than 2 max-slice-arc +
    avg_length.  The reported diameter is min(upper + 2 rho, chord diameter
    of the target), with upper the bracket's bound over all samples and
    rho = (h_t max|f_t| + h_theta max|f_theta|) / 2 the farthest any point of
    a grid cell lies from its nearest corner, assuming |f_t| and |f_theta|
    stay below their sampled maxima inside each cell.
    """
    return _window_diagnostics(field, 0, field.n_t, field.half_length)


def collar_diagnostics(field: CylinderField, delta: float) -> NeckDiagnostics:
    """``diagnostics`` of the delta-collar, rows ``field.collar_window(delta)``,
    read off the field's row table without cutting a sub-field."""
    return _window_diagnostics(field, *field.collar_window(delta))


def _window_diagnostics(
    field: CylinderField, i0: int, i1: int, T: float
) -> NeckDiagnostics:
    """``diagnostics`` of rows i0..i1 of ``field``, whose half-length is T."""
    n_t = i1 - i0
    h_t = 2.0 * T / n_t
    h_th = _TWO_PI / field.n_theta
    t = np.linspace(-T, T, n_t + 1)
    w_t = _trapezoid(n_t + 1, h_t)
    rows = field.rows
    win = slice(i0, i1 + 1)

    alpha_profile = 0.5 * rows.split[win] * h_th
    theta_profile = rows.theta[win] * h_th
    slice_energy = rows.energy[win] * h_th

    alpha = float(np.sum(w_t * alpha_profile) / (2.0 * T))
    alpha_deviation = float(np.max(np.abs(alpha_profile - alpha)))
    theta_integral = float(np.sum(w_t * theta_profile))
    energy = float(0.5 * np.sum(w_t * slice_energy))

    split = 2.0 * T * alpha + theta_integral
    if abs(energy - split) > 1e-9 * (1.0 + energy):
        raise NeckError(
            f"energy split identity violated: {energy!r} vs {split!r}"
        )

    avg_length = float(np.sum(w_t * rows.ft[win]) * h_th / _TWO_PI)
    arc = rows.fth[win] * h_th
    lower, upper = _diameter_bracket(field.points[win])
    bound = 2.0 * float(np.max(arc)) + avg_length
    if lower > bound + 1e-8 * (1.0 + bound):
        raise NeckError(
            f"diameter bound violated: {lower!r} > 2*max-arc + avg = {bound!r}"
        )
    rho = 0.5 * (h_t * float(rows.ft_max[win].max()) + h_th * float(rows.fth_max[win].max()))
    diameter = min(upper + 2.0 * rho, field.target.chord_diameter)

    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(
            slice_energy > 0.0, 2.0 * np.abs(alpha_profile) / slice_energy, 0.0
        )
    return NeckDiagnostics(
        alpha=alpha,
        alpha_deviation=alpha_deviation,
        t_nodes=t,
        theta_profile=theta_profile,
        alpha_profile=alpha_profile,
        energy=energy,
        theta_integral=theta_integral,
        avg_length=avg_length,
        diameter=diameter,
        pohozaev_residual=float(np.max(ratio)),
        half_length=T,
    )


@dataclass(frozen=True)
class ZeroNeckRow:
    """One delta of the zero-neck test.

    predicted_energy and predicted_pass are energy-only: the alpha
    prediction cannot see the length of a neck.  On a geodesic neck of
    image length 0.3 and vanishing energy, predicted_pass read True on every
    row while max_diameter stayed above 0.25; only ``passed`` also asks the
    diameter bound.
    """

    delta: float
    max_energy: float
    max_diameter: float  # max over late members of the diameter upper bound
    predicted_energy: float  # max over late members of |2 T_k(delta) * alpha_k|
    passed: bool
    predicted_pass: bool


@dataclass(frozen=True)
class ZeroNeckReport:
    passed: bool
    chosen_delta: float | None
    rows: tuple[ZeroNeckRow, ...]
    late_count: int


def zero_neck_test(
    necks: list[CylinderField], eps: float, delta_schedule: list[float]
) -> ZeroNeckReport:
    """Do neck energy and image diameter vanish along the family?

    For each delta of the schedule (``errors.neck_schedule``), cut the collar
    (``collar_rows``) of each member of ``late_half`` and take the sup of
    energy and of the diameter upper bound of `collar_diagnostics` (which
    assumes |f_t| and |f_theta| stay below their sampled maxima inside each
    grid cell); PASS iff both fall below eps at some delta.  Each row also
    reports the alpha-based energy prediction 2 T_k(delta) alpha_k, which
    vanishes exactly for conformal necks.  That prediction and its
    ``predicted_pass`` are energy-only and cannot see length: a geodesic neck
    of positive length and vanishing energy passes them, so no verdict reads
    them.
    """
    if not delta_schedule:
        raise NeckError("empty delta schedule")
    delta_schedule = neck_schedule(delta_schedule)
    if not necks:
        raise NeckError("empty neck sequence")
    late = late_half(necks)
    rows = []
    chosen = None
    for delta in delta_schedule:
        diags = [collar_diagnostics(f, delta) for f in late]
        energy = max(d.energy for d in diags)
        diam = max(d.diameter for d in diags)
        pred = max(abs(2.0 * d.half_length * d.alpha) for d in diags)
        row = ZeroNeckRow(
            delta=float(delta),
            max_energy=float(energy),
            max_diameter=float(diam),
            predicted_energy=float(pred),
            passed=energy <= eps and diam <= eps,
            predicted_pass=pred <= eps,
        )
        rows.append(row)
        if row.passed and chosen is None:
            chosen = row.delta
    return ZeroNeckReport(
        passed=chosen is not None,
        chosen_delta=chosen,
        rows=tuple(rows),
        late_count=len(late),
    )


def profile_to_csv(diag: NeckDiagnostics) -> str:
    """Theta and alpha profiles as 't,theta,alpha_slice' rows."""
    lines = ["t,theta,alpha_slice"]
    for t, th, al in zip(diag.t_nodes, diag.theta_profile, diag.alpha_profile):
        lines.append(f"{float(t)!r},{float(th)!r},{float(al)!r}")
    return "\n".join(lines) + "\n"
