"""Adaptive tensor-product quadrature on polar panels.

Integrates a smooth density over a disk or annulus in polar coordinates
about a given center.  Panels are rectangles in (r, theta); each carries an
embedded Gauss-Legendre pair (coarse/fine) whose difference drives a
worst-first refinement queue.  Panels split along the axis whose bisection
changes the estimate most, so radially symmetric spikes cost only radial
splits while point spikes refine in both axes.

Emitted particles sit in shells at each final panel's radial mass
quantiles, weighted so every panel carries its fine-rule value; an emitted
measure's total mass therefore equals the quadrature value up to rounding.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

__all__ = ["PanelQuadrature", "adaptive_polar_quadrature"]

_GL_COARSE = 8
_GL_FINE = 16
_INIT_GRID = 8  # initial panels along each polar axis
_EMIT_CELLS = 48  # radial cells per panel for the emission mass profile
_EMIT_CHUNK = 32  # final panels per density call during emission

_Box = tuple[float, float, float, float]  # panel (r0, r1, t0, t1)


def _gl(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


_XC, _WC = _gl(_GL_COARSE)
_XF, _WF = _gl(_GL_FINE)


@dataclass
class PanelQuadrature:
    """Result of an adaptive polar integration.

    value : integral estimate (sum of fine-rule panel values)
    error : accumulated error estimate over final panels
    points : emitted atoms z = center + r e^{i theta}, in shells at each final
        panel's radial mass quantiles, sorted by real part; empty unless
        particles were emitted
    weights : matching atom masses, summing per panel to its fine-rule value;
        empty unless particles were emitted
    n_panels : number of final panels
    """

    value: float
    error: float
    points: NDArray[np.complex128]
    weights: NDArray[np.float64]
    n_panels: int


def _panel_values(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    boxes: list[_Box],
    xs: NDArray[np.float64],
    ws: NDArray[np.float64],
) -> list[float]:
    """Tensor-rule value of each box, from one density call over all their nodes.

    Each value is the dot product over the box's own contiguous row of nodes,
    so it does not depend on which other boxes share the call.
    """
    r0, r1, t0, t1 = np.array(boxes).T
    rm, rh = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    r = rm[:, None] + rh[:, None] * xs
    t = tm[:, None] + th[:, None] * xs
    wr = rh[:, None] * ws
    wt = th[:, None] * ws
    z = center + r[:, :, None] * np.exp(1j * t)[:, None, :]
    jac = (wr * r)[:, :, None] * wt[:, None, :]  # polar area element r dr dtheta
    n = len(boxes)
    f = density(z.ravel()).reshape(n, -1)
    jac = jac.reshape(n, -1)
    return [float(np.dot(f[i], jac[i])) for i in range(n)]


def _emit_particles(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    boxes: NDArray[np.float64],
    fines: NDArray[np.float64],
    shell_target: float,
) -> tuple[NDArray[np.complex128], NDArray[np.float64]]:
    """Atoms at each panel's radial mass quantiles, sorted by real part.

    Atom shells interleave the radial cumulative mass, so any circle about
    the panel's polar center miscounts at most half a shell.  Per-shell
    angular weights follow the local angular profile; each panel total is
    rescaled to its fine-rule value.  A panel gets about |fine| / shell_target
    shells, 4 to 24.  The cell grids of ``_EMIT_CHUNK`` panels share one
    density call.
    """
    if shell_target > 0.0:
        n_shells = np.clip(np.ceil(np.abs(fines) / shell_target), 4, 24).astype(np.int64)
    else:
        n_shells = np.full(len(fines), 4)
    # the empty leading arrays keep the concatenation defined when no panel
    # carries mass
    pts = [np.zeros(0, np.complex128)]
    wts = [np.zeros(0, np.float64)]
    for lo in range(0, len(boxes), _EMIT_CHUNK):
        part = slice(lo, lo + _EMIT_CHUNK)
        r0, r1, t0, t1 = boxes[part].T
        tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        theta = tm[:, None] + th[:, None] * _XC
        wth = th[:, None] * _WC
        redges = np.linspace(r0, r1, _EMIT_CELLS + 1, axis=1)
        rmid = 0.5 * (redges[:, :-1] + redges[:, 1:])
        dr = (r1 - r0) / _EMIT_CELLS
        rot = np.exp(1j * theta)
        z = center + rmid[:, :, None] * rot[:, None, :]
        cell = density(z.ravel()).reshape(z.shape) * (rmid * dr[:, None])[:, :, None]
        cell *= wth[:, None, :]
        radial = cell.sum(axis=2)
        cum = np.zeros((len(r0), _EMIT_CELLS + 1))
        np.cumsum(radial, axis=1, out=cum[:, 1:])
        for i, (fine, n_shell) in enumerate(zip(fines[part].tolist(), n_shells[part].tolist())):
            total = cum[i, -1]
            if total <= 0.0 or fine == 0.0:
                continue
            targets = (np.arange(n_shell) + 0.5) * (total / n_shell)
            r_shell = np.interp(targets, cum[i], redges[i])
            # a finite target lies in (cum[row], cum[row + 1]], so its row has positive mass
            rows = np.clip(np.searchsorted(cum[i], targets) - 1, 0, _EMIT_CELLS - 1)
            wts.append((cell[i, rows] / radial[i, rows, None] * (fine / n_shell)).ravel())
            pts.append((center + r_shell[:, None] * rot[i][None, :]).ravel())
    points = np.concatenate(pts)
    order = np.argsort(points.real, kind="stable")
    return points[order], np.concatenate(wts)[order]


def _split(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    box: _Box,
    coarse: float,
    width_floor: float,
) -> list[tuple[_Box, float, float]] | None:
    """Bisect a panel along the axis whose halves move its coarse value more.

    Returns the two children as (box, coarse, fine), or None when neither
    side is wider than its floor.  Only the chosen children get a fine rule.
    """
    r0, r1, t0, t1 = box
    can_r = (r1 - r0) > width_floor
    can_t = (t1 - t0) > 1e-13
    if not can_r and not can_t:
        return None
    rm, tm = 0.5 * (r0 + r1), 0.5 * (t0 + t1)
    halves = [(r0, rm, t0, t1), (rm, r1, t0, t1), (r0, r1, t0, tm), (r0, r1, tm, t1)]
    cr0, cr1, ct0, ct1 = _panel_values(density, center, halves, _XC, _WC)
    if can_r and (not can_t or abs(cr0 + cr1 - coarse) >= abs(ct0 + ct1 - coarse)):
        children, coarses = halves[:2], (cr0, cr1)
    else:
        children, coarses = halves[2:], (ct0, ct1)
    fines = _panel_values(density, center, children, _XF, _WF)
    return list(zip(children, coarses, fines))


def adaptive_polar_quadrature(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    r_outer: float,
    r_inner: float = 0.0,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-14,
    max_panels: int = 20000,
    emit_particles: bool = False,
    emit_mass_frac: float | None = None,
) -> PanelQuadrature:
    """Integrate ``density`` over the annulus r_inner <= |z - center| <= r_outer.

    ``density`` must be elementwise: it maps a 1-D complex array to real
    values of the same length, each depending on its own point only.  Nodes
    of several panels share one call, so a density that looked at the whole
    array would see other panels' nodes.

    Worst-first refinement until the summed panel error estimates drop below
    max(abs_tol, rel_tol * |value|) or the panel budget is exhausted.

    emit_particles places atom shells at per-panel radial mass quantiles,
    which keeps ball masses about the integration center faithful well
    below panel granularity.

    emit_mass_frac, if given, keeps splitting panels (within the same budget)
    until none holds more than that fraction of the total, bounding the mass
    granularity of the emitted measure.
    """
    if not (0.0 <= r_inner < r_outer):
        raise ValueError(f"need 0 <= r_inner < r_outer, got {r_inner}, {r_outer}")
    if emit_mass_frac is not None and not (0.0 < emit_mass_frac < 1.0):
        raise ValueError(f"emit_mass_frac must be in (0, 1), got {emit_mass_frac}")

    # panel entries: (key, counter, box, fine, error, coarse); the counter
    # keeps heap order stable; the key is -error in the error pass and
    # -|fine| in the granularity pass
    heap: list[tuple[float, int, _Box, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    width_floor = 1e-13 * max(r_outer, 1.0)

    def push(key: float, box: _Box, fine: float, err: float, coarse: float) -> None:
        nonlocal counter
        heapq.heappush(heap, (key, counter, box, fine, err, coarse))
        counter += 1

    redges = np.linspace(r_inner, r_outer, _INIT_GRID + 1)
    tedges = np.linspace(0.0, 2.0 * np.pi, _INIT_GRID + 1)
    boxes = [
        (redges[i], redges[i + 1], tedges[j], tedges[j + 1])
        for i in range(_INIT_GRID)
        for j in range(_INIT_GRID)
    ]
    coarses = _panel_values(density, center, boxes, _XC, _WC)
    fines = _panel_values(density, center, boxes, _XF, _WF)
    for box, coarse, fine in zip(boxes, coarses, fines):
        err = abs(fine - coarse)
        push(-err, box, fine, err, coarse)
        total += fine
        total_err += err

    while len(heap) < max_panels:
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            break
        item = heapq.heappop(heap)
        _, _, box, fine, err, coarse = item
        total -= fine
        total_err -= err
        if err <= 0.0:
            # nothing left to refine: put the panel back and stop
            heapq.heappush(heap, item)
            total += fine
            break
        children = _split(density, center, box, coarse, width_floor)
        if children is None:
            # keep the panel but retire it, and its error, from the queue
            push(0.0, box, fine, 0.0, coarse)
            total += fine
            continue
        for child, c_coarse, c_fine in children:
            c_err = abs(c_fine - c_coarse)
            push(-c_err, child, c_fine, c_err, c_coarse)
            total += c_fine
            total_err += c_err

    if emit_particles and emit_mass_frac is not None:
        # granularity pass: split heavy panels regardless of integral error
        heap = [(-abs(it[3]),) + it[1:] for it in heap]
        heapq.heapify(heap)
        while len(heap) < max_panels:
            if -heap[0][0] <= emit_mass_frac * abs(total):
                break
            _, _, box, fine, err, coarse = heapq.heappop(heap)
            children = _split(density, center, box, coarse, width_floor)
            if children is None:
                # keep the panel but retire it from the splitting queue
                push(0.0, box, fine, err, coarse)
                continue
            total -= fine
            for child, c_coarse, c_fine in children:
                push(-abs(c_fine), child, c_fine, abs(c_fine - c_coarse), c_coarse)
                total += c_fine

    value = float(sum(it[3] for it in heap))
    error = float(sum(it[4] for it in heap))

    if emit_particles:
        frac = emit_mass_frac if emit_mass_frac is not None else 1.0 / 64.0
        points, weights = _emit_particles(
            density,
            center,
            np.array([it[2] for it in heap]),
            np.array([it[3] for it in heap]),
            0.25 * frac * abs(value),
        )
    else:
        points = np.zeros(0, dtype=np.complex128)
        weights = np.zeros(0, dtype=np.float64)

    return PanelQuadrature(
        value=value,
        error=error,
        points=points,
        weights=weights,
        n_panels=len(heap),
    )
