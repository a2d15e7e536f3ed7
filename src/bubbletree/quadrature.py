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
    points : fine-rule nodes z = center + r e^{i theta} over all panels
    weights : matching quadrature weights (density * r * w_r * w_theta)
    n_panels : number of final panels
    """

    value: float
    error: float
    points: NDArray[np.complex128]
    weights: NDArray[np.float64]
    n_panels: int


def _panel_nodes(
    center: complex,
    r0: float,
    r1: float,
    t0: float,
    t1: float,
    xs: NDArray[np.float64],
    ws: NDArray[np.float64],
) -> tuple[NDArray[np.complex128], NDArray[np.float64]]:
    rm, rh = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    r = rm + rh * xs
    t = tm + th * xs
    wr = rh * ws
    wt = th * ws
    z = center + r[:, None] * np.exp(1j * t)[None, :]
    jac = (wr * r)[:, None] * wt[None, :]  # polar area element r dr dtheta
    return z.ravel(), jac.ravel()


def _panel_value(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    box: tuple[float, float, float, float],
    xs: NDArray[np.float64],
    ws: NDArray[np.float64],
) -> float:
    z, jac = _panel_nodes(center, *box, xs, ws)
    return float(np.dot(density(z), jac))


def _emit_cdf_nodes(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    box: tuple[float, float, float, float],
    fine_value: float,
    n_shell: int,
    n_fine: int = 48,
) -> tuple[NDArray[np.complex128], NDArray[np.float64]]:
    """Atoms at the panel's radial mass quantiles.

    Atom shells interleave the radial cumulative mass, so any circle about
    the panel's polar center miscounts at most half a shell.  Per-shell
    angular weights follow the local angular profile; the panel total is
    rescaled to the fine-rule value.
    """
    r0, r1, t0, t1 = box
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    theta = tm + th * _XC
    wth = th * _WC
    redges = np.linspace(r0, r1, n_fine + 1)
    rmid = 0.5 * (redges[:-1] + redges[1:])
    dr = (r1 - r0) / n_fine
    z = center + rmid[:, None] * np.exp(1j * theta)[None, :]
    cell = density(z) * (rmid[:, None] * dr) * wth[None, :]
    radial = cell.sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum(radial)])
    total = cum[-1]
    if total <= 0.0 or fine_value == 0.0:
        return np.zeros(0, np.complex128), np.zeros(0, np.float64)
    targets = (np.arange(n_shell) + 0.5) * (total / n_shell)
    r_shell = np.interp(targets, cum, redges)
    rows = np.clip(np.searchsorted(cum, targets) - 1, 0, n_fine - 1)
    prof = cell[rows]
    row_mass = prof.sum(axis=1)
    flat = row_mass <= 0.0
    if np.any(flat):
        prof[flat] = wth / wth.sum()
        row_mass[flat] = 1.0
    weights = prof / row_mass[:, None] * (fine_value / n_shell)
    points = center + r_shell[:, None] * np.exp(1j * theta)[None, :]
    return points.ravel(), weights.ravel()


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
    r_children = [(r0, rm, t0, t1), (rm, r1, t0, t1)]
    t_children = [(r0, r1, t0, tm), (r0, r1, tm, t1)]
    r_coarse = [_panel_value(density, center, b, _XC, _WC) for b in r_children]
    t_coarse = [_panel_value(density, center, b, _XC, _WC) for b in t_children]
    if can_r and (not can_t or abs(sum(r_coarse) - coarse) >= abs(sum(t_coarse) - coarse)):
        children, coarses = r_children, r_coarse
    else:
        children, coarses = t_children, t_coarse
    return [
        (b, c, _panel_value(density, center, b, _XF, _WF)) for b, c in zip(children, coarses)
    ]


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
    for i in range(_INIT_GRID):
        for j in range(_INIT_GRID):
            box = (redges[i], redges[i + 1], tedges[j], tedges[j + 1])
            coarse = _panel_value(density, center, box, _XC, _WC)
            fine = _panel_value(density, center, box, _XF, _WF)
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
        shell_target = 0.25 * frac * abs(value)
        pts_list = []
        wts_list = []
        for _, _, box, fine, _, _ in heap:
            if shell_target > 0.0:
                n_shell = int(np.clip(np.ceil(abs(fine) / shell_target), 4, 24))
            else:
                n_shell = 4
            z, w = _emit_cdf_nodes(density, center, box, fine, n_shell)
            pts_list.append(z)
            wts_list.append(w)
        points = np.concatenate(pts_list)
        weights = np.concatenate(wts_list)
        order = np.argsort(points.real, kind="stable")
        points = points[order]
        weights = weights[order]
    else:
        points = np.zeros(0, dtype=np.complex128)
        weights = np.zeros(0, dtype=np.float64)

    return PanelQuadrature(
        value=value,
        error=error,
        points=points.astype(np.complex128),
        weights=weights.astype(np.float64),
        n_panels=len(heap),
    )
