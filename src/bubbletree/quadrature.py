"""Adaptive tensor-product quadrature on polar panels.

Integrates a smooth density over a disk in polar coordinates about a given
center.  Panels are rectangles in (r, theta); each carries an
embedded Gauss-Legendre pair (coarse/fine) whose difference drives
worst-first refinement.  Panels split along the axis whose bisection
changes the estimate most, so radially symmetric spikes cost only radial
splits while point spikes refine in both axes.

Refinement runs a level at a time.  Each level ranks the live panels worst
first and splits, in one pair of density calls, the shortest prefix whose
removal would bring the error sum to its target; a panel's values do not
depend on which panels share its density call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

__all__ = ["PanelQuadrature", "adaptive_polar_quadrature"]

_GL_COARSE = 8
_GL_FINE = 16
_INIT_GRID = 8  # initial panels along each polar axis
_ABS_TOL = 1e-12  # absolute floor of the error target
_MAX_PANELS = 20000  # panel budget of one integration

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
    error : summed error estimates of the final panels, retired ones included
    n_panels : number of final panels
    target : the error target of the final panels, max(_ABS_TOL, rel_tol |value|);
        error exceeds it only when the panel budget ran out or no panel was
        left to split
    """

    value: float
    error: float
    n_panels: int
    target: float

    @property
    def points(self) -> NDArray[np.complex128]:
        """Atoms of the result: always none, since the quadrature emits no
        particles; kept for callers that count them."""
        return np.zeros(0, dtype=np.complex128)


def _panel_values(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    boxes: list[_Box],
    xs: NDArray[np.float64],
    ws: NDArray[np.float64],
) -> list[float]:
    """Tensor-rule value of each box, from one density call over all their nodes.

    Each value is the dot product over the box's own contiguous row of nodes,
    so it does not depend on which other boxes share the call; the stacked
    row-by-column matmul runs numpy's vector dot on each row, the same BLAS
    dot as ``np.dot`` of the two rows.
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
    f = density(z.ravel()).reshape(n, 1, -1)
    jac = jac.reshape(n, -1, 1)
    return np.matmul(f, jac).ravel().tolist()


def _split_panels(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    panels: list[tuple[_Box, float]],
    width_floor: float,
) -> dict[_Box, list[tuple[_Box, float, float]] | None]:
    """Bisect each (box, coarse) panel along the axis whose halves move its
    coarse value more.

    Maps each box to its two children as (box, coarse, fine), or to None when
    neither side is wider than its floor.  The candidate halves of all panels
    share one coarse-rule density call and the chosen children one fine-rule
    call; only the chosen children get a fine rule.
    """
    out: dict[_Box, list[tuple[_Box, float, float]] | None] = {}
    todo = []
    for box, coarse in panels:
        r0, r1, t0, t1 = box
        can_r = (r1 - r0) > width_floor
        can_t = (t1 - t0) > 1e-13
        if not can_r and not can_t:
            out[box] = None
            continue
        rm, tm = 0.5 * (r0 + r1), 0.5 * (t0 + t1)
        halves = [(r0, rm, t0, t1), (rm, r1, t0, t1), (r0, r1, t0, tm), (r0, r1, tm, t1)]
        todo.append((box, coarse, can_r, can_t, halves))
    if not todo:
        return out
    values = _panel_values(density, center, [h for *_, hs in todo for h in hs], _XC, _WC)
    chosen = []
    for i, (box, coarse, can_r, can_t, halves) in enumerate(todo):
        cr0, cr1, ct0, ct1 = values[4 * i : 4 * i + 4]
        if can_r and (not can_t or abs(cr0 + cr1 - coarse) >= abs(ct0 + ct1 - coarse)):
            chosen.append((box, halves[:2], (cr0, cr1)))
        else:
            chosen.append((box, halves[2:], (ct0, ct1)))
    fines = _panel_values(density, center, [c for _, cs, _ in chosen for c in cs], _XF, _WF)
    for i, (box, children, coarses) in enumerate(chosen):
        out[box] = list(zip(children, coarses, fines[2 * i : 2 * i + 2]))
    return out


def adaptive_polar_quadrature(
    density: Callable[[NDArray[np.complex128]], NDArray[np.float64]],
    center: complex,
    r_outer: float,
    rel_tol: float = 1e-9,
) -> PanelQuadrature:
    """Integrate ``density`` over the disk |z - center| <= r_outer.

    ``density`` must be elementwise: it maps a 1-D complex array to real
    values of the same length, each depending on its own point only.  Nodes
    of several panels share one call, so a density that looked at the whole
    array would see other panels' nodes.

    Refinement runs a level at a time until the summed panel error
    estimates drop to max(_ABS_TOL, rel_tol * |value|), the budget of
    ``_MAX_PANELS`` panels is full, or no panel is left to split.  Each level
    ranks the live panels worst first and splits, with two density calls, the
    shortest prefix whose removal would meet that target, within the splits
    the budget allows.  A panel too narrow to split in either axis retires:
    it is not ranked again, but its value and error stay in the sums.
    """
    if not (r_outer > 0.0):
        raise ValueError(f"need 0 < r_outer, got {r_outer}")

    width_floor = 1e-13 * max(r_outer, 1.0)
    redges = np.linspace(0.0, r_outer, _INIT_GRID + 1)
    tedges = np.linspace(0.0, 2.0 * np.pi, _INIT_GRID + 1)
    boxes = [
        (redges[i], redges[i + 1], tedges[j], tedges[j + 1])
        for i in range(_INIT_GRID)
        for j in range(_INIT_GRID)
    ]
    coarses = _panel_values(density, center, boxes, _XC, _WC)
    fines = _panel_values(density, center, boxes, _XF, _WF)
    # panels as (box, coarse, fine, error); a retired panel cannot be split
    live = [(b, c, f, abs(f - c)) for b, c, f in zip(boxes, coarses, fines)]
    retired: list[tuple[_Box, float, float, float]] = []
    while True:
        panels = live + retired
        error = sum(p[3] for p in panels)
        tol = max(_ABS_TOL, rel_tol * abs(sum(p[2] for p in panels)))
        # the shortest worst-first prefix whose removal meets the target,
        # within the budget; a NaN sum fails every comparison, so takes none
        live.sort(key=lambda p: -p[3])
        n, cap = 0, min(_MAX_PANELS - len(panels), len(live))
        while n < cap and error > tol:
            error -= live[n][3]
            n += 1
        if n == 0:
            break
        worst, live = live[:n], live[n:]
        split = _split_panels(density, center, [p[:2] for p in worst], width_floor)
        for p in worst:
            children = split[p[0]]
            if children is None:
                retired.append(p)
            else:
                live += [(b, c, f, abs(f - c)) for b, c, f in children]

    value = float(sum(p[2] for p in panels))
    error = float(sum(p[3] for p in panels))
    return PanelQuadrature(value=value, error=error, n_panels=len(panels), target=tol)
