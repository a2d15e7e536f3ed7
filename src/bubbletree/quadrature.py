"""Adaptive tensor-product quadrature on polar panels.

Integrates a smooth density over a disk in polar coordinates about a given
center.  Panels are rectangles in (r, theta); each carries an
embedded Gauss-Legendre pair (coarse/fine) whose difference drives a
worst-first refinement queue.  Panels split along the axis whose bisection
changes the estimate most, so radially symmetric spikes cost only radial
splits while point spikes refine in both axes.

Splits are computed ahead of their turn: when the popped panel has no split
yet, it is split together with up to ``_SPLIT_BATCH`` - 1 of the next worst
queued panels that the pass cannot stop before reaching, two density calls
for the lot.  The queue itself is replayed exactly as one split at a time
would run it, reading children from that cache, and a panel's values do not
depend on which panels share its density call; so panels, value, error and
atoms do not depend on ``_SPLIT_BATCH``.

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
_MAX_SHELLS = 24  # atom shells of the heaviest panels
_SPLIT_BATCH = 32  # panels split per pair of density calls

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
        emit_mass_frac was given
    weights : matching atom masses, summing per panel to its fine-rule value;
        empty unless emit_mass_frac was given
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


def _quantile_cells(
    cum: NDArray[np.float64], redges: NDArray[np.float64], targets: NDArray[np.float64]
) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Per row of a nondecreasing ``cum`` over cell edges ``redges``: each
    target's cell, ``np.searchsorted(cum, target) - 1`` clipped to the cells,
    and its radius ``np.interp(target, cum, redges)``, bit for bit for
    targets at or above ``cum[:, 0]``.

    A finite target of a panel with mass lies in (cum[row], cum[row + 1]], so
    its cell has positive mass.  np.interp brackets a target by the last edge
    j with cum[j] <= target and returns redges[j] on an exact hit or at the
    last edge, otherwise slope * (target - cum[j]) + redges[j] with the slope
    over [j, j + 1].
    """
    n_cells = cum.shape[1] - 1
    rows = (cum[:, None, :] < targets[:, :, None]).sum(axis=2) - 1
    j = (cum[:, None, :] <= targets[:, :, None]).sum(axis=2) - 1
    up = np.minimum(j + 1, n_cells)
    c_lo, r_lo = np.take_along_axis(cum, j, 1), np.take_along_axis(redges, j, 1)
    c_hi, r_hi = np.take_along_axis(cum, up, 1), np.take_along_axis(redges, up, 1)
    with np.errstate(all="ignore"):
        # np.interp raises no floating-point warnings; the last edge divides
        # by a zero bracket, and a subnormal bracket overflows the slope
        slope = (r_hi - r_lo) / (c_hi - c_lo)
        inner = slope * (targets - c_lo) + r_lo
    hit = (c_lo == targets) | (j == n_cells)
    return rows.clip(0, n_cells - 1), np.where(hit, r_lo, inner)


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
    shells, 4 to ``_MAX_SHELLS``.  The cell grids of ``_EMIT_CHUNK`` panels
    share one density call, and their shells are placed by array operations
    (``_quantile_cells``).
    """
    if shell_target > 0.0:
        n_shells = np.ceil(np.abs(fines) / shell_target).clip(4, _MAX_SHELLS).astype(np.int64)
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
        # every panel of the chunk gets as many shells as the most any of them
        # holds; keep marks its first n_shell, and none of a panel without mass
        fine, n_shell, total = fines[part], n_shells[part], cum[:, -1]
        shell = np.arange(n_shell.max())
        keep = (shell < n_shell[:, None]) & (~(total <= 0.0) & (fine != 0.0))[:, None]
        targets = (shell + 0.5) * (total / n_shell)[:, None]
        rows, r_shell = _quantile_cells(cum, redges, targets)
        with np.errstate(divide="ignore", invalid="ignore"):
            # only masked shells divide by a zero row
            w = np.take_along_axis(cell, rows[:, :, None], 1) / np.take_along_axis(
                radial, rows, 1
            )[:, :, None]
        wts.append((w * (fine / n_shell)[:, None, None])[keep].ravel())
        pts.append((center + r_shell[:, :, None] * rot[:, None, :])[keep].ravel())
    points = np.concatenate(pts)
    order = np.argsort(points.real, kind="stable")
    return points[order], np.concatenate(wts)[order]


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
    abs_tol: float = 1e-14,
    max_panels: int = 20000,
    emit_mass_frac: float | None = None,
) -> PanelQuadrature:
    """Integrate ``density`` over the disk |z - center| <= r_outer.

    ``density`` must be elementwise: it maps a 1-D complex array to real
    values of the same length, each depending on its own point only.  Nodes
    of several panels share one call, so a density that looked at the whole
    array would see other panels' nodes.

    Worst-first refinement until the summed panel error estimates drop below
    max(abs_tol, rel_tol * |value|) or the panel budget is exhausted.  A
    panel's split is computed in one batch with the next worst panels whose
    error already exceeds that threshold (in the granularity pass below: whose
    mass exceeds its bound); the pops, pushes and running sums happen in the
    same order as one split at a time, so the result does not depend on the
    batch size.

    Particles are emitted exactly when emit_mass_frac is given.  Panels are
    then split further (within the same budget) until none holds more than
    that fraction of the total, bounding the mass granularity of the
    emitted measure, and atom shells sit at per-panel radial mass quantiles,
    which keeps ball masses about the integration center faithful well
    below panel granularity.
    """
    if not (r_outer > 0.0):
        raise ValueError(f"need 0 < r_outer, got {r_outer}")
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

    # splits by box, computed ahead of their turn; both passes read them
    splits: dict[_Box, list[tuple[_Box, float, float]] | None] = {}

    def split(box: _Box, coarse: float, floor: float) -> list[tuple[_Box, float, float]] | None:
        """The popped panel's children.  On a miss, the next worst unsplit
        panels whose key is below -floor are split with it: the pass cannot
        stop while they are queued, so they are split later unless the panel
        budget runs out first."""
        if box not in splits:
            ahead = heapq.nsmallest(
                _SPLIT_BATCH - 1, (it for it in heap if it[0] < -floor and it[2] not in splits)
            )
            panels = [(box, coarse)] + [(it[2], it[5]) for it in ahead]
            splits.update(_split_panels(density, center, panels, width_floor))
        return splits.pop(box)

    redges = np.linspace(0.0, r_outer, _INIT_GRID + 1)
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
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
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
        children = split(box, coarse, tol)
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

    if emit_mass_frac is not None:
        # granularity pass: split heavy panels regardless of integral error
        heap = [(-abs(it[3]),) + it[1:] for it in heap]
        heapq.heapify(heap)
        while len(heap) < max_panels:
            floor = emit_mass_frac * abs(total)
            if -heap[0][0] <= floor:
                break
            _, _, box, fine, err, coarse = heapq.heappop(heap)
            children = split(box, coarse, floor)
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

    if emit_mass_frac is not None:
        points, weights = _emit_particles(
            density,
            center,
            np.array([it[2] for it in heap]),
            np.array([it[3] for it in heap]),
            0.25 * emit_mass_frac * abs(value),
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
