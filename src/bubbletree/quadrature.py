"""Adaptive tensor-product quadrature on polar panels.

Integrates a smooth density over a disk in polar coordinates about a given
center.  Panels are rectangles in (r, theta); each carries an
embedded Gauss-Legendre pair (coarse/fine) whose difference drives a
worst-first refinement queue.  Panels split along the axis whose bisection
changes the estimate most, so radially symmetric spikes cost only radial
splits while point spikes refine in both axes.

Splits are computed ahead of their turn, a level at a time.  When the popped
panel has no split yet, the queue is ranked worst first.  The pass cannot
stop while a panel is queued whose error, with the errors ranked below it,
exceeds the error target.  The first level splits the worst such panels, up to
``_SPLIT_BATCH``; their children are then ranked into the queue as the
pass will see it (its total, and so its target, moved by the splits), and
those children that pass the same test are split in the next level, and so on
down the frontier, two density calls per level.  A panel is split ahead only
while fewer panels rank above it than the panel budget has splits left.  The
queue itself is replayed exactly as one split at a time would run it, reading
children from that cache, and a panel's values do not depend on which panels
share its density call; so panels, value and error do not depend on which
splits are made ahead, nor on ``_SPLIT_BATCH``.
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
_SPLIT_BATCH = 32  # panels split per pair of density calls
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
    """

    value: float
    error: float
    n_panels: int

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

    Worst-first refinement until the summed panel error estimates drop below
    max(_ABS_TOL, rel_tol * |value|) or the budget of ``_MAX_PANELS`` panels
    is exhausted.  A panel too narrow to split in either axis retires from
    the queue and from the running error sum, but its error stays in the
    reported ``error``.  When a popped panel has no split yet, every split
    the pass must still make at the current target is computed, the frontier
    a level at a time within the panel budget; the pops, pushes and running
    sums happen in the same order as one split at a time, so the result does
    not depend on which splits were made ahead.
    """
    if not (r_outer > 0.0):
        raise ValueError(f"need 0 < r_outer, got {r_outer}")

    # panel entries: (key, counter, box, fine, error, coarse); the counter
    # keeps heap order stable; the key is -error, and 0 for a retired panel
    heap: list[tuple[float, int, _Box, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    width_floor = 1e-13 * max(r_outer, 1.0)

    def push(key: float, box: _Box, fine: float, err: float, coarse: float) -> None:
        nonlocal counter
        heapq.heappush(heap, (key, counter, box, fine, err, coarse))
        counter += 1

    def target(t: float) -> float:
        return max(_ABS_TOL, rel_tol * abs(t))

    # splits by box, computed ahead of their turn
    splits: dict[_Box, list[tuple[_Box, float, float]] | None] = {}

    def split(
        item: tuple[float, int, _Box, float, float, float],
        total: float,
        left: float,
    ) -> list[tuple[_Box, float, float]] | None:
        """The popped panel's children.

        On a miss, the splits the pass must make are computed level by level
        on a copy of the queue (the popped panel included, ``total`` its
        total) that takes each split as the pass would: the panel goes, its
        children come, the total moves.  Ranked worst first, a panel must be
        split when the pass cannot stop while it is queued: when ``left``, the
        error sum, less the errors ranked above it, still exceeds
        ``target(total)``.  Only the first ``room`` ranks are read, the
        splits the panel budget still allows.  The first level takes the
        first ``_SPLIT_BATCH`` such panels without a split, the popped one
        first whatever the test; each later level takes the children of the
        last, up to the first panel without a split that is not one of them.
        """
        box = item[2]
        if box not in splits:
            queue = [item, *heap]
            room = _MAX_PANELS - len(heap)
            last: set[_Box] | None = None
            while True:
                queue.sort()
                bound = target(total)
                new: list[tuple[_Box, float]] = []
                n_must, above = 0, 0.0
                for it in queue[:room]:
                    key, _, b, _, _, coarse = it
                    if it is not item and (key >= 0.0 or left - above <= bound):
                        break
                    if b not in splits:
                        if len(new) == _SPLIT_BATCH or (last is not None and b not in last):
                            break
                        new.append((b, coarse))
                    n_must += 1
                    above -= key
                splits.update(_split_panels(density, center, new, width_floor))
                done, queue = queue[:n_must], queue[n_must:]
                children = [c for it in done for c in splits[it[2]] or ()]
                room -= len(children) // 2
                if not children or room <= 0:
                    break
                last = {child for child, _, _ in children}
                split_fine = sum(it[3] for it in done if splits[it[2]])
                total += sum(f for _, _, f in children) - split_fine
                for child, c_coarse, c_fine in children:
                    c_err = abs(c_fine - c_coarse)
                    queue.append((-c_err, 0, child, c_fine, c_err, c_coarse))
                left -= above - sum(abs(f - c) for _, c, f in children)
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

    while len(heap) < _MAX_PANELS:
        tol = target(total)
        if total_err <= tol:
            break
        item = heapq.heappop(heap)
        key, _, box, fine, err, coarse = item
        total -= fine
        total_err -= err
        if key >= 0.0:
            # nothing left to refine (a retired panel has key 0): put the
            # panel back and stop
            heapq.heappush(heap, item)
            total += fine
            break
        children = split(item, total + fine, total_err + err)
        if children is None:
            # keep the panel and its error, but retire both from the queue
            # and from the running error sum
            push(0.0, box, fine, err, coarse)
            total += fine
            continue
        for child, c_coarse, c_fine in children:
            c_err = abs(c_fine - c_coarse)
            push(-c_err, child, c_fine, c_err, c_coarse)
            total += c_fine
            total_err += c_err

    value = float(sum(it[3] for it in heap))
    error = float(sum(it[4] for it in heap))
    return PanelQuadrature(value=value, error=error, n_panels=len(heap))
