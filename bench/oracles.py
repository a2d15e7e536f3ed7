"""Independent references: closed forms, scipy integrals, exact diameters, graph census.

Nothing here calls into ``bubbletree``; every value is derived from the
mathematics of the test families or computed by a different method than the
program uses.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate

FOUR_PI = 4.0 * math.pi


def sphere_disk_area(radius: float) -> float:
    """Spherical area of the stereographic disk |w| <= radius (sphere area 4 pi)."""
    r2 = radius * radius
    return FOUR_PI * r2 / (1.0 + r2)


def power_cap_energy(degree: int, rho: float) -> float:
    """Energy of u -> u^degree over |u| <= rho: the disk |w| <= rho^degree, covered degree times."""
    return degree * sphere_disk_area(rho**degree)


def plumbing_bubble_energy(t: float, delta: float) -> float:
    """Energy of x -> t^(1/3)/x on t/delta <= |x| <= delta: one annulus R1 <= |w| <= R2."""
    c = t ** (1.0 / 3.0)
    r1 = c / delta
    r2 = c * delta / t
    return sphere_disk_area(r2) - sphere_disk_area(r1)


def joukowski_neck_energy(t: float, half_length: float) -> float:
    """Energy of x -> x + t/x on the neck |log(|x|/sqrt t)| <= T.

    The circle |x| = sqrt(t) e^s maps onto the ellipse with semi-axes
    2 sqrt(t) cosh s and 2 sqrt(t) sinh s, and s, -s share an ellipse, so the
    neck covers the interior of the outermost ellipse twice.  Its spherical
    area is integrated by scipy in polar form, int 2 rho^2/(1 + rho^2) dphi.
    """
    a = 2.0 * math.sqrt(t) * math.cosh(half_length)
    b = 2.0 * math.sqrt(t) * math.sinh(half_length)

    def integrand(phi: float) -> float:
        rho2 = (a * b) ** 2 / ((b * math.cos(phi)) ** 2 + (a * math.sin(phi)) ** 2)
        return 2.0 * rho2 / (1.0 + rho2)

    area, _ = integrate.quad(integrand, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return 2.0 * area


def torus_neck(a: float, b: float, half_length: float) -> tuple[float, float]:
    """(energy, alpha) of (t, theta) -> (a t, b theta) into the flat square torus of side 2 pi."""
    return 2.0 * math.pi * half_length * (a * a + b * b), math.pi * (a * a - b * b)


def band_diameters(points: np.ndarray, bands: list[np.ndarray]) -> list[float]:
    """Exact diameter over all samples of each band of rows of a (rows, cols, dim) grid.

    Every pair of samples in the union of the bands is compared, block by
    block, and reduced to the largest distance per pair of rows; a band's
    diameter is then the largest entry over its rows.  Points are centred
    first, so the Gram-matrix form |p|^2 + |q|^2 - 2 p.q loses no digits to
    cancellation.  Rows are compared four at a time, which keeps each block of
    distances to a few tens of MB.
    """
    block = 4
    used = np.unique(np.concatenate(bands))
    sub = points[used]
    rows, cols, dim = sub.shape
    flat = sub.reshape(-1, dim)
    flat = flat - flat.mean(axis=0)
    sq = np.einsum("ij,ij->i", flat, flat)
    pair = np.zeros((rows, rows))
    for lo in range(0, rows, block):
        hi = min(rows, lo + block)
        a = flat[lo * cols : hi * cols]
        d2 = sq[lo * cols : hi * cols, None] + sq[None, lo * cols :] - 2.0 * (a @ flat[lo * cols :].T)
        pair[lo:hi, lo:] = d2.reshape(hi - lo, cols, rows - lo, cols).max(axis=(1, 3))
    pair = np.sqrt(np.maximum(np.maximum(pair, pair.T), 0.0))
    where = {row: i for i, row in enumerate(used)}
    out = []
    for band in bands:
        idx = np.array([where[r] for r in band])
        out.append(float(pair[np.ix_(idx, idx)].max()))
    return out


def restricted_rows(half_length: float, n_t: int, delta: float, pinch: float) -> np.ndarray:
    """Rows of a cylinder grid kept by the restriction to the delta-ball about the node."""
    t = np.linspace(-half_length, half_length, n_t + 1)
    sub = min(math.log(delta / math.sqrt(abs(pinch))), half_length)
    return np.nonzero(np.abs(t) <= sub * (1.0 + 1e-12))[0]


# -- rational maps ----------------------------------------------------------


def pole_sum_coefficients(lams, poles) -> tuple[np.ndarray, np.ndarray]:
    """sum_i lam_i / (z - p_i) as numerator and denominator, highest degree first."""
    den = np.array([1.0 + 0.0j])
    for p in poles:
        den = np.convolve(den, [1.0, -p])
    num = np.zeros(len(poles), dtype=np.complex128)
    for i, lam in enumerate(lams):
        part = np.array([1.0 + 0.0j])
        for j, p in enumerate(poles):
            if j != i:
                part = np.convolve(part, [1.0, -p])
        num[len(num) - len(part) :] += lam * part
    return num, den


# -- dual graphs --------------------------------------------------------------


def canonical_key(n_vertices: int, edges, legs) -> tuple:
    """Smallest relabeling of (edges, legs) over vertex permutations; marks keep their labels."""
    best = None
    for perm in itertools.permutations(range(n_vertices)):
        e = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges))
        lg = tuple(sorted((perm[v], lab) for v, lab in legs))
        if best is None or (e, lg) < best:
            best = (e, lg)
    return best


def _labeled_trees(n: int):
    """All labeled trees on n vertices, from Pruefer sequences."""
    if n == 1:
        yield ()
        return
    if n == 2:
        yield ((0, 1),)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = min(u for u in range(n) if degree[u] == 1)
            edges.append(tuple(sorted((leaf, v))))
            degree[leaf] -= 1
            degree[v] -= 1
        last = [u for u in range(n) if degree[u] == 1]
        edges.append(tuple(sorted(last)))
        yield tuple(sorted(edges))


def genus0_tree_classes(max_vertices: int = 4, max_marks: int = 6) -> dict[tuple, tuple]:
    """Isomorphism classes of genus-0 trees with labeled marks 1..n, each vertex valence >= 3.

    Returns canonical key -> (n_vertices, edges, legs) of one representative.
    """
    classes: dict[tuple, tuple] = {}
    for nv in range(1, max_vertices + 1):
        for edges in set(_labeled_trees(nv)):
            deg = [0] * nv
            for i, j in edges:
                deg[i] += 1
                deg[j] += 1
            for n in range(3, max_marks + 1):
                for assign in itertools.product(range(nv), repeat=n):
                    val = list(deg)
                    for v in assign:
                        val[v] += 1
                    if min(val) < 3:
                        continue
                    legs = tuple((v, lab + 1) for lab, v in enumerate(assign))
                    key = canonical_key(nv, edges, legs)
                    classes.setdefault(key, (nv, edges, legs))
    return classes


# Isomorphism classes of stable genus-0 dual graphs by (vertices, marks),
# counted by hand: the boundary strata of M_{0,n} bar by codimension
# (vertices - 1).  The same table is derived in tests/test_acceptance.py.
GENUS0_CENSUS = {
    (1, 3): 1,
    (1, 4): 1,
    (1, 5): 1,
    (1, 6): 1,
    (2, 4): 3,
    (2, 5): 10,
    (2, 6): 25,
    (3, 5): 15,
    (3, 6): 105,
    (4, 6): 105,
}


def ring_edges(n_vertices: int) -> tuple[tuple[int, int], ...]:
    """Edges of a cycle through all vertices: a self-loop, a double edge, or a polygon."""
    if n_vertices == 1:
        return ((0, 0),)
    if n_vertices == 2:
        return ((0, 1), (0, 1))
    return tuple(tuple(sorted((i, (i + 1) % n_vertices))) for i in range(n_vertices))
