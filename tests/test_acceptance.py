"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single PASS line with the measured figures; the pytest
verdict line is the pass/fail record.  Oracles are closed forms fixed in
advance: sphere areas for rational-map energies, the uniform-disk cut scale
2 sqrt(3) - 3, the linear-torus alpha pi (a^2 - b^2), and hand-counted
isomorphism classes of stable genus-zero dual graphs.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from bubbletree import (
    ExtractionConfig,
    FamilySpec,
    MarkedNodalCurve,
    RationalMap,
    ScaleLadder,
    WeightedParticleMeasure,
    add_bubble_component,
    center_functional,
    contour_energy,
    cylinder_field_from_sphere_chart,
    diagnostics,
    energy_quadrature,
    extract_bubble_tree,
    find_balanced_center,
    forget_mark,
    is_regular_node,
    is_stable,
    make_family,
    solve_neck_scale_from_cdf,
    zero_neck_test,
)
from bubbletree import renorm
from bubbletree.cli import main as cli_main

FOUR_PI = 4.0 * math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_01_degree_energy_quadrature():
    """Full-sphere energy of z -> z^d equals 4 pi d to 1e-6 relative, < 5 s,
    by quadrature and by the contour (|z| <= 1 plus the reversed chart)."""
    t0 = time.monotonic()
    worst = 0.0
    for d in (1, 2, 3):
        coeffs = np.zeros(d + 1)
        coeffs[0] = 1.0
        m = RationalMap(coeffs, (1.0,))
        e = energy_quadrature(m)
        worst = max(worst, abs(e - FOUR_PI * d) / (FOUR_PI * d))
        e = contour_energy(m, 1.0) + contour_energy(m.chart_reversed(), 1.0)
        worst = max(worst, abs(e - FOUR_PI * d) / (FOUR_PI * d))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"PASS degree-energy quadrature: max rel err {worst:.2e} in {elapsed:.2f}s")


def test_02_pohozaev_identity_on_polar_grids():
    """Conformality residual of z -> z^d vanishes on 256 x 256 polar grids."""
    worst = 0.0
    for d in (1, 2, 3):
        # the annulus 1/2 <= |x| <= 2, 256 log-radii by 256 angles
        field = cylinder_field_from_sphere_chart(
            lambda x, d=d: x**d, lambda x, d=d: d * x ** (d - 1), 1.0, 2.0, n_t=255, n_theta=256
        )
        assert field.points.shape[:2] == (256, 256)
        worst = max(worst, diagnostics(field).pohozaev_residual)
    assert worst <= 1e-8
    print(f"PASS Pohozaev identity: max residual {worst:.2e} over degrees 1-3")


def test_03_neck_scale_solver():
    """Uniform-disk cut scale hits 2 sqrt(3) - 3 to 1e-9; bisection history is
    monotone on 100 randomized smooth radial densities."""
    res = solve_neck_scale_from_cdf(
        lambda s: max(0.0, 1.0 - s * s), total=1.0, eps_bar=0.25
    )
    err = abs(res.t - (2.0 * math.sqrt(3.0) - 3.0))
    assert err <= 1e-9

    rng = np.random.default_rng(42)
    for _ in range(100):
        k = rng.integers(1, 4)
        amps = rng.uniform(0.5, 2.0, k)
        scales = rng.uniform(0.2, 2.0, k)

        def mass_outside(s, amps=amps, scales=scales):
            return float(np.sum(amps * np.exp(-((s / scales) ** 2))))

        total = mass_outside(0.0)
        r = solve_neck_scale_from_cdf(
            mass_outside, total, rng.uniform(0.1, 0.9) * total
        )
        ts = np.array([t for t, _ in r.history])
        fs = np.array([f for _, f in r.history])
        assert np.all(np.diff(fs[np.argsort(ts)]) <= 1e-12 * total)
    print(f"PASS neck-scale solver: uniform-disk err {err:.2e}, 100 monotone histories")


def test_04_balanced_center_on_gaussian_clouds(monkeypatch):
    """50 Gaussian concentrating clouds with random centers: the finder's
    zero has |F(q)| <= 1e-8 mass, lands within 3 sigma of the true center,
    and the boundary margin that certifies the inward condition is positive."""
    monkeypatch.setattr(renorm, "_CENTER_TOL", 1e-8)
    lad = ScaleLadder(1.0, 0.2, 6)
    k = 2
    big_radius = float(lad.delta[2 * k])
    n = 10_000
    worst_f, worst_d = 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        r = big_radius * math.sqrt(rng.uniform(0.01, 0.64))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        c = r * complex(math.cos(ang), math.sin(ang))
        sigma = (big_radius - abs(c)) / 20.0
        pts = c + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        mu = WeightedParticleMeasure(pts, np.full(n, FOUR_PI / n), 1.0)
        res = find_balanced_center(mu, lad, k)
        worst_f = max(worst_f, abs(center_functional(mu, res.q, 0.2)) / mu.mass)
        worst_d = max(worst_d, abs(res.q - c) / sigma)
        assert res.margin > 0.0
    assert worst_f <= 1e-8
    assert worst_d <= 3.0
    print(
        f"PASS balanced center: worst |F|/mass {worst_f:.2e}, "
        f"worst |q - c| {worst_d:.3f} sigma, boundary condition 50/50"
    )


def test_05_alpha_oracle(plumbing_family):
    """Holomorphic plumbing necks have |alpha| <= 1e-6 energy; linear torus
    fields give alpha = pi (a^2 - b^2) to 1e-8 absolute."""
    worst_rel = 0.0
    for mem in plumbing_family.members:
        d = diagnostics(mem.field)
        worst_rel = max(worst_rel, abs(d.alpha) / d.energy)
    assert worst_rel <= 1e-6

    worst_abs = 0.0
    for a, b in ((2.0, 1.0), (1.0, 0.0), (3.0, 1.0)):
        fam = make_family(
            FamilySpec(
                kind="torus_linear", schedule=(1e-4,), delta=0.5, slopes=(a, b)
            )
        )
        alpha = diagnostics(fam.members[0].field).alpha
        worst_abs = max(worst_abs, abs(alpha - math.pi * (a * a - b * b)))
    assert worst_abs <= 1e-8
    print(
        f"PASS alpha oracle: plumbing max |alpha|/E {worst_rel:.2e}, "
        f"torus max |alpha - pi(a^2-b^2)| {worst_abs:.2e}"
    )


def test_06_zero_neck_verdicts(plumbing_tree, torus10_family):
    """The concentration-free plumbing family passes the zero-neck test with
    energy <= 0.01 at the finest delta; the alpha != 0 linear family fails,
    with measured energy matching the 2 T alpha prediction within 5%."""
    node_necks = [n for n in plumbing_tree.necks if n.kind == "node"]
    rep = node_necks[0].zero_neck
    assert rep is not None and rep.passed
    finest = rep.rows[-1]
    assert finest.delta == min(r.delta for r in rep.rows)
    assert finest.max_energy <= 0.01

    fields = [m.field for m in torus10_family.members]
    fail_rep = zero_neck_test(fields, 0.01, [0.1, 0.02, 0.005])
    assert not fail_rep.passed
    worst_dev = max(
        abs(r.max_energy - r.predicted_energy) / r.predicted_energy
        for r in fail_rep.rows
    )
    assert worst_dev <= 0.05
    print(
        f"PASS zero-neck verdicts: plumbing energy {finest.max_energy:.2e} at "
        f"delta {finest.delta:g}; torus fails with energy/prediction dev "
        f"{worst_dev:.2e}"
    )


# --- exhaustive dual-graph layer -------------------------------------------


def _spanning_trees(n_vertices):
    if n_vertices == 1:
        yield ()
        return
    pairs = list(itertools.combinations(range(n_vertices), 2))
    for edges in itertools.combinations(pairs, n_vertices - 1):
        parent = list(range(n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            yield edges


def _canonical_key(genus, edges, legs):
    nv = len(genus)
    best = None
    for perm in itertools.permutations(range(nv)):
        e = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges))
        l = tuple(sorted((perm[v], lab) for v, lab in legs))
        key = (e, l)
        if best is None or key < best:
            best = key
    return best


def enumerate_stable_genus0(max_vertices=4, max_marks=6):
    """All stable genus-0 dual graphs up to isomorphism (trees, labeled marks)."""
    seen = {}
    for nv in range(1, max_vertices + 1):
        for edges in _spanning_trees(nv):
            deg = [0] * nv
            for i, j in edges:
                deg[i] += 1
                deg[j] += 1
            for n in range(3, max_marks + 1):
                for assign in itertools.product(range(nv), repeat=n):
                    val = list(deg)
                    for v in assign:
                        val[v] += 1
                    if any(x < 3 for x in val):
                        continue
                    legs = tuple((assign[i], i + 1) for i in range(n))
                    key = _canonical_key((0,) * nv, edges, legs)
                    if key in seen:
                        continue
                    seen[key] = MarkedNodalCurve((0,) * nv, edges, legs)
    return list(seen.values())


# isomorphism-class counts per (vertices, marks), derived by hand: the
# number of ways to split labeled marks over a tree with every vertex
# carrying >= 3 special points, modulo tree symmetry
EXPECTED_COUNTS = {
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


def forgets_back_to(ins, c):
    """Forgetting the new marks of ``ins`` gives back the genus, vertex
    numbering and legs of ``c`` exactly, and its edges up to order."""
    back = ins.curve
    for lab in ins.new_legs:
        back = forget_mark(back, lab).curve
    return (back.genus, sorted(back.edges), back.legs) == (c.genus, sorted(c.edges), c.legs)


def test_07_dual_graph_layer_exhaustive():
    """Every node of every stable genus-0 dual graph (<= 4 vertices, <= 6
    marks) is regular; bubble insertion round-trips to the input curve; the
    nodes created over a site are again regular; all under 10 s."""
    t0 = time.monotonic()
    curves = enumerate_stable_genus0()

    counts = {}
    for c in curves:
        key = (c.n_vertices, c.n_marks)
        counts[key] = counts.get(key, 0) + 1
    assert counts == EXPECTED_COUNTS
    assert sum(counts.values()) == 267

    checked_nodes = 0
    for c in curves:
        assert is_stable(c).stable and c.arithmetic_genus == 0
        for e in range(len(c.edges)):
            verdict = is_regular_node(c, e)
            assert verdict.status == "regular"
            checked_nodes += 1

        for v in range(c.n_vertices):
            ins = add_bubble_component(c, v, 1)
            assert forgets_back_to(ins, c)
            for e in ins.new_edges:
                assert is_regular_node(ins.curve, e).status == "regular"

        for site in range(len(c.edges)):
            ins = add_bubble_component(c, site, 2)
            assert forgets_back_to(ins, c)
            # both halves of the subdivided node sit over a regular node
            # and must be regular again
            for e in ins.new_edges:
                assert is_regular_node(ins.curve, e).status == "regular"

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"PASS dual-graph layer: 267 curves, {checked_nodes} nodes regular, "
        f"all insertion round trips identity, {elapsed:.2f}s"
    )


def test_08_full_extraction_on_bubble_families():
    """Fresh end-to-end runs: one 4 pi bubble (2%) with near-zero base from
    the single-bubble family, two 4 pi bubbles (5%) from the two-bubble
    family; residual-energy decrements and the iteration cap hold; < 60 s."""
    t0 = time.monotonic()
    schedule = (316.0, 3162.0, 10000.0)

    tree1 = extract_bubble_tree(
        make_family(FamilySpec(kind="bubble1", schedule=schedule))
    )
    bubbles1 = [c for c in tree1.components if c.kind == "bubble"]
    assert len(bubbles1) == 1
    assert abs(bubbles1[0].energy - FOUR_PI) <= 0.02 * FOUR_PI
    assert tree1.components[0].energy <= 0.02 * tree1.limit_energy
    assert tree1.identity_residual <= 0.02

    tree2 = extract_bubble_tree(
        make_family(FamilySpec(kind="bubble2", schedule=schedule))
    )
    bubbles2 = [c for c in tree2.components if c.kind == "bubble"]
    assert len(bubbles2) == 2
    for b in bubbles2:
        assert abs(b.energy - FOUR_PI) <= 0.05 * FOUR_PI
    assert tree2.identity_residual <= 0.02

    for tree in (tree1, tree2):
        step = tree.eps_bar / 2.0 - tree.step_tol
        for a, b in zip(tree.re_trace, tree.re_trace[1:]):
            assert a - b >= step - 1e-12
        cap = math.ceil(2.0 * tree.limit_energy / tree.eps_bar)
        assert len(tree.re_trace) - 1 <= cap

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"PASS full extraction: energies "
        f"{[round(b.energy, 4) for b in bubbles1 + bubbles2]} vs 4 pi "
        f"{FOUR_PI:.4f}, residuals {tree1.identity_residual:.2e}/"
        f"{tree2.identity_residual:.2e}, {elapsed:.1f}s"
    )


def test_09_cli_determinism(tmp_path):
    """Two runs of every bundled extraction config write byte-identical
    tree.json artifacts."""
    configs = []
    for cfg in sorted(CONFIG_DIR.glob("*.yaml")):
        if "family:" in cfg.read_text(encoding="utf-8"):
            configs.append(cfg)
    assert len(configs) >= 5
    for cfg in configs:
        blobs = []
        for run in ("first", "second"):
            out = tmp_path / cfg.stem / run
            rc = cli_main(
                ["extract", "--config", str(cfg), "--out", str(out)]
            )
            assert rc == 0, f"{cfg.name} run failed"
            blobs.append((out / "tree.json").read_bytes())
        assert blobs[0] == blobs[1], f"{cfg.name} not deterministic"
    print(f"PASS determinism: {len(configs)} configs, byte-identical tree.json")
