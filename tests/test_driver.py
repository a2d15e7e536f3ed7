"""Induction driver: ledger invariants and whole-tree extraction shapes."""

import dataclasses
import math
import re

import pytest

from bubbletree import (
    BubbleTree,
    ConcentrationSite,
    ExtractionConfig,
    Family,
    FamilyMember,
    MarkedNodalCurve,
    RationalMap,
    TreeComponent,
    WeightedParticleMeasure,
    density_to_measure,
    driver,
    extract_bubble_tree,
)
from bubbletree.errors import DriverError, LadderError, NeckError, SubsequenceError

FOUR_PI = 4.0 * math.pi
SHIPPED_NECK_DELTAS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002)  # configs/plumbing.yaml


def test_config_defaults_and_validation(bubble1_family):
    cfg = ExtractionConfig()
    assert cfg.step_tol == pytest.approx(0.01)  # eps_bar / 20
    assert ExtractionConfig(eps_bar=0.4).step_tol == pytest.approx(0.02)
    fields = [f.name for f in dataclasses.fields(cfg)]
    assert fields == ["eps_bar", "depth", "neck_deltas", "neck_eps"]
    assert (cfg.eps_bar, cfg.depth) == (0.2, 6)
    # the chart builds its ladder, so extraction refuses an inadmissible one
    with pytest.raises(LadderError, match="positive"):
        extract_bubble_tree(bubble1_family, ExtractionConfig(eps_bar=0.0))
    with pytest.raises(LadderError, match="depth must be >= 6"):
        extract_bubble_tree(bubble1_family, ExtractionConfig(depth=5))


def test_integral_float_depth_extracts_as_its_int(bubble1_family):
    # the ladder stores 7.0 as 7, so slicing at its working index works; a
    # non-integral depth is a LadderError, not a raw TypeError
    got = extract_bubble_tree(bubble1_family, ExtractionConfig(depth=7.0))
    want = extract_bubble_tree(bubble1_family, ExtractionConfig(depth=7))
    assert got.re_trace == want.re_trace and got.components == want.components
    for depth in (6.5, True):
        with pytest.raises(LadderError, match="depth must be an integer"):
            extract_bubble_tree(bubble1_family, ExtractionConfig(depth=depth))


def synthetic_tree(re_trace, components=None):
    curve = MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3)))
    if components is None:
        components = (TreeComponent(vertex=0, kind="base", energy=1.0),)
    return BubbleTree(
        curve=curve,
        components=components,
        necks=(),
        re_trace=re_trace,
        eps_bar=0.2,
        step_tol=0.01,
        limit_energy=1.0,
        identity_residual=0.0,
        identity_note="",
        singular=(),
        connected=True,
    )


def test_tree_invariants():
    synthetic_tree((0.5, 0.4, 0.3))  # steps of 0.1 >= 0.2/2 - 0.01
    with pytest.raises(DriverError, match="failed to decrease"):
        synthetic_tree((0.5, 0.45))
    with pytest.raises(DriverError, match="empty residual-energy trace"):
        synthetic_tree(())
    with pytest.raises(DriverError, match="exactly one base"):
        synthetic_tree(
            (0.5,),
            components=(
                TreeComponent(0, "base", 0.5),
                TreeComponent(1, "base", 0.5),
            ),
        )


def test_bubble1_tree_shape(bubble1_tree):
    tree = bubble1_tree
    assert tree.limit_energy == FOUR_PI  # degree 1
    kinds = [c.kind for c in tree.components]
    assert kinds == ["base", "bubble"]
    bubble = tree.components[1]
    assert bubble.site_kind == "smooth"
    assert bubble.energy == pytest.approx(FOUR_PI, rel=0.02)
    assert abs(bubble.attachment) < 1e-3  # the bubble forms at the origin
    # curve gained one vertex and one node by a smooth-point insertion
    assert tree.curve.n_vertices == 2
    assert len(tree.curve.edges) == 1
    assert len(tree.necks) == 1 and tree.necks[0].kind == "smooth"
    assert math.isfinite(tree.necks[0].annulus_excess)
    assert len(tree.necks[0].markings) == len(tree.necks[0].members) > 1
    # one extraction: the trace has the initial and the post-extraction state
    assert len(tree.re_trace) == 2
    assert abs(tree.re_trace[-1]) <= 0.02 * tree.limit_energy


def test_bubble2_tree_extracts_both_sites(bubble2_tree):
    tree = bubble2_tree
    assert tree.limit_energy == 2 * FOUR_PI  # degree 2
    bubbles = [c for c in tree.components if c.kind == "bubble"]
    assert len(bubbles) == 2
    for b in bubbles:
        assert b.energy == pytest.approx(FOUR_PI, rel=0.05)
    # the two attachment points straddle the separation +-0.5
    spots = sorted(b.attachment.real for b in bubbles)
    assert spots[0] == pytest.approx(-0.5, abs=0.01)
    assert spots[1] == pytest.approx(0.5, abs=0.01)
    assert len(tree.re_trace) == 3
    assert tree.curve.n_vertices == 3


def test_nested_bubble_family_is_one_level_deep():
    # k^4 z^2/(k^3 z + 1): a bubble at scale 1/k with a child at scale k^-5
    # about -1/k^3, energy 8 pi.  The exact cap and the particle measure both
    # see the child inside the site ball, so the two residual-energy routes
    # agree; but the induction is single pass, so bubble and child are booked
    # as one bubble of energy about 8 pi at 0.  The child's own vertex waits
    # on the recursive induction (ROADMAP item 8)
    members = []
    for k in (316.0, 3162.0, 1e4):
        rmap = RationalMap((k**4, 0.0, 0.0), (k**3, 1.0))
        members.append(FamilyMember(f"k={k:g}", k, rmap, density_to_measure(rmap, 1.0), None))
    family = Family(
        tuple(members),
        MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3))),
        WeightedParticleMeasure.empty(1.0),
    )
    tree = extract_bubble_tree(family)
    assert [c.kind for c in tree.components] == ["base", "bubble"]
    base, bubble = tree.components
    assert bubble.energy == pytest.approx(25.1321, abs=1e-4)
    assert abs(bubble.attachment) < 1e-6
    assert base.energy == pytest.approx(5.9e-4, abs=1e-5)
    assert tree.limit_energy == 2.0 * FOUR_PI
    assert tree.identity_residual == pytest.approx(1.7e-6, abs=1e-7)
    assert tree.curve.n_vertices == 2


def test_plumbing_tree_is_base_only(plumbing_tree):
    tree = plumbing_tree
    # the neck carries no concentration: no bubbles, trace stays at zero
    assert [c.kind for c in tree.components] == ["base"]
    assert tree.re_trace == (0.0,)
    assert tree.singular == ()
    node_necks = [n for n in tree.necks if n.kind == "node"]
    assert len(node_necks) == 1
    rep = node_necks[0].zero_neck
    assert rep is not None and rep.passed
    assert abs(node_necks[0].alpha) <= 1e-6
    assert tree.connected is True


def test_plumbing_bubble_tree_subdivides_node(plumbing_bubble_tree):
    tree = plumbing_bubble_tree
    bubbles = [c for c in tree.components if c.kind == "bubble"]
    assert len(bubbles) == 1 and bubbles[0].site_kind == "nodal"
    assert bubbles[0].energy == pytest.approx(FOUR_PI, rel=0.01)
    # case-2 insertion: the node edge is subdivided through the new vertex
    assert tree.curve.n_vertices == 3
    assert len(tree.curve.edges) == 2
    nodal = [n for n in tree.necks if n.kind == "nodal"]
    assert len(nodal) == 1
    ratios = nodal[0].thinness_ratios
    assert len(ratios) >= 2
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert any("deferred" in note for note in tree.notes)


def test_unstable_site_at_a_regular_node_is_refused(plumbing_bubble_family):
    # at depth 10 the node's excess does not stabilize across scales; edge 0
    # of the curve is a regular bridge, so this is a detection failure, not
    # a non-regular node to freeze into the singular set
    with pytest.raises(SubsequenceError, match="subsequence not extracted"):
        extract_bubble_tree(plumbing_bubble_family, ExtractionConfig(depth=10))


@pytest.mark.parametrize(
    "family, depth", [("bubble1", 18), ("bubble2", 18), ("plumbing_bubble", 20)]
)
def test_deep_ladder_refuses_a_bubble_it_cannot_follow(request, family, depth):
    # at this depth the last member's excess about each bubble holds eps_bar
    # at the coarsest tested scale and falls below it at a finer one; skipping
    # the site would book the bubble's 4 pi as base energy
    fam = request.getfixturevalue(f"{family}_family")
    refusal = "^subsequence not extracted: excess .* below eps_bar"
    with pytest.raises(SubsequenceError, match=refusal):
        extract_bubble_tree(fam, ExtractionConfig(depth=depth))


def test_deep_ladder_freezes_the_torus_node_into_the_singular_set(torus21_family):
    # the node is not regular, so a site that detection cannot follow down the
    # ladder at depth 20 goes to the singular set (as at depth 6), not into the
    # base energy
    tree = extract_bubble_tree(torus21_family, ExtractionConfig(depth=20))
    assert [c.kind for c in tree.components] == ["base"]
    assert tree.components[0].energy == pytest.approx(10.9748, abs=1e-4)
    assert len(tree.singular) == 1
    assert tree.singular[0].reason.startswith("subsequence not extracted")
    assert tree.identity_note == "identity not asserted: non-regular nodal points present"
    assert tree.connected is None


@pytest.mark.parametrize(
    "neck",
    [{"neck_eps": math.inf}, {"neck_deltas": ("0.1",)}, {"neck_deltas": (True,)}],
    ids=["inf_eps", "string_delta", "bool_delta"],
)
def test_zero_neck_inputs_are_refused_through_the_library(plumbing_family, neck):
    # the loader's schedule rule, errors.neck_schedule, refuses the config
    # itself, before any chart is set up
    with pytest.raises(NeckError, match="must be a finite number"):
        extract_bubble_tree(plumbing_family, ExtractionConfig(**{"neck_deltas": (0.1,), **neck}))


def test_zero_neck_inputs_are_refused_on_a_smooth_family_too(bubble1_family):
    # a smooth chart never runs the zero-neck test, so only the config can refuse
    with pytest.raises(NeckError, match="deltas entry must be a finite number"):
        extract_bubble_tree(
            bubble1_family, ExtractionConfig(neck_deltas=("0.1",), neck_eps=math.inf)
        )
    with pytest.raises(NeckError, match="eps must be a finite number"):
        ExtractionConfig(neck_eps=math.inf)
    # a list or integers come back as the tuple of floats the rule returns
    cfg = ExtractionConfig(neck_deltas=[1, 0.5])
    assert cfg.neck_deltas == (1.0, 0.5)
    assert [type(d) for d in cfg.neck_deltas] == [float, float]


def test_failed_zero_neck_test_leaves_a_tree_without_singular_sites_unconnected(
    plumbing_family,
):
    # plumbing's neck energy stays above 1e-4 at every shipped delta
    cfg = ExtractionConfig(neck_deltas=SHIPPED_NECK_DELTAS, neck_eps=1e-4)
    tree = extract_bubble_tree(plumbing_family, cfg)
    (node,) = [n for n in tree.necks if n.kind == "node"]
    assert not node.zero_neck.passed
    assert tree.singular == () and tree.identity_note == ""
    assert tree.connected is False


@pytest.mark.parametrize("shift, refused", [(0.1, True), (0.005, False)])
def test_smooth_route_check_refuses_caps_off_past_its_tolerance(
    bubble1_family, monkeypatch, shift, refused
):
    # the caps and the site sum agree to about 1e-4; the tolerance is
    # 1e-3 (1 + 4 pi) = 0.0136
    exact = driver.contour_energy
    monkeypatch.setattr(driver, "contour_energy", lambda *args: exact(*args) + shift)
    if refused:
        with pytest.raises(DriverError, match="residual-energy routes disagree: caps"):
            extract_bubble_tree(bubble1_family)
    else:
        assert len(extract_bubble_tree(bubble1_family).components) == 2


@pytest.mark.parametrize("shift, refused", [(-0.2, True), (-0.02, False)])
def test_nodal_route_check_refuses_collar_energy_off_past_its_tolerance(
    plumbing_bubble_family, monkeypatch, shift, refused
):
    # the collar energy and the site mass agree to about 3e-6; the tolerance
    # is 0.05 + 1e-3 limit_energy = 0.0626.  The collar holds nearly all of
    # the limit energy and the base energy is clipped at 0, which hides a
    # raised collar energy, so the shift lowers it
    exact = driver.collar_diagnostics

    def shifted(field, delta):
        diag = exact(field, delta)
        return dataclasses.replace(diag, energy=diag.energy + shift)

    monkeypatch.setattr(driver, "collar_diagnostics", shifted)
    if refused:
        with pytest.raises(DriverError, match="residual-energy routes disagree: collar"):
            extract_bubble_tree(plumbing_bubble_family)
    else:
        assert len(extract_bubble_tree(plumbing_bubble_family).components) == 2


def test_torus_tree_routes_to_singular_set(torus21_tree):
    tree = torus21_tree
    # the node of the cycle is not regular, so nothing may be extracted
    assert [c.kind for c in tree.components] == ["base"]
    assert len(tree.singular) == 1
    assert tree.singular[0].mass > 0
    assert tree.identity_residual is not None
    assert "not asserted" in tree.identity_note
    assert tree.connected is None
    node_necks = [n for n in tree.necks if n.kind == "node"]
    assert node_necks and not node_necks[0].zero_neck.passed


def test_extraction_steps_meet_the_minimum_decrement(bubble2_tree):
    step = bubble2_tree.eps_bar / 2.0 - bubble2_tree.step_tol
    drops = [
        a - b for a, b in zip(bubble2_tree.re_trace, bubble2_tree.re_trace[1:])
    ]
    assert all(d >= step - 1e-12 for d in drops)


def test_energy_identity_check_recomputes(bubble1_tree, torus21_tree):
    # the reported residual is the components' sum against the limit energy
    for tree in (bubble1_tree, torus21_tree):
        total = sum(c.energy for c in tree.components)
        residual = abs(tree.limit_energy - total) / tree.limit_energy
        assert tree.identity_residual == pytest.approx(residual)
    assert bubble1_tree.identity_note == "" and bubble1_tree.connected
    assert bubble1_tree.identity_residual <= 1e-3
    assert "not asserted" in torus21_tree.identity_note
    assert torus21_tree.connected is None


def test_family_without_members_is_refused(plumbing_family):
    empty = dataclasses.replace(plumbing_family, members=())
    with pytest.raises(DriverError, match="^family has no members$"):
        extract_bubble_tree(empty)


def test_family_mixing_measures_and_fields_is_refused(plumbing_family):
    atoms = FamilyMember("atoms", 1.0, None, WeightedParticleMeasure.empty(), None)
    mixed = dataclasses.replace(
        plumbing_family, members=(*plumbing_family.members, atoms)
    )
    with pytest.raises(
        DriverError, match="^family members carry neither uniform measures nor fields$"
    ):
        extract_bubble_tree(mixed)


def test_smooth_site_on_nodal_chart_is_refused(plumbing_family, monkeypatch):
    # the nodal chart refuses a smooth site as soon as detection returns it,
    # before the dual-route check and any marking
    site = ConcentrationSite(0.2 + 0.1j, 0.01, "smooth", (0, 3))

    def detect(mus, mu_limit, ladder, chart_kind="smooth"):
        assert chart_kind == "nodal"
        return (site,)

    monkeypatch.setattr(driver, "detect_concentrations", detect)
    with pytest.raises(
        DriverError, match="^smooth sites on a nodal chart are not supported$"
    ):
        extract_bubble_tree(plumbing_family)


def test_nodal_site_at_non_regular_node_is_refused(torus21_family, monkeypatch):
    # the torus dual graph (two vertices joined by two nodes, one mark each)
    # has no regular node, and the linear torus field carries alpha = 3 pi
    site = ConcentrationSite(0j, 1.0, "nodal", (0, 3))

    def detect(mus, mu_limit, ladder, chart_kind="smooth"):
        assert chart_kind == "nodal"
        return (site,)

    monkeypatch.setattr(driver, "detect_concentrations", detect)
    tree = extract_bubble_tree(torus21_family)
    assert [(s.location, s.mass) for s in tree.singular] == [(0j, 1.0)]
    reason = tree.singular[0].reason
    assert "dual-graph node classification: not_regular" in reason
    assert re.search(r"\|alpha\| = \S+ too large", reason)
    assert [c.kind for c in tree.components] == ["base"]
    assert "non-regular nodal points" in tree.identity_note
    assert tree.connected is None
