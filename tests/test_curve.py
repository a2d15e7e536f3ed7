"""Dual-graph bookkeeping: stability, forgetful maps, regular nodes, insertion."""

import itertools

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from bubbletree import (
    MarkedNodalCurve,
    add_bubble_component,
    curve_from_text,
    curve_to_text,
    forget_mark,
    is_regular_node,
    is_stable,
)
from bubbletree.curve import RegularityVerdict
from bubbletree.errors import CurveError


def two_component(marks_left=(1, 2), marks_right=(3, 4)):
    legs = [(0, m) for m in marks_left] + [(1, m) for m in marks_right]
    return MarkedNodalCurve((0, 0), ((0, 1),), tuple(legs))


def forget_many(c, labels):
    """Forget labels in order through ``reference_forget_mark``, composing the
    node images through each step."""
    cur = c
    node_imgs = [("node", k) for k in range(len(c.edges))]
    for lab in labels:
        _, cur, images = reference_forget_mark(cur, lab)
        by_kind = dict(zip(("node", "mark", "regular"), images))
        node_imgs = [by_kind[kind][index] for kind, index in node_imgs]
    return cur, node_imgs


def _stabilize_once(genus, edges, legs, images):
    """Contract the first genus-0 vertex with at most two special points, in
    place, rewriting every image list in ``images`` to the new indices; False
    when there is none."""
    valence = [0] * len(genus)
    for u, _ in legs:
        valence[u] += 1
    for i, j in edges:
        valence[i] += 1
        valence[j] += 1
    victims = [u for u in range(len(genus)) if genus[u] == 0 and valence[u] <= 2]
    if not victims:
        return False
    v = victims[0]
    v_edges = [k for k, (i, j) in enumerate(edges) if v in (i, j)]
    v_legs = [k for k, (u, _) in enumerate(legs) if u == v]

    def shift_vertex(u):
        return u if u < v else u - 1

    def drop_vertex():
        del genus[v]
        edges[:] = [(shift_vertex(i), shift_vertex(j)) for i, j in edges]
        legs[:] = [(shift_vertex(u), lab) for u, lab in legs]

    if len(v_edges) == 2 and not v_legs:
        ends = [j if i == v else i for i, j in (edges[k] for k in v_edges)]
        for k in reversed(v_edges):
            del edges[k]
        drop_vertex()
        edges.append(tuple(sorted(shift_vertex(u) for u in ends)))
        attach = ("node", len(edges) - 1)

        def shift_edge(k):
            return k - sum(1 for r in v_edges if r < k)

    elif len(v_edges) == 1 and len(v_legs) <= 1:
        (e,) = v_edges
        i, j = edges[e]
        if i == j:
            raise CurveError("stratum empty: cannot contract a self-loop component")
        target = j if i == v else i
        if v_legs:
            legs[v_legs[0]] = (target, legs[v_legs[0]][1])
            attach = ("mark", v_legs[0])
        else:
            attach = ("regular", shift_vertex(target))
        del edges[e]
        drop_vertex()

        def shift_edge(k):
            return k - (k > e)

    else:
        raise CurveError(f"stratum empty: unstable vertex {v} cannot be contracted")

    def rule(img):
        kind, index = img
        if kind == "node":
            return attach if index in v_edges else ("node", shift_edge(index))
        if kind == "regular":
            return attach if index == v else ("regular", shift_vertex(index))
        return img

    for lst in images:
        lst[:] = [rule(img) for img in lst]
    return True


def reference_forget_mark(c, label):
    """Forget by the general stabilization loop: contract unstable genus-0
    vertices one at a time until none is left.  ``forget_mark`` is the closed
    form of this loop on stable curves.

    Returns the number of contractions, the stable image, and where the input
    lands in it: the images of its nodes, of its marks (the forgotten mark's
    entry is where that point lands) and of the generic points of its
    vertices.  An image is ("node", edge index), ("mark", leg index) or
    ("regular", vertex) for a non-special point of that vertex."""
    if 2 * c.arithmetic_genus - 2 + (c.n_marks - 1) <= 0:
        raise CurveError(
            f"stratum empty: forgetting mark {label} leaves 2g-2+n = "
            f"{2 * c.arithmetic_genus - 2 + c.n_marks - 1} <= 0"
        )
    genus, edges, legs = list(c.genus), list(c.edges), list(c.legs)
    drop = next(k for k, (_, lab) in enumerate(legs) if lab == label)
    host = legs.pop(drop)[0]
    images = [
        [("node", k) for k in range(len(edges))],
        [("regular", host) if k == drop else ("mark", k - (k > drop)) for k in range(c.n_marks)],
        [("regular", u) for u in range(len(genus))],
    ]
    contractions = 0
    while _stabilize_once(genus, edges, legs, images):
        contractions += 1
    result = MarkedNodalCurve(tuple(genus), tuple(edges), tuple(legs))
    if not is_stable(result).stable:
        raise CurveError("stratum empty: stabilization did not reach a stable curve")
    return contractions, result, tuple(tuple(lst) for lst in images)


def reference_is_regular_node(c, edge_index):
    """Regularity by search: forget mark subsets through the stabilization
    loop (``forget_many``).

    Genus-0 curves first try forgetting every label after the third; then
    subsets are tried by size and in lexicographic order.  A witness is
    replayed in reversed order, and its image must not depend on the order.
    """
    labels = c.mark_labels

    def verify(subset):
        try:
            _, imgs = forget_many(c, subset)
        except CurveError:
            return False
        if imgs[edge_index][0] == "node":
            return False
        _, imgs_rev = forget_many(c, tuple(reversed(subset)))
        assert imgs_rev[edge_index][0] != "node", "image depends on the order"
        return True

    if c.arithmetic_genus == 0 and len(labels) >= 4 and verify(labels[3:]):
        return RegularityVerdict(status="regular", witness=labels[3:])
    for size in range(1, len(labels) + 1):
        for subset in itertools.combinations(labels, size):
            if verify(subset):
                return RegularityVerdict(status="regular", witness=subset)
    return RegularityVerdict(status="not_regular", witness=None)


@st.composite
def nodal_curves(draw):
    """Stable curves with 1-4 vertices of genus 0-2, loops and multi-edges.

    A random spanning tree plus up to two extra edges (loops or parallels);
    each vertex gets the marks it needs for 2g - 2 + valence > 0 first, then
    up to 8 marks in all, labels drawn from 1-30.
    """
    nv = draw(st.integers(1, 4))
    genus = draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    vertex = st.integers(0, nv - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    need = []
    for v in range(nv):
        deg = sum((i == v) + (j == v) for i, j in edges)
        need += [v] * max(0, 3 - 2 * genus[v] - deg)
    extra = draw(st.lists(vertex, max_size=8 - len(need)))
    labels = draw(
        st.lists(
            st.integers(1, 30),
            min_size=len(need) + len(extra),
            max_size=len(need) + len(extra),
            unique=True,
        )
    )
    c = MarkedNodalCurve(tuple(genus), tuple(edges), tuple(zip(need + extra, labels)))
    assert is_stable(c).stable
    return c


def test_validation_rejects_bad_graphs():
    with pytest.raises(CurveError, match="at least one vertex"):
        MarkedNodalCurve((), (), ())
    with pytest.raises(CurveError, match="missing vertex"):
        MarkedNodalCurve((0,), ((0, 1),), ((0, 1), (0, 2), (0, 3)))
    with pytest.raises(CurveError, match="duplicate mark"):
        MarkedNodalCurve((1,), (), ((0, 1), (0, 1)))
    with pytest.raises(CurveError, match="not connected"):
        MarkedNodalCurve((0, 0), (), ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)))


def test_genus_accounting_with_loops_and_cycles():
    # a self-loop and a 2-cycle both add to the first Betti number
    loop = MarkedNodalCurve((0,), ((0, 0),), ((0, 1),))
    assert loop.arithmetic_genus == 1
    assert loop.valence(0) == 3  # loop counts twice plus one leg
    cycle = MarkedNodalCurve((0, 0), ((0, 1), (0, 1)), ((0, 1), (1, 2)))
    assert cycle.arithmetic_genus == 1
    assert is_stable(cycle).stable


def test_stability_per_vertex_and_global():
    assert is_stable(MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3)))).stable
    rep = is_stable(MarkedNodalCurve((0,), (), ((0, 1), (0, 2))))
    assert not rep.stable and not rep.global_ok
    # globally fine but one vertex has only two special points
    rep = two_component(marks_left=(1,), marks_right=(2, 3, 4))
    rep = is_stable(rep)
    assert not rep.stable and rep.global_ok and rep.vertex_ok == (False, True)


def test_forget_mark_contracts_unstable_component():
    c = two_component()
    res = forget_mark(c, 4)
    # right vertex drops to valence 2 and is contracted away
    assert res.curve.n_vertices == 1 and res.curve.edges == ()
    assert sorted(lab for _, lab in res.curve.legs) == [1, 2, 3]
    # the node's image is no longer a node: the contracted component lands
    # at a single point of the survivor, which is exactly where mark 3 sits
    contractions, curve, (node_images, mark_images, _) = reference_forget_mark(c, 4)
    assert contractions == 1 and curve == res.curve
    assert node_images[0][0] == "mark"
    assert mark_images[3] == node_images[0]


def test_forget_mark_no_contraction_needed():
    c = MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3), (0, 4)))
    res = forget_mark(c, 2)
    assert res.curve.n_vertices == 1
    assert res.curve.mark_labels == (1, 3, 4)


def test_forget_mark_empty_stratum():
    c = MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3)))
    with pytest.raises(CurveError, match="stratum empty"):
        forget_mark(c, 3)


def test_forget_mark_refuses_unknown_label():
    c = MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3), (0, 4)))
    with pytest.raises(CurveError, match="no mark with label 99"):
        forget_mark(c, 99)


def test_forget_mark_needs_stable_curve():
    # vertex 0 carries one mark and one node: the stabilization loop would
    # contract it, but a forgetful map is only defined on stable curves
    c = two_component(marks_left=(1,), marks_right=(2, 3, 4))
    with pytest.raises(CurveError, match="needs a stable curve"):
        forget_mark(c, 2)


@given(c=nodal_curves())
@settings(max_examples=500, deadline=None)
def test_forget_mark_matches_stabilization_loop(c):
    for label in c.mark_labels:
        try:
            contractions, want, _ = reference_forget_mark(c, label)
        except CurveError as exc:
            with pytest.raises(CurveError) as got:
                forget_mark(c, label)
            assert str(got.value) == str(exc)
            continue
        assert contractions <= 1
        got = forget_mark(c, label).curve
        assert is_stable(got).stable
        assert got == want


def _has_parallel_edge(c):
    links = [e for e in c.edges if e[0] != e[1]]
    return len(set(links)) < len(links)


def _has_long_cycle(c):
    # more distinct non-loop edges than a spanning tree: a cycle through
    # at least three vertices
    return len({e for e in c.edges if e[0] != e[1]}) > c.n_vertices - 1


@pytest.mark.parametrize(
    "feature",
    [
        lambda c: any(c.genus),
        lambda c: any(i == j for i, j in c.edges),
        _has_parallel_edge,
        _has_long_cycle,
    ],
    ids=["positive_genus", "self_loop", "parallel_edge", "long_cycle"],
)
def test_nodal_curves_draw_every_feature(feature):
    assert feature(find(nodal_curves(), feature))


def test_regular_node_two_component():
    c = two_component()
    verdict = is_regular_node(c, 0)
    assert verdict.status == "regular"
    assert verdict.witness == (4,)


def test_cycle_node_never_regular():
    # a node on a cycle survives every forgetful map: contracting cannot
    # reduce the first Betti number
    c = MarkedNodalCurve((0, 0), ((0, 1), (0, 1)), ((0, 1), (1, 2)))
    verdict = is_regular_node(c, 0)
    assert verdict.status == "not_regular"
    assert verdict.witness is None


def test_node_between_positive_genus_vertices_not_regular():
    # both sides stay stable under every forgetful map, so the node survives
    c = MarkedNodalCurve((1, 1), ((0, 1),), ((0, 1), (1, 2)))
    assert is_regular_node(c, 0).status == "not_regular"
    # whereas a rational tail on a genus-1 vertex does contract away
    tail = MarkedNodalCurve((1, 0), ((0, 1),), ((1, 1), (1, 2)))
    assert is_regular_node(tail, 0).status == "regular"


@given(c=nodal_curves())
@settings(max_examples=300, deadline=None)
def test_regular_node_matches_forgetful_search(c):
    for e in range(len(c.edges)):
        assert is_regular_node(c, e) == reference_is_regular_node(c, e)


def test_regular_node_decided_beyond_eight_marks():
    # a genus-1 vertex with a rational tail carrying 9 marks, and a genus-0
    # vertex with a loop: the tail node is regular, the loop is not
    c = MarkedNodalCurve(
        (1, 0, 0),
        ((0, 1), (0, 2), (2, 2)),
        tuple((1, lab) for lab in range(1, 10)) + ((2, 10),),
    )
    assert c.n_marks == 10 and c.arithmetic_genus == 2
    verdict = is_regular_node(c, 0)
    assert verdict.status == "regular"
    assert verdict.witness == tuple(range(1, 9))
    _, imgs = forget_many(c, verdict.witness)
    assert imgs[0][0] in ("mark", "regular")
    assert is_regular_node(c, 2).status == "not_regular"


def test_regular_node_needs_stable_curve():
    c = two_component(marks_left=(1,), marks_right=(2, 3, 4))
    with pytest.raises(CurveError, match="node regularity needs a stable curve"):
        is_regular_node(c, 0)


def forgets_back_to(ins, c):
    """Forgetting the new marks of ``ins`` gives back the genus, vertex
    numbering and legs of ``c`` exactly, and its edges up to order."""
    back = ins.curve
    for lab in ins.new_legs:
        back = forget_mark(back, lab).curve
    return (back.genus, sorted(back.edges), back.legs) == (c.genus, sorted(c.edges), c.legs)


def test_add_bubble_case1_round_trip():
    c = MarkedNodalCurve((0,), (), ((0, 1), (0, 2), (0, 3)))
    ins = add_bubble_component(c, 0, 1)
    assert ins.curve.n_vertices == 2
    assert ins.curve.genus[ins.new_vertex] == 0
    assert len(ins.new_legs) == 2 and ins.replaced_edge is None
    assert forgets_back_to(ins, c)


@given(c=nodal_curves())
@settings(max_examples=300, deadline=None)
def test_insertion_round_trip_returns_the_input(c):
    # case 1 at every vertex and case 2 at every node: forgetting the new
    # marks gives back the input's numbering, genus and legs exactly, and its
    # edges up to order (a merged node is appended last)
    sites = [(v, 1) for v in range(c.n_vertices)] + [(e, 2) for e in range(len(c.edges))]
    for site, case in sites:
        ins = add_bubble_component(c, site, case)
        assert is_stable(ins.curve).stable
        assert forgets_back_to(ins, c)


def test_add_bubble_case2_subdivides():
    c = two_component()
    ins = add_bubble_component(c, 0, 2)
    assert ins.replaced_edge == 0
    assert ins.curve.n_vertices == 3
    assert len(ins.curve.edges) == 2
    assert len(ins.new_legs) == 1
    # new vertex sits between the old endpoints
    touching = {e for e in ins.curve.edges if ins.new_vertex in e}
    assert len(touching) == 2


def test_add_bubble_rejects_unstable_input():
    c = MarkedNodalCurve((0,), (), ((0, 1), (0, 2)))
    with pytest.raises(CurveError, match="stable"):
        add_bubble_component(c, 0, 1)


def test_text_round_trip():
    c = MarkedNodalCurve((0, 1, 0), ((0, 1), (1, 2), (1, 1)), ((0, 1), (2, 2), (2, 3)))
    text = curve_to_text(c)
    back = curve_from_text(text)
    assert back == c
    assert curve_from_text(curve_to_text(back)) == back


def test_text_parser_rejects_garbage():
    with pytest.raises(CurveError):
        curve_from_text("v0 g=0 legs=1,2\ne 0 7\n")
    with pytest.raises(CurveError):
        curve_from_text("nonsense line\n")
    for text in (
        "v0 g=x legs=1,2,3\n",
        "v0 g=0 legs=1,b,3\n",
        "v0 g=1 legs=1\ne 0 one\n",
    ):
        with pytest.raises(CurveError, match="unparseable integer"):
            curve_from_text(text)
