"""Dual graphs of marked nodal curves: stability, forgetful maps, node
regularity, and bubble insertion.

A curve is a connected multigraph: vertices carry component genera, edges
are nodes (self-loops allowed), legs are marked points with distinct labels.
Arithmetic genus = sum of vertex genera + first Betti number of the graph.

Forgetting a mark removes its leg and then stabilizes: genus-0 vertices
with fewer than three special points are contracted one at a time, and the
induced map records where every node, mark, and generic component point of
the input lands (a node, a mark, or a regular point of the result).

A node is regular when forgetting some nonempty set of marks sends it to a
point that is not a node of the (stable) image.  On a stable curve this has
a closed form: the node is regular exactly when it is a bridge of the dual
graph with a side of arithmetic genus 0 (see ``is_regular_node``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CurveError

__all__ = [
    "MarkedNodalCurve",
    "StabilityReport",
    "PointImage",
    "ForgetResult",
    "RegularityVerdict",
    "BubbleInsertion",
    "is_stable",
    "forget_mark",
    "is_regular_node",
    "add_bubble_component",
    "curves_isomorphic",
    "curve_to_text",
    "curve_from_text",
]


def _reachable(
    edges: tuple[tuple[int, int], ...], start: int, skip: int | None = None
) -> set[int]:
    """Vertices joined to ``start`` by edges other than edge index ``skip``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for k, (i, j) in enumerate(edges):
            if k != skip and v in (i, j):
                w = j if i == v else i
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


@dataclass(frozen=True)
class MarkedNodalCurve:
    """Dual graph of a connected marked nodal curve.

    genus : per-vertex geometric genus
    edges : nodes as (i, j) vertex pairs, stored sorted, self-loops allowed
    legs : marked points as (vertex, label); labels are distinct ints
    """

    genus: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        nv = len(self.genus)
        if nv == 0:
            raise CurveError("curve needs at least one vertex")
        if any(g < 0 for g in self.genus):
            raise CurveError("negative vertex genus")
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "legs", tuple(tuple(l) for l in self.legs))
        for i, j in edges:
            if not (0 <= i < nv and 0 <= j < nv):
                raise CurveError(f"edge ({i},{j}) references missing vertex")
        labels = [lab for _, lab in self.legs]
        if len(labels) != len(set(labels)):
            raise CurveError("duplicate mark labels")
        for v, _ in self.legs:
            if not 0 <= v < nv:
                raise CurveError(f"leg on missing vertex {v}")
        if not self._connected():
            raise CurveError("dual graph is not connected")

    def _connected(self) -> bool:
        return len(_reachable(self.edges, 0)) == len(self.genus)

    @property
    def n_vertices(self) -> int:
        return len(self.genus)

    @property
    def n_marks(self) -> int:
        return len(self.legs)

    @property
    def betti(self) -> int:
        return len(self.edges) - self.n_vertices + 1

    @property
    def arithmetic_genus(self) -> int:
        return sum(self.genus) + self.betti

    @property
    def mark_labels(self) -> tuple[int, ...]:
        return tuple(sorted(lab for _, lab in self.legs))

    def valence(self, v: int) -> int:
        """Special points on vertex v: legs plus edge endpoints, loops twice."""
        val = sum(1 for u, _ in self.legs if u == v)
        for i, j in self.edges:
            val += (i == v) + (j == v)
        return val


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    global_ok: bool
    vertex_ok: tuple[bool, ...]


def is_stable(c: MarkedNodalCurve) -> StabilityReport:
    """2g - 2 + n > 0 globally and 2 genus(v) - 2 + valence(v) > 0 per vertex."""
    global_ok = 2 * c.arithmetic_genus - 2 + c.n_marks > 0
    vertex_ok = tuple(
        2 * c.genus[v] - 2 + c.valence(v) > 0 for v in range(c.n_vertices)
    )
    return StabilityReport(
        stable=global_ok and all(vertex_ok), global_ok=global_ok, vertex_ok=vertex_ok
    )


@dataclass(frozen=True)
class PointImage:
    """Where a point of the source curve lands in the target curve.

    kind : 'node' (index into edges), 'mark' (index into legs), or
        'regular' (a non-special point; index is the vertex)
    """

    kind: str
    index: int


@dataclass(frozen=True)
class ForgetResult:
    """Stable image of a forgetful map together with its point tracking.

    node_images : per input edge
    mark_images : per input leg; the forgotten mark's entry records where
        that point of the curve lands (typically a regular point)
    vertex_images : per input vertex, the image of its generic points
    """

    curve: MarkedNodalCurve
    forgotten: int
    node_images: tuple[PointImage, ...]
    mark_images: tuple[PointImage, ...]
    vertex_images: tuple[PointImage, ...]


def _rewrite(images: list[list[PointImage]], rule) -> None:
    for lst in images:
        for k, img in enumerate(lst):
            lst[k] = rule(img)


def _stabilize_once(
    genus: list[int],
    edges: list[tuple[int, int]],
    legs: list[tuple[int, int]],
    images: list[list[PointImage]],
) -> bool:
    """Contract one unstable genus-0 vertex in place; True if one was found.

    Every PointImage list in `images` is rewritten to stay expressed in the
    mutated curve's indices.  Contracting a component sends all its points,
    and the nodes joining it to the rest, to a single point of the target:
    the merged node (two-node case) or the attachment point (one-node case,
    which is the relocated mark when the component carried one).
    """
    nv = len(genus)

    def valence(v: int) -> int:
        val = sum(1 for u, _ in legs if u == v)
        for i, j in edges:
            val += (i == v) + (j == v)
        return val

    victim = None
    for v in range(nv):
        if genus[v] == 0 and valence(v) <= 2:
            victim = v
            break
    if victim is None:
        return False
    v = victim
    v_edges = [k for k, (i, j) in enumerate(edges) if i == v or j == v]
    v_legs = [k for k, (u, _) in enumerate(legs) if u == v]

    def shift_vertex(u: int) -> int:
        return u if u < v else u - 1

    def drop_vertex() -> None:
        del genus[v]
        for k, (i, j) in enumerate(edges):
            edges[k] = (shift_vertex(i), shift_vertex(j))
        for k, (u, lab) in enumerate(legs):
            legs[k] = (shift_vertex(u), lab)

    if len(v_edges) == 2 and not v_legs:
        e1, e2 = v_edges
        (i1, j1), (i2, j2) = edges[e1], edges[e2]
        a = j1 if i1 == v else i1
        b = j2 if i2 == v else i2
        for k in sorted(v_edges, reverse=True):
            del edges[k]
        drop_vertex()
        edges.append(tuple(sorted((shift_vertex(a), shift_vertex(b)))))
        new_pos = len(edges) - 1

        def shift_edge(k: int) -> int:
            return k - sum(1 for r in v_edges if r < k)

        def rule(img: PointImage) -> PointImage:
            if img.kind == "node":
                if img.index in (e1, e2):
                    return PointImage("node", new_pos)
                return PointImage("node", shift_edge(img.index))
            if img.kind == "regular":
                if img.index == v:
                    return PointImage("node", new_pos)
                return PointImage("regular", shift_vertex(img.index))
            return img

        _rewrite(images, rule)
        return True

    if len(v_edges) == 1 and len(v_legs) <= 1:
        e = v_edges[0]
        i, j = edges[e]
        if i == j:
            raise CurveError("stratum empty: cannot contract a self-loop component")
        target = j if i == v else i
        if v_legs:
            k0 = v_legs[0]
            legs[k0] = (target, legs[k0][1])
            attach = PointImage("mark", k0)
        else:
            attach = PointImage("regular", shift_vertex(target))
        del edges[e]
        drop_vertex()

        def rule(img: PointImage) -> PointImage:
            if img.kind == "node":
                if img.index == e:
                    return attach
                return PointImage("node", img.index - (1 if img.index > e else 0))
            if img.kind == "regular":
                if img.index == v:
                    return attach
                return PointImage("regular", shift_vertex(img.index))
            return img

        _rewrite(images, rule)
        return True

    raise CurveError(
        f"stratum empty: unstable vertex {v} with valence {valence(v)} "
        "cannot be contracted"
    )


def forget_mark(c: MarkedNodalCurve, label: int) -> ForgetResult:
    """Remove the labeled mark and stabilize, tracking every point's image.

    Raises CurveError("stratum empty ...") when the result would be globally
    unstable (2g - 2 + (n-1) <= 0).
    """
    if 2 * c.arithmetic_genus - 2 + (c.n_marks - 1) <= 0:
        raise CurveError(
            f"stratum empty: forgetting mark {label} leaves 2g-2+n = "
            f"{2 * c.arithmetic_genus - 2 + c.n_marks - 1} <= 0"
        )
    genus = list(c.genus)
    edges = [tuple(e) for e in c.edges]
    legs = [tuple(l) for l in c.legs]
    drop = next(k for k, (_, lab) in enumerate(legs) if lab == label)
    host = legs[drop][0]
    del legs[drop]

    edge_img = [PointImage("node", k) for k in range(len(edges))]
    vertex_img = [PointImage("regular", u) for u in range(len(genus))]
    # the forgotten mark's point is an ordinary point of its host from here on
    leg_img = [
        PointImage("regular", host)
        if k == drop
        else PointImage("mark", k - (1 if k > drop else 0))
        for k in range(len(c.legs))
    ]

    images = [edge_img, leg_img, vertex_img]
    while _stabilize_once(genus, edges, legs, images):
        pass

    result = MarkedNodalCurve(tuple(genus), tuple(edges), tuple(legs))
    if not is_stable(result).stable:
        raise CurveError("stratum empty: stabilization did not reach a stable curve")
    return ForgetResult(
        curve=result,
        forgotten=label,
        node_images=tuple(edge_img),
        mark_images=tuple(leg_img),
        vertex_images=tuple(vertex_img),
    )


@dataclass(frozen=True)
class RegularityVerdict:
    status: str  # 'regular' | 'not_regular'
    witness: tuple[int, ...] | None  # mark labels whose forgetting is the witness


def is_regular_node(c: MarkedNodalCurve, edge_index: int) -> RegularityVerdict:
    """Is the node sent to a non-node by forgetting some nonempty mark set?

    On a stable curve the answer is closed form.  Forgetting marks and
    stabilizing only ever contracts genus-0 components left with fewer than
    three special points, so a piece of positive arithmetic genus is never
    contracted away and contraction never lowers the first Betti number.
    Hence the node survives every forgetful map, and is not regular, when

    * it is a self-loop, or lies on a cycle (its ends stay connected once it
      is removed): the cycle survives, and with it the node;
    * both sides of the cut it makes have positive arithmetic genus: neither
      side can be contracted, so the node still joins two components.

    Otherwise it is a bridge with a genus-0 side, a stable tree of genus-0
    components carrying at least two marks.  That side keeps at least three
    special points, and the node stays a node, until all but one of its marks
    are forgotten; then it contracts onto the other side and the node lands
    on the remaining mark.  The witness is the lexicographically first
    smallest such set: the genus-0 side's labels without its largest.  On a
    genus-0 curve every node is regular and the witness is every label after
    the third, which leaves an irreducible curve with three marks.
    """
    if not 0 <= edge_index < len(c.edges):
        raise CurveError(f"no node with index {edge_index}")
    if not is_stable(c).stable:
        raise CurveError("node regularity needs a stable curve")
    if c.arithmetic_genus == 0:
        return RegularityVerdict(status="regular", witness=c.mark_labels[3:])
    i, j = c.edges[edge_index]
    side = _reachable(c.edges, i, skip=edge_index)
    if j in side:
        return RegularityVerdict(status="not_regular", witness=None)
    inner = sum(1 for a, b in c.edges if a in side and b in side)
    side_genus = sum(c.genus[v] for v in side) + inner - len(side) + 1
    if side_genus == 0:
        tail = side
    elif side_genus == c.arithmetic_genus:
        tail = set(range(c.n_vertices)) - side
    else:
        return RegularityVerdict(status="not_regular", witness=None)
    labels = sorted(lab for v, lab in c.legs if v in tail)
    return RegularityVerdict(status="regular", witness=tuple(labels[:-1]))


@dataclass(frozen=True)
class BubbleInsertion:
    curve: MarkedNodalCurve
    new_vertex: int
    new_edges: tuple[int, ...]
    new_legs: tuple[int, ...]  # labels
    replaced_edge: int | None  # subdivision only: index of the split node


def add_bubble_component(c: MarkedNodalCurve, site: int, case: int) -> BubbleInsertion:
    """Attach a bubble component to a stable curve.

    case 1 : ``site`` is a vertex; add a genus-0 vertex joined by one new
        node and carrying two new marks (the two distinguished points of a
        bubble at a smooth point).
    case 2 : ``site`` is an edge; subdivide that node by a genus-0 vertex
        carrying one new mark (a bubble forming at a node).

    Forgetting the new marks must return a curve isomorphic to the input;
    this round trip is asserted.
    """
    if not is_stable(c).stable:
        raise CurveError("bubble insertion requires a stable curve")
    next_label = max(c.mark_labels, default=0) + 1
    genus = list(c.genus)
    edges = [tuple(e) for e in c.edges]
    legs = [tuple(l) for l in c.legs]
    if case == 1:
        if not 0 <= site < c.n_vertices:
            raise CurveError(f"case 1 site must be a vertex, got {site}")
        new_v = len(genus)
        genus.append(0)
        edges.append((site, new_v))
        new_legs = (next_label, next_label + 1)
        legs.extend((new_v, lab) for lab in new_legs)
        new_edges = (len(edges) - 1,)
        replaced = None
    elif case == 2:
        if not 0 <= site < len(c.edges):
            raise CurveError(f"case 2 site must be an edge, got {site}")
        i, j = edges[site]
        new_v = len(genus)
        genus.append(0)
        del edges[site]
        edges.append(tuple(sorted((i, new_v))))
        edges.append(tuple(sorted((j, new_v))))
        new_legs = (next_label,)
        legs.append((new_v, next_label))
        new_edges = (len(edges) - 2, len(edges) - 1)
        replaced = site
    else:
        raise CurveError(f"case must be 1 or 2, got {case}")
    out = MarkedNodalCurve(tuple(genus), tuple(edges), tuple(legs))
    if not is_stable(out).stable:
        raise CurveError("bubble insertion produced an unstable curve")
    back = out
    for lab in new_legs:
        back = forget_mark(back, lab).curve
    if not curves_isomorphic(back, c):
        raise CurveError("bubble insertion round trip failed")
    return BubbleInsertion(
        curve=out,
        new_vertex=new_v,
        new_edges=new_edges,
        new_legs=new_legs,
        replaced_edge=replaced,
    )


# ---------------------------------------------------------------------------
# isomorphism and serialization


def _vertex_signature(c: MarkedNodalCurve, v: int) -> tuple:
    loops = sum(1 for i, j in c.edges if i == j == v)
    deg = sum((i == v) + (j == v) for i, j in c.edges)
    labs = tuple(sorted(lab for u, lab in c.legs if u == v))
    return (c.genus[v], deg, loops, labs)


def curves_isomorphic(c1: MarkedNodalCurve, c2: MarkedNodalCurve) -> bool:
    """Mark-label-preserving multigraph isomorphism.

    Backtracking over vertex bijections, pruned by (genus, degree, loops,
    labels) signatures; exact, intended for the small graphs arising here.
    """
    if (
        len(c1.genus) != len(c2.genus)
        or len(c1.edges) != len(c2.edges)
        or c1.mark_labels != c2.mark_labels
    ):
        return False
    n = len(c1.genus)
    sig1 = [_vertex_signature(c1, v) for v in range(n)]
    sig2 = [_vertex_signature(c2, v) for v in range(n)]
    if sorted(sig1) != sorted(sig2):
        return False
    target_edges = sorted(tuple(e) for e in c2.edges)
    candidates = [[u for u in range(n) if sig2[u] == sig1[v]] for v in range(n)]

    def backtrack(v: int, perm: list[int], used: set[int]) -> bool:
        if v == n:
            mapped = sorted(tuple(sorted((perm[i], perm[j]))) for i, j in c1.edges)
            return mapped == target_edges
        for u in candidates[v]:
            if u in used:
                continue
            perm.append(u)
            used.add(u)
            if backtrack(v + 1, perm, used):
                return True
            perm.pop()
            used.remove(u)
        return False

    return backtrack(0, [], set())


def curve_to_text(c: MarkedNodalCurve) -> str:
    """One line per vertex 'v<i> g=<genus> legs=<labels>', one per edge 'e <i> <j>'."""
    lines = []
    for v in range(c.n_vertices):
        labs = sorted(lab for u, lab in c.legs if u == v)
        lines.append(f"v{v} g={c.genus[v]} legs={','.join(str(x) for x in labs)}")
    for i, j in c.edges:
        lines.append(f"e {i} {j}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise CurveError(f"unparseable integer {token!r} in line {line!r}") from exc


def curve_from_text(text: str) -> MarkedNodalCurve:
    genus: dict[int, int] = {}
    legs: list[tuple[int, int]] = []
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("v"):
            head, *rest = line.split()
            v = _parse_int(head[1:], line)
            g = None
            labs: list[int] = []
            for tok in rest:
                if tok.startswith("g="):
                    g = _parse_int(tok[2:], line)
                elif tok.startswith("legs="):
                    labs = [_parse_int(x, line) for x in tok[5:].split(",") if x]
                else:
                    raise CurveError(f"unparseable vertex token {tok!r}")
            if g is None:
                raise CurveError(f"vertex line missing genus: {line!r}")
            if v in genus:
                raise CurveError(f"duplicate vertex index {v}")
            genus[v] = g
            legs.extend((v, lab) for lab in labs)
        elif line.startswith("e"):
            parts = line.split()
            if len(parts) != 3:
                raise CurveError(f"unparseable edge line {line!r}")
            edges.append((_parse_int(parts[1], line), _parse_int(parts[2], line)))
        else:
            raise CurveError(f"unparseable line {line!r}")
    nv = max(genus) + 1 if genus else 0
    if sorted(genus) != list(range(nv)):
        raise CurveError("vertex indices must be 0..n-1")
    return MarkedNodalCurve(
        tuple(genus[v] for v in range(nv)), tuple(edges), tuple(legs)
    )
