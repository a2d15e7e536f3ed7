"""Dual graphs of marked nodal curves: stability, forgetful maps, node
regularity, and bubble insertion.

A curve is a connected multigraph: vertices carry component genera, edges
are nodes (self-loops allowed), legs are marked points with distinct labels.
Arithmetic genus = sum of vertex genera + first Betti number of the graph.

Forgetting a mark of a stable curve removes its leg and then stabilizes,
which contracts at most one component: the genus-0 host of the mark, when it
is left with two special points (see ``forget_mark``).  Forgetting the new
marks of an inserted bubble returns the input (see ``add_bubble_component``).

A node is regular when forgetting some nonempty set of marks sends it to a
point that is not a node of the (stable) image.  On a stable curve this has
a closed form: the node is regular exactly when it is a bridge of the dual
graph with a side of arithmetic genus 0 (see ``is_regular_node``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CurveError

__all__ = [
    "MarkedNodalCurve",
    "StabilityReport",
    "ForgetResult",
    "RegularityVerdict",
    "BubbleInsertion",
    "is_stable",
    "forget_mark",
    "is_regular_node",
    "add_bubble_component",
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

    @cached_property
    def valences(self) -> tuple[int, ...]:
        """Special points per vertex: legs plus edge endpoints, loops twice."""
        val = [0] * len(self.genus)
        for v, _ in self.legs:
            val[v] += 1
        for i, j in self.edges:
            val[i] += 1
            val[j] += 1
        return tuple(val)

    def valence(self, v: int) -> int:
        return self.valences[v]


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    global_ok: bool
    vertex_ok: tuple[bool, ...]


def is_stable(c: MarkedNodalCurve) -> StabilityReport:
    """2g - 2 + n > 0 globally and 2 genus(v) - 2 + valence(v) > 0 per vertex."""
    global_ok = 2 * c.arithmetic_genus - 2 + c.n_marks > 0
    vertex_ok = tuple(2 * g - 2 + val > 0 for g, val in zip(c.genus, c.valences))
    return StabilityReport(
        stable=global_ok and all(vertex_ok), global_ok=global_ok, vertex_ok=vertex_ok
    )


@dataclass(frozen=True)
class ForgetResult:
    """Stable image of a forgetful map."""

    curve: MarkedNodalCurve


def forget_mark(c: MarkedNodalCurve, label: int) -> ForgetResult:
    """Remove the labeled mark from a stable curve and stabilize.

    Forgetting one mark contracts at most one component (Knudsen, *Math.
    Scand.* 52 (1983)).  Every vertex but the mark's host keeps its special
    points, so only the host can become unstable, and only when it has genus
    0 and exactly three special points.  It then keeps two, and is contracted
    to a single point:

    * two nodes: they merge into one node joining its neighbours, appended
      last (a self-loop when both nodes lead to the same neighbour);
    * one node and one mark: the mark moves to the neighbour.

    Two marks, or a self-loop, would make the host the whole curve, and the
    global refusal below catches both.  The image is stable without a check:
    a contraction removes one vertex and one node, so the arithmetic genus
    stays; no other vertex changes valence; and a kept host, of positive
    genus or valence at least 4, stays stable unless it has genus 1 and the
    mark was its only special point, when it is the whole curve and refused.

    Raises CurveError on an unstable input or an unknown label, and
    CurveError("stratum empty ...") when the result would be globally
    unstable (2g - 2 + (n-1) <= 0).
    """
    if not is_stable(c).stable:
        raise CurveError("forgetting a mark needs a stable curve")
    drop = next((k for k, (_, lab) in enumerate(c.legs) if lab == label), None)
    if drop is None:
        raise CurveError(f"no mark with label {label}")
    if 2 * c.arithmetic_genus - 2 + (c.n_marks - 1) <= 0:
        raise CurveError(
            f"stratum empty: forgetting mark {label} leaves 2g-2+n = "
            f"{2 * c.arithmetic_genus - 2 + c.n_marks - 1} <= 0"
        )
    host = c.legs[drop][0]
    genus, edges = c.genus, c.edges
    legs = c.legs[:drop] + c.legs[drop + 1 :]
    if genus[host] == 0 and c.valences[host] == 3:

        def shift(u: int) -> int:
            return u - (u > host)

        ends = [j if i == host else i for i, j in edges if host in (i, j)]
        edges = tuple(e for e in edges if host not in e)
        if len(ends) == 2:
            edges += (tuple(sorted(ends)),)
        else:
            k0 = next(k for k, (u, _) in enumerate(legs) if u == host)
            legs = legs[:k0] + ((ends[0], legs[k0][1]),) + legs[k0 + 1 :]
        edges = tuple((shift(i), shift(j)) for i, j in edges)
        legs = tuple((shift(u), lab) for u, lab in legs)
        genus = genus[:host] + genus[host + 1 :]
    return ForgetResult(curve=MarkedNodalCurve(genus, edges, legs))


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

    Forgetting the new marks (``forget_mark``) returns the input, so the
    round trip needs no check.  The new vertex is last, has genus 0 and
    exactly three special points, so forgetting its first new mark
    contracts it:

    * case 1: its other mark moves onto ``site``.  That vertex is stable in
      the input, so it has positive genus or, with the moved mark, valence
      at least 4, and forgetting the moved mark contracts nothing;
    * case 2: its two nodes merge back into the node ``site``, appended last.

    Either way the input comes back with the same vertex numbering, genus
    and legs, and the same edges up to their order.

    The image is stable without a check: the new vertex has genus 0 and
    three special points, each old vertex keeps its valence or (case 1,
    ``site``) gains one, and the genus stays while the marks grow.
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
    return BubbleInsertion(
        curve=MarkedNodalCurve(tuple(genus), tuple(edges), tuple(legs)),
        new_vertex=new_v,
        new_edges=new_edges,
        new_legs=new_legs,
        replaced_edge=replaced,
    )


# ---------------------------------------------------------------------------
# serialization


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
