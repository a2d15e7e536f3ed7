"""Tour of the dual-graph bookkeeping: stability, regular nodes, insertion.

A marked nodal curve is tracked as its dual graph: one vertex per
component with its genus, one edge per node, one leg per marked point.
A node is *regular* when some forgetful map sends it to a non-node; on
genus-zero curves forgetting down to three marks always works, while a
node sitting on a cycle survives every forgetful map.

Run:  python3 demos/dual_graph_walkthrough.py
"""

from bubbletree import (
    MarkedNodalCurve,
    add_bubble_component,
    curve_to_text,
    forget_mark,
    is_regular_node,
    is_stable,
)


def show(c: MarkedNodalCurve, title: str) -> None:
    rep = is_stable(c)
    print(f"\n{title} (genus {c.arithmetic_genus}, "
          f"stable: {rep.stable})")
    print(curve_to_text(c).rstrip())


def main() -> None:
    c = MarkedNodalCurve((0, 0), ((0, 1),), ((0, 1), (0, 2), (1, 3), (1, 4)))
    show(c, "two spheres joined at a node, marks 1,2 | 3,4")

    v = is_regular_node(c, 0)
    print(f"node 0 regular: {v.status}, witness: forget marks {v.witness}")
    res = forget_mark(c, 4)
    print("after forgetting mark 4 the right sphere destabilizes and is")
    print("contracted; the node lands on mark 3, which moves to the left sphere")
    show(res.curve, "stabilized image")

    ins = add_bubble_component(c, 0, 2)
    show(ins.curve, "bubble inserted at the node (subdivision)")
    print(f"new vertex v{ins.new_vertex} carries mark {ins.new_legs[0]}; "
          f"replaced edge {ins.replaced_edge} by edges {ins.new_edges}")
    for e in ins.new_edges:
        print(f"  new edge {e} regular: {is_regular_node(ins.curve, e).status}")
    back = ins.curve
    for lab in ins.new_legs:
        back = forget_mark(back, lab).curve
    # the merged node comes back last, so compare the edges sorted
    same = (back.genus, sorted(back.edges), back.legs) == (c.genus, sorted(c.edges), c.legs)
    print("forgetting the new mark returns the original curve:", same)
    if not same:
        raise SystemExit("insertion round trip failed")

    cyc = MarkedNodalCurve((0, 0), ((0, 1), (0, 1)), ((0, 1), (1, 2)))
    show(cyc, "two spheres joined at two nodes (a cycle)")
    print("node 0 regular:", is_regular_node(cyc, 0).status,
          "- contracting can never kill a cycle, so the node survives")


if __name__ == "__main__":
    main()
