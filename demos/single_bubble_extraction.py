"""Walk through one full extraction on the single-bubble family.

The family is z -> k z on the unit chart disk: as k grows the energy
density piles onto a shrinking ball around the origin while the total over
the chart tends to the sphere area 4 pi.  The driver detects the site,
solves for the cut scale, balances the center, inserts a bubble component
into the dual graph, and re-checks the energy identity by an independent
route: the sphere energy 4 pi less the exact contour energy
(``families.contour_energy``) of the last member's cap about the site.

Run:  python3 demos/single_bubble_extraction.py
"""

import math

from bubbletree import FamilySpec, curve_to_text, extract_bubble_tree, make_family

FOUR_PI = 4.0 * math.pi


def main() -> None:
    spec = FamilySpec(kind="bubble1", schedule=(316.0, 3162.0, 10000.0))
    print("generating family:", spec.kind, "with k =", spec.schedule)
    family = make_family(spec)
    for mem in family.members:
        print(f"  member {mem.label}: chart energy {mem.measure.mass:.6f}")

    tree = extract_bubble_tree(family)
    print("\nlimit energy:", f"{tree.limit_energy:.6f}", f"(4 pi = {FOUR_PI:.6f})")
    print("residual-energy trace:", [round(x, 6) for x in tree.re_trace])

    for comp in tree.components:
        spot = (
            f" at {comp.attachment:.2e}" if comp.attachment is not None else ""
        )
        print(f"  component v{comp.vertex} [{comp.kind}]: "
              f"energy {comp.energy:.6f}{spot}")

    neck = tree.necks[0]
    print(f"\nneck between base and bubble: annulus excess "
          f"{neck.annulus_excess:.3e} over {len(neck.members)} members")
    print("markings (level, case, cut radius |r - q|):")
    for level_member, mk in zip(neck.members, neck.markings):
        print(f"  member {level_member}: level {mk.level}, case {mk.case}, "
              f"{abs(mk.r - mk.q):.3e}")

    print("\ndual graph after insertion:")
    print(curve_to_text(tree.curve))
    print(f"energy identity residual: {tree.identity_residual:.3e} "
          f"(asserted, connected image: {tree.connected})")


if __name__ == "__main__":
    main()
