"""Compare a conformal plumbing neck with a non-conformal flat-torus neck.

Every neck map on the cylinder [-T, T] x S^1 splits its energy as

    E = 2 T alpha + integral of Theta,

with alpha constant along the cylinder.  Holomorphic necks are conformal,
so alpha = 0 and the energy lives entirely in Theta, which decays towards
the middle of the neck; the zero-neck test then passes at small delta.
Linear torus maps (t, theta) -> (a t, b theta) have alpha = pi (a^2 - b^2):
for (a, b) = (1, 0) the prediction 2 T alpha reproduces the neck energy
exactly and the zero-neck test fails at every delta.

Run:  python3 demos/neck_diagnostics_tour.py
"""

import math

from bubbletree import FamilySpec, diagnostics, make_family, zero_neck_test

DELTAS = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002]


def describe(family, title: str) -> None:
    print(f"\n{title}")
    print(f"{'pinch':>10} {'T':>8} {'alpha':>12} {'energy':>10} {'int Theta':>10}")
    for mem in family.members:
        d = diagnostics(mem.field)
        print(
            f"{mem.parameter:>10.1e} {d.half_length:>8.3f} {d.alpha:>12.3e} "
            f"{d.energy:>10.6f} {d.theta_integral:>10.6f}"
        )


def verdict_table(family, title: str) -> None:
    rep = zero_neck_test([m.field for m in family.members], 0.01, DELTAS)
    print(f"\n{title}: zero-neck {'PASS' if rep.passed else 'FAIL'}"
          + (f" at delta {rep.chosen_delta:g}" if rep.passed else ""))
    print(f"{'delta':>8} {'max energy':>12} {'diam bound':>10} {'2T|alpha|':>12}")
    for row in rep.rows:
        print(
            f"{row.delta:>8g} {row.max_energy:>12.3e} {row.max_diameter:>10.3e} "
            f"{row.predicted_energy:>12.3e}"
        )


def main() -> None:
    plumbing = make_family(
        FamilySpec(kind="plumbing", schedule=(1e-3, 1e-5, 1e-7, 1e-9), delta=0.5)
    )
    describe(plumbing, "holomorphic plumbing neck x -> x + t/x (conformal)")
    verdict_table(plumbing, "plumbing")

    torus = make_family(
        FamilySpec(
            kind="torus_linear",
            schedule=(1e-2, 1e-4, 1e-6, 1e-8),
            delta=0.5,
            slopes=(1.0, 0.0),
        )
    )
    describe(torus, "flat-torus neck (t, theta) -> (t, 0), alpha = pi")
    print(f"\nclosed form: alpha = pi = {math.pi:.6f}; "
          "energy = 2 T alpha exactly (Theta = 0)")
    verdict_table(torus, "torus (1,0)")


if __name__ == "__main__":
    main()
