"""Residual-energy induction: extract a bubble tree from a family.

One loop runs the induction for both kinds of chart.  A chart setup
(``_smooth_chart`` for rational-map families, ``_nodal_chart`` for neck
fields) detects energy-concentration sites against the limit measure and
returns the opening ledger, the queue of sites to extract and a per-site
marker (renormalizing smooth sites, cut-radius-solving nodal ones).  The
loop marks one site per iteration, inserts the bubble into the dual graph,
and re-checks that the residual energy

    RE = limit_energy - accounted_energy - l*eps_bar - n*eps_bar/2

drops by at least eps_bar/2 (minus a small tolerance) each time; l and n
count the smooth and regular-nodal sites not yet extracted, and the loop,
the ledger's one owner, reads each queued site's hold off its ``kind`` (a
chart queues one kind today).  No iteration cap is needed: a smooth site is
queued with mass at least 2*eps_bar, and the smooth route check bounds the
queued masses by the exact energies of disjoint caps, at most 4 pi degree =
limit_energy in all (``tests/test_acceptance.py`` asserts the count); a nodal
queue holds at most one site, as detection snaps nodal candidates to the
origin.  Nodal sites that fail the regularity classification are frozen into
the singular set and excluded from the accounting; the energy identity is
then not asserted.

The limit energy of a rational family is 4 pi degree, the energy of a
degree-d holomorphic map of the sphere, so no whole-sphere integral is
taken; that of a neck family is the last member's cylinder energy.  Base
energy is always computed by an independent route (the limit energy less the
exact contour energy of the last member's caps about the sites for rational
maps, cylinder diagnostics for neck fields), never from the same particle
ball masses that produce the site masses, so the identity residual is a
genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .curve import BubbleInsertion, MarkedNodalCurve, add_bubble_component, is_regular_node
from .errors import DriverError, SubsequenceError
from .families import Family, contour_energy
from .measure import (
    ConcentrationSite,
    ScaleLadder,
    ball_masses,
    detect_concentrations,
    mass_in,
    restrict,
)
from .neck import (
    NeckDiagnostics,
    ZeroNeckReport,
    build_nodal_pushforward,
    collar_diagnostics,
    diagnostics,
    zero_neck_test,
)
from .renorm import mark_nodal_bubble, mark_smooth_bubble

__all__ = [
    "ExtractionConfig",
    "TreeComponent",
    "NeckRecord",
    "SingularSite",
    "BubbleTree",
    "extract_bubble_tree",
]

_ALPHA_TOL = 1e-3  # nodal regularity: |alpha| <= _ALPHA_TOL * (1 + energy)


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs of one extraction run.

    Each chart builds its scale ladder ``ScaleLadder(radius, eps_bar, depth)``
    from its own radius: the chart disk of a smooth family's measures, the
    collar radius delta of a neck family's fields.  So an inadmissible ladder
    (depth < 6, say) refuses the extraction with ``ScaleLadder``'s
    ``LadderError``.  Smooth sites are marked on the measure within half the
    chart radius of the site, and each extraction step must lower the
    residual energy by at least eps_bar/2 - step_tol.  The zero-neck
    schedule and tolerance are refused, by ``errors.neck_schedule``, when a
    nodal chart runs the zero-neck test on them.
    """

    eps_bar: float = 0.2
    depth: int = 6
    neck_deltas: tuple[float, ...] = ()
    neck_eps: float = 0.01

    @property
    def step_tol(self) -> float:
        return self.eps_bar / 20.0


@dataclass(frozen=True)
class TreeComponent:
    vertex: int
    kind: str  # "base" | "bubble"
    energy: float
    attachment: complex | None = None
    site_kind: str | None = None  # "smooth" | "nodal"
    marks: tuple[int, ...] = ()


@dataclass(frozen=True)
class NeckRecord:
    """Neck bookkeeping between two tree components.

    Smooth sites carry the measured annulus excess between the cut circle
    and the working scale; nodal extractions carry the thinness ratios of
    the markings; plain nodes carry a zero-neck report when a schedule was
    supplied.
    """

    kind: str  # "smooth" | "nodal" | "node"
    edges: tuple[int, ...]
    site: complex | None = None
    annulus_excess: float | None = None
    thinness_ratios: tuple[float, ...] = ()
    alpha: float | None = None
    zero_neck: ZeroNeckReport | None = None
    note: str = ""
    markings: tuple = ()
    members: tuple[int, ...] = ()


@dataclass(frozen=True)
class SingularSite:
    location: complex
    mass: float
    reason: str


@dataclass(frozen=True)
class BubbleTree:
    curve: MarkedNodalCurve
    components: tuple[TreeComponent, ...]
    necks: tuple[NeckRecord, ...]
    re_trace: tuple[float, ...]
    eps_bar: float
    step_tol: float
    limit_energy: float
    identity_residual: float | None
    identity_note: str
    singular: tuple[SingularSite, ...]
    connected: bool | None
    notes: tuple[str, ...] = ()
    # diagnostics of the last member's whole neck field; None on smooth charts
    last_neck: NeckDiagnostics | None = None

    def __post_init__(self) -> None:
        if not self.re_trace:
            raise DriverError("empty residual-energy trace")
        step = self.eps_bar / 2.0 - self.step_tol
        for a, b in zip(self.re_trace, self.re_trace[1:]):
            if not a - b >= step - 1e-12:
                raise DriverError(
                    f"residual energy failed to decrease by {step:.6g}: "
                    f"trace {tuple(round(x, 9) for x in self.re_trace)}"
                )
        kinds = [c.kind for c in self.components]
        if kinds.count("base") != 1 or kinds[0] != "base":
            raise DriverError("tree must start with exactly one base component")


# the node that a family's neck fields sample is edge 0 of its curve
_NODE_EDGE = 0


# (curve, site) -> (insertion, attachment point, neck record)
_Marker = Callable[
    [MarkedNodalCurve, ConcentrationSite], tuple[BubbleInsertion, complex, NeckRecord]
]


@dataclass(frozen=True)
class _Chart:
    """Opening state of the induction on one chart, and how to mark a site;
    the loop reads what each queued site holds back off its ``kind``."""

    limit_energy: float
    base_energy: float
    queue: tuple[ConcentrationSite, ...]
    singular: tuple[SingularSite, ...]
    necks: tuple[NeckRecord, ...]
    notes: tuple[str, ...]
    mark: _Marker
    last_neck: NeckDiagnostics | None = None


def _smooth_chart(family: Family, config: ExtractionConfig) -> _Chart:
    eps_bar = config.eps_bar
    mus = [m.measure for m in family.members]
    chart = mus[-1].chart_radius
    ladder = ScaleLadder(chart, eps_bar, config.depth)
    mu_limit = family.limit_measure
    sites = detect_concentrations(mus, mu_limit, ladder, chart_kind="smooth")
    last = family.members[-1]

    # a rational map of degree d covers the sphere d times: energy 4 pi d
    limit_energy = 4.0 * math.pi * last.rational.degree
    delta_k = ladder.finest_scale
    # independent base route: the sphere energy less the contour energy of
    # the last member's caps about the sites (not the particle masses the
    # sites came from)
    caps = [contour_energy(last.rational, delta_k, s.location) for s in sites]
    base_energy = limit_energy - sum(caps)

    queue = tuple(s for s in sites if s.mass >= 2.0 * eps_bar)
    skipped = [(s, c) for s, c in zip(sites, caps) if s.mass < 2.0 * eps_bar]
    ledger = limit_energy - base_energy
    site_route = sum(s.mass for s in queue)
    # the energy the caps take and the queued masses differ by the limit
    # measure inside the extracted balls plus the cap energy of any site left
    # below the extraction threshold; anything beyond tolerance is a real bug
    bias = sum(mass_in(mu_limit, s.location, delta_k) for s in queue)
    bias += sum(c for _, c in skipped)
    if abs(ledger - site_route - bias) > 1e-3 * (1.0 + limit_energy):
        raise DriverError(
            f"residual-energy routes disagree: caps {ledger:.9g}, "
            f"site sum {site_route:.9g}, expected bias {bias:.9g}"
        )

    radius = chart / 2.0

    def mark(curve, site):
        members = [restrict(mus[idx], site.location, radius) for idx in site.subsequence]
        markings = mark_smooth_bubble(members, ladder)
        ins = add_bubble_component(curve, site=0, case=1)
        mk = markings[-1]
        attach = site.location + mk.q
        outer, inner = ball_masses(
            members[-1], mk.q, (ladder.delta[mk.level], abs(mk.r - mk.q))
        )
        neck = NeckRecord(
            kind="smooth",
            edges=ins.new_edges,
            site=attach,
            annulus_excess=float(outer - inner),
            note="annulus mass between the cut circle and the working scale",
            markings=tuple(markings),
            members=site.subsequence,
        )
        return ins, attach, neck

    notes = tuple(
        f"site below 2*eps_bar left unextracted at {s.location:.4g}" for s, _ in skipped
    )
    return _Chart(limit_energy, base_energy, queue, (), (), notes, mark)


def _nodal_chart(family: Family, config: ExtractionConfig) -> _Chart:
    eps_bar = config.eps_bar
    fields = [m.field for m in family.members]
    mus = [build_nodal_pushforward(f) for f in fields]
    ladder = ScaleLadder(mus[-1].chart_radius, eps_bar, config.depth)
    mu_limit = family.limit_measure
    last_field = fields[-1]
    diag_last = diagnostics(last_field)
    limit_energy = diag_last.energy

    curve = family.curve
    verdict = is_regular_node(curve, _NODE_EDGE)
    singular: list[SingularSite] = []
    sites = ()
    try:
        sites = detect_concentrations(mus, mu_limit, ladder, chart_kind="nodal")
    except SubsequenceError as exc:
        # energy at a non-regular node that does not stabilize across scales
        # is the neck carrying escaping energy; at a regular node it is a
        # detection failure, refused as on a smooth chart
        if verdict.status == "regular":
            raise
        hot = mass_in(mus[-1], 0.0, float(ladder.delta[1])) - mass_in(
            mu_limit, 0.0, float(ladder.delta[1])
        )
        singular.append(SingularSite(0j, float(hot), str(exc)))
    if any(s.kind == "smooth" for s in sites):
        raise DriverError("smooth sites on a nodal chart are not supported")

    zero_neck = None
    if config.neck_deltas:
        zero_neck = zero_neck_test(fields, config.neck_eps, list(config.neck_deltas))

    # nodal sites are extracted at a regular node with a balanced neck;
    # otherwise they are frozen into the singular set, with what failed
    why = []
    if verdict.status != "regular":
        why.append(f"dual-graph node classification: {verdict.status}")
    if not abs(diag_last.alpha) <= _ALPHA_TOL * (1.0 + limit_energy):
        why.append(f"|alpha| = {abs(diag_last.alpha):.3g} too large")
    if why:
        reason = "; ".join(why)
        singular += [SingularSite(s.location, s.mass, reason) for s in sites]
    queue = () if why else sites

    delta_k = ladder.finest_scale
    # independent base route: collar energy outside the finest-scale inner
    # cylinder, from GL diagnostics rather than the pushforward particles
    base_energy = limit_energy
    if queue:
        base_energy -= collar_diagnostics(last_field, delta_k).energy
    # mass frozen into the singular set is identified with no component
    base_energy = max(0.0, base_energy - sum(s.mass for s in singular))

    ledger = limit_energy - base_energy
    site_route = sum(s.mass for s in queue)
    if queue and abs(ledger - site_route) > 0.05 + 1e-3 * limit_energy:
        raise DriverError(
            f"residual-energy routes disagree: collar {ledger:.9g} vs site sum "
            f"{site_route:.9g}"
        )

    necks = ()
    if zero_neck is not None:
        necks = (
            NeckRecord(
                kind="node",
                edges=(_NODE_EDGE,),
                alpha=diag_last.alpha,
                zero_neck=zero_neck,
                note="zero-neck verdict for the chart node",
            ),
        )

    def mark(curve, site):
        members = site.subsequence
        markings = mark_nodal_bubble(
            [mus[i] for i in members], [fields[i].pinch for i in members], ladder
        )
        ins = add_bubble_component(curve, site=_NODE_EDGE, case=2)
        neck = NeckRecord(
            kind="nodal",
            edges=ins.new_edges,
            site=0j,
            thinness_ratios=tuple(m.neck_ratio for m in markings),
            alpha=diag_last.alpha,
            note="bubble extracted at the node; thinness ratios decrease",
            markings=tuple(markings),
            members=members,
        )
        return ins, 0j, neck

    # a finished run has extracted every queued site
    notes = ("child nodal sites, if any, deferred to the next iteration",) * len(queue)
    return _Chart(
        limit_energy, base_energy, queue, tuple(singular), necks, notes, mark, diag_last
    )


def _identity_from_parts(
    limit_energy: float,
    components,
    necks,
    singular,
) -> tuple[float, str, bool | None]:
    """Identity residual of the component energies against the limit energy,
    the note that withholds the identity, and ``connected``.

    ``connected`` is the conjunction of the zero-neck verdicts (True when
    there are none).  Until the extracted necks carry their own energy and
    diameter tables (ROADMAP, "Energy identity and connectedness checked
    against the limits"), that is all it rests on: a smooth neck's annulus
    excess is a finite sum of weights, and a nodal neck's decreasing thinness
    ratios are enforced by ``mark_nodal_bubble`` before the neck exists.
    """
    total = sum(c.energy for c in components)
    residual = abs(limit_energy - total) / limit_energy if limit_energy > 0 else 0.0
    if singular:
        return residual, "identity not asserted: non-regular nodal points present", None
    connected = all(n.zero_neck.passed for n in necks if n.zero_neck is not None)
    return residual, "", connected


def extract_bubble_tree(family: Family, config: ExtractionConfig | None = None) -> BubbleTree:
    """Run the induction on a generated family and return its bubble tree."""
    config = config or ExtractionConfig()
    if not family.members:
        raise DriverError("family has no members")
    if all(m.measure is not None for m in family.members):
        chart = _smooth_chart(family, config)
    elif all(m.field is not None for m in family.members):
        chart = _nodal_chart(family, config)
    else:
        raise DriverError("family members carry neither uniform measures nor fields")

    eps_bar = config.eps_bar
    limit_energy = chart.limit_energy
    curve = family.curve
    components = [TreeComponent(vertex=0, kind="base", energy=chart.base_energy)]
    necks = list(chart.necks)

    def held(queue) -> float:
        # a smooth site holds back eps_bar until it is extracted, a nodal one eps_bar/2
        smooth = sum(s.kind == "smooth" for s in queue)
        return smooth * eps_bar + (len(queue) - smooth) * (eps_bar / 2.0)

    accounted = chart.base_energy
    trace = [limit_energy - accounted - held(chart.queue)]
    for step, site in enumerate(chart.queue, start=1):
        ins, attach, neck = chart.mark(curve, site)
        curve = ins.curve
        components.append(
            TreeComponent(
                vertex=ins.new_vertex,
                kind="bubble",
                energy=site.mass,
                attachment=attach,
                site_kind=site.kind,
                marks=ins.new_legs,
            )
        )
        necks.append(neck)
        accounted += site.mass
        trace.append(limit_energy - accounted - held(chart.queue[step:]))

    residual, note, connected = _identity_from_parts(
        limit_energy, components, necks, chart.singular
    )
    return BubbleTree(
        curve=curve,
        components=tuple(components),
        necks=tuple(necks),
        re_trace=tuple(trace),
        eps_bar=eps_bar,
        step_tol=config.step_tol,
        limit_energy=limit_energy,
        identity_residual=residual,
        identity_note=note,
        singular=chart.singular,
        connected=connected,
        notes=chart.notes,
        last_neck=chart.last_neck,
    )
