"""The three benchmark workloads: inputs from a seed, one pass of operations, checks.

A workload is built once per run (inputs, references), then ``run_pass``
executes one round of the same operations against the public API of
``bubbletree``; only ``run_pass`` is timed.  ``collect`` reads what a pass
wrote, and ``check`` compares every collected pass with independent
references (``oracles``), never with a stored copy of earlier output.

Each checker returns a list of problems.  ``selfcheck`` feeds every checker
a perturbed copy of a real pass and requires a problem back, so no check
can pass by construction.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np
import yaml

import oracles
from bubbletree import cli, curve, families

FOUR_PI = oracles.FOUR_PI
REPORTS = ("tree.json", "markings.csv", "theta_profile.csv", "neck.json", "curve.json")


def _call_cli(args: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(args)
    return rc, buf.getvalue()


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


class Workload:
    """Shared pass structure: CLI operations on shipped configs, then per-op checks."""

    name = ""
    cli_ops: tuple[tuple[str, str, str], ...] = ()  # (label, subcommand, config stem)

    def __init__(self, root: Path, seed: int) -> None:
        # the inputs are the shipped configs; the seed changes nothing here
        self.root = root
        self.configs = {
            stem: yaml.safe_load((root / "configs" / f"{stem}.yaml").read_text(encoding="utf-8"))
            for _, _, stem in self.cli_ops
        }

    def config_paths(self) -> list[Path]:
        return sorted({self.root / "configs" / f"{stem}.yaml" for _, _, stem in self.cli_ops})

    def run_pass(self, out: Path) -> dict:
        result = {}
        for label, sub, stem in self.cli_ops:
            cfg = self.root / "configs" / f"{stem}.yaml"
            result[label] = _call_cli([sub, "--config", str(cfg), "--out", str(out / label)])
        return result

    def collect(self, out: Path, result: dict) -> dict:
        """Return codes, printed lines, report bytes and parsed JSON of one pass."""
        collected = dict(result)
        for label, _, _ in self.cli_ops:
            rc, stdout = result[label]
            files = {}
            for name in REPORTS:
                path = out / label / name
                if path.is_file():
                    files[name] = path.read_bytes()
            parsed = {
                name: json.loads(data) for name, data in files.items() if name.endswith(".json")
            }
            # printed lines name the pass's own out directory
            stdout = stdout.replace(str(out), "<out>")
            collected[label] = {"rc": rc, "stdout": stdout, "files": files, "json": parsed}
        return collected

    def report_bytes(self, collected: dict) -> int:
        return sum(
            len(data)
            for item in collected.values()
            if isinstance(item, dict) and "files" in item
            for data in item["files"].values()
        )

    # -- checks -----------------------------------------------------------

    def ops_per_pass(self) -> int:
        return len(self.cli_ops)

    def check_pass(self, p: dict) -> list[str]:
        problems = []
        for label, _, _ in self.cli_ops:
            if p[label]["rc"] != 0:
                problems.append(f"{label}: exit code {p[label]['rc']}")
        return problems

    def audit(self, p: dict) -> list[str]:
        """Operations that fail on a known fault; counted, not treated as wrong."""
        return []

    def check_inputs(self) -> list[str]:
        """Problems found once per run, outside the passes."""
        return []

    def check(self, passes: list[dict]) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over all collected passes of the run."""
        problems = self.check_inputs()
        failed = 0
        for i, p in enumerate(passes):
            problems += [f"pass {i}: {msg}" for msg in self.check_pass(p)]
            failed += len(self.audit(p))
        problems += identical_reports(passes)
        attempted = len(passes) * (self.ops_per_pass() + self.audits_per_pass())
        return attempted, failed, problems

    def audits_per_pass(self) -> int:
        return 0

    def perturbations(self, p: dict):
        """(description, perturbed pass) pairs that ``check_pass`` must reject."""
        return []

    def selfcheck(self, p: dict) -> list[str]:
        """Problems of the harness: perturbed results that a checker accepted."""
        out = []
        if self.check_pass(p):
            return ["selfcheck needs a clean pass"]
        for what, bad in self.perturbations(p):
            if not self.check_pass(bad):
                out.append(f"checker accepted a perturbed result: {what}")
        twin = copy.deepcopy(p)
        label = next(label for label, _, _ in self.cli_ops if twin[label]["files"])
        name = sorted(twin[label]["files"])[0]
        twin[label]["files"][name] = twin[label]["files"][name] + b" "
        if not identical_reports([p, twin]):
            out.append("byte-identity check accepted a changed report")
        return out


def identical_reports(passes: list[dict]) -> list[str]:
    """Every pass of a run must write the same report bytes and the same values."""

    def digest(p: dict) -> dict:
        out = {}
        for label, item in p.items():
            if isinstance(item, dict) and "files" in item:
                for name, data in item["files"].items():
                    out[f"{label}/{name}"] = hashlib.sha256(data).hexdigest()
                out[f"{label}/stdout"] = item["stdout"]
            else:
                out[label] = repr(item)
        return out

    first = digest(passes[0])
    problems = []
    for i, p in enumerate(passes[1:], start=1):
        d = digest(p)
        for key in sorted(set(first) | set(d)):
            if first.get(key) != d.get(key):
                problems.append(f"pass {i}: {key} differs from pass 0")
    return problems


# ---------------------------------------------------------------------------
# smooth_extract


class SmoothExtract(Workload):
    """``extract`` on bubble1 and bubble2: concentration at smooth points."""

    name = "smooth_extract"
    cli_ops = (
        ("bubble1", "extract", "bubble1"),
        ("bubble2", "extract", "bubble2"),
    )

    def expected(self, stem: str) -> tuple[list[complex], float]:
        fam = self.configs[stem]["family"]
        if fam["kind"] == "bubble1":
            return [0j], 0.02
        a = float(fam.get("separation", 0.5))
        return [complex(a), complex(-a)], 0.05

    def check_pass(self, p: dict) -> list[str]:
        problems = super().check_pass(p)
        for label, _, stem in self.cli_ops:
            if p[label]["rc"] == 0:
                tree = p[label]["json"]["tree.json"]
                centers, tol = self.expected(stem)
                problems += [f"{label}: {m}" for m in check_bubble_tree(tree, self.configs[stem], centers, tol)]
        return problems

    def perturbations(self, p: dict):
        def edit(label, fn):
            bad = copy.deepcopy(p)
            fn(bad[label]["json"]["tree.json"])
            return bad

        def bubble_energy(t):
            t["components"][1]["energy"] *= 1.05

        def limit_energy(t):
            t["limit_energy"] *= 1.0 + 1e-5

        def attachment(t):
            t["components"][1]["attachment"][0] += 2.0 * (0.5**6)

        def trace_step(t):
            t["re_trace"][1] = t["re_trace"][0] - 0.05

        def lost_bubble(t):
            t["components"].pop()

        return [
            ("bubble energy off by 5%", edit("bubble1", bubble_energy)),
            ("bubble2 limit energy off by 1e-5", edit("bubble2", limit_energy)),
            ("attachment moved by two finest scales", edit("bubble1", attachment)),
            ("residual energy dropping too little", edit("bubble2", trace_step)),
            ("a bubble missing", edit("bubble2", lost_bubble)),
        ]


def check_bubble_tree(tree: dict, config: dict, centers: list[complex], tol: float) -> list[str]:
    """Energy identity pieces of a smooth bubble tree against the exact family."""
    problems = []
    degree = len(centers)
    if _rel(tree["limit_energy"], FOUR_PI * degree) > 1e-6:
        problems.append(f"limit energy {tree['limit_energy']!r} is not 4 pi * {degree}")
    ladder = config.get("ladder") or {}
    finest = float(ladder.get("delta0", 1.0)) * 0.5 ** int(ladder.get("depth", 6))
    bubbles = [c for c in tree["components"] if c["kind"] == "bubble"]
    if len(bubbles) != degree:
        problems.append(f"{len(bubbles)} bubbles, expected {degree}")
    unmatched = list(centers)
    for b in bubbles:
        if _rel(b["energy"], FOUR_PI) > tol:
            problems.append(f"bubble energy {b['energy']!r} not within {tol:.0%} of 4 pi")
        at = complex(*b["attachment"])
        near = [c for c in unmatched if abs(at - c) <= finest]
        if not near:
            problems.append(f"bubble attached at {at} away from {unmatched} (finest scale {finest})")
        else:
            unmatched.remove(near[0])
    trace = tree["re_trace"]
    if len(trace) != degree + 1:
        problems.append(f"residual-energy trace has {len(trace)} entries for {degree} bubbles")
    step = tree["tolerances"]["eps_bar"] / 2.0 - tree["tolerances"]["step_tol"]
    for a, b in zip(trace, trace[1:]):
        if a - b < step:
            problems.append(f"residual energy dropped {a - b!r} < eps_bar/2 - step_tol = {step!r}")
    return problems


# ---------------------------------------------------------------------------
# neck_extract


class NeckExtract(Workload):
    """Nodal extraction and neck diagnostics on the plumbing and torus families."""

    name = "neck_extract"
    cli_ops = (
        ("extract_plumbing", "extract", "plumbing"),
        ("extract_plumbing_bubble", "extract", "plumbing_bubble"),
        ("extract_torus", "extract", "torus"),
        ("neck_plumbing", "neck", "plumbing"),
        ("neck_torus", "neck", "torus"),
    )
    audited = {"neck_plumbing": "plumbing", "neck_torus": "torus"}  # label -> config stem

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.true_diameters: dict[str, list[float]] | None = None

    def compute_references(self) -> None:
        """Exact diameters of the late members' restricted fields, once per run.

        Computed on first use, which is after the timed passes and after the
        peak memory of the run has been read.
        """
        self.true_diameters = {}
        for label, stem in self.audited.items():
            raw = self.configs[stem]
            spec = families.FamilySpec.from_dict(raw["family"])
            fields = [m.field for m in families.make_family(spec).members]
            late = fields[-((len(fields) + 1) // 2) :]
            deltas = raw["neck"]["deltas"]
            worst = [0.0] * len(deltas)
            for f in late:
                bands = [
                    oracles.restricted_rows(f.half_length, f.n_t, d, abs(f.pinch)) for d in deltas
                ]
                for i, diam in enumerate(oracles.band_diameters(f.points, bands)):
                    worst[i] = max(worst[i], diam)
            self.true_diameters[label] = worst

    def audits_per_pass(self) -> int:
        return sum(len(self.configs[stem]["neck"]["deltas"]) for stem in self.audited.values())

    def audit(self, p: dict) -> list[str]:
        """Zero-neck rows whose reported diameter is below the diameter of all samples."""
        if self.true_diameters is None:
            self.compute_references()
        failures = []
        for label in self.audited:
            rows = p[label]["json"]["neck.json"]["zero_neck"]["rows"]
            for row, true in zip(rows, self.true_diameters[label]):
                if row["max_diameter"] < true * (1.0 - 1e-9):
                    failures.append(
                        f"{label} delta={row['delta']}: max_diameter {row['max_diameter']!r} "
                        f"< {true!r} over all samples"
                    )
        return failures

    def check_pass(self, p: dict) -> list[str]:
        problems = super().check_pass(p)
        if problems:
            return problems
        problems += [f"extract plumbing: {m}" for m in self._plumbing_tree(p)]
        problems += [f"extract plumbing_bubble: {m}" for m in self._plumbing_bubble_tree(p)]
        problems += [f"extract torus: {m}" for m in self._torus_tree(p)]
        problems += [f"neck plumbing: {m}" for m in self._plumbing_neck(p)]
        problems += [f"neck torus: {m}" for m in self._torus_neck(p)]
        for label, stem in self.audited.items():
            rows = p[label]["json"]["neck.json"]["zero_neck"]["rows"]
            if len(rows) != len(self.configs[stem]["neck"]["deltas"]):
                problems.append(f"{label}: {len(rows)} zero-neck rows")
        return problems

    def _family(self, stem: str) -> dict:
        return self.configs[stem]["family"]

    def _plumbing_tree(self, p: dict) -> list[str]:
        tree = p["extract_plumbing"]["json"]["tree.json"]
        fam = self._family("plumbing")
        t = float(fam["schedule"][-1])
        half = math.log(float(fam["delta"]) / math.sqrt(t))
        ref = oracles.joukowski_neck_energy(t, half)
        problems = []
        if _rel(tree["limit_energy"], ref) > 1e-2:
            problems.append(f"limit energy {tree['limit_energy']!r} vs Joukowski {ref!r}")
        if len(tree["components"]) != 1:
            problems.append(f"{len(tree['components'])} components, expected the base only")
        nodes = [n for n in tree["necks"] if n["kind"] == "node"]
        if not nodes or nodes[0]["zero_neck"]["passed"] is not True:
            problems.append("zero-neck verdict is not PASS")
        return problems

    def _plumbing_bubble_tree(self, p: dict) -> list[str]:
        tree = p["extract_plumbing_bubble"]["json"]["tree.json"]
        fam = self._family("plumbing_bubble")
        ref = oracles.plumbing_bubble_energy(float(fam["schedule"][-1]), float(fam["delta"]))
        problems = []
        if _rel(tree["limit_energy"], ref) > 1e-6:
            problems.append(f"limit energy {tree['limit_energy']!r} vs closed form {ref!r}")
        bubbles = [c for c in tree["components"] if c["kind"] == "bubble"]
        if len(bubbles) != 1 or bubbles[0]["site_kind"] != "nodal":
            problems.append("expected one nodal bubble")
        elif _rel(bubbles[0]["energy"], FOUR_PI) > 0.02:
            problems.append(f"nodal bubble energy {bubbles[0]['energy']!r} not within 2% of 4 pi")
        for n in tree["necks"]:
            r = n["thinness_ratios"]
            if n["kind"] == "nodal" and not all(b < a for a, b in zip(r, r[1:])):
                problems.append(f"thinness ratios {r} do not decrease")
        step = tree["tolerances"]["eps_bar"] / 2.0 - tree["tolerances"]["step_tol"]
        trace = tree["re_trace"]
        if len(trace) != 2 or trace[0] - trace[1] < step:
            problems.append(f"residual-energy trace {trace} does not drop by {step!r}")
        return problems

    def _torus_tree(self, p: dict) -> list[str]:
        tree = p["extract_torus"]["json"]["tree.json"]
        problems = []
        if not any(math.hypot(*s["location"]) <= 1e-12 for s in tree["singular"]):
            problems.append("torus node missing from the singular set")
        nodes = [n for n in tree["necks"] if n["kind"] == "node"]
        if not nodes or nodes[0]["zero_neck"]["passed"] is not False:
            problems.append("zero-neck verdict is not FAIL")
        return problems

    def _plumbing_neck(self, p: dict) -> list[str]:
        report = p["neck_plumbing"]["json"]["neck.json"]
        delta = float(self._family("plumbing")["delta"])
        problems = []
        for m in report["members"]:
            t = float(m["parameter"])
            half = math.log(delta / math.sqrt(t))
            ref = oracles.joukowski_neck_energy(t, half)
            if abs(m["half_length"] - half) > 1e-12 * half or _rel(m["energy"], ref) > 1e-2:
                problems.append(f"{m['label']}: energy {m['energy']!r} vs Joukowski {ref!r}")
        if report["zero_neck"]["passed"] is not True:
            problems.append("zero-neck verdict is not PASS")
        return problems

    def _torus_neck(self, p: dict) -> list[str]:
        report = p["neck_torus"]["json"]["neck.json"]
        fam = self._family("torus")
        a, b = (float(x) for x in fam["slopes"])
        delta = float(fam["delta"])
        problems = []
        for m in report["members"]:
            half = math.log(delta / math.sqrt(float(m["parameter"])))
            energy, alpha = oracles.torus_neck(a, b, half)
            if _rel(m["energy"], energy) > 1e-8 or _rel(m["alpha"], alpha) > 1e-8:
                problems.append(
                    f"{m['label']}: energy {m['energy']!r}, alpha {m['alpha']!r} "
                    f"vs 2 pi T (a^2 + b^2) = {energy!r}, pi (a^2 - b^2) = {alpha!r}"
                )
        if report["zero_neck"]["passed"] is not False:
            problems.append("zero-neck verdict is not FAIL")
        return problems

    def perturbations(self, p: dict):
        def edit(label, name, fn):
            bad = copy.deepcopy(p)
            fn(bad[label]["json"][name])
            return bad

        def scale(key, factor, index=-1):
            def fn(r):
                r["members"][index][key] *= factor

            return fn

        def flip(r):
            r["zero_neck"]["passed"] = not r["zero_neck"]["passed"]

        def tree_energy(r):
            r["limit_energy"] *= 1.0 + 1e-5

        def no_singular(r):
            r["singular"] = []

        def thinness(r):
            n = next(n for n in r["necks"] if n["kind"] == "nodal")
            n["thinness_ratios"][-1] = n["thinness_ratios"][0]

        return [
            ("torus alpha off by 1e-6", edit("neck_torus", "neck.json", scale("alpha", 1.0 + 1e-6))),
            ("torus energy off by 1e-7", edit("neck_torus", "neck.json", scale("energy", 1.0 + 1e-7))),
            ("plumbing neck energy off by 2%", edit("neck_plumbing", "neck.json", scale("energy", 1.02))),
            ("plumbing zero-neck verdict flipped", edit("neck_plumbing", "neck.json", flip)),
            ("torus zero-neck verdict flipped", edit("neck_torus", "neck.json", flip)),
            ("plumbing_bubble limit energy off by 1e-5", edit("extract_plumbing_bubble", "tree.json", tree_energy)),
            ("plumbing_bubble thinness not decreasing", edit("extract_plumbing_bubble", "tree.json", thinness)),
            ("plumbing limit energy off by 2%", edit("extract_plumbing", "tree.json", lambda r: r.update(limit_energy=r["limit_energy"] * 1.02))),
            ("torus node dropped from the singular set", edit("extract_torus", "tree.json", no_singular)),
        ]

    def selfcheck(self, p: dict) -> list[str]:
        out = super().selfcheck(p)
        if self.true_diameters is None:
            self.compute_references()
        exact = copy.deepcopy(p)
        short = copy.deepcopy(p)
        for label in self.audited:
            rows = zip(exact[label]["json"]["neck.json"]["zero_neck"]["rows"], short[label]["json"]["neck.json"]["zero_neck"]["rows"])
            for (good, bad), true in zip(rows, self.true_diameters[label]):
                good["max_diameter"] = true
                bad["max_diameter"] = true * (1.0 - 1e-6)
        if self.audit(exact):
            out.append("diameter audit rejected exact diameters")
        if len(self.audit(short)) != self.audits_per_pass():
            out.append("diameter audit accepted diameters 1e-6 short")
        return out


# ---------------------------------------------------------------------------
# oracle_battery


class OracleBattery(Workload):
    """Selftest, curve query, seeded quadrature oracles and dual-graph queries."""

    name = "oracle_battery"
    cli_ops = (
        ("selftest", "selftest", ""),
        ("curve_query", "curve", "curve_query"),
    )

    DEGREES = (1, 2, 3, 4)
    SCALES = (30.0, 3000.0)
    LINEAR_MAPS = 2
    CYCLE_MARKS = ((1, 4), (2, 4), (3, 5), (4, 6), (1, 6), (2, 6), (3, 7), (4, 8))

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)
        self.configs = {
            "curve_query": yaml.safe_load(
                (root / "configs" / "curve_query.yaml").read_text(encoding="utf-8")
            )
        }
        self.maps = self._make_maps()
        self.graphs = self._make_graphs()

    def config_paths(self) -> list[Path]:
        return [self.root / "configs" / "curve_query.yaml"]

    def run_pass(self, out: Path) -> dict:
        result = {}
        result["selftest"] = _call_cli(["selftest"])
        cfg = self.root / "configs" / "curve_query.yaml"
        result["curve_query"] = _call_cli(["curve", "--config", str(cfg), "--out", str(out / "curve_query")])
        energies = []
        for num, den, calls in self.maps:
            rmap = families.RationalMap(num, den)
            for kind, radius, center in calls:
                target = rmap.chart_reversed() if kind == "reversed" else rmap
                energies.append(families.energy_quadrature(target, radius=radius, center=center))
        result["energies"] = energies
        graphs = []
        for genus, edges, legs, sites in self.graphs:
            c = curve.MarkedNodalCurve(genus, edges, legs)
            statuses = [curve.is_regular_node(c, e).status for e in range(len(edges))]
            inserted = []
            for site, case in sites:
                ins = curve.add_bubble_component(c, site, case)
                back = ins.curve
                for lab in ins.new_legs:
                    back = curve.forget_mark(back, lab).curve
                new = [curve.is_regular_node(ins.curve, e).status for e in ins.new_edges]
                inserted.append(((back.genus, back.edges, back.legs), new))
            graphs.append((statuses, inserted))
        result["graphs"] = graphs
        return result

    # -- inputs -----------------------------------------------------------

    def _make_maps(self):
        """(numerator, denominator, [(kind, radius, center)]) with an exact reference per call.

        Pole sums f = sum lam_i / (z - p_i) have degree n and a bubble of
        scale |lam_i| at each pole; one map per (degree, scale) stratum, with
        seeded poles, phases and cap radius.  Linear maps z -> k z carry the
        closed-form cap energy.
        """
        rng = np.random.default_rng(self.seed)
        maps = []
        self.references: list[tuple[str, float]] = []
        for n in self.DEGREES:
            for s in self.SCALES:
                poles: list[complex] = []
                while len(poles) < n:
                    p = complex(*rng.uniform(-0.5, 0.5, 2))
                    if all(abs(p - q) > 0.1 for q in poles):
                        poles.append(p)
                lams = [np.exp(2j * np.pi * rng.uniform()) / (s * rng.uniform(0.5, 1.0)) for _ in poles]
                num, den = oracles.pole_sum_coefficients(lams, poles)
                radius = float(rng.uniform(0.2, 0.8))
                calls = [("sphere", None, 0j), ("cap", radius, 0j), ("reversed", 1.0 / radius, 0j)]
                self.references.append((f"degree {n} scale {s:g}: full sphere", FOUR_PI * n))
                # the z-chart disk |z| <= R and the w-chart disk |w| <= 1/R tile the sphere
                self.references.append((f"degree {n} scale {s:g}: cap pair R={radius:.3f}", FOUR_PI * n))
                if n == 1:
                    cap = float(rng.uniform(1.0, 30.0)) * abs(lams[0])
                    calls.append(("cap", cap, poles[0]))
                    self.references.append(
                        (f"single pole scale {s:g}: cap", oracles.power_cap_energy(1, cap / abs(lams[0])))
                    )
                maps.append((num, den, calls))
        for _ in range(self.LINEAR_MAPS):
            k = float(np.exp(rng.uniform(np.log(10.0), np.log(3000.0))))
            radius = float(rng.uniform(0.3, 30.0)) / k
            maps.append((np.array([k, 0.0]), np.array([1.0]), [("cap", radius, 0j)]))
            self.references.append((f"z -> {k:.4g} z over |z| <= {radius:.4g}", oracles.power_cap_energy(1, k * radius)))
        return maps

    def _make_graphs(self):
        """Census trees under a seeded vertex relabeling, and seeded cycles.

        Trees: every isomorphism class of stable genus-0 dual graph with at
        most 4 vertices and 6 marks; every node is regular.  Cycles: a ring
        of genus-0 vertices with marks spread by the seed; no node on the
        ring is regular, and the exhaustive subset search decides it while
        the curve has at most 8 marks.
        """
        self.census = oracles.genus0_tree_classes()
        graphs = []
        self.graph_expect = []
        for nv, edges, legs in sorted(self.census.values()):
            perm = list(range(nv))
            self.rng.shuffle(perm)
            e = tuple(tuple(sorted((perm[i], perm[j]))) for i, j in edges)
            lg = tuple((perm[v], lab) for v, lab in legs)
            sites = [(self.rng.randrange(nv), 1)]
            if e:
                sites.append((self.rng.randrange(len(e)), 2))
            graphs.append(((0,) * nv, e, lg, sites))
            self.graph_expect.append(("regular", [["regular"]] + [["regular", "regular"]] * (len(sites) - 1)))
        for nv, marks in self.CYCLE_MARKS:
            per = [1] * nv
            for _ in range(marks - nv):
                per[self.rng.randrange(nv)] += 1
            labels = list(range(1, marks + 1))
            self.rng.shuffle(labels)
            lg = tuple((v, labels.pop()) for v in range(nv) for _ in range(per[v]))
            sites = []
            if marks + 2 <= 8:
                sites.append((self.rng.randrange(nv), 1))
            if marks + 1 <= 8:
                sites.append((self.rng.randrange(nv), 2))
            expect = []
            for _, case in sites:
                # a bubble on a ring vertex hangs off a bridge; splitting a ring node keeps it a ring
                expect.append(["regular"] if case == 1 else ["not_regular", "not_regular"])
            graphs.append(((0,) * nv, oracles.ring_edges(nv), lg, sites))
            self.graph_expect.append(("not_regular", expect))
        return graphs

    # -- checks -----------------------------------------------------------

    def ops_per_pass(self) -> int:
        queries = sum(1 + len(sites) for _, _, _, sites in self.graphs)
        return len(self.cli_ops) + len(self.references) + queries

    def check_inputs(self) -> list[str]:
        return census_problems(self.census)

    def check_pass(self, p: dict) -> list[str]:
        problems = super().check_pass(p)
        stdout = p["selftest"]["stdout"]
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != "selftest: all checks passed" or sum(l.startswith("PASS") for l in lines) != 5:
            problems.append(f"selftest printed {stdout!r}")
        q = p["curve_query"]
        if "edge 0: regular: true, witness: forget mark 4" not in q["stdout"].splitlines():
            problems.append(f"curve query printed {q['stdout']!r}")
        answer = q["json"].get("curve.json", {})
        if not (answer.get("stable") is True and answer.get("query", {}).get("witness") == [4]):
            problems.append(f"curve.json answer {answer.get('query')}")
        calls = sum(len(c) for _, _, c in self.maps)
        if len(p["energies"]) != calls:
            return problems + [f"{len(p['energies'])} energies for {calls} calls"]
        it = iter(p["energies"])
        values = []
        for num, den, calls in self.maps:
            got = [next(it) for _ in calls]
            if len(calls) >= 3:
                values += [got[0], got[1] + got[2]] + got[3:]
            else:
                values += got
        for (what, ref), got in zip(self.references, values):
            if _rel(got, ref) > 1e-6:
                problems.append(f"{what}: {got!r} vs {ref!r}")
        for (genus, edges, legs, sites), (statuses, inserted), (expect, expect_new) in zip(
            self.graphs, p["graphs"], self.graph_expect
        ):
            if any(s != expect for s in statuses):
                problems.append(f"{edges} {legs}: node verdicts {statuses}, expected {expect}")
            key = oracles.canonical_key(len(genus), edges, legs)
            for (site, case), (back, new), want in zip(sites, inserted, expect_new):
                if len(back[0]) != len(genus) or oracles.canonical_key(len(back[0]), back[1], back[2]) != key:
                    problems.append(f"{edges} {legs}: case {case} insertion at {site} did not round-trip")
                if new != want:
                    problems.append(f"{edges} {legs}: case {case} new nodes {new}, expected {want}")
        return problems

    def perturbations(self, p: dict):
        bad_energy = copy.deepcopy(p)
        bad_energy["energies"][0] *= 1.0 + 1e-5
        bad_cap = copy.deepcopy(p)
        bad_cap["energies"][-1] *= 1.0 + 1e-5
        bad_tree = copy.deepcopy(p)
        bad_tree["graphs"][-20][0][0] = "not_regular"
        bad_cycle = copy.deepcopy(p)
        bad_cycle["graphs"][-1][0][0] = "regular"
        bad_trip = copy.deepcopy(p)
        (g, e, l), new = bad_trip["graphs"][-20][1][0]
        bad_trip["graphs"][-20][1][0] = ((g, e, l[:-1]), new)
        bad_self = copy.deepcopy(p)
        bad_self["selftest"]["stdout"] = p["selftest"]["stdout"].replace("PASS", "FAIL", 1)
        return [
            ("full-sphere energy off by 1e-5", bad_energy),
            ("linear cap energy off by 1e-5", bad_cap),
            ("a genus-0 tree node judged not regular", bad_tree),
            ("a ring node judged regular", bad_cycle),
            ("an insertion that lost a mark", bad_trip),
            ("a failed selftest line", bad_self),
        ]

    def selfcheck(self, p: dict) -> list[str]:
        out = super().selfcheck(p)
        short = dict(list(self.census.items())[1:])
        if not census_problems(short):
            out.append("census check accepted a count off by one")
        return out


def census_problems(census: dict) -> list[str]:
    """Census counts against the hand counts, and the program's stability verdicts."""
    problems = []
    counts: dict[tuple[int, int], int] = {}
    for nv, edges, legs in census.values():
        counts[(nv, len(legs))] = counts.get((nv, len(legs)), 0) + 1
        if not curve.is_stable(curve.MarkedNodalCurve((0,) * nv, edges, legs)).stable:
            problems.append(f"stable tree {edges} {legs} judged unstable")
    if counts != oracles.GENUS0_CENSUS:
        problems.append(f"census {sorted(counts.items())} differs from the hand counts")
    # a two-vertex tree is stable exactly when each vertex carries two marks
    for n in range(1, 5):
        for k in range(n + 1):
            legs = tuple((0 if i < k else 1, i + 1) for i in range(n))
            got = curve.is_stable(curve.MarkedNodalCurve((0, 0), ((0, 1),), legs)).stable
            if got != (min(k, n - k) >= 2):
                problems.append(f"two-vertex tree with {k}+{n - k} marks judged stable={got}")
    return problems


WORKLOADS = {cls.name: cls for cls in (SmoothExtract, NeckExtract, OracleBattery)}
