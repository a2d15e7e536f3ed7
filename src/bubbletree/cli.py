"""Command line front end: config ingestion, orchestration, report emission.

Subcommands
    extract   run the full extraction driver; writes tree.json,
              theta_profile.csv, markings.csv
    neck      cylinder diagnostics only; writes neck.json, theta_profile.csv
    curve     stability / node-regularity queries on a dual-graph file
    selftest  desk-scale oracle battery (closed-form values)

Exit codes: 0 success, 2 configuration/validation error, 3 algorithmic
invariant violation.  Exit 2 is mostly a config refused at load, before any
family is built, by a file that is not UTF-8 text, YAML that does not parse
or nests deeper than ``_MAX_DEPTH`` levels, an unknown key, or the owner of a
rule, which the loader calls rather than restates: every ladder, neck and
family value must pass ``errors.finite_number``, the ladder depth
``errors.integer`` (the rule ``ScaleLadder`` calls) and the neck deltas and
eps ``errors.neck_schedule`` (the rule ``zero_neck_test`` calls); a family
section ``FamilySpec``, and with it the ladder ``ScaleLadder`` at the family's
``chart_radius`` and, on a neck family, ``FamilySpec.collar_rows`` on each
zero-neck collar of the members of ``neck.late_half``.  ``curve`` also exits
2 on a graph file it cannot read or parse or an edge query it cannot answer,
``neck`` on a family without cylinder fields, ``extract`` on a schedule of
fewer members than detection needs (``measure.MIN_MEMBERS``), and every
command on an out directory it cannot write.
Identical configs produce byte-identical reports: keys are sorted, floats use
shortest round-trip repr, and every report embeds the hash of the validated
config.

Each command loads only the layers it runs.  ``curve``, ``--help`` and
config errors finish without importing numpy; ``families``, ``driver`` and
``neck`` (and with them numpy) are imported by ``extract``, ``neck`` and
``selftest``, and by the validation of a ``family`` section.  When numpy is
not yet loaded, ``main`` sets OPENBLAS_NUM_THREADS=1 unless the environment
already sets it: the package's BLAS calls are short dot products and 2x2
solves, so the idle OpenBLAS worker pool would only cost start-up time.

Config grammar (YAML, unknown keys rejected at every level):

    family:                      # required for extract/neck
      kind: bubble1              # bubble1|bubble2|plumbing|plumbing_bubble|torus_linear
      schedule: [316.0, 3162.0, 10000.0]
      # optional per-kind knobs: delta, separation, slopes
      # (delta on plumbing, plumbing_bubble and torus_linear, separation on
      # bubble2, slopes on torus_linear; refused on any other kind)
    ladder:                      # optional; starts at the family's chart
      eps_bar: 0.2               # radius (1.0, or delta on a neck family)
      depth: 6                   # an integer >= 6
    neck:                        # optional; enables the zero-neck test
      deltas: [0.1, 0.05, 0.02, 0.01, 0.005, 0.002]
      eps: 0.01
    curve:                       # required for the curve subcommand
      graph: graph.txt           # path relative to the config file
      edge: 0                    # optional node index to classify
    out: runs/bubble1            # default out directory

The extraction tolerances are constants of ``bubbletree.renorm`` and
``bubbletree.driver``, not config keys.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import reprlib
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import yaml

from .curve import curve_from_text, curve_to_text, is_regular_node, is_stable
from .errors import BubbleTreeError, ConfigError, CurveError, FamilyError, LadderError
from .errors import NeckError, finite_number, integer, neck_schedule

if TYPE_CHECKING:
    from .driver import BubbleTree, ExtractionConfig
    from .families import FamilySpec

_SCHEMA = 1
# libyaml's parser where PyYAML was built with it; both loaders build their
# nodes with the same Python SafeConstructor, so they give equal dicts
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# libyaml's composer recurses in C and overflows an 8 MB stack near 20,000 levels
_MAX_DEPTH = 4096
_NESTING = {"<block mapping start>": 1, "<block sequence start>": 1, "{": 1, "[": 1}
_NESTING.update({"<block end>": -1, "}": -1, "]": -1})  # token id -> change of depth

_TOP_KEYS = ("family", "ladder", "neck", "curve", "out")
_LADDER_KEYS = {"eps_bar": 0.2, "depth": 6}
_NECK_KEYS = {"deltas": (), "eps": 0.01}
_CURVE_KEYS = {"graph": None, "edge": None}


def _section(raw: dict, name: str, defaults: dict) -> dict:
    got = raw.get(name, {})
    if got is None:
        got = {}
    if not isinstance(got, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(got) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown, key=str)}")
    out = dict(defaults)
    out.update(got)
    return out


class RunConfig:
    """Validated run configuration; construction rejects anything malformed."""

    def __init__(self, raw: dict, base_dir: Path):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        unknown = set(raw) - set(_TOP_KEYS)
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown, key=str)}")

        self.family_raw = raw.get("family")
        self.family_spec: FamilySpec | None = None
        if self.family_raw is not None:
            from .families import FamilySpec

            try:
                self.family_spec = FamilySpec.from_dict(self.family_raw)
            except (FamilyError, TypeError, ValueError) as exc:
                raise ConfigError(f"family section invalid: {exc}") from exc

        self.ladder = _section(raw, "ladder", _LADDER_KEYS)
        for key, value in self.ladder.items():
            finite_number(value, f"ladder {key}", ConfigError)
        # ScaleLadder's integer rule, also without a family: 7.0 and 7 hash alike
        self.ladder["depth"] = integer(self.ladder["depth"], "ladder depth", ConfigError)
        if self.family_spec is not None:
            # the ladder owns its admissibility, on the family's chart radius;
            # families has loaded measure
            from .measure import ScaleLadder

            try:
                ScaleLadder(self.family_spec.chart_radius, **self.ladder)
            except LadderError as exc:
                raise ConfigError(f"ladder invalid: {exc}") from exc

        self.neck = _section(raw, "neck", _NECK_KEYS)
        deltas = self.neck["deltas"]
        if deltas is None:
            deltas = ()
        if not isinstance(deltas, (list, tuple)):
            raise ConfigError(f"neck deltas must be a list, got {reprlib.repr(deltas)}")
        try:
            deltas = neck_schedule(deltas, self.neck["eps"])
        except NeckError as exc:
            raise ConfigError(f"neck {exc}") from exc
        self.neck["deltas"] = deltas
        spec = self.family_spec
        if spec is not None and spec.samples_neck:
            # the collars the zero-neck test cuts from the late members
            from .neck import late_half

            for delta in deltas:
                try:
                    spec.collar_rows(delta, late_half(spec.schedule))
                except NeckError as exc:
                    raise ConfigError(f"neck {exc}") from exc

        self.curve = _section(raw, "curve", _CURVE_KEYS)
        if self.curve["edge"] is not None and (
            not isinstance(self.curve["edge"], int) or isinstance(self.curve["edge"], bool)
        ):
            raise ConfigError("curve edge must be an integer node index")
        self.graph_path: Path | None = None
        for key, path in (("curve graph", self.curve["graph"]), ("out", raw.get("out"))):
            if path is not None and not (isinstance(path, str) and "\0" not in path):
                raise ConfigError(f"{key} must be a path string")
        if self.curve["graph"] is not None:
            self.graph_path = (base_dir / self.curve["graph"]).resolve()
        self.out = raw.get("out")

    def canonical(self) -> dict:
        # computation-determining inputs only: where the artifacts land must
        # not change their bytes, so `out` stays outside the hash
        return {
            "family": self.family_raw,
            "ladder": self.ladder,
            "neck": {"deltas": list(self.neck["deltas"]), "eps": self.neck["eps"]},
            "curve": {"graph": self.curve["graph"], "edge": self.curve["edge"]},
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def extraction_config(self) -> ExtractionConfig:
        from .driver import ExtractionConfig

        return ExtractionConfig(
            eps_bar=float(self.ladder["eps_bar"]),
            depth=self.ladder["depth"],
            neck_deltas=self.neck["deltas"],
            neck_eps=float(self.neck["eps"]),
        )


def load_config(path: Path, overrides: Sequence[str] = ()) -> RunConfig:
    """Read and validate the config at ``path``.  ``overrides`` must be
    empty: no config value can be set from outside the file."""
    if overrides:
        raise ConfigError(f"config overrides are not supported, got {overrides!r}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        depth = 0
        for token in yaml.scan(text, Loader=_YAML_LOADER):
            depth += _NESTING.get(token.id, 0)
            if depth > _MAX_DEPTH:
                raise ConfigError(f"config nests deeper than {_MAX_DEPTH} levels")
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # ValueError: a scalar the constructor cannot build, such as an int
        # past Python's int-string digit limit or a date like 2020-13-01;
        # RecursionError: nesting deeper than the pure-Python parser recurses
        raise ConfigError(f"config does not parse as YAML: {exc}") from exc
    return RunConfig({} if raw is None else raw, path.parent)


# ---------------------------------------------------------------------------
# deterministic serialization


def _record(x, drop: tuple[str, ...] = ()) -> dict:
    """A dataclass record's fields by name, less ``drop``; values are not
    copied (``dataclasses.asdict`` would deep-copy every nested measure)."""
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(x) if f.name not in drop}


def _jsonable(x):
    if dataclasses.is_dataclass(x):
        return _jsonable(_record(x))
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ConfigError(f"non-finite value {x} cannot be serialized")
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _json_text(obj: dict) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _tree_dict(tree: BubbleTree, cfg: RunConfig) -> dict:
    return {
        "schema": _SCHEMA,
        "config_hash": cfg.config_hash(),
        "family": cfg.family_raw,
        "tolerances": {"eps_bar": tree.eps_bar, "step_tol": tree.step_tol},
        "limit_energy": tree.limit_energy,
        "re_trace": list(tree.re_trace),
        "components": tree.components,
        "necks": [_record(n, drop=("markings",)) for n in tree.necks],
        "identity": {
            "residual": tree.identity_residual,
            "note": tree.identity_note,
            "connected": tree.connected,
        },
        "singular": tree.singular,
        "curve": {**_record(tree.curve), "text": curve_to_text(tree.curve)},
        "notes": list(tree.notes),
    }


def _markings_csv(tree: BubbleTree) -> str:
    cols = "site_re,site_im,kind,member,level,case,q_re,q_im,r_re,r_im,t,neck_ratio"
    lines = [cols]
    for n in tree.necks:
        for member, mk in zip(n.members, n.markings):
            site = n.site if n.site is not None else 0j
            q = ("", "") if mk.q is None else (repr(mk.q.real), repr(mk.q.imag))
            ratio = "" if mk.neck_ratio is None else repr(mk.neck_ratio)
            lines.append(
                ",".join(
                    [
                        repr(site.real),
                        repr(site.imag),
                        n.kind,
                        str(member),
                        str(mk.level),
                        str(mk.case),
                        q[0],
                        q[1],
                        repr(mk.r.real),
                        repr(mk.r.imag),
                        repr(mk.t),
                        ratio,
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _theta_profile_csv(last_diagnostics) -> str:
    """The Theta profile of the last member's neck, from its diagnostics (None
    for a family without cylinder fields)."""
    if last_diagnostics is None:
        return "t,theta,alpha_slice\n"
    from .neck import profile_to_csv

    return profile_to_csv(last_diagnostics)


# ---------------------------------------------------------------------------
# subcommands


def _write_reports(cfg: RunConfig, args, stem: str, reports: dict[str, str]) -> Path:
    """Write each report text to its file name in the out directory (--out,
    else the config's ``out``, else runs/<config stem>), and return that
    directory; one that cannot be created or written is a config error."""
    out = Path(args.out or cfg.out or Path("runs") / stem)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in reports.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write reports to {out}: {exc.strerror or exc}") from exc
    return out


def _cmd_extract(cfg: RunConfig, args, stem: str) -> int:
    if cfg.family_spec is None:
        raise ConfigError("extract needs a family section")
    from .driver import extract_bubble_tree
    from .families import make_family
    from .measure import MIN_MEMBERS

    if (n := len(cfg.family_spec.schedule)) < MIN_MEMBERS:
        raise ConfigError(f"extract needs at least {MIN_MEMBERS} family members, got {n}")

    family = make_family(cfg.family_spec)
    tree = extract_bubble_tree(family, cfg.extraction_config())
    reports = {
        "tree.json": _json_text(_tree_dict(tree, cfg)),
        "markings.csv": _markings_csv(tree),
        "theta_profile.csv": _theta_profile_csv(tree.last_neck),
    }
    out = _write_reports(cfg, args, stem, reports)
    res = tree.identity_residual
    print(
        f"extract: {len(tree.components) - 1} bubble(s), "
        f"identity residual {res:.3e}, wrote {out / 'tree.json'}"
    )
    return 0


def _cmd_neck(cfg: RunConfig, args, stem: str) -> int:
    if cfg.family_spec is None:
        raise ConfigError("neck needs a family section")
    if not cfg.family_spec.samples_neck:
        raise ConfigError(
            f"family kind {cfg.family_spec.kind!r} carries no cylinder fields; "
            "neck diagnostics need a plumbing or torus family"
        )
    from .families import make_family
    from .neck import diagnostics, zero_neck_test

    family = make_family(cfg.family_spec)
    rows = []
    profiles = ("theta_profile", "alpha_profile")
    for m in family.members:
        d = diagnostics(m.field)
        rows.append({"label": m.label, "parameter": m.parameter, **_record(d, drop=profiles)})
    zn = None
    if cfg.neck["deltas"]:
        fields = [m.field for m in family.members]
        zn = zero_neck_test(fields, float(cfg.neck["eps"]), list(cfg.neck["deltas"]))
    report = {
        "schema": _SCHEMA,
        "config_hash": cfg.config_hash(),
        "family": cfg.family_raw,
        "tolerances": {"neck_eps": cfg.neck["eps"]},
        "members": rows,
        "zero_neck": zn,
    }
    # d is the last member's diagnostics (a schedule is never empty)
    profile = _theta_profile_csv(d)
    out = _write_reports(
        cfg, args, stem, {"neck.json": _json_text(report), "theta_profile.csv": profile}
    )
    verdict = "n/a" if zn is None else ("PASS" if zn.passed else "FAIL")
    print(f"neck: {len(rows)} member(s), zero-neck {verdict}, wrote {out / 'neck.json'}")
    return 0


def _cmd_curve(cfg: RunConfig, args, stem: str) -> int:
    if cfg.graph_path is None:
        raise ConfigError("curve needs curve.graph pointing at a dual-graph file")
    try:
        text = cfg.graph_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read graph {cfg.graph_path}: {exc}") from exc
    edge = cfg.curve["edge"]
    try:
        c = curve_from_text(text)
        v = None if edge is None else is_regular_node(c, edge)
    except CurveError as exc:
        raise ConfigError(f"graph or edge query refused: {exc}") from exc
    stab = is_stable(c)
    lines = [
        f"vertices: {c.n_vertices}",
        f"arithmetic genus: {c.arithmetic_genus}",
        f"stable: {'true' if stab.stable else 'false'}",
    ]
    answer: dict = {
        "schema": _SCHEMA,
        "config_hash": cfg.config_hash(),
        "graph": curve_to_text(c),
        "vertices": c.n_vertices,
        "arithmetic_genus": c.arithmetic_genus,
        "stable": stab.stable,
        "edges": [list(e) for e in c.edges],
    }
    if v is not None:
        if v.witness:
            marks = ",".join(str(x) for x in v.witness)
            word = "mark" if len(v.witness) == 1 else "marks"
            lines.append(f"edge {edge}: regular: true, witness: forget {word} {marks}")
        else:
            lines.append(f"edge {edge}: regular: false ({v.status})")
        answer["query"] = {
            "edge": edge,
            "status": v.status,
            "witness": list(v.witness) if v.witness else None,
        }
    _write_reports(cfg, args, stem, {"curve.json": _json_text(answer)})
    print("\n".join(lines))
    return 0


def _selftest_checks():
    from .families import FamilySpec, RationalMap, contour_energy, make_family
    from .neck import cylinder_field_from_sphere_chart, diagnostics
    from .renorm import solve_neck_scale_from_cdf

    def check_degree_energy():
        worst = 0.0
        for d in (1, 2, 3):
            # z^d on |z| <= 1 and, chart reversed, 1/w^d on |w| <= 1: a pole
            # of order d at 0, counted by the contour's certified winding
            m = RationalMap(tuple([1.0] + [0.0] * d), (1.0,))
            e = contour_energy(m, 1.0) + contour_energy(m.chart_reversed(), 1.0)
            worst = max(worst, abs(e - 4.0 * math.pi * d) / (4.0 * math.pi * d))
        return worst <= 1e-6, f"max relative error {worst:.3e} (bound 1e-06)"

    def check_pohozaev():
        # z^d on the annulus 1/2 <= |x| <= 2.  A sphere field stores one array
        # for both squared speeds, so its residual is 0 whatever derivative
        # built it; the stored |f_t|^2 and |f_theta|^2 are therefore also
        # checked against second-order central differences of the points
        # (interior t rows; theta wraps).  Their relative defect is O(h^2):
        # about (d h)^2/3 on the circle x^d traces at the theta step
        # h = 2 pi/64, 0.0289 at d = 3 (measured 0.0286), hence the bound
        # 0.05; a wrong derivative is off by a factor, not by O(h^2)
        import numpy as np

        worst = defect = 0.0
        for d in (1, 2, 3):
            field = cylinder_field_from_sphere_chart(
                lambda x, d=d: x**d, lambda x, d=d: d * x ** (d - 1), pinch=1, delta=2
            )
            worst = max(worst, diagnostics(field).pohozaev_residual)
            p = field.points
            h_t = 2.0 * field.half_length / field.n_t
            h_theta = 2.0 * math.pi / field.n_theta
            d_t = (p[2:] - p[:-2]) / (2.0 * h_t)
            d_theta = (np.roll(p, -1, axis=1) - np.roll(p, 1, axis=1)) / (2.0 * h_theta)
            for diff, stored in ((d_t, field.ft_sq[1:-1]), (d_theta, field.fth_sq)):
                rel = np.abs(np.sum(diff * diff, axis=-1) - stored) / stored
                defect = max(defect, float(rel.max()))
        ok = worst <= 1e-8 and defect <= 0.05
        return ok, (
            f"max residual {worst:.3e} (bound 1e-08), squared-speed defect "
            f"{defect:.3e} (bound 5e-02)"
        )

    def check_neck_scale():
        res = solve_neck_scale_from_cdf(
            lambda s: max(0.0, 1.0 - s * s), total=1.0, eps_bar=0.25
        )
        oracle = 2.0 * math.sqrt(3.0) - 3.0
        err = abs(res.t - oracle)
        return err <= 1e-9, f"|t - (2 sqrt 3 - 3)| = {err:.3e} (bound 1e-09)"

    def check_torus_alpha():
        spec = FamilySpec(
            kind="torus_linear", schedule=(1e-4,), delta=0.5, slopes=(2.0, 1.0)
        )
        fam = make_family(spec)
        d = diagnostics(fam.members[-1].field)
        oracle = math.pi * (2.0**2 - 1.0**2)
        err = abs(d.alpha - oracle)
        return err <= 1e-8, f"|alpha - 3 pi| = {err:.3e} (bound 1e-08)"

    def check_regular_node():
        from .curve import MarkedNodalCurve

        c = MarkedNodalCurve((0, 0), ((0, 1),), ((0, 1), (0, 2), (1, 3), (1, 4)))
        v = is_regular_node(c, 0)
        ok = v.status == "regular" and v.witness == (4,)
        return ok, f"status {v.status}, witness {v.witness} (expect regular via mark 4)"

    return [
        ("degree-energy contour", check_degree_energy),
        ("pohozaev residual", check_pohozaev),
        ("neck-scale uniform disk", check_neck_scale),
        ("torus alpha closed form", check_torus_alpha),
        ("two-component node regularity", check_regular_node),
    ]


def _cmd_selftest() -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            ok, detail = fn()
        except BubbleTreeError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return 3
    print("selftest: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS reads this once, when numpy loads (module docstring)
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = argparse.ArgumentParser(
        prog="bubbletree",
        description="Bubble-tree extraction laboratory for degenerating families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("extract", True),
        ("neck", True),
        ("curve", True),
        ("selftest", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="YAML run config")
        p.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    if args.command == "selftest":
        if args.config or args.out:
            print("selftest takes no config or output directory", file=sys.stderr)
            return 2
        return _cmd_selftest()

    try:
        path = Path(args.config)
        cfg = load_config(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    stem = path.stem
    try:
        if args.command == "extract":
            return _cmd_extract(cfg, args, stem)
        if args.command == "neck":
            return _cmd_neck(cfg, args, stem)
        return _cmd_curve(cfg, args, stem)
    except ConfigError as exc:
        print(f"config error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except BubbleTreeError as exc:
        print(f"invariant violation ({args.command}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
