"""Per-layer spans and counters, recorded from outside the program.

The layers are the modules of ``bubbletree``.  While a ``Tracer`` is
installed, every public function of every layer module is replaced, in every
module namespace of the package that refers to it, by a wrapper that records
a span (layer, function, start, end, parent).  Calls between layers, and
calls inside one module through its globals, therefore all pass through a
wrapper; the program itself is not edited.  A few wrappers also count work
(panels, density evaluations, neck-scale solves, ...) from the arguments and
results they see.

Spans are kept in memory; ``summary`` turns them into per-layer numbers and
``spans_json`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("quadrature", "families", "measure", "renorm", "neck", "curve", "driver", "cli")

# inclusive times: metric name -> qualified function names whose spans it sums
_INCLUSIVE = {
    "renorm.center_s": ("renorm.find_balanced_center",),
    "renorm.neck_scale_s": ("renorm.solve_neck_scale",),
    "renorm.mark_s": ("renorm.mark_smooth_bubble", "renorm.mark_nodal_bubble"),
    "quadrature.s": ("quadrature.adaptive_polar_quadrature",),
    "neck.diagnostics_s": ("neck.diagnostics",),
    "neck.zero_neck_s": ("neck.zero_neck_test",),
    "measure.detect_s": ("measure.detect_concentrations",),
}

COUNTS = (
    "renorm.neck_scale_calls",
    "renorm.neck_scale_atoms",
    "renorm.bisection_steps",
    "quadrature.calls",
    "quadrature.panels",
    "quadrature.density_calls",
    "quadrature.density_points",
    "quadrature.atoms",
    "families.energy_quadrature_calls",
    "neck.diagnostics_calls",
    "neck.samples",
    "measure.candidates",
    "measure.mass_in_calls",
    "curve.forget_calls",
)


class Tracer:
    """Spans and counters for one traced pass; ``install`` patches, ``remove`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, qualname, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"bubbletree.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("bubbletree"), *modules.values()]
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._replace(namespaces, fn, self._span_wrapper(layer, f"{layer}.{name}", fn))
        # the candidate scan is private; it is wrapped for its count only
        scan = modules["measure"]._candidate_locations
        self._replace(namespaces, scan, self._count_candidates(scan))

    def remove(self) -> None:
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()

    def _replace(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, name, original))
                    setattr(ns, name, wrapper)

    def _count_candidates(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts["measure.candidates"] += len(out)
            return out

        return wrapper

    def _span_wrapper(self, layer: str, qualname: str, fn):
        before = _BEFORE.get(qualname)
        after = _AFTER.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [layer, qualname, clock(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    # -- reduction --------------------------------------------------------

    def summary(self, pass_s: float) -> dict[str, float]:
        """Per-layer self and inclusive times, counters, and span coverage of the pass."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({metric: 0.0 for metric in _INCLUSIVE})
        by_name = {n: m for m, names in _INCLUSIVE.items() for n in names}
        curve_s = 0.0
        below_cli = 0.0
        curve_calls = 0
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            out[f"{layer}.self_s"] += dur - child[i]
            if name in by_name:
                out[by_name[name]] += dur
            parent_layer = self.spans[parent][0] if parent >= 0 else None
            if layer == "curve" and parent_layer != "curve":
                curve_s += dur
                curve_calls += 1
            if layer != "cli" and (parent_layer is None or parent_layer == "cli"):
                below_cli += dur
        out["curve.s"] = curve_s
        out["curve.calls"] = curve_calls
        for name in COUNTS:
            out[name] = int(self.counts[name])
        out["trace.below_cli_share"] = below_cli / pass_s if pass_s > 0 else 0.0
        return out

    def spans_json(self) -> list[dict]:
        return [
            {"layer": layer, "name": name, "start": start, "end": end, "parent": parent}
            for layer, name, start, end, parent in self.spans
        ]


# -- argument and result hooks --------------------------------------------


def _quadrature_before(tracer: Tracer, args, kwargs):
    args = list(args)
    density = args[0] if args else kwargs["density"]

    def counted(z):
        tracer.counts["quadrature.density_calls"] += 1
        tracer.counts["quadrature.density_points"] += int(z.size)
        return density(z)

    if args:
        args[0] = counted
    else:
        kwargs = dict(kwargs, density=counted)
    return tuple(args), kwargs


def _quadrature_after(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["quadrature.calls"] += 1
    tracer.counts["quadrature.panels"] += int(out.n_panels)
    tracer.counts["quadrature.atoms"] += int(out.points.size)


def _neck_scale_after(tracer: Tracer, args, kwargs, out) -> None:
    mu = args[0] if args else kwargs["mu"]
    tracer.counts["renorm.neck_scale_calls"] += 1
    tracer.counts["renorm.neck_scale_atoms"] += len(mu)
    tracer.counts["renorm.bisection_steps"] += len(out.history)


def _diagnostics_after(tracer: Tracer, args, kwargs, out) -> None:
    field = args[0] if args else kwargs["field"]
    tracer.counts["neck.diagnostics_calls"] += 1
    tracer.counts["neck.samples"] += int(field.points.shape[0] * field.points.shape[1])


def _counter(name: str):
    def after(tracer: Tracer, args, kwargs, out) -> None:
        tracer.counts[name] += 1

    return after


_BEFORE = {"quadrature.adaptive_polar_quadrature": _quadrature_before}
_AFTER = {
    "quadrature.adaptive_polar_quadrature": _quadrature_after,
    "renorm.solve_neck_scale": _neck_scale_after,
    "neck.diagnostics": _diagnostics_after,
    "families.energy_quadrature": _counter("families.energy_quadrature_calls"),
    "measure.mass_in": _counter("measure.mass_in_calls"),
    "curve.forget_mark": _counter("curve.forget_calls"),
}
