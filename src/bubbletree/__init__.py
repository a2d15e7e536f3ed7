"""Bubble-tree extraction laboratory for energy-concentrating map families.

The package is organized bottom-up; a module imports only modules listed
above it (and errors):

measure     weighted particle measures, scale ladders, concentration detection
quadrature  adaptive polar panel integration
renorm      neck-scale solves, certified balanced centers, bubble markings
curve       stable marked dual graphs, forgetful maps, node regularity
neck        cylinder fields and delta-collars, nodal pushforward measures,
            energy/alpha diagnostics, zero-neck test
families    explicit holomorphic and linear test families with known energies;
            particle measures as preimages of one equal-area sphere lattice
driver      residual-energy induction assembling the bubble tree
cli         config-driven orchestration and report emission

The package re-exports each module's ``__all__``.  Those exports resolve on
first use: ``import bubbletree`` loads no module (and so no numpy), an
attribute named after a module (cli included) loads only that module, and
the first other attribute (or ``__all__``, or ``from bubbletree import *``)
loads the eight re-exporting modules.
"""

import importlib

__version__ = "0.1.0"

# the modules whose own __all__ the package re-exports, in export order
_MODULES = ("curve", "driver", "errors", "families", "measure", "neck", "quadrature", "renorm")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if "__all__" not in globals():
        modules = [importlib.import_module(f".{m}", __name__) for m in _MODULES]
        exports = {n: getattr(m, n) for m in modules for n in m.__all__}
        globals().update(exports, __all__=list(exports))
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
