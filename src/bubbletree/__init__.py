"""Bubble-tree extraction laboratory for energy-concentrating map families.

The package is organized bottom-up; a module imports only modules listed
above it (and errors):

measure     weighted particle measures, scale ladders, concentration detection
quadrature  adaptive polar panel integration with particle emission
renorm      neck-scale bisection, balanced centers, bubble markings
curve       stable marked dual graphs, forgetful maps, node regularity
neck        cylinder fields and delta-collars, nodal pushforward measures,
            energy/alpha diagnostics, zero-neck test
families    explicit holomorphic and linear test families with known energies
driver      residual-energy induction assembling the bubble tree
cli         config-driven orchestration and report emission
"""

from . import curve, driver, errors, families, measure, neck, quadrature, renorm
# each module's __all__ is its public surface; the package re-exports all of them
from .curve import *
from .driver import *
from .errors import *
from .families import *
from .measure import *
from .neck import *
from .quadrature import *
from .renorm import *

__all__ = [
    *curve.__all__,
    *driver.__all__,
    *errors.__all__,
    *families.__all__,
    *measure.__all__,
    *neck.__all__,
    *quadrature.__all__,
    *renorm.__all__,
]

__version__ = "0.1.0"
