"""Exception hierarchy for the bubbletree package, and the numpy-free input
rules that the config loader and the numerical layers both call.

Every failure mode that a caller can act on gets its own class; messages
carry the quantitative context (which condition failed, by how much).
"""

from __future__ import annotations

import math

__all__ = [
    "BubbleTreeError",
    "MeasureError",
    "LadderError",
    "ConcentrationError",
    "NeckScaleError",
    "CenterError",
    "MarkingError",
    "CurveError",
    "NeckError",
    "FamilyError",
    "DriverError",
    "ConfigError",
]


class BubbleTreeError(Exception):
    """Base class for all package-specific errors."""


class MeasureError(BubbleTreeError):
    """Invalid particle measure or measure operation."""


class LadderError(BubbleTreeError):
    """Scale ladder violates one of its admissibility conditions."""


class ConcentrationError(BubbleTreeError):
    """Concentration detection could not stabilize a site."""


class NeckScaleError(BubbleTreeError):
    """The neck-scale equation has no admissible solution."""


class CenterError(BubbleTreeError):
    """The balanced-center search failed (degree argument or localization)."""


class MarkingError(BubbleTreeError):
    """A marking invariant failed during renormalization."""


class CurveError(BubbleTreeError):
    """Invalid marked nodal curve or curve operation."""


class NeckError(BubbleTreeError):
    """Invalid cylinder field or neck diagnostic input."""


class FamilyError(BubbleTreeError):
    """Invalid test-family specification."""


class DriverError(BubbleTreeError):
    """Extraction loop violated one of its invariants."""


class ConfigError(BubbleTreeError):
    """Malformed run configuration."""


def finite_number(value, what: str, error: type[BubbleTreeError]) -> float:
    """``value`` as a float when it is a finite real number, else ``error``
    (a bool, a string, a non-finite value or an int beyond the float range)."""
    try:  # TypeError: not a real number; OverflowError: beyond the float range
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise error(f"{what} must be a finite number, got {value!r}")
    return float(value)


def neck_schedule(deltas) -> tuple[float, ...]:
    """The zero-neck radii as floats, refused with ``NeckError`` unless they
    are finite, positive and strictly decreasing."""
    deltas = tuple(finite_number(d, "deltas entry", NeckError) for d in deltas)
    if any(d <= 0 for d in deltas):
        raise NeckError("deltas must be positive")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise NeckError("deltas must be strictly decreasing")
    return deltas
