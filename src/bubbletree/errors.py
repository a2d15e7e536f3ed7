"""Exception hierarchy for the bubbletree package, and the numpy-free input
rules that the config loader and the numerical layers both call, among them
the ladder depth's ``integer`` (also ``ScaleLadder``'s) and the zero-neck
``neck_schedule`` with its tolerance (also ``zero_neck_test``'s).

Every failure mode that a caller can act on gets its own class; messages
carry the quantitative context (which condition failed, by how much).
"""

from __future__ import annotations

import math
import numbers
import reprlib

__all__ = [
    "BubbleTreeError",
    "MeasureError",
    "LadderError",
    "ConcentrationError",
    "SubsequenceError",
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


class SubsequenceError(ConcentrationError):
    """A site holds eps_bar excess, but the sequence does not stabilize on it."""


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


def _is_finite_number(value) -> bool:
    """Whether ``value`` is a finite real number: not a bool, a string, a
    non-finite value or an int beyond the float range."""
    try:  # TypeError: not a real number; OverflowError: beyond the float range
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def finite_number(value, what: str, error: type[BubbleTreeError]) -> float:
    """``value`` as a float when it is a finite real number, else ``error``,
    whose message abbreviates ``value`` (``reprlib``) however deep it nests."""
    if not _is_finite_number(value):
        raise error(f"{what} must be a finite number, got {reprlib.repr(value)}")
    return float(value)


def positive_number(value, what: str, error: type[BubbleTreeError]) -> float:
    """``value`` as a float when it is a positive finite real number, else
    ``error`` ("must be positive and finite"), by the rule of ``finite_number``."""
    if not (_is_finite_number(value) and value > 0):
        raise error(f"{what} must be positive and finite, got {reprlib.repr(value)}")
    return float(value)


def integer(value, what: str, error: type[BubbleTreeError]) -> int:
    """``value`` as an int when it is an integer or an integral float, else
    ``error`` ("must be an integer"); a bool is refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def neck_schedule(deltas, eps) -> tuple[float, ...]:
    """The zero-neck radii as floats, refused with ``NeckError`` unless they
    are finite, positive and strictly decreasing, and unless the tolerance
    ``eps`` is positive and finite."""
    deltas = tuple(finite_number(d, "deltas entry", NeckError) for d in deltas)
    if any(d <= 0 for d in deltas):
        raise NeckError("deltas must be positive")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise NeckError("deltas must be strictly decreasing")
    if not finite_number(eps, "eps", NeckError) > 0:
        raise NeckError("eps must be positive")
    return deltas
