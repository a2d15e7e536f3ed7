"""Exception hierarchy for the bubbletree package.

Every failure mode that a caller can act on gets its own class; messages
carry the quantitative context (which condition failed, by how much).
"""

from __future__ import annotations

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
