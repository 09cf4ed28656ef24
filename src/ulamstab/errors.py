"""Exception hierarchy shared by all ulamstab modules.

Every failure mode is semantic: callers can catch a single class and know
what went wrong without parsing messages.  ``InputError`` covers malformed
arguments and files (CLI exit code 2), ``HypothesisViolation`` broken
mathematical hypotheses observed on concrete data, ``OverflowGuardError``
a needed value past the float range (both CLI exit code 1).
"""

from __future__ import annotations

__all__ = [
    "UlamstabError",
    "InputError",
    "InvalidBMetricError",
    "EvaluationError",
    "HypothesisViolation",
    "OverflowGuardError",
]


class UlamstabError(Exception):
    """Base class for every error raised by this package."""


class InputError(UlamstabError, ValueError):
    """Malformed argument, file, or configuration value."""


class InvalidBMetricError(InputError):
    """A distance matrix failed the b-metric axioms.

    Carries the validation report so callers can surface the witness
    triple instead of a bare message.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"not a valid b-metric: {report.detail}")


class EvaluationError(UlamstabError):
    """A sampled map was evaluated off its grid."""


class HypothesisViolation(UlamstabError):
    """An assumed inequality failed on observed data.

    Attributes
    ----------
    witness : tuple
        The concrete inputs on which the inequality failed.
    observed, allowed : float
        The two sides of the failed comparison.
    """

    def __init__(self, message, witness=None, observed=None, allowed=None):
        super().__init__(message)
        self.witness = witness
        self.observed = observed
        self.allowed = allowed


class OverflowGuardError(UlamstabError):
    """f on the grid, m**4, a defect-check residual or the first orbit stage
    of the approximant left the floating-point range."""
