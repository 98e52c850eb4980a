"""Exceptions and warning categories shared across the package.  ``warn``
issues every library warning against the caller's line; the command line
exits 2 on a ``_NumericalFailure``, as on every ``RuntimeError``."""

from __future__ import annotations

import sys
import warnings


def warn(message: str, category: type[Warning]) -> None:
    """Issue ``message`` against the innermost frame outside the package,
    so the warning names the caller's line however deep the call."""
    frame, level = sys._getframe(), 1
    while frame.f_globals.get("__name__", "").startswith(__package__ + "."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class _NumericalFailure(Exception):
    """Base of the ``ValueError``s that report a computation gone wrong."""


class InvalidEnvelopeError(ValueError):
    """Raised when a coupling envelope cannot be constructed or evaluated."""


class InvalidStateError(ValueError, _NumericalFailure):
    """Raised when a two-photon state is malformed (for example zero norm)."""


class _UnresolvableRateError(ValueError, _NumericalFailure):
    """A rate too small or too large for float64 or the quadrature to
    resolve."""


class UnsupportedConfigurationError(ValueError):
    """Raised when an operation does not apply to the given coupling setup."""


class InvalidOverlapError(ValueError, _NumericalFailure):
    """Raised when a gate overlap lies outside the closed unit disk."""


class UndefinedCorrelationError(ValueError, _NumericalFailure):
    """Raised when a joint spectrum has no spectral spread on either axis."""


class EmptyPostselectionError(RuntimeError):
    """Raised when filter postselection leaves no amplitude to normalize."""


class IntegrationFailureError(RuntimeError):
    """Raised when the time-domain integrator loses norm beyond tolerance."""


class NotAsymptoticError(RuntimeError):
    """Raised when a trajectory is read out before scattering has completed."""


class TruncationError(RuntimeError):
    """Raised when a quadrature window cannot contain the integrand."""


class TruncationWarning(UserWarning):
    """Issued when a frequency grid clips or under-resolves what it carries:
    an envelope tail, an input's sum window, the emitted pair."""


class MarkovValidityWarning(UserWarning):
    """Issued when the coupling rate is too large compared to the emitter
    frequency for the flat-band approximation to be reliable."""


class IntegrationWarning(UserWarning):
    """Issued when adaptive quadrature stops short of its requested
    tolerance; the message says why, in scipy's words."""
