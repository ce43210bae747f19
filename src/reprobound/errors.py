"""Exception types shared across the toolkit.

The CLI maps these onto stable exit codes (see ``cli.py``): bad inputs exit
with 2, I/O failures with 3, incomplete run artifacts with 4, and parameters
outside the bound's validity regime with 5. A gate angle that cannot be
recovered from a qubit's data is no error: ``estimator.invert_theta``
returns NaN and a note, and ``characterize`` goes on with the other qubits.
"""

from __future__ import annotations


class ReproBoundError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(ReproBoundError, ValueError):
    """A scalar input is non-finite or outside its documented range."""


class InsufficientDataError(ReproBoundError, ValueError):
    """Fewer experiments than population statistics require (L >= 2)."""


class OutOfRegimeError(ReproBoundError, ValueError):
    """Tolerance above the validity ceiling of the closed-form bound."""

    def __init__(self, message: str, delta_star: float):
        super().__init__(message)
        self.delta_star = delta_star


class IncompleteArchiveError(ReproBoundError, RuntimeError):
    """A run archive file is missing, malformed or not finalized, or an
    artifact in the run directory does not match the run's plan. The
    message names the file."""


class ConfigError(ReproBoundError, ValueError):
    """A config, snapshot, or CSV input failed validation."""
