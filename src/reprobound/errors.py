"""Exception types shared across the toolkit.

The CLI maps these onto stable exit codes (see ``cli.py``): bad inputs exit
with 2, I/O failures with 3, incomplete run artifacts with 4, and parameters
outside the bound's validity regime with 5.
"""

from __future__ import annotations


class ReproBoundError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(ReproBoundError, ValueError):
    """A scalar input is non-finite or outside its documented range."""


class InsufficientDataError(ReproBoundError, ValueError):
    """Fewer experiments than population statistics require (L >= 2)."""


class SingularFidelityError(ReproBoundError, ValueError):
    """Average readout fidelity too close to 1/2: gate angle unidentifiable."""


class ModelMismatchError(ReproBoundError, ValueError):
    """Observed data cannot be explained by the single-qubit noise model."""


class ModelMismatchWarning(UserWarning):
    """Mild inconsistency between observed data and the noise model."""


class OutOfRegimeError(ReproBoundError, ValueError):
    """Tolerance above the validity ceiling of the closed-form bound."""

    def __init__(self, message: str, delta_star: float):
        super().__init__(message)
        self.delta_star = delta_star


class IncompleteArchiveError(ReproBoundError, RuntimeError):
    """A run archive file is missing, malformed or not finalized, or an
    artifact in the run directory does not match the run's plan."""

    def __init__(self, message: str, missing: tuple[str, ...] = ()):
        super().__init__(message)
        self.missing = missing


class ConfigError(ReproBoundError, ValueError):
    """A config, snapshot, or CSV input failed validation."""
