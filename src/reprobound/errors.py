"""Exception types shared across the toolkit.

Each type carries the CLI's exit code for it as ``exit_code``: 2 for a bad
input, the base class's code, 4 for incomplete run artifacts and 5 for a
tolerance outside the bound's validity regime. ``cli.main`` returns an
error's ``exit_code``, and 3 for an I/O failure (an ``OSError``). A gate
angle that cannot be recovered from a qubit's data is no error:
``estimator.invert_theta`` returns NaN and a note, and ``characterize`` goes
on with the other qubits.
"""

from __future__ import annotations


class ReproBoundError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class InvalidParameterError(ReproBoundError, ValueError):
    """A scalar input is non-finite or outside its documented range."""


class InsufficientDataError(ReproBoundError, ValueError):
    """Fewer experiments than population statistics require (L >= 2)."""


class OutOfRegimeError(ReproBoundError, ValueError):
    """Tolerance above the validity ceiling of the closed-form bound; the
    message names the largest valid tolerance, ``delta_star``."""

    exit_code = 5

    def __init__(self, message: str, delta_star: float):
        super().__init__(message)
        self.delta_star = delta_star


class IncompleteArchiveError(ReproBoundError, RuntimeError):
    """A run archive file is missing or malformed, or an artifact in the
    run directory does not match the run's plan. The message names the
    file."""

    exit_code = 4


class ConfigError(ReproBoundError, ValueError):
    """A config, snapshot, or CSV input failed validation."""
