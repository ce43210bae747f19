"""Reproducibility bounds for noisy single-qubit test circuits.

Decide whether a device reproduces the uniform-superposition circuit within
a Hellinger-distance tolerance: model the noise, sample the protocol,
estimate the parameters, and test the composite bias gamma_D against the
closed-form ceiling gamma_max(n, delta).

Each submodule lists its public names in its own ``__all__``; the package
re-exports them all.
"""

from . import bounds, estimator, noise_model, sampler
from ._version import __version__
from .bounds import *
from .estimator import *
from .noise_model import *
from .sampler import *

__all__ = sorted(["__version__", *bounds.__all__, *estimator.__all__, *noise_model.__all__, *sampler.__all__])
