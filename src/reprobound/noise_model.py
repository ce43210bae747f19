"""Single-qubit noise model and closed forms for the uniform-superposition
test circuit.

Two noise sources are modeled for a qubit prepared in |0>, rotated by a
miscalibrated Hadamard, and measured in the computational basis:

* a gate angle error ``theta`` of the Hadamard, and
* asymmetric readout described by the fidelities ``f0``/``f1`` (probability
  of reading 0/1 when the channel input is |0>/|1>).

The composite output bias gamma = eps - 2*sin(2*theta)*(f - 1/2) fully
determines the circuit's observed single-qubit distribution,
Pr(0) = (1 + gamma)/2, and with it the circuit's Hellinger distance to the
ideal uniform output. All functions are pure and all values immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError

__all__ = ["QubitNoiseParams", "gamma_of", "hellinger_1q"]

# Validity region |theta| < THETA_BOUND of the gate angle error. The
# closed-form model only needs |theta| small; pi/4 keeps sin(2*theta)
# injective so the angle stays recoverable from gamma.
THETA_BOUND = math.pi / 4


def _check_probability(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_angle(name: str, value: float) -> float:
    """``value`` as a float; InvalidParameterError naming ``name`` unless the
    angle and its double, the argument of sin(2*theta), are finite."""
    value = float(value)
    if not math.isfinite(2.0 * value):
        raise InvalidParameterError(f"{name} must be finite and so must 2*{name}, got {value!r}")
    return value


def check_theta(value: float) -> float:
    """``value`` as a float; InvalidParameterError unless it is a gate angle
    of the model's validity region: 2*theta finite and |theta| < pi/4."""
    if not abs(check_angle("theta", value)) < THETA_BOUND:
        raise InvalidParameterError(f"|theta|={abs(value)!r} outside validity region |theta| < pi/4")
    return float(value)


def check_int(name: str, value: int) -> int:
    """``value`` if it is an int and not a bool, the rule that
    ``artifacts.field`` applies to config fields; else InvalidParameterError
    naming ``name``. A float is not truncated into one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an int, got {type(value).__name__} {value!r}")
    return value


@dataclass(frozen=True)
class QubitNoiseParams:
    """Ground-truth noise of one register element.

    Attributes:
        f0: probability of reading 0 when the qubit is prepared in |0>.
        f1: probability of reading 1 when the qubit is prepared in |1>.
        theta: Hadamard implementation angle error in radians, with
            |theta| < pi/4.
    """

    f0: float
    f1: float
    theta: float

    def __post_init__(self):
        _check_probability("f0", self.f0)
        _check_probability("f1", self.f1)
        check_theta(self.theta)

    @property
    def f(self) -> float:
        """Average readout fidelity (f0 + f1)/2."""
        return (self.f0 + self.f1) / 2.0

    @property
    def eps(self) -> float:
        """Readout fidelity asymmetry f0 - f1."""
        return self.f0 - self.f1


def output_bias(eps, theta, f):
    """Composite output bias gamma = eps - 2*sin(2*theta)*(f - 1/2),
    elementwise over arrays.

    gamma is exactly Pr(0) - Pr(1) for the full noisy circuit; |gamma| <= 1
    for any valid parameters. The one implementation of the closed form:
    :func:`gamma_of`, ``bounds.gamma_device`` and ``sampler.p_one`` call it.
    A Python float ``theta`` goes through ``math.sin``, so the scalar callers
    never load numpy; any other ``theta`` through ``np.sin``.
    """
    if isinstance(theta, float):
        sin = math.sin
    else:
        import numpy as np

        sin = np.sin
    return eps - 2.0 * sin(2.0 * theta) * (f - 0.5)


def gamma_of(params: QubitNoiseParams) -> float:
    """The composite output bias :func:`output_bias` of one qubit's noise."""
    return float(output_bias(params.eps, params.theta, params.f))


def hellinger_1q(pr0: float, pr1: float) -> float:
    """Hellinger distance of the two-outcome distribution (pr0, pr1) to the
    uniform (1/2, 1/2).

    d = sqrt(1 - sqrt(Pr(0)/2) - sqrt(Pr(1)/2)), the one-qubit closed form
    of sqrt(1 - BC) with BC the Bhattacharyya coefficient.
    """
    # max(x, 0.0), not max(0.0, x): a NaN stays NaN.
    return math.sqrt(max(1.0 - math.sqrt(pr0 / 2.0) - math.sqrt(pr1 / 2.0), 0.0))
