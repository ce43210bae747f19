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

:class:`Record` is the immutable value type of every record in the package.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError

__all__ = ["QubitNoiseParams", "gamma_of", "hellinger_1q"]

# Validity region |theta| < THETA_BOUND of the gate angle error. The
# closed-form model only needs |theta| small; pi/4 keeps sin(2*theta)
# injective so the angle stays recoverable from gamma.
THETA_BOUND = math.pi / 4


# The one check of each interval rule: a raise that names [0, 1], [-1, 1]
# or (0, 1) anywhere else is a copy (tests/test_rules.py). NaN fails every
# comparison, so each comparison rejects it. A number is an int or a float
# (numpy.float64 too), never a bool; each rule rejects anything else, such
# as a str or None, with its own message.


def _float(value):
    """``value`` as a float if it is a number, else ``value`` itself, for
    the caller's rule to reject."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


def check_probability(name: str, value: float) -> float:
    """``value`` as a float; InvalidParameterError naming ``name`` unless it
    is a probability, a number in [0, 1]."""
    value = _float(value)
    if not (isinstance(value, float) and 0.0 <= value <= 1.0):
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_open_probability(name: str, value: float) -> float:
    """``value`` as a float; InvalidParameterError naming ``name`` unless it
    is a number in the open interval (0, 1)."""
    value = _float(value)
    if not (isinstance(value, float) and 0.0 < value < 1.0):
        raise InvalidParameterError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_bias(name: str, value: float) -> float:
    """``value`` as a float; InvalidParameterError naming ``name`` unless it
    is a bias Pr(0) - Pr(1), a number in [-1, 1]."""
    value = _float(value)
    if not (isinstance(value, float) and -1.0 <= value <= 1.0):
        raise InvalidParameterError(f"{name} must be in [-1, 1], got {value!r}")
    return value


def check_angle(name: str, value: float) -> float:
    """``value`` as a float; InvalidParameterError naming ``name`` unless it
    is a number and the angle and its double, the argument of sin(2*theta),
    are finite."""
    value = _float(value)
    if not (isinstance(value, float) and math.isfinite(2.0 * value)):
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


# The rules that more than one record or module applies: a qubit index,
# unique indices, L experiments of S shots and a drift SIGMA. Each is
# raised here and nowhere else (tests/test_rules.py).


def check_index(value: int) -> int:
    """``value`` if it is a qubit index, a non-negative int; else
    InvalidParameterError. The one index check of every record that names
    a qubit: a plan's qubit, an estimate and a verdict row."""
    if check_int("qubit index", value) < 0:
        raise InvalidParameterError(f"qubit index must be non-negative, got {value}")
    return value


def check_unique_indices(indices) -> None:
    """InvalidParameterError naming the first qubit index that ``indices``
    repeats. The one duplicate check of a plan, a calibration snapshot and
    a verdict's inputs."""
    seen = set()
    for index in indices:
        if index in seen:
            raise InvalidParameterError(f"qubit {index} appears more than once")
        seen.add(index)


def check_experiments(L: int, S: int) -> None:
    """The rule for L experiments of S shots, which a plan and each
    characterization estimate follow; InvalidParameterError unless L and S
    are ints, L >= 2 and 1 <= S < 2**63."""
    if check_int("L", L) < 2:
        raise InvalidParameterError(f"L must be >= 2 for population statistics, got {L}")
    # Both draws reproduce numpy's binomial, which takes an int64
    # number of trials; the port takes over below 2**53 only.
    if not 1 <= check_int("S", S) < 2**63:
        raise InvalidParameterError(f"S must be in [1, 2**63), got {S}")


def check_drift(drift: float | None) -> float | None:
    """A drift SIGMA as a float, or None for stationary noise;
    InvalidParameterError unless it is a probability, a number in [0, 1].
    A zero SIGMA is +0.0: numpy's normal rejects a scale of -0.0."""
    return None if drift is None else abs(check_probability("drift SIGMA", drift))


class Record:
    """Base of the package's immutable records.

    A subclass's fields are its own class annotations, in order; a class
    attribute of a field's name is its default. The constructor takes the
    fields by position or by name, then runs ``__post_init__``, whose checks
    may normalise a field with ``object.__setattr__``. Records compare, hash
    and print by their fields; assigning or deleting an attribute raises
    AttributeError. Not a dataclass: importing ``dataclasses`` loads
    ``inspect`` and compiles each record's methods at start-up, on every
    command.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(args)} positional arguments")
        values = dict(zip(self._fields, args))
        for field, value in kwargs.items():
            if field not in self._fields:
                raise TypeError(f"{name} has no field {field!r}")
            if field in values:
                raise TypeError(f"{name} got field {field!r} twice")
            values[field] = value
        for field in self._fields:
            if field not in values:
                if not hasattr(type(self), field):
                    raise TypeError(f"{name} is missing field {field!r}")
                values[field] = getattr(type(self), field)
            self.__dict__[field] = values[field]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[field] for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A new record with ``changes`` applied to this one's fields; its
        ``__post_init__`` checks run again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class QubitNoiseParams(Record):
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
        check_probability("f0", self.f0)
        check_probability("f1", self.f1)
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
    A Python number ``theta`` (an int from JSON too) goes through
    ``math.sin``, so the scalar callers never load numpy; any other
    ``theta`` through ``np.sin``.
    """
    if isinstance(theta, (int, float)):
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
