"""The decision core: is a circuit reproducible within tolerance delta?

For the n-qubit uniform-superposition circuit the observed Hellinger distance
stays below delta exactly when the composite device bias stays below

    gamma_max(n, delta) = 2 * (1 - delta^2)^(1/n) * sqrt(1 - (1 - delta^2)^(2/n))

so the reproducibility test gamma_D <= gamma_max needs only characterization
data, never an estimate of the output distribution itself. The closed form is
valid while (1 - delta^2)^(2/n) >= 1/2, i.e. delta <= delta_star(n); inputs
above that ceiling raise instead of extrapolating silently.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from pathlib import Path

from .artifacts import finite, read_table, write_csv
from .errors import InvalidParameterError, OutOfRegimeError
from .noise_model import (
    Record,
    _float,
    check_angle,
    check_bias,
    check_index,
    check_int,
    check_open_probability,
    check_probability,
    hellinger_1q,
    output_bias,
)

__all__ = [
    "ReproVerdict",
    "SamplePlan",
    "delta_star",
    "exact_hellinger_1q",
    "gamma_device",
    "gamma_max",
    "lemma_a1_check",
    "min_delta",
    "normal_quantile",
    "plan_samples",
    "verdict",
]


def delta_star(n: int) -> float:
    """Validity ceiling of the closed-form bound: sqrt(1 - 2**(-n/2)).

    For n=1 this is sqrt(1 - 1/sqrt(2)) ~ 0.5412, the largest tolerance for
    which the one-qubit test is exactly equivalent to the distance test.
    """
    n = _check_n(n)
    return math.sqrt(1.0 - 2.0 ** (-n / 2.0))


def _check_n(n: int) -> int:
    if check_int("qubit count n", n) < 1:
        raise InvalidParameterError(f"qubit count must be >= 1, got {n}")
    # The closed forms evaluate n as a float.
    if n > sys.float_info.max:
        raise InvalidParameterError(f"qubit count must fit a float, got an integer of {n.bit_length()} bits")
    return n


def gamma_device(eps: float, theta: float, f: float) -> float:
    """Composite device parameter |eps - 2*sin(2*theta)*(f - 1/2)|.

    Computed from characterization data alone. Readout asymmetry and gate
    angle error can cancel each other, so a small value does not imply a
    clean device, only a reproducible one for this circuit family.
    """
    eps, f = check_bias("eps", eps), check_probability("f", f)
    return abs(float(output_bias(eps, check_angle("theta", theta), f)))


def gamma_max(n: int, delta: float) -> float:
    """Largest device bias compatible with Hellinger distance <= delta."""
    n = _check_n(n)
    delta = _float(delta)
    if not (isinstance(delta, float) and math.isfinite(delta) and delta >= 0.0):
        raise InvalidParameterError(f"delta must be a finite non-negative value, got {delta!r}")
    ceiling = delta_star(n)
    if delta > ceiling:
        raise OutOfRegimeError(
            f"delta={delta!r} above the validity ceiling delta_star({n})={ceiling!r} "
            f"(largest valid tolerance: {ceiling!r})",
            delta_star=ceiling,
        )
    u = (1.0 - delta * delta) ** (1.0 / n)
    return 2.0 * u * math.sqrt(max(0.0, 1.0 - u * u))


class ReproVerdict(Record):
    """Outcome of the reproducibility test for one circuit instance.

    The fields are the test's independent inputs: the register size, the
    tolerance and the device bias. The bound, the margin and the flag are
    derived from them; the bound is evaluated once, when the verdict is
    built.
    """

    n: int
    delta: float
    gamma_D: float

    def __post_init__(self):
        # |gamma| is Pr(0) - Pr(1) of the circuit, never above 1.
        check_probability("gamma_D", self.gamma_D)
        self.gamma_max  # raises unless (n, delta) is in the bound's regime

    @cached_property
    def gamma_max(self) -> float:
        return gamma_max(self.n, self.delta)

    @property
    def margin(self) -> float:
        return self.gamma_max - self.gamma_D

    @property
    def reproducible(self) -> bool:
        """gamma_D <= gamma_max: a tie counts as reproducible."""
        return self.gamma_D <= self.gamma_max


# verdicts.csv: column name -> the parser of its cells, in file order, or
# None for a column derived from the others.
VERDICT_COLUMNS = {
    "qubit": int,
    "n": int,
    "delta": finite,
    "gamma_D": finite,
    "gamma_max": None,
    "margin": None,
    "reproducible": None,
}


def verdict(n: int, delta: float, eps: float, theta: float, f: float) -> ReproVerdict:
    """Full test: compose gamma_D from characterization, compare to the bound.

    A tie (gamma_D equal to gamma_max) counts as reproducible.
    """
    return ReproVerdict(_check_n(n), delta, gamma_device(eps, theta, f))


def min_delta(n: int, gamma_d: float) -> float:
    """Small-delta floor: the tolerance must be at least sqrt(n/8)*gamma_D.

    First-order inverse of gamma_max; reproduction attempts with a tighter
    error bar than this will fail the distance test.
    """
    n = _check_n(n)
    gamma_d = check_probability("gamma_D", gamma_d)
    return 0.5 * math.sqrt(n / 2.0) * gamma_d


def exact_hellinger_1q(gamma: float) -> float:
    """Exact one-qubit Hellinger distance to uniform at output bias gamma:
    :func:`noise_model.hellinger_1q` of the outputs ((1+gamma)/2, (1-gamma)/2).
    """
    gamma = check_bias("gamma", gamma)
    return hellinger_1q((1.0 + gamma) / 2.0, (1.0 - gamma) / 2.0)


def lemma_a1_check(delta_grid, gamma_grid) -> list[tuple[float, float]]:
    """The (delta, gamma) pairs on which (gamma <= gamma_max(1, delta)) and
    (d(gamma) <= delta) disagree, delta-major, then in gamma order; ``[]``
    when Lemma A1 holds on the grids.

    Grid preconditions: neither grid is empty, every gamma passes
    :func:`noise_model.check_probability`, and every delta passes
    :func:`gamma_max`'s checks for n=1, which reject a delta that is not a
    number, negative or NaN and raise OutOfRegimeError above delta_star(1).
    """
    deltas = list(delta_grid)
    gammas = [check_probability("gamma", g) for g in gamma_grid]
    if not deltas or not gammas:
        raise InvalidParameterError("grids must be non-empty")

    limits = [gamma_max(1, d) for d in deltas]
    columns = [(g, exact_hellinger_1q(g)) for g in gammas]
    return [(d, g) for d, limit in zip(deltas, limits) for g, h in columns if (g <= limit) != (h <= d)]


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1).

    The standard library's ``statistics.NormalDist().inv_cdf``: Wichura's
    AS241 algorithm (Appl. Statist. 37, 1988), with a relative error below
    1e-15 against a 40-digit reference from p = 1e-300 up.
    """
    p = check_open_probability("quantile probability", p)
    # Imported here: it costs milliseconds per process and only plan-samples needs it.
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


class SamplePlan(Record):
    """Shots required to estimate one outcome probability to a target precision.

    The fields are the plan's inputs: the outcome probability, the relative
    error and the confidence shortfall alpha. ``z``, the upper alpha/2
    standard-normal quantile, and the shot count ``T`` (:func:`plan_samples`)
    are derived from them; ``T`` is evaluated once, when the plan is built.
    """

    p_s: float
    epsilon_rel: float
    alpha: float

    def __post_init__(self):
        for name in ("p_s", "epsilon_rel", "alpha"):
            object.__setattr__(self, name, check_open_probability(name, getattr(self, name)))
        self.T  # raises unless the shot count is a finite number

    @cached_property
    def z(self) -> float:
        # The lower tail's quantile, negated: 1 - alpha/2 would round, to 1.0
        # itself once alpha/2 is below 2**-54.
        return -normal_quantile(self.alpha / 2.0)

    @cached_property
    def T(self) -> int:
        try:
            return max(1, math.ceil((1.0 / self.p_s - 1.0) * self.z * self.z / (self.epsilon_rel * self.epsilon_rel)))
        except (OverflowError, ZeroDivisionError):
            raise InvalidParameterError(
                f"the shot count for p_s={self.p_s!r}, epsilon_rel={self.epsilon_rel!r} and alpha={self.alpha!r} "
                "is not a finite number"
            ) from None


def plan_samples(p_s: float, epsilon_rel: float, alpha: float) -> SamplePlan:
    """Minimum shots T so that the estimate of p_s has relative error
    epsilon_rel at confidence 1 - alpha.

    T = ceil((1/p_s - 1) * z**2 / epsilon_rel**2) with z the upper alpha/2
    standard-normal quantile. T grows like 2**n for uniform outcomes over n
    qubits and like 1/epsilon_rel**2 in the precision.
    """
    return SamplePlan(p_s, epsilon_rel, alpha)


def _row(pair: tuple[int, ReproVerdict]) -> list:
    qubit, v = pair
    return [qubit, v.n, v.delta, v.gamma_D, v.gamma_max, v.margin, "true" if v.reproducible else "false"]


def write_verdicts_csv(rows, path: str | Path) -> None:
    """Write (qubit, ReproVerdict) pairs as verdicts.csv."""
    write_csv(path, VERDICT_COLUMNS, map(_row, rows))


def _verdict(qubit: int, n: int, delta: float, gamma_D: float) -> tuple[int, ReproVerdict]:
    return check_index(qubit), ReproVerdict(n, delta, gamma_D)


def read_verdicts_csv(path: str | Path) -> list[tuple[int, ReproVerdict]]:
    """Read verdicts.csv as (qubit, ReproVerdict) pairs; ConfigError naming
    the file and line if a cell does not parse, the row is not a valid
    verdict, or a cell is not what :func:`write_verdicts_csv` prints for
    that pair."""
    return read_table(path, VERDICT_COLUMNS, _verdict, _row)
