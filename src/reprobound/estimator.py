"""Per-experiment estimators and their aggregation into device estimates.

Each experiment l of S shots yields point estimates from its ones count:
readout fidelities from the SPAM circuits, the zero-outcome probability from
the test circuit, and the per-experiment Hellinger distance to the ideal
uniform output (:func:`per_experiment`). Averaging over the L experiments
gives population means with error bars (standard deviation of the
population mean, unbiased L-1 form), the composite bias estimate
gamma_hat = 2*mean(Pr(0)) - 1, and finally the gate angle estimate by
inverting gamma = eps - 2*sin(2*theta)*(f - 1/2). The inversion returns
its note with the angle (:func:`invert_theta`): a clamped or failed
inversion is a value in the estimate, not a warning or an exception. An
estimate stores only its independent values; the means eps and f, the
angle and the note are derived from them, and ``characterization.csv`` is
read back only as :func:`write_characterization_csv` prints it, so it
cannot hold an angle or a note that its other columns do not give. Every
sum is a correctly rounded ``math.fsum`` over plain floats.
"""

from __future__ import annotations

import math
from operator import mul, sub
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .artifacts import finite, read_table, write_csv
from .errors import InsufficientDataError
from .noise_model import (
    Record,
    check_bias,
    check_experiments,
    check_index,
    check_probability,
    hellinger_1q,
)

# Only characterize's annotation names the archive: estimator loads no part
# of sampler.
if TYPE_CHECKING:
    from .sampler import RunArchive

__all__ = ["CharacterizationEstimate", "characterize", "invert_theta", "per_experiment", "population_stats"]

# Policy for the arcsin argument when inverting the gate angle: silent for
# float-level overshoot, a clamp with a note when the data mildly disagrees
# with the model, no angle when it clearly cannot be explained by it.
CLAMP_SILENT = 1e-9
CLAMP_ERROR = 0.01

_F_SINGULAR = 1e-6


def _mean(values) -> float:
    """The correctly rounded sum of ``values``, divided by their number."""
    return math.fsum(values) / len(values)


def population_stats(values) -> tuple[float, float]:
    """Mean and standard deviation of the population mean of a sample.

    sigma^2(mean) = sum((x_l - mean)^2) / (L * (L - 1)), the unbiased form.
    """
    x = list(map(float, values))
    n = len(x)
    if n < 2:
        raise InsufficientDataError(f"population statistics need >= 2 values, got {n}")
    if all(v == x[0] for v in x):
        # Constant samples: sigma is exactly zero, not mean-rounding residue.
        return x[0], 0.0
    mean = _mean(x)
    deviations = [v - mean for v in x]
    var_of_mean = math.fsum(map(mul, deviations, deviations)) / (n * (n - 1))
    return mean, math.sqrt(var_of_mean)


def invert_theta(gamma_hat: float, eps_hat: float, f_hat: float) -> tuple[float, str]:
    """Gate angle estimate theta = arcsin((eps - gamma) / (2f - 1)) / 2 and
    the note that ``characterization.csv`` records for it.

    When f is too close to 1/2 the angle drops out of gamma and is
    unidentifiable: theta is NaN and the note starts with
    ``SingularFidelityError:``. An arcsin argument outside [-1, 1] means the
    data disagrees with the noise model: an overshoot up to 1e-9 is clamped
    with an empty note, up to 0.01 clamped with a note that says so, and
    beyond that theta is NaN and the note starts with ``ModelMismatchError:``.
    Otherwise the note is empty.
    """
    denom = 2.0 * f_hat - 1.0
    if abs(denom) < _F_SINGULAR:
        return math.nan, (
            f"SingularFidelityError: average fidelity {f_hat!r} too close to 1/2, gate angle unidentifiable"
        )
    x = (eps_hat - gamma_hat) / denom
    overshoot = abs(x) - 1.0
    if overshoot > CLAMP_ERROR:
        return math.nan, (
            f"ModelMismatchError: arcsin argument {x!r} exceeds 1 by {overshoot:.3g}; "
            "the single-qubit noise model does not explain this data"
        )
    note = ""
    if overshoot > CLAMP_SILENT:
        note = f"arcsin argument {x!r} clamped to [-1, 1] (overshoot {overshoot:.3g})"
    if overshoot > 0.0:
        x = math.copysign(1.0, x)
    return 0.5 * math.asin(x), note


class CharacterizationEstimate(Record):
    """Aggregated noise estimates for one register element.

    The fields are the estimate's independent values. ``eps_mean``,
    ``f_mean``, ``theta_hat`` and ``warnings`` are derived from them:
    :func:`invert_theta` gives ``theta_hat``, NaN when the inversion failed
    for this qubit and else within [-pi/4, pi/4], and ``warnings`` holds its
    note if it made one: why the inversion failed, or that it was clamped.
    The angle is in radians; only the report bundle prints degrees.
    """

    qubit: int
    f0_mean: float
    f1_mean: float
    eps_sigma: float
    gamma_hat: float
    d_mean: float
    d_sigma: float
    L: int
    S: int

    def __post_init__(self):
        check_index(self.qubit)
        # eps is in [-1, 1] and d in [0, 1], so with L >= 2 the standard
        # error of either mean is at most 1.
        for name in ("f0_mean", "f1_mean", "eps_sigma", "d_mean", "d_sigma"):
            check_probability(name, getattr(self, name))
        check_bias("gamma_hat", self.gamma_hat)
        check_experiments(self.L, self.S)

    @property
    def eps_mean(self) -> float:
        return self.f0_mean - self.f1_mean

    @property
    def f_mean(self) -> float:
        return (self.f0_mean + self.f1_mean) / 2.0

    @property
    def theta_hat(self) -> float:
        return invert_theta(self.gamma_hat, self.eps_mean, self.f_mean)[0]

    @property
    def warnings(self) -> tuple[str, ...]:
        _, note = invert_theta(self.gamma_hat, self.eps_mean, self.f_mean)
        return (note,) if note else ()


# characterization.csv: column name -> the parser of its cells, in file
# order, or None for a column derived from the others. The independent
# columns are CharacterizationEstimate's fields, in order.
CSV_COLUMNS = {
    "qubit": int,
    "f0_mean": finite,
    "f1_mean": finite,
    "eps_mean": None,
    "eps_sigma": finite,
    "f_mean": None,
    "gamma_hat": finite,
    "theta_hat_rad": None,
    "d_mean": finite,
    "d_sigma": finite,
    "L": int,
    "S": int,
    "warnings": None,
}


class PerExperiment(NamedTuple):
    """Point estimates of each of one qubit's L experiments."""

    f0: tuple[float, ...]
    f1: tuple[float, ...]
    pr0: tuple[float, ...]
    eps: tuple[float, ...]
    d: tuple[float, ...]


def per_experiment(ones, shots: int) -> PerExperiment:
    """Per-experiment estimates from one qubit's ones counts.

    ``ones`` holds the qubit's SPAM(0), SPAM(1) and test-circuit counts as
    three rows of length L (as :meth:`RunArchive.qubit_counts` pairs them
    with the qubit's index), each out of ``shots``: f0 = 1 - ones/S,
    f1 = ones/S, Pr(0) = 1 - ones/S of the test circuit, eps = f0 - f1, and
    d the Hellinger distance of (Pr(0), Pr(1)) to the uniform output
    (:func:`noise_model.hellinger_1q`).
    """
    spam0, spam1, c = ones
    f0 = tuple(1.0 - k / shots for k in spam0)
    f1 = tuple(k / shots for k in spam1)
    pr0 = tuple(1.0 - k / shots for k in c)
    # d depends on the count alone, and counts repeat across the L experiments.
    d_of = {k: hellinger_1q(1.0 - k / shots, k / shots) for k in set(c)}
    return PerExperiment(
        f0=f0,
        f1=f1,
        pr0=pr0,
        eps=tuple(map(sub, f0, f1)),
        d=tuple(map(d_of.__getitem__, c)),
    )


def _aggregate(qubit: int, est: PerExperiment, shots: int) -> CharacterizationEstimate:
    """The estimate of qubit ``qubit`` from its per-experiment estimates
    ``est``, L experiments of ``shots`` shots: the one per-qubit step of
    :func:`characterize` and of ``report``."""
    _, eps_sigma = population_stats(est.eps)
    d_mean, d_sigma = population_stats(est.d)
    return CharacterizationEstimate(
        qubit=qubit,
        f0_mean=_mean(est.f0),
        f1_mean=_mean(est.f1),
        eps_sigma=eps_sigma,
        # Per-experiment estimates first, then the average across experiments.
        gamma_hat=2.0 * _mean(est.pr0) - 1.0,
        d_mean=d_mean,
        d_sigma=d_sigma,
        L=len(est.d),
        S=shots,
    )


def characterize(archive: RunArchive) -> list[CharacterizationEstimate]:
    """Characterize every register element of an archive, in plan order.

    A qubit whose angle inversion fails does not abort the others: its
    estimate carries theta_hat = NaN and :func:`invert_theta`'s note.
    """
    S = archive.plan.S
    return [_aggregate(q, per_experiment(rows, S), S) for q, rows in archive.qubit_counts()]


def _row(e: CharacterizationEstimate) -> list:
    return [
        e.qubit,
        e.f0_mean,
        e.f1_mean,
        e.eps_mean,
        e.eps_sigma,
        e.f_mean,
        e.gamma_hat,
        e.theta_hat,
        e.d_mean,
        e.d_sigma,
        e.L,
        e.S,
        "|".join(e.warnings),
    ]


def write_characterization_csv(estimates, path: str | Path) -> None:
    write_csv(path, CSV_COLUMNS, map(_row, estimates))


def read_characterization_csv(path: str | Path) -> list[CharacterizationEstimate]:
    """Read characterization.csv; ConfigError naming the file and line if a
    cell does not parse, the row is not a valid estimate, or a cell is not
    what :func:`write_characterization_csv` prints for that estimate."""
    return read_table(path, CSV_COLUMNS, CharacterizationEstimate, _row)
