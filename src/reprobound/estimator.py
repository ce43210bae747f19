"""Per-experiment estimators and their aggregation into device estimates.

Each experiment l of S shots yields point estimates from its ones count:
readout fidelities from the SPAM circuits, the zero-outcome probability from
the test circuit, and the per-experiment Hellinger distance to the ideal
uniform output (:func:`per_experiment`, vectorised over the L experiments).
Averaging over the L experiments gives population means with error bars
(standard deviation of the population mean, unbiased L-1 form), the
composite bias estimate gamma_hat = 2*mean(Pr(0)) - 1, and finally the gate
angle estimate by inverting gamma = eps - 2*sin(2*theta)*(f - 1/2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .artifacts import finite, g17, read_csv, write_csv
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    ModelMismatchError,
    ModelMismatchWarning,
    SingularFidelityError,
)
from .noise_model import hellinger_1q
from .sampler import RunArchive

# Policy for the arcsin argument when inverting the gate angle: silent for
# float-level overshoot, a warning when the data mildly disagrees with the
# model, a hard error when it clearly cannot be explained by it.
CLAMP_SILENT = 1e-9
CLAMP_ERROR = 0.01

_F_SINGULAR = 1e-6


def population_stats(values) -> tuple[float, float]:
    """Mean and standard deviation of the population mean of a sample.

    sigma^2(mean) = sum((x_l - mean)^2) / (L * (L - 1)), the unbiased form.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < 2:
        raise InsufficientDataError(f"population statistics need >= 2 values, got {n}")
    if x.min() == x.max():
        # Constant samples: sigma is exactly zero, not mean-rounding residue.
        return float(x[0]), 0.0
    mean = float(x.mean())
    var_of_mean = float(np.sum((x - mean) ** 2)) / (n * (n - 1))
    return mean, math.sqrt(var_of_mean)


def invert_theta(gamma_hat: float, eps_hat: float, f_hat: float) -> float:
    """Gate angle estimate theta = arcsin((eps - gamma) / (2f - 1)) / 2.

    Raises SingularFidelityError when f is too close to 1/2 (the angle drops
    out of gamma and is unidentifiable). An arcsin argument outside [-1, 1]
    means the data disagrees with the noise model: overshoot up to 1e-9 is
    clamped silently, up to 0.01 clamped with a ModelMismatchWarning, beyond
    that a ModelMismatchError is raised.
    """
    denom = 2.0 * f_hat - 1.0
    if abs(denom) < _F_SINGULAR:
        raise SingularFidelityError(
            f"average fidelity {f_hat!r} too close to 1/2, gate angle unidentifiable"
        )
    x = (eps_hat - gamma_hat) / denom
    overshoot = abs(x) - 1.0
    if overshoot > CLAMP_ERROR:
        raise ModelMismatchError(
            f"arcsin argument {x!r} exceeds 1 by {overshoot:.3g}; "
            "the single-qubit noise model does not explain this data"
        )
    if overshoot > CLAMP_SILENT:
        warnings.warn(
            f"arcsin argument {x!r} clamped to [-1, 1] (overshoot {overshoot:.3g})",
            ModelMismatchWarning,
            stacklevel=2,
        )
    if overshoot > 0.0:
        x = math.copysign(1.0, x)
    return 0.5 * math.asin(x)


@dataclass(frozen=True)
class CharacterizationEstimate:
    """Aggregated noise estimates for one register element.

    ``theta_hat`` is NaN (with an explanatory warning token) when the angle
    inversion failed for this qubit; all other fields are still valid.
    """

    qubit: int
    f0_mean: float
    f1_mean: float
    eps_mean: float
    eps_sigma: float
    f_mean: float
    gamma_hat: float
    theta_hat: float
    d_mean: float
    d_sigma: float
    L: int
    S: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if abs(self.eps_mean - (self.f0_mean - self.f1_mean)) > 1e-12:
            raise InvalidParameterError("eps_mean must equal f0_mean - f1_mean")
        if abs(self.f_mean - (self.f0_mean + self.f1_mean) / 2.0) > 1e-12:
            raise InvalidParameterError("f_mean must equal (f0_mean + f1_mean)/2")
        if self.eps_sigma < 0.0 or self.d_sigma < 0.0:
            raise InvalidParameterError("sigmas must be non-negative")
        if not 0.0 <= self.d_mean <= 1.0:
            raise InvalidParameterError(f"d_mean must be in [0, 1], got {self.d_mean!r}")

    @property
    def theta_hat_deg(self) -> float:
        return math.degrees(self.theta_hat)


# characterization.csv: column name -> cell parser, in file order. Every
# number is finite except the angle, which is NaN after a failed inversion.
CSV_COLUMNS = {
    "qubit": int,
    "f0_mean": finite,
    "f1_mean": finite,
    "eps_mean": finite,
    "eps_sigma": finite,
    "f_mean": finite,
    "gamma_hat": finite,
    "theta_hat_rad": float,
    "theta_hat_deg": float,
    "d_mean": finite,
    "d_sigma": finite,
    "L": int,
    "S": int,
    "warnings": lambda cell: tuple(t for t in cell.split("|") if t),
}


class PerExperiment(NamedTuple):
    """Point estimates of each of one qubit's L experiments."""

    f0: np.ndarray
    f1: np.ndarray
    pr0: np.ndarray
    eps: np.ndarray
    d: np.ndarray


def per_experiment(ones, shots: int) -> PerExperiment:
    """Per-experiment estimates from one qubit's ones counts.

    ``ones`` holds the qubit's SPAM(0), SPAM(1) and test-circuit counts as
    rows of length L (its ``counts[:, i]`` slice of the archive), each out of
    ``shots``: f0 = 1 - ones/S, f1 = ones/S, Pr(0) = 1 - ones/S of the test
    circuit, eps = f0 - f1, and d the Hellinger distance of (Pr(0), Pr(1))
    to the uniform output (:func:`noise_model.hellinger_1q`).
    """
    ones = np.asarray(ones, dtype=np.int64)
    f0 = 1.0 - ones[0] / shots
    f1 = ones[1] / shots
    p1 = ones[2] / shots
    pr0 = 1.0 - p1
    return PerExperiment(f0=f0, f1=f1, pr0=pr0, eps=f0 - f1, d=hellinger_1q(pr0, p1))


def _aggregate(archive: RunArchive, i: int) -> CharacterizationEstimate:
    """Average the per-experiment estimates of the plan's ``i``-th qubit."""
    plan = archive.plan
    est = per_experiment(archive.counts[:, i], plan.S)

    _, eps_sigma = population_stats(est.eps)
    d_mean, d_sigma = population_stats(est.d)
    f0_mean = float(est.f0.mean())
    f1_mean = float(est.f1.mean())
    f_mean = (f0_mean + f1_mean) / 2.0
    eps_mean = f0_mean - f1_mean
    # Per-experiment estimates first, then the average across experiments.
    gamma_hat = 2.0 * float(est.pr0.mean()) - 1.0

    notes: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ModelMismatchWarning)
            theta_hat = invert_theta(gamma_hat, eps_mean, f_mean)
        notes.extend(
            str(w.message) for w in caught if issubclass(w.category, ModelMismatchWarning)
        )
    except (SingularFidelityError, ModelMismatchError) as exc:
        theta_hat = math.nan
        notes.append(f"{type(exc).__name__}: {exc}")

    return CharacterizationEstimate(
        qubit=plan.qubits[i].index,
        f0_mean=f0_mean,
        f1_mean=f1_mean,
        eps_mean=eps_mean,
        eps_sigma=eps_sigma,
        f_mean=f_mean,
        gamma_hat=gamma_hat,
        theta_hat=theta_hat,
        d_mean=d_mean,
        d_sigma=d_sigma,
        L=plan.L,
        S=plan.S,
        warnings=tuple(notes),
    )


def characterize(archive: RunArchive) -> list[CharacterizationEstimate]:
    """Characterize every register element of an archive.

    A qubit whose angle inversion fails does not abort the others: its
    estimate carries theta_hat = NaN and the error text as a warning token.
    """
    return [_aggregate(archive, i) for i in range(len(archive.plan.qubits))]


def write_characterization_csv(estimates, path: str | Path) -> None:
    write_csv(
        path,
        CSV_COLUMNS,
        (
            [
                e.qubit,
                g17(e.f0_mean),
                g17(e.f1_mean),
                g17(e.eps_mean),
                g17(e.eps_sigma),
                g17(e.f_mean),
                g17(e.gamma_hat),
                g17(e.theta_hat),
                g17(e.theta_hat_deg),
                g17(e.d_mean),
                g17(e.d_sigma),
                e.L,
                e.S,
                "|".join(e.warnings),
            ]
            for e in estimates
        ),
    )


def read_characterization_csv(path: str | Path) -> list[CharacterizationEstimate]:
    """Read characterization.csv; ConfigError naming the file and line if a
    cell does not parse or a row is not a valid estimate."""
    # The columns are the estimate's fields plus theta_hat_deg (index 8),
    # which is derived from theta_hat_rad and so dropped.
    return read_csv(path, CSV_COLUMNS, lambda *cells: CharacterizationEstimate(*cells[:8], *cells[9:]))
