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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import finite, g17, read_csv, write_csv, write_json
from .errors import InvalidParameterError, OutOfRegimeError
from .noise_model import check_angle, hellinger_1q, output_bias


def delta_star(n: int) -> float:
    """Validity ceiling of the closed-form bound: sqrt(1 - 2**(-n/2)).

    For n=1 this is sqrt(1 - 1/sqrt(2)) ~ 0.5412, the largest tolerance for
    which the one-qubit test is exactly equivalent to the distance test.
    """
    n = _check_n(n)
    return math.sqrt(1.0 - 2.0 ** (-n / 2.0))


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
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
    eps, f = float(eps), float(f)
    if not (math.isfinite(eps) and abs(eps) <= 1.0):
        raise InvalidParameterError(f"eps must be in [-1, 1], got {eps!r}")
    if not (math.isfinite(f) and 0.0 <= f <= 1.0):
        raise InvalidParameterError(f"f must be in [0, 1], got {f!r}")
    return abs(float(output_bias(eps, check_angle("theta", theta), f)))


def gamma_max(n: int, delta: float) -> float:
    """Largest device bias compatible with Hellinger distance <= delta."""
    n = _check_n(n)
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise InvalidParameterError(f"delta must be a finite non-negative value, got {delta!r}")
    ceiling = delta_star(n)
    if delta > ceiling:
        raise OutOfRegimeError(
            f"delta={delta!r} above the validity ceiling delta_star({n})={ceiling!r}",
            delta_star=ceiling,
        )
    u = (1.0 - delta * delta) ** (1.0 / n)
    return 2.0 * u * math.sqrt(max(0.0, 1.0 - u * u))


@dataclass(frozen=True)
class ReproVerdict:
    """Outcome of the reproducibility test for one circuit instance."""

    n: int
    delta: float
    gamma_D: float
    gamma_max: float
    reproducible: bool
    margin: float

    def __post_init__(self):
        if self.gamma_D < 0.0:
            raise InvalidParameterError("gamma_D must be non-negative")
        if self.reproducible != (self.gamma_D <= self.gamma_max):
            raise InvalidParameterError("verdict flag inconsistent with gamma_D vs gamma_max")


# verdicts.csv: column name -> cell parser, in file order.
VERDICT_COLUMNS = {
    "qubit": int,
    "n": int,
    "delta": finite,
    "gamma_D": finite,
    "gamma_max": finite,
    "margin": finite,
    "reproducible": lambda cell: cell == "true",
}


def verdict(n: int, delta: float, eps: float, theta: float, f: float) -> ReproVerdict:
    """Full test: compose gamma_D from characterization, compare to the bound.

    A tie (gamma_D equal to gamma_max) counts as reproducible.
    """
    gd = gamma_device(eps, theta, f)
    gm = gamma_max(n, delta)
    return ReproVerdict(
        n=_check_n(n),
        delta=float(delta),
        gamma_D=gd,
        gamma_max=gm,
        reproducible=gd <= gm,
        margin=gm - gd,
    )


def min_delta(n: int, gamma_d: float) -> float:
    """Small-delta floor: the tolerance must be at least sqrt(n/8)*gamma_D.

    First-order inverse of gamma_max; reproduction attempts with a tighter
    error bar than this will fail the distance test.
    """
    n = _check_n(n)
    gamma_d = float(gamma_d)
    if not math.isfinite(gamma_d) or not 0.0 <= gamma_d <= 1.0:
        raise InvalidParameterError(f"gamma_D must be in [0, 1], got {gamma_d!r}")
    return 0.5 * math.sqrt(n / 2.0) * gamma_d


def exact_hellinger_1q(gamma: float) -> float:
    """Exact one-qubit Hellinger distance to uniform at output bias gamma:
    :func:`noise_model.hellinger_1q` of the outputs ((1+gamma)/2, (1-gamma)/2).
    """
    gamma = float(gamma)
    if not math.isfinite(gamma) or abs(gamma) > 1.0:
        raise InvalidParameterError(f"gamma must be in [-1, 1], got {gamma!r}")
    return float(hellinger_1q((1.0 + gamma) / 2.0, (1.0 - gamma) / 2.0))


@dataclass(frozen=True)
class LemmaCounterexample:
    delta: float
    gamma: float
    gamma_max: float
    hellinger: float


@dataclass(frozen=True)
class LemmaA1Report:
    """Exhaustive check that the gamma test equals the distance test (n=1)."""

    pairs_checked: int
    delta_range: tuple[float, float]
    gamma_range: tuple[float, float]
    counterexamples: tuple[LemmaCounterexample, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def lemma_a1_check(delta_grid, gamma_grid) -> LemmaA1Report:
    """Verify (gamma <= gamma_max(1, delta)) <=> (d(gamma) <= delta) pairwise.

    Counterexamples are returned as data, not raised; with valid grids the
    expected count is zero. Grid preconditions: every delta in
    [0, delta_star(1)], every gamma in [0, 1].
    """
    deltas = np.asarray(delta_grid, dtype=np.float64)
    gammas = np.asarray(gamma_grid, dtype=np.float64)
    if deltas.size == 0 or gammas.size == 0:
        raise InvalidParameterError("grids must be non-empty")
    ceiling = delta_star(1)
    if np.any(deltas < 0.0) or np.any(deltas > ceiling):
        raise OutOfRegimeError(
            f"every delta must lie in [0, {ceiling!r}]", delta_star=ceiling
        )
    if np.any(gammas < 0.0) or np.any(gammas > 1.0):
        raise InvalidParameterError("every gamma must lie in [0, 1]")
    # NaN passes both range checks and compares false in both tests.
    if np.isnan(deltas).any() or np.isnan(gammas).any():
        raise InvalidParameterError("grids must not contain NaN")

    limits = np.array([gamma_max(1, d) for d in deltas.tolist()])
    distances = hellinger_1q((1.0 + gammas) / 2.0, (1.0 - gammas) / 2.0)
    # Rows are deltas, columns gammas: argwhere yields delta-major order.
    bad = np.argwhere((gammas <= limits[:, None]) != (distances <= deltas[:, None]))
    return LemmaA1Report(
        pairs_checked=deltas.size * gammas.size,
        delta_range=(float(deltas.min()), float(deltas.max())),
        gamma_range=(float(gammas.min()), float(gammas.max())),
        counterexamples=tuple(
            LemmaCounterexample(
                delta=float(deltas[i]),
                gamma=float(gammas[j]),
                gamma_max=float(limits[i]),
                hellinger=float(distances[j]),
            )
            for i, j in bad.tolist()
        ),
    )


def default_lemma_grids(points: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Standard verification grids: delta in (0, delta_star(1)], gamma in [0, 1]."""
    ceiling = delta_star(1)
    return (
        np.linspace(ceiling / points, ceiling, points),
        np.linspace(0.0, 1.0, points),
    )


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1).

    The standard library's ``statistics.NormalDist().inv_cdf``: Wichura's
    AS241 algorithm (Appl. Statist. 37, 1988), with a relative error below
    1e-15 against a 40-digit reference from p = 1e-300 up.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"quantile probability must be in (0, 1), got {p!r}")
    # Imported here: it costs milliseconds per process and only plan-samples needs it.
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class SamplePlan:
    """Shots required to estimate one outcome probability to a target precision."""

    p_s: float
    epsilon_rel: float
    alpha: float
    z: float
    T: int

    def __post_init__(self):
        if self.T < 1:
            raise InvalidParameterError("sample count must be >= 1")


def plan_samples(p_s: float, epsilon_rel: float, alpha: float) -> SamplePlan:
    """Minimum shots T so that the estimate of p_s has relative error
    epsilon_rel at confidence 1 - alpha.

    T = ceil((1/p_s - 1) * z**2 / epsilon_rel**2) with z the upper alpha/2
    standard-normal quantile. T grows like 2**n for uniform outcomes over n
    qubits and like 1/epsilon_rel**2 in the precision.
    """
    p_s, epsilon_rel, alpha = float(p_s), float(epsilon_rel), float(alpha)
    if not 0.0 < p_s < 1.0:
        raise InvalidParameterError(f"p_s must be strictly inside (0, 1), got {p_s!r}")
    if not 0.0 < epsilon_rel < 1.0:
        raise InvalidParameterError(f"epsilon_rel must be in (0, 1), got {epsilon_rel!r}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha!r}")
    z = normal_quantile(1.0 - alpha / 2.0)
    try:
        t = max(1, math.ceil((1.0 / p_s - 1.0) * z * z / (epsilon_rel * epsilon_rel)))
    except (OverflowError, ZeroDivisionError):
        raise InvalidParameterError(
            f"the shot count for p_s={p_s!r}, epsilon_rel={epsilon_rel!r} and alpha={alpha!r} "
            "is not a finite number"
        ) from None
    return SamplePlan(p_s=p_s, epsilon_rel=epsilon_rel, alpha=alpha, z=z, T=t)


def write_verdicts_csv(rows, path: str | Path) -> None:
    """Write (qubit, ReproVerdict) pairs as verdicts.csv."""
    write_csv(
        path,
        VERDICT_COLUMNS,
        (
            [
                qubit,
                v.n,
                g17(v.delta),
                g17(v.gamma_D),
                g17(v.gamma_max),
                g17(v.margin),
                "true" if v.reproducible else "false",
            ]
            for qubit, v in rows
        ),
    )


def _verdict_row(qubit, n, delta, gamma_D, gamma_max, margin, reproducible):
    return qubit, ReproVerdict(
        n=n, delta=delta, gamma_D=gamma_D, gamma_max=gamma_max, reproducible=reproducible, margin=margin
    )


def read_verdicts_csv(path: str | Path) -> list[tuple[int, ReproVerdict]]:
    """Read verdicts.csv as (qubit, ReproVerdict) pairs; ConfigError naming
    the file and line if a cell does not parse or a verdict is inconsistent."""
    return read_csv(path, VERDICT_COLUMNS, _verdict_row)


def write_lemma_report(report: LemmaA1Report, path: str | Path) -> None:
    doc = {
        "schema": "lemma-report/1",
        "pairs_checked": report.pairs_checked,
        "delta_range": list(report.delta_range),
        "gamma_range": list(report.gamma_range),
        "passed": report.passed,
        "counterexample_count": len(report.counterexamples),
        "counterexamples": [
            {
                "delta": c.delta,
                "gamma": c.gamma,
                "gamma_max": c.gamma_max,
                "hellinger": c.hellinger,
            }
            for c in report.counterexamples
        ],
    }
    write_json(path, doc)
