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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import g17, read_csv, write_csv, write_json
from .errors import InvalidParameterError, OutOfRegimeError


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
    return n


def gamma_device(eps: float, theta: float, f: float) -> float:
    """Composite device parameter |eps - 2*sin(2*theta)*(f - 1/2)|.

    Computed from characterization data alone. Readout asymmetry and gate
    angle error can cancel each other, so a small value does not imply a
    clean device, only a reproducible one for this circuit family.
    """
    eps, theta, f = float(eps), float(theta), float(f)
    if not (math.isfinite(eps) and abs(eps) <= 1.0):
        raise InvalidParameterError(f"eps must be in [-1, 1], got {eps!r}")
    if not (math.isfinite(f) and 0.0 <= f <= 1.0):
        raise InvalidParameterError(f"f must be in [0, 1], got {f!r}")
    if not math.isfinite(theta):
        raise InvalidParameterError(f"theta must be finite, got {theta!r}")
    return abs(eps - 2.0 * math.sin(2.0 * theta) * (f - 0.5))


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
    "delta": float,
    "gamma_D": float,
    "gamma_max": float,
    "margin": float,
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
    """Exact one-qubit Hellinger distance to uniform at output bias gamma.

    d = sqrt(1 - (sqrt(1+gamma) + sqrt(1-gamma))/2).
    """
    gamma = float(gamma)
    if not math.isfinite(gamma) or abs(gamma) > 1.0:
        raise InvalidParameterError(f"gamma must be in [-1, 1], got {gamma!r}")
    bc = (math.sqrt(1.0 + gamma) + math.sqrt(1.0 - gamma)) / 2.0
    return math.sqrt(max(0.0, 1.0 - bc))


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

    bad = []
    for d in deltas:
        gm = gamma_max(1, float(d))
        for g in gammas:
            hd = exact_hellinger_1q(float(g))
            if (g <= gm) != (hd <= d):
                bad.append(
                    LemmaCounterexample(
                        delta=float(d), gamma=float(g), gamma_max=gm, hellinger=hd
                    )
                )
    return LemmaA1Report(
        pairs_checked=deltas.size * gammas.size,
        delta_range=(float(deltas.min()), float(deltas.max())),
        gamma_range=(float(gammas.min()), float(gammas.max())),
        counterexamples=tuple(bad),
    )


def default_lemma_grids(points: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Standard verification grids: delta in (0, delta_star(1)], gamma in [0, 1]."""
    ceiling = delta_star(1)
    return (
        np.linspace(ceiling / points, ceiling, points),
        np.linspace(0.0, 1.0, points),
    )


# Rational approximation of the standard normal quantile (Acklam's
# coefficients). Absolute error < 1e-8 over (0, 1) using only +,*,/ on IEEE
# doubles, so sample plans are bit-stable across platforms.
_QA = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_QB = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_QC = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_QD = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_Q_TAIL = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"quantile probability must be in (0, 1), got {p!r}")
    if p < _Q_TAIL:
        q = math.sqrt(-2.0 * math.log(p))
        return _tail_poly(q)
    if p > 1.0 - _Q_TAIL:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -_tail_poly(q)
    q = p - 0.5
    r = q * q
    num = ((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]
    den = ((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0
    return num * q / den


def _tail_poly(q: float) -> float:
    num = ((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5]
    den = (((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0
    return num / den


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
    t = max(1, math.ceil((1.0 / p_s - 1.0) * z * z / (epsilon_rel * epsilon_rel)))
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
