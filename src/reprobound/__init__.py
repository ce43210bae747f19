"""Reproducibility bounds for noisy single-qubit test circuits.

Decide whether a device reproduces the uniform-superposition circuit within
a Hellinger-distance tolerance: model the noise, sample the protocol,
estimate the parameters, and test the composite bias gamma_D against the
closed-form ceiling gamma_max(n, delta).
"""

from ._version import __version__
from .bounds import (
    LemmaA1Report,
    ReproVerdict,
    SamplePlan,
    delta_star,
    exact_hellinger_1q,
    gamma_device,
    gamma_max,
    lemma_a1_check,
    min_delta,
    normal_quantile,
    plan_samples,
    verdict,
)
from .estimator import (
    CharacterizationEstimate,
    characterize,
    invert_theta,
    per_experiment,
    population_stats,
)
from .noise_model import (
    QubitNoiseParams,
    gamma_of,
    hellinger_1q,
    observed_probs,
)
from .sampler import (
    CircuitKind,
    ExperimentPlan,
    PlanQubit,
    RunArchive,
    count_stream,
    load_archive,
    p_one,
    run_plan,
    save_archive,
)

__all__ = [
    "__version__",
    "CharacterizationEstimate",
    "CircuitKind",
    "ExperimentPlan",
    "LemmaA1Report",
    "PlanQubit",
    "QubitNoiseParams",
    "ReproVerdict",
    "RunArchive",
    "SamplePlan",
    "characterize",
    "count_stream",
    "delta_star",
    "exact_hellinger_1q",
    "gamma_device",
    "gamma_max",
    "gamma_of",
    "hellinger_1q",
    "invert_theta",
    "lemma_a1_check",
    "load_archive",
    "min_delta",
    "normal_quantile",
    "observed_probs",
    "p_one",
    "per_experiment",
    "plan_samples",
    "population_stats",
    "run_plan",
    "save_archive",
    "verdict",
]
