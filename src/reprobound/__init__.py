"""Reproducibility bounds for noisy single-qubit test circuits.

Decide whether a device reproduces the uniform-superposition circuit within
a Hellinger-distance tolerance: model the noise, sample the protocol,
estimate the parameters, and test the composite bias gamma_D against the
closed-form ceiling gamma_max(n, delta).
"""

import importlib

# The submodule that defines each public name. Importing the package loads
# none of them: a name's submodule is imported when the name is first looked
# up (PEP 562), so ``python -m reprobound CMD`` loads only what CMD needs.
_SOURCES = {
    "_version": ("__version__",),
    "bounds": (
        "LemmaA1Report",
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
    ),
    "estimator": (
        "CharacterizationEstimate",
        "characterize",
        "invert_theta",
        "per_experiment",
        "population_stats",
    ),
    "noise_model": (
        "QubitNoiseParams",
        "gamma_of",
        "hellinger_1q",
    ),
    "sampler": (
        "CircuitKind",
        "ExperimentPlan",
        "PlanQubit",
        "RunArchive",
        "count_stream",
        "load_archive",
        "p_one",
        "run_plan",
        "save_archive",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups no longer reach this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
