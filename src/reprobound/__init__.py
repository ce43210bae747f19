"""Reproducibility bounds for noisy single-qubit test circuits.

Decide whether a device reproduces the uniform-superposition circuit within
a Hellinger-distance tolerance: model the noise, sample the protocol,
estimate the parameters, and test the composite bias gamma_D against the
closed-form ceiling gamma_max(n, delta).

Each submodule lists its public names in its own ``__all__``; the package
re-exports those of ``bounds``, ``estimator``, ``noise_model`` and
``sampler``. It loads them lazily (PEP 562), so that each command loads only
the submodules it runs: ``import reprobound`` loads ``_version`` alone, a
submodule name (``reprobound.bounds``) imports that submodule only, and the
first other public name, or ``__all__``, binds the four ``__all__`` at once,
as star imports would. Any other ``_``-prefixed name is missing at once:
``from . import _stream`` probes it here before it imports the submodule.
"""

from ._version import __version__


def __getattr__(name):
    from importlib import import_module

    if name != "__all__":
        if name.startswith("_"):
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    namespace = globals()
    if "__all__" not in namespace:
        exported = ["__version__"]
        for submodule in ("bounds", "estimator", "noise_model", "sampler"):
            module = import_module(f"{__name__}.{submodule}")
            namespace.update((public, getattr(module, public)) for public in module.__all__)
            exported += module.__all__
        namespace["__all__"] = sorted(exported)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    __getattr__("__all__")  # binds every exported name
    return sorted(globals())
