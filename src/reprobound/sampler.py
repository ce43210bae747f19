"""Deterministic Monte Carlo engine for the characterization protocol.

Emulates the three circuit families the estimators consume: SPAM(0) and
SPAM(1) readout-calibration circuits and the uniform-superposition test
circuit C, run as L experiments of S shots per register element. Every
estimator needs only how many of an experiment's S shots read 1, so the
engine draws that count directly: Binomial(S, p) with p the closed-form
probability of reading 1, which has the same distribution as the sum of S
i.i.d. Bernoulli(p) shots. No temporal drift is injected unless a drift
hook is supplied; with one, p varies from experiment to experiment.

Reproducibility of this engine is non-negotiable, so each (circuit kind,
qubit) pair draws its L counts from its own counter-based Philox stream
keyed purely by (master seed, circuit kind, qubit). Re-running a plan
yields an identical count tensor, and one qubit's counts do not depend on
the other qubits of the plan. The drift hook of :func:`gaussian_drift`
draws experiment l's perturbation from a stream of its own, keyed by
(master seed, drift, l).

A run archive persists as a directory::

    manifest.json     schema, plan, seed, toolkit version, status, UTC timestamps
    counts.csv        kind, qubit, experiment, ones, shots

``counts.csv`` is the archive's only data: one row per (kind, qubit,
experiment), kinds in the order spam0, spam1, c, then qubits in plan order,
then experiments, as :func:`count_keys` yields them. :func:`load_archive`
is its only reader and rejects any file that deviates from that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache, partial
from itertools import product
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ._version import __version__
from .artifacts import field, read_csv, read_json, records, write_csv, write_json
from .errors import ConfigError, IncompleteArchiveError, InvalidParameterError
from .noise_model import QubitNoiseParams, gamma_of

MANIFEST_SCHEMA = "run-manifest/2"

# Largest count tensor a plan may ask for (3 kinds x qubits x L). 10**6
# counts make a counts.csv of about 19 MB, 60 times the 27-qubit L=203
# reference; a larger plan is rejected before anything is allocated.
MAX_COUNTS = 10**6

# Cells stay text: _read_counts compares them with the rows save_archive writes.
COUNTS_COLUMNS = {"kind": str, "qubit": str, "experiment": str, "ones": str, "shots": str}


class CircuitKind(str, Enum):
    """The three circuit families of the characterization protocol."""

    SPAM0 = "spam0"
    SPAM1 = "spam1"
    C = "c"


# Every Philox stream id the engine reserves; part of the on-disk
# reproducibility contract. The circuit kinds' ids double as the kind axis
# of the count tensor; the drift hook draws from its own stream.
_STREAM_IDS = {"spam0": 0, "spam1": 1, "c": 2, "drift": 3}
_KIND_STREAM = {kind: _STREAM_IDS[kind.value] for kind in CircuitKind}

# Probability that one shot of each circuit kind reads 1.
_P_ONE = {
    # SPAM(0): prepare |0>, measure.
    CircuitKind.SPAM0: lambda params: 1.0 - params.f0,
    # SPAM(1): prepare |1>, measure.
    CircuitKind.SPAM1: lambda params: params.f1,
    # Test circuit C: noisy Hadamard then noisy readout, Pr(0) = (1 + gamma)/2.
    CircuitKind.C: lambda params: (1.0 - gamma_of(params)) / 2.0,
}

DriftHook = Callable[[QubitNoiseParams, int], QubitNoiseParams]


def p_one(kind: CircuitKind, params: QubitNoiseParams) -> float:
    """Probability that one shot of circuit ``kind`` reads 1 on a qubit with
    noise ``params``: 1 - f0 for SPAM(0), f1 for SPAM(1) and (1 - gamma)/2
    for the test circuit C."""
    return _P_ONE[CircuitKind(kind)](params)


@dataclass(frozen=True)
class PlanQubit:
    """One register element and its ground-truth noise parameters."""

    index: int
    params: QubitNoiseParams

    def __post_init__(self):
        if int(self.index) < 0:
            raise InvalidParameterError(f"qubit index must be non-negative, got {self.index}")
        object.__setattr__(self, "index", int(self.index))


@dataclass(frozen=True)
class ExperimentPlan:
    """L experiments of S shots for each circuit kind and register element."""

    L: int
    S: int
    qubits: tuple[PlanQubit, ...]
    seed: int

    def __post_init__(self):
        if int(self.L) < 2:
            raise InvalidParameterError(f"L must be >= 2 for population statistics, got {self.L}")
        # numpy draws binomial counts with an int64 number of trials.
        if not 1 <= int(self.S) < 2**63:
            raise InvalidParameterError(f"S must be in [1, 2**63), got {self.S}")
        qubits = tuple(self.qubits)
        indices = [q.index for q in qubits]
        if not qubits:
            raise InvalidParameterError("plan needs at least one qubit")
        if len(CircuitKind) * len(qubits) * int(self.L) > MAX_COUNTS:
            raise InvalidParameterError(
                f"plan asks for {len(CircuitKind)} kinds x {len(qubits)} qubits x L={self.L} counts, "
                f"more than the supported {MAX_COUNTS}"
            )
        if len(set(indices)) != len(indices):
            raise InvalidParameterError(f"duplicate qubit indices in plan: {indices}")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidParameterError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "L", int(self.L))
        object.__setattr__(self, "S", int(self.S))
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return tuple(q.index for q in self.qubits)


@dataclass(frozen=True, eq=False)
class RunArchive:
    """The outcome counts of one executed plan, plus a provenance manifest.

    ``counts[k, i, l]`` is how many of the S shots of experiment ``l`` read 1,
    for circuit kind ``k`` (0 SPAM(0), 1 SPAM(1), 2 C) on the plan's ``i``-th
    qubit (``plan.qubits[i]``). The counts are fully determined by (plan,
    seed); the manifest timestamps are provenance only and excluded from the
    determinism contract.
    """

    plan: ExperimentPlan
    counts: np.ndarray
    manifest: dict

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        shape = (len(CircuitKind), len(self.plan.qubits), self.plan.L)
        if counts.shape != shape:
            raise InvalidParameterError(f"counts have shape {counts.shape}, expected {shape}")
        if not (0 <= counts.min() and counts.max() <= self.plan.S):
            raise InvalidParameterError(f"counts must lie in [0, S={self.plan.S}]")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def ones(self, kind: CircuitKind, qubit: int) -> np.ndarray:
        """The L ones counts of circuit ``kind`` on the qubit with index ``qubit``."""
        return self.counts[_KIND_STREAM[CircuitKind(kind)], self.plan.qubit_indices.index(qubit)]


def count_keys(plan: ExperimentPlan) -> Iterator[tuple[str, str, str]]:
    """The (kind, qubit, experiment) cells of counts.csv's rows, in file
    order: the C order of the count tensor."""
    return product([kind.value for kind in CircuitKind], map(str, plan.qubit_indices), map(str, range(plan.L)))


def count_stream(seed: int, kind: CircuitKind, qubit: int) -> np.random.Generator:
    """Counter-based RNG stream for the counts of one (kind, qubit) pair.

    The stream is a Philox generator keyed by (seed, kind, qubit) only, so
    the order in which pairs are drawn, and which other qubits the plan
    holds, cannot change any count.
    """
    return _philox(seed, CircuitKind(kind).value, qubit)


def gaussian_drift(sigma: float, seed: int) -> DriftHook:
    """Common-mode per-experiment parameter drift for exploratory runs:
    experiment l adds N(0, sigma) to f0, f1 and theta, drawn from the drift
    stream keyed by (seed, l), and clips f0 and f1 into [0, 1]."""

    # Every qubit shares experiment l's draw: one generator per experiment.
    @cache
    def perturbation(experiment: int) -> tuple:
        return tuple(_philox(seed, "drift", experiment).normal(0.0, sigma, 3))

    def hook(params: QubitNoiseParams, experiment: int) -> QubitNoiseParams:
        df0, df1, dtheta = perturbation(experiment)
        return QubitNoiseParams(
            f0=min(1.0, max(0.0, params.f0 + df0)),
            f1=min(1.0, max(0.0, params.f1 + df1)),
            theta=params.theta + dtheta,
            theta_bound=None,
        )

    return hook


def _philox(seed: int, stream: str, key: int) -> np.random.Generator:
    """The Philox generator of reserved stream ``stream``, keyed by (seed, key)."""
    seq = np.random.SeedSequence(int(seed), spawn_key=(_STREAM_IDS[stream], int(key)))
    return np.random.Generator(np.random.Philox(seq))


def run_plan(plan: ExperimentPlan, *, drift: DriftHook | None = None) -> RunArchive:
    """Draw the ones count of every experiment of a plan.

    Args:
        plan: what to run.
        drift: optional per-experiment perturbation ``(params, l) -> params``
            applied to all three circuit kinds of experiment ``l``. Off by
            default; the baseline protocol assumes stationary noise.
    """
    started = _utc_now()
    counts = np.empty((len(CircuitKind), len(plan.qubits), plan.L), dtype=np.int64)
    for i, q in enumerate(plan.qubits):
        # One parameter set per experiment under drift, else one broadcast over L.
        params_l = [q.params] if drift is None else [drift(q.params, l) for l in range(plan.L)]
        for kind, k in _KIND_STREAM.items():
            # binomial rejects p outside [0, 1], where rounding can put (1 - gamma)/2.
            p = np.clip([p_one(kind, params) for params in params_l], 0.0, 1.0)
            counts[k, i] = count_stream(plan.seed, kind, q.index).binomial(plan.S, p, size=plan.L)

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "toolkit_version": __version__,
        "status": "complete",
        "seed": plan.seed,
        "L": plan.L,
        "S": plan.S,
        "qubits": [
            {
                "index": q.index,
                "f0": q.params.f0,
                "f1": q.params.f1,
                "theta_rad": q.params.theta,
                "theta_bound": q.params.theta_bound,
            }
            for q in plan.qubits
        ],
        "drifted": drift is not None,
        "started_at": started,
        "finished_at": _utc_now(),
    }
    return RunArchive(plan=plan, counts=counts, manifest=manifest)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def save_archive(archive: RunArchive, out_dir: str | Path) -> Path:
    """Persist an archive as a run directory; returns the directory path.

    The manifest is written twice: first with status "partial" so that a
    storage failure mid-run leaves an explicit marker, then rewritten with
    status "complete" once counts.csv is on disk.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = dict(archive.manifest)
    manifest["status"] = "partial"
    write_json(out / "manifest.json", manifest)

    shots = archive.plan.S
    write_csv(
        out / "counts.csv",
        COUNTS_COLUMNS,
        (
            (*key, ones, shots)
            for key, ones in zip(count_keys(archive.plan), archive.counts.ravel().tolist())
        ),
    )

    manifest["status"] = "complete"
    manifest["finished_at"] = _utc_now()
    write_json(out / "manifest.json", manifest)
    return out


def plan_from_manifest(manifest: dict) -> ExperimentPlan:
    """The plan a manifest records, with the field types of a device config;
    ConfigError or InvalidParameterError if it does not describe one."""
    where = "manifest"
    qubits = []
    for loc, q in records(manifest, where, "qubits"):
        params = QubitNoiseParams(
            f0=field(q, loc, "f0", (int, float)),
            f1=field(q, loc, "f1", (int, float)),
            theta=field(q, loc, "theta_rad", (int, float)),
            theta_bound=field(q, loc, "theta_bound", (int, float, type(None))) if "theta_bound" in q else None,
        )
        qubits.append(PlanQubit(field(q, loc, "index", int), params))
    return ExperimentPlan(
        L=field(manifest, where, "L", int),
        S=field(manifest, where, "S", int),
        qubits=tuple(qubits),
        seed=field(manifest, where, "seed", int),
    )


def load_archive(run_dir: str | Path) -> RunArchive:
    """Load a run directory written by :func:`save_archive`.

    Raises IncompleteArchiveError, naming the offending file, if the manifest
    is absent, not valid JSON, of another schema, not finalized or does not
    describe a valid plan, or if counts.csv is absent or deviates in any way
    from the layout :func:`save_archive` writes for the manifest's plan.
    """
    run = Path(run_dir)
    manifest = _read_manifest(run)
    try:
        plan = plan_from_manifest(manifest)
    except (ConfigError, InvalidParameterError) as exc:
        raise IncompleteArchiveError(
            f"{run}: manifest.json does not describe a valid plan: {exc}",
            missing=("manifest.json",),
        ) from exc
    return RunArchive(plan=plan, counts=_read_counts(run / "counts.csv", plan), manifest=manifest)


def _archive_error(path: Path):
    """Error factory for the artifact readers: exit 4, naming the file."""
    return partial(IncompleteArchiveError, missing=(path.name,))


def _read_manifest(run: Path) -> dict:
    path = run / "manifest.json"
    error = _archive_error(path)
    if not path.is_file():
        raise error(f"{run}: no manifest.json")
    manifest = read_json(path, MANIFEST_SCHEMA, error)
    if manifest.get("status") != "complete":
        raise error(f"{path}: status is {manifest.get('status')!r}, run was not finalized")
    return manifest


def _count_cell(cell: str) -> int | None:
    """The integer a counts.csv cell holds in canonical form, else None."""
    try:
        value = int(cell)
    except ValueError:
        return None
    return value if str(value) == cell else None


def _read_counts(path: Path, plan: ExperimentPlan) -> np.ndarray:
    """Parse counts.csv into the count tensor of ``plan``.

    Every row must sit where :func:`save_archive` writes it, with a
    canonical integer ``ones`` in [0, S] and ``shots`` equal to S.
    """
    error = _archive_error(path)
    if not path.is_file():
        raise error(f"{path}: no counts file")

    shots = str(plan.S)
    size = len(CircuitKind) * len(plan.qubits) * plan.L
    keys = count_keys(plan)

    def row(kind: str, qubit: str, experiment: str, ones: str, shots_cell: str) -> int:
        key = next(keys, None)
        if key is None:
            raise ValueError(f"more rows than the plan's {size}")
        if (kind, qubit, experiment) != key:
            raise ValueError(
                f"expected the row of {','.join(key)}, got {[kind, qubit, experiment]} "
                "(a row is missing, duplicated or out of order)"
            )
        if shots_cell != shots:
            raise ValueError(f"shots {shots_cell!r} is not the plan's S={shots}")
        value = _count_cell(ones)
        if value is None or not 0 <= value <= plan.S:
            raise ValueError(f"ones {ones!r} is not an integer in [0, {shots}]")
        return value

    counts = read_csv(path, COUNTS_COLUMNS, row, error)
    key = next(keys, None)
    if key is not None:
        raise error(f"{path}: ends after {len(counts)} rows; the row of {','.join(key)} and all later rows are missing")
    return np.array(counts, dtype=np.int64).reshape(len(CircuitKind), len(plan.qubits), plan.L)
