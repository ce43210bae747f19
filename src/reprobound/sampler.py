"""Deterministic Monte Carlo engine for the characterization protocol.

Emulates the three circuit families the estimators consume: SPAM(0) and
SPAM(1) readout-calibration circuits and the uniform-superposition test
circuit C, run as L experiments of S shots per register element. Every
estimator needs only how many of an experiment's S shots read 1, so the
engine draws that count directly: Binomial(S, p) with p the closed-form
probability of reading 1, which has the same distribution as the sum of S
i.i.d. Bernoulli(p) shots.

:func:`run_plan` first builds one probability table ``p[kind, qubit,
experiment]`` with :func:`p_one`, then draws every count from it. Noise is
stationary unless a drift SIGMA is given: then experiment l perturbs f0, f1
and theta of every qubit by one common N(0, SIGMA) draw each, taken from a
Philox stream keyed by (master seed, drift, l), and clips f0 and f1 into
[0, 1] before the table is built.

Reproducibility of this engine is non-negotiable, so each (circuit kind,
qubit) pair draws its L counts from its own counter-based Philox stream
keyed purely by (master seed, circuit kind, qubit). Re-running a plan with
the same SIGMA yields an identical count tensor, and one qubit's counts do
not depend on the other qubits of the plan.

A plan has one document format, the device config's ``qubits`` and
``plan`` fields (:func:`plan_doc` writes it, :func:`plan_from_doc` reads
it). A run archive persists as a directory::

    manifest.json     schema, toolkit version, status, that plan document,
                      drift SIGMA, UTC timestamps
    counts.csv        kind, qubit, experiment, ones, shots

:func:`save_archive` is the only writer of both files and
:func:`load_archive` their only reader. ``counts.csv`` is the archive's only
data: one row per (kind, qubit, experiment), kinds in the order spam0,
spam1, c, then qubits in plan order, then experiments, as
:func:`count_keys` yields them; the reader rejects any file that deviates
from that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from itertools import product
from pathlib import Path
from typing import Iterator

import numpy as np

from ._version import __version__
from .artifacts import field, read_csv, read_json, records, write_csv, write_json
from .errors import ConfigError, IncompleteArchiveError, InvalidParameterError
from .noise_model import QubitNoiseParams, output_bias

MANIFEST_SCHEMA = "run-manifest/3"

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
# of the count tensor; the drift draws from its own stream.
_STREAM_IDS = {"spam0": 0, "spam1": 1, "c": 2, "drift": 3}
_KIND_STREAM = {kind: _STREAM_IDS[kind.value] for kind in CircuitKind}


def p_one(f0, f1, theta) -> np.ndarray:
    """Probability that one shot reads 1, elementwise over the noise
    parameters, stacked along a leading kind axis in the count tensor's
    order: 1 - f0 for SPAM(0), f1 for SPAM(1) and, with Pr(0) = (1 + gamma)/2
    after the noisy Hadamard and readout, (1 - gamma)/2 for the test circuit C.
    """
    gamma = output_bias(f0 - f1, theta, (f0 + f1) / 2.0)
    # binomial rejects p outside [0, 1], where rounding can put (1 - gamma)/2.
    return np.clip(np.stack(np.broadcast_arrays(1.0 - f0, f1, (1.0 - gamma) / 2.0)), 0.0, 1.0)


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


def _check_drift(drift: float | None) -> float | None:
    """A drift SIGMA as a float, or None for stationary noise;
    InvalidParameterError unless it is a number in [0, 1]."""
    if drift is None:
        return None
    if not 0.0 <= drift <= 1.0:
        raise InvalidParameterError(f"drift SIGMA must be a finite number in [0, 1], got {drift!r}")
    return float(drift)


@dataclass(frozen=True, eq=False)
class RunArchive:
    """The outcome counts of one executed plan and the drift SIGMA they were
    drawn under (None for stationary noise).

    ``counts[k, i, l]`` is how many of the S shots of experiment ``l`` read 1,
    for circuit kind ``k`` (0 SPAM(0), 1 SPAM(1), 2 C) on the plan's ``i``-th
    qubit (``plan.qubits[i]``). The counts are fully determined by (plan,
    drift): ``run_plan(archive.plan, drift=archive.drift)`` draws them again.
    """

    plan: ExperimentPlan
    counts: np.ndarray
    drift: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "drift", _check_drift(self.drift))
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


def _philox(seed: int, stream: str, key: int) -> np.random.Generator:
    """The Philox generator of reserved stream ``stream``, keyed by (seed, key)."""
    seq = np.random.SeedSequence(int(seed), spawn_key=(_STREAM_IDS[stream], int(key)))
    return np.random.Generator(np.random.Philox(seq))


def run_plan(plan: ExperimentPlan, *, drift: float | None = None) -> RunArchive:
    """Draw the ones count of every experiment of a plan.

    Args:
        plan: what to run.
        drift: optional common-mode drift SIGMA: experiment l adds one
            N(0, SIGMA) draw each to f0, f1 and theta of every qubit, and f0
            and f1 are clipped into [0, 1]. Off by default; the baseline
            protocol assumes stationary noise.
    """
    drift = _check_drift(drift)
    # Parameters indexed [qubit, experiment]; one column serves all L
    # experiments while the noise is stationary.
    f0, f1, theta = np.array([[q.params.f0, q.params.f1, q.params.theta] for q in plan.qubits]).T[:, :, None]
    if drift is not None:
        # Every qubit shares experiment l's draw: one generator per experiment.
        df0, df1, dtheta = np.array([_philox(plan.seed, "drift", l).normal(0.0, drift, 3) for l in range(plan.L)]).T
        f0, f1, theta = np.clip(f0 + df0, 0.0, 1.0), np.clip(f1 + df1, 0.0, 1.0), theta + dtheta
    p = p_one(f0, f1, theta)
    counts = np.empty((len(CircuitKind), len(plan.qubits), plan.L), dtype=np.int64)
    for (k, kind), (i, q) in product(enumerate(CircuitKind), enumerate(plan.qubits)):
        counts[k, i] = count_stream(plan.seed, kind, q.index).binomial(plan.S, p[k, i], size=plan.L)
    return RunArchive(plan=plan, counts=counts, drift=drift)


def plan_doc(plan: ExperimentPlan) -> dict:
    """A plan as the ``qubits`` and ``plan`` fields of a device config."""
    return {
        "qubits": [
            {"index": q.index, "f0": q.params.f0, "f1": q.params.f1, "theta_rad": q.params.theta}
            for q in plan.qubits
        ],
        "plan": {"L": plan.L, "S": plan.S, "seed": plan.seed},
    }


def plan_from_doc(doc: dict, where: str) -> ExperimentPlan:
    """The plan that the ``qubits`` and ``plan`` fields of a device config or
    run manifest describe; ConfigError naming ``where`` and the offending
    field (``qubits[i]`` or ``plan``) if they do not describe one."""
    qubits = []
    for loc, q in records(doc, where, "qubits"):
        index = field(q, loc, "index", int)
        try:
            params = QubitNoiseParams(
                f0=field(q, loc, "f0", (int, float)),
                f1=field(q, loc, "f1", (int, float)),
                theta=field(q, loc, "theta_rad", (int, float)),
            )
            qubits.append(PlanQubit(index, params))
        except InvalidParameterError as exc:
            raise ConfigError(f"{loc}: {exc}") from exc
    settings = field(doc, where, "plan", dict)
    loc = f"{where}: plan"
    try:
        return ExperimentPlan(
            L=field(settings, loc, "L", int),
            S=field(settings, loc, "S", int),
            qubits=tuple(qubits),
            seed=field(settings, loc, "seed", int),
        )
    except InvalidParameterError as exc:
        raise ConfigError(f"{loc}: {exc}") from exc


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

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "toolkit_version": __version__,
        "status": "partial",
        **plan_doc(archive.plan),
        "drift": archive.drift,
        "started_at": _utc_now(),
    }
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


def load_archive(run_dir: str | Path) -> RunArchive:
    """Load a run directory written by :func:`save_archive`.

    Raises IncompleteArchiveError, naming the offending file, if the manifest
    is absent, not valid JSON, of another schema, not finalized or does not
    describe a valid plan and drift SIGMA, or if counts.csv is absent or
    deviates in any way from the layout :func:`save_archive` writes for the
    manifest's plan.
    """
    run = Path(run_dir)
    manifest = _read_manifest(run)
    try:
        plan = plan_from_doc(manifest, "manifest")
        drift = _check_drift(field(manifest, "manifest", "drift", (int, float, type(None))))
    except (ConfigError, InvalidParameterError) as exc:
        raise IncompleteArchiveError(
            f"{run}: manifest.json does not describe a valid run: {exc}",
            missing=("manifest.json",),
        ) from exc
    return RunArchive(plan=plan, counts=_read_counts(run / "counts.csv", plan), drift=drift)


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
