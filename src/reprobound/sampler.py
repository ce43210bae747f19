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
and theta of every qubit by one common N(0, SIGMA) draw each, the normals
3l, 3l + 1 and 3l + 2 of the run's drift stream, and clips f0 and f1 into
[0, 1] before the table is built.

A :class:`RunArchive` keeps the counts as plain ints in an immutable nested
tuple, ``counts[kind][qubit position][experiment]``, and is the one home of
the count rule: its constructor checks the shape and that each count is an
int in [0, S], whoever built the counts. That nesting is this module's
alone: every other module reads a qubit's three rows through
:meth:`RunArchive.qubit_counts`, which pairs them with the qubit's index in
plan order. numpy's
``Generator.binomial`` on MT19937 draws them, or ``_stream``, a plain-Python
port of that draw which returns the same ints from the same stream without
loading numpy. The port draws every stationary plan whose streams are too
few or too short to repay numpy's cost per process and per stream: beyond
the first ``_STREAM_SETUP_COUNTS`` counts of each stream, they must hold
more than :data:`PORT_MAX_COUNTS` counts for numpy to draw.
:func:`run_plan` makes that choice, with :func:`_draws_with_numpy`, and
records it as the archive's ``numpy_version``, which the manifest carries
through a save and a load. Nothing that reads the counts needs numpy.

Reproducibility of this engine is non-negotiable, so each (circuit kind,
qubit) pair draws its L counts from its own MT19937 stream, seeded by
Python's int seeder from (master seed, circuit kind, qubit) alone: stream
(id, key) is ``random.Random(seed + 2**64 * (id + 4 * key))``, whose
sequence CPython keeps stable across versions. Re-running a plan with the
same SIGMA yields identical counts, and one qubit's counts do not depend on
the other qubits of the plan.

A plan has one document format, the device config's ``qubits`` and
``plan`` fields (:func:`plan_doc` writes it, :func:`plan_from_doc` reads
it). :func:`qubit_from_record` reads every ``qubits[]`` record, those of a
calibration snapshot too. A run archive persists as a directory holding one
file::

    manifest.json     schema, toolkit version, that plan document, drift
                      SIGMA, the archive's numpy_version, UTC timestamp,
                      and last the counts

:func:`save_archive` is its only writer and :func:`load_archive` its only
reader, so a run's counts and the plan that explains them are written and
read together. The manifest's ``counts`` object holds, under each kind
``spam0``, ``spam1`` and ``c``, one string per qubit in plan order:
``counts[k][i]``, its L counts as ``str`` writes them, separated by commas.
A row of text rather than a JSON array keeps one row per line of the
indented file and spares the reader a Python call per count. The reader
checks only the text: a row must be integers as ``str`` writes them, L of
them, which one match per row checks. It leaves the count rule to the
:class:`RunArchive` it builds.
"""

from __future__ import annotations

import re
import time
from enum import Enum
from itertools import chain, product
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ._version import __version__
from .artifacts import field, read_json, records, write_json
from .errors import ConfigError, IncompleteArchiveError, InvalidParameterError
from .noise_model import (
    QubitNoiseParams,
    Record,
    check_drift,
    check_experiments,
    check_index,
    check_int,
    check_unique_indices,
    output_bias,
)

__all__ = [
    "CircuitKind",
    "ExperimentPlan",
    "PlanQubit",
    "RunArchive",
    "load_archive",
    "p_one",
    "run_plan",
    "save_archive",
]

# numpy is imported only inside the functions that draw counts: the CLI
# imports this module for every command, and only simulate draws.
if TYPE_CHECKING:
    import random

    import numpy as np

MANIFEST_SCHEMA = "run-manifest/7"

# Most counts a plan may ask for (3 kinds x qubits x L). 10**6
# counts make a manifest of about 4.7 MB, 60 times the 27-qubit L=203
# reference; a larger plan is rejected before anything is allocated.
MAX_COUNTS = 10**6


class CircuitKind(str, Enum):
    """The three circuit families of the characterization protocol."""

    SPAM0 = "spam0"
    SPAM1 = "spam1"
    C = "c"


# Every stream id the engine reserves; part of the on-disk reproducibility
# contract. The circuit kinds' ids double as the kind axis of the archive's
# counts, keyed by qubit index; the drift draws from stream 3, keyed by 0.
_STREAM_IDS = {"spam0": 0, "spam1": 1, "c": 2, "drift": 3}


def p_one(f0, f1, theta) -> np.ndarray | tuple[float, float, float]:
    """Probability that one shot reads 1, elementwise over the noise
    parameters, stacked along a leading kind axis in the archive's kind
    order: 1 - f0 for SPAM(0), f1 for SPAM(1) and, with Pr(0) = (1 + gamma)/2
    after the noisy Hadamard and readout, (1 - gamma)/2 for the test circuit C.

    Python numbers give a tuple of three floats without loading numpy, the
    doubles that the elementwise array form gives; arrays give an array.
    """
    gamma = output_bias(f0 - f1, theta, (f0 + f1) / 2.0)
    p = (1.0 - f0, f1, (1.0 - gamma) / 2.0)
    # binomial rejects p outside [0, 1], where rounding can put (1 - gamma)/2.
    if isinstance(theta, (int, float)):
        return tuple(min(max(float(x), 0.0), 1.0) for x in p)
    import numpy as np

    return np.clip(np.stack(np.broadcast_arrays(*p)), 0.0, 1.0)


class PlanQubit(Record):
    """One register element and its ground-truth noise parameters."""

    index: int
    params: QubitNoiseParams

    def __post_init__(self):
        check_index(self.index)


class ExperimentPlan(Record):
    """L experiments of S shots for each circuit kind and register element."""

    L: int
    S: int
    qubits: tuple[PlanQubit, ...]
    seed: int

    def __post_init__(self):
        check_experiments(self.L, self.S)
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if not self.qubits:
            raise InvalidParameterError("plan needs at least one qubit")
        if self.count_total > MAX_COUNTS:
            raise InvalidParameterError(
                f"plan asks for {len(CircuitKind)} kinds x {len(self.qubits)} qubits x L={self.L} counts, "
                f"more than the supported {MAX_COUNTS}"
            )
        check_unique_indices(q.index for q in self.qubits)
        if not 0 <= check_int("seed", self.seed) < 2**64:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return tuple(q.index for q in self.qubits)

    @property
    def count_total(self) -> int:
        """How many counts the plan draws: one per kind, qubit and experiment."""
        return len(CircuitKind) * len(self.qubits) * self.L


Counts = tuple[tuple[tuple[int, ...], ...], ...]


class RunArchive(Record):
    """The outcome counts of one executed plan, the drift SIGMA they were
    drawn under (None for stationary noise) and the version of numpy that
    drew them (None when ``_stream`` drew them or a caller built them).

    ``counts[k][i][l]`` is how many of the S shots of experiment ``l`` read
    1, for circuit kind ``k`` (0 SPAM(0), 1 SPAM(1), 2 C) on the plan's
    ``i``-th qubit (``plan.qubits[i]``), an int in [0, S]. Any nested
    sequence of that shape is accepted and kept as nested tuples. The
    constructor is the one check of the count rule, for counts that
    ``run_plan`` drew, that ``load_archive`` read or that a caller built;
    its error names the first bad count by kind, qubit and experiment.
    Outside this module the counts are read through :meth:`qubit_counts`. The
    counts are fully determined by (plan, drift): ``run_plan(archive.plan,
    drift=archive.drift)`` draws them again. ``numpy_version`` is
    provenance, a str or None, and is not checked against the counts.
    """

    plan: ExperimentPlan
    counts: Counts
    drift: float | None = None
    numpy_version: str | None = None

    # Compared and hashed by identity, not by the counts of every experiment.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        object.__setattr__(self, "drift", check_drift(self.drift))
        if not isinstance(self.numpy_version, (str, type(None))):
            raise InvalidParameterError(f"numpy_version must be a str or None, got {self.numpy_version!r}")
        kinds, qubits, L = shape = (len(CircuitKind), len(self.plan.qubits), self.plan.L)
        try:
            counts = tuple(tuple(tuple(row) for row in rows) for rows in self.counts)
        except TypeError:
            raise InvalidParameterError(f"counts must be nested sequences of shape {shape}") from None
        rows = list(chain.from_iterable(counts))
        lengths = (len(counts), {len(per_kind) for per_kind in counts}, {len(row) for row in rows})
        if lengths != (kinds, {qubits}, {L}):
            raise InvalidParameterError(f"counts must have the shape {shape}")
        S = self.plan.S
        # Exactly int: a float would be truncated and a bool is no count. The
        # whole table is checked at once, row by row rather than through one
        # flat list of every count; only a bad one is searched.
        if set(map(type, chain.from_iterable(rows))) != {int} or min(map(min, rows)) < 0 or max(map(max, rows)) > S:
            for (kind, qubit), row in zip(product([k.value for k in CircuitKind], self.plan.qubit_indices), rows):
                for l, value in enumerate(row):
                    if type(value) is not int or not 0 <= value <= S:
                        raise InvalidParameterError(
                            f"{kind} qubit {qubit} experiment {l}: count {value!r} must be an int in [0, S={S}]"
                        )
        object.__setattr__(self, "counts", counts)

    def qubit_counts(self) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
        """Each qubit's index with its SPAM(0), SPAM(1) and test-circuit
        rows of L counts, ``(index, (spam0, spam1, c))``, in plan order."""
        return zip(self.plan.qubit_indices, zip(*self.counts))


def _mersenne(seed: int, stream: str, key: int) -> random.Random:
    """The MT19937 of reserved stream ``stream``, keyed by (seed, key). The
    map from (seed, stream id, key) to its int seed is one-to-one, since
    the seed is below 2**64 and the ids below 4."""
    import random

    return random.Random(int(seed) + 2**64 * (_STREAM_IDS[stream] + 4 * int(key)))


def _generator(rng: random.Random, mt: np.random.MT19937) -> np.random.Generator:
    """numpy's generator on the MT19937 ``mt`` put in the state of ``rng``:
    its doubles are those of ``rng.random()``, so its binomials are
    ``_stream``'s.

    run_plan draws its streams one after another on one MT19937: seeding a
    new one costs about 150 us (a shared 2-core x86 box), ten times what the
    rest of this costs. The key goes in as a list, in the legacy
    ``("MT19937", key, pos)`` form of numpy's state setter, which copies it
    in 5 us, where an array takes 110 us.
    """
    import numpy as np

    *key, pos = rng.getstate()[1]
    mt.state = ("MT19937", key, pos)
    return np.random.Generator(mt)


# When run_plan draws with _stream rather than numpy. Each costs CPU per
# process, per stream and per count; numpy's path costs more for the first
# two and less for the last. Measured with time.process_time and os.wait4,
# Python 3.11 on a shared 2-core x86 box:
# - per process, numpy costs 172-197 ms more (a fresh interpreter drawing a
#   6-count plan; medians of 41 pairs, twice);
# - per stream, numpy costs 28-38 us more, mostly in getstate and the state
#   setter, and per count the port costs 0.65-0.93 us more, the dearest at
#   S = 1024.
#   Both come from one least-squares fit per S, over medians of 7 pairs at
#   L = 2, 26, 101 and 203, for S from 64 to 131072.
# So a stream's first 33-54 counts pay for numpy's set-up of it: 40 here.
# Past them, 170 ms / 0.93 us is 183,000 counts, rounded down to
# PORT_MAX_COUNTS.
_STREAM_SETUP_COUNTS = 40
PORT_MAX_COUNTS = 170_000


def _draws_with_numpy(plan: ExperimentPlan, drift: float | None) -> bool:
    """Whether numpy draws the counts of ``plan`` under ``drift``, and not
    ``_stream``, its plain-Python port; both draw the same ints. Drift needs
    numpy's normals, which the port does not reproduce; S >= 2**53
    (``_stream.MAX_N``) needs numpy's int64 arithmetic; numpy costs less
    CPU once its streams hold more than PORT_MAX_COUNTS counts past the
    first _STREAM_SETUP_COUNTS of each."""
    streams = len(CircuitKind) * len(plan.qubits)
    return drift is not None or plan.S >= 2**53 or streams * (plan.L - _STREAM_SETUP_COUNTS) > PORT_MAX_COUNTS


def run_plan(plan: ExperimentPlan, *, drift: float | None = None) -> RunArchive:
    """Draw the ones count of every experiment of a plan.

    The archive's ``numpy_version`` is numpy's version when numpy drew the
    counts and None when ``_stream`` did.

    Args:
        plan: what to run.
        drift: optional common-mode drift SIGMA: experiment l adds one
            N(0, SIGMA) draw each to f0, f1 and theta of every qubit, and f0
            and f1 are clipped into [0, 1]. Off by default; the baseline
            protocol assumes stationary noise.
    """
    drift = check_drift(drift)
    if not _draws_with_numpy(plan, drift):
        from . import _stream

        p = [p_one(q.params.f0, q.params.f1, q.params.theta) for q in plan.qubits]
        # The (kind, qubit) streams that numpy's path draws too.
        counts = [
            [
                _stream.binomials(_mersenne(plan.seed, kind.value, q.index).random, plan.S, p[i][k], plan.L)
                for i, q in enumerate(plan.qubits)
            ]
            for k, kind in enumerate(CircuitKind)
        ]
        return RunArchive(plan=plan, counts=counts, drift=drift)

    import numpy as np

    # Parameters indexed [qubit, experiment]; one column serves all L
    # experiments while the noise is stationary.
    f0, f1, theta = np.array([[q.params.f0, q.params.f1, q.params.theta] for q in plan.qubits]).T[:, :, None]
    # Every stream in turn, each drawn to its end before the next.
    mt = np.random.MT19937()
    if drift is not None:
        # Every qubit shares experiment l's draw: normals 3l..3l+2 of one
        # stream, so experiment l's perturbation does not depend on L.
        normals = _generator(_mersenne(plan.seed, "drift", 0), mt).normal(0.0, drift, (plan.L, 3))
        df0, df1, dtheta = normals.T
        f0, f1, theta = np.clip(f0 + df0, 0.0, 1.0), np.clip(f1 + df1, 0.0, 1.0), theta + dtheta
    p = p_one(f0, f1, theta)
    counts = [
        [
            _generator(_mersenne(plan.seed, kind.value, q.index), mt)
            .binomial(plan.S, p[k, i], size=plan.L)
            .tolist()
            for i, q in enumerate(plan.qubits)
        ]
        for k, kind in enumerate(CircuitKind)
    ]
    return RunArchive(plan=plan, counts=counts, drift=drift, numpy_version=np.__version__)


def plan_doc(plan: ExperimentPlan) -> dict:
    """A plan as the ``qubits`` and ``plan`` fields of a device config."""
    return {
        "qubits": [
            {"index": q.index, "f0": q.params.f0, "f1": q.params.f1, "theta_rad": q.params.theta}
            for q in plan.qubits
        ],
        "plan": {"L": plan.L, "S": plan.S, "seed": plan.seed},
    }


def qubit_from_record(q: dict, loc: str, theta: float | None = None) -> PlanQubit:
    """The qubit that the ``qubits[]`` record ``q`` describes by its
    ``index``, ``f0``, ``f1`` and ``theta_rad`` fields, with ``theta``, when
    given, standing in for ``theta_rad``; ConfigError naming ``loc`` unless
    they make a valid :class:`PlanQubit`. The one reader of a qubit record:
    device config, run manifest and calibration snapshot, whose angle
    ``verdict`` converts to radians and passes as ``theta``."""
    try:
        return PlanQubit(
            field(q, loc, "index", int),
            QubitNoiseParams(
                f0=field(q, loc, "f0", (int, float)),
                f1=field(q, loc, "f1", (int, float)),
                theta=field(q, loc, "theta_rad", (int, float)) if theta is None else theta,
            ),
        )
    except InvalidParameterError as exc:
        raise ConfigError(f"{loc}: {exc}") from exc


def plan_from_doc(doc: dict, where: str) -> ExperimentPlan:
    """The plan that the ``qubits`` and ``plan`` fields of a device config or
    run manifest describe; ConfigError naming ``where`` and the offending
    field (``qubits[i]`` or ``plan``) if they do not describe one. A
    calibration snapshot describes no plan: ``verdict`` reads its records
    with :func:`qubit_from_record` alone."""
    qubits = [qubit_from_record(q, loc) for loc, q in records(doc, where, "qubits")]
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


def save_archive(archive: RunArchive, out_dir: str | Path) -> Path:
    """Persist an archive as a run directory; returns the directory path.

    The manifest is the directory's one file: the previous one is removed
    first and the new one written once, so a save that fails part way
    leaves none.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "toolkit_version": __version__,
        **plan_doc(archive.plan),
        "drift": archive.drift,
        # What drew the counts, as run_plan recorded it: numpy does not
        # promise that Generator.binomial keeps its stream across versions.
        "numpy_version": archive.numpy_version,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "counts": {
            kind.value: [",".join(map(str, row)) for row in rows] for kind, rows in zip(CircuitKind, archive.counts)
        },
    }
    write_json(out / "manifest.json", manifest)
    return out


def load_archive(run_dir: str | Path) -> RunArchive:
    """Load a run directory written by :func:`save_archive`.

    Raises IncompleteArchiveError, naming manifest.json, if the manifest is
    missing, not valid JSON, of another schema or does not describe a valid
    plan, drift SIGMA, numpy version (a string or null) and the counts of
    that plan. The archive keeps the manifest's numpy version, so saving it
    again writes the same one.
    """
    run = Path(run_dir)
    path = run / "manifest.json"
    if not path.is_file():
        raise IncompleteArchiveError(f"{run}: no manifest.json")
    manifest = read_json(path, MANIFEST_SCHEMA, IncompleteArchiveError)
    try:
        plan = plan_from_doc(manifest, "manifest")
        drift = check_drift(field(manifest, "manifest", "drift", (int, float, type(None))))
        numpy_version = field(manifest, "manifest", "numpy_version", (str, type(None)))
        counts = _read_counts(field(manifest, "manifest", "counts", dict), plan)
        return RunArchive(plan=plan, counts=counts, drift=drift, numpy_version=numpy_version)
    except (ConfigError, InvalidParameterError) as exc:
        raise IncompleteArchiveError(f"{run}: manifest.json does not describe a valid run: {exc}") from exc


# An integer as ``str`` writes one: no leading zero, no sign on zero, and
# [0-9], not \d, which also matches the non-ASCII digits int reads.
_INT_TEXT = r"(?:0|-?[1-9][0-9]*+)"
# The text rule for a row of counts: comma-separated counts, each an integer
# as str writes it. The repeats are possessive: a plain outer one keeps
# about 270 bytes of backtracking state per count it has matched (78 MB
# over a row of 333,333).
_COUNTS_TEXT = rf"{_INT_TEXT}(?:,{_INT_TEXT})*+"


def _read_counts(doc: dict, plan: ExperimentPlan) -> list[list[tuple[int, ...]]]:
    """Parse the manifest's ``counts`` object, ``doc``, into the nested
    count tuples of ``plan``.

    Under each kind, ``doc`` must hold a list of one row per qubit, each
    row a string of L integers as ``str`` writes them, separated by commas.
    Whether each is a count in [0, S] is the :class:`RunArchive` rule,
    checked when the archive is built. Each row's string is dropped from
    ``doc`` once it is parsed, so that the text and the ints of every row
    are never held at once. ConfigError names the kind and the qubit of
    the first bad row.
    """
    # Compiled here, so that only the commands that load an archive pay for it.
    counts_text = re.compile(_COUNTS_TEXT).fullmatch
    counts = []
    for kind in CircuitKind:
        rows = field(doc, "manifest: counts", kind.value, list)
        where = f"manifest: counts: {kind.value}"
        if len(rows) != len(plan.qubits):
            raise ConfigError(
                f"{where} qubit {plan.qubit_indices[len(rows)]}: no row; the list ends after {len(rows)}"
                if len(rows) < len(plan.qubits)
                else f"{where}: {len(rows)} rows, more than the plan's {len(plan.qubits)} qubits"
            )
        parsed = []
        for i, qubit in enumerate(plan.qubit_indices):
            text, rows[i] = rows[i], None
            loc = f"{where} qubit {qubit}"
            if not isinstance(text, str):
                raise ConfigError(f"{loc}: row has wrong type {type(text).__name__}")
            # One match checks the row; only a bad row is searched for its fault.
            if counts_text(text) is None:
                l, cell = next((l, c) for l, c in enumerate(text.split(",")) if re.fullmatch(_INT_TEXT, c) is None)
                raise ConfigError(f"{loc} experiment {l}: count {cell!r} is not an integer as str writes one")
            ones = text.split(",")
            if len(ones) != plan.L:
                raise ConfigError(f"{loc}: {len(ones)} counts, expected L={plan.L}")
            try:
                parsed.append(tuple(map(int, ones)))
            except ValueError as exc:  # a count past int's digit limit
                raise ConfigError(f"{loc}: {exc}") from exc
        counts.append(parsed)
    return counts
