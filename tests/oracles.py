"""Brute-force references that the tests check the package's closed forms
against.

The package ships only the one-qubit closed forms its pipeline runs
(``noise_model.gamma_of`` and ``hellinger_1q``). The routes here compute
the same quantities the long way, so that the tests have an oracle
independent of the code under test:

* dense distributions over n-bit outcomes and the two statistics built on
  them, the Bhattacharyya coefficient and the Hellinger distance;
* the single-qubit gate and readout channels: the noisy Hadamard unitary,
  its control error, the column-stochastic assignment matrix and the
  two-operator Kraus readout, and the closed form ``observed_probs`` that
  both reduce to;
* numpy's generator on the MT19937 state of ``random.Random(seed)``, set
  the documented way, which the sampler's streams and the plain-Python
  binomial draw are checked against.

Bitstrings are indexed by the integer s = sum_i 2**i * s_i, i.e. register
element i is bit i, least significant first. Device vendors disagree on this
convention, so it is fixed here once and pinned by the tests.

Distributions are dense vectors of length 2**n, capped at n = 20 (8M doubles)
because the closed-form machinery targets small, structured circuits. The
2**n-term reductions use exactly-rounded compensated summation (math.fsum) so
the tight identity tolerances stay honest at the cap.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from functools import reduce

import numpy as np

from reprobound.errors import InvalidParameterError
from reprobound.noise_model import QubitNoiseParams, check_angle, gamma_of

logger = logging.getLogger(__name__)


class CapacityError(ValueError):
    """A register size outside the supported dense-vector range."""


class ShapeError(ValueError):
    """Two distributions with mismatched outcome spaces."""


class InvalidStateError(ValueError):
    """A density matrix fails the Hermitian / unit-trace / PSD checks."""


# ---------------------------------------------------------------------------
# dense distributions

MAX_QUBITS = 20

_SUM_ATOL = 1e-9


def _check_qubit_count(n: int) -> int:
    n = int(n)
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    return n


@dataclass(frozen=True)
class Distribution:
    """Probability vector over the 2**n computational-basis outcomes."""

    n: int
    probs: np.ndarray

    def __post_init__(self):
        n = _check_qubit_count(self.n)
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (2**n,):
            raise ShapeError(f"expected {2**n} probabilities for n={n}, got shape {probs.shape}")
        if np.any(~np.isfinite(probs)) or np.any(probs < 0.0):
            raise InvalidParameterError("probabilities must be finite and non-negative")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > _SUM_ATOL:
            raise InvalidParameterError(f"probabilities sum to {total!r}, not 1 within {_SUM_ATOL}")
        probs.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class GammaVector:
    """Per-register output biases gamma_i, each in [-1, 1]."""

    gammas: np.ndarray

    def __post_init__(self):
        gammas = np.atleast_1d(np.asarray(self.gammas, dtype=np.float64))
        _check_qubit_count(gammas.size)
        if np.any(~np.isfinite(gammas)) or np.any(np.abs(gammas) > 1.0):
            raise InvalidParameterError("each gamma must be finite and in [-1, 1]")
        gammas.setflags(write=False)
        object.__setattr__(self, "gammas", gammas)

    @property
    def n(self) -> int:
        return self.gammas.size


def _as_gammas(gammas) -> np.ndarray:
    if isinstance(gammas, GammaVector):
        return gammas.gammas
    return GammaVector(np.asarray(gammas, dtype=np.float64)).gammas


def uniform_ideal(n: int) -> Distribution:
    """The ideal output of the uniform-superposition circuit: all 2**-n."""
    n = _check_qubit_count(n)
    return Distribution(n, np.full(2**n, 2.0**-n))


def product_noisy(gammas) -> Distribution:
    """Cross-talk-free noisy output distribution of the n-qubit circuit.

    p_s = prod_i ((1+gamma_i)/2)**(1-s_i) * ((1-gamma_i)/2)**s_i, where s_i
    is bit i of the outcome index s.
    """
    g = _as_gammas(gammas)
    # Bit i of the outcome index selects within qubit i's pair, so qubit 0
    # must vary fastest: kron highest-index qubit first.
    pairs = [np.array([(1.0 + gi) / 2.0, (1.0 - gi) / 2.0]) for gi in g]
    probs = reduce(np.kron, reversed(pairs))
    return Distribution(g.size, probs)


def bhattacharyya(p: Distribution, q: Distribution) -> float:
    """Overlap BC(p, q) = sum_i sqrt(p_i q_i), clamped into [0, 1].

    1 exactly when p = q as vectors, 0 when the supports are disjoint.
    """
    if p.n != q.n:
        raise ShapeError(f"dimension mismatch: n={p.n} vs n={q.n}")
    bc = math.fsum(np.sqrt(p.probs * q.probs).tolist())
    if bc > 1.0 or bc < 0.0:
        logger.debug("clamping Bhattacharyya coefficient %r into [0, 1]", bc)
        bc = min(1.0, max(0.0, bc))
    return bc


def hellinger(p: Distribution, q: Distribution) -> float:
    """Hellinger distance sqrt(1 - BC(p, q)).

    Vanishes for identical distributions and reaches 1 for disjoint supports.
    Evaluated as sqrt(0.5 * sum((sqrt(p_i) - sqrt(q_i))**2)), which equals
    sqrt(1 - BC) for normalized inputs but is exactly zero for identical
    vectors instead of amplifying the 1 - BC cancellation error.
    """
    if p.n != q.n:
        raise ShapeError(f"dimension mismatch: n={p.n} vs n={q.n}")
    diff = np.sqrt(p.probs) - np.sqrt(q.probs)
    return math.sqrt(min(1.0, 0.5 * math.fsum((diff * diff).tolist())))


def bc_uniform_closed_form(gammas) -> float:
    """BC between the uniform ideal and the product noisy distribution.

    Factorizes over register elements as
    prod_i (sqrt(1+gamma_i) + sqrt(1-gamma_i))/2; for identical biases this
    collapses to ((sqrt(1+gamma) + sqrt(1-gamma))/2)**n.
    """
    g = _as_gammas(gammas)
    factors = (np.sqrt(1.0 + g) + np.sqrt(1.0 - g)) / 2.0
    bc = float(np.prod(factors))
    if bc > 1.0:
        logger.debug("clamping closed-form Bhattacharyya coefficient %r into [0, 1]", bc)
        bc = 1.0
    return bc


# ---------------------------------------------------------------------------
# single-qubit gate and readout channels

_DENSITY_ATOL = 1e-10


@dataclass(frozen=True)
class SingleQubitState:
    """Pure single-qubit state as a pair of computational-basis amplitudes."""

    amplitudes: tuple[complex, complex]

    def __post_init__(self):
        a0, a1 = self.amplitudes
        norm = abs(a0) ** 2 + abs(a1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise InvalidStateError(f"state norm {norm!r} differs from 1 by more than 1e-12")

    def density(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        vec = np.array(self.amplitudes, dtype=np.complex128)
        return np.outer(vec, vec.conj())


@dataclass(frozen=True)
class ReadoutMatrix:
    """Column-stochastic 2x2 assignment matrix Lambda.

    Entry (i, j) is the probability of reading ``i`` when the channel input
    is |j>, so observed probabilities are ``Lambda @ p_true``.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.shape != (2, 2):
            raise InvalidParameterError(f"readout matrix must be 2x2, got shape {entries.shape}")
        if np.any(entries < 0.0) or np.any(entries > 1.0):
            raise InvalidParameterError("readout matrix entries must lie in [0, 1]")
        col_sums = entries.sum(axis=0)
        if np.any(np.abs(col_sums - 1.0) > 1e-12):
            raise InvalidParameterError(f"readout matrix columns must sum to 1, got {col_sums}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def apply(self, p_true) -> np.ndarray:
        """Map a true two-outcome distribution to the observed one."""
        return self.entries @ np.asarray(p_true, dtype=np.float64)


def noisy_hadamard(theta: float) -> np.ndarray:
    """Real unitary of a Hadamard implemented with angle error ``theta``.

    Rows are [cos(pi/4+theta), sin(pi/4+theta)] and
    [sin(pi/4+theta), -cos(pi/4+theta)]; theta=0 gives the ideal gate.
    """
    theta = check_angle("theta", theta)
    a = math.pi / 4 + theta
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, s], [s, -c]], dtype=np.float64)


def control_error_operator(theta: float) -> np.ndarray:
    """Unitary control error E such that H~(theta) = E @ H.

    E is the 2D rotation by ``theta``; no error corresponds to the identity.
    """
    theta = check_angle("theta", theta)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def pre_readout_probs(theta: float) -> np.ndarray:
    """Outcome distribution of the noisy Hadamard before any readout error.

    Returns (Pr(0), Pr(1)) = ((1 - sin 2*theta)/2, (1 + sin 2*theta)/2).
    """
    theta = check_angle("theta", theta)
    s = math.sin(2.0 * theta)
    return np.array([(1.0 - s) / 2.0, (1.0 + s) / 2.0], dtype=np.float64)


def readout_matrix(params: QubitNoiseParams) -> ReadoutMatrix:
    """Assignment matrix [[f0, 1-f1], [1-f0, f1]] for the given fidelities."""
    return ReadoutMatrix(
        np.array(
            [[params.f0, 1.0 - params.f1], [1.0 - params.f0, params.f1]],
            dtype=np.float64,
        )
    )


def _check_density(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise InvalidStateError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(np.float64))):
        raise InvalidStateError("density matrix has non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > _DENSITY_ATOL:
        raise InvalidStateError("density matrix is not Hermitian within 1e-10")
    trace = rho.trace()
    if abs(trace - 1.0) > _DENSITY_ATOL:
        raise InvalidStateError(f"density matrix trace {trace!r} differs from 1 by more than 1e-10")
    if np.linalg.eigvalsh(rho).min() < -_DENSITY_ATOL:
        raise InvalidStateError("density matrix is not positive semidefinite within 1e-10")
    return rho


def kraus_readout(params: QubitNoiseParams, rho) -> np.ndarray:
    """Readout outcome probabilities of a state via the two-operator channel.

    The measurement operators are M0 = diag(sqrt(f0), sqrt(1-f1)) and
    M1 = diag(sqrt(1-f0), sqrt(f1)); Pr(i) = Tr(Mi^dag Mi rho). For diagonal
    ``rho`` this reproduces the classical assignment-matrix channel.

    Args:
        params: readout fidelities (the gate angle is not used here).
        rho: 2x2 density matrix, Hermitian / trace-1 / PSD within 1e-10.

    Returns:
        Array (Pr(0), Pr(1)), clipped to [0, 1] and normalized by Tr(rho).
    """
    rho = _check_density(rho)
    # Mi^dag Mi are diagonal, so only the populations contribute.
    pop0, pop1 = rho[0, 0].real, rho[1, 1].real
    pr0 = params.f0 * pop0 + (1.0 - params.f1) * pop1
    pr1 = (1.0 - params.f0) * pop0 + params.f1 * pop1
    probs = np.clip(np.array([pr0, pr1], dtype=np.float64), 0.0, 1.0)
    return probs / probs.sum()


def observed_probs(params: QubitNoiseParams) -> np.ndarray:
    """Observed circuit distribution ((1+gamma)/2, (1-gamma)/2).

    Identical to the assignment-matrix and Kraus readout routes applied to
    the noisy Hadamard's output; the closed form avoids the matrix product.
    """
    g = gamma_of(params)
    return np.array([(1.0 + g) / 2.0, (1.0 - g) / 2.0], dtype=np.float64)


def mt19937_generator(seed: int) -> np.random.Generator:
    """numpy's Generator on an MT19937 whose state is copied from ``random.Random(seed)``."""
    *key, pos = random.Random(seed).getstate()[1]
    bit_generator = np.random.MT19937()
    bit_generator.state = {"bit_generator": "MT19937", "state": {"key": np.array(key, dtype=np.uint32), "pos": pos}}
    return np.random.Generator(bit_generator)
