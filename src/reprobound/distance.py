"""Distributions over n-bit outcomes and the two statistics built on them.

Bitstrings are indexed by the integer s = sum_i 2**i * s_i, i.e. register
element i is bit i, least significant first. Device vendors disagree on this
convention, so it is fixed here once and used everywhere.

Distributions are dense vectors of length 2**n, capped at n = 20 (8M doubles)
because the closed-form machinery targets small, structured circuits. The
2**n-term reductions use exactly-rounded compensated summation (math.fsum) so
the tight identity tolerances stay honest at the cap.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CapacityError, InvalidParameterError, ShapeError

logger = logging.getLogger(__name__)

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


def hellinger_1q(pr0, pr1):
    """Hellinger distance of the two-outcome distribution (pr0, pr1) to the
    uniform (1/2, 1/2), elementwise over arrays.

    d = sqrt(1 - sqrt(Pr(0)/2) - sqrt(Pr(1)/2)), the one-qubit closed form;
    agrees with :func:`hellinger` on every two-outcome input.
    """
    return np.sqrt(np.maximum(0.0, 1.0 - np.sqrt(pr0 / 2.0) - np.sqrt(pr1 / 2.0)))


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
