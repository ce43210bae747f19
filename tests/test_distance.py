"""Tests of the dense-distribution oracle and its two overlap statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    MAX_QUBITS,
    CapacityError,
    Distribution,
    GammaVector,
    ShapeError,
    bc_uniform_closed_form,
    bhattacharyya,
    hellinger,
    product_noisy,
    uniform_ideal,
)
from reprobound.errors import InvalidParameterError

HELLINGER_DISJOINT_1Q = 0.5411961001461969  # sqrt(1 - sqrt(1/2))


def two_outcome(p0):
    return Distribution(1, np.array([p0, 1.0 - p0]))


def bc_bruteforce(gammas):
    """Independent oracle: explicit sum over all bitstrings, no vectorization."""
    n = len(gammas)
    terms = []
    for s in range(2**n):
        q = 1.0
        for i, g in enumerate(gammas):
            q *= (1.0 - g) / 2.0 if (s >> i) & 1 else (1.0 + g) / 2.0
        terms.append(math.sqrt(2.0**-n * q))
    return math.fsum(terms)


class TestDistributionValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidParameterError):
            Distribution(1, np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidParameterError):
            Distribution(1, np.array([0.6, 0.6]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            Distribution(2, np.array([0.5, 0.5]))

    def test_probs_are_immutable(self):
        d = uniform_ideal(1)
        with pytest.raises(ValueError):
            d.probs[0] = 0.3

    def test_gamma_vector_range(self):
        with pytest.raises(InvalidParameterError):
            GammaVector(np.array([0.5, 1.2]))


class TestUniformIdeal:
    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_entries(self, n):
        d = uniform_ideal(n)
        assert d.probs.shape == (2**n,)
        np.testing.assert_array_equal(d.probs, np.full(2**n, 2.0**-n))

    @pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1])
    def test_capacity(self, n):
        with pytest.raises(CapacityError):
            uniform_ideal(n)


class TestProductNoisy:
    def test_unbiased(self):
        np.testing.assert_array_equal(product_noisy([0.0]).probs, [0.5, 0.5])

    def test_single_bias(self):
        np.testing.assert_allclose(product_noisy([0.2]).probs, [0.6, 0.4], atol=1e-15)

    def test_two_qubit_against_bruteforce(self):
        gammas = [0.2, -0.4]
        d = product_noisy(gammas)
        for s in range(4):
            expected = 1.0
            for i, g in enumerate(gammas):
                expected *= (1.0 - g) / 2.0 if (s >> i) & 1 else (1.0 + g) / 2.0
            assert d.probs[s] == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=60)
    @given(
        gammas=arrays(
            np.float64,
            st.integers(1, 6),
            elements=st.floats(-1.0, 1.0),
        )
    )
    def test_is_valid_distribution(self, gammas):
        d = product_noisy(gammas)
        assert d.probs.min() >= 0.0
        assert math.fsum(d.probs.tolist()) == pytest.approx(1.0, abs=1e-12)


class TestBhattacharyya:
    def test_identical(self):
        assert bhattacharyya(uniform_ideal(1), uniform_ideal(1)) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint(self):
        assert bhattacharyya(two_outcome(1.0), two_outcome(0.0)) == 0.0

    def test_half_overlap(self):
        assert bhattacharyya(two_outcome(1.0), uniform_ideal(1)) == pytest.approx(
            math.sqrt(0.5), abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            bhattacharyya(uniform_ideal(1), uniform_ideal(2))

    @settings(max_examples=60)
    @given(
        raw=arrays(np.float64, 8, elements=st.floats(1e-6, 1.0)),
        raw2=arrays(np.float64, 8, elements=st.floats(1e-6, 1.0)),
    )
    def test_range_and_symmetry(self, raw, raw2):
        p = Distribution(3, raw / raw.sum())
        q = Distribution(3, raw2 / raw2.sum())
        bc = bhattacharyya(p, q)
        assert 0.0 <= bc <= 1.0
        assert bc == pytest.approx(bhattacharyya(q, p), abs=1e-12)


class TestHellinger:
    def test_identical_is_zero(self):
        assert hellinger(uniform_ideal(2), uniform_ideal(2)) == 0.0

    def test_disjoint_is_one(self):
        assert hellinger(two_outcome(1.0), two_outcome(0.0)) == 1.0

    def test_point_vs_uniform(self):
        assert hellinger(two_outcome(1.0), uniform_ideal(1)) == pytest.approx(
            HELLINGER_DISJOINT_1Q, abs=1e-15
        )


def test_hellinger_metric_properties():
    """Symmetry, identity, triangle inequality on 1000 random triples."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        p, q, r = (Distribution(n, rng.dirichlet(np.ones(2**n))) for _ in range(3))
        dpq, dqp = hellinger(p, q), hellinger(q, p)
        assert abs(dpq - dqp) <= 1e-9
        assert hellinger(p, p) <= 1e-9
        assert hellinger(p, r) <= dpq + hellinger(q, r) + 1e-9


def test_binomial_collapse():
    """Identical per-qubit biases collapse BC to a single power."""
    for n in range(1, 11):
        for gamma in np.linspace(-0.9, 0.9, 19):
            closed = ((math.sqrt(1 + gamma) + math.sqrt(1 - gamma)) / 2.0) ** n
            brute = bc_bruteforce([gamma] * n)
            assert brute == pytest.approx(closed, abs=1e-10)
            assert bc_uniform_closed_form([gamma] * n) == pytest.approx(closed, abs=1e-12)


def test_bc_closed_form_examples():
    assert bc_uniform_closed_form([0.0, 0.0, 0.0]) == 1.0
    # Direct evaluation of (sqrt(1.3) + sqrt(0.7))/2.
    assert bc_uniform_closed_form([0.3]) == pytest.approx(0.9884177258166068, abs=1e-15)
    gammas = [0.1, 0.1, 0.1]
    assert bc_uniform_closed_form(gammas) == pytest.approx(bc_bruteforce(gammas), abs=1e-12)


def test_bc_factorization_random_vectors():
    """BC(uniform, product) factorizes per qubit for non-identical biases."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        gammas = rng.uniform(-1.0, 1.0, n)
        factors = float(np.prod((np.sqrt(1 + gammas) + np.sqrt(1 - gammas)) / 2.0))
        via_dists = bhattacharyya(uniform_ideal(n), product_noisy(gammas))
        assert via_dists == pytest.approx(factors, abs=1e-10)
        assert bc_uniform_closed_form(gammas) == pytest.approx(via_dists, abs=1e-10)


def test_hellinger_monotone_in_bias_magnitude():
    grid = np.linspace(0.0, 1.0, 200)
    dists = [hellinger(uniform_ideal(1), product_noisy([g])) for g in grid]
    assert all(b >= a - 1e-15 for a, b in zip(dists, dists[1:]))
    mirrored = [hellinger(uniform_ideal(1), product_noisy([-g])) for g in grid]
    np.testing.assert_allclose(mirrored, dists, atol=1e-12)
