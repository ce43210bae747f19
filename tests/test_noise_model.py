"""Tests for the single-qubit noise model and of the gate and readout
channel oracles it is checked against."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    InvalidStateError,
    SingleQubitState,
    control_error_operator,
    kraus_readout,
    noisy_hadamard,
    pre_readout_probs,
    readout_matrix,
)
from reprobound.errors import InvalidParameterError
from reprobound.noise_model import QubitNoiseParams, gamma_of, observed_probs

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

probs_st = st.floats(0.0, 1.0)
theta_st = st.floats(-math.pi / 4 + 1e-9, math.pi / 4 - 1e-9)


class TestNoisyHadamard:
    def test_ideal(self):
        h = noisy_hadamard(0.0)
        np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)

    def test_quarter_turn_is_not(self):
        np.testing.assert_allclose(noisy_hadamard(math.pi / 4), [[0, 1], [1, 0]], atol=1e-12)

    def test_trig_entries(self):
        # Independent trig oracle: cos/sin of pi/4 + 0.05.
        h = noisy_hadamard(0.05)
        assert h[0, 0] == pytest.approx(0.6708824723277438, abs=1e-15)
        assert h[0, 1] == pytest.approx(0.7415636913464777, abs=1e-15)
        assert h[1, 0] == h[0, 1] and h[1, 1] == -h[0, 0]

    @pytest.mark.parametrize("theta", np.linspace(-math.pi / 4, math.pi / 4, 41))
    def test_unitary_on_grid(self, theta):
        h = noisy_hadamard(theta)
        np.testing.assert_allclose(h @ h.T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(InvalidParameterError):
            noisy_hadamard(bad)


class TestControlError:
    def test_no_error_is_identity(self):
        np.testing.assert_allclose(control_error_operator(0.0), np.eye(2), atol=0)

    def test_matches_gate_product(self):
        # E must satisfy H~(theta) = E @ H, i.e. E = H~(theta) @ H^T.
        product = noisy_hadamard(0.1) @ noisy_hadamard(0.0).T
        np.testing.assert_allclose(control_error_operator(0.1), product, atol=1e-15)

    def test_rotation_inverse(self):
        e = control_error_operator(0.3) @ control_error_operator(-0.3)
        np.testing.assert_allclose(e, np.eye(2), atol=1e-15)


class TestPreReadout:
    def test_ideal_is_uniform(self):
        np.testing.assert_allclose(pre_readout_probs(0.0), [0.5, 0.5], atol=0)

    def test_quarter_turn_deterministic(self):
        np.testing.assert_allclose(pre_readout_probs(math.pi / 4), [0.0, 1.0], atol=1e-15)

    def test_small_angle(self):
        # (1 -/+ sin 0.1)/2 evaluated independently.
        pr = pre_readout_probs(0.05)
        assert pr[0] == pytest.approx(0.4500832916765859, abs=1e-15)
        assert pr[1] == pytest.approx(0.5499167083234141, abs=1e-15)

    @given(theta=theta_st)
    def test_sums_to_one(self, theta):
        assert pre_readout_probs(theta).sum() == pytest.approx(1.0, abs=1e-12)


class TestParamsValidation:
    @pytest.mark.parametrize("f0,f1", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 2.0)])
    def test_rejects_out_of_range_fidelities(self, f0, f1):
        with pytest.raises(InvalidParameterError):
            QubitNoiseParams(f0, f1, 0.0)

    def test_rejects_theta_outside_default_region(self):
        with pytest.raises(InvalidParameterError):
            QubitNoiseParams(1.0, 1.0, math.pi / 4)


class TestReadoutMatrix:
    def test_noiseless_is_identity(self):
        m = readout_matrix(QubitNoiseParams(1.0, 1.0, 0.0))
        np.testing.assert_allclose(m.entries, np.eye(2), atol=0)

    def test_apply(self):
        m = readout_matrix(QubitNoiseParams(0.9, 0.8, 0.0))
        np.testing.assert_allclose(m.apply([1.0, 0.0]), [0.9, 0.1], atol=1e-15)

    @pytest.mark.parametrize("p_true", [[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    def test_fully_depolarizing(self, p_true):
        m = readout_matrix(QubitNoiseParams(0.5, 0.5, 0.0))
        np.testing.assert_allclose(m.apply(p_true), [0.5, 0.5], atol=1e-15)

    @given(f0=probs_st, f1=probs_st)
    def test_column_stochastic(self, f0, f1):
        m = readout_matrix(QubitNoiseParams(f0, f1, 0.0))
        np.testing.assert_allclose(m.entries.sum(axis=0), [1.0, 1.0], atol=1e-12)
        assert m.entries.min() >= 0.0 and m.entries.max() <= 1.0


class TestGamma:
    def test_perfect_device(self):
        assert gamma_of(QubitNoiseParams(1.0, 1.0, 0.0)) == 0.0

    def test_pure_readout_asymmetry(self):
        assert gamma_of(QubitNoiseParams(0.99, 0.95, 0.0)) == pytest.approx(0.04, abs=1e-15)

    def test_gate_and_readout_cancel(self):
        # sin(2*theta) = eps / (2*(f - 1/2)) makes the two terms cancel.
        theta = 0.5 * math.asin(0.04 / (2 * (0.97 - 0.5)))
        assert gamma_of(QubitNoiseParams(0.99, 0.95, theta)) == pytest.approx(0.0, abs=1e-15)

    @given(f0=probs_st, f1=probs_st, theta=theta_st)
    def test_consistency_with_observed(self, f0, f1, theta):
        params = QubitNoiseParams(f0, f1, theta)
        pr = observed_probs(params)
        assert abs(gamma_of(params)) <= 1.0
        assert pr.min() >= 0.0
        assert pr.sum() == pytest.approx(1.0, abs=1e-12)
        assert pr[0] - pr[1] == pytest.approx(gamma_of(params), abs=1e-12)


class TestObservedProbs:
    def test_perfect_device(self):
        np.testing.assert_allclose(observed_probs(QubitNoiseParams(1.0, 1.0, 0.0)), [0.5, 0.5])

    def test_asymmetry_only(self):
        pr = observed_probs(QubitNoiseParams(0.99, 0.95, 0.0))
        np.testing.assert_allclose(pr, [0.52, 0.48], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_matrix_route(self, seed):
        rng = np.random.default_rng(seed)
        params = QubitNoiseParams(rng.random(), rng.random(), rng.uniform(-0.7, 0.7))
        via_matrix = readout_matrix(params).apply(pre_readout_probs(params.theta))
        np.testing.assert_allclose(observed_probs(params), via_matrix, atol=1e-12)


class TestKrausReadout:
    def test_ground_state(self):
        pr = kraus_readout(QubitNoiseParams(0.97, 0.90, 0.0), KET0)
        assert pr[0] == pytest.approx(0.97, abs=1e-15)

    def test_excited_state(self):
        pr = kraus_readout(QubitNoiseParams(0.90, 0.93, 0.0), KET1)
        assert pr[1] == pytest.approx(0.93, abs=1e-15)

    def test_full_channel_matches_closed_form(self):
        params = QubitNoiseParams(0.98, 0.94, 0.02)
        h = noisy_hadamard(params.theta)
        ket = h[:, 0]
        rho = np.outer(ket, ket.conj()).astype(complex)
        np.testing.assert_allclose(kraus_readout(params, rho), observed_probs(params), atol=1e-12)

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            kraus_readout(QubitNoiseParams(1.0, 1.0, 0.0), rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            kraus_readout(QubitNoiseParams(1.0, 1.0, 0.0), 0.7 * KET0)

    def test_rejects_negative_state(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidStateError):
            kraus_readout(QubitNoiseParams(1.0, 1.0, 0.0), rho)


def test_channel_equivalence_random_grid():
    """Kraus channel on the post-gate state equals the closed form, 1000 draws."""
    rng = np.random.default_rng(20260810)
    for _ in range(1000):
        params = QubitNoiseParams(rng.random(), rng.random(), rng.uniform(-0.78, 0.78))
        h = noisy_hadamard(params.theta)
        rho = np.outer(h[:, 0], h[:, 0]).astype(complex)
        kraus = kraus_readout(params, rho)
        np.testing.assert_allclose(kraus, observed_probs(params), atol=1e-10)
        np.testing.assert_allclose(
            kraus, readout_matrix(params).apply(pre_readout_probs(params.theta)), atol=1e-10
        )


class TestSingleQubitState:
    def test_density_of_ground_state(self):
        state = SingleQubitState((1.0 + 0j, 0j))
        np.testing.assert_allclose(state.density(), KET0)

    def test_superposition_density(self):
        a = 1 / math.sqrt(2)
        rho = SingleQubitState((a, a)).density()
        np.testing.assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            SingleQubitState((1.0, 1.0))
