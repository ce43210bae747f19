"""Tests for the per-experiment estimators and the characterization pipeline."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import Distribution, hellinger, uniform_ideal
from reprobound.errors import (
    InsufficientDataError,
    ModelMismatchError,
    ModelMismatchWarning,
    SingularFidelityError,
)
from reprobound.estimator import (
    CharacterizationEstimate,
    characterize,
    invert_theta,
    per_experiment,
    population_stats,
    read_characterization_csv,
    write_characterization_csv,
)
from reprobound.noise_model import QubitNoiseParams, gamma_of, hellinger_1q
from reprobound.sampler import CircuitKind, ExperimentPlan, PlanQubit, RunArchive, run_plan

THETA_HAT_REFERENCE = 0.021283022167392  # 0.5 * asin(0.04 / 0.94)


def make_archive(params, L=8, S=512, seed=5):
    plan = ExperimentPlan(L=L, S=S, qubits=(PlanQubit(0, params),), seed=seed)
    return run_plan(plan)


def one_experiment(spam0=0, spam1=0, c=0, shots=4):
    """Estimates of a single experiment whose rows read the given ones counts."""
    return per_experiment([[spam0], [spam1], [c]], shots)


class TestPointEstimators:
    def test_f1_all_ones(self):
        assert one_experiment(spam1=4).f1[0] == 1.0

    def test_f1_hand_count(self):
        assert one_experiment(spam1=3).f1[0] == 0.75

    def test_f0_all_zeros(self):
        assert one_experiment(spam0=0).f0[0] == 1.0

    def test_f0_hand_count(self):
        assert one_experiment(spam0=2).f0[0] == 0.5

    def test_f0_all_ones(self):
        assert one_experiment(spam0=4).f0[0] == 0.0

    def test_pr_all_zeros(self):
        assert one_experiment(c=0).pr0[0] == 1.0

    def test_pr_hand_count(self):
        assert one_experiment(c=2).pr0[0] == 0.5

    def test_pr_all_ones(self):
        assert one_experiment(c=4).pr0[0] == 0.0


class TestHellingerSingle:
    """The one-qubit closed form :func:`hellinger_1q`."""

    def test_uniform_is_zero(self):
        assert hellinger_1q(0.5, 0.5) == 0.0

    def test_point_mass(self):
        assert hellinger_1q(1.0, 0.0) == pytest.approx(0.5411961001461969, abs=1e-15)

    def test_matches_general_route(self):
        pr = np.array([0.52, 0.48])
        general = hellinger(uniform_ideal(1), Distribution(1, pr))
        assert hellinger_1q(*pr) == pytest.approx(general, abs=1e-15)

    def test_grid_agreement_with_general(self):
        p0 = np.linspace(0.0, 1.0, 1000)
        shots = 1000
        ones = np.arange(shots + 1)
        p1 = ones / shots
        # The kernel on a grid, and per_experiment's d at every count 0..S.
        cases = [
            (p0, 1.0 - p0, hellinger_1q(p0, 1.0 - p0)),
            (1.0 - p1, p1, per_experiment(np.stack([ones, ones, ones]), shots).d),
        ]
        for pr0, pr1, d in cases:
            for a, b, d_ab in zip(pr0.tolist(), pr1.tolist(), d.tolist()):
                general = hellinger(uniform_ideal(1), Distribution(1, [a, b]))
                assert abs(d_ab - general) <= 1e-12


class TestPerExperiment:
    def test_hellinger_matches_hellinger_1q(self):
        shots = 1000
        ones = np.arange(shots + 1)
        est = per_experiment(np.stack([ones, ones, ones]), shots)
        for c, d in zip(ones.tolist(), est.d.tolist()):
            assert d == hellinger_1q(1.0 - c / shots, c / shots)

    def test_matches_point_estimators(self):
        archive = make_archive(QubitNoiseParams(0.9, 0.8, 0.05), L=5, S=64, seed=8)
        est = per_experiment(archive.counts[:, 0], 64)
        np.testing.assert_array_equal(est.f0, 1.0 - archive.ones(CircuitKind.SPAM0, 0) / 64)
        np.testing.assert_array_equal(est.f1, archive.ones(CircuitKind.SPAM1, 0) / 64)
        np.testing.assert_array_equal(est.pr0, 1.0 - archive.ones(CircuitKind.C, 0) / 64)
        np.testing.assert_array_equal(est.eps, est.f0 - est.f1)


class TestPopulationStats:
    def test_constant_pair(self):
        assert population_stats([0.5, 0.5]) == (0.5, 0.0)

    def test_zero_one(self):
        mean, sigma = population_stats([0.0, 1.0])
        assert mean == 0.5 and sigma == 0.5

    def test_long_constant_vector(self):
        mean, sigma = population_stats([0.3] * 203)
        assert mean == pytest.approx(0.3) and sigma == 0.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            population_stats([0.5])

    def test_against_textbook_two_pass(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            xs = rng.normal(0.3, 0.05, int(rng.integers(2, 200))).tolist()
            mean, sigma = population_stats(xs)
            ref_mean = statistics.fmean(xs)
            ref_sigma = math.sqrt(statistics.variance(xs) / len(xs))
            assert mean == pytest.approx(ref_mean, abs=1e-12)
            assert sigma == pytest.approx(ref_sigma, abs=1e-12)


class TestInvertTheta:
    def test_no_gate_error(self):
        assert invert_theta(0.04, 0.04, 0.97) == 0.0

    def test_reference_value(self):
        assert invert_theta(0.0, 0.04, 0.97) == pytest.approx(THETA_HAT_REFERENCE, abs=1e-14)

    def test_singular_fidelity(self):
        with pytest.raises(SingularFidelityError):
            invert_theta(0.0, 0.0, 0.5)

    def test_silent_clamp(self):
        # eps - gamma barely exceeds the denominator: float-level overshoot.
        theta = invert_theta(0.0, 0.5 * (1 + 5e-10), 0.75)
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)

    def test_warning_clamp(self):
        with pytest.warns(ModelMismatchWarning):
            theta = invert_theta(0.0, 0.5 * 1.005, 0.75)
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)

    def test_hard_mismatch(self):
        with pytest.raises(ModelMismatchError):
            invert_theta(0.0, 0.5 * 1.02, 0.75)

    @given(
        f0=st.floats(0.6, 1.0),
        f1=st.floats(0.6, 1.0),
        theta=st.floats(-0.7, 0.7),
    )
    def test_round_trip_through_gamma(self, f0, f1, theta):
        params = QubitNoiseParams(f0, f1, theta)
        recovered = invert_theta(gamma_of(params), params.eps, params.f)
        assert recovered == pytest.approx(theta, abs=1e-10)


class TestCharacterize:
    def test_perfect_device(self):
        archive = make_archive(QubitNoiseParams(1.0, 1.0, 0.0), L=8, S=1024)
        est = characterize(archive)[0]
        assert est.f0_mean == 1.0 and est.f1_mean == 1.0
        assert est.eps_mean == 0.0 and est.eps_sigma == 0.0
        # Uniform output: the distance sits at the binomial noise floor.
        assert est.d_mean <= 5 / math.sqrt(2 * 1024)
        assert abs(est.theta_hat) <= 0.05
        assert est.warnings == ()

    def test_synthetic_round_trip_within_five_sigma(self):
        truth = QubitNoiseParams(0.99, 0.95, THETA_HAT_REFERENCE)
        L, S = 50, 2048
        est = characterize(make_archive(truth, L=L, S=S, seed=77))[0]
        n_tot = L * S
        sigma_f0 = math.sqrt(truth.f0 * (1 - truth.f0) / n_tot)
        sigma_f1 = math.sqrt(truth.f1 * (1 - truth.f1) / n_tot)
        assert abs(est.f0_mean - truth.f0) <= 5 * sigma_f0
        assert abs(est.f1_mean - truth.f1) <= 5 * sigma_f1
        g = gamma_of(truth)
        sigma_gamma = 2 * math.sqrt((1 - g * g) / 4 / n_tot)
        assert abs(est.gamma_hat - g) <= 5 * sigma_gamma
        # Delta-method error bar for the angle.
        sigma_eps = math.sqrt(sigma_f0**2 + sigma_f1**2)
        sigma_x = math.sqrt(sigma_eps**2 + sigma_gamma**2) / (2 * truth.f - 1)
        sigma_theta = 0.5 * sigma_x / math.cos(2 * truth.theta)
        assert abs(est.theta_hat - truth.theta) <= 5 * sigma_theta

    def test_gamma_hat_identity(self):
        archive = make_archive(QubitNoiseParams(0.97, 0.9, 0.01), L=6, S=128, seed=3)
        est = characterize(archive)[0]
        pr1 = [int(ones) / 128 for ones in archive.ones(CircuitKind.C, 0)]
        pr0 = [1.0 - p for p in pr1]
        direct = statistics.fmean(pr0) - statistics.fmean(pr1)
        assert est.gamma_hat == pytest.approx(direct, abs=1e-12)

    def test_estimate_field_identities(self):
        est = characterize(make_archive(QubitNoiseParams(0.9, 0.8, 0.05)))[0]
        assert est.eps_mean == pytest.approx(est.f0_mean - est.f1_mean, abs=1e-12)
        assert est.f_mean == pytest.approx((est.f0_mean + est.f1_mean) / 2, abs=1e-12)
        assert est.eps_sigma >= 0.0 and est.d_sigma >= 0.0

    def test_singular_qubit_recorded_not_raised(self):
        # f0=1, f1=0 gives f_hat = 1/2 exactly: the angle is unidentifiable.
        singular = QubitNoiseParams(1.0, 0.0, 0.0)
        fine = QubitNoiseParams(0.99, 0.95, 0.0)
        plan = ExperimentPlan(
            L=4, S=256, qubits=(PlanQubit(0, singular), PlanQubit(1, fine)), seed=2
        )
        estimates = characterize(run_plan(plan))
        assert math.isnan(estimates[0].theta_hat)
        assert any("SingularFidelityError" in w for w in estimates[0].warnings)
        assert not math.isnan(estimates[1].theta_hat)

    def test_mismatched_data_recorded_not_raised(self):
        # Hand-made counts: f0 = f1 = 0.75 (eps = 0, 2f - 1 = 0.5) and a test
        # circuit that always reads 0 (gamma = 1), so the arcsin argument is
        # (eps - gamma) / (2f - 1) = -2, far outside [-1, 1].
        qubit = PlanQubit(0, QubitNoiseParams(0.75, 0.75, 0.0))
        plan = ExperimentPlan(L=4, S=256, qubits=(qubit,), seed=5)
        counts = np.array([[[64] * 4], [[192] * 4], [[0] * 4]])
        est = characterize(RunArchive(plan=plan, counts=counts))[0]
        assert math.isnan(est.theta_hat)
        assert any("ModelMismatchError" in w for w in est.warnings)

    def test_error_shrinks_with_scale(self):
        truth = QubitNoiseParams(0.99, 0.95, 0.0213)
        small = characterize(make_archive(truth, L=20, S=256, seed=31))[0]
        big = characterize(make_archive(truth, L=100, S=4096, seed=31))[0]
        # 80x more shots: the fidelity error should drop clearly.
        assert abs(big.f0_mean - truth.f0) < abs(small.f0_mean - truth.f0)


class TestCharacterizationCsv:
    def test_round_trip(self, tmp_path):
        archive = make_archive(QubitNoiseParams(0.98, 0.91, 0.02), L=5, S=64, seed=13)
        estimates = characterize(archive)
        path = tmp_path / "characterization.csv"
        write_characterization_csv(estimates, path)
        loaded = read_characterization_csv(path)
        assert loaded == estimates

    def test_nan_theta_round_trip(self, tmp_path):
        archive = make_archive(QubitNoiseParams(1.0, 0.0, 0.0), L=4, S=64, seed=1)
        estimates = characterize(archive)
        path = tmp_path / "characterization.csv"
        write_characterization_csv(estimates, path)
        loaded = read_characterization_csv(path)
        assert math.isnan(loaded[0].theta_hat)
        assert loaded[0].warnings == estimates[0].warnings


class TestEstimateValidation:
    def test_inconsistent_eps_rejected(self):
        with pytest.raises(ValueError):
            CharacterizationEstimate(
                qubit=0,
                f0_mean=0.9,
                f1_mean=0.8,
                eps_mean=0.2,
                eps_sigma=0.0,
                f_mean=0.85,
                gamma_hat=0.1,
                theta_hat=0.0,
                d_mean=0.1,
                d_sigma=0.0,
                L=2,
                S=4,
            )
