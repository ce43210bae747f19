"""Tests for the reproducibility bound, lemma verifier, and sample planner."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from oracles import Distribution, hellinger, product_noisy, uniform_ideal
from reprobound.bounds import (
    LemmaA1Report,
    ReproVerdict,
    default_lemma_grids,
    delta_star,
    exact_hellinger_1q,
    gamma_device,
    gamma_max,
    lemma_a1_check,
    min_delta,
    normal_quantile,
    plan_samples,
    read_verdicts_csv,
    verdict,
    write_lemma_report,
    write_verdicts_csv,
)
from reprobound.errors import InvalidParameterError, OutOfRegimeError
from reprobound.noise_model import QubitNoiseParams, gamma_of, observed_probs

DELTA_STAR_1 = 0.5411961001461969  # sqrt(1 - 2**-0.5)


class TestDeltaStar:
    def test_one_qubit_value(self):
        assert delta_star(1) == pytest.approx(DELTA_STAR_1, abs=1e-15)

    def test_grows_with_n(self):
        values = [delta_star(n) for n in range(1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestGammaDevice:
    def test_perfect(self):
        assert gamma_device(0.0, 0.0, 1.0) == 0.0

    def test_readout_only(self):
        assert gamma_device(0.04, 0.0, 0.97) == pytest.approx(0.04, abs=1e-15)

    def test_cancellation(self):
        theta = 0.5 * math.asin(0.04 / (2 * (0.97 - 0.5)))
        assert gamma_device(0.04, theta, 0.97) == pytest.approx(0.0, abs=1e-15)

    def test_matches_noise_model_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            params = QubitNoiseParams(rng.random(), rng.random(), rng.uniform(-0.7, 0.7))
            assert gamma_device(params.eps, params.theta, params.f) == pytest.approx(
                abs(gamma_of(params)), abs=1e-15
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            gamma_device(1.5, 0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            gamma_device(0.0, 0.0, 1.5)


class TestGammaMax:
    def test_zero_tolerance(self):
        assert gamma_max(1, 0.0) == 0.0

    def test_boundary_reaches_one(self):
        assert gamma_max(1, delta_star(1)) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        assert gamma_max(1, 0.1) == pytest.approx(0.2793133723973847, abs=1e-15)
        assert gamma_max(1, 0.01) == pytest.approx(0.028280735775423366, abs=1e-15)

    def test_out_of_regime_carries_ceiling(self):
        with pytest.raises(OutOfRegimeError) as excinfo:
            gamma_max(1, 0.6)
        assert excinfo.value.delta_star == pytest.approx(DELTA_STAR_1, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            gamma_max(1, -0.1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_strictly_increasing_in_delta(self, n):
        grid = np.linspace(0.0, delta_star(n), 500)
        values = [gamma_max(n, d) for d in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestVerdict:
    def test_perfect_device(self):
        v = verdict(1, 0.1, eps=0.0, theta=0.0, f=1.0)
        assert v.reproducible
        assert v.gamma_D == 0.0
        assert v.margin == v.gamma_max

    def test_tight_tolerance_fails(self):
        v = verdict(1, 0.01, eps=0.04, theta=0.0, f=0.97)
        assert not v.reproducible and v.margin < 0

    def test_loose_tolerance_passes(self):
        v = verdict(1, 0.05, eps=0.04, theta=0.0, f=0.97)
        assert v.reproducible
        assert v.gamma_max == pytest.approx(0.14097960790039682, abs=1e-15)

    def test_tie_counts_as_reproducible(self):
        v = verdict(1, 0.0, eps=0.0, theta=0.0, f=1.0)
        assert v.gamma_D == v.gamma_max == 0.0
        assert v.reproducible

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReproVerdict(n=1, delta=0.1, gamma_D=0.5, gamma_max=0.2, reproducible=True, margin=-0.3)


class TestMinDelta:
    def test_zero(self):
        assert min_delta(1, 0.0) == 0.0

    def test_two_qubit_exact(self):
        assert min_delta(2, 0.1) == 0.05

    def test_direct_evaluation(self):
        assert min_delta(1, 0.04) == pytest.approx(0.014142135623730952, abs=1e-17)

    def test_first_order_match_with_gamma_max(self):
        # Small tolerances: the exact bound approaches 2*sqrt(2)*delta/sqrt(n).
        for n in range(1, 11):
            for delta in np.linspace(1e-4, 0.05, 25):
                approx = 2.0 * math.sqrt(2.0) * delta / math.sqrt(n)
                assert gamma_max(n, delta) == pytest.approx(approx, rel=0.05)


class TestExactHellinger1q:
    def test_zero_bias(self):
        assert exact_hellinger_1q(0.0) == 0.0

    def test_full_bias(self):
        assert exact_hellinger_1q(1.0) == pytest.approx(DELTA_STAR_1, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.04, -0.3, 0.9])
    def test_matches_distance_module(self, gamma):
        d = hellinger(uniform_ideal(1), product_noisy([gamma]))
        assert exact_hellinger_1q(gamma) == pytest.approx(d, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            exact_hellinger_1q(1.5)


class TestLemmaA1:
    def test_exhaustive_grid_no_counterexamples(self):
        start = time.perf_counter()
        report = lemma_a1_check(*default_lemma_grids(100))
        elapsed = time.perf_counter() - start
        assert report.pairs_checked == 10_000
        assert report.counterexamples == ()
        assert report.passed
        assert elapsed < 1.0

    def test_boundary_pair_equality(self):
        assert abs(gamma_max(1, delta_star(1)) - 1.0) <= 1e-9
        assert abs(exact_hellinger_1q(1.0) - delta_star(1)) <= 1e-9

    def test_rejects_delta_above_ceiling(self):
        with pytest.raises(OutOfRegimeError):
            lemma_a1_check([0.6], [0.5])

    def test_rejects_gamma_outside_unit(self):
        with pytest.raises(InvalidParameterError):
            lemma_a1_check([0.3], [1.5])

    @pytest.mark.parametrize(
        "deltas, gammas",
        [([0.3, math.nan], [0.5]), ([0.3], [0.5, math.nan]), ([math.nan], [math.nan])],
        ids=["delta", "gamma", "both"],
    )
    def test_rejects_nan_grid(self, deltas, gammas):
        with pytest.raises(InvalidParameterError):
            lemma_a1_check(deltas, gammas)

    def test_dense_grid_no_counterexamples(self):
        start = time.perf_counter()
        report = lemma_a1_check(*default_lemma_grids(1000))
        elapsed = time.perf_counter() - start
        assert report.pairs_checked == 1_000_000
        assert report.counterexamples == ()
        assert elapsed < 1.0

    def test_counterexamples_match_pairwise_evaluation(self):
        # On the boundary gamma = gamma_max(1, delta) and its float neighbours
        # the two tests can disagree by a rounding; the report must list
        # exactly the pairs a scalar evaluation finds, delta-major.
        deltas = np.linspace(0.01, delta_star(1), 40)
        bounds = [gamma_max(1, d) for d in deltas.tolist()]
        gammas = np.unique(
            [min(1.0, g) for b in bounds for g in (np.nextafter(b, 0.0), b, np.nextafter(b, 2.0))]
        )
        expected = [
            (d, g, gm, exact_hellinger_1q(g))
            for d, gm in zip(deltas.tolist(), bounds)
            for g in gammas.tolist()
            if (g <= gm) != (exact_hellinger_1q(g) <= d)
        ]
        report = lemma_a1_check(deltas, gammas)
        found = [(c.delta, c.gamma, c.gamma_max, c.hellinger) for c in report.counterexamples]
        assert found == expected
        assert found

    def test_report_serialization(self, tmp_path):
        report = lemma_a1_check(*default_lemma_grids(10))
        path = tmp_path / "lemma_report.json"
        write_lemma_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "lemma-report/1"
        assert doc["pairs_checked"] == 100
        assert doc["passed"] is True
        assert doc["counterexamples"] == []


def test_bound_soundness_random_draws():
    """No (params, delta) draw may pass the gamma test yet fail the distance test."""
    rng = np.random.default_rng(424242)
    for _ in range(10_000):
        params = QubitNoiseParams(rng.random(), rng.random(), rng.uniform(-0.78, 0.78))
        delta = rng.uniform(1e-6, 0.54)
        gd = gamma_device(params.eps, params.theta, params.f)
        if gd <= gamma_max(1, delta):
            d = hellinger(uniform_ideal(1), Distribution(1, observed_probs(params)))
            assert d <= delta + 1e-12


def test_multi_qubit_soundness_bruteforce():
    """1 - BC <= delta^2 is the same test as Hellinger <= delta for n identical qubits."""
    rng = np.random.default_rng(31415)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        gamma = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(0.0, 1.0))
        bc_closed = ((math.sqrt(1 + gamma) + math.sqrt(1 - gamma)) / 2.0) ** n
        d = hellinger(uniform_ideal(n), product_noisy([gamma] * n))
        assert d**2 == pytest.approx(1.0 - bc_closed, abs=1e-12)
        if abs(delta**2 - (1.0 - bc_closed)) > 1e-11:
            # Away from the float-level boundary the two tests must agree.
            assert (1.0 - bc_closed <= delta**2) == (d <= delta)


class TestNormalQuantile:
    def test_against_scipy_grid(self):
        ps = np.concatenate(
            [
                np.array([1e-12, 1e-9, 1e-4, 0.02424, 0.02426]),
                np.logspace(-300, -3, 100),
                np.linspace(0.001, 0.999, 997),
                np.array([1 - 1e-4, 1 - 1e-9, 1 - 1e-12]),
            ]
        )
        for p in ps:
            assert normal_quantile(p) == pytest.approx(stats.norm.ppf(p), abs=1e-8)

    def test_symmetry(self):
        for p in [0.001, 0.1, 0.3, 0.49]:
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-12)

    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_domain(self, p):
        with pytest.raises(InvalidParameterError):
            normal_quantile(p)


class TestPlanSamples:
    def test_reference_plan(self):
        # Oracle: T = ceil((1/p - 1) * z^2 / eps^2) with z from scipy.
        plan = plan_samples(0.5, 0.01, 0.05)
        z_true = stats.norm.ppf(0.975)
        assert plan.z == pytest.approx(z_true, abs=1e-8)
        assert plan.z == pytest.approx(1.959964, abs=1e-5)
        assert plan.T == math.ceil((1 / 0.5 - 1) * z_true**2 / 0.01**2) == 38415

    def test_precision_scaling(self):
        assert plan_samples(0.5, 0.02, 0.05).T == 9604
        ratio = plan_samples(0.5, 0.01, 0.05).T / plan_samples(0.5, 0.02, 0.05).T
        assert ratio == pytest.approx(4.0, rel=1e-3)

    def test_outcome_probability_scaling(self):
        t_fine = plan_samples(2**-8, 0.01, 0.05).T
        t_coarse = plan_samples(2**-4, 0.01, 0.05).T
        assert t_fine / t_coarse == pytest.approx(255 / 15, rel=1e-3)

    def test_no_confidence_limit(self):
        assert plan_samples(0.5, 0.01, 0.9999).T == 1

    @pytest.mark.parametrize("p_s", [0.0, 1.0])
    def test_degenerate_probability(self, p_s):
        with pytest.raises(InvalidParameterError):
            plan_samples(p_s, 0.01, 0.05)

    @given(
        p_s=st.floats(0.01, 0.99),
        eps=st.floats(0.001, 0.5),
        alpha=st.floats(0.001, 0.999),
    )
    def test_invariant_holds(self, p_s, eps, alpha):
        plan = plan_samples(p_s, eps, alpha)
        assert plan.T >= 1
        assert plan.T == max(1, math.ceil((1 / p_s - 1) * plan.z**2 / eps**2))


class TestVerdictCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            (0, verdict(1, 0.1, 0.0, 0.0, 1.0)),
            (1, verdict(1, 0.01, 0.04, 0.0, 0.97)),
        ]
        path = tmp_path / "verdicts.csv"
        write_verdicts_csv(rows, path)
        assert read_verdicts_csv(path) == rows
        header = path.read_text().splitlines()[0]
        assert header == "qubit,n,delta,gamma_D,gamma_max,margin,reproducible"
