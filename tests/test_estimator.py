"""Tests for the per-experiment estimators and the characterization pipeline."""

import csv
import math
import statistics
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import Distribution, hellinger, uniform_ideal
from reprobound.artifacts import write_csv
from reprobound.errors import ConfigError, InsufficientDataError, InvalidParameterError
from reprobound.estimator import (
    CSV_COLUMNS,
    CharacterizationEstimate,
    characterize,
    invert_theta,
    per_experiment,
    population_stats,
    read_characterization_csv,
    write_characterization_csv,
)
from reprobound.noise_model import QubitNoiseParams, gamma_of, hellinger_1q
from reprobound.sampler import ExperimentPlan, PlanQubit, RunArchive, run_plan

# The position of each characterization.csv column, by name.
COLUMN = {name: i for i, name in enumerate(CSV_COLUMNS)}

THETA_HAT_REFERENCE = 0.021283022167392  # 0.5 * asin(0.04 / 0.94)


def clamped(est, sign):
    """``est`` with the gamma_hat whose arcsin argument is ``sign`` * 1.005:
    an overshoot that the inversion clamps to +-1, with a note."""
    return est.replace(gamma_hat=est.eps_mean - sign * 1.005 * (2.0 * est.f_mean - 1.0))


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
        pr = [0.52, 0.48]
        general = hellinger(uniform_ideal(1), Distribution(1, pr))
        assert hellinger_1q(*pr) == pytest.approx(general, abs=1e-15)

    def test_grid_agreement_with_general(self):
        p0 = np.linspace(0.0, 1.0, 1000).tolist()
        shots = 1000
        ones = list(range(shots + 1))
        p1 = [k / shots for k in ones]
        # The kernel on a grid, and per_experiment's d at every count 0..S.
        cases = [
            (p0, [1.0 - p for p in p0], [hellinger_1q(p, 1.0 - p) for p in p0]),
            ([1.0 - p for p in p1], p1, per_experiment([ones, ones, ones], shots).d),
        ]
        for pr0, pr1, d in cases:
            for a, b, d_ab in zip(pr0, pr1, d, strict=True):
                general = hellinger(uniform_ideal(1), Distribution(1, [a, b]))
                assert abs(d_ab - general) <= 1e-12

    def test_matches_the_array_form(self):
        # The scalar closed form gives the doubles of the elementwise numpy
        # expression it replaced, at every count 0..S of S = 8192.
        pr1 = np.arange(8193) / 8192
        pr0 = 1.0 - pr1
        array_form = np.sqrt(np.maximum(0.0, 1.0 - np.sqrt(pr0 / 2.0) - np.sqrt(pr1 / 2.0)))
        assert list(map(hellinger_1q, pr0.tolist(), pr1.tolist())) == array_form.tolist()

    def test_nan_propagates(self):
        assert math.isnan(hellinger_1q(math.nan, 0.5))


class TestPerExperiment:
    def test_hellinger_matches_hellinger_1q(self):
        shots = 1000
        ones = tuple(range(shots + 1))
        est = per_experiment([ones, ones, ones], shots)
        assert len(est.d) == len(ones)
        for c, d in zip(ones, est.d):
            assert d == hellinger_1q(1.0 - c / shots, c / shots)

    def test_matches_point_estimators(self):
        archive = make_archive(QubitNoiseParams(0.9, 0.8, 0.05), L=5, S=64, seed=8)
        ((_, (spam0, spam1, c)),) = archive.qubit_counts()
        est = per_experiment((spam0, spam1, c), 64)
        assert est.f0 == tuple(1.0 - k / 64 for k in spam0)
        assert est.f1 == tuple(k / 64 for k in spam1)
        assert est.pr0 == tuple(1.0 - k / 64 for k in c)
        assert est.eps == tuple(a - b for a, b in zip(est.f0, est.f1))
        assert {type(x) for field in est for x in field} == {float}


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

    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100)),
            min_size=2,
            max_size=250,
        )
    )
    def test_against_exact_rationals(self, xs):
        # Every sum is correctly rounded, so the mean is within 1.5 ulp of
        # the exact one: half an ulp from the sum, one from the division.
        mean, sigma = population_stats(xs)
        n = len(xs)
        exact_mean = sum(map(Fraction, xs)) / n
        assert abs(Fraction(mean) - exact_mean) <= Fraction(math.ulp(float(exact_mean))) * 3 / 2
        # sigma is the exact two-pass value about the returned mean (which
        # adds n * (mean - exact_mean)**2 to the sum of squares) to within the
        # rounding of the deviations, their squares, the division and sqrt.
        exact_var = sum((Fraction(x) - Fraction(mean)) ** 2 for x in xs) / (n * (n - 1))
        reference = math.sqrt(exact_var)
        assert abs(sigma - reference) <= 4 * math.ulp(reference)


class TestInvertTheta:
    def test_no_gate_error(self):
        assert invert_theta(0.04, 0.04, 0.97) == (0.0, "")

    def test_reference_value(self):
        theta, note = invert_theta(0.0, 0.04, 0.97)
        assert theta == pytest.approx(THETA_HAT_REFERENCE, abs=1e-14)
        assert note == ""

    def test_singular_fidelity(self):
        theta, note = invert_theta(0.0, 0.0, 0.5)
        assert math.isnan(theta)
        assert note == "SingularFidelityError: average fidelity 0.5 too close to 1/2, gate angle unidentifiable"

    def test_silent_clamp(self):
        # eps - gamma barely exceeds the denominator: float-level overshoot.
        theta, note = invert_theta(0.0, 0.5 * (1 + 5e-10), 0.75)
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert note == ""

    def test_warning_clamp(self):
        theta, note = invert_theta(0.0, 0.5 * 1.005, 0.75)
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert note == "arcsin argument 1.005 clamped to [-1, 1] (overshoot 0.005)"

    def test_hard_mismatch(self):
        theta, note = invert_theta(0.0, 0.5 * 1.02, 0.75)
        assert math.isnan(theta)
        assert note == (
            "ModelMismatchError: arcsin argument 1.02 exceeds 1 by 0.02; "
            "the single-qubit noise model does not explain this data"
        )

    @given(
        f0=st.floats(0.6, 1.0),
        f1=st.floats(0.6, 1.0),
        theta=st.floats(-0.7, 0.7),
    )
    def test_round_trip_through_gamma(self, f0, f1, theta):
        params = QubitNoiseParams(f0, f1, theta)
        recovered, note = invert_theta(gamma_of(params), params.eps, params.f)
        assert recovered == pytest.approx(theta, abs=1e-10)
        assert note == ""


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
        ((_, (_, _, c)),) = archive.qubit_counts()
        pr1 = [int(ones) / 128 for ones in c]
        pr0 = [1.0 - p for p in pr1]
        direct = statistics.fmean(pr0) - statistics.fmean(pr1)
        assert est.gamma_hat == pytest.approx(direct, abs=1e-12)

    def test_estimate_field_identities(self):
        est = characterize(make_archive(QubitNoiseParams(0.9, 0.8, 0.05)))[0]
        assert est.eps_mean == est.f0_mean - est.f1_mean
        assert est.f_mean == (est.f0_mean + est.f1_mean) / 2
        assert (est.theta_hat, "") == invert_theta(est.gamma_hat, est.f0_mean - est.f1_mean, (est.f0_mean + est.f1_mean) / 2)
        assert est.warnings == ()
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
        counts = [[[64] * 4], [[192] * 4], [[0] * 4]]
        est = characterize(RunArchive(plan=plan, counts=counts))[0]
        assert math.isnan(est.theta_hat)
        assert any("ModelMismatchError" in w for w in est.warnings)

    def test_error_shrinks_with_scale(self):
        truth = QubitNoiseParams(0.99, 0.95, 0.0213)
        small = characterize(make_archive(truth, L=20, S=256, seed=31))[0]
        big = characterize(make_archive(truth, L=100, S=4096, seed=31))[0]
        # 80x more shots: the fidelity error should drop clearly.
        assert abs(big.f0_mean - truth.f0) < abs(small.f0_mean - truth.f0)


PROBABILITIES = st.floats(0.0, 1.0)


@st.composite
def estimates(draw):
    """Valid estimates. A random gamma_hat mostly fails the inversion (a NaN
    angle); one drawn from an arcsin argument in [-1.01, 1.01] gives an
    angle, clamped with a note past 1 + 1e-9."""
    est = CharacterizationEstimate(
        qubit=draw(st.integers(0, 2**64)),
        f0_mean=draw(PROBABILITIES),
        f1_mean=draw(PROBABILITIES),
        eps_sigma=draw(PROBABILITIES),
        gamma_hat=draw(st.floats(-1.0, 1.0)),
        d_mean=draw(PROBABILITIES),
        d_sigma=draw(PROBABILITIES),
        L=draw(st.integers(2, 2**40)),
        S=draw(st.integers(1, 2**63 - 1)),
    )
    x = draw(st.none() | st.floats(-1.01, 1.01))
    gamma = None if x is None else est.eps_mean - x * (2.0 * est.f_mean - 1.0)
    return est if gamma is None or abs(gamma) > 1.0 else est.replace(gamma_hat=gamma)


# A singular inversion, a model mismatch and a clamp: a NaN angle with each
# of the two failure notes, and an angle with a note.
EDGE = CharacterizationEstimate(0, 0.5, 0.5, 0.01, 0.3, 0.02, 0.001, 8, 512)
EDGE_CASES = [EDGE, EDGE.replace(f0_mean=0.99, f1_mean=0.2, gamma_hat=-0.9), clamped(EDGE.replace(f0_mean=0.99), 1)]


class TestCharacterizationCsv:
    def test_edge_cases_are_what_they_say(self):
        singular, mismatch, clamp = EDGE_CASES
        assert singular.warnings[0].startswith("SingularFidelityError:") and math.isnan(singular.theta_hat)
        assert mismatch.warnings[0].startswith("ModelMismatchError:") and math.isnan(mismatch.theta_hat)
        assert "clamped to [-1, 1]" in clamp.warnings[0] and clamp.theta_hat == math.pi / 4

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(estimates(), min_size=1, max_size=4))
    @example(rows=EDGE_CASES)
    def test_every_valid_table_round_trips(self, rows):
        # Written, read back equal, and written again to the same bytes.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "characterization.csv"
            write_characterization_csv(rows, path)
            written = path.read_bytes()
            loaded = read_characterization_csv(path)
            assert loaded == rows
            write_characterization_csv(loaded, path)
            assert path.read_bytes() == written

    def test_round_trip(self, tmp_path):
        archive = make_archive(QubitNoiseParams(0.98, 0.91, 0.02), L=5, S=64, seed=13)
        estimates = characterize(archive)
        path = tmp_path / "characterization.csv"
        write_characterization_csv(estimates, path)
        loaded = read_characterization_csv(path)
        assert loaded == estimates

    @pytest.mark.parametrize("column,value", [(COLUMN["theta_hat_rad"], v) for v in ("0.3", "inf", "nan")])
    def test_edited_angle_rejected(self, tmp_path, column, value):
        archive = make_archive(QubitNoiseParams(0.98, 0.91, 0.02), L=5, S=64, seed=13)
        path = tmp_path / "characterization.csv"
        write_characterization_csv(characterize(archive), path)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[column] = value
        path.write_text(f"{header}\n{','.join(cells)}\n")
        # The angle is checked against the value that the row's independent cells give.
        with pytest.raises(ConfigError, match=f"{path}: line 2: theta_hat_rad="):
            read_characterization_csv(path)

    # A note no inversion made, and a clamp's note cleared.
    @pytest.mark.parametrize(
        "sign,note", [(0, "edited note"), (1, ""), (-1, "")], ids=["made-up", "cleared", "cleared-negative"]
    )
    def test_edited_note_rejected(self, tmp_path, sign, note):
        est = characterize(make_archive(QubitNoiseParams(0.9, 0.8, 0.05)))[0]
        est = clamped(est, sign) if sign else est
        assert bool(est.warnings) == bool(sign)
        path = tmp_path / "characterization.csv"
        write_characterization_csv([est], path)
        # A clamp's note holds commas, so the row is edited as CSV.
        with open(path, newline="") as fh:
            header, cells = csv.reader(fh)
        cells[COLUMN["warnings"]] = note
        write_csv(path, header, [cells])
        with pytest.raises(ConfigError, match=f"{path}: line 2: warnings="):
            read_characterization_csv(path)

    @pytest.mark.parametrize("column,named", [(COLUMN[n], n) for n in ("eps_mean", "f_mean", "theta_hat_rad")])
    def test_derived_column_one_ulp_off_rejected(self, tmp_path, column, named):
        archive = make_archive(QubitNoiseParams(0.98, 0.91, 0.02), L=5, S=64, seed=13)
        path = tmp_path / "characterization.csv"
        write_characterization_csv(characterize(archive), path)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[column] = repr(math.nextafter(float(cells[column]), 2.0))
        path.write_text(f"{header}\n{','.join(cells)}\n")
        with pytest.raises(ConfigError, match=f"{path}: line 2: {named}="):
            read_characterization_csv(path)

    def test_nan_theta_round_trip(self, tmp_path):
        archive = make_archive(QubitNoiseParams(1.0, 0.0, 0.0), L=4, S=64, seed=1)
        estimates = characterize(archive)
        path = tmp_path / "characterization.csv"
        write_characterization_csv(estimates, path)
        loaded = read_characterization_csv(path)
        assert math.isnan(loaded[0].theta_hat)
        assert loaded[0].warnings == estimates[0].warnings


class TestEstimateFields:
    def test_fields_hold_no_derived_value(self):
        names = set(CharacterizationEstimate._fields)
        assert not names & {"eps_mean", "f_mean", "theta_hat", "warnings"}

    def test_fields_are_the_independent_values(self):
        assert CharacterizationEstimate._fields == (
            "qubit",
            "f0_mean",
            "f1_mean",
            "eps_sigma",
            "gamma_hat",
            "d_mean",
            "d_sigma",
            "L",
            "S",
        )

    def test_invalid_fields_rejected(self):
        est = characterize(make_archive(QubitNoiseParams(0.9, 0.8, 0.05)))[0]
        for edit, message in (
            ({"eps_sigma": -1e-3}, r"eps_sigma must be in \[0, 1\]"),
            ({"d_sigma": -1e-3}, r"d_sigma must be in \[0, 1\]"),
            ({"eps_sigma": 1.5}, r"eps_sigma must be in \[0, 1\]"),
            ({"L": 1}, "L must be >= 2"),
            ({"S": 0}, r"S must be in \[1, 2\*\*63\)"),
            ({"S": 2**63}, r"S must be in \[1, 2\*\*63\)"),
            ({"d_mean": 1.5}, r"d_mean must be in \[0, 1\]"),
            ({"f0_mean": 1.5}, r"f0_mean must be in \[0, 1\]"),
            ({"f1_mean": -0.25}, r"f1_mean must be in \[0, 1\]"),
            ({"f1_mean": math.nan}, r"f1_mean must be in \[0, 1\]"),
            ({"gamma_hat": -1.5}, r"gamma_hat must be in \[-1, 1\]"),
            ({"qubit": -1}, "qubit index must be non-negative, got -1"),
        ):
            with pytest.raises(ValueError, match=message):
                est.replace(**edit)

    def test_replace_reruns_the_checks(self):
        est = characterize(make_archive(QubitNoiseParams(0.9, 0.8, 0.05)))[0]
        with pytest.raises(InvalidParameterError, match=r"f0_mean must be in \[0, 1\]"):
            est.replace(f0_mean=1.5)
        # The note is the inversion's, not a field: no edit can set it.
        with pytest.raises(TypeError, match="has no field 'warnings'"):
            est.replace(warnings=("note",))
        assert est.warnings == ()
        assert est.replace() == est and hash(est.replace()) == hash(est)

    def test_repr_names_every_field(self):
        est = characterize(make_archive(QubitNoiseParams(0.9, 0.8, 0.05)))[0]
        assert repr(est).startswith("CharacterizationEstimate(qubit=0, f0_mean=")
        assert all(f"{name}={getattr(est, name)!r}" in repr(est) for name in CharacterizationEstimate._fields)

    def test_clamped_angle_accepted(self, tmp_path):
        # A clamped inversion gives exactly 0.5 * asin(+-1.0) == +-pi/4, and
        # the table holds it and its note.
        est = characterize(make_archive(QubitNoiseParams(0.9, 0.8, 0.05)))[0]
        path = tmp_path / "characterization.csv"
        for sign in (1, -1):
            edge = clamped(est, sign)
            assert edge.theta_hat == math.copysign(math.pi / 4, sign)
            assert len(edge.warnings) == 1 and "clamped to [-1, 1]" in edge.warnings[0]
            write_characterization_csv([edge], path)
            assert read_characterization_csv(path) == [edge]
