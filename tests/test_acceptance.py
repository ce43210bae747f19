"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s -q`` to see the per-criterion
lines. Expected values are frozen from independent oracles (scipy quantiles,
explicit brute-force sums, binomial error bars), never from the code paths
under test.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from oracles import (
    Distribution,
    bc_uniform_closed_form,
    hellinger,
    kraus_readout,
    noisy_hadamard,
    pre_readout_probs,
    readout_matrix,
    uniform_ideal,
)
from reprobound.bounds import (
    default_lemma_grids,
    delta_star,
    exact_hellinger_1q,
    gamma_device,
    gamma_max,
    lemma_a1_check,
    min_delta,
    plan_samples,
)
from reprobound.cli import main
from reprobound.estimator import characterize
from reprobound.noise_model import QubitNoiseParams, observed_probs
from reprobound.sampler import ExperimentPlan, PlanQubit, run_plan


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. Lemma A1 exhaustive grid


def test_criterion_1_lemma_equivalence_grid():
    start = time.perf_counter()
    report = lemma_a1_check(*default_lemma_grids(100))
    elapsed = time.perf_counter() - start
    boundary_ok = (
        abs(gamma_max(1, delta_star(1)) - 1.0) <= 1e-9
        and abs(exact_hellinger_1q(1.0) - delta_star(1)) <= 1e-9
    )
    ok = report.pairs_checked == 10_000 and report.passed and boundary_ok and elapsed < 1.0
    _criterion(
        1,
        ok,
        f"100x100 grid, {len(report.counterexamples)} counterexamples, "
        f"boundary equality within 1e-9, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Binomial collapse of the Bhattacharyya coefficient


def bc_bruteforce_identical(gamma: float, n: int) -> float:
    terms = []
    for s in range(2**n):
        q = 1.0
        for i in range(n):
            q *= (1.0 - gamma) / 2.0 if (s >> i) & 1 else (1.0 + gamma) / 2.0
        terms.append(math.sqrt(2.0**-n * q))
    return math.fsum(terms)


def test_criterion_2_binomial_collapse():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        for gamma in np.linspace(-0.9, 0.9, 19):
            closed = ((math.sqrt(1 + gamma) + math.sqrt(1 - gamma)) / 2.0) ** n
            worst = max(worst, abs(bc_bruteforce_identical(float(gamma), n) - closed))
            worst = max(worst, abs(bc_uniform_closed_form([gamma] * n) - closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _criterion(2, ok, f"n=1..10 x 19 biases, max |BC_brute - closed| = {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Bound soundness on random devices


def test_criterion_3_bound_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(5150)
    violations = 0
    for _ in range(10_000):
        params = QubitNoiseParams(rng.random(), rng.random(), rng.uniform(-0.78, 0.78))
        delta = rng.uniform(1e-6, 0.54)
        if gamma_device(params.eps, params.theta, params.f) <= gamma_max(1, delta):
            d = hellinger(uniform_ideal(1), Distribution(1, observed_probs(params)))
            if d > delta + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    _criterion(3, ok, f"10000 draws, {violations} soundness violations, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Channel equivalence: Kraus vs assignment matrix vs closed form


def test_criterion_4_channel_equivalence():
    rng = np.random.default_rng(8088)
    worst = 0.0
    for _ in range(1000):
        params = QubitNoiseParams(rng.random(), rng.random(), rng.uniform(-0.78, 0.78))
        h = noisy_hadamard(params.theta)
        rho = np.outer(h[:, 0], h[:, 0]).astype(complex)
        via_kraus = kraus_readout(params, rho)
        via_matrix = readout_matrix(params).apply(pre_readout_probs(params.theta))
        closed = observed_probs(params)
        worst = max(
            worst,
            float(np.max(np.abs(via_kraus - closed))),
            float(np.max(np.abs(via_matrix - closed))),
        )
    ok = worst <= 1e-10
    _criterion(4, ok, f"1000 draws, max route disagreement = {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Estimator convergence and scaling


def _sigma_oracles(truth: QubitNoiseParams, n_tot: int):
    sigma_f0 = math.sqrt(truth.f0 * (1 - truth.f0) / n_tot)
    sigma_f1 = math.sqrt(truth.f1 * (1 - truth.f1) / n_tot)
    g = truth.eps - 2 * math.sin(2 * truth.theta) * (truth.f - 0.5)
    sigma_gamma = math.sqrt((1 - g * g) / n_tot)
    sigma_x = math.sqrt(sigma_f0**2 + sigma_f1**2 + sigma_gamma**2) / (2 * truth.f - 1)
    sigma_theta = 0.5 * sigma_x / math.cos(2 * truth.theta)
    return sigma_f0, sigma_f1, sigma_theta


def test_criterion_5_estimator_convergence():
    start = time.perf_counter()
    truth = QubitNoiseParams(0.99, 0.95, 0.0213)
    scales = {"big": (203, 8192), "small": (50, 1024)}
    seeds = range(1000, 1020)

    errors = {scale: {"f0": [], "f1": [], "theta": []} for scale in scales}
    hits = 0
    for seed in seeds:
        ests = {}
        for scale, (L, S) in scales.items():
            plan = ExperimentPlan(L=L, S=S, qubits=(PlanQubit(0, truth),), seed=seed)
            est = characterize(run_plan(plan))[0]
            ests[scale] = est
            errors[scale]["f0"].append(abs(est.f0_mean - truth.f0))
            errors[scale]["f1"].append(abs(est.f1_mean - truth.f1))
            errors[scale]["theta"].append(abs(est.theta_hat - truth.theta))
        s_f0, s_f1, s_th = _sigma_oracles(truth, 203 * 8192)
        big = ests["big"]
        if (
            abs(big.f0_mean - truth.f0) <= 5 * s_f0
            and abs(big.f1_mean - truth.f1) <= 5 * s_f1
            and abs(big.theta_hat - truth.theta) <= 5 * s_th
        ):
            hits += 1

    # Error ratio between scales: the effective 1/sqrt(L*S) exponent must sit
    # in [0.2, 0.8], i.e. the median ratio lies between R**0.2 and R**0.8.
    r = (203 * 8192) / (50 * 1024)
    scaling_ok = True
    ratios = {}
    for key in ("f0", "f1", "theta"):
        med = float(
            np.median(np.array(errors["small"][key]) / np.array(errors["big"][key]))
        )
        ratios[key] = med
        scaling_ok &= r**0.2 <= med <= r**0.8
    elapsed = time.perf_counter() - start

    ok = hits >= 19 and scaling_ok and elapsed < 120.0
    _criterion(
        5,
        ok,
        f"{hits}/20 seeds within 5 sigma; median error ratios "
        f"f0={ratios['f0']:.2f} f1={ratios['f1']:.2f} theta={ratios['theta']:.2f} "
        f"(ideal sqrt(R)={math.sqrt(r):.2f}, allowed [{r**0.2:.2f}, {r**0.8:.2f}]); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Small-delta floor


def test_criterion_6_small_delta_floor():
    worst_rel = 0.0
    for n in range(1, 11):
        for delta in np.linspace(1e-4, 0.05, 50):
            first_order = 2.0 * math.sqrt(2.0) * delta / math.sqrt(n)
            worst_rel = max(worst_rel, abs(gamma_max(n, delta) - first_order) / first_order)
    exact_ok = min_delta(2, 0.1) == 0.05
    ok = worst_rel <= 0.05 and exact_ok
    _criterion(
        6,
        ok,
        f"first-order bound within {worst_rel:.2%} for delta<=0.05, n=1..10; "
        f"min_delta(2, 0.1) == 0.05 exactly",
    )


# ---------------------------------------------------------------------------
# 7. Sample planner


def test_criterion_7_sample_planner():
    plan = plan_samples(0.5, 0.01, 0.05)
    z_oracle = float(stats.norm.ppf(0.975))
    t_oracle = math.ceil((1 / 0.5 - 1) * z_oracle**2 / 0.01**2)
    z_ok = abs(plan.z - 1.959964) <= 1e-5 and abs(plan.z - z_oracle) <= 1e-8
    t_ok = plan.T == t_oracle == 38415
    p_ratio = plan_samples(2**-8, 0.01, 0.05).T / plan_samples(2**-4, 0.01, 0.05).T
    eps_ratio = plan.T / plan_samples(0.5, 0.02, 0.05).T
    scaling_ok = abs(p_ratio - 255 / 15) <= 0.02 and abs(eps_ratio - 4.0) <= 0.01
    ok = z_ok and t_ok and scaling_ok
    _criterion(
        7,
        ok,
        f"T={plan.T} (= oracle ceil((1/p-1)z^2/eps^2)), z={plan.z:.7f}; "
        f"1/p scaling {p_ratio:.2f}=17, 1/eps^2 scaling {eps_ratio:.4f}=4",
    )


# ---------------------------------------------------------------------------
# 8 and 9. Full-register pipeline and its determinism


def _heterogeneous_config(tmp, seed=4021):
    """27 register elements at realistic magnitudes: asymmetries up to ~0.1,
    gate angle errors up to ~2 degrees."""
    rng = np.random.default_rng(seed)
    qubits = []
    for q in range(27):
        f0 = float(rng.uniform(0.9, 0.995))
        f1 = float(np.clip(f0 - rng.uniform(0.0, 0.1), 0.8, 1.0))
        theta = float(rng.uniform(-math.radians(2.0), math.radians(2.0)))
        qubits.append({"index": q, "f0": f0, "f1": f1, "theta_rad": theta})
    cfg = {
        "schema": "device-config/1",
        "name": "synthetic-27q",
        "qubits": qubits,
        "plan": {"L": 203, "S": 8192, "seed": 20210408},
    }
    path = tmp / "device.json"
    path.write_text(json.dumps(cfg))
    return path


def _run_full_pipeline(cfg_path, run_dir):
    assert main(["simulate", str(cfg_path), "--out", str(run_dir), "--quiet"]) == 0
    assert main(["characterize", str(run_dir), "--quiet"]) == 0
    assert (
        main(["verdict", str(run_dir / "characterization.csv"), "--delta-from-observed", "--quiet"])
        == 0
    )
    assert main(["report", str(run_dir), "--quiet"]) == 0


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    cfg = _heterogeneous_config(tmp)
    start = time.perf_counter()
    _run_full_pipeline(cfg, tmp / "run_a")
    elapsed = time.perf_counter() - start
    _run_full_pipeline(cfg, tmp / "run_b")
    return tmp / "run_a", tmp / "run_b", elapsed


def test_criterion_8_pipeline_validation(pipeline_runs):
    run_a, _, elapsed = pipeline_runs
    rows = (run_a / "verdicts.csv").read_text().splitlines()[1:]
    reproducible = sum(1 for row in rows if row.endswith(",true"))
    scatter_rows = len((run_a / "report" / "fig_scatter.csv").read_text().splitlines()) - 1
    ok = len(rows) == 27 and reproducible == 27 and scatter_rows == 27 * 203 and elapsed < 90.0
    _criterion(
        8,
        ok,
        f"observed-delta mode: {reproducible}/27 reproducible, "
        f"{scatter_rows} scatter rows, pipeline {elapsed:.1f}s",
    )


def test_criterion_9_pipeline_determinism(pipeline_runs):
    run_a, run_b, _ = pipeline_runs
    names = ["counts.csv", "characterization.csv", "verdicts.csv"] + [
        f"report/{n}"
        for n in [
            "table1.csv",
            "fig_theta.csv",
            "fig_hellinger.csv",
            "fig_asymmetry.csv",
            "fig_gamma.csv",
            "fig_scatter.csv",
            "lemma_report.json",
        ]
    ]
    differing = [n for n in names if (run_a / n).read_bytes() != (run_b / n).read_bytes()]
    ok = not differing
    _criterion(9, ok, f"{len(names)} artifacts byte-identical" + (f"; differing: {differing}" if differing else ""))
