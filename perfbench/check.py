"""Check the outputs of one finished pipeline against its device config.

Usage: python3 perfbench/check.py CONFIG RUN_DIR

Prints one JSON object that maps each pipeline command to the list of its
failed checks. The checks read only the documented CSV columns, never
artifact digests, so they hold across a change of the archive format:

* characterize: one row per qubit, and each qubit's f0_mean, f1_mean and
  gamma_hat within 5 binomial standard errors (over L*S shots) of the
  config's ground truth;
* verdict: one row per qubit, each equal to ``bounds.verdict`` recomputed
  from characterization.csv in observed-delta mode;
* report: fig_scatter.csv holds one row per qubit and experiment.
"""

import csv
import json
import math
import sys
from pathlib import Path

from reprobound import bounds
from reprobound.noise_model import QubitNoiseParams, gamma_of

Z = 5.0


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _within(name: str, qubit: int, got: float, truth: float, var: float, n: int) -> list[str]:
    limit = Z * math.sqrt(var / n)
    if abs(got - truth) <= limit:
        return []
    return [f"qubit {qubit}: {name}={got!r} is {abs(got - truth):.3g} from truth {truth!r} (limit {limit:.3g})"]


def check_characterization(config: dict, rows: list[dict]) -> list[str]:
    qubits = config["qubits"]
    if len(rows) != len(qubits):
        return [f"characterization.csv has {len(rows)} rows, expected {len(qubits)}"]
    shots = config["plan"]["L"] * config["plan"]["S"]
    failures = []
    for truth, row in zip(qubits, rows):
        q, f0, f1 = truth["index"], truth["f0"], truth["f1"]
        gamma = gamma_of(QubitNoiseParams(f0=f0, f1=f1, theta=truth["theta_rad"]))
        if int(row["qubit"]) != q:
            failures.append(f"characterization row for qubit {row['qubit']}, expected {q}")
        failures += _within("f0_mean", q, float(row["f0_mean"]), f0, f0 * (1 - f0), shots)
        failures += _within("f1_mean", q, float(row["f1_mean"]), f1, f1 * (1 - f1), shots)
        failures += _within("gamma_hat", q, float(row["gamma_hat"]), gamma, 1 - gamma * gamma, shots)
    return failures


def check_verdicts(characterization: list[dict], rows: list[dict]) -> list[str]:
    if len(rows) != len(characterization):
        return [f"verdicts.csv has {len(rows)} rows, expected {len(characterization)}"]
    failures = []
    for est, row in zip(characterization, rows):
        v = bounds.verdict(
            1,
            float(est["d_mean"]),
            float(est["eps_mean"]),
            float(est["theta_hat_rad"]),
            float(est["f_mean"]),
        )
        got = (
            int(row["qubit"]),
            int(row["n"]),
            float(row["delta"]),
            float(row["gamma_D"]),
            float(row["gamma_max"]),
            float(row["margin"]),
            row["reproducible"] == "true",
        )
        want = (int(est["qubit"]), v.n, v.delta, v.gamma_D, v.gamma_max, v.margin, v.reproducible)
        if got != want:
            failures.append(f"verdict row {got} differs from recomputed {want}")
    return failures


def check_run(config: dict, run_dir: Path) -> dict[str, list[str]]:
    characterization = _rows(run_dir / "characterization.csv")
    scatter = _rows(run_dir / "report" / "fig_scatter.csv")
    expected = len(config["qubits"]) * config["plan"]["L"]
    return {
        "characterize": check_characterization(config, characterization),
        "verdict": check_verdicts(characterization, _rows(run_dir / "verdicts.csv")),
        "report": [] if len(scatter) == expected
        else [f"fig_scatter.csv has {len(scatter)} rows, expected {expected}"],
    }


if __name__ == "__main__":
    config_path, run_dir = sys.argv[1:]
    config = json.loads(Path(config_path).read_text())
    print(json.dumps(check_run(config, Path(run_dir))))
