"""Write the device config of one benchmark workload.

Usage: python3 perfbench/config.py OUT QUBITS L S SEED

The qubits come from the same generator as the 27-qubit acceptance pipeline
(``tests/test_acceptance.py::_heterogeneous_config``): readout fidelities in
[0.9, 0.995], asymmetries up to ~0.1 and gate angle errors up to 2 degrees.
SEED seeds both that generator and the plan, so one seed gives one config.
Runs in its own process so that run.py never imports numpy.
"""

import json
import math
import sys

import numpy as np


def device_config(qubits: int, L: int, S: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    entries = []
    for q in range(qubits):
        f0 = float(rng.uniform(0.9, 0.995))
        f1 = float(np.clip(f0 - rng.uniform(0.0, 0.1), 0.8, 1.0))
        theta = float(rng.uniform(-math.radians(2.0), math.radians(2.0)))
        entries.append({"index": q, "f0": f0, "f1": f1, "theta_rad": theta})
    return {
        "schema": "device-config/1",
        "name": f"synthetic-{qubits}q",
        "qubits": entries,
        "plan": {"L": L, "S": S, "seed": seed},
    }


if __name__ == "__main__":
    out, *sizes = sys.argv[1:]
    with open(out, "w") as fh:
        json.dump(device_config(*map(int, sizes)), fh)
