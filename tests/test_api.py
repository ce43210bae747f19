"""Tests of the package's public namespace."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import reprobound


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from reprobound import *", namespace)
    assert set(reprobound.__all__) <= set(namespace)


def test_every_public_name_is_exported():
    # The package binds its names lazily, so resolve each one: a name in
    # __all__ that its submodule does not define raises AttributeError here.
    public = {
        name
        for name in dir(reprobound)
        if not name.startswith("_") and not inspect.ismodule(getattr(reprobound, name))
    }
    assert public == set(reprobound.__all__) - {"__version__"}


def test_benchmark_tracer_finds_its_layers(tmp_path):
    # perfbench/traced.py wraps layer functions by name; a layer it cannot
    # find reads 0 in the benchmark instead of failing. Only block_stream,
    # which the counts-first sampler no longer has, may be missing.
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    argv = ["plan-samples", "--p", "0.5", "--precision", "0.1", "--confidence", "0.9"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced.py"), str(spans), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(spans.read_text())["missing"]) <= {"sampler.block_stream"}
