"""Tests of the package's public namespace."""

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import reprobound
from reprobound.cli import parse_args

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from reprobound import *", namespace)
    assert set(reprobound.__all__) <= set(namespace)


def test_every_public_name_is_exported():
    # The package binds its exporting submodules' __all__ on first use, and
    # dir() binds them too: a name bound in the package but missing from
    # __all__, or the reverse, fails here.
    public = {
        name
        for name in dir(reprobound)
        if not name.startswith("_") and not inspect.ismodule(getattr(reprobound, name))
    }
    assert public == set(reprobound.__all__) - {"__version__"}


def test_version_has_one_source():
    # pyproject.toml reads the version that the package reports.
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "reprobound._version.__version__"}


def test_python_floor_has_possessive_repeats():
    # sampler's pattern for a row of counts uses possessive repeats, which re has
    # from Python 3.11 on.
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["requires-python"] == ">=3.11"


def test_benchmark_tracer_finds_its_layers(tmp_path):
    # perfbench/traced.py wraps layer functions by name; a layer it cannot
    # find reads 0 in the benchmark instead of failing. Only block_stream,
    # which the counts-first sampler no longer has, may be missing.
    spans = tmp_path / "spans.json"
    argv = ["plan-samples", "--p", "0.5", "--precision", "0.1", "--confidence", "0.9"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(spans.read_text())["missing"]) <= {"sampler.block_stream"}


def test_benchmark_argv_parses(tmp_path, monkeypatch):
    # perfbench/run.py starts each command with the argv of its cli_argv; an
    # option the parser no longer takes would fail every benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    argv = {c: [*map(str, bench.cli_argv(c, tmp_path / "cfg.json", tmp_path / "run"))] for c in bench.COMMANDS}
    for command in bench.COMMANDS:
        assert parse_args(argv[command]).command == command
    # The traced simulate --threads 2 run.
    assert parse_args(argv["simulate"] + ["--threads", "2"]).threads == 2


def test_readme_run_directory_layout_names_the_manifest_schema():
    # A schema bump that README's layout does not follow fails here.
    from reprobound.sampler import MANIFEST_SCHEMA

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = re.search(r"^## Run directory layout\n(.*?)^## ", readme, re.M | re.S).group(1)
    assert f"({MANIFEST_SCHEMA})" in layout


def test_readme_run_directory_layout_lists_the_table_columns():
    # A column added, dropped or moved that README's layout does not follow fails here.
    from reprobound.bounds import VERDICT_COLUMNS
    from reprobound.estimator import CSV_COLUMNS

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = re.search(r"^## Run directory layout\n(.*?)^## ", readme, re.M | re.S).group(1)
    text = " ".join(layout.split())

    def listed(table):
        return re.search(rf"`{re.escape(table)}` columns: `([^`]*)`", text).group(1).split(", ")

    assert listed("characterization.csv") == list(CSV_COLUMNS)
    assert listed("verdicts.csv") == list(VERDICT_COLUMNS)
    derived = re.search(r"Of these, (.*?) are derived from the row's other columns", text).group(1)
    columns = [*CSV_COLUMNS.items(), *VERDICT_COLUMNS.items()]
    assert re.findall(r"`(\w+)`", derived) == [name for name, parse in columns if parse is None]


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    # The python block under README's "## Library use", run as a user runs
    # it; it writes run/, so it runs in tmp_path.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block, namespace)
    # The values its comments state.
    sp, est, rb = namespace["sp"], namespace["est"], namespace["rb"]
    assert (sp.z, sp.T) == (1.9599639845400538, 38415)
    assert est._fields == ("qubit", "f0_mean", "f1_mean", "eps_sigma", "gamma_hat", "d_mean", "d_sigma", "L", "S")
    assert capsys.readouterr().out == "c qubit 0 experiment 0: count 8193 must be an int in [0, S=8192]\n"
    assert rb.lemma_a1_check([0.1, 0.2, 0.5], [0.0, 0.25, 0.5, 1.0]) == []
