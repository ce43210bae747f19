"""End-to-end tests of the command-line interface and its exit codes."""

import ast
import csv
import errno
import importlib.util
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tomllib
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reprobound
from oracles import Distribution, hellinger, kraus_readout, pre_readout_probs, uniform_ideal
from reprobound import artifacts, bounds, cli, estimator, sampler
from reprobound.bounds import delta_star
from reprobound.cli import main, parse_args
from reprobound.errors import (
    ConfigError,
    IncompleteArchiveError,
    InsufficientDataError,
    InvalidParameterError,
    OutOfRegimeError,
    ReproBoundError,
)
from reprobound.noise_model import QubitNoiseParams, gamma_of, hellinger_1q

ROOT = Path(__file__).resolve().parents[1]

PERFECT_QUBIT = {"index": 0, "f0": 1.0, "f1": 1.0, "theta_rad": 0.0}


def perfbench_module(name):
    """The benchmark's ``perfbench/NAME.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_config(path, qubits, L=2, S=4, seed=11, name="test-device"):
    doc = {
        "schema": "device-config/1",
        "name": name,
        "qubits": qubits,
        "plan": {"L": L, "S": S, "seed": seed},
    }
    path.write_text(json.dumps(doc))
    return path


def write_snapshot(path, qubits, source="vendor-x", schema="calibration-snapshot/1"):
    doc = {
        "schema": schema,
        "source": source,
        "captured_at": "2026-08-10T12:00:00Z",
        "qubits": qubits,
    }
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def edit_lines(path, change):
    lines = path.read_text().splitlines()
    change(lines)
    path.write_text("".join(line + "\n" for line in lines))
    return path


def edit_counts(run, change):
    """Apply ``change`` to the counts of ``run``'s manifest."""
    manifest = json.loads((run / "manifest.json").read_text())
    change(manifest["counts"])
    (run / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def set_row_cell(counts, kind, qubit, experiment, value):
    cells = counts[kind][qubit].split(",")
    cells[experiment] = value
    counts[kind][qubit] = ",".join(cells)


def set_csv_cell(lines, row, column, value):
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)


# The position of each column of characterization.csv and of verdicts.csv, by name.
CHAR_COLUMN = {name: i for i, name in enumerate(estimator.CSV_COLUMNS)}
VERDICT_COLUMN = {name: i for i, name in enumerate(bounds.VERDICT_COLUMNS)}


def float_cells(path):
    """The cells below a CSV file's header that read as a float and are not
    integer literals."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cells = [cell for row in rows for cell in row if not re.fullmatch(r"-?[0-9]+", cell)]
    return [cell for cell in cells if is_float(cell)]


def is_float(text):
    try:
        float(text)
    except ValueError:
        return False  # text: a kind, a flag or a note
    return True


@pytest.fixture
def small_run(tmp_path, request):
    """A characterized noisy two-qubit run directory, of 512 shots per
    experiment unless a test passes another count as the fixture's param."""
    cfg = write_config(
        tmp_path / "cfg.json",
        [
            {"index": 0, "f0": 0.99, "f1": 0.95, "theta_rad": 0.0213},
            {"index": 1, "f0": 0.97, "f1": 0.9, "theta_rad": -0.01},
        ],
        L=6,
        S=getattr(request, "param", 512),
        seed=20,
    )
    run = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(run), "--quiet"]) == 0
    assert main(["characterize", str(run), "--quiet"]) == 0
    return run


def run_counts(run):
    """The manifest's counts: each kind's rows of text, in plan order."""
    return json.loads((run / "manifest.json").read_text())["counts"]


def write_manifest_6_run(run):
    """Rewrite ``run`` as a run-manifest/6 release wrote it: the counts in
    counts.csv, one row per kind and qubit, beside a manifest without them."""
    manifest = json.loads((run / "manifest.json").read_text())
    counts = manifest.pop("counts")
    manifest["schema"] = "run-manifest/6"
    (run / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    qubits = [q["index"] for q in manifest["qubits"]]
    lines = [",".join(["kind", "qubit", *map(str, range(manifest["plan"]["L"]))])]
    lines += [f"{kind},{q},{row}" for kind, rows in counts.items() for q, row in zip(qubits, rows)]
    (run / "counts.csv").write_text("".join(line + "\n" for line in lines))


def write_manifest_3_run(run):
    """Rewrite ``run`` as a run-manifest/3 release wrote it: one counts.csv
    row per experiment, ending in S."""
    write_manifest_6_run(run)
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["numpy_version"]
    manifest["schema"] = "run-manifest/3"
    (run / "manifest.json").write_text(json.dumps(manifest))
    S = manifest["plan"]["S"]
    lines = ["kind,qubit,experiment,ones,shots"]
    for line in (run / "counts.csv").read_text().splitlines()[1:]:
        kind, qubit, *ones = line.split(",")
        lines += [f"{kind},{qubit},{l},{k},{S}" for l, k in enumerate(ones)]
    (run / "counts.csv").write_text("".join(line + "\n" for line in lines))


class TestSimulate:
    def test_trivial_run_layout(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT], L=2, S=4)
        run = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out", str(run)]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["manifest.json"]
        counts = run_counts(run)
        # The perfect qubit's SPAM counts are certain; its test circuit's are not.
        assert {kind: rows for kind, rows in counts.items() if kind != "c"} == {"spam0": ["0,0"], "spam1": ["4,4"]}
        assert [len(row.split(",")) for row in counts["c"]] == [2]
        assert json.loads((run / "manifest.json").read_text())["schema"] == "run-manifest/7"

    def test_duplicate_qubit_index_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT, PERFECT_QUBIT])
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"{cfg}: plan: qubit 0 appears more than once" in capsys.readouterr().err

    def test_non_contiguous_indices_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", [PERFECT_QUBIT, {"index": 2, "f0": 1.0, "f1": 1.0, "theta_rad": 0.0}]
        )
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"{cfg}: qubit indices must be contiguous from 0, got [0, 2]" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"schema": "device-config/1", "qubits": [')
        assert main(["simulate", str(bad), "--out", str(tmp_path / "run")]) == 2
        assert "line" in capsys.readouterr().err

    def test_out_of_range_fidelity_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 1.3, "f1": 1.0, "theta_rad": 0.0}])
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "qubits[0]" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "run")]) == 3

    def test_missing_out_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT])
        assert main(["simulate", str(cfg)]) == 2
        assert capsys.readouterr().err == "reprobound: error: simulate: missing --out\n"

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.9, "f1": 0.9, "theta_rad": 0.0}], S=128)
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(run_a), "--quiet"]) == 0
        assert main(["simulate", str(cfg), "--seed", "999", "--out", str(run_b), "--quiet"]) == 0
        assert run_counts(run_a) != run_counts(run_b)
        # The manifest records the config's qubits and plan, with --seed applied.
        config = json.loads(cfg.read_text())
        manifest = json.loads((run_b / "manifest.json").read_text())
        assert manifest["qubits"] == config["qubits"]
        assert manifest["plan"] == {**config["plan"], "seed": 999}

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT])
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_drift_flag_changes_counts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.9, "f1": 0.9, "theta_rad": 0.0}], L=4, S=256)
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(run_a), "--quiet"]) == 0
        assert main(["simulate", str(cfg), "--out", str(run_b), "--quiet", "--drift", "0.05"]) == 0
        assert run_counts(run_a) != run_counts(run_b)

    def test_negative_zero_drift_is_zero_drift(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.9, "f1": 0.9, "theta_rad": 0.0}], L=4, S=256)
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(run_a), "--quiet", "--drift", "0"]) == 0
        assert main(["simulate", str(cfg), "--out", str(run_b), "--quiet", "--drift", "-0.0"]) == 0
        assert '"drift": 0.0' in (run_b / "manifest.json").read_text()
        assert run_counts(run_a) == run_counts(run_b)

    @pytest.mark.parametrize("sigma", ["-0.1", "inf", "nan", "1e308"])
    def test_bad_drift_rejected(self, tmp_path, sigma, capsys):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT])
        run = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out", str(run), "--drift", sigma]) == 2
        assert "--drift" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_names_the_flag(self, tmp_path, seed, capsys):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT])
        run = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out", str(run), "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == (
            f"reprobound: error: --seed: seed must be a 64-bit unsigned integer, got {seed}\n"
        )
        assert not run.exists()

    def test_resimulating_clears_derived_tables(self, small_run, capsys):
        cfg = small_run.parent / "cfg.json"
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        (small_run / "report" / "notes.txt").write_text("kept")
        assert main(["simulate", str(cfg), "--seed", "99", "--out", str(small_run), "--quiet"]) == 0
        assert sorted(p.name for p in small_run.iterdir()) == ["manifest.json", "report"]
        assert [p.name for p in (small_run / "report").iterdir()] == ["notes.txt"]
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert f"{small_run}: no verdicts.csv; run characterize and verdict first" in capsys.readouterr().err

    def test_resimulating_clears_an_older_report_bundle(self, small_run):
        # Names that earlier releases wrote: a per-qubit table for each figure,
        # before qubits.csv, and the constant check of Lemma A1.
        retired = ["table1.csv", "fig_theta.csv", "fig_hellinger.csv", "fig_asymmetry.csv", "fig_gamma.csv",
                   "lemma_report.json"]
        (small_run / "report").mkdir()
        for name in retired:
            (small_run / "report" / name).write_text("qubit\n0\n1\n")
        assert main(["simulate", str(small_run.parent / "cfg.json"), "--out", str(small_run), "--quiet"]) == 0
        assert list((small_run / "report").iterdir()) == []

    def test_rebuilds_a_run_manifest_3_directory(self, small_run, capsys):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        counts = run_counts(small_run)
        write_manifest_3_run(small_run)
        capsys.readouterr()
        assert main(["characterize", str(small_run), "--quiet"]) == 4
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert capsys.readouterr().err.count("schema must be 'run-manifest/7', got 'run-manifest/3'") == 2
        assert main(["simulate", str(small_run.parent / "cfg.json"), "--out", str(small_run), "--quiet"]) == 0
        assert run_counts(small_run) == counts
        assert main(["characterize", str(small_run), "--quiet"]) == 0

    def test_rebuilds_a_run_manifest_6_directory(self, small_run, capsys):
        # A /6 run kept its counts in counts.csv, a name simulate now retires.
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        counts = run_counts(small_run)
        write_manifest_6_run(small_run)
        capsys.readouterr()
        assert main(["characterize", str(small_run), "--quiet"]) == 4
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert capsys.readouterr().err == (
            f"reprobound: error: {small_run / 'manifest.json'}: "
            "schema must be 'run-manifest/7', got 'run-manifest/6'\n"
        ) * 2
        assert main(["simulate", str(small_run.parent / "cfg.json"), "--out", str(small_run), "--quiet"]) == 0
        assert run_files(small_run) == ["manifest.json"]
        assert run_counts(small_run) == counts
        assert main(["characterize", str(small_run), "--quiet"]) == 0
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0


class TestCharacterize:
    def test_perfect_device_rows(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT], L=4, S=1024)
        run = tmp_path / "run"
        main(["simulate", str(cfg), "--out", str(run), "--quiet"])
        assert main(["characterize", str(run), "--quiet"]) == 0
        rows = read_rows(run / "characterization.csv")
        assert len(rows) == 1
        assert float(rows[0]["eps_mean"]) == 0.0
        assert abs(float(rows[0]["theta_hat_rad"])) < 0.05

    def test_truncated_block_is_incomplete(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT], L=2, S=64)
        run = tmp_path / "run"
        main(["simulate", str(cfg), "--out", str(run), "--quiet"])
        edit_counts(run, lambda counts: counts["c"].pop())
        assert main(["characterize", str(run)]) == 4
        assert capsys.readouterr().err == (
            f"reprobound: error: {run}: manifest.json does not describe a valid run: "
            "manifest: counts: c qubit 0: no row; the list ends after 0\n"
        )

    def test_missing_run_dir_is_incomplete(self, tmp_path):
        assert main(["characterize", str(tmp_path / "ghost")]) == 4


class TestVerdict:
    def test_perfect_qubit_reproducible(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT], L=4, S=512)
        run = tmp_path / "run"
        main(["simulate", str(cfg), "--out", str(run), "--quiet"])
        main(["characterize", str(run), "--quiet"])
        assert main(["verdict", str(run / "characterization.csv"), "--delta", "0.1", "--quiet"]) == 0
        rows = read_rows(run / "verdicts.csv")
        assert rows[0]["reproducible"] == "true"

    def test_fixed_delta_reproducible(self, small_run):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta", "0.2", "--quiet"]) == 0
        rows = read_rows(small_run / "verdicts.csv")
        assert [r["reproducible"] for r in rows] == ["true", "true"]

    def test_observed_delta_mode(self, small_run):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        rows = read_rows(small_run / "verdicts.csv")
        assert all(r["reproducible"] == "true" for r in rows)
        assert len({r["delta"] for r in rows}) == len(rows)

    def test_delta_above_ceiling(self, small_run, capsys):
        # Checked before the source is read: a missing source exits 5 too.
        for source in (small_run / "characterization.csv", small_run / "absent.csv"):
            assert main(["verdict", str(source), "--delta", "0.9"]) == 5
            assert "0.5411961" in capsys.readouterr().err

    def test_observed_distance_above_ceiling_names_file_and_qubit(self, small_run, capsys):
        # d_mean lies in [0, 1], so the reader accepts 0.6; only the bound's ceiling rejects it.
        char = small_run / "characterization.csv"
        column = char.read_text().splitlines()[0].split(",").index("d_mean")
        edit_lines(char, lambda lines: set_csv_cell(lines, 2, column, "0.6"))
        assert main(["verdict", str(char), "--delta-from-observed"]) == 5
        ceiling = delta_star(1)
        assert capsys.readouterr().err == (
            f"reprobound: error: {char}: qubit 1: delta=0.6 above the validity ceiling "
            f"delta_star(1)={ceiling!r} (largest valid tolerance: {ceiling!r})\n"
        )
        assert not (small_run / "verdicts.csv").exists()

    def test_tight_delta_not_reproducible(self, small_run):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta", "0.001", "--quiet"]) == 0
        rows = read_rows(small_run / "verdicts.csv")
        assert all(r["reproducible"] == "false" for r in rows)

    def test_unrecoverable_angle_needs_override(self, tmp_path):
        # f0=1, f1=0 leaves the gate angle unidentifiable (f_hat = 1/2).
        cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 1.0, "f1": 0.0, "theta_rad": 0.0}], L=3, S=64)
        run = tmp_path / "run"
        main(["simulate", str(cfg), "--out", str(run), "--quiet"])
        main(["characterize", str(run), "--quiet"])
        char = run / "characterization.csv"
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 2
        assert main(["verdict", str(char), "--delta", "0.3", "--theta", "0.0", "--quiet"]) == 0

    def test_duplicate_characterization_row_rejected(self, small_run, capsys):
        char = edit_lines(small_run / "characterization.csv", lambda lines: lines.append(lines[1]))
        assert main(["verdict", str(char), "--delta", "0.2", "--quiet"]) == 2
        assert f"{char}: qubit 0 appears more than once" in capsys.readouterr().err
        assert not (small_run / "verdicts.csv").exists()

    @pytest.mark.parametrize("angle,override", [({"theta_rad": 1e308}, []), ({}, ["--theta", "1e308"])],
                             ids=["json", "override"])
    def test_angle_whose_double_overflows_rejected(self, tmp_path, angle, override, capsys):
        # 2*theta is inf, so sin(2*theta) has no value.
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 0.94, **angle}])
        assert main(["verdict", str(snap), "--delta", "0.2", "--quiet", *override]) == 2
        assert "theta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "verdicts.csv").exists()

    @pytest.mark.parametrize("theta", ["nan", "1e308", "2.5"])
    def test_theta_is_checked_before_the_source_is_read(self, small_run, theta, capsys):
        # Every qubit of small_run has an angle, so --theta stands in for none.
        char = small_run / "characterization.csv"
        assert not any(math.isnan(float(row["theta_hat_rad"])) for row in read_rows(char))
        for source in (char, small_run / "absent.csv"):
            assert main(["verdict", str(source), "--delta", "0.2", "--theta", theta, "--quiet"]) == 2
            assert capsys.readouterr().err.startswith("reprobound: error: --theta: ")
        assert not (small_run / "verdicts.csv").exists()

    @pytest.mark.parametrize(
        "options,message",
        [
            (["--delta", "-1"], "--delta: delta must be a finite non-negative value, got -1.0"),
            (["--delta", "nan"], "--delta: delta must be a finite non-negative value, got nan"),
            (["--delta", "0.1", "--n", "0"], "--n: qubit count must be >= 1, got 0"),
            (["--delta-from-observed", "--n", "-2"], "--n: qubit count must be >= 1, got -2"),
        ],
        ids=["negative-delta", "nan-delta", "zero-n", "negative-n-observed"],
    )
    def test_n_and_delta_are_checked_before_the_source_is_read(self, small_run, options, message, capsys):
        for source in (small_run / "characterization.csv", small_run / "absent.csv"):
            assert main(["verdict", str(source), *options, "--quiet"]) == 2
            assert capsys.readouterr().err == f"reprobound: error: {message}\n"
        assert not (small_run / "verdicts.csv").exists()

    def test_register_size_beyond_float_rejected(self, small_run, capsys):
        n = "1" + "0" * 400
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta", "0.1", "--n", n, "--quiet"]) == 2
        assert "qubit count must fit a float" in capsys.readouterr().err


def snapshot_verdicts(tmp_path, qubits, *options, name="snap"):
    """The bytes of the verdicts.csv that ``verdict --delta 0.02`` writes for
    a calibration snapshot of ``qubits``, in a directory of its own."""
    (tmp_path / name).mkdir()
    snap = write_snapshot(tmp_path / name / "snap.json", qubits)
    assert main(["verdict", str(snap), "--delta", "0.02", *options, "--quiet"]) == 0
    return (snap.parent / "verdicts.csv").read_bytes()


class TestImportCalibration:
    """verdict reads a calibration snapshot directly."""

    def test_minimal_snapshot(self, tmp_path):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 0.94, "theta_rad": 0.01}])
        assert main(["verdict", str(snap), "--delta", "0.05", "--quiet"]) == 0
        (row,) = read_rows(tmp_path / "verdicts.csv")
        v = bounds.verdict(1, 0.05, 0.98 - 0.94, 0.01, (0.98 + 0.94) / 2)
        assert (row["qubit"], row["gamma_D"], row["reproducible"]) == ("0", repr(v.gamma_D), "true")

    def test_fidelity_above_one_rejected(self, tmp_path):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 1.02}])
        assert main(["verdict", str(snap), "--delta", "0.05", "--theta", "0.01"]) == 2

    def test_duplicate_qubit_index_rejected(self, tmp_path, capsys):
        entry = {"index": 0, "f0": 0.98, "f1": 0.94, "theta_rad": 0.01}
        snap = write_snapshot(tmp_path / "snap.json", [entry, {**entry, "index": 1}, entry])
        assert main(["verdict", str(snap), "--delta", "0.05"]) == 2
        assert f"{snap}: qubit 0 appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "verdicts.csv").exists()

    def test_wrong_schema_rejected(self, tmp_path):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.9, "f1": 0.9}], schema="other/9")
        assert main(["verdict", str(snap), "--delta", "0.05", "--theta", "0.01"]) == 2

    def test_normalized_calibration_exits_2_naming_its_schema(self, tmp_path, capsys):
        # The format that import-calibration wrote before verdict read snapshots.
        entry = {"index": 0, "f0": 0.98, "f1": 0.94, "theta_rad": 0.01}
        norm = write_snapshot(tmp_path / "snap.normalized.json", [entry], schema="calibration-normalized/1")
        assert main(["verdict", str(norm), "--delta", "0.05"]) == 2
        assert capsys.readouterr().err == (
            f"reprobound: error: {norm}: schema must be 'calibration-snapshot/1', got 'calibration-normalized/1'\n"
        )
        assert not (tmp_path / "verdicts.csv").exists()

    def test_gate_error_degrees(self, tmp_path):
        qubit = {"index": 0, "f0": 0.98, "f1": 0.94}
        assert snapshot_verdicts(tmp_path, [{**qubit, "gate_error": {"value": 1.5, "unit": "deg"}}]) == (
            snapshot_verdicts(tmp_path, [{**qubit, "theta_rad": math.radians(1.5)}], name="rad")
        )

    def test_gate_error_infidelity(self, tmp_path):
        # An infidelity gives |theta| = arcsin(sqrt(3v/2)): the verdict takes
        # the sign that makes gamma_D the larger, |eps| + 2 sin(2|theta|) |f - 1/2|.
        theta = 0.02
        infid = (2.0 / 3.0) * math.sin(theta) ** 2
        snap = write_snapshot(
            tmp_path / "snap.json",
            [{"index": 0, "f0": 0.98, "f1": 0.94, "gate_error": {"value": infid, "unit": "infidelity"}}],
        )
        assert main(["verdict", str(snap), "--delta", "0.05", "--quiet"]) == 0
        (row,) = read_rows(tmp_path / "verdicts.csv")
        eps, f = 0.98 - 0.94, (0.98 + 0.94) / 2
        assert float(row["gamma_D"]) == pytest.approx(abs(eps) + 2 * math.sin(2 * theta) * abs(f - 0.5), rel=1e-9)

    def test_infidelity_is_judged_at_its_less_favourable_sign(self, tmp_path):
        # The snapshot cannot tell theta from -theta, so the upper-bound
        # verdict is the larger gamma_D of the two, whichever signs eps and
        # f - 1/2 have; theta_rad and the other units keep their sign.
        angle = math.asin(math.sqrt(1.5 * 3e-4))
        for i, (f0, f1) in enumerate([(0.99, 0.95), (0.91, 0.96), (0.3, 0.2), (0.2, 0.3)]):
            qubit = {"index": 0, "f0": f0, "f1": f1}
            infidelity = snapshot_verdicts(
                tmp_path, [{**qubit, "gate_error": {"value": 3e-4, "unit": "infidelity"}}], name=f"{i}"
            )
            signed = [
                snapshot_verdicts(tmp_path, [{**qubit, "theta_rad": theta}], name=f"{i}{theta}")
                for theta in (angle, -angle)
            ]
            assert infidelity == max(signed, key=lambda raw: float(raw.split(b"\n")[1].split(b",")[3])), (f0, f1)

    def test_infidelity_probe(self, tmp_path):
        # f0 0.99, f1 0.95, v = 3e-4 at --delta 0.02 (gamma_max 0.0565): at
        # +|theta| gamma_D would be 1.28e-4, at -|theta| it is 0.0799.
        snap = write_snapshot(
            tmp_path / "snap.json",
            [
                {"index": 0, "f0": 0.99, "f1": 0.95, "gate_error": {"value": 3e-4, "unit": "infidelity"}},
                {"index": 1, "f0": 0.99, "f1": 0.95, "theta_rad": -0.021214},
                {"index": 2, "f0": 0.99, "f1": 0.95, "theta_rad": 0.021214},
            ],
        )
        assert main(["verdict", str(snap), "--delta", "0.02", "--quiet"]) == 0
        rows = read_rows(tmp_path / "verdicts.csv")
        assert [(float(r["gamma_D"]), r["reproducible"]) for r in rows] == [
            (pytest.approx(0.0799, abs=1e-4), "false"),
            (pytest.approx(0.0799, abs=1e-4), "false"),
            (pytest.approx(1.28e-4, abs=2e-6), "true"),
        ]
        assert float(rows[0]["gamma_max"]) == pytest.approx(0.0565, abs=1e-4)

    def test_x_gate_error_in_the_calibrated_f1_can_pass_a_device_that_fails(self, tmp_path):
        # A readout calibration prepares |1> with an X gate. This device has
        # f0 0.95, f1 0.99 and theta 0.002 rad, and its X gate leaves e_x =
        # 0.01 in |0>, so the calibration reports f1' = f1 (1 - e_x) + (1 - f0) e_x.
        # The test circuit runs no X gate: its output follows f1, not f1'.
        device = QubitNoiseParams(f0=0.95, f1=0.99, theta=0.002)
        e_x = 0.01
        f1_calibrated = device.f1 * (1 - e_x) + (1 - device.f0) * e_x
        # The device's own output: the noisy Hadamard's populations, then its readout.
        probs = kraus_readout(device, np.diag(pre_readout_probs(device.theta)))
        true_distance = hellinger(Distribution(1, probs), uniform_ideal(1))
        eps, f = device.f0 - f1_calibrated, (device.f0 + f1_calibrated) / 2
        snapshot_gamma_D = abs(eps) + 2 * math.sin(2 * device.theta) * abs(f - 0.5)
        low, high = bounds.exact_hellinger_1q(snapshot_gamma_D), bounds.exact_hellinger_1q(abs(gamma_of(device)))
        assert (round(low, 4), round(high, 4)) == (0.0121, 0.0155)
        assert true_distance == pytest.approx(high, abs=1e-12)
        delta = (low + high) / 2
        calibrated = {"index": 0, "f0": device.f0, "f1": f1_calibrated, "theta_rad": device.theta}
        measurement_only = {**calibrated, "index": 1, "f1": device.f1}
        snap = write_snapshot(tmp_path / "snap.json", [calibrated, measurement_only])
        assert main(["verdict", str(snap), "--delta", repr(delta), "--quiet"]) == 0
        rows = read_rows(tmp_path / "verdicts.csv")
        assert float(rows[0]["gamma_D"]) == pytest.approx(snapshot_gamma_D, rel=1e-12)
        # The snapshot's verdict says reproducible, but the device's distance exceeds delta.
        assert rows[0]["reproducible"] == "true" and true_distance > delta
        # The fidelity of the measurement alone gives the device's verdict.
        assert rows[1]["reproducible"] == "false"

    def test_units_that_give_the_sign_keep_it(self, tmp_path):
        # A snapshot of theta_rad, rad, deg and a missing angle with --theta
        # gives the verdicts of the same angles in radians.
        qubits = [{"index": i, "f0": 0.97, "f1": 0.92 + 0.01 * i} for i in range(4)]
        given = [
            {**qubits[0], "theta_rad": -0.012},
            {**qubits[1], "gate_error": {"value": -0.015, "unit": "rad"}},
            {**qubits[2], "gate_error": {"value": -1.5, "unit": "deg"}},
            qubits[3],
        ]
        radians = [
            {**qubits[0], "theta_rad": -0.012},
            {**qubits[1], "theta_rad": -0.015},
            {**qubits[2], "theta_rad": math.radians(-1.5)},
            {**qubits[3], "theta_rad": -0.01},
        ]
        assert snapshot_verdicts(tmp_path, given, "--theta", "-0.01") == snapshot_verdicts(tmp_path, radians, name="rad")

    def test_unknown_unit_never_guessed(self, tmp_path):
        snap = write_snapshot(
            tmp_path / "snap.json",
            [{"index": 0, "f0": 0.98, "f1": 0.94, "gate_error": {"value": 0.1, "unit": "furlongs"}}],
        )
        assert main(["verdict", str(snap), "--delta", "0.1"]) == 2

    def test_missing_angle_is_flagged_then_needs_override(self, tmp_path, capsys):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 0.94}])
        assert main(["verdict", str(snap), "--delta", "0.1"]) == 2
        assert capsys.readouterr().err == (
            f"reprobound: error: {snap}: qubit 0: no gate angle available; pass --theta RADIANS\n"
        )
        assert main(["verdict", str(snap), "--delta", "0.1", "--theta", "0.01", "--quiet"]) == 0

    def test_delta_from_observed_needs_observed_distances(self, tmp_path, capsys):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 0.94, "theta_rad": 0.01}])
        assert main(["verdict", str(snap), "--delta-from-observed"]) == 2
        assert "--delta-from-observed needs characterization input" in capsys.readouterr().err
        assert not (tmp_path / "verdicts.csv").exists()

    def test_verdict_reads_json_by_a_case_insensitive_suffix(self, tmp_path):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 0.94, "theta_rad": 0.01}])
        verdicts = []
        for i, suffix in enumerate((".json", ".JSON")):
            source = tmp_path / str(i) / f"cal{suffix}"
            source.parent.mkdir()
            shutil.copyfile(snap, source)
            assert main(["verdict", str(source), "--delta", "0.05", "--quiet"]) == 0
            verdicts.append((source.parent / "verdicts.csv").read_bytes())
        assert verdicts[0] == verdicts[1]

    def test_coarse_readout_errors_end_to_end(self, tmp_path):
        # 27 register elements with readout assignment errors at the 1e-1 scale.
        qubits = []
        for q in range(27):
            err = 0.115 + 0.01 * math.sin(q)
            qubits.append(
                {
                    "index": q,
                    "f0": 1.0 - err,
                    "f1": 1.0 - err - 0.02,
                    "gate_error": {"value": 1.0 + 0.05 * q, "unit": "deg"},
                }
            )
        snap = write_snapshot(tmp_path / "snap.json", qubits)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["verdict", str(snap), "--delta", "0.3", "--out", str(out), "--quiet"]) == 0
        assert len(read_rows(out / "verdicts.csv")) == 27


class TestPlanSamples:
    def test_reference_output(self, capsys):
        assert main(["plan-samples", "--p", "0.5", "--precision", "0.01", "--confidence", "0.95"]) == 0
        out = capsys.readouterr().out
        assert "T = 38415" in out
        assert "z = 1.95996398" in out

    def test_half_precision_quarter_shots(self, capsys):
        assert main(["plan-samples", "--p", "0.5", "--precision", "0.02", "--confidence", "0.95"]) == 0
        assert "T = 9604" in capsys.readouterr().out

    def test_confidence_next_to_one_accepted(self, capsys):
        # alpha = 2**-53: 1 - alpha/2 rounds to 1.0, the quantile's pole.
        assert main(["plan-samples", "--p", "0.5", "--precision", "0.01", "--confidence", "0.9999999999999999"]) == 0
        assert "z = 8.29" in capsys.readouterr().out

    def test_zero_confidence_rejected(self, capsys):
        assert main(["plan-samples", "--p", "0.5", "--precision", "0.01", "--confidence", "0"]) == 2
        assert capsys.readouterr().err == "reprobound: error: --confidence must be in (0, 1), got 0.0\n"

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--p", "2", "--p must be in (0, 1), got 2.0"),
            ("--precision", "0", "--precision must be in (0, 1), got 0.0"),
            # It passes --confidence's own check, but 1 - 1e-17 rounds to 1.0.
            ("--confidence", "1e-17", "--confidence: 1 - confidence must be in (0, 1), got 1.0"),
        ],
    )
    def test_an_error_names_its_option(self, option, value, message, capsys):
        options = {"--p": "0.5", "--precision": "0.01", "--confidence": "0.95", option: value}
        assert main(["plan-samples", *(text for pair in options.items() for text in pair)]) == 2
        assert capsys.readouterr().err == f"reprobound: error: {message}\n"

    @pytest.mark.parametrize(
        "p, precision",
        [("0.5", "1e-160"), ("1e-300", "1e-10"), ("0.5", "1e-300")],
        ids=["overflow-precision", "overflow-probability", "precision-squared-underflows"],
    )
    def test_infinite_shot_count_rejected(self, p, precision, capsys):
        assert main(["plan-samples", "--p", p, "--precision", precision, "--confidence", "0.95"]) == 2
        err = capsys.readouterr().err
        assert "is not a finite number" in err and f"epsilon_rel={float(precision)!r}" in err


class TestReport:
    def test_requires_upstream_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT])
        run = tmp_path / "run"
        main(["simulate", str(cfg), "--out", str(run), "--quiet"])
        assert main(["report", str(run)]) == 4

    def test_bundle_contents(self, small_run):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        report = small_run / "report"
        assert sorted(path.name for path in report.iterdir()) == ["fig_scatter.csv", "qubits.csv"]
        scatter = read_rows(report / "fig_scatter.csv")
        assert len(scatter) == 6 * 2  # L experiments x qubits
        table = read_rows(report / "qubits.csv")
        assert [r["qubit"] for r in table] == ["0", "1"]
        for row in table:
            assert float(row["gamma_D"]) <= float(row["gamma_max"])

    def test_files_list_qubits_by_index_whatever_the_plan_order(self, tmp_path):
        # A qubit's counts depend on its index, not its place in the plan, so
        # a config listing the qubits out of order gives the same bundle.
        qubits = [
            {"index": 0, "f0": 0.99, "f1": 0.95, "theta_rad": 0.0213},
            {"index": 1, "f0": 0.97, "f1": 0.9, "theta_rad": -0.01},
            {"index": 2, "f0": 0.96, "f1": 0.92, "theta_rad": 0.03},
        ]
        bundles = []
        for name, order in (("sorted", qubits), ("shuffled", [qubits[1], qubits[2], qubits[0]])):
            run = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.json", order, L=4, S=256)
            assert main(["simulate", str(cfg), "--out", str(run), "--quiet"]) == 0
            assert main(["characterize", str(run), "--quiet"]) == 0
            assert main(["verdict", str(run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
            assert main(["report", str(run), "--quiet"]) == 0
            bundles.append({path.name: path.read_bytes() for path in sorted((run / "report").iterdir())})
        assert bundles[0] == bundles[1]
        for name, data in bundles[1].items():
            if name.endswith(".csv"):
                column = [line.split(",")[0] for line in data.decode().splitlines()[1:]]
                assert column == sorted(column, key=int), name

    def test_bundle_does_not_read_the_characterization(self, small_run):
        # report estimates each qubit from the run's counts; characterization.csv
        # is verdict's input only.
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        bundle = {path.name: path.read_bytes() for path in (small_run / "report").iterdir()}
        (small_run / "characterization.csv").unlink()
        shutil.rmtree(small_run / "report")
        assert main(["report", str(small_run), "--quiet"]) == 0
        assert {path.name: path.read_bytes() for path in (small_run / "report").iterdir()} == bundle

    def test_hellinger_mean_is_the_mean_of_the_scatter(self, small_run):
        # An edited characterization.csv cannot reach the report: each
        # qubit's d_mean is the mean of its own per-experiment distances.
        char = small_run / "characterization.csv"
        assert main(["verdict", str(char), "--delta-from-observed", "--quiet"]) == 0
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, CHAR_COLUMN["d_mean"], "0.25"))
        assert main(["report", str(small_run), "--quiet"]) == 0
        distances = {}
        for row in read_rows(small_run / "report" / "fig_scatter.csv"):
            distances.setdefault(row["qubit"], []).append(float(row["hellinger"]))
        means = {row["qubit"]: float(row["d_mean"]) for row in read_rows(small_run / "report" / "qubits.csv")}
        assert means == {q: math.fsum(d) / len(d) for q, d in distances.items()}

    def test_qubits_table_joins_the_verdicts_and_the_estimates(self, small_run):
        # Each cell keeps the text of the artifact it comes from.
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        table = read_rows(small_run / "report" / "qubits.csv")
        verdicts = read_rows(small_run / "verdicts.csv")
        estimates = {row["qubit"]: row for row in read_rows(small_run / "characterization.csv")}
        header = ["qubit", "gamma_max", "gamma_D", "theta_abs_deg", "d_mean", "d_sigma", "eps_mean", "eps_sigma"]
        assert list(table[0]) == header
        assert [row["qubit"] for row in table] == [row["qubit"] for row in verdicts] == sorted(estimates, key=int)
        for row, verdict in zip(table, verdicts):
            estimate = estimates[row["qubit"]]
            assert [row[name] for name in header[1:3]] == [verdict[name] for name in header[1:3]]
            assert [row[name] for name in header[4:]] == [estimate[name] for name in header[4:]]
            # repr(abs(nan)) is "nan", after a failed inversion.
            assert row["theta_abs_deg"] == repr(abs(math.degrees(float(estimate["theta_hat_rad"]))))

    def test_estimates_each_qubit_once(self, small_run, monkeypatch):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        calls = []
        per_experiment = estimator.per_experiment
        monkeypatch.setattr(estimator, "per_experiment", lambda *a: calls.append(a) or per_experiment(*a))
        for command in ("characterize", "report"):
            calls.clear()
            assert main([command, str(small_run), "--quiet"]) == 0
            assert len(calls) == 2, command  # small_run's qubits

    def test_scatter_matches_counts(self, small_run):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        S = json.loads((small_run / "manifest.json").read_text())["plan"]["S"]
        counts = {}
        for kind, rows in run_counts(small_run).items():
            for qubit, row in enumerate(rows):  # small_run's plan lists its qubits by index
                counts.update({(kind, str(qubit), str(l)): int(k) / S for l, k in enumerate(row.split(","))})
        for row in read_rows(small_run / "report" / "fig_scatter.csv"):
            key = (row["qubit"], row["experiment"])
            p1 = counts[("c", *key)]
            assert float(row["eps"]) == (1.0 - counts[("spam0", *key)]) - counts[("spam1", *key)]
            assert float(row["hellinger"]) == hellinger_1q(1.0 - p1, p1)

    # Each column holds a float that a 17-digit format would print otherwise
    # (0.9871 as 0.98709999999999998) in at least one of the two runs.
    @pytest.mark.parametrize("small_run", [512, 10000], indirect=True)
    def test_every_float_cell_is_its_shortest_text(self, small_run):
        """Every CSV of a run prints a float as its repr, as the JSON files do:
        the shortest text that reads back as the same double."""
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        paths = sorted(small_run.rglob("*.csv"))
        assert len(paths) == 4  # characterization, verdicts, fig_scatter and qubits
        floats = [(path.name, cell) for path in paths for cell in float_cells(path)]
        assert floats
        assert [(name, cell) for name, cell in floats if cell != repr(float(cell))] == []

    def test_empty_verdicts_is_incomplete(self, small_run, capsys):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        verdicts = small_run / "verdicts.csv"
        verdicts.write_text(verdicts.read_text().splitlines(keepends=True)[0])
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert "verdicts.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest",
        [
            '{"schema": ',
            '{"schema": "run-manifest/1", "status": "complete"}',
            '{"schema": "run-manifest/2", "status": "complete"}',
            '{"schema": "run-manifest/3", "status": "complete"}',
            '{"schema": "run-manifest/4", "status": "complete"}',
            '{"schema": "run-manifest/5", "status": "complete"}',
            '{"schema": "run-manifest/6"}',
            '{"schema": "run-manifest/7"}',
        ],
        ids=[
            "not-json", "old-schema", "old-schema-2", "old-schema-3", "old-schema-4", "old-schema-5", "old-schema-6",
            "missing-keys",
        ],
    )
    def test_bad_manifest_is_incomplete(self, small_run, manifest, capsys):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        (small_run / "manifest.json").write_text(manifest)
        assert main(["characterize", str(small_run), "--quiet"]) == 4
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,value",
        [
            (("plan", "L"), 6.7),
            (("plan", "S"), "512"),
            (("plan", "seed"), 20.9),
            (("plan", "seed"), "20"),
            (("qubits", 0, "index"), 0.5),
            (("qubits", 0, "index"), "0"),
            (("qubits", 0, "f0"), "0.99"),
            (("qubits", 0, "f0"), True),
            (("drift",), "0.05"),
            (("drift",), 2.0),
            (("numpy_version",), 2.4),
            (("numpy_version",), False),
        ],
        ids=[
            "L-float", "S-string", "seed-float", "seed-string", "index-float", "index-string", "f0-string",
            "f0-bool", "drift-string", "drift-out-of-range", "numpy-version-number", "numpy-version-bool",
        ],
    )
    def test_mistyped_manifest_is_incomplete(self, small_run, path, value, capsys):
        manifest_path = small_run / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        *parents, name = path
        doc = manifest
        for key in parents:
            doc = doc[key]
        doc[name] = value
        manifest_path.write_text(json.dumps(manifest))
        assert main(["characterize", str(small_run), "--quiet"]) == 4
        assert "manifest.json" in capsys.readouterr().err

    def test_non_integer_count_is_incomplete(self, small_run, capsys):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        edit_counts(small_run, lambda counts: counts["spam0"].__setitem__(0, "0,x,0,0,0,0"))
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,where",
        [
            (lambda counts: counts["spam1"].pop(0), "spam1 qubit 1: "),
            (lambda counts: counts["spam1"].insert(0, counts["spam0"][1]), "spam1: "),
            (lambda counts: counts["c"].append(counts["c"][-1]), "c: "),
            # Rows for another L than the plan's.
            (lambda counts: [rows.__setitem__(i, row + ",0") for rows in counts.values() for i, row in enumerate(rows)],
             "spam0 qubit 0: "),
            (lambda counts: counts["spam0"].__setitem__(1, counts["spam0"][1] + ",0"), "spam0 qubit 1: "),
            (lambda counts: set_row_cell(counts, "spam0", 1, 2, "+3"), "spam0 qubit 1 experiment 2: "),
            (lambda counts: set_row_cell(counts, "spam0", 1, 2, "05"), "spam0 qubit 1 experiment 2: "),
            (lambda counts: set_row_cell(counts, "spam0", 1, 2, "1_0"), "spam0 qubit 1 experiment 2: "),
            (lambda counts: set_row_cell(counts, "spam0", 1, 2, " 3"), "spam0 qubit 1 experiment 2: "),
            (lambda counts: set_row_cell(counts, "spam0", 1, 2, "\u0663"), "spam0 qubit 1 experiment 2: "),
            # Past int's digit limit, int raises where str would have written it.
            (lambda counts: set_row_cell(counts, "spam0", 1, 2, "1" * 5000), "spam0 qubit 1: "),
            # A count outside [0, S] is the archive's rule, which names the row by kind and qubit.
            (lambda counts: set_row_cell(counts, "spam0", 1, 2, "-1"), "spam0 qubit 1 experiment 2: "),
            (lambda counts: set_row_cell(counts, "spam0", 1, 2, "513"), "spam0 qubit 1 experiment 2: "),
        ],
        ids=[
            "missing-row", "duplicated-row", "extra-row", "wrong-L", "wide-row",
            "plus-sign", "leading-zero", "underscore", "leading-space", "unicode-digit", "5000-digits",
            "negative", "above-S",
        ],
    )
    def test_malformed_counts_exit_4_naming_the_line(self, small_run, edit, where, capsys):
        # Each row is one line of the manifest, named by its kind and qubit.
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        edit_counts(small_run, edit)
        capsys.readouterr()
        assert main(["characterize", str(small_run), "--quiet"]) == 4
        assert main(["report", str(small_run), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err.count(f"{small_run}: manifest.json does not describe a valid run: ") == 2
        assert err.count(where) == 2
        # No "missing:" line claims an existing file is absent.
        assert "missing:" not in err

    @pytest.mark.parametrize(
        "name,edit",
        [
            ("verdicts.csv", lambda lines: lines.pop()),
            ("verdicts.csv", lambda lines: lines.insert(1, lines.pop(2))),
        ],
        ids=["verdicts-fewer-qubits", "verdicts-out-of-order"],
    )
    def test_mismatched_artifacts_are_incomplete(self, small_run, name, edit, capsys):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        edit_lines(small_run / name, edit)
        assert main(["report", str(small_run), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert f"{small_run / name}: " in err
        assert "missing:" not in err

    def test_report_names_the_absent_verdicts(self, small_run, capsys):
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert f"{small_run}: no verdicts.csv; run characterize and verdict first" in capsys.readouterr().err

    def test_benchmark_check_passes(self, small_run):
        # perfbench/check.py recomputes bounds.verdict and reads its derived
        # values; an API slip there would fail every benchmark run.
        check = perfbench_module("check")
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        config = json.loads((small_run.parent / "cfg.json").read_text())
        assert check.check_run(config, small_run) == {"characterize": [], "verdict": [], "report": []}


def run_pipeline(tmp_path, tag, seed=77):
    cfg = write_config(
        tmp_path / f"cfg_{tag}.json",
        [
            {"index": 0, "f0": 0.99, "f1": 0.94, "theta_rad": 0.02},
            {"index": 1, "f0": 0.96, "f1": 0.91, "theta_rad": -0.015},
        ],
        L=5,
        S=256,
        seed=seed,
    )
    run = tmp_path / f"run_{tag}"
    assert main(["simulate", str(cfg), "--out", str(run), "--quiet"]) == 0
    assert main(["characterize", str(run), "--quiet"]) == 0
    assert main(["verdict", str(run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
    assert main(["report", str(run), "--quiet"]) == 0
    return run


def run_files(run):
    """The relative path of every file under ``run``, sorted."""
    return sorted(path.relative_to(run).as_posix() for path in run.rglob("*") if path.is_file())


def test_end_to_end_determinism(tmp_path):
    """The same config twice writes the same files, byte-identical but for
    the manifest's finished_at."""
    run_a = run_pipeline(tmp_path, "a")
    run_b = run_pipeline(tmp_path, "b")
    names = run_files(run_a)
    assert names == run_files(run_b)
    for name in names:
        a, b = (re.sub(rb'"finished_at": "[^"]*"', b"", (run / name).read_bytes()) for run in (run_a, run_b))
        assert a == b, name


def test_threads_do_not_change_outputs(tmp_path):
    # --threads is accepted for compatibility and has no effect.
    cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.9, "f1": 0.8, "theta_rad": 0.01}], L=5, S=256)
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(cfg), "--out", str(run_a), "--quiet"]) == 0
    assert main(["simulate", str(cfg), "--out", str(run_b), "--quiet", "--threads", "2"]) == 0
    assert run_counts(run_a) == run_counts(run_b)


def test_threads_help_says_ignored(capsys):
    assert main(["simulate", "--help"]) == 0
    assert "ignored" in capsys.readouterr().out


class FullStream:
    """A text stream on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["verdict", "-h"]])
def test_text_that_cannot_be_written_is_an_io_failure(monkeypatch, capsys, argv):
    # As for any output: exit 3 naming the error, not 0 with the text lost.
    monkeypatch.setattr(sys, "stdout", FullStream())
    assert main(argv) == 3
    assert capsys.readouterr().err == f"reprobound: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


# The ways the CLI is started, as code for a fresh interpreter: the two of a
# user, ``python -m reprobound`` (what runpy does for -m) and the
# ``reprobound`` console script (a call of cli.run, which ends the process),
# and a library call of cli.main whose code is not the process's exit
# status, as perfbench/traced.py calls it.
STARTS = {
    "python-m": "import runpy; runpy.run_module('reprobound', run_name='__main__', alter_sys=True)",
    "console-script": "from reprobound.cli import run; run()",
    "library-call": "import sys, reprobound.cli; reprobound.cli.main(sys.argv[1:])",
}
# Prints, at interpreter exit, OPENBLAS_NUM_THREADS and the full names of the modules loaded.
EXIT_PROBE = (
    "import atexit, os, sys; atexit.register(lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'), "
    "*sorted(sys.modules), file=sys.stderr))\n"
)
PLAN_SAMPLES = ["plan-samples", "--p", "0.5", "--precision", "0.1", "--confidence", "0.9"]


def child_env(**env):
    """This environment without OPENBLAS_NUM_THREADS, with the package on
    PYTHONPATH, updated with ``env``."""
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    return {**base, "PYTHONPATH": str(Path(reprobound.__file__).parents[1]), **env}


def run_cli_child(start, argv, **env):
    """Run the CLI in a fresh interpreter under ``child_env(**env)``; returns
    (exit code, OPENBLAS_NUM_THREADS at exit or "None", set of the full
    names of the modules loaded)."""
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE + STARTS[start], *argv],
        env=child_env(**env), capture_output=True, text=True, timeout=120,
    )
    threads, *modules = proc.stderr.splitlines()[-1].split()
    return proc.returncode, threads, set(modules)


def run_readme_block(section, cwd):
    """Run the first sh block under README's ``## section`` in ``cwd``, as a
    user runs it, with this interpreter's ``-m reprobound`` in place of the
    console script."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(rf"^## {section}\n.*?^```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
    script = block.replace("reprobound ", f"{shlex.quote(sys.executable)} -m reprobound ")
    proc = subprocess.run(
        ["bash", "-euo", "pipefail", "-c", script],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    run_readme_block("Quick start", tmp_path)
    assert sorted(path.name for path in (tmp_path / "run" / "report").iterdir()) == ["fig_scatter.csv", "qubits.csv"]


def test_readme_calibration_example_runs(tmp_path):
    run_readme_block("Calibration snapshots", tmp_path)
    qubits = json.loads((tmp_path / "snap.json").read_text())["qubits"]
    assert [row["qubit"] for row in read_rows(tmp_path / "verdicts.csv")] == [str(q["index"]) for q in qubits]


def test_scalar_commands_load_no_numpy(small_run):
    # Only simulate draws counts, and it loads numpy only for a drifted plan
    # or one whose streams hold more than PORT_MAX_COUNTS counts past the
    # first _STREAM_SETUP_COUNTS of each.
    snapshot = write_snapshot(small_run.parent / "snap.json", [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}])
    cfg = small_run.parent / "cfg.json"
    large = write_config(
        small_run.parent / "large.json",
        [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}],
        L=sampler.PORT_MAX_COUNTS // 3 + sampler._STREAM_SETUP_COUNTS + 1,
    )
    for argv, loads_numpy in (
        (["characterize", str(small_run)], False),
        # verdict writes the verdicts.csv that report reads.
        (["verdict", str(small_run / "characterization.csv"), "--delta-from-observed"], False),
        (["report", str(small_run)], False),
        # verdict reads a calibration snapshot's qubits through sampler.
        (["verdict", str(snapshot), "--delta", "0.3"], False),
        (PLAN_SAMPLES, False),
        (["simulate", str(cfg), "--out", str(small_run.parent / "again")], False),
        # The probe sees numpy where numpy draws the counts.
        (["simulate", str(cfg), "--drift", "0.05", "--out", str(small_run.parent / "drifted")], True),
        (["simulate", str(large), "--out", str(small_run.parent / "large")], True),
    ):
        code, _, modules = run_cli_child("python-m", argv)
        assert (code, "numpy" in modules) == (0, loads_numpy), argv


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    # The package exports its names lazily and each command imports bounds
    # and estimator when it runs them, so simulate compiles neither, only
    # verdict and report of the pipeline load bounds, and a command that
    # reads and writes only tables never loads json. Every command loads
    # sampler: the benchmark's tracer wraps its names in cli.
    cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}], L=6, S=64)
    snapshot = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}])
    run = tmp_path / "run"
    shared = {"cli", "_version", "errors", "artifacts", "noise_model", "sampler"}
    for argv, exit_code, layers, loads_json in (
        (["simulate", str(cfg), "--out", str(run)], 0, {"_stream"}, True),
        (["characterize", str(run)], 0, {"estimator"}, True),
        (["verdict", str(run / "characterization.csv"), "--delta-from-observed"], 0, {"bounds", "estimator"}, False),
        (["verdict", str(snapshot), "--delta", "0.3"], 0, {"bounds"}, True),
        (["report", str(run)], 0, {"bounds", "estimator"}, True),
        (["--version"], 0, set(), False),
        (["--help"], 0, set(), False),
        (["verdict", "--help"], 0, set(), False),
        # A usage error: simulate's --out is required.
        (["simulate", str(cfg)], 2, set(), False),
    ):
        code, _, modules = run_cli_child("python-m", argv)
        own = {name.removeprefix("reprobound.") for name in modules if name.startswith("reprobound.")}
        assert (code, own, "json" in modules) == (exit_code, shared | layers, loads_json), argv
        # The CLI parses its own options: no process loads argparse or the gettext and locale it pulls in.
        assert modules.isdisjoint({"argparse", "gettext", "locale"}), argv


@pytest.mark.parametrize("start", sorted(STARTS))
@pytest.mark.parametrize("user_value,expected", [(None, "1"), ("2", "2")])
def test_cli_caps_blas_threads_unless_the_user_set_them(start, user_value, expected):
    env = {} if user_value is None else {"OPENBLAS_NUM_THREADS": user_value}
    assert run_cli_child(start, PLAN_SAMPLES, **env)[:2] == (0, expected)


ERROR_CODES = [
    (ReproBoundError, 2),
    (InvalidParameterError, 2),
    (InsufficientDataError, 2),
    (ConfigError, 2),
    (IncompleteArchiveError, 4),
    (OutOfRegimeError, 5),
    (OSError, 3),
]


def raise_from_plan_samples(monkeypatch, error):
    def fail(args):
        raise error("boom", 0.5) if error is OutOfRegimeError else error("boom")

    monkeypatch.setattr(cli, "cmd_plan_samples", fail)


@pytest.mark.parametrize("error, code", ERROR_CODES)
def test_each_error_class_carries_its_exit_code(monkeypatch, capsys, error, code):
    # main exits with an error's own exit_code, and with 3 for an OSError, which has none.
    assert getattr(error, "exit_code", 3) == code
    raise_from_plan_samples(monkeypatch, error)
    assert main(PLAN_SAMPLES) == code
    assert capsys.readouterr().err == "reprobound: error: boom\n"


@pytest.mark.parametrize("error, code", ERROR_CODES)
def test_an_error_that_cannot_be_written_keeps_its_exit_code(monkeypatch, error, code):
    raise_from_plan_samples(monkeypatch, error)
    monkeypatch.setattr(sys, "stderr", FullStream())
    assert main(PLAN_SAMPLES) == code


# How a user's process starts the CLI: both run cli.run.
PROCESS_STARTS = {"python-m": ["-m", "reprobound"], "console-script": ["-c", STARTS["console-script"]]}


def buffered_env(unbuffered=False):
    """``child_env()`` with standard output block-buffered, as into any pipe
    or file, unless ``unbuffered``."""
    env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def run_cli_process(start, argv, unbuffered=False, **kwargs):
    """Run the CLI as a process of a user under ``buffered_env(unbuffered)``."""
    argv = [sys.executable, *PROCESS_STARTS[start], *map(str, argv)]
    return subprocess.run(argv, env=buffered_env(unbuffered), timeout=120, **kwargs)


def run_contents(run):
    """Each file under ``run`` by its relative path: its bytes, or for the
    manifest its document without ``finished_at``."""
    contents = {name: (run / name).read_bytes() for name in run_files(run)}
    manifest = json.loads(contents["manifest.json"])
    del manifest["finished_at"]
    return {**contents, "manifest.json": manifest}


def test_a_process_writes_what_main_writes(tmp_path):
    # run ends the process with os._exit once main returns: every artifact
    # is whole by then. The benchmark's 27-qubit reference config, seed 7.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(perfbench_module("config").device_config(27, 203, 8192, 7)))

    def pipeline(run):
        return [["simulate", cfg, "--out", run], ["characterize", run],
                ["verdict", run / "characterization.csv", "--delta-from-observed"], ["report", run]]

    for argv in pipeline(tmp_path / "main"):
        assert main([*map(str, argv), "--quiet"]) == 0
    expected = run_contents(tmp_path / "main")
    assert len(expected) == 5
    for start in PROCESS_STARTS:
        for argv in pipeline(tmp_path / start):
            proc = run_cli_process(start, [*argv, "--quiet"], capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", ""), (start, argv)
        assert run_contents(tmp_path / start) == expected, start


def test_a_process_prints_what_main_prints(small_run, capsys):
    # Into a pipe standard output is block-buffered: run flushes it before the process ends.
    for argv in (["characterize", str(small_run)], ["--help"], ["verdict", "--help"], ["--version"]):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        for start in PROCESS_STARTS:
            proc = run_cli_process(start, argv, capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, printed, ""), (start, argv)


def test_a_profiled_process_ends_normally():
    # Under a profiler run ends with sys.exit, so cProfile prints its stats
    # after the command's own output.
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "reprobound", "--version"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"reprobound {reprobound.__version__}\n")
    assert "function calls" in proc.stdout


def test_console_script_and_python_m_run_the_same_function():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    module, function = scripts["reprobound"].split(":")
    assert (module, function) == ("reprobound.cli", "run")
    tree = ast.parse((Path(cli.__file__).parent / "__main__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    called = [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert (imported, called) == ([("cli", function)], [function])
    # The tests start the console script by the body that installing it writes.
    assert STARTS["console-script"] == f"from {module} import {function}; {function}()"


def unwritable(sink):
    """A file descriptor that writing to fails: /dev/full, or a pipe whose
    reader is closed."""
    if sink == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        return os.open("/dev/full", os.O_WRONLY)
    reader, writer = os.pipe()
    os.close(reader)
    return writer


SINK_ERRORS = {"full": errno.ENOSPC, "closed-pipe": errno.EPIPE}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", sorted(SINK_ERRORS))
@pytest.mark.parametrize("start", sorted(PROCESS_STARTS))
def test_output_that_cannot_be_written_exits_3(small_run, start, sink, unbuffered):
    # Buffered, the text fails when run flushes it; unbuffered, when main
    # prints it. Either way one error line, and the flush does not add another.
    fd = unwritable(sink)
    try:
        proc = run_cli_process(start, ["characterize", small_run], unbuffered, stdout=fd, stderr=subprocess.PIPE,
                               text=True)
    finally:
        os.close(fd)
    err = SINK_ERRORS[sink]
    assert (proc.returncode, proc.stderr) == (3, f"reprobound: error: [Errno {err}] {os.strerror(err)}\n")


def test_output_that_cannot_be_written_keeps_a_failed_commands_code():
    # A command that failed with 4 after it printed: the failed flush adds no code or line of its own.
    fd = unwritable("closed-pipe")
    body = "import reprobound.cli as cli; cli.main = lambda: print('text') or 4; cli.run()"
    try:
        proc = subprocess.run([sys.executable, "-c", body], env=buffered_env(), stdout=fd, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr) == (4, "")


@pytest.mark.parametrize("sink", sorted(SINK_ERRORS))
@pytest.mark.parametrize("start", sorted(PROCESS_STARTS))
def test_an_error_that_cannot_be_written_keeps_its_code_in_a_process(tmp_path, start, sink):
    fd = unwritable(sink)
    try:
        proc = run_cli_process(start, ["report", tmp_path], stderr=fd)
    finally:
        os.close(fd)
    assert proc.returncode == 4


@pytest.mark.parametrize("start", sorted(PROCESS_STARTS))
def test_a_process_without_standard_output_succeeds(start):
    # A process started with its stdout closed has sys.stdout None; print writes nothing.
    proc = subprocess.run(
        ["bash", "-c", 'exec "$@" >&-', "bash", sys.executable, *PROCESS_STARTS[start], "--version"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_library_import_leaves_the_environment_alone():
    code = "import os; before = dict(os.environ); import reprobound.cli; print(dict(os.environ) == before)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["True"], proc.stderr


# The options of each command besides -h and --help, each read by the command.
COMMAND_OPTIONS = {
    "simulate": {"--threads", "--drift", "--seed", "--out", "--quiet"},
    "characterize": {"--out", "--quiet"},
    "verdict": {"--delta", "--delta-from-observed", "--n", "--theta", "--out", "--quiet"},
    "plan-samples": {"--p", "--precision", "--confidence"},
    "report": {"--out", "--quiet"},
}


def option_strings(command):
    """The options of ``command`` in the CLI's option table."""
    return set(cli.COMMANDS[command][2])


def test_each_command_takes_only_the_options_it_reads():
    assert {name: option_strings(name) for name in cli.COMMANDS} == COMMAND_OPTIONS
    # The usage line that -h prints names the same options.
    for name, options in COMMAND_OPTIONS.items():
        usage = parse_args([name, "-h"]).splitlines()[0]
        assert set(re.findall(r"--[a-z-]+", usage)) == options, name


@pytest.mark.parametrize(
    "argv",
    [
        ["characterize", "RUN", "--seed", "7"],
        [*PLAN_SAMPLES, "--out", "X"],
        [*PLAN_SAMPLES, "--quiet"],
        ["--quiet", "report", "RUN"],
        ["--out", "A", "report", "RUN", "--out", "B"],
    ],
    ids=["characterize-seed", "plan-samples-out", "plan-samples-quiet", "quiet-before-command", "out-before-command"],
)
def test_an_option_the_command_does_not_take_is_a_usage_error(tmp_path, monkeypatch, argv, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("reprobound: error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, named",
    [
        # An abbreviation is no option: argparse took --delta-from for --delta-from-observed.
        (["verdict", "run/characterization.csv", "--delta-from"], "verdict: --delta-from"),
        (["simulate", "cfg.json", "--out", "run", "--qui"], "simulate: --qui"),
        (["simulate", "cfg.json", "--out", "run", "--bogus"], "simulate: --bogus"),
        (["simulate", "cfg.json", "--out", "run", "--quiet=yes"], "simulate: --quiet"),
        (["simulate", "cfg.json", "--out"], "simulate: --out"),
        (["simulate", "cfg.json"], "simulate: missing --out"),
        (["characterize", "--quiet"], "characterize: missing RUN_DIR"),
        (["characterize", "run", "extra"], "characterize: unexpected argument 'extra'"),
        (["verdict", "run/characterization.csv", "--delta", "0.1", "--delta-from-observed"], "verdict: --delta and "),
        (["verdict", "run/characterization.csv"], "verdict: missing --delta or --delta-from-observed"),
        (["verdict", "run/characterization.csv", "--delta", "0.1", "--n", "1.5"], "verdict: --n: invalid int"),
        (["simulate", "cfg.json", "--out", "run", "--seed", "seven"], "simulate: --seed: invalid int"),
        ([], "a command is required"),
        (["simulation", "cfg.json", "--out", "run"], "'simulation' is not a command"),
    ],
    ids=[
        "abbreviation", "abbreviation-simulate", "unknown-option", "flag-given-a-value", "no-value",
        "missing-option", "missing-positional", "extra-positional", "both-deltas", "neither-delta", "n-not-int",
        "seed-not-int", "no-command", "unknown-command",
    ],
)
def test_a_usage_error_exits_2_naming_the_argument(tmp_path, monkeypatch, argv, named, capsys):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "cfg.json", [PERFECT_QUBIT])
    before = files_under(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1), err
    assert err.startswith(f"reprobound: error: {named}"), err
    assert files_under(tmp_path) == before


# Each valued option of each command, with a value it takes. The item after
# a valued option is its value even when it starts with a dash; the range of
# each value is the command's to check.
VALUED_OPTIONS = [
    (["simulate", "cfg.json", "--out", "run"], "--seed", "7"),
    (["simulate", "cfg.json", "--seed", "7"], "--out", "run"),
    (["simulate", "cfg.json", "--out", "run"], "--drift", "0.05"),
    (["simulate", "cfg.json", "--out", "run"], "--threads", "2"),
    (["characterize", "run"], "--out", "elsewhere"),
    (["verdict", "c.csv", "--delta-from-observed"], "--n", "3"),
    (["verdict", "c.csv", "--n", "2"], "--delta", "0.25"),
    (["verdict", "c.csv", "--delta", "0.25"], "--theta", "0.01"),
    (["plan-samples", "--p", "0.5", "--precision", "0.1"], "--confidence", "0.9"),
    (["report", "run"], "--out", "elsewhere"),
    (["verdict", "c.csv", "--delta", "0.25"], "--theta", "-0.01"),
    (["verdict", "c.csv", "--delta", "0.25"], "--theta", "-1e-3"),
    (["verdict", "c.csv"], "--delta", "-0.5"),
    (["verdict", "c.csv", "--delta", "0.25"], "--n", "-2"),
    (["simulate", "cfg.json", "--out", "run"], "--seed", "-1"),
    (["simulate", "cfg.json", "--out", "run"], "--drift", "-0.05"),
    (["simulate", "cfg.json"], "--out", "-run"),
]


@pytest.mark.parametrize("argv, option, value", VALUED_OPTIONS)
def test_an_option_and_its_value_may_be_joined_by_an_equals_sign(argv, option, value):
    spaced = parse_args([*argv, option, value])
    assert parse_args([*argv, f"{option}={value}"]) == spaced
    assert getattr(spaced, option[2:]) == (value if option == "--out" else float(value))


def test_items_after_a_double_dash_are_positionals():
    assert parse_args(["characterize", "--quiet", "--", "-run"]).run_dir == "-run"
    assert main(["characterize", "-run"]) == 2


def files_under(root):
    """Every file under ``root``, by path, with its bytes."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize(
    "case",
    [
        "characterize-manifest",
        "verdict",
        "verdict-snapshot",
        "verdict-source-verdicts-csv",
        "verdict-source-verdicts-csv-no-out",
    ],
)
def test_out_naming_an_input_is_rejected(small_run, case, capsys):
    # --out names a directory, so the old --out FILE form naming an input
    # is a path that is not a directory: exit 3, and no file changes.
    char = small_run / "characterization.csv"
    snapshot = write_snapshot(small_run.parent / "snap.json", [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}])
    verdicts = small_run.parent / "verdicts.csv"
    shutil.copyfile(char, verdicts)
    argv, target, code = {
        "characterize-manifest": (["characterize", str(small_run)], small_run / "manifest.json", 3),
        "verdict": (["verdict", str(char), "--delta", "0.2"], char, 3),
        "verdict-snapshot": (["verdict", str(snapshot), "--delta", "0.2"], snapshot, 3),
        # The one output that can be an input: a source named verdicts.csv, written into its own directory.
        "verdict-source-verdicts-csv": (["verdict", str(verdicts), "--delta", "0.2"], verdicts.parent, 2),
        # Without --out the source's directory is the default: the error names the source, not an option.
        "verdict-source-verdicts-csv-no-out": (["verdict", str(verdicts), "--delta", "0.2"], None, 2),
    }[case]
    before = files_under(small_run.parent)
    if target is None:
        assert main(argv) == code
        assert capsys.readouterr().err == (
            f"reprobound: error: {verdicts}: the output verdicts.csv would replace this source; "
            "pass --out with another directory\n"
        )
        assert files_under(small_run.parent) == before
        return
    # The path by another name: the verdict check compares resolved paths.
    out = target.parent / ".." / target.parent.name / target.name
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == f"reprobound: error: --out: {out / 'verdicts.csv'} is an input of this command\n"
    else:
        assert err.startswith("reprobound: error: ") and str(out) in err
    assert files_under(small_run.parent) == before


@pytest.mark.parametrize(
    "command, out",
    [
        # --out FILE naming another command's file: the run's manifest, which
        # holds its counts, and verdict's output.
        ("verdict", "manifest.json"),
        ("verdict-snapshot", "manifest.json"),
        ("characterize", "verdicts.csv"),
        # Only simulate creates its --out directory; report creates DIR/report, not DIR.
        ("characterize", "absent"),
        ("verdict", "absent"),
        ("verdict-snapshot", "absent"),
        ("report", "absent"),
    ],
)
def test_out_that_is_not_a_directory_writes_nothing(small_run, command, out, capsys):
    snapshot = write_snapshot(small_run.parent / "snap.json", [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}])
    assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
    argv = {
        "characterize": ["characterize", str(small_run)],
        "verdict": ["verdict", str(small_run / "characterization.csv"), "--delta-from-observed"],
        "verdict-snapshot": ["verdict", str(snapshot), "--delta", "0.2"],
        "report": ["report", str(small_run)],
    }[command]
    out = small_run / out
    before = files_under(small_run.parent)
    assert main([*argv, "--out", str(out), "--quiet"]) == 3
    assert str(out) in capsys.readouterr().err
    assert files_under(small_run.parent) == before
    assert not (small_run / "absent").exists()


def test_report_out_naming_the_run_writes_only_the_bundle(small_run):
    assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
    before = files_under(small_run.parent)
    assert main(["report", str(small_run), "--out", str(small_run), "--quiet"]) == 0
    after = files_under(small_run.parent)
    assert {path: after[path] for path in before} == before
    assert sorted(path.relative_to(small_run).as_posix() for path in set(after) - set(before)) == [
        "report/fig_scatter.csv",
        "report/qubits.csv",
    ]


def test_each_output_name_belongs_to_one_command(tmp_path):
    # Every command writing into one shared directory: each creates or
    # changes only its own names, and no two share one.
    shared = tmp_path / "shared"
    cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}], L=3, S=16)
    commands = {
        "simulate": (["simulate", str(cfg)], {"manifest.json"}),
        "characterize": (["characterize", str(shared)], {"characterization.csv"}),
        "verdict": (["verdict", str(shared / "characterization.csv"), "--delta-from-observed"], {"verdicts.csv"}),
        "report": (["report", str(shared)], {"report/fig_scatter.csv", "report/qubits.csv"}),
    }
    written = {}
    for name, (argv, expected) in commands.items():
        before = files_under(shared) if shared.exists() else {}
        assert main([*argv, "--out", str(shared), "--quiet"]) == 0, name
        after = files_under(shared)
        assert set(before) <= set(after), name
        written[name] = {path.relative_to(shared).as_posix() for path in after if before.get(path) != after[path]}
        assert written[name] == expected, name
    # Pairwise disjoint: no name is counted twice.
    assert sum(map(len, written.values())) == len(set().union(*written.values()))


@pytest.fixture(scope="module")
def pristine_run(tmp_path_factory):
    """A one-qubit run directory taken through verdict."""
    tmp = tmp_path_factory.mktemp("pristine")
    cfg = write_config(tmp / "cfg.json", [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}], L=3, S=16)
    run = tmp / "run"
    assert main(["simulate", str(cfg), "--out", str(run), "--quiet"]) == 0
    assert main(["characterize", str(run), "--quiet"]) == 0
    assert main(["verdict", str(run / "characterization.csv"), "--delta", "0.3", "--quiet"]) == 0
    return run


def counts_start(raw: bytes) -> int:
    """Where the manifest's count rows start: the line after ``"counts": {``."""
    return raw.index(b'"counts": {\n') + len(b'"counts": {\n')


def mutate(raw: bytes, ops) -> bytes:
    for op, a, b, payload in ops:
        lines = raw.split(b"\n")
        if op == "truncate":
            raw = raw[: a % (len(raw) + 1)]
        elif op == "splice":
            i = a % (len(raw) + 1)
            raw = raw[:i] + payload + raw[i + b % 8 :]
        elif op == "drop":
            del lines[a % len(lines)]
            raw = b"\n".join(lines)
        elif op == "duplicate":
            lines.insert(a % len(lines), lines[b % len(lines)])
            raw = b"\n".join(lines)
        else:  # cell
            i = a % len(lines)
            cells = lines[i].split(b",")
            cells[b % len(cells)] = payload
            lines[i] = b",".join(cells)
            raw = b"\n".join(lines)
    return raw


MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["truncate", "splice", "drop", "duplicate", "cell"]),
        st.integers(0, 1000),
        st.integers(0, 1000),
        st.one_of(st.binary(max_size=6), st.text(max_size=6).map(str.encode)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=MUTATIONS)
def test_mutated_counts_never_raise(pristine_run, ops):
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(pristine_run, run)
        manifest = run / "manifest.json"
        raw = manifest.read_bytes()
        start = counts_start(raw)
        manifest.write_bytes(raw[:start] + mutate(raw[start:], ops))
        assert main(["characterize", str(run), "--quiet"]) in (0, 2, 3, 4, 5)
        assert main(["report", str(run), "--quiet"]) in (0, 2, 3, 4, 5)



def fail_writing(monkeypatch, name, room):
    """Make every write by ``artifacts`` of a file whose name starts with
    ``name`` fail as a full disk fails it: after its first ``room`` chunks."""

    def open_(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).name.startswith(name):
            write = fh.writelines

            def writelines(chunks):
                write(islice(chunks, room))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.writelines = writelines
        return fh

    monkeypatch.setattr(artifacts, "open", open_, raising=False)


# Each file a command writes, relative to pristine_run's directory, and that command.
WRITERS = {
    "run/manifest.json": ["simulate", "{base}/cfg.json", "--out", "{base}/run"],
    "run/characterization.csv": ["characterize", "{base}/run"],
    "run/verdicts.csv": ["verdict", "{base}/run/characterization.csv", "--delta", "0.3"],
    "run/report/fig_scatter.csv": ["report", "{base}/run"],
    "run/report/qubits.csv": ["report", "{base}/run"],
}


@pytest.mark.parametrize("previous", [b"previous bytes\n", None], ids=["replaced", "absent"])
@pytest.mark.parametrize("target", list(WRITERS))
def test_a_write_that_fails_part_way_leaves_the_previous_file(pristine_run, tmp_path, monkeypatch, target, previous,
                                                              capsys):
    base = tmp_path / "inputs"
    shutil.copytree(pristine_run.parent, base)
    path = base / target
    path.parent.mkdir(exist_ok=True)
    if previous is None:
        path.unlink(missing_ok=True)
    else:
        path.write_bytes(previous)
    # The first chunk is written: a header line, or the JSON's opening brace.
    fail_writing(monkeypatch, path.name, 1)
    assert main([arg.format(base=base) for arg in WRITERS[target]] + ["--quiet"]) == 3
    assert capsys.readouterr().err == f"reprobound: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    # simulate removes the previous manifest before it writes the new one, so
    # a failed save leaves no run at all, not the previous run's counts.
    expected = None if path.name == "manifest.json" else previous
    assert (path.read_bytes() if path.exists() else None) == expected
    assert [p.name for p in base.rglob("*.tmp")] == []


def test_the_next_write_of_a_name_takes_over_its_stray_tmp(pristine_run, tmp_path):
    # A process killed outright can leave NAME.tmp. No command sweeps it: the
    # next successful write of NAME writes NAME.tmp afresh and renames it.
    run = tmp_path / "run"
    shutil.copytree(pristine_run.parent, tmp_path, dirs_exist_ok=True)
    for name in ("manifest.json", "verdicts.csv"):
        (run / f"{name}.tmp").write_text("left by a killed process\n")
    assert main(["simulate", str(tmp_path / "cfg.json"), "--out", str(run), "--quiet"]) == 0
    assert sorted(p.name for p in run.glob("*.tmp")) == ["verdicts.csv.tmp"]
    assert main(["characterize", str(run), "--quiet"]) == 0
    assert main(["verdict", str(run / "characterization.csv"), "--delta", "0.3", "--quiet"]) == 0
    assert list(run.glob("*.tmp")) == []


def test_a_failed_characterize_leaves_verdict_the_whole_table(tmp_path, monkeypatch, capsys):
    # A characterize whose 12th line fails, as a full disk fails it, exits 3
    # and leaves the previous 27-row table, not an 11-line prefix of a new one.
    qubits = [{"index": q, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01} for q in range(27)]
    run = tmp_path / "run"
    assert main(["simulate", str(write_config(tmp_path / "cfg.json", qubits, L=3, S=64)), "--out", str(run), "--quiet"]) == 0
    assert main(["characterize", str(run), "--quiet"]) == 0
    char = run / "characterization.csv"
    table = char.read_bytes()
    fail_writing(monkeypatch, char.name, 11)
    assert main(["characterize", str(run), "--quiet"]) == 3
    monkeypatch.undo()
    assert char.read_bytes() == table
    assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
    assert len(read_rows(run / "verdicts.csv")) == 27

# A calibration snapshot's one qubit record (index 0, f0 0.9, f1 0.8 unless
# overridden) and what verdict's error names.
SNAPSHOT_QUBITS = {
    "snapshot-fidelity-out-of-range": ({"f0": 1.2, "theta_rad": 0.0}, "f0 must be in [0, 1], got 1.2"),
    "snapshot-string-f0": ({"f0": "0.9", "theta_rad": 0.0}, "field 'f0'"),
    "snapshot-angle-out-of-range": ({"theta_rad": 1.2}, "|theta|=1.2 outside validity region"),
    "snapshot-gate-error-60-deg": ({"gate_error": {"value": 60, "unit": "deg"}}, "|theta|=1.047"),
    "snapshot-infidelity-0.6": ({"gate_error": {"value": 0.6, "unit": "infidelity"}}, "|theta|=1.249"),
    # An infidelity outside [0, 2/3] gives no angle; 0.5 gives |theta| = pi/3.
    "snapshot-infidelity-0.7": (
        {"gate_error": {"value": 0.7, "unit": "infidelity"}},
        "gate_error: infidelity must be in [0, 2/3], got 0.7",
    ),
    "snapshot-infidelity-negative": (
        {"gate_error": {"value": -0.1, "unit": "infidelity"}},
        "gate_error: infidelity must be in [0, 2/3], got -0.1",
    ),
    "snapshot-infidelity-0.5": (
        {"gate_error": {"value": 0.5, "unit": "infidelity"}},
        f"|theta|={math.pi / 3!r} outside validity region |theta| < pi/4",
    ),
    "snapshot-negative-index": ({"index": -3, "theta_rad": 0.01}, "qubit index must be non-negative"),
    "snapshot-both-angles": (
        {"theta_rad": 0.01, "gate_error": {"value": 30, "unit": "deg"}},
        "gives both theta_rad and gate_error",
    ),
}

# One edited cell of row 1 (qubit 0, L 6, S 512, n 1) of characterization.csv,
# which verdict reads, or of verdicts.csv, which report reads: the file, the
# column's name, the text and what the error names after the line. int() reads
# each text of the first ten, which str writes otherwise, and each edit of
# the last seven gives a value that no plan (L, S), population mean (a
# sigma) or qubit index can have.
EDITED_CELLS = {
    "characterization-qubit-007": ("characterization.csv", "qubit", "007", "qubit='007' is not '7', the text the writer"),
    "characterization-qubit-minus-0": ("characterization.csv", "qubit", "-0", "qubit='-0' is not '0'"),
    "characterization-L-underscore": ("characterization.csv", "L", "1_0", "L='1_0' is not '10'"),
    "characterization-S-leading-space": ("characterization.csv", "S", " 1", "S=' 1' is not '1'"),
    "characterization-qubit-unicode-digit": ("characterization.csv", "qubit", "\u0663", "qubit='\u0663' is not '3'"),
    "verdicts-qubit-007": ("verdicts.csv", "qubit", "007", "qubit='007' is not '7', the text the writer"),
    "verdicts-qubit-minus-0": ("verdicts.csv", "qubit", "-0", "qubit='-0' is not '0'"),
    "verdicts-n-underscore": ("verdicts.csv", "n", "1_0", "n='1_0' is not '10'"),
    "verdicts-n-leading-space": ("verdicts.csv", "n", " 1", "n=' 1' is not '1'"),
    "verdicts-qubit-unicode-digit": ("verdicts.csv", "qubit", "\u0663", "qubit='\u0663' is not '3'"),
    "characterization-L-minus-1": ("characterization.csv", "L", "-1", "L must be >= 2"),
    "characterization-S-0": ("characterization.csv", "S", "0", "S must be in [1, 2**63), got 0"),
    "characterization-S-2**63": ("characterization.csv", "S", str(2**63), f"S must be in [1, 2**63), got {2**63}"),
    "characterization-eps-sigma-1.5": ("characterization.csv", "eps_sigma", "1.5", "eps_sigma must be in [0, 1], got 1.5"),
    "characterization-d-sigma-1.5": ("characterization.csv", "d_sigma", "1.5", "d_sigma must be in [0, 1], got 1.5"),
    "characterization-qubit-minus-3": ("characterization.csv", "qubit", "-3", "qubit index must be non-negative, got -3"),
    "verdicts-qubit-minus-3": ("verdicts.csv", "qubit", "-3", "qubit index must be non-negative, got -3"),
}


def break_input(tmp_path, run, case):
    """Write the malformed input named by ``case``; returns (argv, the file
    the error must name, expected exit code)."""
    char, verdicts = run / "characterization.csv", run / "verdicts.csv"
    if case == "characterization-text-cell":
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, CHAR_COLUMN["f0_mean"], "abc"))
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 2", 2
    if case == "characterization-edited-eps":
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, CHAR_COLUMN["eps_mean"], "0.5"))
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 2", 2
    if case in ("characterization-eps-off-by-5e-13", "characterization-f-mean-off-by-5e-13"):
        column = CHAR_COLUMN["eps_mean" if "eps" in case else "f_mean"]
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, column, repr(float(lines[1].split(",")[column]) + 5e-13)))
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 2", 2
    if case == "characterization-fidelity-out-of-range":
        # f0_mean, f1_mean, eps_mean and f_mean, consistent with each other.
        cells = {"f0_mean": "1.5", "f1_mean": "0.25", "eps_mean": "1.25", "f_mean": "0.875"}
        edit_lines(char, lambda lines: [set_csv_cell(lines, 1, CHAR_COLUMN[c], cell) for c, cell in cells.items()])
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 2: f0_mean must be in [0, 1]", 2
    if case == "characterization-infinite-angle":
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, CHAR_COLUMN["theta_hat_rad"], "inf"))
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 2: theta_hat_rad='inf' is not ", 2
    # verdict checks --theta before it reads the source, so the error names the option, not the file.
    if case == "characterization-nan-angle-bad-override":
        # A failed inversion's angle.
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, CHAR_COLUMN["theta_hat_rad"], "nan"))
        return ["verdict", str(char), "--delta", "0.3", "--theta", "2.5"], "reprobound: error: --theta: |theta|=2.5", 2
    if case == "characterization-header-only":
        char.write_text(char.read_text().splitlines(keepends=True)[0])
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: holds no qubit rows", 2
    if case == "characterization-nan-fidelities":
        columns = [CHAR_COLUMN[c] for c in ("f0_mean", "eps_mean", "f_mean")]
        edit_lines(char, lambda lines: [set_csv_cell(lines, 1, column, "nan") for column in columns])
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 2", 2
    if case == "verdicts-nan-gamma":
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
        cells = {"gamma_D": "nan", "reproducible": "false"}
        edit_lines(verdicts, lambda lines: [set_csv_cell(lines, 1, VERDICT_COLUMN[c], cell) for c, cell in cells.items()])
        return ["report", str(run)], f"{verdicts}: line 2", 2
    if case == "verdicts-edited-gamma-max":
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
        # The flag stays consistent.
        cells = {"gamma_max": "0.9", "margin": "0.123"}
        edit_lines(verdicts, lambda lines: [set_csv_cell(lines, 1, VERDICT_COLUMN[c], cell) for c, cell in cells.items()])
        return ["report", str(run)], f"{verdicts}: line 2", 2
    if case in ("verdicts-edited-margin", "verdicts-flipped-flag"):
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
        # The margin and the flag are each edited alone.
        if case == "verdicts-edited-margin":
            edit_lines(verdicts, lambda lines: set_csv_cell(lines, 1, VERDICT_COLUMN["margin"], "0.123"))
        else:
            flag = VERDICT_COLUMN["reproducible"]
            flip = {"true": "false", "false": "true"}
            edit_lines(verdicts, lambda lines: set_csv_cell(lines, 1, flag, flip[lines[1].split(",")[flag]]))
        return ["report", str(run)], f"{verdicts}: line 2", 2
    if case == "verdicts-text-cell":
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
        edit_lines(verdicts, lambda lines: set_csv_cell(lines, 2, VERDICT_COLUMN["gamma_D"], "abc"))
        return ["report", str(run)], f"{verdicts}: line 3", 2
    if case in ("characterization-quoted-cell", "characterization-quoted-cell-crlf"):
        # The writer's cells in other bytes: qubit 0's f0_mean quoted, and
        # then every line ending in CRLF; the header is the first line that fails.
        f0 = CHAR_COLUMN["f0_mean"]
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, f0, f'"{lines[1].split(",")[f0]}"'))
        if case.endswith("crlf"):
            char.write_bytes(char.read_bytes().replace(b"\n", b"\r\n"))
            return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 1: header 'qubit,", 2
        return ["verdict", str(char), "--delta", "0.3"], f"""{char}: line 2: '0,"0.""", 2
    if case == "verdicts-crlf":
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
        verdicts.write_bytes(verdicts.read_bytes().replace(b"\n", b"\r\n"))
        header = "qubit,n,delta,gamma_D,gamma_max,margin,reproducible"
        return ["report", str(run)], f"{verdicts}: line 1: header '{header}\\r\\n' is not '{header}\\n'", 2
    if case in EDITED_CELLS:
        name, column, text, named = EDITED_CELLS[case]
        return edit_table(run, name, column, lambda cell: text), f"{run / name}: line 2: {named}", 2
    path = tmp_path / "input.json"
    if case == "config-not-utf8":
        path.write_bytes(b'{"schema": "device-config/1", "name": "\xff"}')
        return ["simulate", str(path), "--out", str(tmp_path / "sim")], str(path), 2
    if case == "config-list":
        path.write_text("[1, 2]")
        return ["simulate", str(path), "--out", str(tmp_path / "sim")], str(path), 2
    if case == "snapshot-no-qubits":
        doc = {"schema": "calibration-snapshot/1", "source": "x", "captured_at": "t"}
        path.write_text(json.dumps(doc))
        return ["verdict", str(path), "--delta", "0.3"], f"{path}: missing field 'qubits'", 2
    if case == "snapshot-missing-angle-bad-override":
        write_snapshot(path, [{"index": 3, "f0": 0.9, "f1": 0.8}])
        return ["verdict", str(path), "--delta", "0.1", "--theta", "2.5"], "reprobound: error: --theta: |theta|=2.5", 2
    if case == "snapshot-missing-angle-then-bad-record":
        # Every record is checked before a missing angle asks for --theta.
        write_snapshot(path, [{"index": 0, "f0": 0.9, "f1": 0.8}, {"index": 1, "f0": 1.2, "f1": 0.8, "theta_rad": 0.0}])
        return ["verdict", str(path), "--delta", "0.1"], f"{path}: qubits[1]: f0 must be in [0, 1], got 1.2", 2
    if case in SNAPSHOT_QUBITS:
        qubit, named = SNAPSHOT_QUBITS[case]
        write_snapshot(path, [{"index": 0, "f0": 0.9, "f1": 0.8, **qubit}])
        return ["verdict", str(path), "--delta", "0.1"], f"{path}: qubits[0]: {named}", 2
    assert case == "snapshot-nan-angle"
    write_snapshot(path, [{"index": 0, "f0": 0.9, "f1": 0.9, "theta_rad": math.nan}])
    return ["verdict", str(path), "--delta", "0.1"], f"{path}: not valid JSON", 2


@pytest.mark.parametrize(
    "case",
    [
        "characterization-text-cell",
        "characterization-edited-eps",
        "characterization-eps-off-by-5e-13",
        "characterization-f-mean-off-by-5e-13",
        "characterization-fidelity-out-of-range",
        "characterization-nan-fidelities",
        "characterization-infinite-angle",
        "characterization-nan-angle-bad-override",
        "characterization-header-only",
        "verdicts-nan-gamma",
        "verdicts-edited-gamma-max",
        "verdicts-edited-margin",
        "verdicts-flipped-flag",
        "verdicts-text-cell",
        "characterization-quoted-cell",
        "characterization-quoted-cell-crlf",
        "verdicts-crlf",
        *EDITED_CELLS,
        "config-not-utf8",
        "config-list",
        "snapshot-no-qubits",
        "snapshot-missing-angle-bad-override",
        "snapshot-missing-angle-then-bad-record",
        *SNAPSHOT_QUBITS,
        "snapshot-nan-angle",
    ],
)
def test_malformed_input_exits_naming_the_file(tmp_path, small_run, case, capsys):
    argv, named, code = break_input(tmp_path, small_run, case)
    capsys.readouterr()
    assert main(argv) == code
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("case", ["angle-and-note", "made-up-note", "cleared-note"])
def test_edited_angle_or_note_exits_2_and_writes_nothing(small_run, case, capsys):
    # An angle and a note that the row's other cells do not give would change
    # the verdict (angle) or hide a clamp (note): each exits 2, naming the cell.
    char = small_run / "characterization.csv"
    estimates = estimator.read_characterization_csv(char)
    if case == "cleared-note":
        # Qubit 0's gamma_hat set to overshoot the arcsin argument by 0.005: a clamp with a note.
        e = estimates[0]
        estimates[0] = e.replace(gamma_hat=e.eps_mean - 1.005 * (2.0 * e.f_mean - 1.0))
        assert estimates[0].warnings
        estimator.write_characterization_csv(estimates, char)
    with open(char, newline="") as fh:
        header, *rows = csv.reader(fh)
    edits = {
        "angle-and-note": ({"theta_hat_rad": "0.3", "warnings": "edited note"}, "theta_hat_rad='0.3' is not "),
        "made-up-note": ({"warnings": "edited note"}, "warnings='edited note' is not '', the text the writer prints"),
        "cleared-note": ({"warnings": ""}, "warnings='' is not 'arcsin argument "),
    }
    cells, named = edits[case]
    for column, cell in cells.items():
        rows[0][CHAR_COLUMN[column]] = cell
    with open(char, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert main(["verdict", str(char), "--delta", "0.05"]) == 2
    assert f"{char}: line 2: {named}" in capsys.readouterr().err
    assert not (small_run / "verdicts.csv").exists()


def edit_table(run, name, column, change):
    """Set qubit 0's cell of ``column`` in ``run``'s table ``name`` to
    ``change(cell)``; returns the argv of the command that reads the table."""
    char = run / "characterization.csv"
    if name == "verdicts.csv":
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0

    def change_cell(lines):
        i = lines[0].split(",").index(column)
        set_csv_cell(lines, 1, i, change(lines[1].split(",")[i]))

    edit_lines(run / name, change_cell)
    return ["report", str(run)] if name == "verdicts.csv" else ["verdict", str(char), "--delta", "0.3"]


# Each column of each table, another value for qubit 0's cell, and the error
# that names the column: an independent column's record rule, or for a
# derived column (None) the row's own check.
COLUMN_EDITS = {
    ("characterization.csv", "qubit"): ("-3", "qubit index must be non-negative, got -3"),
    ("characterization.csv", "f0_mean"): ("1.5", "f0_mean must be in [0, 1], got 1.5"),
    ("characterization.csv", "f1_mean"): ("-0.5", "f1_mean must be in [0, 1], got -0.5"),
    ("characterization.csv", "eps_mean"): ("0.5", None),
    ("characterization.csv", "eps_sigma"): ("1.5", "eps_sigma must be in [0, 1], got 1.5"),
    ("characterization.csv", "f_mean"): ("0.5", None),
    ("characterization.csv", "gamma_hat"): ("1.5", "gamma_hat must be in [-1, 1], got 1.5"),
    ("characterization.csv", "theta_hat_rad"): ("0.3", None),
    ("characterization.csv", "d_mean"): ("1.5", "d_mean must be in [0, 1], got 1.5"),
    ("characterization.csv", "d_sigma"): ("1.5", "d_sigma must be in [0, 1], got 1.5"),
    ("characterization.csv", "L"): ("1", "L must be >= 2"),
    ("characterization.csv", "S"): ("0", "S must be in [1, 2**63), got 0"),
    ("characterization.csv", "warnings"): ("edited note", None),
    ("verdicts.csv", "qubit"): ("-3", "qubit index must be non-negative, got -3"),
    ("verdicts.csv", "n"): ("0", "qubit count must be >= 1, got 0"),
    ("verdicts.csv", "delta"): ("-0.5", "delta must be a finite non-negative value, got -0.5"),
    ("verdicts.csv", "gamma_D"): ("1.5", "gamma_D must be in [0, 1], got 1.5"),
    ("verdicts.csv", "gamma_max"): ("0.5", None),
    ("verdicts.csv", "margin"): ("0.5", None),
    ("verdicts.csv", "reproducible"): ("false", None),
}


def table_ids(cases):
    return [f"{table.removesuffix('.csv')}-{column}" for table, column in cases]


@pytest.mark.parametrize("table,column", list(COLUMN_EDITS), ids=table_ids(COLUMN_EDITS))
def test_each_edited_column_exits_2_naming_it(small_run, table, column, capsys):
    text, named = COLUMN_EDITS[table, column]
    argv = edit_table(small_run, table, column, lambda cell: text)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{small_run / table}: line 2: {named or f'{column}={text!r} is not '}" in capsys.readouterr().err


FLOAT_COLUMNS = [
    *(("characterization.csv", c) for c in ("f0_mean", "f1_mean", "eps_mean", "eps_sigma", "f_mean", "gamma_hat")),
    *(("characterization.csv", c) for c in ("theta_hat_rad", "d_mean", "d_sigma")),
    *(("verdicts.csv", c) for c in ("delta", "gamma_D", "gamma_max", "margin")),
]


@pytest.mark.parametrize("table,column", FLOAT_COLUMNS, ids=table_ids(FLOAT_COLUMNS))
def test_a_float_not_spelled_as_written_exits_2_naming_it(small_run, table, column, capsys):
    # The same double with a trailing zero: 0.5 as 0.50, 1e-05 as 1.0e-05.
    written = []

    def respell(cell):
        written.append(cell)
        mantissa, e, exponent = cell.partition("e")
        return f"{mantissa}{'0' if '.' in mantissa else '.0'}{e}{exponent}"

    argv = edit_table(small_run, table, column, respell)
    spelled = respell(written[0])
    assert float(spelled) == float(written[0]) and spelled != written[0]
    capsys.readouterr()
    assert main(argv) == 2
    message = f"{column}={spelled!r} is not {written[0]!r}, the text the writer prints for this row"
    assert f"{small_run / table}: line 2: {message}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pristine_inputs(pristine_run):
    """pristine_run's directory plus a calibration snapshot, snap.json."""
    base = pristine_run.parent
    write_snapshot(
        base / "snap.json",
        [
            {"index": 1, "f0": 0.97, "f1": 0.93, "gate_error": {"value": 0.5, "unit": "deg"}},
            {"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01},
        ],
    )
    return base


# Each mutated artifact, relative to pristine_inputs, and the commands that read it.
ARTIFACT_COMMANDS = {
    "run/characterization.csv": [["verdict", "{base}/run/characterization.csv", "--delta-from-observed"]],
    "run/verdicts.csv": [["report", "{base}/run"]],
    "run/manifest.json": [["characterize", "{base}/run"], ["report", "{base}/run"]],
    "cfg.json": [["simulate", "{base}/cfg.json", "--out", "{base}/sim"]],
    "snap.json": [["verdict", "{base}/snap.json", "--delta", "0.3"]],
}


@pytest.mark.parametrize("artifact", list(ARTIFACT_COMMANDS))
def test_unmutated_artifacts_succeed(pristine_inputs, artifact, tmp_path):
    # So that the mutation test below reaches each command's success path.
    base = tmp_path / "inputs"
    shutil.copytree(pristine_inputs, base)
    for argv in ARTIFACT_COMMANDS[artifact]:
        assert main([arg.format(base=base) for arg in argv] + ["--quiet"]) == 0, argv


@pytest.mark.parametrize("artifact", list(ARTIFACT_COMMANDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=MUTATIONS)
def test_mutated_artifacts_never_raise(pristine_inputs, artifact, ops):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "inputs"
        shutil.copytree(pristine_inputs, base)
        path = base / artifact
        path.write_bytes(mutate(path.read_bytes(), ops))
        for argv in ARTIFACT_COMMANDS[artifact]:
            assert main([arg.format(base=base) for arg in argv] + ["--quiet"]) in (0, 2, 3, 4, 5)


# Each artifact a command reads, relative to pristine_inputs, and the commands that read it.
# "run/manifest.json:counts" edits the manifest's count rows alone.
READERS = {**ARTIFACT_COMMANDS, "run/manifest.json:counts": [["characterize", "{base}/run"], ["report", "{base}/run"]]}
# The bytes an edit writes: the digits, signs and separators of the CSV and
# JSON formats, letters of the words they hold (nan, inf, true, false, e),
# whitespace, a quote, a NUL, and bytes that are not UTF-8 on their own.
EDIT_BYTES = b'0159-+.,e\n\r "{}[]:naiftx\x00\xc3\xff'
# One to three edits, each the replacement, insertion or deletion of one byte.
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 2**16), st.sampled_from(EDIT_BYTES)),
    min_size=1,
    max_size=3,
)


def edit_bytes(raw: bytes, edits) -> bytes:
    for op, at, byte in edits:
        i = at % (len(raw) + (op == "insert"))
        raw = raw[:i] + bytes([byte]) * (op != "delete") + raw[i + (op != "insert") :]
    return raw


@pytest.mark.parametrize("artifact", list(READERS))
@settings(max_examples=40, derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=BYTE_EDITS)
def test_byte_edits_end_in_a_documented_exit_code(pristine_inputs, artifact, edits):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "inputs"
        shutil.copytree(pristine_inputs, base)
        name, _, section = artifact.partition(":")
        path = base / name
        raw = path.read_bytes()
        start = counts_start(raw) if section else 0
        path.write_bytes(raw[:start] + edit_bytes(raw[start:], edits))
        for argv in READERS[artifact]:
            assert main([arg.format(base=base) for arg in argv] + ["--quiet"]) in (0, 2, 3, 4, 5), argv
