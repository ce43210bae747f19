"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reprobound.cli import main
from reprobound.noise_model import hellinger_1q

PERFECT_QUBIT = {"index": 0, "f0": 1.0, "f1": 1.0, "theta_rad": 0.0}


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


def set_csv_cell(lines, row, column, value):
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)


@pytest.fixture
def small_run(tmp_path):
    """A characterized noisy two-qubit run directory."""
    cfg = write_config(
        tmp_path / "cfg.json",
        [
            {"index": 0, "f0": 0.99, "f1": 0.95, "theta_rad": 0.0213},
            {"index": 1, "f0": 0.97, "f1": 0.9, "theta_rad": -0.01},
        ],
        L=6,
        S=512,
        seed=20,
    )
    run = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(run), "--quiet"]) == 0
    assert main(["characterize", str(run), "--quiet"]) == 0
    return run


class TestSimulate:
    def test_trivial_run_layout(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT], L=2, S=4)
        run = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out", str(run)]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["counts.csv", "manifest.json"]
        lines = (run / "counts.csv").read_text().splitlines()
        # The perfect qubit's SPAM counts are certain; its test circuit's are not.
        assert lines[:5] == [
            "kind,qubit,experiment,ones,shots",
            "spam0,0,0,0,4",
            "spam0,0,1,0,4",
            "spam1,0,0,4,4",
            "spam1,0,1,4,4",
        ]
        assert [line.split(",")[:3] for line in lines[5:]] == [["c", "0", "0"], ["c", "0", "1"]]
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["schema"] == "run-manifest/3"

    def test_duplicate_qubit_index_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT, PERFECT_QUBIT])
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 2

    def test_non_contiguous_indices_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", [PERFECT_QUBIT, {"index": 2, "f0": 1.0, "f1": 1.0, "theta_rad": 0.0}]
        )
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 2

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

    def test_missing_out_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT])
        assert main(["simulate", str(cfg)]) == 2

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.9, "f1": 0.9, "theta_rad": 0.0}], S=128)
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(run_a), "--quiet"]) == 0
        assert main(["--seed", "999", "simulate", str(cfg), "--out", str(run_b), "--quiet"]) == 0
        assert (run_a / "counts.csv").read_text() != (run_b / "counts.csv").read_text()
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
        assert (run_a / "counts.csv").read_text() != (run_b / "counts.csv").read_text()

    @pytest.mark.parametrize("sigma", ["-0.1", "inf", "nan", "1e308"])
    def test_bad_drift_rejected(self, tmp_path, sigma, capsys):
        cfg = write_config(tmp_path / "cfg.json", [PERFECT_QUBIT])
        run = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out", str(run), "--drift", sigma]) == 2
        assert "--drift" in capsys.readouterr().err
        assert not run.exists()

    def test_resimulating_clears_derived_tables(self, small_run, capsys):
        cfg = small_run.parent / "cfg.json"
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        (small_run / "report" / "notes.txt").write_text("kept")
        assert main(["--seed", "99", "simulate", str(cfg), "--out", str(small_run), "--quiet"]) == 0
        assert sorted(p.name for p in small_run.iterdir()) == ["counts.csv", "manifest.json", "report"]
        assert [p.name for p in (small_run / "report").iterdir()] == ["notes.txt"]
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert "run characterize and verdict first" in capsys.readouterr().err


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
        counts = run / "counts.csv"
        counts.write_text("".join(counts.read_text().splitlines(keepends=True)[:-1]))
        assert main(["characterize", str(run)]) == 4
        assert "c,0,1" in capsys.readouterr().err

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
        rc = main(["verdict", str(small_run / "characterization.csv"), "--delta", "0.9"])
        assert rc == 5
        assert "0.5411961" in capsys.readouterr().err

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

    def test_duplicate_normalized_qubit_rejected(self, tmp_path, capsys):
        entry = {"index": 0, "f0": 0.98, "f1": 0.94, "theta_rad": 0.01}
        norm = write_snapshot(tmp_path / "norm.json", [entry, entry], schema="calibration-normalized/1")
        assert main(["verdict", str(norm), "--delta", "0.2", "--quiet"]) == 2
        assert f"{norm}: qubit 0 appears more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("theta,override", [(1e308, []), (None, ["--theta", "1e308"])], ids=["json", "override"])
    def test_angle_whose_double_overflows_rejected(self, tmp_path, theta, override, capsys):
        # 2*theta is inf, so sin(2*theta) has no value.
        entry = {"index": 0, "f0": 0.98, "f1": 0.94, "theta_rad": theta}
        norm = write_snapshot(tmp_path / "norm.json", [entry], schema="calibration-normalized/1")
        assert main(["verdict", str(norm), "--delta", "0.2", "--quiet", *override]) == 2
        assert "theta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "verdicts.csv").exists()

    def test_register_size_beyond_float_rejected(self, small_run, capsys):
        n = "1" + "0" * 400
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta", "0.1", "--n", n, "--quiet"]) == 2
        assert "qubit count must fit a float" in capsys.readouterr().err


class TestImportCalibration:
    def test_minimal_snapshot(self, tmp_path):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 0.94, "theta_rad": 0.01}])
        assert main(["import-calibration", str(snap), "--quiet"]) == 0
        doc = json.loads((tmp_path / "snap.normalized.json").read_text())
        assert doc["schema"] == "calibration-normalized/1"
        assert doc["qubits"][0]["theta_rad"] == 0.01

    def test_fidelity_above_one_rejected(self, tmp_path):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 1.02}])
        assert main(["import-calibration", str(snap)]) == 2

    def test_wrong_schema_rejected(self, tmp_path):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.9, "f1": 0.9}], schema="other/9")
        assert main(["import-calibration", str(snap)]) == 2

    def test_gate_error_degrees(self, tmp_path):
        snap = write_snapshot(
            tmp_path / "snap.json",
            [{"index": 0, "f0": 0.98, "f1": 0.94, "gate_error": {"value": 1.5, "unit": "deg"}}],
        )
        assert main(["import-calibration", str(snap), "--quiet"]) == 0
        doc = json.loads((tmp_path / "snap.normalized.json").read_text())
        assert doc["qubits"][0]["theta_rad"] == pytest.approx(math.radians(1.5))

    def test_gate_error_infidelity(self, tmp_path):
        theta = 0.02
        infid = (2.0 / 3.0) * math.sin(theta) ** 2
        snap = write_snapshot(
            tmp_path / "snap.json",
            [{"index": 0, "f0": 0.98, "f1": 0.94, "gate_error": {"value": infid, "unit": "infidelity"}}],
        )
        assert main(["import-calibration", str(snap), "--quiet"]) == 0
        doc = json.loads((tmp_path / "snap.normalized.json").read_text())
        assert doc["qubits"][0]["theta_rad"] == pytest.approx(theta, rel=1e-9)

    def test_unknown_unit_never_guessed(self, tmp_path):
        snap = write_snapshot(
            tmp_path / "snap.json",
            [{"index": 0, "f0": 0.98, "f1": 0.94, "gate_error": {"value": 0.1, "unit": "furlongs"}}],
        )
        assert main(["import-calibration", str(snap)]) == 2

    def test_missing_angle_is_flagged_then_needs_override(self, tmp_path):
        snap = write_snapshot(tmp_path / "snap.json", [{"index": 0, "f0": 0.98, "f1": 0.94}])
        norm = tmp_path / "norm.json"
        assert main(["import-calibration", str(snap), "--out", str(norm), "--quiet"]) == 0
        doc = json.loads(norm.read_text())
        assert doc["qubits"][0]["theta_rad"] is None
        assert doc["warnings"]
        assert main(["verdict", str(norm), "--delta", "0.1"]) == 2
        assert main(["verdict", str(norm), "--delta", "0.1", "--theta", "0.01", "--quiet"]) == 0

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
        norm = tmp_path / "norm.json"
        assert main(["import-calibration", str(snap), "--out", str(norm), "--quiet"]) == 0
        assert main(["verdict", str(norm), "--delta", "0.3", "--out", str(tmp_path / "v.csv"), "--quiet"]) == 0
        assert len(read_rows(tmp_path / "v.csv")) == 27


class TestPlanSamples:
    def test_reference_output(self, capsys):
        assert main(["plan-samples", "--p", "0.5", "--precision", "0.01", "--confidence", "0.95"]) == 0
        out = capsys.readouterr().out
        assert "T = 38415" in out
        assert "z = 1.95996398" in out

    def test_half_precision_quarter_shots(self, capsys):
        assert main(["plan-samples", "--p", "0.5", "--precision", "0.02", "--confidence", "0.95"]) == 0
        assert "T = 9604" in capsys.readouterr().out

    def test_zero_confidence_rejected(self):
        assert main(["plan-samples", "--p", "0.5", "--precision", "0.01", "--confidence", "0"]) == 2

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
        for name in [
            "table1.csv",
            "fig_theta.csv",
            "fig_hellinger.csv",
            "fig_asymmetry.csv",
            "fig_gamma.csv",
            "fig_scatter.csv",
            "lemma_report.json",
        ]:
            assert (report / name).is_file(), name
        scatter = read_rows(report / "fig_scatter.csv")
        assert len(scatter) == 6 * 2  # L experiments x qubits
        table = read_rows(report / "table1.csv")
        assert [r["register"] for r in table] == ["0", "1"]
        for row in table:
            assert float(row["gamma_D"]) <= float(row["gamma_max"])
        lemma = json.loads((report / "lemma_report.json").read_text())
        assert lemma["passed"] is True

    def test_scatter_matches_counts(self, small_run):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        assert main(["report", str(small_run), "--quiet"]) == 0
        counts = {
            (r["kind"], r["qubit"], r["experiment"]): int(r["ones"]) / int(r["shots"])
            for r in read_rows(small_run / "counts.csv")
        }
        for row in read_rows(small_run / "report" / "fig_scatter.csv"):
            key = (row["qubit"], row["experiment"])
            p1 = counts[("c", *key)]
            assert float(row["eps"]) == (1.0 - counts[("spam0", *key)]) - counts[("spam1", *key)]
            assert float(row["hellinger"]) == hellinger_1q(1.0 - p1, p1)

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
        ],
        ids=["not-json", "old-schema", "old-schema-2", "missing-keys"],
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
        ],
        ids=[
            "L-float", "S-string", "seed-float", "seed-string", "index-float", "index-string", "f0-string",
            "f0-bool", "drift-string", "drift-out-of-range",
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
        counts = small_run / "counts.csv"
        lines = counts.read_text().splitlines(keepends=True)
        lines[1] = "spam0,0,0,x,512\n"
        counts.write_text("".join(lines))
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert "counts.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,edit",
        [
            ("verdicts.csv", lambda lines: lines.pop()),
            ("characterization.csv", lambda lines: set_csv_cell(lines, 2, 0, "5")),
            ("characterization.csv", lambda lines: set_csv_cell(lines, 1, 11, "7")),
            ("characterization.csv", lambda lines: set_csv_cell(lines, 1, 12, "511")),
        ],
        ids=["verdicts-fewer-qubits", "qubit-not-in-plan", "other-L", "other-S"],
    )
    def test_mismatched_artifacts_are_incomplete(self, small_run, name, edit, capsys):
        assert main(["verdict", str(small_run / "characterization.csv"), "--delta-from-observed", "--quiet"]) == 0
        edit_lines(small_run / name, edit)
        assert main(["report", str(small_run), "--quiet"]) == 4
        assert f"{small_run / name}: " in capsys.readouterr().err


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


def test_end_to_end_determinism(tmp_path):
    """The same config twice yields byte-identical CSV outputs everywhere."""
    run_a = run_pipeline(tmp_path, "a")
    run_b = run_pipeline(tmp_path, "b")
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
    for name in names:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name


def test_threads_do_not_change_outputs(tmp_path):
    # --threads is accepted for compatibility and has no effect.
    cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.9, "f1": 0.8, "theta_rad": 0.01}], L=5, S=256)
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(cfg), "--out", str(run_a), "--quiet"]) == 0
    assert main(["simulate", str(cfg), "--out", str(run_b), "--quiet", "--threads", "2"]) == 0
    assert (run_a / "counts.csv").read_bytes() == (run_b / "counts.csv").read_bytes()


def test_threads_help_says_ignored(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "ignored" in capsys.readouterr().out


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
        counts = run / "counts.csv"
        counts.write_bytes(mutate(counts.read_bytes(), ops))
        assert main(["characterize", str(run), "--quiet"]) in (0, 2, 3, 4, 5)
        assert main(["report", str(run), "--quiet"]) in (0, 2, 3, 4, 5)


def break_input(tmp_path, run, case):
    """Write the malformed input named by ``case``; returns (argv, the file
    the error must name, expected exit code)."""
    char, verdicts = run / "characterization.csv", run / "verdicts.csv"
    if case == "characterization-text-cell":
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, 1, "abc"))
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 2", 2
    if case == "characterization-edited-eps":
        edit_lines(char, lambda lines: set_csv_cell(lines, 1, 3, "0.5"))
        return ["verdict", str(char), "--delta", "0.3"], f"{char}: line 2", 2
    if case == "characterization-nan-fidelities":
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
        # Columns 1, 3 and 5 are f0_mean, eps_mean and f_mean.
        edit_lines(char, lambda lines: [set_csv_cell(lines, 1, column, "nan") for column in (1, 3, 5)])
        return ["report", str(run)], f"{char}: line 2", 2
    if case == "verdicts-nan-gamma":
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
        # Columns 3 and 6 are gamma_D and reproducible.
        edit_lines(verdicts, lambda lines: [set_csv_cell(lines, 1, 3, "nan"), set_csv_cell(lines, 1, 6, "false")])
        return ["report", str(run)], f"{verdicts}: line 2", 2
    if case == "verdicts-text-cell":
        assert main(["verdict", str(char), "--delta", "0.3", "--quiet"]) == 0
        edit_lines(verdicts, lambda lines: set_csv_cell(lines, 2, 3, "abc"))
        return ["report", str(run)], f"{verdicts}: line 3", 2
    path = tmp_path / "input.json"
    if case == "config-not-utf8":
        path.write_bytes(b'{"schema": "device-config/1", "name": "\xff"}')
        return ["simulate", str(path), "--out", str(tmp_path / "sim")], str(path), 2
    if case == "config-list":
        path.write_text("[1, 2]")
        return ["simulate", str(path), "--out", str(tmp_path / "sim")], str(path), 2
    if case == "normalized-no-qubits":
        doc = {"schema": "calibration-normalized/1", "source": "x", "captured_at": "t", "warnings": []}
        path.write_text(json.dumps(doc))
        return ["verdict", str(path), "--delta", "0.3"], f"{path}: missing field 'qubits'", 2
    if case == "normalized-string-f0":
        qubit = {"index": 0, "f0": "0.9", "f1": 0.9, "theta_rad": 0.0}
        doc = {"schema": "calibration-normalized/1", "source": "x", "captured_at": "t", "qubits": [qubit]}
        path.write_text(json.dumps(doc))
        return ["verdict", str(path), "--delta", "0.3"], f"{path}: qubits[0]: field 'f0'", 2
    if case == "normalized-fidelity-out-of-range":
        qubit = {"index": 3, "f0": 1.2, "f1": 0.4, "theta_rad": 0.0}
        doc = {"schema": "calibration-normalized/1", "source": "x", "captured_at": "t", "qubits": [qubit]}
        path.write_text(json.dumps(doc))
        return ["verdict", str(path), "--delta", "0.1"], f"{path}: qubits[0]: qubit 3: f0=1.2 outside [0, 1]", 2
    assert case == "snapshot-nan-angle"
    write_snapshot(path, [{"index": 0, "f0": 0.9, "f1": 0.9, "theta_rad": math.nan}])
    return ["import-calibration", str(path)], f"{path}: not valid JSON", 2


@pytest.mark.parametrize(
    "case",
    [
        "characterization-text-cell",
        "characterization-edited-eps",
        "characterization-nan-fidelities",
        "verdicts-nan-gamma",
        "verdicts-text-cell",
        "config-not-utf8",
        "config-list",
        "normalized-no-qubits",
        "normalized-string-f0",
        "normalized-fidelity-out-of-range",
        "snapshot-nan-angle",
    ],
)
def test_malformed_input_exits_naming_the_file(tmp_path, small_run, case, capsys):
    argv, named, code = break_input(tmp_path, small_run, case)
    capsys.readouterr()
    assert main(argv) == code
    assert named in capsys.readouterr().err


@pytest.fixture(scope="module")
def pristine_inputs(pristine_run):
    """pristine_run's directory plus a calibration snapshot and its normalized form."""
    base = pristine_run.parent
    write_snapshot(
        base / "snap.json",
        [
            {"index": 1, "f0": 0.97, "f1": 0.93, "gate_error": {"value": 0.5, "unit": "deg"}},
            {"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01},
        ],
    )
    assert main(["import-calibration", str(base / "snap.json"), "--out", str(base / "norm.json"), "--quiet"]) == 0
    return base


# Each mutated artifact, relative to pristine_inputs, and the commands that read it.
ARTIFACT_COMMANDS = {
    "run/characterization.csv": [
        ["verdict", "{base}/run/characterization.csv", "--delta-from-observed"],
        ["report", "{base}/run"],
    ],
    "run/verdicts.csv": [["report", "{base}/run"]],
    "run/manifest.json": [["characterize", "{base}/run"], ["report", "{base}/run"]],
    "cfg.json": [["simulate", "{base}/cfg.json", "--out", "{base}/sim"]],
    "snap.json": [["import-calibration", "{base}/snap.json", "--out", "{base}/snap.out.json"]],
    "norm.json": [["verdict", "{base}/norm.json", "--delta", "0.3", "--out", "{base}/v.csv"]],
}


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
