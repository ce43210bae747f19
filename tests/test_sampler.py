"""Tests for the deterministic count sampler and the run-directory format."""

import json
import math

import numpy as np
import pytest

from reprobound import sampler
from reprobound.errors import IncompleteArchiveError, InvalidParameterError
from reprobound.noise_model import QubitNoiseParams
from reprobound.sampler import (
    MAX_COUNTS,
    CircuitKind,
    ExperimentPlan,
    PlanQubit,
    RunArchive,
    count_stream,
    load_archive,
    p_one,
    run_plan,
    save_archive,
)

PERFECT = QubitNoiseParams(1.0, 1.0, 0.0)
NOISY = QubitNoiseParams(0.93, 0.88, 0.04)


def make_plan(params_list, L=4, S=64, seed=7):
    qubits = tuple(PlanQubit(i, p) for i, p in enumerate(params_list))
    return ExperimentPlan(L=L, S=S, qubits=qubits, seed=seed)


def counts_of(kind, params, S=64):
    """The ones counts of ``kind`` in a two-experiment one-qubit plan."""
    return run_plan(make_plan([params], L=2, S=S, seed=0)).ones(kind, 0)


class TestSingleBlocks:
    """One experiment of each circuit kind: its ones count out of S shots."""

    def test_spam0_perfect(self):
        assert counts_of(CircuitKind.SPAM0, PERFECT).tolist() == [0, 0]

    def test_spam0_fully_flipped(self):
        assert counts_of(CircuitKind.SPAM0, QubitNoiseParams(0.0, 1.0, 0.0)).tolist() == [64, 64]

    def test_spam1_perfect(self):
        assert counts_of(CircuitKind.SPAM1, PERFECT).tolist() == [64, 64]

    def test_spam1_fully_flipped(self):
        assert counts_of(CircuitKind.SPAM1, QubitNoiseParams(1.0, 0.0, 0.0)).tolist() == [0, 0]

    def test_circuit_c_quarter_turn(self):
        # theta = pi/4 sends |0> to |1> deterministically. QubitNoiseParams
        # rejects that angle, so the closed form is evaluated directly.
        assert p_one(1.0, 1.0, math.pi / 4)[2] == 1.0

    @pytest.mark.parametrize(
        "kind,p",
        [
            (CircuitKind.SPAM0, 1 - 0.95),
            (CircuitKind.SPAM1, 0.93),
        ],
        ids=["spam0", "spam1"],
    )
    def test_binomial_five_sigma(self, kind, p):
        params = QubitNoiseParams(0.95, 0.93, 0.0)
        assert p_one(params.f0, params.f1, params.theta)[list(CircuitKind).index(kind)] == pytest.approx(p, abs=1e-15)
        s = 8192
        ones = counts_of(kind, params, S=s)
        band = 5 * math.sqrt(p * (1 - p) / s)
        assert np.all(np.abs(ones / s - p) <= band)

    def test_circuit_c_five_sigma(self):
        # gamma = 0.04 device: Pr(0) = 0.52, so Pr(bit=1) = 0.48.
        params = QubitNoiseParams(0.99, 0.95, 0.0)
        assert p_one(params.f0, params.f1, params.theta)[2] == pytest.approx(0.48, abs=1e-15)
        s = 8192
        ones = counts_of(CircuitKind.C, params, S=s)
        band = 5 * math.sqrt(0.48 * 0.52 / s)
        assert np.all(np.abs(ones / s - 0.48) <= band)


class TestPlanValidation:
    def test_rejects_single_experiment(self):
        with pytest.raises(InvalidParameterError):
            make_plan([PERFECT], L=1)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(InvalidParameterError):
            ExperimentPlan(L=2, S=4, qubits=(PlanQubit(0, PERFECT), PlanQubit(0, NOISY)), seed=1)

    def test_rejects_bad_seed(self):
        with pytest.raises(InvalidParameterError):
            make_plan([PERFECT], seed=-1)
        with pytest.raises(InvalidParameterError):
            make_plan([PERFECT], seed=2**64)

    def test_rejects_shots_beyond_int64(self):
        # numpy's binomial takes an int64 number of trials.
        assert make_plan([PERFECT], S=2**63 - 1).S == 2**63 - 1
        with pytest.raises(InvalidParameterError, match="S must be"):
            make_plan([PERFECT], S=2**63)

    def test_rejects_oversized_count_tensor(self):
        assert make_plan([PERFECT, NOISY], L=MAX_COUNTS // 6).L == MAX_COUNTS // 6
        with pytest.raises(InvalidParameterError, match="supported"):
            make_plan([PERFECT, NOISY], L=MAX_COUNTS // 6 + 1)


class TestRunPlan:
    def test_trivial_plan(self):
        archive = run_plan(make_plan([PERFECT], L=2, S=4))
        assert archive.counts.shape == (3, 1, 2)
        assert archive.counts.dtype == np.int64
        assert archive.ones(CircuitKind.SPAM0, 0).tolist() == [0, 0]
        assert archive.ones(CircuitKind.SPAM1, 0).tolist() == [4, 4]

    def test_counts_are_read_only(self):
        archive = run_plan(make_plan([NOISY], L=2, S=4))
        with pytest.raises(ValueError):
            archive.counts[0, 0, 0] = 1

    def test_deterministic_across_runs(self):
        plan = make_plan([NOISY, PERFECT], L=3, S=128, seed=11)
        np.testing.assert_array_equal(run_plan(plan).counts, run_plan(plan).counts)

    def test_seed_changes_every_block(self):
        # Each (kind, qubit) stream changes with the seed; a single count of
        # it may still coincide by chance.
        base = make_plan([NOISY, NOISY], L=8, S=4096, seed=1)
        other = make_plan([NOISY, NOISY], L=8, S=4096, seed=2)
        a, b = run_plan(base).counts, run_plan(other).counts
        for kind in range(3):
            for i in range(2):
                assert not np.array_equal(a[kind, i], b[kind, i])

    def test_params_change_is_isolated_to_that_qubit(self):
        loud = QubitNoiseParams(0.55, 0.6, 0.3)
        a = run_plan(make_plan([NOISY, NOISY], L=3, S=256, seed=5)).counts
        b = run_plan(make_plan([NOISY, loud], L=3, S=256, seed=5)).counts
        np.testing.assert_array_equal(a[:, 0], b[:, 0])
        for kind in range(3):
            assert not np.array_equal(a[kind, 1], b[kind, 1])

    def test_qubit_counts_independent_of_plan_position(self):
        # Streams are keyed by qubit index, not by position in the plan.
        a = run_plan(ExperimentPlan(L=3, S=256, qubits=(PlanQubit(4, NOISY),), seed=5))
        b = run_plan(
            ExperimentPlan(L=3, S=256, qubits=(PlanQubit(9, PERFECT), PlanQubit(4, NOISY)), seed=5)
        )
        for kind in CircuitKind:
            np.testing.assert_array_equal(a.ones(kind, 4), b.ones(kind, 4))

    def test_pooled_frequency_within_five_sigma(self):
        plan = make_plan([NOISY], L=8, S=1024, seed=3)
        archive = run_plan(plan)
        expected = {
            CircuitKind.SPAM0: 1 - NOISY.f0,
            CircuitKind.SPAM1: NOISY.f1,
            CircuitKind.C: (1 - (NOISY.eps - 2 * math.sin(2 * NOISY.theta) * (NOISY.f - 0.5))) / 2,
        }
        total = plan.L * plan.S
        for kind, p in expected.items():
            ones = int(archive.ones(kind, 0).sum())
            band = 5 * math.sqrt(p * (1 - p) / total)
            assert abs(ones / total - p) <= band

    def test_full_protocol_block_count(self):
        plan = make_plan([NOISY], L=203, S=8192, seed=42)
        archive = run_plan(plan)
        assert archive.counts.size == 609
        assert archive.counts.min() >= 0 and archive.counts.max() <= 8192

    def test_zero_drift_is_stationary(self):
        plan = make_plan([NOISY, PERFECT], L=4, S=256, seed=9)
        np.testing.assert_array_equal(run_plan(plan, drift=0.0).counts, run_plan(plan).counts)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, 1e308])
    def test_bad_drift_rejected(self, sigma):
        with pytest.raises(InvalidParameterError, match="drift SIGMA"):
            run_plan(make_plan([NOISY]), drift=sigma)
        with pytest.raises(InvalidParameterError, match="drift SIGMA"):
            RunArchive(plan=make_plan([NOISY], L=2, S=4), counts=np.zeros((3, 1, 2)), drift=sigma)

    @pytest.mark.parametrize(
        "counts",
        [np.zeros((3, 1, 3)), np.full((3, 1, 2), 5), np.full((3, 1, 2), -1)],
        ids=["shape", "above-S", "negative"],
    )
    def test_archive_rejects_bad_counts(self, counts):
        with pytest.raises(InvalidParameterError):
            RunArchive(plan=make_plan([NOISY], L=2, S=4), counts=counts)


def saved_run(tmp_path, L=2, S=16, seed=1):
    plan = make_plan([NOISY, PERFECT], L=L, S=S, seed=seed)
    return save_archive(run_plan(plan), tmp_path / "run")


def edit_manifest(run, change):
    manifest = json.loads((run / "manifest.json").read_text())
    change(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest))


def edit_counts_lines(run, change):
    path = run / "counts.csv"
    lines = path.read_text().splitlines()
    change(lines)
    path.write_text("".join(line + "\n" for line in lines))


def set_cell(lines, row, column, value):
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)


class TestArchiveIO:
    def test_round_trip(self, tmp_path):
        archive = run_plan(make_plan([NOISY, PERFECT], L=3, S=100, seed=21))
        out = save_archive(archive, tmp_path / "run")
        loaded = load_archive(out)
        assert loaded.plan == archive.plan
        assert loaded.drift is None
        np.testing.assert_array_equal(loaded.counts, archive.counts)
        assert loaded.counts.dtype == np.int64

    def test_run_directory_holds_two_files(self, tmp_path):
        out = saved_run(tmp_path)
        assert sorted(p.name for p in out.iterdir()) == ["counts.csv", "manifest.json"]

    def test_counts_file_format(self, tmp_path):
        plan = ExperimentPlan(L=2, S=13, qubits=(PlanQubit(3, NOISY), PlanQubit(1, PERFECT)), seed=4)
        archive = run_plan(plan)
        out = save_archive(archive, tmp_path / "run")
        raw = (out / "counts.csv").read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        lines = raw.decode().splitlines()
        assert lines[0] == "kind,qubit,experiment,ones,shots"
        # Kind-major, then qubits in plan order, then experiments.
        keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert keys == [
            (kind, q, l) for kind in ("spam0", "spam1", "c") for q in ("3", "1") for l in ("0", "1")
        ]

    def test_counts_cache_matches_blocks(self, tmp_path):
        archive = run_plan(make_plan([NOISY], L=2, S=50, seed=8))
        out = save_archive(archive, tmp_path / "run")
        lines = (out / "counts.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            kind, qubit, experiment, ones, shots = line.split(",")
            assert int(ones) == archive.ones(CircuitKind(kind), int(qubit))[int(experiment)]
            assert int(shots) == 50

    def test_manifest_contents(self, tmp_path):
        archive = run_plan(make_plan([NOISY], L=2, S=8, seed=123))
        out = save_archive(archive, tmp_path / "run")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "run-manifest/3"
        assert manifest["status"] == "complete"
        assert manifest["plan"] == {"L": 2, "S": 8, "seed": 123}
        assert manifest["qubits"] == [{"index": 0, "f0": NOISY.f0, "f1": NOISY.f1, "theta_rad": NOISY.theta}]
        assert manifest["drift"] is None
        assert "started_at" in manifest and "finished_at" in manifest

    def test_drifted_run_reproduces_its_counts(self, tmp_path):
        archive = run_plan(make_plan([NOISY, PERFECT], L=6, S=256, seed=5), drift=0.05)
        out = save_archive(archive, tmp_path / "run")
        loaded = load_archive(out)
        assert loaded.drift == 0.05
        rerun = run_plan(loaded.plan, drift=loaded.drift)
        np.testing.assert_array_equal(rerun.counts, loaded.counts)

    def test_missing_block_detected(self, tmp_path):
        out = saved_run(tmp_path)
        edit_counts_lines(out, lambda lines: lines.pop(6))  # spam1,0,1
        with pytest.raises(IncompleteArchiveError) as excinfo:
            load_archive(out)
        assert "spam1,0,1" in str(excinfo.value)
        assert excinfo.value.missing == ("counts.csv",)

    def test_truncated_block_detected(self, tmp_path):
        out = saved_run(tmp_path)
        path = out / "counts.csv"
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(IncompleteArchiveError):
            load_archive(out)

    def test_missing_counts_file_detected(self, tmp_path):
        out = saved_run(tmp_path)
        (out / "counts.csv").unlink()
        with pytest.raises(IncompleteArchiveError) as excinfo:
            load_archive(out)
        assert excinfo.value.missing == ("counts.csv",)

    def test_partial_manifest_detected(self, tmp_path):
        out = saved_run(tmp_path)
        edit_manifest(out, lambda m: m.update(status="partial"))
        with pytest.raises(IncompleteArchiveError):
            load_archive(out)

    def test_manifest_not_json_detected(self, tmp_path):
        out = saved_run(tmp_path)
        (out / "manifest.json").write_text('{"schema": "run-manifest/3", ')
        with pytest.raises(IncompleteArchiveError, match="not valid JSON"):
            load_archive(out)

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: m["plan"].pop("L"),
            lambda m: m.pop("plan"),
            lambda m: m.pop("qubits"),
            lambda m: m["qubits"][0].pop("f0"),
            lambda m: m["plan"].update(S="many"),
            lambda m: m.update(qubits=[7]),
            lambda m: m.pop("drift"),
        ],
        ids=["L", "plan", "qubits", "qubit-f0", "S-type", "qubit-type", "drift"],
    )
    def test_manifest_missing_keys_detected(self, tmp_path, change):
        out = saved_run(tmp_path)
        edit_manifest(out, change)
        with pytest.raises(IncompleteArchiveError) as excinfo:
            load_archive(out)
        assert excinfo.value.missing == ("manifest.json",)

    def test_old_manifest_schema_rejected(self, tmp_path):
        out = saved_run(tmp_path)
        edit_manifest(out, lambda m: m.update(schema="run-manifest/2"))
        with pytest.raises(IncompleteArchiveError, match="run-manifest/2"):
            load_archive(out)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda lines: lines.__setitem__(0, "kind,qubit,experiment,ones"), "header"),
            (lambda lines: set_cell(lines, 3, 3, "2.5"), "integer"),
            (lambda lines: set_cell(lines, 3, 3, "x"), "integer"),
            (lambda lines: set_cell(lines, 3, 3, "+3"), "integer"),
            (lambda lines: lines.insert(3, lines[2]), "duplicated"),
            (lambda lines: lines.append(lines[-1]), "more rows"),
            (lambda lines: lines.pop(), "missing"),
            (lambda lines: set_cell(lines, 2, 3, "-1"), r"\[0, 16\]"),
            (lambda lines: set_cell(lines, 2, 3, "17"), r"\[0, 16\]"),
            (lambda lines: set_cell(lines, 2, 4, "15"), "S=16"),
            (lambda lines: set_cell(lines, 2, 1, "9"), "expected the row"),
            (lambda lines: lines.__setitem__(5, lines[5] + ",0"), "cells"),
        ],
        ids=[
            "header", "float", "text", "plus-sign", "duplicate", "extra", "truncated",
            "negative", "above-S", "shots", "unknown-qubit", "extra-cell",
        ],
    )
    def test_malformed_counts_rejected(self, tmp_path, change, message):
        out = saved_run(tmp_path)
        edit_counts_lines(out, change)
        with pytest.raises(IncompleteArchiveError, match=message) as excinfo:
            load_archive(out)
        assert excinfo.value.missing == ("counts.csv",)

    def test_counts_not_utf8_rejected(self, tmp_path):
        out = saved_run(tmp_path)
        (out / "counts.csv").write_bytes(b"kind,qubit,experiment,ones,shots\n\xff\xfe\n")
        with pytest.raises(IncompleteArchiveError):
            load_archive(out)


class TestStreams:
    def test_stream_depends_only_on_key(self):
        a = count_stream(9, CircuitKind.C, 2).random(16)
        b = count_stream(9, CircuitKind.C, 2).random(16)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "other",
        [
            (8, CircuitKind.C, 2),
            (9, CircuitKind.SPAM0, 2),
            (9, CircuitKind.C, 1),
        ],
    )
    def test_any_key_component_changes_stream(self, other):
        base = count_stream(9, CircuitKind.C, 2).random(16)
        assert not np.array_equal(base, count_stream(*other).random(16))

    def test_run_plan_draws_from_the_kind_qubit_stream(self):
        plan = ExperimentPlan(L=5, S=1000, qubits=(PlanQubit(3, NOISY),), seed=17)
        expected = count_stream(17, CircuitKind.SPAM1, 3).binomial(1000, NOISY.f1, size=5)
        np.testing.assert_array_equal(run_plan(plan).ones(CircuitKind.SPAM1, 3), expected)

    def test_drift_follows_the_documented_streams(self):
        # Stream 3 keyed by (seed, l) perturbs experiment l of every qubit;
        # f0 and f1 are clipped, then stream (kind, qubit) draws the counts.
        L, S, sigma = 6, 1000, 0.05
        qubits = (PlanQubit(3, NOISY), PlanQubit(1, PERFECT))
        expected = np.empty((3, len(qubits), L), dtype=np.int64)
        perturbations = [
            np.random.Generator(np.random.Philox(np.random.SeedSequence(17, spawn_key=(3, l)))).normal(0.0, sigma, 3)
            for l in range(L)
        ]
        for i, q in enumerate(qubits):
            p = []
            for df0, df1, dtheta in perturbations:
                f0 = min(1.0, max(0.0, q.params.f0 + df0))
                f1 = min(1.0, max(0.0, q.params.f1 + df1))
                gamma = (f0 - f1) - 2 * math.sin(2 * (q.params.theta + dtheta)) * ((f0 + f1) / 2 - 0.5)
                p.append((1.0 - f0, f1, min(1.0, max(0.0, (1 - gamma) / 2))))
            for k in range(3):
                seq = np.random.SeedSequence(17, spawn_key=(k, q.index))
                expected[k, i] = np.random.Generator(np.random.Philox(seq)).binomial(S, [row[k] for row in p])
        drifted = run_plan(ExperimentPlan(L=L, S=S, qubits=qubits, seed=17), drift=sigma).counts
        np.testing.assert_array_equal(drifted, expected)
        # The perfect qubit's f0 clips at 1 in the experiments whose df0 > 0.
        assert [count == 0 for count in drifted[0, 1]] == [df0 >= 0 for df0, _, _ in perturbations]

    def test_drift_builds_one_generator_per_experiment(self, monkeypatch):
        # One count stream per (kind, qubit), one drift stream per experiment.
        calls = []
        philox = sampler._philox
        monkeypatch.setattr(sampler, "_philox", lambda *key: calls.append(key) or philox(*key))
        run_plan(make_plan([NOISY, PERFECT, NOISY], L=5), drift=0.05)
        assert len(calls) == 3 * 3 + 5
