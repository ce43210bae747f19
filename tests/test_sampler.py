"""Tests for the deterministic count sampler and the run-directory format."""

import hashlib
import json
import math
import re
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import mt19937_generator
from test_cli import fail_writing, set_row_cell, write_config
from reprobound import sampler
from reprobound.cli import main
from reprobound.errors import IncompleteArchiveError, InvalidParameterError
from reprobound.noise_model import QubitNoiseParams
from reprobound.sampler import (
    MAX_COUNTS,
    CircuitKind,
    ExperimentPlan,
    PlanQubit,
    RunArchive,
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


def count_stream(seed, kind, qubit):
    """The reference generator on the stream of one (kind, qubit) pair:
    ``random.Random(seed + 2**64 * (id + 4 * qubit))``, ``id`` the kind's
    place in the archive's kind order."""
    return mt19937_generator(seed + 2**64 * (list(CircuitKind).index(kind) + 4 * qubit))


def ones(archive, kind, qubit):
    """The L counts of circuit ``kind`` on the qubit with index ``qubit``."""
    return dict(archive.qubit_counts())[qubit][list(CircuitKind).index(CircuitKind(kind))]


def counts_of(kind, params, S=64):
    """The ones counts of ``kind`` in a two-experiment one-qubit plan."""
    return ones(run_plan(make_plan([params], L=2, S=S, seed=0)), kind, 0)


class TestSingleBlocks:
    """One experiment of each circuit kind: its ones count out of S shots."""

    def test_spam0_perfect(self):
        assert counts_of(CircuitKind.SPAM0, PERFECT) == (0, 0)

    def test_spam0_fully_flipped(self):
        assert counts_of(CircuitKind.SPAM0, QubitNoiseParams(0.0, 1.0, 0.0)) == (64, 64)

    def test_spam1_perfect(self):
        assert counts_of(CircuitKind.SPAM1, PERFECT) == (64, 64)

    def test_spam1_fully_flipped(self):
        assert counts_of(CircuitKind.SPAM1, QubitNoiseParams(1.0, 0.0, 0.0)) == (0, 0)

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
        assert all(abs(k / s - p) <= band for k in ones)

    def test_circuit_c_five_sigma(self):
        # gamma = 0.04 device: Pr(0) = 0.52, so Pr(bit=1) = 0.48.
        params = QubitNoiseParams(0.99, 0.95, 0.0)
        assert p_one(params.f0, params.f1, params.theta)[2] == pytest.approx(0.48, abs=1e-15)
        s = 8192
        ones = counts_of(CircuitKind.C, params, S=s)
        band = 5 * math.sqrt(0.48 * 0.52 / s)
        assert all(abs(k / s - 0.48) <= band for k in ones)


class TestPlanValidation:
    def test_rejects_single_experiment(self):
        with pytest.raises(InvalidParameterError):
            make_plan([PERFECT], L=1)

    def test_rejects_no_qubits(self):
        # A config or manifest whose qubits are empty is stopped before a plan
        # is built; the plan holds the rule for library callers too.
        with pytest.raises(InvalidParameterError, match="^plan needs at least one qubit$"):
            ExperimentPlan(L=2, S=1, qubits=(), seed=0)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(InvalidParameterError, match="^qubit 0 appears more than once$"):
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

    @pytest.mark.parametrize("name,value", [("L", 2.9), ("S", True), ("seed", 3.99), ("seed", 3.0)])
    def test_integer_fields_must_be_ints(self, name, value):
        settings = {"L": 2, "S": 4, "seed": 3, name: value}
        with pytest.raises(InvalidParameterError, match=f"^{name} must be an int"):
            ExperimentPlan(qubits=(PlanQubit(0, PERFECT),), **settings)

    @pytest.mark.parametrize("index", [0.7, 1.0, False])
    def test_qubit_index_must_be_an_int(self, index):
        with pytest.raises(InvalidParameterError, match="qubit index must be an int"):
            PlanQubit(index, PERFECT)

    def test_replace_reruns_the_checks(self):
        plan = make_plan([PERFECT, NOISY])
        assert plan.replace(seed=9) == make_plan([PERFECT, NOISY], seed=9)
        with pytest.raises(InvalidParameterError, match="seed must be"):
            plan.replace(seed=-1)

    def test_plan_equality_is_by_value(self):
        assert make_plan([PERFECT, NOISY]) == make_plan([PERFECT, NOISY])
        assert hash(make_plan([PERFECT, NOISY])) == hash(make_plan([PERFECT, NOISY]))
        assert make_plan([PERFECT, NOISY]) != make_plan([NOISY, PERFECT])
        assert repr(PlanQubit(0, PERFECT)) == f"PlanQubit(index=0, params={PERFECT!r})"

    def test_archive_equals_only_itself(self):
        plan = make_plan([NOISY], L=2, S=4)
        archive = RunArchive(plan, [[[0, 1]]] * 3)
        twin = RunArchive(plan, [[[0, 1]]] * 3)
        assert archive == archive and archive != twin
        assert len({archive, twin}) == 2
        assert archive.drift is None and archive.counts == twin.counts

    @pytest.mark.parametrize("version", [1.24, True, ["2.4.6"]], ids=["float", "bool", "list"])
    def test_archive_rejects_a_numpy_version_that_is_no_string(self, version):
        with pytest.raises(InvalidParameterError, match="numpy_version must be a str or None"):
            RunArchive(make_plan([NOISY], L=2, S=4), [[[0, 1]]] * 3, numpy_version=version)

    def test_rejects_oversized_count_tensor(self):
        assert make_plan([PERFECT, NOISY], L=MAX_COUNTS // 6).L == MAX_COUNTS // 6
        with pytest.raises(InvalidParameterError, match="supported"):
            make_plan([PERFECT, NOISY], L=MAX_COUNTS // 6 + 1)


class TestRunPlan:
    def test_trivial_plan(self):
        archive = run_plan(make_plan([PERFECT], L=2, S=4))
        # Three kinds of one qubit of two experiments, tuples of ints all through.
        assert type(archive.counts) is tuple and len(archive.counts) == 3
        for rows in archive.counts:
            assert type(rows) is tuple and len(rows) == 1
            assert type(rows[0]) is tuple and [type(k) for k in rows[0]] == [int, int]
        assert ones(archive, CircuitKind.SPAM0, 0) == (0, 0)
        assert ones(archive, CircuitKind.SPAM1, 0) == (4, 4)

    def test_counts_are_read_only(self):
        archive = run_plan(make_plan([NOISY], L=2, S=4))
        with pytest.raises(TypeError):
            archive.counts[0][0][0] = 1
        # The archive keeps its own copy of mutable counts it was given.
        given = [[[1, 2]], [[3, 4]], [[0, 0]]]
        archive = RunArchive(plan=make_plan([NOISY], L=2, S=4), counts=given)
        given[0][0][0] = 4
        assert archive.counts == (((1, 2),), ((3, 4),), ((0, 0),))

    def test_deterministic_across_runs(self):
        plan = make_plan([NOISY, PERFECT], L=3, S=128, seed=11)
        assert run_plan(plan).counts == run_plan(plan).counts

    def test_seed_changes_every_block(self):
        # Each (kind, qubit) stream changes with the seed; a single count of
        # it may still coincide by chance.
        base = make_plan([NOISY, NOISY], L=8, S=4096, seed=1)
        other = make_plan([NOISY, NOISY], L=8, S=4096, seed=2)
        a, b = run_plan(base).counts, run_plan(other).counts
        for kind in range(3):
            for i in range(2):
                assert a[kind][i] != b[kind][i]

    def test_params_change_is_isolated_to_that_qubit(self):
        loud = QubitNoiseParams(0.55, 0.6, 0.3)
        a = run_plan(make_plan([NOISY, NOISY], L=3, S=256, seed=5)).counts
        b = run_plan(make_plan([NOISY, loud], L=3, S=256, seed=5)).counts
        assert [rows[0] for rows in a] == [rows[0] for rows in b]
        for kind in range(3):
            assert a[kind][1] != b[kind][1]

    def test_qubit_counts_independent_of_plan_position(self):
        # Streams are keyed by qubit index, not by position in the plan.
        a = run_plan(ExperimentPlan(L=3, S=256, qubits=(PlanQubit(4, NOISY),), seed=5))
        b = run_plan(
            ExperimentPlan(L=3, S=256, qubits=(PlanQubit(9, PERFECT), PlanQubit(4, NOISY)), seed=5)
        )
        for kind in CircuitKind:
            assert ones(a, kind, 4) == ones(b, kind, 4)
        # Listed as (3, 1), each index comes with the rows of its own streams.
        plan = ExperimentPlan(L=3, S=256, qubits=(PlanQubit(3, NOISY), PlanQubit(1, PERFECT)), seed=5)
        expected = [
            (q.index, tuple(
                tuple(count_stream(5, kind, q.index).binomial(256, p, size=3).tolist())
                for kind, p in zip(CircuitKind, p_one(q.params.f0, q.params.f1, q.params.theta))
            ))
            for q in plan.qubits
        ]
        assert list(run_plan(plan).qubit_counts()) == expected

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
            pooled = sum(ones(archive, kind, 0))
            band = 5 * math.sqrt(p * (1 - p) / total)
            assert abs(pooled / total - p) <= band

    def test_full_protocol_block_count(self):
        plan = make_plan([NOISY], L=203, S=8192, seed=42)
        counts = [k for rows in run_plan(plan).counts for row in rows for k in row]
        assert len(counts) == 609
        assert min(counts) >= 0 and max(counts) <= 8192

    def test_zero_drift_is_stationary(self):
        plan = make_plan([NOISY, PERFECT], L=4, S=256, seed=9)
        assert run_plan(plan, drift=0.0).counts == run_plan(plan).counts

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, 1e308])
    def test_bad_drift_rejected(self, sigma):
        message = rf"^drift SIGMA must be in \[0, 1\], got {re.escape(repr(sigma))}$"
        with pytest.raises(InvalidParameterError, match=message):
            run_plan(make_plan([NOISY]), drift=sigma)
        with pytest.raises(InvalidParameterError, match=message):
            RunArchive(plan=make_plan([NOISY], L=2, S=4), counts=[[[0, 0]]] * 3, drift=sigma)

    @pytest.mark.parametrize(
        "counts,message",
        [
            ([[[0, 0, 0]]] * 3, "shape"),
            ([[[0, 0]]] * 2, "shape"),
            ([[[0, 0]], [[0]], [[0, 0]]], "shape"),
            ([[[0, 0], [0, 0]]] * 3, "shape"),
            ([0, 0, 0], "nested"),
            ([[[5, 5]]] * 3, r"\[0, S=4\]"),
            ([[[-1, -1]]] * 3, r"\[0, S=4\]"),
            # A float or bool count is not truncated to an int.
            ([[[3.7, 2]], [[True, 1]], [[4, 5]]], "int"),
            ([[[3.7, 2]], [[1, 1]], [[0, 0]]], "int"),
            ([[[2.0, 2]], [[1, 1]], [[0, 0]]], "int"),
            ([[[True, 1]], [[1, 1]], [[0, 0]]], "int"),
            ([[["1", 1]], [[1, 1]], [[0, 0]]], "int"),
        ],
        ids=[
            "shape", "two-kinds", "ragged", "two-qubits", "flat", "above-S", "negative",
            "float-and-bool", "float", "integral-float", "bool", "text",
        ],
    )
    def test_archive_rejects_bad_counts(self, counts, message):
        with pytest.raises(InvalidParameterError, match=message):
            RunArchive(plan=make_plan([NOISY], L=2, S=4), counts=counts)


def saved_run(tmp_path, L=2, S=16, seed=1):
    plan = make_plan([NOISY, PERFECT], L=L, S=S, seed=seed)
    return save_archive(run_plan(plan), tmp_path / "run")


def edit_manifest(run, change):
    """Apply ``change`` to the manifest; a change that returns bytes gives
    the file's new bytes instead."""
    path = run / "manifest.json"
    manifest = json.loads(path.read_text())
    raw = change(manifest)
    path.write_bytes(raw if isinstance(raw, bytes) else json.dumps(manifest, indent=2).encode())


def set_count(kind, qubit, experiment, value):
    """The change to the manifest that puts the text ``value`` in place of
    one count of the row of ``kind`` on the qubit at position ``qubit``."""
    return lambda manifest: set_row_cell(manifest["counts"], kind, qubit, experiment, value)


def counts_section(run):
    """The manifest's text from its ``counts`` key to its end."""
    text = (run / "manifest.json").read_text()
    return text[text.index('"counts":') :]


# Digits, a non-ASCII digit, signs, an underscore and a space: every way a
# cell can read as an int without being one as str writes it.
COUNT_ALPHABET = "0139-+_ \u0663"


def round_trips(cell):
    try:
        return str(int(cell)) == cell
    except ValueError:
        return False


class TestArchiveIO:
    def test_round_trip(self, tmp_path):
        archive = run_plan(make_plan([NOISY, PERFECT], L=3, S=100, seed=21))
        out = save_archive(archive, tmp_path / "run")
        loaded = load_archive(out)
        assert loaded.plan == archive.plan
        assert loaded.drift is None
        assert loaded.counts == archive.counts
        assert {type(k) for rows in loaded.counts for row in rows for k in row} == {int}

    def test_run_directory_holds_one_file(self, tmp_path):
        out = saved_run(tmp_path)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_counts_file_format(self, tmp_path):
        plan = ExperimentPlan(L=2, S=13, qubits=(PlanQubit(3, NOISY), PlanQubit(1, PERFECT)), seed=4)
        archive = run_plan(plan)
        out = save_archive(archive, tmp_path / "run")
        raw = (out / "manifest.json").read_bytes()
        assert b"\r" not in raw and raw.endswith(b"}\n")
        counts = json.loads(raw)["counts"]
        # One list per kind, in kind order, of one row per qubit in plan order.
        assert list(counts) == ["spam0", "spam1", "c"]
        assert [[row.split(",") for row in rows] for rows in counts.values()] == [
            [[str(k) for k in ones(archive, kind, q)] for q in (3, 1)] for kind in counts
        ]
        # The counts come last, one row per line of the indented file.
        text = counts_section(out)
        assert text.startswith('"counts": {\n    "spam0": [\n      "')
        assert text.count("\n") == 1 + 3 * (2 + 2) + 2

    def test_counts_cache_matches_blocks(self, tmp_path):
        archive = run_plan(make_plan([NOISY], L=2, S=50, seed=8))
        out = save_archive(archive, tmp_path / "run")
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert {kind: len(rows) for kind, rows in counts.items()} == {"spam0": 1, "spam1": 1, "c": 1}
        for kind, (row,) in counts.items():
            assert tuple(map(int, row.split(","))) == ones(archive, kind, 0)

    def test_manifest_contents(self, tmp_path):
        # What drew the counts, as provenance: numpy's version only when
        # numpy drew them, as it does a drifted plan, and null for the port.
        for drift, numpy_version in ((None, None), (0.05, np.__version__)):
            archive = run_plan(make_plan([NOISY], L=2, S=8, seed=123), drift=drift)
            out = save_archive(archive, tmp_path / f"run-{drift}")
            manifest = json.loads((out / "manifest.json").read_text())
            assert set(manifest) == {"schema", "toolkit_version", "qubits", "plan", "drift", "numpy_version",
                                     "finished_at", "counts"}
            assert manifest["schema"] == "run-manifest/7"
            assert manifest["plan"] == {"L": 2, "S": 8, "seed": 123}
            assert manifest["qubits"] == [{"index": 0, "f0": NOISY.f0, "f1": NOISY.f1, "theta_rad": NOISY.theta}]
            assert manifest["drift"] == drift
            assert manifest["numpy_version"] == numpy_version
            assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", manifest["finished_at"]), manifest

    @pytest.mark.parametrize(
        "drift,sha256",
        [
            (None, "edaed2aaaed27125ecfb08c625a3c5434d775eb94414febd9a72174639a13802"),
            (0.05, "e52bd70bda0fa148534a8644d8139a7c178eb63f77d10095ae60737fae12735b"),
        ],
        ids=["stationary", "drifted"],
    )
    def test_counts_bytes_are_pinned(self, tmp_path, drift, sha256):
        # Every other test compares runs with runs, so only this one sees numpy
        # change the MT19937 streams of Generator.binomial or .normal (NEP 19
        # does not promise to keep them), or the layout of the manifest's
        # counts drift. The text hashed runs from the "counts" key to the end.
        plan = ExperimentPlan(L=5, S=1000, qubits=(PlanQubit(0, NOISY), PlanQubit(1, PERFECT)), seed=2024)
        text = counts_section(save_archive(run_plan(plan, drift=drift), tmp_path / "run"))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256, (
            f"the counts of the pinned plan changed under numpy {np.__version__}: either numpy's "
            f"MT19937-driven binomial/normal streams changed, or the layout of the manifest's counts did:\n{text}"
        )

    def test_drifted_run_reproduces_its_counts(self, tmp_path):
        archive = run_plan(make_plan([NOISY, PERFECT], L=6, S=256, seed=5), drift=0.05)
        out = save_archive(archive, tmp_path / "run")
        loaded = load_archive(out)
        assert loaded.drift == 0.05
        rerun = run_plan(loaded.plan, drift=loaded.drift)
        assert rerun.counts == loaded.counts

    def test_negative_zero_drift_is_drawn_again(self, tmp_path):
        # numpy's normal rejects a scale of -0.0, which a manifest may hold.
        out = save_archive(run_plan(make_plan([NOISY], L=4, S=256, seed=5), drift=0.0), tmp_path / "run")
        edit_manifest(out, lambda m: m.__setitem__("drift", -0.0))
        assert '"drift": -0.0' in (out / "manifest.json").read_text()
        loaded = load_archive(out)
        assert math.copysign(1.0, loaded.drift) == 1.0
        assert run_plan(loaded.plan, drift=loaded.drift).counts == loaded.counts

    def test_missing_block_detected(self, tmp_path):
        out = saved_run(tmp_path)
        edit_manifest(out, lambda m: m["counts"]["spam1"].pop(0))
        with pytest.raises(IncompleteArchiveError) as excinfo:
            load_archive(out)
        assert str(excinfo.value) == (
            f"{out}: manifest.json does not describe a valid run: "
            "manifest: counts: spam1 qubit 1: no row; the list ends after 1"
        )

    def test_truncated_block_detected(self, tmp_path):
        out = saved_run(tmp_path)
        path = out / "manifest.json"
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(IncompleteArchiveError, match="not valid JSON"):
            load_archive(out)

    def test_partial_manifest_detected(self, tmp_path, monkeypatch, capsys):
        # The manifest is the run: simulate removes the previous one first
        # and writes its own once. A seed-8 save that fails, over a complete
        # seed-7 run or over an empty directory, leaves no manifest, so no
        # command reads the seed-7 counts as the run.
        cfg = write_config(tmp_path / "cfg.json", [{"index": 0, "f0": 0.95, "f1": 0.9, "theta_rad": 0.01}],
                           L=3, S=64, seed=7)
        simulate = ["simulate", str(cfg), "--quiet", "--out"]
        assert main([*simulate, str(tmp_path / "seed-7")]) == 0
        for previous in (True, False):
            run = tmp_path / f"previous-{previous}"
            if previous:
                shutil.copytree(tmp_path / "seed-7", run)
            with monkeypatch.context() as patch:
                fail_writing(patch, "manifest.json", 1)
                assert main([*simulate, str(run), "--seed", "8"]) == 3
            assert list(run.iterdir()) == []
            capsys.readouterr()
            assert main(["characterize", str(run), "--quiet"]) == 4
            assert main(["report", str(run), "--quiet"]) == 4
            assert capsys.readouterr().err == f"reprobound: error: {run}: no manifest.json\n" * 2

    def test_manifest_not_json_detected(self, tmp_path):
        out = saved_run(tmp_path)
        (out / "manifest.json").write_text('{"schema": "run-manifest/7", ')
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
            lambda m: m.pop("counts"),
        ],
        ids=["L", "plan", "qubits", "qubit-f0", "S-type", "qubit-type", "drift", "counts"],
    )
    def test_manifest_missing_keys_detected(self, tmp_path, change):
        out = saved_run(tmp_path)
        edit_manifest(out, change)
        with pytest.raises(IncompleteArchiveError) as excinfo:
            load_archive(out)
        assert str(excinfo.value).startswith(f"{out}: manifest.json does not describe a valid run: ")

    def test_old_manifest_schema_rejected(self, tmp_path):
        out = saved_run(tmp_path)
        # /6 kept the counts in counts.csv, /5 wrote the manifest twice,
        # marking it "partial" until the counts were written, /4 drew its
        # counts from Philox streams, /3 wrote one counts.csv row per
        # experiment, /2 per-shot block files.
        for old in ("run-manifest/2", "run-manifest/3", "run-manifest/4", "run-manifest/5", "run-manifest/6"):
            edit_manifest(out, lambda m: m.update(schema=old))
            with pytest.raises(IncompleteArchiveError, match=old) as excinfo:
                load_archive(out)
            assert str(excinfo.value).startswith(f"{out / 'manifest.json'}: schema must be")

    @pytest.mark.parametrize("version", [1.24, True, {}], ids=["number", "bool", "object"])
    def test_numpy_version_must_be_a_string_or_null(self, tmp_path, version):
        out = saved_run(tmp_path)
        edit_manifest(out, lambda m: m.update(numpy_version=version))
        with pytest.raises(IncompleteArchiveError, match="field 'numpy_version' has wrong type") as excinfo:
            load_archive(out)
        assert str(excinfo.value).startswith(f"{out}: manifest.json does not describe a valid run: ")

    @pytest.mark.parametrize(
        "drift,L,edit,expected",
        [
            (None, 2, "1.24.0", "1.24.0"),
            (None, 2, None, None),
            (0.05, 2, None, np.__version__),
            # 3 streams whose counts past the first _STREAM_SETUP_COUNTS of
            # each are more than the port draws.
            (None, sampler.PORT_MAX_COUNTS // 3 + sampler._STREAM_SETUP_COUNTS + 1, None, np.__version__),
        ],
        ids=["edited", "port", "drifted", "above-port-limit"],
    )
    def test_numpy_version_survives_load_and_save(self, tmp_path, drift, L, edit, expected):
        # The manifest says what drew the counts, and saving a loaded run
        # again keeps it rather than deciding it anew.
        plan = make_plan([PERFECT], L=L, S=4)
        run = save_archive(run_plan(plan, drift=drift), tmp_path / "run")
        if edit is not None:
            edit_manifest(run, lambda m: m.update(numpy_version=edit))
        loaded = load_archive(run)
        assert loaded.numpy_version == expected
        again = save_archive(loaded, tmp_path / "again")
        assert json.loads((again / "manifest.json").read_text())["numpy_version"] == expected
        assert json.loads((again / "manifest.json").read_text())["counts"] == json.loads(
            (run / "manifest.json").read_text()
        )["counts"]

    def test_other_numpy_version_loads(self, tmp_path):
        # The provenance field is recorded, not checked.
        out = saved_run(tmp_path)
        edit_manifest(out, lambda m: m.update(numpy_version="1.24.0"))
        assert load_archive(out).counts == run_plan(make_plan([NOISY, PERFECT], L=2, S=16, seed=1)).counts

    @pytest.mark.parametrize(
        "change,message",
        [
            (set_count("spam1", 0, 1, "2.5"), "spam1 qubit 0 experiment 1: count '2.5' is not an integer"),
            (set_count("spam1", 0, 1, "x"), "spam1 qubit 0 experiment 1: count 'x' is not an integer"),
            (set_count("spam1", 0, 1, "+3"), r"spam1 qubit 0 experiment 1: count '\+3' is not an integer"),
            (lambda m: m["counts"]["spam1"].insert(0, m["counts"]["spam1"][0]), "spam1: 3 rows, more than the plan's 2 qubits"),
            (lambda m: m["counts"]["c"].append(m["counts"]["c"][-1]), "c: 3 rows, more than the plan's 2 qubits"),
            (lambda m: m["counts"]["c"].pop(), "c qubit 1: no row; the list ends after 1"),
            # A count outside [0, S] is the archive's rule; it names the row by kind and qubit.
            (set_count("spam0", 1, 1, "-1"), r"spam0 qubit 1 experiment 1: count -1 must be an int in \[0, S=16\]"),
            (set_count("spam0", 1, 0, "17"), r"spam0 qubit 1 experiment 0: count 17 must be an int in \[0, S=16\]"),
            # Rows for another L: S and L are the plan's.
            (lambda m: m["plan"].update(L=3), "spam0 qubit 0: 2 counts, expected L=3"),
            (lambda m: m["counts"]["c"].__setitem__(1, m["counts"]["c"][1] + ",0"), "c qubit 1: 3 counts, expected L=2"),
            (set_count("spam1", 0, 0, "05"), "spam1 qubit 0 experiment 0: count '05' is not an integer"),
            (set_count("spam1", 0, 0, "1_0"), "spam1 qubit 0 experiment 0: count '1_0' is not an integer"),
            (set_count("spam1", 0, 0, "\u0663"), "spam1 qubit 0 experiment 0: count '\u0663' is not an integer"),
            (set_count("spam1", 0, 0, " 3"), "spam1 qubit 0 experiment 0: count ' 3' is not an integer"),
            (lambda m: m["counts"].__setitem__("spam2", m["counts"].pop("spam0")), "counts: missing field 'spam0'"),
            (lambda m: m["counts"]["c"].__setitem__(1, m["counts"]["c"][1].rsplit(",", 1)[0]), "c qubit 1: 1 counts, expected L=2"),
            # A row is read as text, so a quoted cell holding a comma is two cells.
            (set_count("spam1", 0, 1, '"1,2"'), "spam1 qubit 0 experiment 1: count '\"1' is not an integer"),
            (set_count("spam1", 0, 1, '"5"'), "spam1 qubit 0 experiment 1: count '\"5\"' is not an integer"),
            (
                lambda m: json.dumps(m, indent=2).encode().replace(b'"c": [\n      "', b'"c": [\n      "\xff'),
                "not valid JSON: 'utf-8' codec can't decode",
            ),
            # The layout that row strings were chosen over, and no row at all.
            (lambda m: m["counts"]["c"].__setitem__(0, [1, 2]), "c qubit 0: row has wrong type list"),
            (lambda m: m["counts"]["c"].__setitem__(0, None), "c qubit 0: row has wrong type NoneType"),
            (lambda m: m["counts"].__setitem__("spam1", "0,0"), "counts: field 'spam1' has wrong type str"),
            (lambda m: m.__setitem__("counts", []), "field 'counts' has wrong type list"),
            (set_count("spam1", 0, 1, ""), "spam1 qubit 0 experiment 1: count '' is not an integer"),
        ],
        ids=[
            "float", "text", "plus-sign", "duplicate", "extra", "truncated",
            "negative", "above-S", "shots", "extra-cell",
            "leading-zero", "underscore", "unicode-digit", "leading-space", "wrong-kind", "short-row",
            "quoted-comma", "quoted-count", "undecodable",
            "array-row", "null-row", "text-kind", "counts-list", "empty-count",
        ],
    )
    def test_malformed_counts_rejected(self, tmp_path, change, message):
        out = saved_run(tmp_path)
        edit_manifest(out, change)
        with pytest.raises(IncompleteArchiveError, match=message) as excinfo:
            load_archive(out)
        # The bytes of the file are JSON's to check; the rest is the run's.
        assert str(excinfo.value).startswith(
            (f"{out}: manifest.json does not describe a valid run: ", f"{out / 'manifest.json'}: not valid JSON: ")
        )

    @given(cell=st.text(alphabet=COUNT_ALPHABET, max_size=6))
    @example(cell="-0")
    @example(cell="007")
    @example(cell="-12")
    def test_count_text_is_an_int_as_str_writes_it(self, cell):
        assert (re.fullmatch(sampler._INT_TEXT, cell) is not None) == round_trips(cell)

    @given(
        cells=st.lists(st.text(alphabet=COUNT_ALPHABET, max_size=6), min_size=1, max_size=4),
        end=st.sampled_from(["", "\n", "\r\n", ","]),
    )
    @example(cells=["12", "0", "-3"], end="")
    @example(cells=["12", "", "3"], end="")
    @example(cells=["1", "-0"], end="")
    @example(cells=["1", "2"], end="\n")
    def test_row_text_matches_exactly_when_every_count_does(self, cells, end):
        # A row's text, with whatever follows its last count.
        matched = re.fullmatch(sampler._COUNTS_TEXT, ",".join(cells) + end) is not None
        assert matched == (end == "" and all(map(round_trips, cells)))

    @pytest.mark.parametrize("where", [0, 300, 599], ids=["first", "middle", "last"])
    def test_bad_count_is_found_anywhere_in_a_long_row(self, tmp_path, where):
        out = saved_run(tmp_path, L=600)
        edit_manifest(out, set_count("spam1", 1, where, "07"))
        with pytest.raises(IncompleteArchiveError, match=f"spam1 qubit 1 experiment {where}: count '07' is not"):
            load_archive(out)

    def test_long_row_is_read_in_bounded_memory(self, tmp_path):
        # One qubit at L=100,000 and S=64: the counts take about 2.4 MB, and
        # splitting one row's text takes about 6 MB while that row is parsed.
        # Loading peaked at 30 MB when counts.csv's header names were held
        # as a dict, a list and the header line itself.
        plan = ExperimentPlan(L=100_000, S=64, qubits=(PlanQubit(0, NOISY),), seed=1)
        out = save_archive(run_plan(plan), tmp_path / "run")
        tracemalloc.start()
        try:
            load_archive(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_each_row_text_is_dropped_once_parsed(self, tmp_path):
        # 90,000 counts in [257, 8192], each an int object: the archive
        # keeps about 3.6 MB. Holding every row's text, about 450 KB, until
        # the last row is parsed raises the peak above what is kept by as
        # much; dropping each row's text as it is parsed keeps the excess
        # to about one row's split cells.
        plan = make_plan([QubitNoiseParams(0.5, 0.5, 0.0)] * 100, L=300, S=8192)
        out = save_archive(run_plan(plan), tmp_path / "run")
        text = counts_section(out)
        tracemalloc.start()
        try:
            archive = load_archive(out)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert archive.plan == plan
        assert peak - kept < len(text) / 4

    def test_one_match_over_a_long_row_keeps_no_state_per_count(self):
        # An outer repeat that is not possessive keeps about 20 MB of
        # backtracking state over this row.
        row = ",".join(str(l % 8193) for l in range(100_000))
        counts_text = re.compile(sampler._COUNTS_TEXT).fullmatch
        tracemalloc.start()
        try:
            matched = counts_text(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matched is not None
        assert peak < 1e6

    def test_counts_not_utf8_rejected(self, tmp_path):
        out = saved_run(tmp_path)
        path = out / "manifest.json"
        path.write_bytes(path.read_bytes().replace(b'"spam0": [\n      "', b'"spam0": [\n      "\xff\xfe'))
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
        assert ones(run_plan(plan), CircuitKind.SPAM1, 3) == tuple(expected.tolist())

    def test_qubit_counts_do_not_depend_on_which_draw_serves_the_plan(self):
        # The port draws the one-qubit plan and numpy the wide one; a qubit's
        # counts are the same in both plans.
        L, S = 1000, 1000
        small = ExperimentPlan(L=L, S=S, qubits=(PlanQubit(3, NOISY),), seed=17)
        others = sampler.PORT_MAX_COUNTS // (3 * (L - sampler._STREAM_SETUP_COUNTS)) + 1
        qubits = (PlanQubit(3, NOISY), *(PlanQubit(100 + i, PERFECT) for i in range(others)))
        large = ExperimentPlan(L=L, S=S, qubits=qubits, seed=17)
        assert (sampler._draws_with_numpy(small, None), sampler._draws_with_numpy(large, None)) == (False, True)
        port, numpy = run_plan(small), run_plan(large)
        for kind in CircuitKind:
            assert ones(port, kind, 3) == ones(numpy, kind, 3)

    @pytest.mark.parametrize(
        "L,S",
        [(203, 131072), (203, 8192), (101, 64), (7, 1), (5, 2**53 - 1)],
        ids=["narrow-deep", "reference", "wide-shallow", "one-shot", "largest-port-S"],
    )
    def test_port_and_numpy_draw_the_same_plan(self, monkeypatch, L, S):
        params = [QubitNoiseParams(0.95, 0.9, 0.01), NOISY, PERFECT, QubitNoiseParams(0.5, 0.0, -0.3)]
        plan = make_plan(params, L=L, S=S, seed=2**64 - 1)
        assert not sampler._draws_with_numpy(plan, None)
        port = run_plan(plan)
        monkeypatch.setattr(sampler, "PORT_MAX_COUNTS", 0)
        monkeypatch.setattr(sampler, "_STREAM_SETUP_COUNTS", 0)
        assert sampler._draws_with_numpy(plan, None)
        assert run_plan(plan).counts == port.counts

    @pytest.mark.parametrize(
        "S,drift,expected",
        [(8, None, False), (8, 0.0, True), (2**53 - 1, None, False), (2**53, None, True)],
    )
    def test_numpy_draws_drift_and_huge_shot_counts(self, S, drift, expected):
        assert sampler._draws_with_numpy(make_plan([NOISY], L=2, S=S), drift) is expected

    @pytest.mark.parametrize(
        "qubits,L,expected",
        [
            # 170,004 counts, but each stream too short to repay numpy's set-up of it.
            (sampler.PORT_MAX_COUNTS // 6 + 1, 2, False),
            (1, sampler.PORT_MAX_COUNTS // 3 + sampler._STREAM_SETUP_COUNTS, False),
            (1, sampler.PORT_MAX_COUNTS // 3 + sampler._STREAM_SETUP_COUNTS + 1, True),
        ],
        ids=["wide-short", "long-below-limit", "long-past-limit"],
    )
    def test_numpy_draws_long_streams_past_the_port_limit(self, qubits, L, expected):
        assert sampler._draws_with_numpy(make_plan([PERFECT] * qubits, L=L), None) is expected

    def test_drift_follows_the_documented_streams(self):
        # Normals 3l..3l+2 of stream 3, keyed by 0, perturb experiment l of
        # every qubit; f0 and f1 are clipped, then stream (kind, qubit) draws
        # the counts. Stream (id, key) is random.Random(seed + 2**64 * (id + 4 * key)).
        L, S, sigma = 6, 1000, 0.05
        qubits = (PlanQubit(3, NOISY), PlanQubit(1, PERFECT))
        expected = np.empty((3, len(qubits), L), dtype=np.int64)
        perturbations = mt19937_generator(17 + 2**64 * 3).normal(0.0, sigma, (L, 3))
        for i, q in enumerate(qubits):
            p = []
            for df0, df1, dtheta in perturbations:
                f0 = min(1.0, max(0.0, q.params.f0 + df0))
                f1 = min(1.0, max(0.0, q.params.f1 + df1))
                gamma = (f0 - f1) - 2 * math.sin(2 * (q.params.theta + dtheta)) * ((f0 + f1) / 2 - 0.5)
                p.append((1.0 - f0, f1, min(1.0, max(0.0, (1 - gamma) / 2))))
            for k in range(3):
                expected[k, i] = mt19937_generator(17 + 2**64 * (k + 4 * q.index)).binomial(S, [row[k] for row in p])
        drifted = run_plan(ExperimentPlan(L=L, S=S, qubits=qubits, seed=17), drift=sigma).counts
        assert drifted == tuple(tuple(map(tuple, rows)) for rows in expected.tolist())
        # The perfect qubit's f0 clips at 1 in the experiments whose df0 > 0.
        assert [count == 0 for count in drifted[0][1]] == [df0 >= 0 for df0, _, _ in perturbations]

    def test_drift_builds_one_generator_per_run(self, monkeypatch):
        # One count stream per (kind, qubit) and one drift stream per run,
        # whose first 3 L normals perturb the experiments in order.
        calls = []
        mersenne = sampler._mersenne
        monkeypatch.setattr(sampler, "_mersenne", lambda *key: calls.append(key) or mersenne(*key))
        run_plan(make_plan([NOISY, PERFECT, NOISY], L=5), drift=0.05)
        streams = [(7, "drift", 0)] + [(7, kind.value, i) for kind in CircuitKind for i in (0, 1, 2)]
        assert sorted(calls) == sorted(streams)

    def test_drift_of_an_experiment_does_not_depend_on_L(self):
        # The first experiments of a longer run see the same perturbations.
        short = run_plan(make_plan([NOISY, PERFECT], L=3, S=1000), drift=0.05)
        long = run_plan(make_plan([NOISY, PERFECT], L=8, S=1000), drift=0.05)
        assert [[row[:3] for row in rows] for rows in long.counts] == [list(rows) for rows in short.counts]
