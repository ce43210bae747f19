"""Benchmark of the reprobound CLI pipeline, driven the way a user runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-27q --seed 1 --seconds 60 --trace 0

Each pipeline is four separate ``python -m reprobound`` processes,
``simulate -> characterize -> verdict -> report``, run one after another in
the workload's run directory. This script repeats whole pipelines until
``--seconds`` is used up (at least three) and reports medians, except for
the two timed metrics, which are means scaled to a nominal speed of the
machine (below). It runs on one thread, never imports numpy (so the
children's ``ru_maxrss`` does not depend on this process's size) and takes
each child's peak RSS and CPU time from ``os.wait4``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced pipelines with pipelines whose commands run under
``perfbench/traced.py``, which wraps each layer's public functions in
spans, and prints the per-layer metrics. See ``perfbench/README.md``.

The two timed metrics are scaled by a reference task that is not the
program's code (a fresh interpreter that imports numpy), timed between the
set-up samples. ``pipeline_cpu_s`` is the run's mean CPU time (user +
system, from ``os.wait4``) of the four commands multiplied by
``REFERENCE_CPU_S / r``, ``r`` the reference's mean CPU time; ``setup_s`` is
the mean set-up wall time multiplied by ``REFERENCE_S / r``, ``r`` the
reference's mean wall time. The speed of the shared machine this was built
on drifts by a third over minutes, and the commands and the reference drift
together, so the scaled times repeat more closely than the raw ones. CPU
time rather than wall time, because ``simulate``'s wait for the disk
swings by seconds between identical runs and the reference does not
follow it. The table prints the raw times too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
child process; it fails when its exit code is not 0 or when a check of its
output (``perfbench/check.py``, plus byte-identical outputs across the
run's same-seed pipelines) fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# One run directory per workload, kept between pipelines and between runs:
# simulate writes over its block files instead of creating new ones. On
# ext4, deleting tens of thousands of files makes new inode allocation
# slow for about half a minute afterwards (wide-shallow simulate: 4.5 s
# into a fresh directory, 12-19 s right after deleting the previous one),
# which would measure the benchmark's own clean-up, not the program. Every
# file that simulate did not write is deleted before characterize runs
# (``sweep_stale``), so nothing an earlier pipeline, seed or commit left
# there is read or counted.
RUNS = WORK / "runs"


@dataclass(frozen=True)
class Workload:
    qubits: int
    L: int
    S: int

    @property
    def blocks(self) -> int:
        return 3 * self.qubits * self.L

    @property
    def shots(self) -> int:
        return self.blocks * self.S


# Why each workload: perfbench/README.md. BENCHMARK.json runs pipeline-27q
# and narrow-deep only: two workloads leave time for 60-second runs, and
# shorter runs were too noisy on a 2-core shared machine. wide-shallow stays
# here to be run by hand.
WORKLOADS = {
    "pipeline-27q": Workload(27, 203, 8192),
    "wide-shallow": Workload(127, 101, 64),
    "narrow-deep": Workload(4, 203, 131072),
}

COMMANDS = ("simulate", "characterize", "verdict", "report")

# Set-up and reference samples are spread over the run, between pipelines,
# because the speed of this class of shared 2-core machine drifts by tens of
# percent within seconds.
SETUP_PER_PIPELINE = 3
# The reference task: fixed work outside the program, of the same kind as
# set-up (a process start and imports from disk), which drifts with the
# pipeline on the machine this was built on (README, Machine noise).
REFERENCE_CODE = "import numpy"
# Nominal wall and CPU seconds of the reference task; roughly its typical
# times there.
REFERENCE_S = 0.2
REFERENCE_CPU_S = 0.3
MIN_PIPELINES = 3
MIN_TRACED_PAIRS = 1

END_TO_END = {
    "pipeline_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_dir_bytes": "bytes",
    "run_dir_files": "count",
    "success_rate": "ratio",
}

# Each command's wall time is printed by every run but bounded nowhere: on
# the 2-core machine the benchmark was built on, the run-to-run spread of
# the shorter commands was 0.15-0.4 of the median, above the largest
# bound a metric may have. The traced run reports them as per-layer metrics.
COMMAND_TIMES = {f"{c}_s": "s" for c in COMMANDS}
# Unscaled samples behind pipeline_cpu_s and setup_s, printed in the table only.
RAW_TIMES = {
    "raw.pipeline_wall_s": "s",
    "raw.pipeline_cpu_s": "s",
    "raw.setup_s": "s",
    "raw.reference_s": "s",
    "raw.reference_cpu_s": "s",
}

PER_LAYER = {
    **COMMAND_TIMES,
    "sampler.run_plan.s": "s",
    "sampler.run_plan.ns_per_shot": "ns/shot",
    "sampler.run_plan.us_per_block": "us/block",
    "sampler.run_plan.maxrss_mb": "MB",
    "sampler.run_plan.threads2_s": "s",
    "sampler.block_stream.s": "s",
    "sampler.block_stream.calls": "count",
    "sampler.save_archive.s": "s",
    "sampler.save_archive.files_written": "count",
    "sampler.save_archive.bytes_written": "bytes",
    "sampler.load_archive.s": "s",
    "sampler.load_archive.files_read": "count",
    "sampler.load_archive.bytes_read": "bytes",
    "sampler.load_archive.maxrss_mb": "MB",
    "estimator.characterize.s": "s",
    "estimator.characterize.us_per_block": "us/block",
    "estimator.write_characterization_csv.s": "s",
    "estimator.read_characterization_csv.s": "s",
    "bounds.verdict.s": "s",
    "bounds.verdict.calls": "count",
    "bounds.write_verdicts_csv.s": "s",
    "bounds.read_verdicts_csv.s": "s",
    "bounds.lemma_a1_check.s": "s",
    "bounds.lemma_a1_check.pairs": "count",
    "cli.load_device_config.s": "s",
    "cli.cmd_simulate.self_s": "s",
    "cli.cmd_characterize.self_s": "s",
    "cli.cmd_verdict.self_s": "s",
    "cli.cmd_report.self_s": "s",
    "process.import_s": "s",
    "tracing.overhead_s": "s",
}


class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        """Count one operation; it failed if there are problems."""
        self.attempted += 1
        return self.fail(what, problems)

    def fail(self, what: str, problems: list[str]) -> bool:
        """Mark an operation already counted as failed if there are problems."""
        if problems:
            self.failed += 1
            self.reasons += [f"{what}: {p}" for p in problems]
        return not problems


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    cpu_s: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Thread count must come from the command line only.
    env.pop("REPRO_BOUND_THREADS", None)
    return env


def run_child(argv: list, log: Path) -> Child:
    """Run one child to completion; wall time, and peak RSS and CPU time
    via os.wait4."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(code, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def run_helper(script: str, *args) -> subprocess.CompletedProcess:
    """Run one of the benchmark's own helper scripts, capturing its output."""
    argv = [sys.executable, str(HERE / script), *map(str, args)]
    return subprocess.run(argv, env=child_env(), capture_output=True, text=True)


def _exit_problems(child: Child, log: Path) -> list[str]:
    if child.code == 0:
        return []
    tail = log.read_text(errors="replace").strip().splitlines()[-3:]
    return [f"exit code {child.code}: " + " | ".join(tail)]


def cli_argv(command: str, config: Path, run_dir: Path) -> list:
    return {
        "simulate": ["simulate", config, "--out", run_dir],
        "characterize": ["characterize", run_dir],
        "verdict": ["verdict", run_dir / "characterization.csv", "--delta-from-observed"],
        "report": ["report", run_dir],
    }[command] + ["--quiet"]


def product_digests(run_dir: Path) -> dict[str, str]:
    """Digest of each command's user-facing outputs (not the manifest,
    whose timestamps are provenance only)."""
    outputs = {
        "characterize": [run_dir / "characterization.csv"],
        "verdict": [run_dir / "verdicts.csv"],
        "report": sorted(p for p in (run_dir / "report").rglob("*") if p.is_file()),
    }
    digests = {}
    for command, paths in outputs.items():
        h = hashlib.sha256()
        for path in paths:
            h.update(str(path.relative_to(run_dir)).encode() + b"\0")
            h.update(path.read_bytes() if path.is_file() else b"<missing>")
        digests[command] = h.hexdigest()
    return digests


def fs_now_ns(stamp: Path) -> int:
    """The file system's current time: the mtime of a freshly touched file."""
    stamp.touch()
    return stamp.stat().st_mtime_ns


def sweep_stale(path: Path, since_ns: int) -> int:
    """Delete every file under a directory last written before ``since_ns``;
    returns how many."""
    stale = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            file = os.path.join(dirpath, name)
            if os.stat(file).st_mtime_ns < since_ns:
                os.unlink(file)
                stale += 1
    return stale


def tree_size(path: Path) -> tuple[int, int]:
    """(files, bytes) under a directory, bytes as the sum of st_size."""
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.stat(os.path.join(dirpath, name)).st_size
    return files, size


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.tally = Tally()
        self.config = work / "device.json"
        self.run_dir = RUNS / workload
        self.first_digests: dict[str, str] | None = None
        self.runs = 0

    # set-up -----------------------------------------------------------------

    def time_setup(self, count: int) -> dict[str, list]:
        """Run ``count`` fresh interpreters that only ``import reprobound.cli``
        (the fixed cost every command pays), each after one reference task.
        Returns the children of each kind that succeeded."""
        log = self.work / "setup.log"
        children = {"setup": [], "reference": []}
        for _ in range(count):
            for what, code in (("reference", REFERENCE_CODE), ("setup", "import reprobound.cli")):
                child = run_child([sys.executable, "-c", code], log)
                if self.tally.record(what, _exit_problems(child, log)):
                    children[what].append(child)
        return children

    def prepare(self) -> bool:
        """Write the device config for the seed, then warm up."""
        w = self.workload
        proc = run_helper("config.py", self.config, w.qubits, w.L, w.S, self.seed)
        problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"] if proc.returncode else []
        return self.tally.record("config", problems) and self.warm_up()

    def warm_up(self) -> bool:
        """Untimed: one set-up, which writes the bytecode cache, and the first
        time this checkout runs the workload, one simulate that creates its
        run directory."""
        self.time_setup(1)
        if self.run_dir.is_dir():
            return True
        log = self.work / "warm-up.log"
        child = run_child([sys.executable, "-m", "reprobound"] + cli_argv("simulate", self.config, self.run_dir), log)
        return self.tally.record("warm-up simulate", _exit_problems(child, log))

    # one pipeline -------------------------------------------------------------

    def pipeline(self, traced: bool) -> dict | None:
        """Run the four commands in the workload's run directory and check them.

        Returns per-command children, run-directory size and (traced) the
        per-process span files, or None if any operation failed.
        """
        self.runs += 1
        run_dir = self.run_dir
        children: dict[str, Child] = {}
        spans: list[Path] = []
        ok = True
        for command in COMMANDS:
            if not ok:
                self.tally.record(command, ["skipped after an earlier failure"])
                continue
            if command == "simulate":
                since_ns = fs_now_ns(self.work / "simulate.stamp")
            log = self.work / f"{command}.log"
            prefix = [sys.executable, "-m", "reprobound"]
            if traced:
                spans.append(self.work / f"spans{self.runs}_{command}.json")
                prefix = [sys.executable, HERE / "traced.py", spans[-1]]
            child = run_child(prefix + cli_argv(command, self.config, run_dir), log)
            children[command] = child
            ok = self.tally.record(command, _exit_problems(child, log))
            if ok and command == "simulate":
                # No output of an earlier pipeline, seed or commit may stand
                # in for one this simulate did not write.
                stale = sweep_stale(run_dir, since_ns)
                if self.runs == 1:
                    print(f"perfbench: deleted {stale} files simulate did not write", file=sys.stderr)
        if not ok:
            return None
        files, size = tree_size(run_dir)
        ok = self.check_outputs(run_dir)
        return {"children": children, "files": files, "bytes": size, "spans": spans} if ok else None

    def check_outputs(self, run_dir: Path) -> bool:
        """Full checks on the first pipeline; later ones must match it byte
        for byte (same seed, same commit)."""
        digests = product_digests(run_dir)
        if self.first_digests is None:
            self.first_digests = digests
            proc = run_helper("check.py", self.config, run_dir)
            try:
                problems = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                reason = f"check.py exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
                problems = {command: [reason] for command in COMMANDS[1:]}
        else:
            problems = {
                command: [] if digests[command] == self.first_digests[command]
                else ["outputs differ from the first pipeline of this run"]
                for command in COMMANDS[1:]
            }
        # Each command was counted when it ran and exited 0; a failed check
        # turns that operation into a failure.
        return all([self.tally.fail(f"{c} output", found) for c, found in problems.items()])

    def timed_pipeline(self) -> dict | None:
        """Set-up and reference samples, then one untraced pipeline."""
        setup = self.time_setup(SETUP_PER_PIPELINE)
        result = self.pipeline(traced=False)
        return result and dict(result, **setup)

    def traced_pair(self) -> tuple[dict, dict] | None:
        """One untraced pipeline, for the command times, and one traced."""
        untraced = self.pipeline(traced=False)
        traced = self.pipeline(traced=True) if untraced else None
        return (untraced, traced) if traced else None

    def threads2(self) -> list[Path]:
        """Traced ``simulate --threads 2``; its span file, if it succeeded."""
        spans, log = self.work / "threads2.json", self.work / "threads2.log"
        argv = [sys.executable, HERE / "traced.py", spans] + cli_argv("simulate", self.config, self.run_dir)
        child = run_child(argv + ["--threads", "2"], log)
        return [spans] if self.tally.record("simulate --threads 2", _exit_problems(child, log)) else []

    def repeat(self, deadline: float, minimum: int, step) -> list:
        """Call ``step()`` at least ``minimum`` times, then while the longest
        step so far still fits before ``deadline``; stop at a failure."""
        results, longest = [], 0.0
        while True:
            start = time.perf_counter()
            result = step()
            if result is None:
                break
            results.append(result)
            longest = max(longest, time.perf_counter() - start)
            if len(results) >= minimum and time.perf_counter() + longest > deadline:
                break
        return results


# ---------------------------------------------------------------------------
# metrics


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(pipelines: list[dict], tally: Tally) -> dict[str, list[float]]:
    """Samples of each end-to-end metric, of each command's wall time and of
    the raw times behind the scaled ones."""
    samples: dict[str, list[float]] = {name: [] for name in {**END_TO_END, **RAW_TIMES}}
    samples.update(command_times(pipelines))
    for p in pipelines:
        children = p["children"].values()
        samples["raw.pipeline_wall_s"].append(sum(c.wall_s for c in children))
        samples["raw.pipeline_cpu_s"].append(sum(c.cpu_s for c in children))
        samples["peak_rss_mb"].append(max(c.maxrss_mb for c in children))
        samples["run_dir_bytes"].append(p["bytes"])
        samples["run_dir_files"].append(p["files"])
        samples["raw.setup_s"] += [c.wall_s for c in p["setup"]]
        samples["raw.reference_s"] += [c.wall_s for c in p["reference"]]
        samples["raw.reference_cpu_s"] += [c.cpu_s for c in p["reference"]]
    # Ratios of means, not of medians: both means cover the same stretch of
    # the run, so drift within the run cancels too (README, Machine noise).
    mean = statistics.fmean
    if samples["raw.reference_s"] and samples["raw.setup_s"] and pipelines:
        samples["pipeline_cpu_s"] = [
            mean(samples["raw.pipeline_cpu_s"]) * REFERENCE_CPU_S / mean(samples["raw.reference_cpu_s"])
        ]
        samples["setup_s"] = [mean(samples["raw.setup_s"]) * REFERENCE_S / mean(samples["raw.reference_s"])]
    samples["success_rate"] = [1.0 - tally.failed / max(1, tally.attempted)]
    return samples


def command_times(pipelines: list[dict]) -> dict[str, list[float]]:
    """Wall time of each command's process, per pipeline."""
    return {f"{c}_s": [p["children"][c].wall_s for p in pipelines] for c in COMMANDS}


SPAN_FIELDS = {"name", "parent", "id", "start", "end", "overhead_s"}


def combine(key: str, a: float, b: float) -> float:
    """Add up a counter over spans and processes; peak RSS takes the maximum."""
    return max(a, b) if key == "maxrss_mb" else a + b


def span_summary(path: Path) -> tuple[float, float, dict[str, dict[str, float]]]:
    """(import time, the tracer's own time, per span name: total seconds,
    self seconds, calls and summed or maximal counters) for one traced
    process."""
    doc = json.loads(path.read_text())
    spans = doc["spans"]
    overhead_s = doc["overhead_s"] + sum(span["overhead_s"] for span in spans)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = span["end"] - span["start"]
        entry["s"] += duration
        entry["self_s"] += duration - child_time[span["id"]]
        entry["calls"] += 1
        for key in span.keys() - SPAN_FIELDS:
            entry[key] = combine(key, entry.get(key, 0), span[key])
    return doc["import_s"], overhead_s, out


# Per-layer metrics not summed from a traced pipeline's spans.
NOT_FROM_SPANS = {"process.import_s", "sampler.run_plan.threads2_s", "tracing.overhead_s", *COMMAND_TIMES}


def per_layer(
    workload: Workload, pairs: list[tuple[dict, dict]], threads2: list[Path]
) -> dict[str, list[float]]:
    """Per-layer samples, one per traced pipeline: each layer's spans summed
    over the pipeline's four processes (peak RSS: the maximum). Command
    times come from the untraced pipelines."""
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    samples.update(command_times([untraced for untraced, _ in pairs]))
    for _, traced in pairs:
        layers: dict[str, dict[str, float]] = {}
        overhead_s = 0.0
        for path in traced["spans"]:
            import_s, tracer_s, summary = span_summary(path)
            samples["process.import_s"].append(import_s)
            overhead_s += tracer_s
            for name, entry in summary.items():
                total = layers.setdefault(name, {})
                for key, value in entry.items():
                    total[key] = combine(key, total.get(key, 0), value)
        run_plan_s = layers.get("sampler.run_plan", {}).get("s", 0.0)
        characterize_s = layers.get("estimator.characterize", {}).get("s", 0.0)
        derived = {
            "sampler.run_plan.ns_per_shot": run_plan_s / workload.shots * 1e9,
            "sampler.run_plan.us_per_block": run_plan_s / workload.blocks * 1e6,
            "estimator.characterize.us_per_block": characterize_s / workload.blocks * 1e6,
        }
        for metric in PER_LAYER:
            layer, _, key = metric.rpartition(".")
            if metric in derived:
                samples[metric].append(derived[metric])
            elif metric not in NOT_FROM_SPANS:
                samples[metric].append(layers.get(layer, {}).get(key, 0.0))
        samples["tracing.overhead_s"].append(overhead_s)
    samples["sampler.run_plan.threads2_s"] = [
        span_summary(path)[2].get("sampler.run_plan", {}).get("s", 0.0) for path in threads2
    ]
    return samples


def report(samples: dict[str, list[float]], units: dict[str, str], tally: Tally, extra: dict[str, str]) -> dict:
    """Print a table of the metrics in ``units`` and ``extra``; return the
    medians of ``units``."""
    metrics = {}
    print(f"{'metric':44} {'value':>14} {'unit':8} {'n':>3} {'min':>14} {'max':>14}")
    for name, unit in {**units, **extra}.items():
        values = samples.get(name, [])
        value = median(values)
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
        if values:
            print(f"{name:44} {value:14.6g} {unit:8} {len(values):3d} {min(values):14.6g} {max(values):14.6g}")
            print(f"{name}: {' '.join(f'{v:.6g}' for v in values)}", file=sys.stderr)
        else:
            print(f"{name:44} {'-':>14} {unit:8}   0")
    rate = tally.failed / max(1, tally.attempted)
    print(f"error_rate = {tally.failed}/{tally.attempted} operations = {rate:.6g} ratio")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "reprobound" / "cli.py").is_file():
        print(f"perfbench: no reprobound sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + args.seconds
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        if args.trace:
            units, extra = PER_LAYER, {}
            samples = {}
            if bench.prepare():
                threads2 = bench.threads2()
                pairs = bench.repeat(deadline, MIN_TRACED_PAIRS, bench.traced_pair)
                samples = per_layer(bench.workload, pairs, threads2)
        else:
            units, extra = END_TO_END, {**COMMAND_TIMES, **RAW_TIMES}
            pipelines = []
            if bench.prepare():
                pipelines = bench.repeat(deadline, MIN_PIPELINES, bench.timed_pipeline)
            samples = end_to_end(pipelines, bench.tally)
        metrics = report(samples, units, bench.tally, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = bench.tally
    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
