"""Command-line front end: parses arguments, runs each subcommand and maps
errors onto exit codes. Every file is written and read through ``artifacts``.

Subcommands: simulate, characterize, verdict, import-calibration,
plan-samples, report. Global flags ``--seed``, ``--out``, ``--quiet`` may be
given before or after the subcommand.

Exit codes are stable: 0 success, 2 input error, 3 I/O failure, 4 incomplete
run artifacts, 5 tolerance outside the bound's validity regime.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import Counter
from pathlib import Path

from . import bounds, estimator
from .artifacts import field, g17, read_json, records, write_csv, write_json
from ._version import __version__
from .errors import (
    ConfigError,
    IncompleteArchiveError,
    OutOfRegimeError,
    ReproBoundError,
)
from .sampler import ExperimentPlan, load_archive, plan_from_doc, run_plan, save_archive

DEVICE_CONFIG_SCHEMA = "device-config/1"
SNAPSHOT_SCHEMA = "calibration-snapshot/1"
NORMALIZED_SCHEMA = "calibration-normalized/1"

# What `report` writes under its output directory, in the order it writes them.
REPORT_FILES = (
    "table1.csv",
    "fig_theta.csv",
    "fig_hellinger.csv",
    "fig_asymmetry.csv",
    "fig_gamma.csv",
    "fig_scatter.csv",
    "lemma_report.json",
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_INCOMPLETE = 4
EXIT_REGIME = 5


# ---------------------------------------------------------------------------
# config and snapshot handling


def load_device_config(path: str | Path) -> tuple[str, ExperimentPlan]:
    """Parse and validate a device config; returns (name, plan)."""
    doc = read_json(path, DEVICE_CONFIG_SCHEMA)
    name = field(doc, str(path), "name", str)
    plan = plan_from_doc(doc, str(path))
    indices = sorted(plan.qubit_indices)
    if indices != list(range(len(indices))):
        raise ConfigError(f"{path}: qubit indices must be unique and contiguous from 0, got {indices}")
    return name, plan


def _theta_from_gate_error(loc: str, entry: dict) -> float:
    value = field(entry, loc, "value", (int, float))
    unit = field(entry, loc, "unit", str)
    if unit == "rad":
        return float(value)
    if unit == "deg":
        return math.radians(value)
    if unit == "infidelity":
        # Average gate infidelity of a rotation-by-theta error is
        # (2/3)*sin(theta)^2, so theta = arcsin(sqrt(3r/2)).
        r = float(value)
        if not 0.0 <= r <= 2.0 / 3.0:
            raise ConfigError(f"{loc}: infidelity must be in [0, 2/3], got {r!r}")
        return math.asin(math.sqrt(1.5 * r))
    raise ConfigError(f"{loc}: unknown gate error unit {unit!r} (use rad, deg, or infidelity)")


def _fidelities(q: dict, loc: str, index: int) -> tuple[float, float]:
    """A calibration qubit's (f0, f1); ConfigError naming the qubit unless
    each is a number in [0, 1]."""
    f0, f1 = (float(field(q, loc, name, (int, float))) for name in ("f0", "f1"))
    for name, value in (("f0", f0), ("f1", f1)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{loc}: qubit {index}: {name}={value!r} outside [0, 1]")
    return f0, f1


def normalize_snapshot(path: str | Path) -> dict:
    """Validate a calibration snapshot and normalize angles to radians.

    A qubit may give the gate angle directly (``theta_rad``) or as a tagged
    ``gate_error`` object with an explicit unit; a missing angle is accepted
    and flagged, never guessed.
    """
    doc = read_json(path, SNAPSHOT_SCHEMA)
    where = str(path)
    source = field(doc, where, "source", str)
    captured_at = field(doc, where, "captured_at", str)

    normalized = []
    flags = []
    for loc, q in records(doc, where, "qubits"):
        index = field(q, loc, "index", int)
        f0, f1 = _fidelities(q, loc, index)
        if "theta_rad" in q:
            theta = float(field(q, loc, "theta_rad", (int, float)))
        elif "gate_error" in q:
            theta = _theta_from_gate_error(f"{loc}: gate_error", field(q, loc, "gate_error", dict))
        else:
            theta = None
            flags.append(f"qubit {index}: gate angle missing; verdict will need --theta")
        normalized.append({"index": index, "f0": f0, "f1": f1, "theta_rad": theta})

    indices = [q["index"] for q in normalized]
    if len(set(indices)) != len(indices):
        raise ConfigError(f"{where}: duplicate qubit indices {indices}")

    return {
        "schema": NORMALIZED_SCHEMA,
        "source": source,
        "captured_at": captured_at,
        "qubits": sorted(normalized, key=lambda q: q["index"]),
        "warnings": flags,
    }


# ---------------------------------------------------------------------------
# verdict inputs: characterization CSV or normalized calibration JSON


def _verdict_rows(path: Path) -> list[dict]:
    """Rows of {qubit, eps, f, theta (may be None), d_mean (may be None)};
    ConfigError if a qubit appears twice."""
    rows = []
    if path.suffix == ".json":
        for loc, q in records(read_json(path, NORMALIZED_SCHEMA), str(path), "qubits"):
            index = field(q, loc, "index", int)
            f0, f1 = _fidelities(q, loc, index)
            rows.append(
                {
                    "qubit": index,
                    "eps": f0 - f1,
                    "f": (f0 + f1) / 2.0,
                    "theta": field(q, loc, "theta_rad", (int, float, type(None))),
                    "d_mean": None,
                }
            )
    else:
        for e in estimator.read_characterization_csv(path):
            rows.append(
                {
                    "qubit": e.qubit,
                    "eps": e.eps_mean,
                    "f": e.f_mean,
                    "theta": None if math.isnan(e.theta_hat) else e.theta_hat,
                    "d_mean": e.d_mean,
                }
            )
    repeated = [q for q, n in Counter(row["qubit"] for row in rows).items() if n > 1]
    if repeated:
        raise ConfigError(f"{path}: qubit {repeated[0]} appears more than once")
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_simulate(args) -> int:
    if args.out is None:
        raise ConfigError("simulate needs --out RUN_DIR")
    if args.drift is not None and not 0.0 <= args.drift <= 1.0:
        raise ConfigError(f"--drift SIGMA must be a finite number in [0, 1], got {args.drift!r}")
    name, plan = load_device_config(args.config)
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    archive = run_plan(plan, drift=args.drift)
    # Files derived from the directory's earlier counts no longer describe it.
    for stale in ("characterization.csv", "verdicts.csv", *(f"report/{name}" for name in REPORT_FILES)):
        (Path(args.out) / stale).unlink(missing_ok=True)
    out = save_archive(archive, args.out)
    _say(args, f"{name}: wrote the counts of {archive.counts.size} experiments to {out}")
    return EXIT_OK


def cmd_characterize(args) -> int:
    run_dir = Path(args.run_dir)
    archive = load_archive(run_dir)
    estimates = estimator.characterize(archive)
    out = Path(args.out) if args.out else run_dir / "characterization.csv"
    estimator.write_characterization_csv(estimates, out)
    flagged = sum(1 for e in estimates if e.warnings)
    _say(args, f"characterized {len(estimates)} qubit(s) -> {out}" + (f" ({flagged} flagged)" if flagged else ""))
    return EXIT_OK


def cmd_verdict(args) -> int:
    source = Path(args.source)
    rows = _verdict_rows(source)
    results = []
    for row in sorted(rows, key=lambda r: r["qubit"]):
        theta = row["theta"]
        if theta is None:
            if args.theta is None:
                raise ConfigError(
                    f"qubit {row['qubit']}: no gate angle available; pass --theta RADIANS"
                )
            theta = args.theta
        if args.delta_from_observed:
            if row["d_mean"] is None:
                raise ConfigError(
                    "--delta-from-observed needs characterization input with observed distances"
                )
            delta = row["d_mean"]
        else:
            delta = args.delta
        results.append((row["qubit"], bounds.verdict(args.n, delta, row["eps"], theta, row["f"])))

    out = Path(args.out) if args.out else source.parent / "verdicts.csv"
    bounds.write_verdicts_csv(results, out)
    ok = sum(1 for _, v in results if v.reproducible)
    _say(args, f"verdicts -> {out}: {ok}/{len(results)} reproducible")
    return EXIT_OK


def cmd_import_calibration(args) -> int:
    snapshot = Path(args.snapshot)
    normalized = normalize_snapshot(snapshot)
    out = Path(args.out) if args.out else snapshot.with_suffix(".normalized.json")
    write_json(out, normalized)
    _say(args, f"normalized {len(normalized['qubits'])} qubit(s) -> {out}")
    for flag in normalized["warnings"]:
        _say(args, f"  note: {flag}")
    return EXIT_OK


def cmd_plan_samples(args) -> int:
    if not 0.0 < args.confidence < 1.0:
        raise ConfigError(f"--confidence must be in (0, 1), got {args.confidence!r}")
    plan = bounds.plan_samples(args.p, args.precision, 1.0 - args.confidence)
    print(f"T = {plan.T}")
    print(f"z = {g17(plan.z)}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    archive = load_archive(run_dir)
    char_path, verdicts_path = run_dir / "characterization.csv", run_dir / "verdicts.csv"
    missing = tuple(path.name for path in (char_path, verdicts_path) if not path.is_file())
    if missing:
        raise IncompleteArchiveError(
            f"{run_dir}: run characterize and verdict first", missing=missing
        )
    estimates = estimator.read_characterization_csv(char_path)
    verdicts = bounds.read_verdicts_csv(verdicts_path)
    plan = archive.plan
    char_qubits = sorted(e.qubit for e in estimates)
    # Each artifact must describe the run it sits in: (file, what, found, expected).
    for path, what, found, expected in (
        (char_path, "qubits", char_qubits, sorted(plan.qubit_indices)),
        (char_path, "(L, S)", sorted({(e.L, e.S) for e in estimates}), [(plan.L, plan.S)]),
        (verdicts_path, "qubits", sorted(q for q, _ in verdicts), char_qubits),
    ):
        if found != expected:
            raise IncompleteArchiveError(
                f"{path}: {what} {found} do not match {expected} of the run's earlier stages; "
                "re-run characterize and verdict",
                missing=(path.name,),
            )
    out = Path(args.out) if args.out else run_dir / "report"
    out.mkdir(parents=True, exist_ok=True)
    table1, fig_theta, fig_hellinger, fig_asymmetry, fig_gamma, fig_scatter, lemma_report = (
        out / name for name in REPORT_FILES
    )

    write_csv(
        table1,
        ["register", "gamma_max", "gamma_D"],
        [[q, g17(v.gamma_max), g17(v.gamma_D)] for q, v in verdicts],
    )

    finite_thetas = [abs(e.theta_hat_deg) for e in estimates if not math.isnan(e.theta_hat)]
    theta_mean = sum(finite_thetas) / len(finite_thetas) if finite_thetas else math.nan
    write_csv(
        fig_theta,
        ["qubit", "theta_abs_deg", "register_mean_deg"],
        [[e.qubit, g17(abs(e.theta_hat_deg)), g17(theta_mean)] for e in estimates],
    )

    write_csv(
        fig_hellinger,
        ["qubit", "d_mean", "d_sigma"],
        [[e.qubit, g17(e.d_mean), g17(e.d_sigma)] for e in estimates],
    )

    write_csv(
        fig_asymmetry,
        ["qubit", "eps_mean", "eps_sigma"],
        [[e.qubit, g17(e.eps_mean), g17(e.eps_sigma)] for e in estimates],
    )

    gammas = {q: v.gamma_D for q, v in verdicts}
    gamma_mean = sum(gammas.values()) / len(gammas)
    write_csv(
        fig_gamma,
        ["qubit", "gamma_D", "register_mean"],
        [[q, g17(gd), g17(gamma_mean)] for q, gd in sorted(gammas.items())],
    )

    scatter_rows = []
    for i in sorted(range(len(plan.qubits)), key=lambda i: plan.qubits[i].index):
        est = estimator.per_experiment(archive.counts[:, i], plan.S)
        scatter_rows += [
            [plan.qubits[i].index, l, g17(eps), g17(d)]
            for l, (eps, d) in enumerate(zip(est.eps.tolist(), est.d.tolist()))
        ]
    write_csv(fig_scatter, ["qubit", "experiment", "eps", "hellinger"], scatter_rows)

    report = bounds.lemma_a1_check(*bounds.default_lemma_grids())
    bounds.write_lemma_report(report, lemma_report)

    _say(args, f"report bundle -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override the config seed")
    parser.add_argument("--out", default=argparse.SUPPRESS, help="output file or directory")
    parser.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS, help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprobound",
        description="Simulate, characterize, and bound the reproducibility of noisy single-qubit test circuits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("--quiet", action="store_true", default=False, help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a synthetic device config into a run directory")
    p.add_argument("config", help="device config JSON")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored: sampling runs on one thread")
    p.add_argument("--drift", type=float, default=None, metavar="SIGMA",
                   help="exploratory common-mode drift, SIGMA in [0, 1]: experiment l adds one "
                        "N(0, SIGMA) draw each to f0, f1 and theta, shared by every qubit")
    _add_shared(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("characterize", help="estimate noise parameters from a run directory")
    p.add_argument("run_dir")
    _add_shared(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("verdict", help="apply the reproducibility bound per qubit")
    p.add_argument("source", help="characterization.csv or normalized calibration JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=float, default=None, help="tolerance on the Hellinger distance")
    group.add_argument("--delta-from-observed", action="store_true",
                       help="use each qubit's observed mean distance as its tolerance")
    p.add_argument("--n", type=int, default=1, help="register size for the bound (default 1)")
    p.add_argument("--theta", type=float, default=None,
                   help="gate angle override (radians) for inputs without one")
    _add_shared(p)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("import-calibration", help="normalize an external calibration snapshot")
    p.add_argument("snapshot", help="calibration snapshot JSON")
    _add_shared(p)
    p.set_defaults(func=cmd_import_calibration)

    p = sub.add_parser("plan-samples", help="shots needed to estimate an outcome probability")
    p.add_argument("--p", type=float, required=True, help="target outcome probability")
    p.add_argument("--precision", type=float, required=True, help="relative precision")
    p.add_argument("--confidence", type=float, required=True, help="confidence level, e.g. 0.95")
    _add_shared(p)
    p.set_defaults(func=cmd_plan_samples)

    p = sub.add_parser("report", help="emit plot-ready CSVs and the equivalence report")
    p.add_argument("run_dir")
    _add_shared(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutOfRegimeError as exc:
        _fail(f"{exc} (largest valid tolerance: {g17(exc.delta_star)})")
        return EXIT_REGIME
    except IncompleteArchiveError as exc:
        _fail(str(exc))
        for name in exc.missing[:20]:
            print(f"  missing: {name}", file=sys.stderr)
        if len(exc.missing) > 20:
            print(f"  ... and {len(exc.missing) - 20} more", file=sys.stderr)
        return EXIT_INCOMPLETE
    except OSError as exc:
        _fail(str(exc))
        return EXIT_IO
    except ReproBoundError as exc:
        _fail(str(exc))
        return EXIT_INPUT


def _fail(message: str) -> None:
    print(f"reprobound: error: {message}", file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())
