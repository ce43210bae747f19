"""Command-line front end: parses arguments, runs each subcommand and maps
errors onto exit codes. Every file is written and read through ``artifacts``.

Subcommands: simulate, characterize, verdict, plan-samples, report. Each
takes only the options it reads, after the subcommand: ``--seed`` is
simulate's, since only simulate draws random numbers, and every command but
plan-samples takes ``--out`` and ``--quiet``.

``--out DIR`` names the directory a command writes into, and each command
writes only its own fixed names there: simulate ``manifest.json``, which
holds the run's plan and counts, characterize ``characterization.csv``,
verdict ``verdicts.csv`` and report the files of ``report/``. So no command
writes over another's artifact; the one output that can still be an input,
a verdict source named ``verdicts.csv``, is an input error. Only simulate
creates ``DIR`` and only report creates ``DIR/report``: a missing ``DIR``,
or one that is a file, is an I/O failure.

Each command loads only the layers it runs: it imports ``bounds`` and
``estimator`` when it runs them, so ``simulate`` loads neither and
``characterize`` no ``bounds``, and ``artifacts`` imports ``json`` only to
read or write a JSON file. ``sampler`` is the exception (see its import).

``verdict`` reads a characterization table or a calibration snapshot, the
device's own readout fidelities and gate angles. Every ``qubits[]`` record,
of a device config or a calibration snapshot, is read by
``sampler.qubit_from_record``, so each passes the same checks.

``main`` runs one command and returns its exit code; callers in-process
start there. ``run`` is the entry of a whole process, which ``python -m
reprobound`` and the ``reprobound`` console script start: it calls ``main``,
runs the ``atexit`` handlers, flushes the standard streams and ends the
process at once, skipping the interpreter's teardown, since every artifact
is already written whole and closed. Exit codes are stable: 0 success, 3
I/O failure (an ``OSError``, also one that flushing standard output
raises), and for an error of this package its ``exit_code`` (see
``errors``): 2 input error, 4 incomplete run artifacts, 5 tolerance outside
the bound's validity regime. An error message that cannot be written still
leaves its exit code.

``COMMANDS`` is the one table of each command's positionals and options,
from which ``parse_args`` parses and ``-h`` prints. An option is given by
its exact name, as ``--name VALUE`` or ``--name=VALUE``; an abbreviation is
no option. A usage error (an unknown or abbreviated option, an option the
command does not take, a missing or extra argument, a value of the wrong
type) is a ConfigError: it exits 2 with one line that names the command and
the option or argument.
"""

from __future__ import annotations

import atexit
import math
import os
import sys
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from .artifacts import field, read_json, records, write_csv
from ._version import __version__
from .errors import (
    ConfigError,
    IncompleteArchiveError,
    InvalidParameterError,
    OutOfRegimeError,
    ReproBoundError,
)
from .noise_model import check_drift, check_open_probability, check_theta, check_unique_indices

# Each command imports ``bounds`` and ``estimator`` itself, when it runs
# them, and calls them through the module, where the benchmark's tracer
# (perfbench/traced.py) wraps their functions. ``sampler`` is imported here,
# by name, because the tracer wraps ``run_plan``, ``save_archive`` and
# ``load_archive`` in this module: so ``verdict`` on a characterization
# table, which runs no sampler code, still loads ``sampler`` until the
# tracer wraps them in ``sampler`` instead.
from .sampler import (
    ExperimentPlan,
    load_archive,
    plan_from_doc,
    qubit_from_record,
    run_plan,
    save_archive,
)

DEVICE_CONFIG_SCHEMA = "device-config/1"
SNAPSHOT_SCHEMA = "calibration-snapshot/1"

# What `report` writes under its output directory, in the order it writes
# them: fig_scatter.csv first, since the pass that writes it also estimates
# each qubit for qubits.csv, the one per-qubit table of every figure.
REPORT_FILES = ("fig_scatter.csv", "qubits.csv")


# ---------------------------------------------------------------------------
# device config


def _named(where, check, *args, **kwargs):
    """``check(*args, **kwargs)``; an InvalidParameterError it raises becomes
    a ConfigError naming ``where``, the file or option the values came from."""
    try:
        return check(*args, **kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_device_config(path: str | Path) -> tuple[str, ExperimentPlan]:
    """Parse and validate a device config; returns (name, plan)."""
    doc = read_json(path, DEVICE_CONFIG_SCHEMA)
    name = field(doc, str(path), "name", str)
    plan = plan_from_doc(doc, str(path))
    # The plan has already rejected a repeated index.
    indices = sorted(plan.qubit_indices)
    if indices != list(range(len(indices))):
        raise ConfigError(f"{path}: qubit indices must be contiguous from 0, got {indices}")
    return name, plan


# ---------------------------------------------------------------------------
# verdict inputs: characterization CSV or calibration snapshot JSON


def _theta_from_gate_error(loc: str, entry: dict) -> tuple[float, bool]:
    """The gate angle in radians that a snapshot's ``gate_error`` gives,
    and whether it gives the angle's sign: an infidelity gives |theta|."""
    value = field(entry, loc, "value", (int, float))
    unit = field(entry, loc, "unit", str)
    if unit == "rad":
        return float(value), True
    if unit == "deg":
        return math.radians(value), True
    if unit == "infidelity":
        # Average gate infidelity of a rotation-by-theta error is
        # (2/3)*sin(theta)^2, so |theta| = arcsin(sqrt(3r/2)).
        r = float(value)
        if not 0.0 <= r <= 2.0 / 3.0:
            raise ConfigError(f"{loc}: infidelity must be in [0, 2/3], got {r!r}")
        return math.asin(math.sqrt(1.5 * r)), False
    raise ConfigError(f"{loc}: unknown gate error unit {unit!r} (use rad, deg, or infidelity)")


# One qubit's inputs to the bound; theta is None for a qubit without a gate
# angle, and d_mean, its observed mean distance, is None for a calibration.
VerdictRow = NamedTuple(
    "VerdictRow",
    [("qubit", int), ("eps", float), ("f", float), ("theta", float | None), ("d_mean", float | None)],
)


def _snapshot_rows(path: Path) -> list[VerdictRow]:
    """The rows of a calibration snapshot.

    A qubit may give the gate angle directly (``theta_rad``) or as a tagged
    ``gate_error`` object with an explicit unit, not both; a missing angle
    is left to ``--theta``, never guessed. An angle whose sign the snapshot
    does not give takes the sign that makes gamma_D the larger,
    ``|eps| + 2 sin(2|theta|) |f - 1/2|``, since the verdict is an upper
    bound. Each qubit must pass :func:`qubit_from_record` with its angle.
    """
    doc = read_json(path, SNAPSHOT_SCHEMA)
    where = str(path)
    field(doc, where, "source", str)
    field(doc, where, "captured_at", str)
    rows = []
    for loc, q in records(doc, where, "qubits"):
        if "theta_rad" in q and "gate_error" in q:
            raise ConfigError(f"{loc}: gives both theta_rad and gate_error; give one of them")
        theta, signed = None, True
        if "theta_rad" in q:
            theta = float(field(q, loc, "theta_rad", (int, float)))
        elif "gate_error" in q:
            theta, signed = _theta_from_gate_error(f"{loc}: gate_error", field(q, loc, "gate_error", dict))
        # Without an angle, 0 (a valid one) stands in so that the other fields are checked.
        qubit = qubit_from_record(q, loc, 0.0 if theta is None else theta)
        eps, f = qubit.params.eps, qubit.params.f
        if not signed:
            # The sign whose -2 sin(2 theta) (f - 1/2) has the sign of eps.
            theta = math.copysign(theta, eps) * math.copysign(1.0, 0.5 - f)
        rows.append(VerdictRow(qubit.index, eps, f, theta, None))
    return rows


def _verdict_rows(path: Path, theta: float | None) -> list[VerdictRow]:
    """The rows of a characterization CSV or calibration snapshot JSON,
    ``theta`` (``--theta``, already checked) standing in for each missing
    gate angle; ConfigError if there is none or a qubit appears twice."""
    if path.suffix.lower() == ".json":
        rows = _snapshot_rows(path)
    else:
        from . import estimator

        rows = [
            VerdictRow(e.qubit, e.eps_mean, e.f_mean, None if math.isnan(e.theta_hat) else e.theta_hat, e.d_mean)
            for e in estimator.read_characterization_csv(path)
        ]
    if not rows:
        raise ConfigError(f"{path}: holds no qubit rows")
    _named(path, check_unique_indices, (row.qubit for row in rows))
    for row in rows:
        if row.theta is None and theta is None:
            raise ConfigError(f"{path}: qubit {row.qubit}: no gate angle available; pass --theta RADIANS")
    return [row if row.theta is not None else row._replace(theta=theta) for row in rows]


# ---------------------------------------------------------------------------
# subcommands


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_simulate(args) -> None:
    _named("--drift", check_drift, args.drift)
    name, plan = load_device_config(args.config)
    if args.seed is not None:
        plan = _named("--seed", plan.replace, seed=args.seed)
    archive = run_plan(plan, drift=args.drift)
    # Files derived from the directory's earlier counts no longer describe it.
    # The rest are retired names: the counts file that the manifest took in,
    # the constant check of Lemma A1, and the per-figure tables that
    # qubits.csv replaced.
    bundle = (*REPORT_FILES, "lemma_report.json", "table1.csv", "fig_theta.csv", "fig_hellinger.csv",
              "fig_asymmetry.csv", "fig_gamma.csv")
    for stale in ("counts.csv", "characterization.csv", "verdicts.csv", *(f"report/{name}" for name in bundle)):
        (Path(args.out) / stale).unlink(missing_ok=True)
    out = save_archive(archive, args.out)
    _say(args, f"{name}: wrote the counts of {plan.count_total} experiments to {out}")


def cmd_characterize(args) -> None:
    from . import estimator

    run_dir = Path(args.run_dir)
    out = Path(args.out or run_dir) / "characterization.csv"
    estimates = estimator.characterize(load_archive(run_dir))
    estimator.write_characterization_csv(estimates, out)
    flagged = sum(1 for e in estimates if e.warnings)
    _say(args, f"characterized {len(estimates)} qubit(s) -> {out}" + (f" ({flagged} flagged)" if flagged else ""))


def cmd_verdict(args) -> None:
    from . import bounds

    # The options are checked before the source is read; delta_star checks n.
    _named("--n", bounds.delta_star, args.n)
    if args.delta is not None:
        _named("--delta", bounds.gamma_max, args.n, args.delta)
    if args.theta is not None:
        _named("--theta", check_theta, args.theta)
    source = Path(args.source)
    out = Path(args.out or source.parent) / "verdicts.csv"
    # Each output name is this command's own, so only a source named verdicts.csv can be it.
    if out.resolve() == source.resolve():
        raise ConfigError(
            f"--out: {out} is an input of this command"
            if args.out
            else f"{source}: the output verdicts.csv would replace this source; pass --out with another directory"
        )
    rows = sorted(_verdict_rows(source, args.theta), key=lambda row: row.qubit)
    # One source gives every row an observed distance or none.
    if args.delta_from_observed and rows[0].d_mean is None:
        raise ConfigError("--delta-from-observed needs characterization input with observed distances")
    results = []
    for r in rows:
        try:
            verdict = bounds.verdict(args.n, r.d_mean if args.delta_from_observed else args.delta, r.eps, r.theta, r.f)
        except OutOfRegimeError as exc:
            # --delta was checked above, so this distance is an observed one.
            raise OutOfRegimeError(f"{source}: qubit {r.qubit}: {exc}", exc.delta_star) from exc
        results.append((r.qubit, verdict))
    bounds.write_verdicts_csv(results, out)
    _say(args, f"verdicts -> {out}: {sum(1 for _, v in results if v.reproducible)}/{len(results)} reproducible")


def cmd_plan_samples(args) -> None:
    from . import bounds

    confidence = check_open_probability("--confidence", args.confidence)
    p_s, epsilon_rel = check_open_probability("--p", args.p), check_open_probability("--precision", args.precision)
    # 1 - confidence rounds to 1.0 once confidence is below 2**-54.
    alpha = _named("--confidence", check_open_probability, "1 - confidence", 1.0 - confidence)
    plan = bounds.plan_samples(p_s, epsilon_rel, alpha)
    print(f"T = {plan.T}\nz = {plan.z!r}")


def cmd_report(args) -> None:
    from . import bounds, estimator

    run_dir = Path(args.run_dir)
    archive = load_archive(run_dir)
    verdicts_path = run_dir / "verdicts.csv"
    if not verdicts_path.is_file():
        raise IncompleteArchiveError(f"{run_dir}: no verdicts.csv; run characterize and verdict first")
    verdicts = bounds.read_verdicts_csv(verdicts_path)
    plan = archive.plan
    # qubits.csv lists the qubits by index, whatever order the plan has.
    qubits = sorted(archive.qubit_counts())
    found, expected = [q for q, _ in verdicts], [q for q, _ in qubits]
    if found != expected:
        raise IncompleteArchiveError(
            f"{verdicts_path}: qubits {found} do not match {expected} of the run; re-run characterize and verdict"
        )
    out = Path(args.out or run_dir) / "report"
    out.mkdir(exist_ok=True)
    fig_scatter, table = (out / name for name in REPORT_FILES)

    estimates = []

    def scatter_rows():
        # One qubit at a time: at the plan limit the file has 333,248 rows.
        for q, rows in qubits:
            est = estimator.per_experiment(rows, plan.S)
            estimates.append(estimator._aggregate(q, est, plan.S))
            yield from zip(repeat(q), range(plan.L), est.eps, est.d)

    write_csv(fig_scatter, ["qubit", "experiment", "eps", "hellinger"], scatter_rows())

    # Both lists are in index order: the verdicts' qubits were checked above.
    write_csv(
        table,
        ["qubit", "gamma_max", "gamma_D", "theta_abs_deg", "d_mean", "d_sigma", "eps_mean", "eps_sigma"],
        [
            [e.qubit, v.gamma_max, v.gamma_D, abs(math.degrees(e.theta_hat))]
            + [e.d_mean, e.d_sigma, e.eps_mean, e.eps_sigma]
            for e, (_, v) in zip(estimates, verdicts)
        ],
    )

    _say(args, f"report bundle -> {out}")


# ---------------------------------------------------------------------------
# options and entry point

# A value that marks an option as required: it has no default.
REQUIRED = object()

# Each command: its help line, its positionals (name, help) and its options.
# An option maps to (type, default or REQUIRED, metavar, help); the type
# ``bool`` marks a flag, which takes no value and is False unless given. The
# last entry names the options of which exactly one must be given.
COMMANDS = {
    "simulate": (
        "run a synthetic device config into a run directory",
        [("config", "device config JSON")],
        {
            "--out": (str, REQUIRED, "DIR", "run directory to write manifest.json into, created "
                      "if missing (required: no default)"),
            "--seed": (int, None, "N", "seed for the counts, in place of the config's plan seed"),
            "--drift": (float, None, "SIGMA", "exploratory common-mode drift, SIGMA in [0, 1]: experiment l adds "
                        "one N(0, SIGMA) draw each to f0, f1 and theta, shared by every qubit"),
            "--threads": (int, None, "N", "accepted for compatibility and ignored: sampling runs on one thread"),
            "--quiet": (bool, False, None, "suppress progress output"),
        },
        (),
    ),
    "characterize": (
        "estimate noise parameters from a run directory",
        [("run_dir", "run directory")],
        {
            "--out": (str, None, "DIR", "existing directory to write characterization.csv into (default: RUN_DIR)"),
            "--quiet": (bool, False, None, "suppress progress output"),
        },
        (),
    ),
    "verdict": (
        "apply the reproducibility bound per qubit",
        [("source", "characterization.csv or calibration snapshot JSON")],
        {
            "--delta": (float, None, "D", "tolerance on the Hellinger distance"),
            "--delta-from-observed": (bool, False, None, "use each qubit's observed mean distance as its tolerance"),
            "--n": (int, 1, "N", "register size for the bound (default 1)"),
            "--theta": (float, None, "RAD", "gate angle override (radians) for inputs without one"),
            "--out": (str, None, "DIR", "existing directory to write verdicts.csv into (default: the directory "
                      "of SOURCE)"),
            "--quiet": (bool, False, None, "suppress progress output"),
        },
        ("--delta", "--delta-from-observed"),
    ),
    "plan-samples": (
        "shots needed to estimate an outcome probability",
        [],
        {
            "--p": (float, REQUIRED, "P", "target outcome probability"),
            "--precision": (float, REQUIRED, "E", "relative precision"),
            "--confidence": (float, REQUIRED, "C", "confidence level, e.g. 0.95"),
        },
        (),
    ),
    "report": (
        "emit plot-ready CSVs",
        [("run_dir", "run directory")],
        {
            "--out": (str, None, "DIR", "existing directory to write the report/ bundle into (default: RUN_DIR)"),
            "--quiet": (bool, False, None, "suppress progress output"),
        },
        (),
    ),
}

HELP_OPTIONS = ("-h", "--help")


def _help(command: str | None) -> str:
    """The text of ``-h``: the program's, or ``command``'s."""
    if command is None:
        return "\n".join([
            "usage: reprobound [-h] [--version] COMMAND ...",
            "",
            "Simulate, characterize, and bound the reproducibility of noisy single-qubit test circuits.",
            "",
            "commands:",
            *(f"  {name:14} {summary}" for name, (summary, *_) in COMMANDS.items()),
            "",
            "reprobound COMMAND --help lists the options of COMMAND.",
        ])
    summary, positionals, options, one_of = COMMANDS[command]

    def usage(name):
        return name if options[name][0] is bool else f"{name} {options[name][2]}"

    words = [name.upper() for name, _ in positionals]
    if one_of:
        words.append(f"({' | '.join(map(usage, one_of))})")
    words += [usage(name) if default is REQUIRED else f"[{usage(name)}]"
              for name, (_, default, *_) in options.items() if name not in one_of]
    rows = [(name.upper(), text) for name, text in positionals]
    rows += [(usage(name), text) for name, (*_, text) in options.items()]
    rows.append((", ".join(HELP_OPTIONS), "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    return "\n".join([
        " ".join(["usage: reprobound", command, *words]),
        "",
        summary,
        "",
        *(f"  {left:{width}}  {text}" for left, text in rows),
    ])


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The namespace of the command that ``argv`` gives, or the text that
    ``-h``, ``--help`` or ``--version`` asks for.

    The namespace holds ``command``, each positional by name and each option
    of the command by its name without the dashes (``--delta-from-observed``
    as ``delta_from_observed``). An option is given by its exact name, as
    ``--name VALUE`` or ``--name=VALUE``; the item after an option that takes
    a value is its value, even when it starts with ``-``. Items after ``--``
    are positionals. A usage error raises ConfigError.
    """
    if not argv:
        raise ConfigError(f"a command is required: {', '.join(COMMANDS)}")
    command, *items = argv
    if command in HELP_OPTIONS:
        return _help(None)
    if command == "--version":
        return f"reprobound {__version__}"
    if command not in COMMANDS:
        raise ConfigError(f"{command!r} is not a command; use one of {', '.join(COMMANDS)} (options go after it)")
    _, positionals, options, one_of = COMMANDS[command]

    def usage_error(message):
        return ConfigError(f"{command}: {message}")

    values = {name: option[1] for name, option in options.items()}
    given, rest = set(), []
    items = iter(items)
    for item in items:
        if item == "--":
            rest += items
        elif item.startswith("-") and item != "-":
            if item in HELP_OPTIONS:
                return _help(command)
            name, has_value, value = item.partition("=")
            if name not in options:
                raise usage_error(f"{name} is not an option of {command}")
            kind = options[name][0]
            if kind is bool:
                if has_value:
                    raise usage_error(f"{name} takes no value")
                value = True
            elif not has_value:
                value = next(items, None)
                if value is None:
                    raise usage_error(f"{name} needs a value")
            try:
                values[name] = kind(value)
            except ValueError:
                raise usage_error(f"{name}: invalid {kind.__name__} value {value!r}") from None
            given.add(name)
        else:
            rest.append(item)
    if len(rest) > len(positionals):
        raise usage_error(f"unexpected argument {rest[len(positionals)]!r}")
    missing = [name.upper() for name, _ in positionals[len(rest):]]
    missing += [name for name, value in values.items() if value is REQUIRED]
    if one_of and not given & set(one_of):
        missing.append(" or ".join(one_of))
    if missing:
        raise usage_error(f"missing {', '.join(missing)}")
    if len(given & set(one_of)) > 1:
        raise usage_error(f"{' and '.join(one_of)} exclude each other")
    args = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, **dict(zip((name for name, _ in positionals), rest)), **args)


def main(argv=None) -> int:
    """Run the CLI on ``argv`` (default ``sys.argv[1:]``) and return its exit
    code. ``-h``, ``--help`` and ``--version`` print to standard output and
    return 0; a usage error, like any input error, returns 2. ``main`` never
    raises SystemExit.

    OpenBLAS starts a pool of threads when numpy is imported, and the
    program makes no BLAS call, so the pool is capped at one thread before
    any command can load numpy. A value the user set is kept.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
        else:
            # Looked up when called, so that a wrapper set on the module runs.
            globals()["cmd_" + args.command.replace("-", "_")](args)
    except OSError as exc:
        return _fail(exc, 3)
    except ReproBoundError as exc:
        return _fail(exc, exc.exit_code)
    return 0


def _fail(exc: Exception, code: int) -> int:
    try:
        print(f"reprobound: error: {exc}", file=sys.stderr)
    except OSError:
        pass  # The message is lost; the exit code still tells what failed.
    return code


def _watched() -> bool:
    """Whether a profiler, tracer or debugger watches this process: through
    ``sys.setprofile`` or ``sys.settrace``, or, from Python 3.12, as a
    ``sys.monitoring`` tool, which is how cProfile hooks in there."""
    monitoring = getattr(sys, "monitoring", None)
    tools = monitoring and any(map(monitoring.get_tool, range(6)))  # the tool ids are 0-5
    return bool(sys.getprofile() or sys.gettrace() or tools)


def run() -> NoReturn:
    """Run the CLI on ``sys.argv[1:]`` as a whole process and end it with
    ``main``'s exit code.

    The ``atexit`` handlers run, then the standard streams are flushed, in
    the interpreter's own order: standard output that cannot be written (a
    full disk, a closed pipe) exits 3 with one error line, unless the
    command had already failed, which keeps its own code. ``os._exit`` then
    ends the process without the interpreter's teardown, which frees every
    object and module one by one and changes no file. Under a profiler,
    tracer or debugger the process ends with ``sys.exit`` instead, so that
    it sees a normal end, and the interpreter runs the handlers and flushes
    the streams itself.
    """
    code = main()
    if _watched():
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()
    except OSError as exc:
        code = code or _fail(exc, 3)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # Nowhere is left to report it.
    os._exit(code)
