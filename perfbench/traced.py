"""Run one reprobound CLI command with its layers wrapped in spans.

Usage: python3 perfbench/traced.py SPANS_OUT CLI_ARG...

Wraps the public functions of each layer from outside the package, at the
name the caller looks them up by: ``cli`` binds ``run_plan``,
``save_archive`` and ``load_archive`` by name (``from .sampler import``), so
those are replaced in ``cli``; ``run_plan`` looks ``block_stream`` up as a
``sampler`` global; ``cli`` calls ``estimator.*`` and ``bounds.*`` through
the module. Spans (name, start, end, parent, counters) are kept in memory
and written to SPANS_OUT as JSON once the command returns. The exit code is
the command's.

The tracer times its own work: installing the wrappers, each wrapper's code
before and after the call it wraps (``overhead_s`` on every span), the
``open`` counting and the serialisation of the spans. Their sum is what
tracing adds to the process.
"""

import sys
import time

_t0 = time.perf_counter()
import reprobound.cli as cli  # noqa: E402  (timed: this is process.import_s)

IMPORT_S = time.perf_counter() - _t0

import builtins  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402

from reprobound import bounds, estimator, sampler  # noqa: E402


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _io_chars() -> tuple[int, int]:
    """Bytes this process has passed to read() and write() so far."""
    with io.FileIO("/proc/self/io") as fh:  # FileIO: not counted as an open
        fields = dict(line.split(": ") for line in fh.read().decode().splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


class Tracer:
    """In-memory spans; one parent stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.opened: list[tuple[str, bool]] = []
        self.opens_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, counters=None):
        """Return ``fn`` recording one span per call.

        ``counters(before, result)`` may add counters to the span; ``before``
        is its own return value for ``counters(None, None)``, taken just
        before the call.
        """

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            stack = self._stack()
            span = {"name": name, "parent": stack[-1]["id"] if stack else None}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            before = counters(None, None) if counters else None
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counters:
                span.update(counters(before, result))
            span["overhead_s"] = span["start"] - entered + time.perf_counter() - span["end"]
            return result

        return wrapper

    def count_opens(self, open_fn):
        """Wrap ``open`` to record each path opened and whether for writing."""

        def wrapper(file, mode="r", *args, **kwargs):
            entered = time.perf_counter()
            if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
                self.opened.append((str(file), any(c in mode for c in "wax+")))
            self.opens_s += time.perf_counter() - entered
            return open_fn(file, mode, *args, **kwargs)

        return wrapper

    # counters -------------------------------------------------------------

    def _io_counters(self, writing: bool):
        def counters(before, result):
            rchar, wchar = _io_chars()
            if before is None:
                return {"opened_at": len(self.opened), "rchar": rchar, "wchar": wchar}
            paths = {p for p, w in self.opened[before["opened_at"]:] if w == writing}
            if writing:
                return {"files_written": len(paths), "bytes_written": wchar - before["wchar"]}
            return {
                "files_read": len(paths),
                "bytes_read": rchar - before["rchar"],
                "maxrss_mb": _maxrss_mb(),
            }

        return counters

    @staticmethod
    def _rss_counters(before, result):
        return {} if before is None else {"maxrss_mb": _maxrss_mb()}

    @staticmethod
    def _lemma_counters(before, result):
        return {} if before is None else {"pairs": result.pairs_checked}

    def install(self) -> list[str]:
        """Wrap every layer function; returns the names that were not found."""
        layers = [
            (cli, "cmd_simulate", "cli.cmd_simulate", None),
            (cli, "cmd_characterize", "cli.cmd_characterize", None),
            (cli, "cmd_verdict", "cli.cmd_verdict", None),
            (cli, "cmd_report", "cli.cmd_report", None),
            (cli, "load_device_config", "cli.load_device_config", None),
            (cli, "run_plan", "sampler.run_plan", self._rss_counters),
            (sampler, "block_stream", "sampler.block_stream", None),
            (cli, "save_archive", "sampler.save_archive", self._io_counters(writing=True)),
            (cli, "load_archive", "sampler.load_archive", self._io_counters(writing=False)),
            (estimator, "characterize", "estimator.characterize", None),
            (estimator, "write_characterization_csv", "estimator.write_characterization_csv", None),
            (estimator, "read_characterization_csv", "estimator.read_characterization_csv", None),
            (bounds, "verdict", "bounds.verdict", None),
            (bounds, "write_verdicts_csv", "bounds.write_verdicts_csv", None),
            (bounds, "read_verdicts_csv", "bounds.read_verdicts_csv", None),
            (bounds, "lemma_a1_check", "bounds.lemma_a1_check", self._lemma_counters),
        ]
        missing = []
        for module, attr, name, counters in layers:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(name)
            else:
                setattr(module, attr, self.wrap(name, fn, counters))
        builtins.open = self.count_opens(builtins.open)
        io.open = self.count_opens(io.open)
        return missing


def main(spans_out: str, argv: list[str]) -> int:
    start = time.perf_counter()
    tracer = Tracer()
    missing = tracer.install()
    install_s = time.perf_counter() - start
    for name in missing:
        print(f"traced: layer {name} not found, not traced", file=sys.stderr)
    code = cli.main(argv)
    start = time.perf_counter()
    spans = json.dumps(tracer.spans)
    head = {
        "import_s": IMPORT_S,
        "overhead_s": install_s + tracer.opens_s + time.perf_counter() - start,
        "missing": missing,
    }
    with io.FileIO(spans_out, "w") as fh:
        fh.write(f'{json.dumps(head)[:-1]}, "spans": {spans}}}'.encode())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
