"""Every on-disk format of the toolkit: how CSV and JSON files are written
and read.

Writers fix the bytes: UTF-8, LF line endings and two-space indented JSON.
A float prints the same in both formats, as its ``repr``: the shortest text
that reads back as the same double. Readers validate while they parse
and turn every way a file can be malformed into one exception chosen by the
caller, naming the file (and for CSV the line): ``ConfigError`` (exit 2) for
inputs a user hands in, ``IncompleteArchiveError`` (exit 4) for the files of
a run archive. A table of records is read back only as its writer prints
it (:func:`read_table`): a row whose record the writer would print
otherwise, in any cell, is malformed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable, Iterable

from .errors import ConfigError

ErrorFactory = Callable[[str], Exception]


def write_csv(path: str | Path, header, rows) -> None:
    """Write ``header`` and then each row of ``rows`` as one CSV line. A
    float cell, ``numpy.float64`` included, prints as its shortest
    round-trip text, the same text that :func:`write_json` gives it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(
    path: str | Path,
    names: Iterable[str],
    build: Callable[..., Any],
    error: ErrorFactory = ConfigError,
) -> list:
    """Read a CSV file whose header is exactly ``names``, in file order.

    Each row's cells go to ``build`` as positional arguments, as the text
    the file holds; the list of what ``build`` returns is the result. A
    wrong header or row width, undecodable bytes, a CSV syntax error and any
    ValueError or TypeError raised by ``build`` raise ``error`` with a
    message naming the file and line. ``names`` is walked once, beside the
    header line, and not kept, so an iterator of them costs no list (counts.csv
    has one column per experiment). A header mismatch names one cell, since a
    header can hold thousands.
    """
    names = iter(names)
    rows = []
    line = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            # The header line, until the first row takes its name: a long
            # header is not held while the rows are read.
            cells = next(reader, None)
            line = reader.line_num
            if cells is None:
                raise ValueError("header None: the file is empty")
            width = len(cells)
            for i, (got, want) in enumerate(zip_longest(cells, names)):
                if got != want:
                    expected = i + (want is not None) + sum(1 for _ in names)
                    raise ValueError(
                        f"header has {width} cells, expected {expected}; cell {i + 1} is {got!r}, expected {want!r}"
                    )
            for cells in reader:
                line = reader.line_num
                if len(cells) != width:
                    raise ValueError(f"{len(cells)} cells, expected {width}")
                rows.append(build(*cells))
    except (ValueError, TypeError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{path}: line {line}: {exc}") from exc
    return rows


def read_table(
    path: str | Path,
    columns: dict[str, Callable[[str], Any] | None],
    build: Callable[..., Any],
    row: Callable[[Any], Iterable],
) -> list:
    """Read a table that :func:`write_csv` wrote as ``row(record)`` for each
    record: the list of records, each built from its row.

    ``columns`` maps each column, in file order, to the parser of its cells,
    or to None for a column derived from the others. A row's parsed
    independent cells go to ``build``, and the row is valid only if every
    cell is the text that ``row`` gives for the record built: so an edited
    derived cell, or a value the writer would spell otherwise (``0.50`` for
    ``0.5``), fails. Every failure raises ConfigError naming the file and
    line; a cell that is not the writer's text is named by its column, with
    both texts.
    """
    parsers = list(columns.values())

    def record(*cells: str):
        built = build(*(parse(cell) for parse, cell in zip(parsers, cells) if parse is not None))
        for name, cell, written in zip(columns, cells, row(built)):
            # What csv.writer prints: float's repr for every float, numpy.float64 too.
            text = float.__repr__(written) if isinstance(written, float) else str(written)
            if cell != text:
                raise ValueError(f"{name}={cell!r} is not {text!r}, the text the writer prints for this row")
        return built

    return read_csv(path, columns, record)


def finite(text: str, parse=float):
    """``parse(text)``; ValueError unless it is a finite number."""
    value = parse(text)
    if not math.isfinite(value):  # OverflowError for an int beyond every double
        raise ValueError(f"non-finite number {text}")
    return value


# An integer as ``str`` writes one: no leading zero, no sign on zero, and
# [0-9], not \d, which also matches the non-ASCII digits int reads.
# sampler._COUNTS_TEXT repeats it over a counts.csv row.
_INT_TEXT = r"(?:0|-?[1-9][0-9]*+)"


def integer(text: str) -> int:
    """``int(text)``; ValueError unless ``text`` is an integer as ``str``
    writes one, so that ``007``, ``-0``, ``1_0``, `` 1`` and non-ASCII
    digits, which ``int`` takes, fail."""
    if re.fullmatch(_INT_TEXT, text) is None:
        raise ValueError(f"{text!r} is not an integer as str writes one")
    return int(text)


def read_json(path: str | Path, schema: str, error: ErrorFactory = ConfigError) -> dict:
    """Load a UTF-8 JSON object whose ``schema`` field equals ``schema``.

    Invalid JSON, undecodable bytes, NaN, a number beyond the range of a
    double, a top level that is not an object, and another schema raise
    ``error`` naming the file.
    """
    try:
        doc = json.loads(
            Path(path).read_text(encoding="utf-8"),
            parse_constant=finite,
            parse_float=finite,
            parse_int=partial(finite, parse=int),
        )
    except (ValueError, OverflowError, RecursionError) as exc:  # incl. JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: holds a {type(doc).__name__}, not an object")
    if doc.get("schema") != schema:
        raise error(f"{path}: schema must be {schema!r}, got {doc.get('schema')!r}")
    return doc


def write_json(path: str | Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def field(doc: dict, where: str, name: str, kind):
    """``doc[name]`` if present and an instance of ``kind`` (never a bool),
    else ConfigError naming ``where`` and the field."""
    if name not in doc:
        raise ConfigError(f"{where}: missing field {name!r}")
    value = doc[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where}: field {name!r} has wrong type {type(value).__name__}")
    return value


def records(doc: dict, where: str, name: str) -> list[tuple[str, dict]]:
    """The objects of the non-empty list ``doc[name]``, each paired with its
    location for error messages; ConfigError if any of that fails."""
    items = field(doc, where, name, list)
    if not items:
        raise ConfigError(f"{where}: {name} must be a non-empty list")
    located = [(f"{where}: {name}[{i}]", item) for i, item in enumerate(items)]
    for loc, item in located:
        if not isinstance(item, dict):
            raise ConfigError(f"{loc}: expected an object")
    return located
