"""Every on-disk format of the toolkit: how CSV and JSON files are written
and read.

Writers fix the bytes: UTF-8, LF line endings, floats with 17 significant
digits in CSV and two-space indented JSON. Readers validate while they parse
and turn every way a file can be malformed into one exception chosen by the
caller, naming the file (and for CSV the line): ``ConfigError`` (exit 2) for
inputs a user hands in, ``IncompleteArchiveError`` (exit 4) for the files of
a run archive.
"""

from __future__ import annotations

import csv
import json
import math
from functools import partial
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigError

ErrorFactory = Callable[[str], Exception]


def g17(value: float) -> str:
    """Format a float with 17 significant digits (exact double round trip)."""
    return format(float(value), ".17g")


def write_csv(path: str | Path, header, rows) -> None:
    """Write ``header`` and then each row of ``rows`` as one CSV line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(
    path: str | Path,
    columns: dict[str, Callable[[str], Any]],
    build: Callable[..., Any],
    error: ErrorFactory = ConfigError,
) -> list:
    """Read a CSV file whose header is exactly ``list(columns)``.

    Each cell goes through its column's parser, and each row's parsed cells
    go to ``build`` as positional arguments; the list of what ``build``
    returns is the result. A wrong header or row width, undecodable bytes, a
    CSV syntax error and any ValueError or TypeError raised by a parser or
    by ``build`` raise ``error`` with a message naming the file and line.
    """
    header = list(columns)
    # str parsers would copy the cell; skip them.
    parsers = [(i, parse) for i, parse in enumerate(columns.values()) if parse is not str]
    rows = []
    line = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            line = reader.line_num
            if first != header:
                raise ValueError(f"header {first} is not {header}")
            for cells in reader:
                line = reader.line_num
                if len(cells) != len(header):
                    raise ValueError(f"{len(cells)} cells, expected {len(header)}")
                for i, parse in parsers:
                    cells[i] = parse(cells[i])
                rows.append(build(*cells))
    except (ValueError, TypeError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{path}: line {line}: {exc}") from exc
    return rows


def finite(text: str, parse=float):
    """``parse(text)``; ValueError unless it is a finite number."""
    value = parse(text)
    if not math.isfinite(value):  # OverflowError for an int beyond every double
        raise ValueError(f"non-finite number {text}")
    return value


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
