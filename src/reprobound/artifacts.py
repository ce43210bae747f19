"""Every on-disk format of the toolkit: how CSV and JSON files are written
and read.

Writers fix the bytes: UTF-8, LF line endings and two-space indented JSON.
A float prints the same in both formats, as its ``repr``: the shortest text
that reads back as the same double. A writer replaces its file whole, so a
write that fails part way leaves the previous file, or none, never a prefix
that would read as a shorter table. Readers validate while they parse and
turn every way a file can be malformed into one exception chosen by the
caller, naming the file (and for CSV the line): ``ConfigError`` (exit 2) for
inputs a user hands in, ``IncompleteArchiveError`` (exit 4) for the files of
a run archive. A table of records is read back only as its writer prints
it (:func:`read_table`): a line that is not the bytes the writer prints for
the record built from it is malformed. A run's counts are fields of its
manifest, whose rows of text ``sampler`` reads itself, since it alone knows
the plan that fixes every row.
"""

from __future__ import annotations

import csv
import math
import os
from functools import partial
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable

from .errors import ConfigError


# csv's writer returns what its file's write returns: with ``str`` as that
# write, the line it prints for a row. write_csv prints every line with it,
# and read_table checks every line against it.
_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _replace(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` whole or not at all: into
    ``path`` plus ``.tmp``, a name no command writes, which replaces
    ``path`` only once the last chunk is written. On any exception the
    temporary file is removed and the exception propagates, so ``path``
    keeps its previous bytes, or stays absent."""
    tmp = Path(f"{path}.tmp")
    fh = open(tmp, "w", newline="", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header, rows) -> None:
    """Write ``header`` and then each row of ``rows`` as one CSV line. A
    float cell, ``numpy.float64`` included, prints as its shortest
    round-trip text, the same text that :func:`write_json` gives it."""
    _replace(path, map(_line, chain((header,), rows)))


def read_table(
    path: str | Path,
    columns: dict[str, Callable[[str], Any] | None],
    build: Callable[..., Any],
    row: Callable[[Any], Iterable],
) -> list:
    """Read a table that :func:`write_csv` wrote as ``row(record)`` for each
    record, under the header ``columns``: the list of records, each built
    from its line.

    ``columns`` maps each column, in file order, to the parser of its cells,
    or to None for a column derived from the others. A line's parsed
    independent cells go to ``build``, and the line is valid only if it is
    the bytes that :func:`write_csv` prints for ``row`` of the record built:
    so an edited derived cell, a value the writer would spell otherwise
    (``0.50`` for ``0.5``, ``007`` for ``7``), a quoted cell, a CRLF ending
    or a missing final newline fails. Every failure raises ConfigError
    naming the file and line; a cell that is not the writer's text is named
    by its column, with both texts.
    """
    records = []
    line = 1
    try:
        # Lines split at \n alone, each decoded on its own, so that an
        # undecodable byte is named by its line.
        with open(path, "rb") as fh:
            header, printed = fh.readline().decode("utf-8"), _line(columns)
            if header != printed:
                raise ValueError(f"header {header!r} is not {printed!r}, the header the writer prints")
            for line, raw in enumerate(fh, 2):
                text = raw.decode("utf-8")
                cells = next(csv.reader((text,)))
                if len(cells) != len(columns):
                    raise ValueError(f"{len(cells)} cells, expected {len(columns)}")
                record = build(
                    *(_parse(name, parse, cell) for (name, parse), cell in zip(columns.items(), cells) if parse)
                )
                printed = _line(row(record))
                if text != printed:
                    # The first cell the writer prints otherwise; if none,
                    # only the bytes around the cells differ.
                    for name, cell, written in zip(columns, cells, next(csv.reader((printed,)))):
                        if cell != written:
                            raise ValueError(
                                f"{name}={cell!r} is not {written!r}, the text the writer prints for this row"
                            )
                    raise ValueError(f"{text!r} is not {printed!r}, the line the writer prints for this row")
                records.append(record)
    except (ValueError, TypeError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"{path}: line {line}: {exc}") from exc
    return records


def _parse(name: str, parse: Callable[[str], Any], cell: str):
    """``parse(cell)``; its ValueError names the column ``name``."""
    try:
        return parse(cell)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def finite(text: str, parse=float):
    """``parse(text)``; ValueError unless it is a finite number."""
    value = parse(text)
    if not math.isfinite(value):  # OverflowError for an int beyond every double
        raise ValueError(f"non-finite number {text}")
    return value


def read_json(path: str | Path, schema: str, error: Callable[[str], Exception] = ConfigError) -> dict:
    """Load a UTF-8 JSON object whose ``schema`` field equals ``schema``.

    Invalid JSON, undecodable bytes, NaN, a number beyond the range of a
    double, a top level that is not an object, and another schema raise
    ``error`` naming the file.
    """
    # Imported here, as in write_json: a command that reads and writes only
    # tables, such as verdict on a characterization table, never loads it.
    import json

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
    import json

    # Encoded piece by piece as it is written, never as one string: a run's
    # manifest holds its counts, 4.7 MB at the plan limit.
    _replace(path, chain(json.JSONEncoder(indent=2).iterencode(doc), ("\n",)))


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
