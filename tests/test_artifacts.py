"""Tests of the artifacts module: the one owner of the on-disk formats."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reprobound
from reprobound.artifacts import (
    field,
    finite,
    read_json,
    read_table,
    records,
    write_csv,
    write_json,
)
from reprobound.errors import ConfigError

PACKAGE = Path(reprobound.__file__).parent
COLUMNS = {"name": str, "count": int, "value": float}


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def cells(*cells):
    return cells


def read_rows(path):
    """The rows of a table of COLUMNS, each record the tuple of its parsed cells."""
    return read_table(path, COLUMNS, cells, lambda record: record)


class TestCsv:
    def test_round_trip_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, COLUMNS, [["a", 1, 0.1], ["b,c", 2, 1 / 3]])
        assert path.read_bytes() == b'name,count,value\na,1,0.1\n"b,c",2,0.3333333333333333\n'
        assert read_rows(path) == [("a", 1, 0.1), ("b,c", 2, 1 / 3)]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("name,count\n", "line 1: header 'name,count\\n' is not 'name,count,value\\n', the header the writer prints"),
            ("name,value,count\n", "line 1: header 'name,value,count\\n' is not 'name,count,value\\n'"),
            ("", "line 1: header '' is not 'name,count,value\\n'"),
            ("name,count,value\na,1,0.5\nb,2\n", "line 3: 2 cells, expected 3"),
            ("name,count,value\na,one,0.5\n", "line 2: count: invalid literal"),
            ("name,count,value\na,1,0.5\nb,2,x\n", "line 3: value: could not convert"),
            # The writer's cells in other bytes.
            ('name,count,value\na,1,"0.5"\n', "line 2: 'a,1,\"0.5\"\\n' is not 'a,1,0.5\\n', the line the writer prints for this row"),
            ("name,count,value\r\na,1,0.5\r\n", "line 1: header 'name,count,value\\r\\n' is not "),
            ("name,count,value\na,1,0.5\r\n", "line 2: 'a,1,0.5\\r\\n' is not 'a,1,0.5\\n'"),
            ("name,count,value\na,1,0.5", "line 2: 'a,1,0.5' is not 'a,1,0.5\\n', the line the writer prints for this row"),
        ],
        ids=[
            "header", "header-order", "empty", "width", "int-cell", "float-cell",
            "quoted-cell", "crlf", "crlf-row", "no-final-newline",
        ],
    )
    def test_malformed_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ConfigError) as excinfo:
            read_rows(path)
        assert str(excinfo.value).startswith(f"{path}: {message}")

    def test_build_errors_name_the_line(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", "name,count,value", "a,1,0.5", "b,-2,0.5")

        def build(name, count, value):
            if count < 0:
                raise ValueError("count must be non-negative")
            return name, count, value

        with pytest.raises(ConfigError, match=r"t\.csv: line 3: count must be non-negative"):
            read_table(path, COLUMNS, build, lambda record: record)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"name,count,value\na,1,0.5\n\xff,1,0.5\n")
        with pytest.raises(ConfigError, match="line 3: 'utf-8' codec can't decode"):
            read_rows(path)


class TestTable:
    # "twice" is derived from "count"; the record is (name, count, value).
    COLUMNS = {"name": str, "count": int, "twice": None, "value": finite}

    @staticmethod
    def read(path):
        return read_table(path, TestTable.COLUMNS, cells, lambda r: [r[0], r[1], 2 * r[1], np.float64(r[2])])

    @pytest.mark.parametrize(
        "row,message",
        [
            ("a,1,3,0.5", "twice='3' is not '2', the text the writer prints for this row"),
            ("a,1,2,0.50", "value='0.50' is not '0.5', the text the writer prints for this row"),
            ("a,1,2,5e-1", "value='5e-1' is not '0.5'"),
            ("a,1,2,+0.5", "value='+0.5' is not '0.5'"),
            ("a,1,2,1", "value='1' is not '1.0'"),
            ("a,1,2,inf", "value: non-finite number inf"),
            ("a,01,2,0.5", "count='01' is not '1', the text the writer prints for this row"),
        ],
        ids=["derived", "trailing-zero", "exponent", "plus-sign", "int-spelling", "parser", "int-parser"],
    )
    def test_a_cell_must_be_the_writers_text(self, tmp_path, row, message):
        path = write_lines(tmp_path / "t.csv", "name,count,twice,value", "a,1,2,0.5", row)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: line 3: {message}')}"):
            self.read(path)

    def test_reads_what_the_writer_prints(self, tmp_path):
        # A numpy.float64 cell prints as float's repr: 0.1, not np.float64(0.1).
        path = tmp_path / "t.csv"
        write_csv(path, self.COLUMNS, [["a", 1, 2, np.float64(0.1)], ["b", -3, -6, -0.0], ["c", 0, 0, 1e-300]])
        assert path.read_text().splitlines()[1] == "a,1,2,0.1"
        assert self.read(path) == [("a", 1, 0.1), ("b", -3, -0.0), ("c", 0, 1e-300)]


class TestJson:
    def test_round_trip_bytes(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"schema": "s/1", "x": [1, 0.5]}
        write_json(path, doc)
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"
        assert read_json(path, "s/1") == doc

    @pytest.mark.parametrize(
        "raw,message",
        [
            (b'{"schema": ', "not valid JSON"),
            (b'{"schema": "s/1", "x": NaN}', "non-finite"),
            (b'{"schema": "s/1", "x": -Infinity}', "non-finite"),
            (b'{"schema": "s/1", "x": 1e400}', "non-finite"),
            (b'{"schema": "s/1", "x": 1' + b"0" * 400 + b"}", "too large"),
            (b'{"schema": "s/1", "x": "\xff"}', "not valid JSON"),
            (b"[1, 2]", "holds a list"),
            (b'{"schema": "s/2"}', "schema must be 's/1', got 's/2'"),
            (b"[" * 100000, "not valid JSON"),
        ],
        ids=["truncated", "nan", "infinity", "overflow", "int-overflow", "not-utf8", "list", "schema", "deep"],
    )
    def test_malformed_names_file(self, tmp_path, raw, message):
        path = tmp_path / "d.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=message) as excinfo:
            read_json(path, "s/1")
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_field_types(self):
        doc = {"n": 3, "flag": True, "x": "3"}
        assert field(doc, "w", "n", int) == 3
        for name, message in [("missing", "missing field"), ("flag", "wrong type bool"), ("x", "wrong type str")]:
            with pytest.raises(ConfigError, match=message):
                field(doc, "w", name, int)

    def test_records(self):
        assert records({"q": [{"a": 1}]}, "w", "q") == [("w: q[0]", {"a": 1})]
        with pytest.raises(ConfigError, match="non-empty"):
            records({"q": []}, "w", "q")
        with pytest.raises(ConfigError, match=r"w: q\[1\]: expected an object"):
            records({"q": [{}, 7]}, "w", "q")


@given(cell=st.text(alphabet="0139-+_ \u0663", max_size=6))
@example(cell="007")
@example(cell="-0")
@example(cell="1_0")
@example(cell=" 1")
@example(cell="\u0663")
@example(cell="-12")
def test_integer_takes_an_int_only_as_str_writes_it(cell, tmp_path_factory):
    """An integer cell, here a table's qubit, reads only as str writes an
    int; any other text is rejected, naming the column."""
    path = write_lines(tmp_path_factory.mktemp("t") / "t.csv", "qubit,name", f"{cell},a")
    try:
        value = int(cell)
    except ValueError:
        value = None
    if value is not None and str(value) == cell:
        assert read_table(path, {"qubit": int, "name": str}, cells, list) == [(value, "a")]
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: line 2: qubit')}[=:]"):
            read_table(path, {"qubit": int, "name": str}, cells, list)


def test_only_artifacts_imports_csv_or_json():
    """The on-disk format decisions stay behind one module."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "artifacts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {n}" for n in names if n.split(".")[0] in ("csv", "json")]
    assert offenders == []


def test_cli_import_loads_no_heavy_modules():
    """A fresh import of the package or of the CLI loads no numpy (each
    command loads it only if it handles arrays) and pulls in no test-only
    or optional package. Nor does it load ``dataclasses`` or ``inspect``,
    which cost every command about 20 ms of start-up: the records derive
    from ``noise_model.Record`` instead; nor ``datetime`` (1.2 ms): the
    manifest's one timestamp, ``finished_at``, comes from ``time``; nor
    ``argparse`` and ``gettext`` (about 5 ms with the parser it built):
    ``cli`` parses its options from its own table.

    The package exports its names lazily, so ``import reprobound`` loads
    no submodule but ``_version``, and the CLI loads only what every
    command shares: each command imports ``bounds`` and ``estimator``
    when it runs them, ``simulate`` imports ``_stream``, the plain-Python
    draw, when it uses it, and ``artifacts`` imports ``json`` when a JSON
    file is read or written. A submodule name imports that submodule only,
    the first public name still binds every exported name, and a private
    name loads nothing."""
    env_path = str(PACKAGE.parent)
    own = {}
    for module, code in [
        ("reprobound", "import reprobound"),
        ("reprobound.cli", "import reprobound.cli"),
        ("submodule", "import reprobound; reprobound.errors"),
        ("public", "import reprobound; assert reprobound.gamma_max(1, 0.1) > 0"),
        ("private", "import reprobound; assert not hasattr(reprobound, '_x')"),
    ]:
        code = f"import sys; sys.path.insert(0, {env_path!r}); {code}; print(*sorted(sys.modules))"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, timeout=60,
        )
        names = result.stdout.split()
        loaded = {name.split(".")[0] for name in names}
        assert loaded.isdisjoint({
            "numpy", "scipy", "mpmath", "hypothesis", "dataclasses", "inspect", "datetime", "argparse", "gettext",
        }), module
        assert "json" not in names, module
        own[module] = {name.removeprefix("reprobound.") for name in names if name.startswith("reprobound.")}
    assert own["reprobound"] == own["private"] == {"_version"}
    assert own["submodule"] == {"_version", "errors"}
    assert own["reprobound.cli"] == {"_version", "errors", "artifacts", "noise_model", "sampler", "cli"}
    assert own["public"] == {"_version", "errors", "artifacts", "noise_model", "sampler", "bounds", "estimator"}
