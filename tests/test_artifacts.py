"""Tests of the artifacts module: the one owner of the on-disk formats."""

import ast
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import reprobound
from reprobound.artifacts import field, g17, read_csv, read_json, records, write_csv, write_json
from reprobound.errors import ConfigError, IncompleteArchiveError

PACKAGE = Path(reprobound.__file__).parent
COLUMNS = {"name": str, "count": int, "value": float}


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


class TestCsv:
    def test_round_trip_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, COLUMNS, [["a", 1, g17(0.1)], ["b,c", 2, g17(1 / 3)]])
        assert path.read_bytes() == b'name,count,value\na,1,0.10000000000000001\n"b,c",2,0.33333333333333331\n'
        assert read_csv(path, COLUMNS, lambda *cells: cells) == [("a", 1, 0.1), ("b,c", 2, 1 / 3)]

    @pytest.mark.parametrize(
        "lines,message",
        [
            (["name,count"], "line 1: header"),
            ([], "line 0: header None"),
            (["name,count,value", "a,1,0.5", "b,2"], "line 3: 2 cells, expected 3"),
            (["name,count,value", "a,one,0.5"], "line 2: invalid literal"),
            (["name,count,value", "a,1,0.5", "b,2,x"], "line 3: could not convert"),
        ],
        ids=["header", "empty", "width", "int-cell", "float-cell"],
    )
    def test_malformed_names_file_and_line(self, tmp_path, lines, message):
        path = write_lines(tmp_path / "t.csv", *lines)
        with pytest.raises(ConfigError, match=message) as excinfo:
            read_csv(path, COLUMNS, lambda *cells: cells)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_build_errors_name_the_line(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", "name,count,value", "a,1,0.5", "b,-2,0.5")

        def build(name, count, value):
            if count < 0:
                raise ValueError("count must be non-negative")
            return name

        with pytest.raises(ConfigError, match=r"t\.csv: line 3: count must be non-negative"):
            read_csv(path, COLUMNS, build)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"name,count,value\n\xff,1,0.5\n")
        with pytest.raises(ConfigError, match="utf-8"):
            read_csv(path, COLUMNS, lambda *cells: cells)

    def test_error_factory(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", "name")
        error = partial(IncompleteArchiveError, missing=("t.csv",))
        with pytest.raises(IncompleteArchiveError) as excinfo:
            read_csv(path, COLUMNS, lambda *cells: cells, error)
        assert excinfo.value.missing == ("t.csv",)


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
    """Importing the CLI must not pull in test-only or optional packages."""
    code = "import sys, reprobound.cli; print(' '.join(sorted(sys.modules)))"
    env_path = str(PACKAGE.parent)
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {env_path!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = {name.split(".")[0] for name in result.stdout.split()}
    assert loaded.isdisjoint({"scipy", "mpmath", "hypothesis"})
