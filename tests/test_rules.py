"""Each interval rule of an input has one check: the function that owns
it, and no copy elsewhere in the package. So has each rule that plans,
estimates and verdict rows share. Likewise the run archive's count table
has one module that knows its layout, ``sampler``, and only the front end
and the package load it."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import reprobound
from reprobound.bounds import ReproVerdict, gamma_max
from reprobound.errors import InvalidParameterError
from reprobound.noise_model import (
    QubitNoiseParams,
    check_angle,
    check_bias,
    check_open_probability,
    check_probability,
    check_theta,
)

PACKAGE = Path(reprobound.__file__).parent

# Not numbers, though float() would turn the first into one and a bool is an int.
NOT_NUMBERS = ["0.5", None, True]

# Each interval, as a raise message names it, and the one function that owns its rule.
OWNERS = {"[0, 1]": "check_probability", "[-1, 1]": "check_bias", "(0, 1)": "check_open_probability"}

# Each message of a rule that more than one record applies, and its one owner.
SHARED_OWNERS = {
    "qubit index must be non-negative": "check_index",
    "appears more than once": "check_unique_indices",
    "L must be >= 2": "check_experiments",
    "S must be in [1, 2**63)": "check_experiments",
}


class _Raises(ast.NodeVisitor):
    """Collects (module, innermost function, text) for each raise whose
    message text holds one of the texts of ``owners``."""

    def __init__(self, module: str, owners: dict[str, str]):
        self.module, self.owners, self.scope, self.found = module, owners, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        text = "".join(n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str))
        self.found += [(self.module, self.scope[-1], key) for key in self.owners if key in text]


def _raisers(owners: dict[str, str]) -> list[tuple[str, str, str]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Raises(path.stem, owners)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += visitor.found
    return sorted(found)


def test_each_interval_rule_is_raised_by_its_one_function():
    assert _raisers(OWNERS) == sorted(("noise_model", owner, interval) for interval, owner in OWNERS.items())


def test_each_shared_rule_is_raised_by_its_noise_model_owner():
    assert _raisers(SHARED_OWNERS) == sorted(("noise_model", owner, text) for text, owner in SHARED_OWNERS.items())


def test_only_sampler_reads_the_count_table():
    # Every other module reads a qubit's rows through RunArchive.qubit_counts.
    readers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "counts"
    }
    assert readers == {"sampler"}


def _runtime_nodes(tree: ast.Module):
    """Every node of ``tree`` but those under ``if TYPE_CHECKING:``, which
    only annotations use."""
    for stmt in tree.body:
        if not (isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name) and stmt.test.id == "TYPE_CHECKING"):
            yield from ast.walk(stmt)


def test_only_cli_and_the_package_import_sampler():
    # estimator, bounds and artifacts take their shared rules from noise_model.
    # The package names no submodule in an import statement: it imports them
    # by name, lazily, so only cli may import sampler.
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        for node in _runtime_nodes(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and (node.module == "sampler" or node.module is None and "sampler" in {a.name for a in node.names})
    }
    assert importers == {"cli"}


@pytest.mark.parametrize(
    "check,good,bad",
    [
        (
            check_probability,
            [0.0, 0.5, 1.0, 1, np.float64(0.25)],
            [-0.1, 1.1, math.nan, math.inf, -math.inf, *NOT_NUMBERS],
        ),
        (
            check_bias,
            [-1.0, 0.0, 1.0, -1, np.float64(-0.25)],
            [-1.1, 1.1, math.nan, math.inf, -math.inf, *NOT_NUMBERS],
        ),
        (
            check_open_probability,
            [5e-324, 0.5, 1.0 - 2**-53, np.float64(0.25)],
            [0.0, 1.0, -0.1, math.nan, math.inf, *NOT_NUMBERS],
        ),
    ],
    ids=["probability", "bias", "open"],
)
def test_rule_accepts_its_interval_only(check, good, bad):
    assert [check("x", value) for value in good] == [float(value) for value in good]
    assert {type(check("x", value)) for value in good} == {float}
    for value in bad:
        with pytest.raises(InvalidParameterError, match=rf"^x must be in .*, got {value!r}$"):
            check("x", value)


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_angle_and_delta_rules_reject_a_non_number(value):
    with pytest.raises(InvalidParameterError, match=rf"^x must be finite and so must 2\*x, got {value!r}$"):
        check_angle("x", value)
    with pytest.raises(InvalidParameterError, match=rf"^theta must be finite and so must 2\*theta, got {value!r}$"):
        check_theta(value)
    with pytest.raises(InvalidParameterError, match=rf"^delta must be a finite non-negative value, got {value!r}$"):
        gamma_max(1, value)


def test_records_reject_a_string_where_a_number_belongs():
    # Each was built holding the string, which later arithmetic tripped on.
    with pytest.raises(InvalidParameterError, match=r"^f0 must be in \[0, 1\], got '0.9'$"):
        QubitNoiseParams(f0="0.9", f1=0.9, theta=0.0)
    with pytest.raises(InvalidParameterError, match=r"^delta must be a finite non-negative value, got '0.1'$"):
        ReproVerdict(1, "0.1", 0.05)

