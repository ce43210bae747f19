"""Each interval rule of an input has one check: the function that owns
it, and no copy elsewhere in the package."""

import ast
import math
from pathlib import Path

import pytest

import reprobound
from reprobound.errors import InvalidParameterError
from reprobound.noise_model import check_bias, check_open_probability, check_probability

PACKAGE = Path(reprobound.__file__).parent

# Each interval, as a raise message names it, and the one function that owns its rule.
OWNERS = {"[0, 1]": "check_probability", "[-1, 1]": "check_bias", "(0, 1)": "check_open_probability"}


class _Raises(ast.NodeVisitor):
    """Collects (module, innermost function, interval) for each raise whose
    message text names one of the intervals of OWNERS."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        text = "".join(n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str))
        self.found += [(self.module, self.scope[-1], interval) for interval in OWNERS if interval in text]


def test_each_interval_rule_is_raised_by_its_one_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Raises(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += visitor.found
    assert sorted(found) == sorted(("noise_model", owner, interval) for interval, owner in OWNERS.items())


@pytest.mark.parametrize(
    "check,good,bad",
    [
        (check_probability, [0.0, 0.5, 1.0, 1], [-0.1, 1.1, math.nan, math.inf, -math.inf]),
        (check_bias, [-1.0, 0.0, 1.0, -1], [-1.1, 1.1, math.nan, math.inf, -math.inf]),
        (check_open_probability, [5e-324, 0.5, 1.0 - 2**-53], [0.0, 1.0, -0.1, math.nan, math.inf]),
    ],
    ids=["probability", "bias", "open"],
)
def test_rule_accepts_its_interval_only(check, good, bad):
    assert [check("x", value) for value in good] == [float(value) for value in good]
    assert {type(check("x", value)) for value in good} == {float}
    for value in bad:
        with pytest.raises(InvalidParameterError, match=rf"^x must be in .*, got {value!r}$"):
            check("x", value)
