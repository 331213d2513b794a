"""No package module uses floating point: no float literal, no float(...)
call and no math.sqrt.  Exact halves are Fraction(c, 2), never c / 2 on
ints."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superdensity"
MODULES = sorted(SRC.glob("*.py"))


def float_uses(source: str) -> list:
    """(line, what) for every float literal, float(...) call and math.sqrt
    (attribute or imported name) in the source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, "float literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            out.append((node.lineno, "float()"))
        elif (isinstance(node, ast.Attribute) and node.attr == "sqrt"
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            out.append((node.lineno, "math.sqrt"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out.extend((node.lineno, "math.sqrt") for alias in node.names
                       if alias.name == "sqrt")
    return sorted(out)


def test_float_uses_detected():
    src = ("import math\nfrom math import sqrt\nx = 0.5\ny = float(3)\n"
           "z = math.sqrt(2)\nw = math.isqrt(4) + 2j\nv = 'float(1)'\n")
    assert float_uses(src) == [(2, "math.sqrt"), (3, "float literal"), (4, "float()"),
                               (5, "math.sqrt"), (6, "float literal")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_float(path):
    assert float_uses(path.read_text()) == []
