"""No coefficient in `qsheaf` can become a float.

Rational coefficients are ints where they are integral, and `a / b` of two
ints is a float.  So every true division in `src/qsheaf` must have a
`Fraction(...)` call as an operand, and no module calls `float` or writes a
float literal.  Standard library only, so it runs where no linter is
installed.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsheaf"


def _is_fraction_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "Fraction") or (
        isinstance(func, ast.Attribute) and func.attr == "Fraction"
    )


def float_hazards(paths) -> tuple:
    """(hazards, fraction_divisions): the sites in the files `paths` that
    can make a float, as `file:line what`, and the number of true divisions
    with a Fraction operand."""
    hazards, divisions = [], 0
    for path in paths:
        nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for node in sorted(nodes, key=lambda n: getattr(n, "lineno", 0)):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if _is_fraction_call(node.left) or _is_fraction_call(node.right):
                    divisions += 1
                else:
                    hazards.append(where + " bare /")
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                hazards.append(where + " /=")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                hazards.append(where + " float()")
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                hazards.append(where + " float literal")
            elif isinstance(node, ast.alias) and node.name == "truediv":
                hazards.append(where + " truediv")
    return hazards, divisions


def test_no_module_can_make_a_float():
    hazards, divisions = float_hazards(sorted(PACKAGE.glob("*.py")))
    assert hazards == []
    # Field.inv and rref: the guard sees the divisions it allows
    assert divisions == 2


def test_guard_flags_every_way_to_a_float(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from fractions import Fraction\n"
        "from operator import truediv\n"
        "def f(a, b):\n"
        "    x = 1 / Fraction(a)\n"
        "    y = fractions.Fraction(b) / a\n"
        "    z = a / b\n"
        "    b /= 2\n"
        "    return float(a) + 0.5 + x + y + z + a // b\n"
    )
    hazards, divisions = float_hazards([sample])
    assert divisions == 2
    assert hazards == [
        "sample.py:2 truediv",
        "sample.py:6 bare /",
        "sample.py:7 /=",
        "sample.py:8 float()",
        "sample.py:8 float literal",
    ]
