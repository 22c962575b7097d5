"""`qsheaf` has one polynomial type.

`exactpoly.Poly` is the only class in `src/qsheaf` that defines polynomial
arithmetic; Laurent polynomials on P^1 are Polys of `bundles.laurent_ring`.
A second class that defines `+`, `-` or `*` is a second polynomial type and
fails here.  Standard library only, so it runs where no linter is installed.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsheaf"
ARITHMETIC = {
    "__add__", "__sub__", "__mul__",
    "__radd__", "__rsub__", "__rmul__",
    "__iadd__", "__isub__", "__imul__",
}
ALLOWED = {("exactpoly.py", "Poly")}


def _defined_names(stmt: ast.stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def arithmetic_classes(paths) -> list:
    """`file:line Class.method` for each class in the files `paths` that
    defines an arithmetic operator, the allowed Poly excepted."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or (path.name, node.name) in ALLOWED:
                continue
            for stmt in node.body:
                for name in _defined_names(stmt):
                    if name in ARITHMETIC:
                        found.append("%s:%d %s.%s" % (path.name, stmt.lineno, node.name, name))
    return found


def test_poly_is_the_only_class_with_arithmetic():
    assert arithmetic_classes(sorted(PACKAGE.glob("*.py"))) == []


def test_guard_flags_every_way_to_define_arithmetic(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class Poly:\n"
        "    def __add__(self, other):\n"
        "        return self\n"
        "class LaurentPoly:\n"
        "    def __mul__(self, other):\n"
        "        return self\n"
        "    __rmul__ = __mul__\n"
        "    def scale(self, c):\n"
        "        return self\n"
        "class Other:\n"
        "    __sub__: object = None\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
    )
    assert arithmetic_classes([sample]) == [
        "sample.py:2 Poly.__add__",
        "sample.py:5 LaurentPoly.__mul__",
        "sample.py:7 LaurentPoly.__rmul__",
        "sample.py:11 Other.__sub__",
    ]
    (tmp_path / "exactpoly.py").write_text(sample.read_text())
    assert arithmetic_classes([tmp_path / "exactpoly.py"]) == [
        "exactpoly.py:5 LaurentPoly.__mul__",
        "exactpoly.py:7 LaurentPoly.__rmul__",
        "exactpoly.py:11 Other.__sub__",
    ]
