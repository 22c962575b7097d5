"""No `qsheaf` function keeps a parameter that the program never sets.

A defaulted parameter of a function or method in `src/qsheaf` must be set
by some call in `src/`, `scripts/` or `perfbench/`: by keyword, or by
position, counting past `self` or `cls` on a method.  A call matches a
definition by its bare name (`f(...)` or `x.f(...)`), and a class call
`C(...)` matches `C.__init__`; a call with `*args` sets every positional
parameter and one with `**kwargs` every parameter.  A parameter only tests
set is a one-value option of the program: the default is the behaviour,
and the other values are code nothing runs.  Standard library only, like
`tests/test_imports.py`.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsheaf"
PROGRAM = (
    sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "scripts").rglob("*.py"))
    + sorted((ROOT / "perfbench").rglob("*.py"))
)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defaulted(tree: ast.AST):
    """(name, parameter, position or None) for each defaulted parameter
    of each function, a class's __init__ under the class name; position
    counts from the first argument a call passes."""
    classes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    classes[item] = node.name
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = node in classes and not any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
        )
        name = classes[node] if bound and node.name == "__init__" else node.name
        skip = 1 if bound else 0
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _settings(trees) -> set:
    """(name, parameter or position) pairs some call sets; "*" stands for
    every positional parameter and "**" for every parameter."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            for i, arg in enumerate(node.args):
                out.add((name, "*" if isinstance(arg, ast.Starred) else i))
            for kw in node.keywords:
                out.add((name, "**" if kw.arg is None else kw.arg))
    return out


def unset_parameters(defining, reading) -> list:
    """Defaulted parameters of functions in the files `defining` that no
    call in the files `reading` sets."""
    settings = _settings(ast.parse(p.read_text(encoding="utf-8")) for p in reading)
    out = []
    for path in defining:
        for name, param, pos in _defaulted(ast.parse(path.read_text(encoding="utf-8"))):
            keys = {param, "**"} | ({pos, "*"} if pos is not None else set())
            if not any((name, key) in settings for key in keys):
                out.append("%s %s(%s)" % (path.name, name, param))
    return out


def test_every_defaulted_parameter_is_set_by_the_program():
    assert unset_parameters(sorted(PACKAGE.glob("*.py")), PROGRAM) == []


def test_guard_flags_a_parameter_only_its_default_sets(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def build(rows, graded=None, *, strict=False):\n"
        "    return Table(rows, size=2).fill(rows, 0)\n"
        "def scale(x, by=1):\n"
        "    return x\n"
        "def spread(a=0, b=0):\n"
        "    return a + b\n"
        "def named(a=0, b=0):\n"
        "    return a + b\n"
        "class Table:\n"
        "    def __init__(self, rows, size=1, mode='r'):\n"
        "        self.rows = rows\n"
        "    def fill(self, rows, value=None, extra=None):\n"
        "        return rows\n"
        "    @staticmethod\n"
        "    def empty(width=0):\n"
        "        return width\n"
    )
    script = tmp_path / "script.py"
    script.write_text(
        "build([], strict=True)\n"
        "scale(2, 3)\n"
        "spread(*pair)\n"
        "named(**options)\n"
        "Table.empty(4)\n"
    )
    # graded and mode are never set; fill's value is set by position past
    # self, extra is not; empty is static, so 4 is its width
    assert unset_parameters([lib], [lib, script]) == [
        "lib.py build(graded)",
        "lib.py Table(mode)",
        "lib.py fill(extra)",
    ]
