"""No `qsheaf` module imports a name it does not need, or keeps a helper
or check nothing in the program calls.

A name a module imports must be used in that module, or be imported from
that module by another `qsheaf` module, a test or `perfbench` (a
re-export), or sit on an import line marked `# noqa: F401`.  A module-level
function or class whose name starts with one underscore must be read
somewhere in `src/`: a helper left behind by a fold fails here even when a
test still imports it.  A public module-level function, or a public method
of a module-level class, must be read somewhere in `src/`, `scripts/` or
`perfbench/`: a check only tests call is not part of the program.  A
public method that is not a property and whose name is also a data
attribute in `src/` (a dataclass field, an `x.name = ...` store or an
`object.__setattr__(self, "name", ...)`) is read only where the program
calls `x.name(...)`, so reading the attribute of that name does not keep
it.  Standard library only, so it runs where no linter is installed.
"""

from __future__ import annotations

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsheaf"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
IMPORTERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").rglob("*.py")) + sorted(
    (ROOT / "perfbench").rglob("*.py")
)


def _module_name(path: pathlib.Path) -> str:
    return "qsheaf" if path.stem == "__init__" else "qsheaf." + path.stem


def _source_module(path: pathlib.Path, node: ast.ImportFrom):
    """Dotted module an ImportFrom reads from, resolving package-relative
    imports inside `qsheaf`."""
    if not node.level:
        return node.module
    if path.parent != PACKAGE:
        return None
    return "qsheaf" + ("." + node.module if node.module else "")


@functools.lru_cache(maxsize=None)
def _reexported() -> frozenset:
    """(module, name) pairs some other file imports by name."""
    out = set()
    for path in IMPORTERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                source = _source_module(path, node)
                for alias in node.names:
                    if source and source != _module_name(path):
                        out.add((source, alias.name))
    return frozenset(out)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set:
    """Names read anywhere in the module, string annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: pathlib.Path, reexported: set) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = ast.parse("\n".join(lines))
    used = _used_names(tree)
    module = _module_name(path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound in used or (module, bound) in reexported:
                continue
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            out.append("%s:%d %s" % (path.name, alias.lineno, bound))
    return out


@pytest.mark.parametrize("stem", MODULES)
def test_every_import_is_used_or_reexported(stem):
    assert unused_imports(PACKAGE / (stem + ".py"), _reexported()) == []


def test_guard_flags_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .exactpoly import Field, Poly\n"
        "from .charts import span_gb  # noqa: F401\n"
        "def f(x: 'Poly'):\n"
        "    return x\n"
    )
    assert unused_imports(path, set()) == ["sample.py:1 Field"]


def unreferenced_private_defs(paths) -> list:
    """Module-level private functions and classes defined in the files
    `paths` that none of those files reads, by name or as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    used = set()
    for tree in trees.values():
        used |= _used_names(tree)
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__") and name not in used:
                out.append("%s:%d %s" % (path.name, node.lineno, name))
    return out


def test_every_private_helper_is_referenced_in_src():
    assert unreferenced_private_defs(sorted(PACKAGE.glob("*.py"))) == []


def test_guard_flags_an_unreferenced_private_helper(tmp_path):
    one = tmp_path / "one.py"
    one.write_text(
        "def _kept():\n"
        "    return 0\n"
        "def _dropped():\n"
        "    return _kept()\n"
        "class _Table:\n"
        "    pass\n"
    )
    two = tmp_path / "two.py"
    two.write_text("from .one import _Table\nTABLE = _Table()\n")
    assert unreferenced_private_defs([one, two]) == ["one.py:3 _dropped"]


# Public names only tests read, kept on purpose.  None: a builder or an
# accessor that only tests use lives in a test oracle.
TEST_FACING = ()
PROGRAM = (
    sorted(PACKAGE.glob("*.py"))
    + sorted((ROOT / "scripts").rglob("*.py"))
    + sorted((ROOT / "perfbench").rglob("*.py"))
)


def _decorators(node) -> set:
    """Names of a definition's decorators, called or not, bare or dotted."""
    out = set()
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        out.add(getattr(dec, "id", getattr(dec, "attr", None)))
    return out


def _data_attributes(tree: ast.AST) -> set:
    """Names the module holds data under: dataclass fields, attribute
    stores and object.__setattr__(obj, "name", ...) calls."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "dataclass" in _decorators(node):
            out |= {
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "__setattr__"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            out.add(node.args[1].value)
    return out


def unread_public_defs(defining, reading, exempt=()) -> list:
    """Public module-level functions and public methods of module-level
    classes, defined in the files `defining`, that none of the files
    `reading` reads by name or as an attribute, except the `exempt` names
    (`name` or `Class.method`).  A method that is not a property and
    shares its name with a data attribute of the files `defining` counts
    as read only where some file of `reading` calls it as `x.name(...)`."""
    used, called = set(), set()
    for path in reading:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _used_names(tree)
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        called |= {
            n.func.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        }
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in defining}
    data = set().union(*map(_data_attributes, trees.values()))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions):
                defs = [(node, node.name)]
            elif isinstance(node, ast.ClassDef):
                defs = [(m, node.name + "." + m.name) for m in node.body if isinstance(m, functions)]
            else:
                continue
            for item, qualname in defs:
                method = qualname != item.name and not {"property", "cached_property"} & _decorators(item)
                read = called if method and item.name in data else used
                if item.name.startswith("_") or item.name in read or qualname in exempt:
                    continue
                out.append("%s:%d %s" % (path.name, item.lineno, qualname))
    return out


def test_every_public_check_is_read_by_the_program():
    assert unread_public_defs(sorted(PACKAGE.glob("*.py")), PROGRAM, TEST_FACING) == []


def test_guard_flags_a_public_check_only_tests_read(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def build():\n"
        "    return Table().rows()\n"
        "def check_only_tests_call():\n"
        "    return True\n"
        "def builder_for_tests():\n"
        "    return 0\n"
        "def _private():\n"
        "    return 1\n"
        "class Table:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def rows(self):\n"
        "        return ()\n"
        "    def is_empty(self):\n"
        "        return True\n"
    )
    script = tmp_path / "script.py"
    script.write_text("from lib import build\nprint(build())\n")
    test = tmp_path / "test_lib.py"
    test.write_text("from lib import check_only_tests_call, Table\nassert Table().is_empty()\n")
    assert unread_public_defs([lib], [lib, script], ("builder_for_tests",)) == [
        "lib.py:3 check_only_tests_call",
        "lib.py:14 Table.is_empty",
    ]


def test_guard_sees_through_a_data_attribute_of_the_same_name(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Pair:\n"
        "    sub: int\n"
        "    module: int\n"
        "    size: int\n"
        "class Field:\n"
        "    def __init__(self):\n"
        "        self.total = 0\n"
        "        object.__setattr__(self, 'scale', 1)\n"
        "    def sub(self, a, b):\n"
        "        return a - b\n"
        "    def module(self):\n"
        "        return self\n"
        "    def total(self):\n"
        "        return 0\n"
        "    def scale(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
    )
    script = tmp_path / "script.py"
    script.write_text("print(pair.sub, pair.module, field.total, field.scale(), field.size)\n")
    # sub, module and total are read only as data attributes; scale is
    # called, and size, a property, is read as an attribute
    assert unread_public_defs([lib], [lib, script]) == [
        "lib.py:11 Field.sub",
        "lib.py:13 Field.module",
        "lib.py:15 Field.total",
    ]
