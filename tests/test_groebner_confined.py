"""Groebner code has one client outside `exactpoly`: `charts`.

Every Groebner run over a chart ring is made, memoized and read by
`charts` (span_gb, FPModule, ChartRing.generates_one), so no other module
imports a Groebner name.  Two imports are allowed by name: `cli` runs its
selftest on `groebner_basis` and `module_kernel` directly, and `sheafrep`
re-exports `module_kernel`, which perfbench patches there.  This test walks
the syntax tree of every module of the package.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qsheaf"
GROEBNER = {
    "groebner_basis",
    "normal_form",
    "reduce_vec",
    "TrackedBasis",
    "syzygies",
    "module_kernel",
    "PresIdeal",
    "ideal_contains_one",
}
CLIENTS = {"exactpoly", "charts"}
ALLOWED = {
    "cli": {"groebner_basis", "module_kernel"},
    "sheafrep": {"module_kernel"},
}


def _imports(path: pathlib.Path) -> set:
    """The Groebner names the file imports, from any module; a whole-module
    import of exactpoly counts as its name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names if a.name in GROEBNER | {"exactpoly"}}
            if (node.module or "").split(".")[-1] == "exactpoly" and any(a.name == "*" for a in node.names):
                found.add("exactpoly")
        elif isinstance(node, ast.Import):
            found |= {"exactpoly" for a in node.names if a.name.split(".")[-1] == "exactpoly"}
    return found


def test_only_charts_imports_groebner_names():
    found = {path.stem: _imports(path) for path in sorted(SRC.glob("*.py")) if path.stem not in CLIENTS}
    assert {stem: names for stem, names in found.items() if names} == ALLOWED


def test_the_walk_sees_every_form_of_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from .exactpoly import Field, PresIdeal, ideal_contains_one\n"
        "from .charts import normal_form as nf\n"
        "from . import exactpoly\n"
        "import qsheaf.exactpoly\n"
        "def f():\n"
        "    from .exactpoly import TrackedBasis\n",
        encoding="utf-8",
    )
    assert _imports(path) == {"PresIdeal", "ideal_contains_one", "normal_form", "exactpoly", "TrackedBasis"}
    path.write_text("from .exactpoly import *\n", encoding="utf-8")
    assert _imports(path) == {"exactpoly"}
