"""Laurent terms are read in one place outside `charts`.

`sheafrep` and `sheaffile` read no chart polynomial as Laurent terms
themselves: a module's relation rows come from `FPModule.laurent`, and an
edge's diagonal from `sheafrep._diagonal`, which keeps it in `rep.terms`.
This test walks both modules' syntax trees and allows `to_laurent` and
`_diagonal_terms`, called or passed on, only inside that accessor.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qsheaf"
READERS = {"to_laurent", "_diagonal_terms"}
ACCESSOR = "_diagonal"


def _reads(path: pathlib.Path) -> list:
    """(enclosing function, name) of every use of a reader in the file."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name in READERS:
            found.append((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_sheafrep_and_sheaffile_read_terms_only_through_the_accessor():
    assert _reads(SRC / "sheaffile.py") == []
    assert _reads(SRC / "sheafrep.py") == [(ACCESSOR, "_diagonal_terms")]


def test_the_walk_sees_calls_and_passed_readers(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def f(chart, rows):\n"
        "    return [tuple(map(chart.to_laurent, r)) for r in rows], _diagonal_terms(chart, rows)\n",
        encoding="utf-8",
    )
    assert sorted(_reads(path)) == [("f", "_diagonal_terms"), ("f", "to_laurent")]
