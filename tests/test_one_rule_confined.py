"""One membership path for sub-representations and one coefficient rule.

`sheafrep.SubRep` asks its ambient module's lifter (`FPModule.lifter`) for
membership, so it names neither `span_gb` nor `span_contains`.  The sums of
terms (`Poly`'s `+`, `-` and `*`, `PolyRing.collect`, `exactpoly.mat_apply`
and `exactpoly._combination`) add raw values and settle them once with
`Field.settle`, so none of them calls a `Field`'s `add`, `sub` or `mul`.
This test walks the syntax trees of `sheafrep` and `exactpoly` to keep it
so.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qsheaf"
SECOND_PATH = {"span_gb", "span_contains"}
PER_TERM = {"add", "sub", "mul"}
SUMS = {
    "exactpoly.py": (
        "Poly.__add__", "Poly.__sub__", "Poly.__mul__", "PolyRing.collect", "mat_apply", "_combination",
    ),
}


def _definitions(path: pathlib.Path) -> dict:
    """Every function and class of the file by its dotted name in the file."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                found[name] = child
                visit(child, name + ".")

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _names(node) -> set:
    """Every name the node uses, bare or as an attribute."""
    return {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name))
    }


def _method_calls(node) -> set:
    """The attribute names the node calls, such as add for f.add(a, b)."""
    return {
        n.func.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }


def test_subrep_has_no_membership_path_of_its_own():
    subrep = _definitions(SRC / "sheafrep.py")["SubRep"]
    assert _names(subrep) & SECOND_PATH == set()
    assert "lifter" in _names(subrep)


def test_sums_of_terms_settle_once():
    for filename, names in SUMS.items():
        found = _definitions(SRC / filename)
        for name in names:
            calls = _method_calls(found[name])
            assert calls & PER_TERM == set(), (filename, name)
            assert "settle" in calls, (filename, name)


def test_the_walk_sees_per_term_calls_and_the_second_path(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "class SubRep:\n"
        "    def contains(self, v, vec):\n"
        "        return span_contains(self.chart, self.span(v), vec)\n"
        "def _collect(f, pairs):\n"
        "    return {e: f.add(0, c) for e, c in pairs}\n",
        encoding="utf-8",
    )
    found = _definitions(path)
    assert set(found) == {"SubRep", "SubRep.contains", "_collect"}
    assert _names(found["SubRep"]) & SECOND_PATH == {"span_contains"}
    assert _method_calls(found["_collect"]) & PER_TERM == {"add"}
