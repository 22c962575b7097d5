"""The mutant registry of scripts/mutants.py stays in step with the code.

Each entry's old text occurs exactly once in its file, so the script can
apply it, and differs from its new text; the file compiles with the entry
applied, since the script counts a collection error (pytest exit 2) as a
kill, which a syntax error would make without any test failing; each test
it names is a test function of its file, so the script runs what the
entry says.  Whether the
named tests kill the mutants is the script's to show (it copies the tree
and runs pytest per mutant), not tier-1's.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _registry():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _registry()


def _test_functions(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}


def test_mutant_names_are_unique_and_each_names_a_test():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
    assert all(m.tests for m in MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutated_file_compiles(mutant):
    path = ROOT / mutant.path
    compile(path.read_text().replace(mutant.old, mutant.new), str(path), "exec")


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_named_tests_exist(mutant):
    for node in mutant.tests:
        path, name = node.split("::")
        assert name in _test_functions(ROOT / path), node
