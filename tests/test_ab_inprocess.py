"""`scripts/ab_inprocess.py` times two trees in fresh interpreters on one
corpus: a smoke run of one hill-lattice pair of this tree against itself,
with one round, prints both sides and finds the same machine bodies; and an
interpreter refuses to time a tree whose `src` is not where `qsheaf` came
from.
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_inprocess.py"


def test_one_hill_lattice_pair_of_the_tree_against_itself(tmp_path):
    args = [str(ROOT), str(ROOT), "--workload", "hill-lattice", "--seed", "0", "--rounds", "1"]
    args += ["--pairs", "1", "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, str(SCRIPT)] + args, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pair 0 (old first): old ")
    assert lines[1] == "hill-lattice seed 0, 1 round(s), at the reference speed:"
    assert lines[2].startswith("old  median ") and lines[3].startswith("new  median ")
    assert lines[4] in ("new faster in 0 of 1 pairs", "new faster in 1 of 1 pairs")
    assert lines[5] == "machine bodies: identical"
    assert (tmp_path / "hill-lattice-0" / "manifest.json").is_file()


def test_an_interpreter_refuses_a_tree_whose_src_it_did_not_import(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    import qsheaf  # noqa: F401  (imported already: the other tree's src is not read)

    with pytest.raises(AssertionError, match="not from"):
        module.child(tmp_path / "elsewhere", tmp_path)
