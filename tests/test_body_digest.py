"""`scripts/body_digest.py` names the machine reports of a generated corpus
by one digest, whatever directory the corpus is written to."""

from __future__ import annotations

import importlib.util
import os
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "body_digest.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("body_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_does_not_depend_on_the_corpus_directory(tmp_path):
    body_digest = _load_script()
    here = os.getcwd()
    first = body_digest.digest("hill-lattice", 0, 1, tmp_path / "a")
    second = body_digest.digest("hill-lattice", 0, 1, tmp_path / "b" / "deeper")
    assert os.getcwd() == here
    assert len(first) == 64
    assert first == second
