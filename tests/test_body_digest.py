"""`scripts/body_digest.py` names the machine reports of a generated corpus
by one digest, whatever directory the corpus is written to.

The `hill-lattice` digests are pinned: they are the reports the Hill
verifier gave on that corpus before its elimination took canonical rows.  So
are the `closure-lift` digests, taken before Laurent entries on P^1 became
Polys; they cover every `split-p1` `left` and `right` certificate.  So are
the `sheaf-qc` digests, taken before graded edges and squares were decided
by comparing Laurent terms.  A
change that alters any of those reports, or the corpus
`perfbench/workloads.py` generates, fails here.  So does one that alters
what `qsheaf selftest --machine --rand-seed <seed>` prints for seeds 0, 1
and 7, pinned by its sha256.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib

from qsheaf.cli import main

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "body_digest.py"

# seed: digest of the hill-lattice corpus of that seed, two rounds
HILL_LATTICE = {
    0: "53dca3714921d20353eaf249b71cccf188a04200e0e93bb7e10e12702330379f",
    1: "ef91d28a0e9314d093f3ae784b6787a8f38250340a93e9107cfd56bcd90700f4",
    2: "5130968efcda81dc83b5bb25acb9c50ebc1feb2109f518ae29340b36b6efdf50",
}

# seed: digest of the closure-lift corpus of that seed, two rounds
CLOSURE_LIFT = {
    0: "cff91b2c5eb9bf79ddbc3472850a63bc5a5afc144126a22c747c5a6ce863aeb7",
    1: "87bdc5099c427bfcece03e0d54616716c4b44e810bf0af60776ff0c4ca1ae2ea",
    2: "6ebd0a0b7bf00cea6c10910fd3d3a2962ac17572ecf1f209286841b96f1dc2b9",
}

# seed: digest of the sheaf-qc corpus of that seed, two rounds
SHEAF_QC = {
    0: "d70278a3dc00f5e494aaa60b7dcbec2c2b8e6b22ede80809c4b7800da19e8200",
    1: "2bdb46b28d0ba088eaad12b0a8c54d17a417fcaaaf56d5e63474277e83cde6a1",
    2: "a7a0e615b2210e3c468a3473770727d9b411e35578610e066c31c753d125d502",
}

# seed: sha256 of the stdout of `qsheaf selftest --machine --rand-seed <seed>`
SELFTEST = {
    0: "ca5317fb547da1c97f5b4b758f086c16b28b3b74c08de15c8d28c6583bf53fa5",
    1: "3ffa4648a723cea8066691e3db611aa09622baf4bcfefd9a426ff640bd9d1fff",
    7: "ec46d0c701ea9005bde457be6db6addabe9d1ee476b08bee179fa2cfa534d06b",
}


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


def test_hill_lattice_bodies_keep_their_pinned_digests(tmp_path):
    body_digest = _load_script()
    got = {seed: body_digest.digest("hill-lattice", seed, 2, tmp_path / str(seed)) for seed in HILL_LATTICE}
    assert got == HILL_LATTICE


def test_closure_lift_bodies_keep_their_pinned_digests(tmp_path):
    body_digest = _load_script()
    got = {seed: body_digest.digest("closure-lift", seed, 2, tmp_path / str(seed)) for seed in CLOSURE_LIFT}
    assert got == CLOSURE_LIFT


def test_sheaf_qc_bodies_keep_their_pinned_digests(tmp_path):
    body_digest = _load_script()
    got = {seed: body_digest.digest("sheaf-qc", seed, 2, tmp_path / str(seed)) for seed in SHEAF_QC}
    assert got == SHEAF_QC


def test_selftest_bodies_keep_their_pinned_digests(capsys):
    got = {}
    for seed in SELFTEST:
        assert main(["selftest", "--machine", "--rand-seed", str(seed)]) == 0
        got[seed] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == SELFTEST
