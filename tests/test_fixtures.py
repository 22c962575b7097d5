"""The shipped fixture corpus is exactly what scripts/make_fixtures.py writes.

The script is run with its output directory pointed at a temporary one, and
every file it writes must match the copy under fixtures/ byte for byte.  The
Hill fixtures' `stage` lines come from `hill.fp_rref`, so this also pins
the echelon forms the elimination routine produces.
"""

from __future__ import annotations

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_fixtures.py"


def test_make_fixtures_reproduces_the_corpus(tmp_path, fixture_dir, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = tmp_path
    script.main()
    written = sorted(path.name for path in tmp_path.glob("*.txt"))
    assert written == sorted(path.name for path in fixture_dir.glob("*.txt"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes(), name
    assert "fixture corpus complete: %d files" % len(written) in capsys.readouterr().out
