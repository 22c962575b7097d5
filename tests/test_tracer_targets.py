"""Every boundary the perfbench tracer wraps still resolves in its home
module, and every traced `hill` name is reached by `hill-verify` on the
shipped Hill fixtures.  The perfbench self-tests check both, but they run
the whole benchmark corpus; these guards catch a renamed, moved or no
longer called name in a second.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

from qsheaf import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
HILL_FIXTURES = sorted((ROOT / "fixtures").glob("hill_*.txt"))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
NAMES = [
    (layer, attr)
    for table in (_tracer.TARGETS, _tracer.COUNTED_GENERATORS)
    for layer, attrs in table.items()
    for attr in attrs
]


@pytest.mark.parametrize("layer,attr", NAMES, ids=["%s.%s" % n for n in NAMES])
def test_traced_name_resolves_in_its_home_module(layer, attr):
    home = importlib.import_module("qsheaf." + layer)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(home, cls_name).__dict__[meth])
    else:
        assert callable(getattr(home, attr))


def test_hill_verify_reaches_every_traced_hill_name():
    assert len(HILL_FIXTURES) == 6
    rec = _tracer.Tracer()
    rec.install()
    try:
        for path in HILL_FIXTURES:
            cli.run(cli.JobSpec("hill-verify", inputs=(str(path),), machine=True))
    finally:
        rec.uninstall()
    reached = set(rec.span_counts())
    reached |= {k.rsplit(".", 1)[0] for k in rec.counts if k.endswith(".calls")}
    wanted = {
        "hill." + attr
        for table in (_tracer.TARGETS, _tracer.COUNTED_GENERATORS)
        for attr in table["hill"]
    }
    assert wanted - reached == set()
