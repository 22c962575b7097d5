"""Every boundary the perfbench tracer wraps still resolves in its home
module, every traced `hill` name is reached by `hill-verify` on the
shipped Hill fixtures and one failing family with a two-vector extension
class, and every traced `closure` name by `closure` on the
shipped seed fixtures.  The perfbench self-tests check the same, but they run
the whole benchmark corpus; these guards catch a renamed, moved or no
longer called name in a second.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

from qsheaf import cli
from qsheaf.hill import make_filtered_module
from qsheaf.sheaffile import filtered_text

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
HILL_FIXTURES = sorted((ROOT / "fixtures").glob("hill_*.txt"))
SEED_FIXTURES = sorted((ROOT / "fixtures").glob("seed_*.txt"))


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


def _unreached(layer, jobs) -> set:
    """Traced names of `layer` that none of the jobs reaches."""
    rec = _tracer.Tracer()
    rec.install()
    try:
        for job in jobs:
            cli.run(job)
    finally:
        rec.uninstall()
    reached = set(rec.span_counts())
    reached |= {k.rsplit(".", 1)[0] for k in rec.counts if k.endswith(".calls")}
    wanted = {
        layer + "." + attr
        for table in (_tracer.TARGETS, _tracer.COUNTED_GENERATORS)
        for attr in table.get(layer, ())
    }
    return wanted - reached


def test_hill_verify_reaches_every_traced_hill_name(tmp_path):
    assert len(HILL_FIXTURES) == 6
    # every class of the shipped failing family has a one-vector V_N, whose
    # example needs no enumerate_space; block 1 here makes a two-vector one
    module = make_filtered_module(2, 4, (((1, 0, 0, 0),), ((0, 1, 0, 0), (0, 0, 1, 0)), ((0, 0, 0, 1),)))
    wide = tmp_path / "hill_wide_class_f2.txt"
    wide.write_text(filtered_text(module, [(), (2,), (0,), (1, 2), (0, 2), (0, 1), (0, 1, 2)]))
    jobs = [
        cli.JobSpec("hill-verify", inputs=(str(path),), machine=True) for path in HILL_FIXTURES + [wide]
    ]
    assert _unreached("hill", jobs) == set()


def test_closure_reaches_every_traced_closure_name():
    assert len(SEED_FIXTURES) == 6
    jobs = [
        cli.JobSpec(
            "closure",
            inputs=(str(path.with_name(path.name[len("seed_"):])),),
            seed_file=str(path),
            machine=True,
        )
        for path in SEED_FIXTURES
    ]
    assert _unreached("closure", jobs) == set()
