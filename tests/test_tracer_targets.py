"""Every boundary the perfbench tracer wraps still resolves in its home
module.  The perfbench self-tests check this too, but they run the whole
benchmark corpus; this guard catches a renamed or moved name in a second.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
