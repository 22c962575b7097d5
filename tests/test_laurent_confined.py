"""Laurent polynomials never reach Groebner code.

Laurent entries on P^1 are Polys of `bundles.laurent_ring`, whose exponents
may be negative; Buchberger and division assume nonnegative exponents.  A
runtime check in `groebner_basis` or `normal_form` would sit on every chart
computation, so this test pins the boundary instead: it wraps
`exactpoly._buchberger` and `exactpoly.reduce_vec`, through which every
basis, normal form and lift runs, and runs `split-p1` and `filter-p1` on the
shipped transitions and on the transitions of the `closure-lift` corpus.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

from qsheaf import charts, cli, exactpoly
from qsheaf.bundles import laurent_ring
from qsheaf.exactpoly import Poly, PolyRing

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
WRAPPED = ("_buchberger", "reduce_vec")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _laurent_values(obj):
    """The Laurent rings, Laurent-ring Polys and Polys with a negative
    exponent inside nested tuples, lists and dicts."""
    if isinstance(obj, PolyRing):
        return [obj] if obj == laurent_ring(obj.field) else []
    if isinstance(obj, Poly):
        signed = any(e < 0 for exp in obj.terms for e in exp)
        return [obj] if signed or obj.ring == laurent_ring(obj.ring.field) else []
    if isinstance(obj, dict):
        obj = list(obj.items())
    if isinstance(obj, (tuple, list)):
        return [hit for item in obj for hit in _laurent_values(item)]
    return []


def _wrap(monkeypatch, seen):
    for module in (exactpoly, charts):
        for name in WRAPPED:
            if not hasattr(module, name):
                continue

            def wrapped(*args, _inner=getattr(module, name), _name=name, **kwargs):
                seen.append((_name, _laurent_values((args, kwargs))))
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)


def test_p1_commands_keep_laurent_polynomials_out_of_groebner_code(tmp_path, monkeypatch):
    inputs = [("split-p1", path) for path in sorted((ROOT / "fixtures").glob("trans_*.txt"))]
    inputs += [("filter-p1", path) for _, path in inputs]
    jobs = [job for batch in _load_workloads().generate("closure-lift", 0, 2, str(tmp_path)) for job in batch]
    corpus = [(job.command, tmp_path / job.name) for job in jobs if job.command in ("split-p1", "filter-p1")]
    assert {command for command, _ in corpus} == {"split-p1", "filter-p1"}
    seen = []
    _wrap(monkeypatch, seen)
    for command, path in inputs + corpus:
        assert cli.run(cli.JobSpec(command, (str(path),))).exit_status == cli.EXIT_OK, path
    assert {name for name, _ in seen} == set(WRAPPED)
    assert [hits for _, hits in seen if hits] == []


def test_the_probe_sees_laurent_values():
    ring = laurent_ring(exactpoly.Field.rationals())
    chart_ring = PolyRing(ring.field, ("z1",))
    assert _laurent_values([(chart_ring.one(),), {"ring": chart_ring}]) == []
    signed = Poly(chart_ring, {(-1,): 1})
    assert _laurent_values(((ring.one(),), [signed], ring)) == [ring.one(), signed, ring]
