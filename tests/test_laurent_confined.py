"""Laurent polynomials never reach Groebner code.

Laurent entries on P^1 are Polys of `bundles.laurent_ring`, and the Laurent
forms of chart elements are Polys of the x ring of P^n (`charts.x_ring`);
the exponents of both may be negative, and Buchberger and division assume
nonnegative exponents.  A runtime check in `groebner_basis` or
`normal_form` would sit on every chart computation, so this test pins the
boundary instead: it wraps `exactpoly._buchberger` and
`exactpoly.reduce_vec`, through which every basis, normal form and lift
runs, and runs `split-p1` and `filter-p1` on the shipped transitions,
`vdim-witness` and `lazard` on the shipped Euler quotients, `closure` on
the shipped seed fixtures, and each of these commands on its inputs in the
`closure-lift` corpus.  No value of a Laurent ring, x ring or with a
negative exponent may reach either.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

from qsheaf import charts, cli, exactpoly
from qsheaf.bundles import laurent_ring
from qsheaf.charts import x_ring
from qsheaf.exactpoly import Poly, PolyRing

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
WRAPPED = ("_buchberger", "reduce_vec")
FIXTURES = ROOT / "fixtures"
COMMANDS = ("split-p1", "filter-p1", "vdim-witness", "lazard", "closure")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _is_laurent_ring(ring: PolyRing) -> bool:
    """The ring of P^1's transitions or the x ring of the charts' Laurent
    forms."""
    return ring == laurent_ring(ring.field) or ring == x_ring(ring.field, ring.nvars - 1)


def _laurent_values(obj):
    """The Laurent rings (laurent_ring and x rings), their Polys and Polys
    with a negative exponent inside nested tuples, lists and dicts."""
    if isinstance(obj, PolyRing):
        return [obj] if _is_laurent_ring(obj) else []
    if isinstance(obj, Poly):
        signed = any(e < 0 for exp in obj.terms for e in exp)
        return [obj] if signed or _is_laurent_ring(obj.ring) else []
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


def _shipped_jobs() -> list:
    """(job, expected exit status) on the shipped fixtures."""
    jobs = [
        cli.JobSpec(command, (str(path),))
        for command in ("split-p1", "filter-p1")
        for path in sorted(FIXTURES.glob("trans_*.txt"))
    ]
    jobs += [
        cli.JobSpec(command, (str(path),))
        for command in ("vdim-witness", "lazard")
        for path in sorted(FIXTURES.glob("euler_*.txt"))
    ]
    jobs += [
        cli.JobSpec("closure", (str(FIXTURES / seed.name[len("seed_"):]),), seed_file=str(seed))
        for seed in sorted(FIXTURES.glob("seed_*.txt"))
    ]
    return [(job, cli.EXIT_OK) for job in jobs]


def _corpus_jobs(tmp_path) -> list:
    """(job, planted exit status) for the guarded commands of the
    closure-lift corpus."""
    jobs = [job for batch in _load_workloads().generate("closure-lift", 0, 2, str(tmp_path)) for job in batch]
    return [
        (
            cli.JobSpec(
                job.command, (str(tmp_path / job.name),),
                seed_file=str(tmp_path / job.seed_file) if job.seed_file else None,
            ),
            job.exit,
        )
        for job in jobs
        if job.command in COMMANDS
    ]


def test_laurent_forms_stay_out_of_groebner_code(tmp_path, monkeypatch):
    shipped, corpus = _shipped_jobs(), _corpus_jobs(tmp_path)
    assert {job.command for job, _ in shipped} == {job.command for job, _ in corpus} == set(COMMANDS)
    seen = []
    _wrap(monkeypatch, seen)
    for job, status in shipped + corpus:
        assert cli.run(job).exit_status == status, job
    assert {name for name, _ in seen} == set(WRAPPED)
    assert [hits for _, hits in seen if hits] == []


def test_the_probe_sees_laurent_values():
    ring = laurent_ring(exactpoly.Field.rationals())
    chart_ring = PolyRing(ring.field, ("z1",))
    assert _laurent_values([(chart_ring.one(),), {"ring": chart_ring}]) == []
    signed = Poly(chart_ring, {(-1,): 1})
    assert _laurent_values(((ring.one(),), [signed], ring)) == [ring.one(), signed, ring]
    # a chart's Laurent form is seen by its ring even with no negative exponent
    chart = charts.make_chart_ring(ring.field, 2, {0, 1})
    laurent = chart.to_laurent(chart.ring.one())
    assert laurent.ring is chart.xring and _laurent_values([{"rows": ((laurent,),)}]) == [laurent]
