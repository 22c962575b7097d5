"""One term reader: each Laurent term is read once, by the object that owns it.

A module keeps the Laurent forms of its relation rows (`FPModule.laurent`):
`graded_sheaf` hands in the rows it dehomogenized once per pivot, and any
other module reads its own with `ChartRing.to_laurent` on first use.  A
representation keeps the diagonal of each edge matrix in `rep.terms`, seeded
from the skeleton by `graded_sheaf` and otherwise read by `sheafrep._diagonal`
when `is_quasi_coherent` first asks.  On the graded inputs of
`test_skeletons`, and on the modules made from them by localization,
`kernel`, `cokernel` and `_present`, both must be what `to_laurent` and
`_diagonal_terms` read off the polynomials, which stay as the oracle.
Graded `check-qc` on the Euler sequence of `P^3` reads no relation entry.
"""

from __future__ import annotations

import pathlib

from hypothesis import given, settings
from test_skeletons import graded_inputs

from qsheaf import charts, sheaffile
from qsheaf.bundles import serre_cover
from qsheaf.charts import _diagonal_terms, localize_module
from qsheaf.cli import JobSpec, run
from qsheaf.exactpoly import vec_unit
from qsheaf.sheafrep import _present, cokernel, graded_sheaf, is_quasi_coherent, kernel

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _read(module) -> tuple:
    return tuple(tuple(map(module.chart.to_laurent, row)) for row in module.relations)


def _check_terms(rep) -> None:
    """Every module's Laurent rows, those of its localization along every
    edge, and every diagonal rep.terms keeps after is_quasi_coherent."""
    quiver = rep.quiver
    for module in rep.modules.values():
        assert module.laurent == _read(module)
    for v, w in quiver.edges:
        localized = localize_module(rep.modules[v], quiver.hom(v, w))
        assert localized.laurent == _read(localized)
    is_quasi_coherent(rep)
    assert set(quiver.edges) <= set(rep.terms)
    for v, w in quiver.edges:
        assert rep.terms[(v, w)] == _diagonal_terms(quiver.chart(w), rep.edge_maps[(v, w)])


@settings(max_examples=40, deadline=None)
@given(graded_inputs())
def test_kept_terms_are_the_terms_read_off_the_polynomials(data):
    quiver, degrees, rows = data
    rep = graded_sheaf(quiver, degrees, rows)
    cover = serre_cover(rep)
    units = {
        v: tuple(vec_unit(quiver.chart(v).ring, len(degrees), j) for j in range(len(degrees)))
        for v in quiver.vertices
    }
    for derived in (rep, cokernel(cover), kernel(cover)[0], _present(rep, units)[0]):
        _check_terms(derived)


def test_graded_check_qc_on_euler_p3_reads_no_relation_entry(monkeypatch):
    reps, seen = [], []
    real_sheaf, real_read = sheaffile.graded_sheaf, charts.ChartRing.to_laurent

    def keeping(*args, **kwargs):
        reps.append(real_sheaf(*args, **kwargs))
        return reps[-1]

    def counting(chart, p):
        seen.append(p)
        return real_read(chart, p)

    monkeypatch.setattr(sheaffile, "graded_sheaf", keeping)
    monkeypatch.setattr(charts.ChartRing, "to_laurent", counting)
    report = run(JobSpec("check-qc", inputs=(str(FIXTURES / "euler_q_p3.txt"),), machine=True))
    assert report.exit_status == 0 and len(reps) == 1
    entries = {id(p) for module in reps[0].modules.values() for row in module.relations for p in row}
    assert len(entries) > 0
    assert [p for p in seen if id(p) in entries] == []
