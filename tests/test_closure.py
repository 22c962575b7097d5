"""Closure of prescribed sections to a quasi-coherent sub-representation.

Expected generator sets are frozen from hand computation: on P^1 the
transition entries are unit monomials, so one pullback per edge recovers a
generator of the near module, and spans stabilize within two cycles.

Seeds that are not in normal form, with monomials that meet on one Laurent
exponent, close to the same report whether a chart converts through its
monomial tables or through ChartData's table-free code.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from sheafrep_oracle import direct_sum

from qsheaf import charts, closure
from qsheaf.cli import EXIT_INTERNAL, JobSpec, run
from qsheaf.closure import (
    ClosureResult,
    SubRep,
    induced_rep,
    make_section_set,
    pullback_witness,
    qc_closure,
    verify_subrep,
    verify_witness,
)
from qsheaf.exactpoly import Field, poly_from_str
from qsheaf.sheafrep import (
    build_proj_quiver,
    is_quasi_coherent,
    map_is_injective,
    push,
    structure_sheaf,
    twist,
)

Q = Field.rationals()
V0, V1, V01 = frozenset({0}), frozenset({1}), frozenset({0, 1})


def span_equal(sub, v, vectors):
    """Mutual containment of the sub's span and the span of `vectors`."""
    from qsheaf.charts import span_contains, span_gb

    chart = sub.ambient.quiver.chart(v)
    mod = sub.ambient.modules[frozenset(v)]
    other = span_gb(chart, list(vectors) + list(mod.relations), mod.gens)
    fwd = all(span_contains(chart, other, g) for g in sub.sections[frozenset(v)])
    bwd = all(sub.contains(v, x) for x in vectors)
    return fwd and bwd


@pytest.mark.parametrize(
    "case,message",
    [
        ("unknown-vertex", "no vertex {2}"),
        ("wrong-width", "section at {0} has wrong width"),
        ("foreign-ring", "section at {0} lives in a foreign ring"),
    ],
)
def test_make_section_set_rejects(case, message):
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    one = q.chart(V0).ring.one()
    mapping = {
        "unknown-vertex": {frozenset({2}): [(one,)]},
        "wrong-width": {V0: [(one, one)]},
        "foreign-ring": {V0: [(q.chart(V1).ring.one(),)]},
    }[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        make_section_set(rep, mapping)


def test_edge_closure_empty():
    # nothing to pull back or push: no witnesses, no generators anywhere
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    res = qc_closure(rep, make_section_set(rep, {}), max_cycles=2)
    assert res.witnesses == () and res.trace == ((),)
    assert all(not rows for rows in res.sub.sections.values())


def test_edge_closure_structure_sheaf():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    one_w = (q.chart(V01).ring.one(),)
    wit = pullback_witness(rep, (V0, V01), one_w)
    (part,) = wit.parts
    assert part.preimage == (q.chart(V0).ring.one(),)
    assert part.power == 0
    assert part.unit == q.chart(V01).ring.one()
    assert verify_witness(rep, wit)
    assert push(rep, (V0, V01), part.preimage) == one_w
    res = qc_closure(rep, make_section_set(rep, {V01: [one_w]}), max_cycles=4)
    assert res.stabilized
    assert res.sub.contains(V0, part.preimage) and res.sub.contains(V01, one_w)
    assert all(verify_witness(rep, w) for w in res.witnesses)


def test_edge_closure_twist_unit_coefficient():
    # pulling the overlap generator of O(1) back through the pivot-changing
    # edge leaves the preimage 1 with the invertible coefficient u1
    q = build_proj_quiver(Q, 1)
    rep = twist(q, 1)
    chart = q.chart(V01)
    wit = pullback_witness(rep, (V1, V01), (chart.ring.one(),))
    (part,) = wit.parts
    assert part.preimage == (q.chart(V1).ring.one(),)
    assert part.unit == chart.u(1)
    assert part.power == 0
    assert verify_witness(rep, wit)
    res = qc_closure(rep, make_section_set(rep, {V01: [(chart.ring.one(),)]}), max_cycles=4)
    assert res.stabilized and res.sub.contains(V1, part.preimage)


# Changes to one field of a witness part after which the identity the
# witness claims no longer holds.
TAMPERS = {
    "power": lambda part: replace(part, power=part.power + 1),
    "unit": lambda part: replace(part, unit=part.unit.scale(2)),
}


def _tampered(field):
    """pullback_witness with TAMPERS[field] applied to every part."""
    real = closure.pullback_witness

    def tampered(rep, edge, element):
        wit = real(rep, edge, element)
        return replace(wit, parts=tuple(map(TAMPERS[field], wit.parts)))

    return tampered


@pytest.mark.parametrize("field", sorted(TAMPERS))
def test_qc_closure_rejects_a_witness_that_does_not_verify(monkeypatch, field):
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    seed = make_section_set(rep, {V01: [(q.chart(V01).ring.one(),)]})
    monkeypatch.setattr(closure, "pullback_witness", _tampered(field))
    with pytest.raises(RuntimeError, match=re.escape("pullback witness along edge {0}->{0,1}")):
        qc_closure(rep, seed, max_cycles=4)


@pytest.mark.parametrize("field", sorted(TAMPERS))
def test_closure_job_with_a_bad_witness_exits_four(monkeypatch, fixture_dir, field):
    monkeypatch.setattr(closure, "pullback_witness", _tampered(field))
    job = JobSpec(
        command="closure",
        inputs=(str(fixture_dir / "twist_p1_k1.txt"),),
        seed_file=str(fixture_dir / "seed_twist_p1_k1.txt"),
        max_cycles=3,
    )
    report = run(job)
    assert report.exit_status == EXIT_INTERNAL and not report.ok
    ((name, verdict),) = report.verdicts
    assert name == "internal-error"
    assert verdict.startswith("RuntimeError: pullback witness along edge ")


def test_qc_closure_empty_seed():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    res = qc_closure(rep, make_section_set(rep, {}), max_cycles=4)
    assert res.stabilized and res.cycles == 1
    assert all(not rows for rows in res.sub.sections.values())
    assert res.report is not None and res.report.ok


def test_qc_closure_structure_sheaf_full():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    seed = make_section_set(rep, {V0: [(q.chart(V0).ring.one(),)]})
    res = qc_closure(rep, seed, max_cycles=6)
    assert res.stabilized and res.cycles <= 2
    for v in q.vertices:
        assert res.sub.contains(v, (q.chart(v).ring.one(),))
    assert res.report.ok
    for wit in res.witnesses:
        assert verify_witness(rep, wit)


def test_qc_closure_recovers_line_summand():
    # seeding the first-coordinate generator over the overlap recovers the
    # twisted summand exactly, with nothing in the second coordinate
    q = build_proj_quiver(Q, 1)
    rep = direct_sum(twist(q, 1), structure_sheaf(q))
    chart = q.chart(V01)
    seed = make_section_set(rep, {V01: [(chart.ring.one(), chart.ring.zero())]})
    res = qc_closure(rep, seed, max_cycles=6)
    assert res.stabilized and res.cycles <= 3
    for v in q.vertices:
        ring = q.chart(v).ring
        for g in res.sub.sections[v]:
            assert g[1].is_zero()
        assert span_equal(res.sub, v, [(ring.one(), ring.zero())])
    assert res.report.ok


def test_qc_closure_budget_exhaustion():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    seed = make_section_set(rep, {V0: [(q.chart(V0).ring.one(),)]})
    res = qc_closure(rep, seed, max_cycles=1)
    assert not res.stabilized
    assert res.cycles == 1
    assert len(res.trace) == 1 and res.trace[0]
    # seed containment holds even in the truncated run
    assert res.sub.contains(V0, (q.chart(V0).ring.one(),))


def test_qc_closure_rejects_bad_budget_and_ambient():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    with pytest.raises(ValueError):
        qc_closure(rep, make_section_set(rep, {}), max_cycles=0)
    broken = rep.replaced_edge((V0, V01), ((q.chart(V01).ring.zero(),),))
    with pytest.raises(ValueError):
        qc_closure(broken, make_section_set(broken, {}), max_cycles=2)


@pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3])
def test_single_section_twist_suite_stabilizes_fast(k):
    q = build_proj_quiver(Q, 1)
    rep = twist(q, k)
    seed = make_section_set(rep, {V0: [(q.chart(V0).ring.one(),)]})
    res = qc_closure(rep, seed, max_cycles=5)
    assert res.stabilized and res.cycles <= 3
    assert verify_subrep(res.sub).ok


def test_verify_subrep_on_closure_output_and_full_ambient():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    seed = make_section_set(rep, {V0: [(q.chart(V0).ring.one(),)]})
    res = qc_closure(rep, seed, max_cycles=6)
    assert verify_subrep(res.sub).ok
    full = SubRep(rep)
    for v in q.vertices:
        full.add(v, (q.chart(v).ring.one(),))
    assert verify_subrep(full).ok


def test_verify_subrep_catches_truncation():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    crippled = SubRep(rep)
    crippled.add(V0, (q.chart(V0).ring.one(),))
    crippled.add(V1, (q.chart(V1).ring.one(),))
    # overlap list left empty: edge-image containment must fail
    report = verify_subrep(crippled)
    assert not report.ok
    assert not report.edges_closed
    assert report.findings


def test_closure_on_skyscraper_ambient():
    # quotient supported at one point: the only sections live on chart {1}
    q = build_proj_quiver(Q, 1)
    from qsheaf.sheafrep import graded_sheaf

    rep = graded_sheaf(q, [0], [(poly_from_str(q.xring, "x0"),)])
    assert is_quasi_coherent(rep).ok
    seed = make_section_set(rep, {V1: [(q.chart(V1).ring.one(),)]})
    res = qc_closure(rep, seed, max_cycles=5)
    assert res.stabilized
    assert res.report.ok
    assert res.sub.ambient.modules[V0].are_zero(res.sub.sections[V0])


def test_induced_rep_inclusion_injective():
    q = build_proj_quiver(Q, 1)
    rep = twist(q, 2)
    seed = make_section_set(rep, {V0: [(q.chart(V0).ring.one(),)]})
    res = qc_closure(rep, seed, max_cycles=5)
    ind, incl = induced_rep(res.sub)
    assert is_quasi_coherent(ind).ok
    assert map_is_injective(incl)


@pytest.mark.parametrize(
    "section,verdict,trace",
    [
        # z1*u1 - 1 is zero in the chart: nothing to close
        ("z1*u1 - 1 | 0", "pass (cycle 1)", [[]]),
        ("z1^2*u1 + 2*z1 | u1", "pass (cycle 2)", [[["{0,1}", 1], ["{0}", 2], ["{1}", 2]], []]),
    ],
    ids=["zero", "non-normal"],
)
def test_non_normal_seeds_close_alike_without_the_tables(monkeypatch, fixture_dir, tmp_path, section, verdict, trace):
    seed = tmp_path / "seed.txt"
    seed.write_text(f"kind sections\nsection {{0,1}} {section}\n")
    job = JobSpec(
        command="closure",
        inputs=(str(fixture_dir / "sum_o1_o0_p1.txt"),),
        seed_file=str(seed),
        machine=True,
    )
    tabled = run(job)
    assert tabled.exit_status == 0 and ("stabilized", verdict) in tabled.verdicts
    assert json.loads(tabled.machine_text())["certificates"]["trace"] == trace
    for name in ("laurent_of_exp", "to_laurent", "_exp_of_laurent", "from_laurent"):
        monkeypatch.setattr(charts.ChartRing, name, getattr(charts.ChartData, name))
    assert run(job).machine_text() == tabled.machine_text()
