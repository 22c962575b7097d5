"""The process-level table of quiver skeletons, and the Laurent terms a
representation carries.

Every ProjQuiver of one (field, n) key of P^n shares a skeleton
(sheafrep._skeleton): vertices, edges, each chart's ChartData and, per
degree tuple, the graded edge matrices with their diagonals as Laurent
terms.  The table keeps the SKELETONS keys used last, and a skeleton the
GRADED_EDGES degree tuples used last; an evicted entry is rebuilt equal.
A quiver on a subscheme shares the skeleton of its (field, n) and adds no
key to the table.  A job gets the same report from a cold table as from a
warm one, and a mutant made from a graded sheaf leaves the shared matrices
alone.

graded_sheaf seeds rep.terms with the diagonals of its edges, from the
degrees, and hands each module the Laurent rows of its relations, read once
per pivot; both must be what _diagonal_terms and ChartRing.to_laurent read
off the polynomials, which stay as the oracle, and neither is read again.
A module writes those rows as chart polynomials on first read, equal to
the rows written at once.  The skeleton asks _square_by_terms of each
square once per degree tuple, which must be what a fresh check of the
representation finds, and graded_sheaf starts with no square findings only
when it passes.  A sheafrep file has its squares checked once: the
parser's findings travel in rep.terms to is_quasi_coherent.

The chart of a subscheme is the shared chart of its (field, n) with the
dehomogenized ideal: attribute by attribute, the chart built from scratch,
with the ideal dehomogenized by the oracle's index loop, on the shared
ring, all but the run memo and the monomial tables, which fill as the
chart is used.  A job leaves every shared ChartData as it was.
"""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import charts_oracle

from qsheaf import charts, sheafrep
from qsheaf.cli import JobSpec, run
from qsheaf.exactpoly import Field
from qsheaf.sheaffile import parse_sheaf_file, sheafrep_text
from qsheaf.sheafrep import (
    GRADED_EDGES,
    SKELETONS,
    SheafRep,
    _diagonal_terms,
    _skeleton,
    build_proj_quiver,
    graded_sheaf,
    is_quasi_coherent,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
Q = Field(0)


def _chart_data(data) -> tuple:
    return (
        data.ring, data.vertex, data.pivot, data.ideal_gens, data.inversions, data.jays,
        data.relations, data._z_index, data._u_index, data._var_laurent,
    )


def _snapshot(skeleton, degrees) -> tuple:
    """Everything a skeleton holds for these degrees, compared by value,
    each chart's data read off a ChartRing on it."""
    data = {v: _chart_data(charts.ChartRing(skeleton.chart(v))) for v in skeleton.vertices}
    return skeleton.vertices, skeleton.edges, skeleton.xring, data, skeleton.graded_edges(degrees)


def test_the_table_keeps_its_bound_and_an_evicted_key_rebuilds_equal_data():
    _skeleton.cache_clear()
    degrees = (1, 0, -2)
    first = build_proj_quiver(Field(5), 2)
    before = _snapshot(first.skeleton, degrees)
    others = [(p, n) for p in (0, 2, 3, 7, 11, 13) for n in (1, 2, 3)][:SKELETONS]
    for p, n in others:
        build_proj_quiver(Field(p), n)
        assert _skeleton.cache_info().currsize <= SKELETONS
    assert _skeleton.cache_info().misses == SKELETONS + 1
    again = build_proj_quiver(Field(5), 2)
    assert again.skeleton is not first.skeleton
    assert _snapshot(again.skeleton, degrees) == before
    assert _skeleton.cache_info().currsize == SKELETONS


def test_a_subscheme_key_is_not_stored():
    _skeleton.cache_clear()
    plain = build_proj_quiver(Field(5), 2)
    xr = plain.xring
    for c in range(1, SKELETONS + 1):
        ideal = (xr.var(0) - xr.var(1).scale(c % 5) - xr.var(2).scale(c // 5),)
        quiver = build_proj_quiver(Field(5), 2, ideal)
        assert quiver.ideal_gens == quiver.chart({0}).ideal_gens == ideal
        assert quiver.skeleton is plain.skeleton
        # one x ring per (field, n), the ring of every chart's Laurent forms
        assert quiver.chart({0}).xring is quiver.xring is xr
        assert build_proj_quiver(Field(5), 2, ideal).skeleton is plain.skeleton
    info = _skeleton.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_a_skeleton_keeps_its_bound_of_degree_tuples():
    skeleton = build_proj_quiver(Q, 2).skeleton
    first = skeleton.graded_edges((-9, 9))
    before = _snapshot(skeleton, (-9, 9))
    for d in range(GRADED_EDGES):
        skeleton.graded_edges((d, -d, 1))
        assert len(skeleton._graded) <= GRADED_EDGES
    assert (-9, 9) not in skeleton._graded
    assert skeleton.graded_edges((-9, 9)) is not first
    assert _snapshot(skeleton, (-9, 9)) == before


def test_edges_that_share_a_far_chart_and_pivot_share_their_matrix():
    quiver = build_proj_quiver(Q, 3)
    maps, diagonals, squares = quiver.skeleton.graded_edges((2, -1))
    assert squares
    for e in quiver.edges:
        for f in quiver.edges:
            if e[1] == f[1] and min(e[0]) == min(f[0]):
                assert maps[e] is maps[f] and diagonals[e] is diagonals[f]
    assert len({id(m) for m in maps.values()}) < len(maps)


def test_a_job_on_a_cold_table_reports_what_it_reports_on_a_warm_one():
    job = JobSpec("is-bundle", inputs=(str(FIXTURES / "euler_q_p3.txt"),), machine=True)
    _skeleton.cache_clear()
    cold = run(job).machine_text()
    assert run(job).machine_text() == cold


def test_a_p1_mutant_leaves_the_shared_matrices_alone(tmp_path):
    quiver = build_proj_quiver(Q, 1)
    degrees = (1, 0, -2)
    rep = graded_sheaf(quiver, degrees)
    maps, diagonals, _squares = quiver.skeleton.graded_edges(degrees)
    held = {e: (maps[e], tuple(map(tuple, maps[e])), diagonals[e]) for e in quiver.edges}
    edge = quiver.edges[-1]
    chart = quiver.chart(edge[1])
    bad = [list(r) for r in rep.edge_maps[edge]]
    bad[0][0] = bad[0][0] * (chart.z(1) + chart.ring.constant(2))
    mutant = rep.replaced_edge(edge, bad)
    assert mutant.terms == {} and mutant.graded is None
    assert not is_quasi_coherent(mutant).ok
    path = tmp_path / "mutant.txt"
    path.write_text(sheafrep_text(mutant), encoding="utf-8")
    assert run(JobSpec("check-qc", inputs=(str(path),), machine=True)).exit_status == 1
    later = graded_sheaf(build_proj_quiver(Q, 1), degrees)
    assert later.edge_maps == rep.edge_maps
    assert later.edge_maps[edge] is held[edge][0]
    for e, (matrix, rows, diagonal) in held.items():
        assert maps[e] is matrix and tuple(map(tuple, matrix)) == rows and diagonals[e] is diagonal
    assert is_quasi_coherent(later).ok


def test_a_sheafrep_file_has_its_squares_checked_once(monkeypatch, tmp_path):
    euler = parse_sheaf_file(str(FIXTURES / "euler_q_p3.txt"))
    path = tmp_path / "euler_p3_sheafrep.txt"
    path.write_text(sheafrep_text(SheafRep(euler.quiver, euler.modules, euler.edge_maps)), encoding="utf-8")
    calls = []
    real = sheafrep._square_by_terms

    # a square is told by its four diagonals, which _diagonal reads once
    # per edge of the representation
    def counting(fmul, d):
        calls.append(tuple(map(id, d)))
        return real(fmul, d)

    monkeypatch.setattr(sheafrep, "_square_by_terms", counting)
    report = run(JobSpec("check-qc", inputs=(str(path),), machine=True))
    assert report.exit_status == 0
    # P^3 has 4*3 + 6*1 = 18 squares; parse and check used to make 36
    assert len(calls) == len(set(calls)) == 18
    parsed = parse_sheaf_file(str(path))
    assert parsed.terms["squares"] == ()
    edge = parsed.quiver.edges[0]
    assert parsed.replaced_edge(edge, parsed.edge_maps[edge]).terms == {}


def _homogeneous(draw, xr, degree):
    """Zero, or a sum of up to three terms of this degree."""
    if degree < 0:
        return xr.zero()
    out = xr.zero()
    for _ in range(draw(st.integers(0, 3))):
        exp = [0] * xr.nvars
        for _ in range(degree):
            exp[draw(st.integers(0, xr.nvars - 1))] += 1
        out = out + xr.monomial(exp, xr.field.of_int(draw(st.integers(-3, 3))))
    return out


@st.composite
def graded_inputs(draw):
    """A graded sheaf on P^1..P^4 over Q or F_p, with degrees in -3..3, up
    to two relation rows and now and then a subscheme: a monomial (whose
    charts inverting every factor are the zero ring) or a quadric."""
    field = draw(st.sampled_from((Field(0), Field(2), Field(5))))
    n = draw(st.integers(1, 4))
    xr = build_proj_quiver(field, n).xring
    ideal = ()
    kind = draw(st.sampled_from(("none", "none", "monomial", "quadric")))
    if kind == "monomial":
        ideal = (xr.var(0) * xr.var(draw(st.integers(1, n))),)
    elif kind == "quadric":
        ideal = (_homogeneous(draw, xr, 2),)
    quiver = build_proj_quiver(field, n, ideal)
    degrees = tuple(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
    rows = []
    for _ in range(draw(st.integers(0, 2))):
        total = max(degrees) + draw(st.integers(0, 1))
        rows.append(tuple(_homogeneous(draw, xr, total - d) for d in degrees))
    return quiver, degrees, tuple(rows)


def _unread(chart, p):
    raise AssertionError("a recorded Laurent row was read again")


@settings(max_examples=40, deadline=None)
@given(graded_inputs())
def test_recorded_terms_are_the_terms_read_off_the_polynomials(data):
    quiver, degrees, rows = data
    rep = graded_sheaf(quiver, degrees, rows)
    # every term was recorded, so none is read off a polynomial here; the
    # squares of a graded sheaf pass by terms, so none is left to check
    assert set(rep.terms) == set(quiver.edges) | {"squares"}
    assert rep.terms["squares"] == ()
    real = charts.ChartRing.to_laurent
    charts.ChartRing.to_laurent = _unread
    try:
        laurent = {v: rep.modules[v].laurent for v in quiver.vertices}
    finally:
        charts.ChartRing.to_laurent = real
    for v in quiver.vertices:
        module = rep.modules[v]
        assert laurent[v] == tuple(tuple(map(module.chart.to_laurent, row)) for row in module.relations)
    for v, w in quiver.edges:
        decoded = _diagonal_terms(quiver.chart(w), rep.edge_maps[(v, w)])
        assert decoded is not None and rep.terms[(v, w)] == decoded


@settings(max_examples=40, deadline=None)
@given(graded_inputs())
def test_relation_rows_made_on_read_are_the_eager_rows(data):
    quiver, degrees, rows = data
    rep = graded_sheaf(quiver, degrees, rows)
    for v in quiver.vertices:
        module = rep.modules[v]
        chart = module.chart
        # counted from the Laurent rows, before any is written out
        assert module._has_relations() == bool(rows) and module._relations is None
        eager = tuple(tuple(map(chart.from_laurent, row)) for row in module.laurent)
        assert module.relations == eager
        assert module.relations == tuple(tuple(chart.dehomogenize(g) for g in row) for row in rows)
        assert module.relations is module.relations


KEY_FIELDS = (Field(0), Field(5), Field(7))
PER_JOB = ("_runs", "_laurent_exps", "_chart_exps")


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(KEY_FIELDS),
    st.integers(1, 4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple),
)
def test_the_square_verdict_of_a_degree_tuple_is_a_fresh_check(field, n, degrees):
    quiver = build_proj_quiver(field, n)
    squares = quiver.skeleton.graded_edges(degrees)[2]
    rep = graded_sheaf(quiver, degrees)
    fresh = SheafRep(quiver, rep.modules, rep.edge_maps)
    assert squares == all(
        sheafrep._square_by_terms(field.mul, [sheafrep._diagonal(fresh, e) for path in paths for e in path])
        for _v, _k, _l, paths in quiver.skeleton.squares
    )
    assert squares and rep.terms["squares"] == sheafrep._squares_agree(fresh) == ()


def test_squares_are_seeded_only_when_the_skeleton_check_passes(monkeypatch):
    monkeypatch.setattr(sheafrep, "_square_by_terms", lambda *a: False)
    _skeleton.cache_clear()
    try:
        quiver = build_proj_quiver(Field(7), 2)
        assert quiver.skeleton.graded_edges((0, 1))[2] is False
        rep = graded_sheaf(quiver, (0, 1))
        assert "squares" not in rep.terms
        # the general path pushes the composites, which agree
        assert sheafrep._squares_agree(rep) == ()
    finally:
        # the table must not keep the verdict of the stubbed check
        _skeleton.cache_clear()


@settings(max_examples=40, deadline=None)
@given(graded_inputs())
def test_a_subscheme_chart_is_the_plain_chart_with_its_ideal(data):
    quiver, _degrees, _rows = data
    field, n, ideal = quiver.field, quiver.n, quiver.ideal_gens
    for v in quiver.vertices:
        chart = quiver.chart(v)
        # from scratch: the chart of P^n, and the ideal dehomogenized by
        # the index loop of the oracle
        plain = charts.ChartData(field, n, v)
        jays = tuple(charts_oracle.dehomogenize(plain, g) for g in ideal)
        relations = plain.inversions + tuple(g for g in jays if not g.is_zero())
        expected = (
            plain.ring, plain.vertex, plain.pivot, ideal, plain.inversions, jays,
            relations, plain._z_index, plain._u_index, plain._var_laurent,
        )
        assert _chart_data(chart) == expected
        assert chart._subscheme == (len(relations) > len(plain.inversions))
        built = vars(charts.make_chart_ring(field, n, v, ideal))
        # the memo and the monomial tables fill as the chart is used
        for g in chart.relations + (chart.ring.one(),):
            chart.from_laurent(chart.to_laurent(g))
        assert chart._laurent_exps and chart._chart_exps
        assert {k: x for k, x in vars(chart).items() if k not in PER_JOB} == {
            k: x for k, x in built.items() if k not in PER_JOB
        }
        assert chart.ring is _skeleton(field, n).chart(v).ring


@pytest.mark.parametrize(
    "command,fixture,seed,n",
    [("vdim-witness", "euler_q_p2.txt", None, 2), ("closure", "sum_o1_o0_p1.txt", "seed_sum_o1_o0_p1.txt", 1)],
    ids=["vdim-witness", "closure"],
)
def test_a_job_leaves_the_shared_chart_data_as_it_was(command, fixture, seed, n):
    # a job's ChartRings fill their memo and tables, never their ChartData
    _skeleton.cache_clear()
    skeleton = _skeleton(Q, n)
    before = {v: dict(vars(skeleton.chart(v))) for v in skeleton.vertices}
    seed_file = str(FIXTURES / seed) if seed else None
    assert run(JobSpec(command, inputs=(str(FIXTURES / fixture),), seed_file=seed_file, machine=True)).ok
    assert _skeleton(Q, n) is skeleton
    assert {v: vars(skeleton.chart(v)) for v in skeleton.vertices} == before
