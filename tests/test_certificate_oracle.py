"""Module membership by a certificate against a direct tracked run.

`charts.FPModule` decides `are_zero`, `in_span`, `lifter(rows)` (`lift` and
`kernel`) and `row_relations` by a certificate whenever the rows are a
square diagonal of unit terms (their entrywise inverse B, on every chart),
or S, the rows followed by the relations, has a constant right inverse C
(S*C = I) over a chart without subscheme relations, and by Groebner runs
otherwise.  Every answer here is compared with a `TrackedBasis` run made
directly over the same rows, modding out the relations and the chart's
ideal block; relations among the rows are compared by the span they
generate modulo the chart's ideal, by Groebner bases made here.

Presentations are drawn on charts of P^1 to P^3 over Q and F_p with a
certificate by construction: S = (I_m | L)*P for a constant invertible P
and chart polynomials L, so that the first m columns of P^-1 are a C.
Spoiled cases have none and must take the runs: a row scaled by z_j + a
(a != 0 keeps it a non-unit), a zero row, more rows than generators, and a
chart with subscheme relations.  An empty row set has a certificate with
no column: its members are the relations' span.

Unit diagonals are drawn on charts without a subscheme, with a subscheme,
and with a monomial ideal that is the zero ring on the chart: each
diagonal entry a nonzero constant times a monomial in the chart's unit
variables, under random relations.  Spoiled ones are not unit diagonals,
and take a constant certificate or the runs: an off-diagonal entry, a
diagonal entry times a non-unit z_k, and a two-term diagonal entry.
`row_relations` reads an empty kernel off a certificate that carries no
relations, without multiplying the kernel out.  Askers with other rows but
the same rows followed by relations share one constant solve, and each
lifts to its own row count; the kept solve holds no chart.
"""

from __future__ import annotations

import gc
import weakref

from hypothesis import assume, event, given, settings, strategies as st

from qsheaf import charts
from qsheaf.charts import FPModule, find_certificate, ideal_block, make_chart_ring, x_ring
from qsheaf.exactpoly import (
    Field,
    TrackedBasis,
    groebner_basis,
    normal_form,
    rref,
    vec_is_zero,
    vec_sub,
)
from charts_oracle import unit_diagonal
from exactpoly_oracle import vec_add, vec_mul_poly

FIELDS = (Field(0), Field(5), Field(7))
SPOILS = ("none", "scaled", "zero-row", "extra-rows", "subscheme")
UNIT_SPOILS = ("none", "off-diagonal", "non-unit", "two-term")


def coefficients(field):
    if field.char == 0:
        return st.builds(field.of_fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    return st.builds(field.of_int, st.integers(0, field.char - 1))


def units(field):
    if field.char == 0:
        return st.builds(field.of_fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.sampled_from((1, 2)))
    return st.builds(field.of_int, st.integers(1, field.char - 1))


@st.composite
def polys(draw, ring):
    """Up to two terms, every exponent 0 or 1."""
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        terms[tuple(draw(st.integers(0, 1)) for _ in range(ring.nvars))] = draw(coefficients(ring.field))
    return ring.from_terms(terms)


def vecs(draw, ring, gens):
    return tuple(draw(polys(ring)) for _ in range(gens))


@st.composite
def presentations(draw):
    """(chart, gens, rows, relations, spoil)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    vertex = draw(st.sets(st.integers(0, n), min_size=1))
    # half the draws are unspoiled, to exercise the certificate path
    spoil = draw(st.one_of(st.just("none"), st.sampled_from(SPOILS)))
    ideal = ()
    if spoil == "subscheme":
        xr = x_ring(field, n)
        ideal = (xr.var(0) * xr.var(n) + xr.var(n) * xr.var(n).scale(draw(coefficients(field))),)
    chart = make_chart_ring(field, n, vertex, ideal)
    ring = chart.ring
    gens = draw(st.integers(1, 3))
    m = draw(st.integers(0, gens))
    p = [[draw(coefficients(field)) for _ in range(gens)] for _ in range(gens)]
    assume(len(rref(field.char, [list(r) for r in p], gens)) == gens)
    const = [tuple(ring.constant(c) for c in row) for row in p]
    matrix = []
    for i in range(m):
        row = const[i]
        for t in range(m, gens):
            row = vec_add(row, vec_mul_poly(const[t], draw(polys(ring))))
        matrix.append(row)
    if spoil == "scaled":
        assume(m > 0)
        i = draw(st.integers(0, m - 1))
        z = chart.z(draw(st.sampled_from([j for j in range(n + 1) if j != chart.pivot])))
        a = draw(coefficients(field).filter(lambda c: c != field.zero))
        matrix[i] = vec_mul_poly(matrix[i], z + ring.constant(a))
    if spoil == "zero-row":
        matrix.insert(draw(st.integers(0, len(matrix))), tuple(ring.zero() for _ in range(gens)))
    if spoil == "extra-rows":
        while len(matrix) <= gens:
            matrix.append(vecs(draw, ring, gens))
    r = draw(st.integers(0, len(matrix)))
    return chart, gens, tuple(matrix[:r]), tuple(matrix[r:]), spoil


@st.composite
def unit_diagonals(draw):
    """(chart, gens, rows, relations, spoil): rows c_j*m_j*e_j with m_j a
    monomial in the chart's unit variables, spoiled or not, over a chart
    with no subscheme, a subscheme, or the zero ring."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    vertex = draw(st.sets(st.integers(0, n), min_size=1))
    xr = x_ring(field, n)
    ideal = ()
    kind = draw(st.sampled_from(("none", "subscheme", "zero-ring")))
    if kind == "subscheme":
        ideal = (xr.var(0) * xr.var(n) + xr.var(n) * xr.var(n).scale(draw(coefficients(field))),)
    elif kind == "zero-ring":
        # a product of coordinates the chart inverts is a unit there
        gen = xr.one()
        for i in draw(st.sets(st.sampled_from(sorted(vertex)), min_size=1)):
            gen = gen * xr.var(i)
        ideal = (gen,)
    chart = make_chart_ring(field, n, vertex, ideal)
    assert (kind == "zero-ring") <= chart.is_zero_ring()
    event("chart: " + kind)
    ring = chart.ring
    gens = draw(st.integers(1, 3))
    rows = []
    for j in range(gens):
        exp = [0] * ring.nvars
        for col in chart.unit_variable_columns():
            exp[col] = draw(st.integers(0, 2))
        entry = ring.monomial(tuple(exp), draw(units(field)))
        rows.append([entry if k == j else ring.zero() for k in range(gens)])
    spoil = draw(st.one_of(st.just("none"), st.sampled_from(UNIT_SPOILS)))
    j = draw(st.integers(0, gens - 1))
    outside = sorted(set(range(n + 1)) - vertex)
    if (spoil == "off-diagonal" and gens < 2) or (spoil == "non-unit" and not outside):
        spoil = "two-term"
    if spoil == "off-diagonal":
        rows[j][(j + 1) % gens] = draw(polys(ring).filter(lambda p: not p.is_zero()))
    elif spoil == "non-unit":
        rows[j][j] = rows[j][j] * chart.z(draw(st.sampled_from(outside)))
    elif spoil == "two-term":
        rows[j][j] = rows[j][j] * (ring.one() + ring.var(draw(st.integers(0, ring.nvars - 1))))
    relations = tuple(vecs(draw, ring, gens) for _ in range(draw(st.integers(0, 2))))
    return chart, gens, tuple(map(tuple, rows)), relations, spoil


def _in_ring_zero(chart, row) -> bool:
    return all(chart.nf(p).is_zero() for p in row)


def _same_span(chart, a, b, rank) -> bool:
    """a and b span the same submodule of R^rank modulo the chart's ideal,
    decided by Groebner bases made here."""
    block = ideal_block(chart, rank)
    for x, y in ((a, b), (b, a)):
        gb = groebner_basis(list(x) + block, chart.ring)
        if not all(vec_is_zero(normal_form(vec, gb, chart.ring)) for vec in y):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(presentation=presentations(), data=st.data())
def test_certificate_answers_match_a_direct_tracked_run(presentation, data):
    chart, gens, rows, relations, spoil = presentation
    cert = FPModule(chart, gens, relations).certificate(rows)
    event(spoil)
    # an unspoiled draw may be a constant diagonal, which is a unit diagonal
    assert (cert is not None) == (spoil == "none" or unit_diagonal(cert))
    _check_against_a_tracked_run(chart, gens, rows, relations, data)


@settings(max_examples=60, deadline=None)
@given(presentation=unit_diagonals(), data=st.data())
def test_unit_diagonal_answers_match_a_direct_tracked_run(presentation, data):
    chart, gens, rows, relations, spoil = presentation
    cert = FPModule(chart, gens, relations).certificate(rows)
    event("spoil: " + spoil)
    assert unit_diagonal(cert) == (spoil == "none")
    _check_against_a_tracked_run(chart, gens, rows, relations, data)


def _check_against_a_tracked_run(chart, gens, rows, relations, data):
    ring = chart.ring
    module = FPModule(chart, gens, relations)
    mod = list(relations) + ideal_block(chart, gens)
    tracked = TrackedBasis(rows, ring, gens, mod)
    zero_run = TrackedBasis((), ring, gens, mod)
    cert = module.certificate(rows)

    members = []
    for _ in range(data.draw(st.integers(1, 2))):
        x = tuple(ring.zero() for _ in range(gens))
        for row in rows + relations:
            x = vec_add(x, vec_mul_poly(row, data.draw(polys(ring))))
        members.append(x)
    units = [tuple(ring.one() if k == j else ring.zero() for k in range(gens)) for j in range(gens)]
    others = [vecs(data.draw, ring, gens) for _ in range(data.draw(st.integers(0, 2)))]
    lifter = module.lifter(rows)
    assert isinstance(lifter, charts.Certificate) == (cert is not None)
    for x in members + units + others + [tuple(ring.zero() for _ in range(gens))]:
        expected = tracked.lift(x)
        assert module.in_span(rows, (x,)) == (expected is not None)
        assert module.are_zero((x,)) == (zero_run.lift(x) is not None)
        found = lifter.lift(x)
        assert (found is None) == (expected is None)
        if found is not None:
            assert len(found) == len(rows)
            combination = tuple(ring.zero() for _ in range(gens))
            for c, row in zip(found, rows):
                combination = vec_add(combination, vec_mul_poly(row, c))
            assert zero_run.lift(vec_sub(x, combination)) is not None
            if cert is not None and not cert.kernel():  # the lift is unique in the chart ring
                assert _in_ring_zero(chart, vec_sub(tuple(found), tuple(expected)))
    for x in members:
        assert module.in_span(rows, (x,))

    # the certificate's relations among the rows, or the run's, span what
    # the direct run's span; row_relations makes that run unless they are none
    kernel = module.row_relations(rows)
    assert _same_span(chart, lifter.kernel(), tracked.kernel(), len(rows))
    if cert is None or cert.kernel():
        assert kernel == tracked.kernel()
    else:
        assert kernel == []


def test_a_wrong_solve_is_refused(monkeypatch):
    # the Euler row (1, z1, z2) on chart {0} of P^2 has the certificate e_0;
    # a solve that writes 2 there instead fails the check S*C = I
    chart = make_chart_ring(Field(0), 2, {0})
    row = tuple(map(chart.to_laurent, (chart.ring.one(), chart.z(1), chart.z(2))))
    cert = find_certificate(chart, (row,), 3)
    xr = chart.xring
    assert cert and cert.matrix == ((xr.one(),), (xr.zero(),), (xr.zero(),))
    real = charts.rref

    def spoiled(char, mat, ncols):
        pivots = real(char, mat, ncols)
        mat[0][ncols - 1] = 2
        return pivots

    monkeypatch.setattr(charts, "rref", spoiled)
    assert find_certificate(chart, (row,), 3) is None


def test_a_non_member_is_refused_though_its_coefficients_exist():
    # x*C is defined for every x; (x*C)*S = x is the membership test
    chart = make_chart_ring(Field(0), 2, {0})
    ring = chart.ring
    module = FPModule(chart, 3)
    row = (ring.one(), chart.z(1), chart.z(2))
    x = (ring.one(), ring.zero(), ring.zero())
    assert module.certificate((row,)) is not None
    assert not module.in_span((row,), (x,))
    assert module.lifter((row,)).lift(x) is None
    assert module.lifter((row,)).lift(vec_mul_poly(row, chart.z(1))) == [chart.z(1)]
    assert vec_is_zero(module.lifter((row,)).lift(tuple(ring.zero() for _ in range(3))))


def test_a_lift_holds_the_row_coefficients_not_the_relation_ones():
    # S = (row, relation) with C = [[1, 0], [0, 0], [0, 1]]: x*C holds the
    # coefficient of the row, then that of the relation
    chart = make_chart_ring(Field(0), 2, {0})
    ring = chart.ring
    zero, one = ring.zero(), ring.one()
    row, relation = (one, chart.z(1), zero), (zero, zero, one)
    module = FPModule(chart, 3, (relation,))
    x = vec_add(vec_mul_poly(row, chart.z(2)), relation)
    assert module.lifter((row,)).lift(x) == [chart.z(2)]
    assert module.are_zero((relation,)) and not module.are_zero((row,))


def test_a_shared_solve_keeps_each_askers_row_count(monkeypatch):
    # the rows (a,) over the module with relation b and the rows (a, b)
    # over the free module have the same S = (a, b), solved once; each
    # lift holds one coefficient per row of its asker and rebuilds x
    solves = []
    real = charts.find_certificate

    def counted(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(charts, "find_certificate", counted)
    chart = make_chart_ring(Field(0), 2, {0})
    ring = chart.ring
    zero, one = ring.zero(), ring.one()
    a, b = (one, zero, zero), (zero, one, zero)
    x = vec_add(vec_mul_poly(a, chart.z(1)), vec_mul_poly(b, chart.z(2) + one))
    quotient, free = FPModule(chart, 3, (b,)), FPModule(chart, 3)
    lifts = [(quotient, (a,), quotient.lifter((a,)).lift(x)), (free, (a, b), free.lifter((a, b)).lift(x))]
    assert len(solves) == 1
    assert [len(found) for _module, _rows, found in lifts] == [1, 2]
    for module, rows, found in lifts:
        combination = tuple(ring.zero() for _ in range(3))
        for c, row in zip(found, rows):
            combination = vec_add(combination, vec_mul_poly(row, c))
        assert module.are_zero((vec_sub(x, combination),))


def test_a_kept_solve_leaves_its_chart_free_of_reference_cycles():
    # the chart memo keeps the constant solve without its chart, so the
    # chart goes with its last reference and not at the next collection
    chart = make_chart_ring(Field(0), 2, {0})
    row = (chart.ring.one(), chart.z(1), chart.z(2))
    module = FPModule(chart, 3)
    assert module.lifter((row,)).lift(vec_mul_poly(row, chart.z(1))) == [chart.z(1)]
    ref = weakref.ref(chart)
    gc.disable()
    try:
        del chart, row, module
        assert ref() is None
    finally:
        gc.enable()


def test_row_relations_reads_an_empty_kernel_off_the_certificate_kind(monkeypatch):
    # identity rows over a module without relations (a unit diagonal) and
    # the Euler row (a constant certificate) have no relations among them,
    # and neither certificate's kernel is multiplied out to say so; over a
    # module with relations a unit diagonal makes the run
    def refused(self):
        raise AssertionError("a certificate's kernel was built")

    monkeypatch.setattr(charts.Certificate, "kernel", refused)
    chart = make_chart_ring(Field(0), 2, {0})
    ring = chart.ring
    zero, one = ring.zero(), ring.one()
    identity = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    euler = ((one, chart.z(1), chart.z(2)),)
    free = FPModule(chart, 3)
    assert unit_diagonal(free.certificate(identity))
    constant = free.certificate(euler)
    assert constant is not None and not unit_diagonal(constant)
    assert free.row_relations(identity) == [] and free.row_relations(euler) == []
    quotient = FPModule(chart, 3, euler)
    run = TrackedBasis(identity, ring, 3, list(euler) + ideal_block(chart, 3))
    assert unit_diagonal(quotient.certificate(identity))
    assert quotient.row_relations(identity) == run.kernel() != []
