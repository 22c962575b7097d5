"""The coordinate change through the Laurent bridge against the substituting
loops it replaced, and chart normal forms against the relation basis.

`ChartHom.apply` reads a source polynomial as Laurent terms and writes them
back as target chart monomials; `ChartRing.dehomogenize` reads x^e of
degree d as the Laurent exponent e - d*e_pivot.  `charts_oracle` keeps the
old `Poly.substitute` over reduced variable images and the old index loop.
On P^1 to P^3 over Q and F_p, p in {2, 3, 5, 7}, with and without a
subscheme ideal, both must give equal polynomials for every chart pair
v in w, on zero, on random and on non-reduced inputs.

`ChartRing.nf` reads a polynomial as Laurent terms and writes them back,
reducing modulo `relation_gb()` only on a chart with subscheme relations.
On every chart of P^1 to P^4 over the same fields, without a subscheme,
with a form of degree 1 or 2 and with a product of coordinates (whose
charts that invert every factor are the zero ring), it must equal the
normal form modulo the chart's relation basis, which it replaced.

A `ChartRing` converts through two monomial tables, one each way, filled
on a miss by `ChartData`'s table-free code.  On random charts of P^1 to
P^4 over Q, F_5 and F_7, its `laurent_of_exp`, `to_laurent` and
`from_laurent` must give what `ChartData`'s give, term order included: on
zero, on random polynomials, on non-normal inputs whose monomials meet on
one Laurent exponent, and again on a second ask, which the tables answer
alone.  A Laurent exponent the chart cannot write raises `ValueError` on
every ask and leaves both tables as they were.
"""

from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings, strategies as st

import charts_oracle as oracle
from qsheaf.charts import ChartData, ChartRing, x_ring
from qsheaf.exactpoly import Field, Poly, normal_form
from qsheaf.sheafrep import build_proj_quiver

FIELDS = (Field.rationals(),) + tuple(Field.prime(p) for p in (2, 3, 5, 7))


def coefficients(field):
    if field.char == 0:
        return st.builds(field.of_fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    return st.builds(field.of_int, st.integers(0, field.char - 1))


@st.composite
def polys(draw, ring, max_exp=2):
    """Up to four terms with exponents up to max_exp in every variable."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(ring.nvars))
        terms[exp] = draw(coefficients(ring.field))
    return ring.from_terms(terms)


@st.composite
def forms(draw, ring, degree):
    """Up to four terms of one total degree, zero included."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        cuts = sorted(draw(st.integers(0, degree)) for _ in range(ring.nvars - 1))
        exp = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        terms[exp] = draw(coefficients(ring.field))
    return ring.from_terms(terms)


def quivers(data):
    field = data.draw(st.sampled_from(FIELDS), label="field")
    n = data.draw(st.integers(1, 3), label="n")
    ideal = []
    if data.draw(st.booleans(), label="subscheme"):
        ideal = [data.draw(forms(x_ring(field, n), data.draw(st.integers(1, 2))), label="ideal")]
    return build_proj_quiver(field, n, ideal)


@given(data=st.data())
def test_apply_matches_the_substituting_oracle(data):
    quiver = quivers(data)
    for v in quiver.vertices:
        source = quiver.chart(v)
        inputs = [source.ring.zero(), source.ring.one(), data.draw(polys(source.ring))]
        if len(v) > 1:
            # u_i * z_i is one, but not in normal form
            i = max(v)
            inputs.append(inputs[-1] * source.u(i) * source.z(i) + source.u(i) * source.u(i))
        for w in quiver.vertices:
            if v <= w:
                hom = quiver.hom(v, w)
                for p in inputs:
                    assert hom.apply(p) == oracle.apply(source, hom.target, p)


@given(data=st.data())
def test_dehomogenize_matches_the_index_loop(data):
    quiver = quivers(data)
    g = data.draw(forms(quiver.xring, data.draw(st.integers(0, 3))), label="g")
    for v in quiver.vertices:
        chart = quiver.chart(v)
        assert chart.dehomogenize(g) == oracle.dehomogenize(chart, g)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nf_matches_the_normal_form_over_the_relation_basis(data):
    field = data.draw(st.sampled_from(FIELDS), label="field")
    n = data.draw(st.integers(1, 4), label="n")
    xr = x_ring(field, n)
    kind = data.draw(st.sampled_from(("none", "form", "monomial")), label="subscheme")
    ideal = []
    if kind == "form":
        ideal = [data.draw(forms(xr, data.draw(st.integers(1, 2))), label="ideal")]
    elif kind == "monomial":
        factors = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=2, unique=True), label="factors")
        ideal = [xr.monomial(tuple(int(i in factors) for i in range(n + 1)))]
    quiver = build_proj_quiver(field, n, ideal)
    for v in quiver.vertices:
        chart = quiver.chart(v)
        p = data.draw(polys(chart.ring))
        inputs = [chart.ring.zero(), chart.ring.one(), p]
        if len(v) > 1:
            # u_i * z_i is one, but not in normal form
            i = max(v)
            inputs.append(p * chart.u(i) * chart.z(i) + chart.u(i) * chart.u(i) * chart.z(i))
        basis = chart.relation_gb()
        for q in inputs:
            assert chart.nf(q) == normal_form((q,), basis, chart.ring)[0]


ORACLE_FIELDS = (Field.rationals(), Field.prime(5), Field.prime(7))


@contextmanager
def _no_exponent_derived():
    """ChartData's one-exponent conversions raise while the block runs."""
    names = ("laurent_of_exp", "_exp_of_laurent")
    real = {name: getattr(ChartData, name) for name in names}

    def unused(*args):
        raise AssertionError("an exponent was derived again")

    for name in names:
        setattr(ChartData, name, unused)
    try:
        yield
    finally:
        for name, method in real.items():
            setattr(ChartData, name, method)


def _tables(chart: ChartRing) -> tuple:
    return dict(chart._laurent_exps), dict(chart._chart_exps)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_table_conversions_match_the_table_free_ones(data):
    field = data.draw(st.sampled_from(ORACLE_FIELDS), label="field")
    n = data.draw(st.integers(1, 4), label="n")
    vertex = frozenset(data.draw(st.sets(st.integers(0, n), min_size=1), label="vertex"))
    plain = ChartData(field, n, vertex)
    chart = ChartRing(plain)
    assert _tables(chart) == ({}, {})
    p = data.draw(polys(chart.ring), label="p")
    inputs = [chart.ring.zero(), chart.ring.one(), p]
    for i in sorted(vertex - {chart.pivot}):
        # z_i*u_i meets 1 on the zero exponent, and z_i^2*u_i meets z_i
        inputs.append(p * chart.z(i) * chart.u(i) - p + chart.ring.one())
        inputs.append(chart.z(i) * chart.z(i) * chart.u(i) + chart.z(i) + p)
    for ask in range(2):
        with _no_exponent_derived() if ask else nullcontext():
            got = [(chart.to_laurent(q), [chart.laurent_of_exp(e) for e in q.terms]) for q in inputs]
            back = [chart.from_laurent(terms) for terms, _exps in got]
        for q, (terms, exps), r in zip(inputs, got, back):
            assert list(terms.terms.items()) == list(ChartData.to_laurent(plain, q).terms.items())
            assert exps == [ChartData.laurent_of_exp(plain, e) for e in q.terms]
            assert list(r.terms.items()) == list(ChartData.from_laurent(plain, terms).terms.items())
    # the tables are the ChartRing's own
    assert set(vars(plain)) == set(vars(ChartData(field, n, vertex)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_exponent_the_chart_cannot_write_is_never_tabled(data):
    field = data.draw(st.sampled_from(ORACLE_FIELDS), label="field")
    n = data.draw(st.integers(1, 4), label="n")
    vertex = frozenset(data.draw(st.sets(st.integers(0, n), min_size=1), label="vertex"))
    chart = ChartRing(ChartData(field, n, vertex))
    chart.to_laurent(data.draw(polys(chart.ring), label="p"))
    pivot, outside = chart.pivot, sorted(set(range(n + 1)) - vertex)
    bad = []
    for j in outside:
        # x_j/x_pivot inverted: the chart has no u_j
        vec = [0] * (n + 1)
        vec[j], vec[pivot] = -1, 1
        bad.append(tuple(vec))
    bad.append((1,) + (0,) * n)  # total degree 1
    bad.append((0,) * n)  # length n
    before = _tables(chart)
    for vec in bad:
        for _ask in range(2):
            with pytest.raises(ValueError):
                chart.from_laurent(Poly(chart.xring, {vec: field.one}))
            with pytest.raises(ValueError):
                chart.nf_of_laurent(Poly(chart.xring, {vec: field.one}))
        assert _tables(chart) == before
