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
"""

from hypothesis import given, settings, strategies as st

import charts_oracle as oracle
from qsheaf.charts import x_ring
from qsheaf.exactpoly import Field, normal_form
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
