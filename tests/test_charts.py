"""Chart ring construction, pivot-change homs, and localization.

Expected values frozen by hand from the defining ratios: z_j = x_j/x_pivot,
u_i its inverse; hom images checked independently through the Laurent
exponent expansion, which a correct hom must preserve.
"""

from __future__ import annotations

import random

import pytest
from exactpoly_oracle import from_int
from sheafrep_oracle import is_zero_module

from qsheaf.charts import (
    ChartData,
    ChartHom,
    FPModule,
    chart_hom,
    ideal_block,
    localize_module,
    make_chart_ring,
    span_contains,
    span_gb,
    x_ring,
)
from qsheaf.exactpoly import (
    Field,
    Poly,
    RingMismatchError,
    groebner_basis,
    module_kernel,
    normal_form,
    poly_from_str,
    vec_is_zero,
)

Q = Field.rationals()


def test_chart_single_vertex_p1():
    c = make_chart_ring(Q, 1, {0})
    assert c.ring.names == ("z1",)
    assert c.relations == ()
    assert not c.is_zero_ring()


def test_chart_overlap_p1():
    c = make_chart_ring(Q, 1, {0, 1})
    assert c.ring.names == ("z1", "u1")
    assert len(c.relations) == 1
    assert c.nf(c.u(1) * c.z(1)) == c.ring.one()


def test_chart_subscheme_dehomogenization():
    xr = x_ring(Q, 2)
    conic = poly_from_str(xr, "x0*x2 - x1^2")
    c = make_chart_ring(Q, 2, {0}, [conic])
    assert c.ring.names == ("z1", "z2")
    z1, z2 = c.z(1), c.z(2)
    assert c.jays == (z2 - z1 * z1,)
    assert c.nf(z2) == c.nf(z1 * z1)


def test_chart_zero_ring():
    xr = x_ring(Q, 1)
    c = make_chart_ring(Q, 1, {0, 1}, [poly_from_str(xr, "x0*x1")])
    assert c.is_zero_ring()
    c0 = make_chart_ring(Q, 1, {0}, [poly_from_str(xr, "x0*x1")])
    assert not c0.is_zero_ring()  # there the relation is z1, a point


def test_generates_one(monkeypatch):
    xr = x_ring(Q, 1)
    plain = make_chart_ring(Q, 1, {0})
    zero = make_chart_ring(Q, 1, {0, 1}, [poly_from_str(xr, "x0*x1")])
    point = make_chart_ring(Q, 1, {0}, [poly_from_str(xr, "x0*x1")])
    z1, one = point.z(1), point.ring.one()
    # with no gen, the relations alone: 1 only on the zero ring
    assert not plain.generates_one([]) and zero.generates_one([])
    # z1 is a relation of the point, z1 + 1 a unit there, and on P^1 z1
    # generates a proper ideal
    assert point.generates_one([z1 + one]) and not point.generates_one([z1])
    assert not plain.generates_one([plain.z(1)])
    monkeypatch.setattr("qsheaf.charts.ideal_contains_one", lambda ideal: pytest.fail("a run was made"))
    assert plain.generates_one([plain.z(1), plain.ring.constant(2)])


def test_zero_ring_test_builds_nothing_without_a_subscheme(monkeypatch):
    # a chart of P^n without subscheme relations is a Laurent ring, never
    # zero: is_zero_ring reads that off and writes no Laurent form back
    calls = []
    real = ChartData.from_laurent

    def counting(self, terms):
        calls.append(terms)
        return real(self, terms)

    monkeypatch.setattr(ChartData, "from_laurent", counting)
    for vertex in ({0}, {0, 1}, {0, 1, 2}):
        assert make_chart_ring(Q, 2, vertex).is_zero_ring() is False
    assert calls == []
    xr = x_ring(Q, 1)
    subscheme = make_chart_ring(Q, 1, {0, 1}, [poly_from_str(xr, "x0*x1")])
    calls.clear()
    assert subscheme.is_zero_ring()
    assert calls


def test_chart_rejects_inhomogeneous():
    xr = x_ring(Q, 1)
    with pytest.raises(ValueError):
        make_chart_ring(Q, 1, {0}, [poly_from_str(xr, "x0 + 1")])


def test_hom_same_pivot_is_identity_on_names():
    a = make_chart_ring(Q, 1, {0})
    b = make_chart_ring(Q, 1, {0, 1})
    h = chart_hom(a, b)
    assert h.apply(a.z(1)) == b.z(1)


def test_hom_pivot_change():
    a = make_chart_ring(Q, 1, {1})
    b = make_chart_ring(Q, 1, {0, 1})
    h = chart_hom(a, b)
    assert h.apply(a.z(0)) == b.u(1)


def test_hom_preserves_laurent_expansion():
    a = make_chart_ring(Q, 2, {1})
    b = make_chart_ring(Q, 2, {0, 1, 2})
    h = chart_hom(a, b)
    for p in [a.z(0), a.z(2), a.z(0) * a.z(2) + from_int(a.ring, 3), a.z(2) * a.z(2)]:
        assert a.to_laurent(p) == b.to_laurent(h.apply(p))


def test_hom_path_independence_p2():
    base = make_chart_ring(Q, 2, {0})
    mid1 = make_chart_ring(Q, 2, {0, 1})
    mid2 = make_chart_ring(Q, 2, {0, 2})
    top = make_chart_ring(Q, 2, {0, 1, 2})
    path1 = lambda p: chart_hom(mid1, top).apply(chart_hom(base, mid1).apply(p))
    path2 = lambda p: chart_hom(mid2, top).apply(chart_hom(base, mid2).apply(p))
    direct = chart_hom(base, top)
    for p in [base.z(1), base.z(2), base.z(1) * base.z(2) - base.ring.one()]:
        assert path1(p) == path2(p) == direct.apply(p)


def test_hom_respects_source_relations():
    xr = x_ring(Q, 2)
    conic = poly_from_str(xr, "x0*x2 - x1^2")
    a = make_chart_ring(Q, 2, {0}, [conic])
    b = make_chart_ring(Q, 2, {0, 1}, [conic])
    h = chart_hom(a, b)
    for rel in a.relations:
        assert h.apply(rel).is_zero()


def test_hom_rejects_mismatched_subschemes():
    xr = x_ring(Q, 1)
    a = make_chart_ring(Q, 1, {0}, [poly_from_str(xr, "x0*x1")])
    b = make_chart_ring(Q, 1, {0, 1})
    with pytest.raises(RingMismatchError):
        chart_hom(a, b)


def test_from_laurent_requires_inverses():
    c = make_chart_ring(Q, 2, {0, 1})
    vec = (1, 0, -1)  # x0/x2 needs x2 inverted
    with pytest.raises(ValueError):
        c.from_laurent(Poly(c.xring, {vec: Q.one}))
    ok = c.from_laurent(Poly(c.xring, {(-1, 1, 0): Q.one}))
    assert ok == c.z(1)


def test_localize_free_module():
    a = make_chart_ring(Q, 1, {0})
    b = make_chart_ring(Q, 1, {0, 1})
    m = FPModule(a, 2)
    lm = localize_module(m, chart_hom(a, b))
    assert lm.gens == 2 and lm.relations == ()


def test_localize_kills_supported_module():
    # Q[z1]/(z1) dies where z1 is inverted; Q[z1]/(z1-1) survives
    a = make_chart_ring(Q, 1, {0})
    b = make_chart_ring(Q, 1, {0, 1})
    h = chart_hom(a, b)
    dead = FPModule(a, 1, [(a.z(1),)])
    assert is_zero_module(localize_module(dead, h))
    alive = FPModule(a, 1, [(a.z(1) - a.ring.one(),)])
    assert not is_zero_module(localize_module(alive, h))


def test_localize_map_functorial_on_products():
    a = make_chart_ring(Q, 2, {0})
    b = make_chart_ring(Q, 2, {0, 1})
    h = chart_hom(a, b)
    rng = random.Random(7)

    def rand_poly(c):
        out = c.ring.zero()
        for _ in range(3):
            exp = [rng.randrange(0, 2) for _ in range(c.ring.nvars)]
            out = out + c.ring.monomial(tuple(exp), c.field.of_int(rng.randrange(-2, 3)))
        return out

    m1 = [[rand_poly(a) for _ in range(2)] for _ in range(2)]
    m2 = [[rand_poly(a) for _ in range(2)] for _ in range(2)]
    prod = [
        [m1[i][0] * m2[0][j] + m1[i][1] * m2[1][j] for j in range(2)]
        for i in range(2)
    ]
    lm1, lm2 = h.apply_rows(m1), h.apply_rows(m2)
    lprod = [
        [lm1[i][0] * lm2[0][j] + lm1[i][1] * lm2[1][j] for j in range(2)]
        for i in range(2)
    ]
    expect = h.apply_rows(prod)
    for i in range(2):
        for j in range(2):
            assert b.nf(lprod[i][j]) == b.nf(expect[i][j])


def test_localization_exactness_randomized():
    # module_kernel commutes with localization: mutual span containment
    a = make_chart_ring(Q, 1, {0})
    b = make_chart_ring(Q, 1, {0, 1})
    h = chart_hom(a, b)
    rng = random.Random(20260819)
    for _ in range(4):
        rows = []
        for _ in range(2):
            row = []
            for _ in range(2):
                t = a.ring.zero()
                for _ in range(2):
                    t = t + a.ring.monomial((rng.randrange(0, 3),), a.field.of_int(rng.randrange(-2, 3)))
                row.append(t)
            rows.append(tuple(row))
        ker_src = module_kernel(rows, ideal_block(a, 2), a.ring, 2)
        ker_src_loc = [h.apply_vec(k) for k in ker_src]
        ker_tgt = module_kernel(h.apply_rows(rows), ideal_block(b, 2), b.ring, 2)
        gb_loc = span_gb(b, ker_src_loc, 2)
        gb_tgt = span_gb(b, ker_tgt, 2)
        for k in ker_tgt:
            assert span_contains(b, gb_loc, k)
        for k in ker_src_loc:
            assert span_contains(b, gb_tgt, k)


def test_fpmodule_zero_detection():
    c = make_chart_ring(Q, 1, {0, 1})
    m = FPModule(c, 1, [(c.z(1),)])
    assert is_zero_module(m)  # z1 is a unit on the overlap
    f = FPModule(c, 1)
    assert not is_zero_module(f)
