"""Quiver representations: construction, coherence checks, kernels.

The line-bundle fixtures are pinned against hand calculations: the twisting
sheaf O(k) restricts to a free rank-1 module on every chart, with pivot
change acting by the k-th power of the coordinate ratio.
"""

from __future__ import annotations

import pytest
from exactpoly_oracle import poly_pow
from sheafrep_oracle import (
    direct_sum,
    is_zero_module,
    map_commutes,
    map_is_well_defined,
    rep_is_zero,
    report_verdict,
)

from qsheaf.charts import FPModule
from qsheaf.exactpoly import Field, poly_from_str
from qsheaf.sheafrep import (
    build_proj_quiver,
    cokernel,
    graded_sheaf,
    identity_map,
    is_quasi_coherent,
    kernel,
    make_sheaf_map,
    make_sheaf_rep,
    map_is_injective,
    map_is_iso,
    map_is_surjective,
    structure_sheaf,
    twist,
)

Q = Field.rationals()


def euler_cover(quiver):
    """O^{n+1} -> O(1) sending generator i to the section x_i."""
    src = graded_sheaf(quiver, [0] * (quiver.n + 1))
    tgt = twist(quiver, 1)
    rows = {}
    for v in quiver.vertices:
        chart = quiver.chart(v)
        p = min(v)
        col = []
        for i in range(quiver.n + 1):
            col.append((chart.ring.one() if i == p else chart.z(i),))
        rows[v] = tuple(col)
    return make_sheaf_map(src, tgt, rows)


def test_quiver_shape_p1():
    q = build_proj_quiver(Q, 1)
    assert len(q.vertices) == 3
    assert len(q.edges) == 2
    assert q.vertices[0] == frozenset({0})
    assert q.vertices[-1] == frozenset({0, 1})


def test_quiver_shape_p2():
    q = build_proj_quiver(Q, 2)
    assert len(q.vertices) == 7
    assert len(q.edges) == 9
    for (v, w) in q.edges:
        assert v < w and len(w - v) == 1


def test_structure_sheaf_p1_is_qc():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    report = is_quasi_coherent(rep)
    assert report.ok
    assert all(ev.ok for ev in report.edges)
    assert report.findings == ()


@pytest.mark.parametrize("k", [-2, -1, 1, 2, 3])
def test_twists_p1_are_qc(k):
    q = build_proj_quiver(Q, 1)
    assert is_quasi_coherent(twist(q, k)).ok


def test_twist_p2_is_qc():
    q = build_proj_quiver(Q, 2)
    assert is_quasi_coherent(twist(q, 1)).ok
    assert is_quasi_coherent(twist(q, -1)).ok


def test_twist_edge_matrix_entries():
    q = build_proj_quiver(Q, 1)
    rep = twist(q, 2)
    v, w = frozenset({1}), frozenset({0, 1})
    chart = q.chart(w)
    # generator degree is -2; pivot moves 1 -> 0, so the entry is z1^2
    assert rep.edge_maps[(v, w)] == ((chart.z(1) * chart.z(1),),)
    rep_neg = twist(q, -2)
    assert rep_neg.edge_maps[(v, w)] == ((chart.u(1) * chart.u(1),),)


def _twist_entry_oracle(chart, p, q, d):
    """The edge entry for a generator of degree d when the pivot moves
    from p to q, written out as powers of the chart variables."""
    if p == q or d == 0:
        return chart.ring.one()
    if d > 0:
        return poly_pow(chart.u(p), d)
    return poly_pow(chart.z(p), -d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twist_entries_match_variable_powers(n):
    q = build_proj_quiver(Q, n)
    degrees = tuple(range(-3, 4))
    rep = graded_sheaf(q, degrees)
    for (v, w) in q.edges:
        chart = q.chart(w)
        rows = rep.edge_maps[(v, w)]
        for j, d in enumerate(degrees):
            for k, entry in enumerate(rows[j]):
                want = _twist_entry_oracle(chart, min(v), min(w), d) if k == j else chart.ring.zero()
                assert entry == want, (v, w, d)


def test_graded_line_bundle_presentation_is_qc():
    # two generators, one linear relation: the twisting sheaf O(1) on P^1
    q = build_proj_quiver(Q, 1)
    xr = q.xring
    row = (poly_from_str(xr, "x1"), poly_from_str(xr, "-x0"))
    rep = graded_sheaf(q, [0, 0], [row])
    assert is_quasi_coherent(rep).ok
    # on each chart the relation leaves a free rank-1 module
    for v in q.vertices:
        m = rep.modules[v]
        assert m.gens == 2 and len(m.relations) == 1


def test_graded_rejects_inhomogeneous_rows():
    q = build_proj_quiver(Q, 1)
    xr = q.xring
    with pytest.raises(ValueError):
        graded_sheaf(q, [0, 0], [(poly_from_str(xr, "x0"), xr.one())])


def test_mutated_edge_is_named():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    v, w = frozenset({1}), frozenset({0, 1})
    chart = q.chart(w)
    bad = rep.replaced_edge((v, w), ((chart.z(1) + chart.ring.one(),),))
    report = is_quasi_coherent(bad)
    assert not report.ok
    ev = report_verdict(report, (v, w))
    assert not ev.surjective
    assert ev.injective  # multiplication by a nonzerodivisor
    assert any("{1}->{0,1}" in msg for msg in report.findings)
    # the untouched edge still passes
    assert report_verdict(report, (frozenset({0}), w)).ok


def test_zero_edge_fails_both_directions():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    v, w = frozenset({0}), frozenset({0, 1})
    chart = q.chart(w)
    bad = rep.replaced_edge((v, w), ((chart.ring.zero(),),))
    ev = report_verdict(is_quasi_coherent(bad), (v, w))
    assert not ev.surjective and not ev.injective


def test_unit_rescaled_edge_stays_qc():
    # multiplying an edge by an invertible coordinate keeps every check green
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    v, w = frozenset({1}), frozenset({0, 1})
    chart = q.chart(w)
    tweaked = rep.replaced_edge((v, w), ((chart.u(1),),))
    assert is_quasi_coherent(tweaked).ok


def test_broken_square_is_reported():
    q = build_proj_quiver(Q, 2)
    rep = structure_sheaf(q)
    v, w = frozenset({0}), frozenset({0, 1})
    chart = q.chart(w)
    bad = rep.replaced_edge((v, w), ((chart.z(2),),))
    report = is_quasi_coherent(bad)
    assert not report.ok
    assert not report.squares_ok
    assert any("square at {0}" in msg for msg in report.findings)


def test_subscheme_structure_sheaf():
    q = build_proj_quiver(Q, 1, [poly_from_str(x_ring_of(Q, 1), "x0*x1")])
    rep = structure_sheaf(q)
    assert is_quasi_coherent(rep).ok
    # the overlap chart carries the zero ring, so its module vanishes
    assert is_zero_module(rep.modules[frozenset({0, 1})])
    assert not is_zero_module(rep.modules[frozenset({0})])


def test_subscheme_generators_over_another_field_are_rejected():
    # same variable names, but Q coefficients cannot enter F_5 chart relations
    gen = poly_from_str(x_ring_of(Q, 2), "x0*x1 - 1/2*x2^2")
    with pytest.raises(ValueError, match="must live in the x ring"):
        build_proj_quiver(Field.prime(5), 2, [gen])
    assert build_proj_quiver(Q, 2, [gen]).ideal_gens == (gen,)


def x_ring_of(fld, n):
    from qsheaf.charts import x_ring

    return x_ring(fld, n)


def test_euler_cover_commutes_and_surjects():
    q = build_proj_quiver(Q, 2)
    f = euler_cover(q)
    assert map_commutes(f) == ()
    assert map_is_surjective(f)
    assert not map_is_injective(f)
    assert rep_is_zero(cokernel(f))


def test_euler_kernel_is_qc_rank_two():
    q = build_proj_quiver(Q, 2)
    f = euler_cover(q)
    ker, incl = kernel(f)
    assert is_quasi_coherent(ker).ok
    assert map_is_injective(incl)
    assert map_commutes(incl) == ()
    # composite with the cover vanishes
    for v in q.vertices:
        chart = q.chart(v)
        for row in incl.rows[v]:
            img = sum(
                (c * f.rows[v][i][0] for i, c in enumerate(row)),
                chart.ring.zero(),
            )
            assert chart.nf(img).is_zero()
    # dividing out the kernel recovers the line bundle: the cover descends
    # to an isomorphism from the quotient
    coker_incl = cokernel(incl)
    induced = make_sheaf_map(coker_incl, twist(q, 1), f.rows)
    assert map_is_well_defined(induced)
    assert map_is_iso(induced)


def test_euler_quotient_graded_presentation():
    q = build_proj_quiver(Q, 2)
    xr = q.xring
    row = tuple(poly_from_str(xr, "x%d" % i) for i in range(3))
    rep = graded_sheaf(q, [0, 0, 0], [row])
    assert is_quasi_coherent(rep).ok


def test_direct_sum_qc_and_graded_metadata():
    q = build_proj_quiver(Q, 1)
    s = direct_sum(structure_sheaf(q), twist(q, 2))
    assert is_quasi_coherent(s).ok
    assert s.graded is not None
    assert s.graded.degrees == (0, -2)
    for v in q.vertices:
        assert s.modules[v].gens == 2


def test_identity_map_is_iso():
    q = build_proj_quiver(Q, 1)
    rep = twist(q, 1)
    assert map_is_iso(identity_map(rep))


def test_make_sheaf_rep_validates_shapes():
    q = build_proj_quiver(Q, 1)
    rep = structure_sheaf(q)
    mods = dict(rep.modules)
    maps = dict(rep.edge_maps)
    del maps[(frozenset({0}), frozenset({0, 1}))]
    with pytest.raises(ValueError):
        make_sheaf_rep(q, mods, maps)
    maps2 = dict(rep.edge_maps)
    maps2[(frozenset({0}), frozenset({0, 1}))] = ()
    with pytest.raises(ValueError):
        make_sheaf_rep(q, mods, maps2)


def test_cokernel_of_injection_is_skyscraper_like():
    # O(-1) -> O by the section x0 on P^1: cokernel supported where x0 = 0
    q = build_proj_quiver(Q, 1)
    src = twist(q, -1)
    tgt = structure_sheaf(q)
    rows = {}
    for v in q.vertices:
        chart = q.chart(v)
        p = min(v)
        rows[v] = ((chart.ring.one() if p == 0 else chart.z(0),),)
    f = make_sheaf_map(src, tgt, rows)
    assert map_commutes(f) == ()
    assert map_is_injective(f)
    coker = cokernel(f)
    assert not rep_is_zero(coker)
    # x0 is invertible on chart {0} and on the overlap, so the quotient
    # survives only on chart {1}, where it is the point z0 = 0
    assert is_zero_module(coker.modules[frozenset({0})])
    assert not is_zero_module(coker.modules[frozenset({1})])
    assert is_zero_module(coker.modules[frozenset({0, 1})])
