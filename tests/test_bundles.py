"""Projectivity certificates, covers, resolutions, and P^1 splitting.

Splitting types are cross-checked against an independent count of global
sections: a section is a pair of polynomial vectors over the two charts
matched by the transition matrix, and its dimension is found by plain
linear algebra over the coefficient field inside a finite degree window.
That count never looks at the factorization.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from bundles_oracle import laurent_to_str as oracle_laurent_to_str
from hypothesis import given, strategies as st
from sheafrep_oracle import direct_sum, map_commutes, rep_is_zero

from qsheaf.bundles import (
    BirkhoffSplit,
    LaurentPoly,
    birkhoff_split,
    bundle_from_transition,
    chart_to_laurent,
    det,
    global_sections_dim,
    h0_of_type,
    is_projective_fp,
    is_vector_bundle,
    laurent_from_str,
    laurent_ring,
    laurent_to_chart,
    laurent_to_str,
    lazard_approximation,
    line_bundle_filtration,
    lmat_identity,
    lmat_inv,
    lmat_mul,
    serre_cover,
    transition_matrix,
    vdim_le_one_witness,
)
from qsheaf.charts import SKELETONS, FPModule, make_chart_ring, span_contains
from qsheaf.closure import SubRep
from qsheaf.exactpoly import Field, PolyRing, poly_from_str, poly_to_str, terms_from_str
from qsheaf.sheafrep import (
    _chart_nonzero_rows,
    build_proj_quiver,
    cokernel,
    graded_sheaf,
    is_quasi_coherent,
    kernel,
    make_sheaf_map,
    map_is_injective,
    map_is_iso,
    map_is_surjective,
    structure_sheaf,
    twist,
)

Q = Field.rationals()
V0 = frozenset({0})
V1 = frozenset({1})
V01 = frozenset({0, 1})


def lp(text):
    return laurent_from_str(Q, text)


def lmat(rows):
    return tuple(tuple(lp(e) for e in row) for row in rows)


def p1():
    return build_proj_quiver(Q, 1)


def euler_cover_p1(quiver):
    """Two structure-sheaf generators mapping to the coordinate sections of
    the degree-one twist."""
    src = graded_sheaf(quiver, (0, 0))
    tgt = twist(quiver, 1)
    rows = {}
    for v in quiver.vertices:
        chart = quiver.chart(v)
        x0 = poly_from_str(quiver.xring, "x0")
        x1 = poly_from_str(quiver.xring, "x1")
        rows[v] = ((chart.dehomogenize(x0),), (chart.dehomogenize(x1),))
    f = make_sheaf_map(src, tgt, rows)
    assert map_commutes(f) == ()
    return f


def skyscraper_rep(quiver):
    """Structure sheaf of the point x0 = 0, presented by one generator of
    degree zero killed by x0."""
    x0 = poly_from_str(quiver.xring, "x0")
    return graded_sheaf(quiver, (0,), ((x0,),))


# ---------------------------------------------------------------------------
# Projectivity certificates


def test_free_module_is_projective():
    chart = make_chart_ring(Q, 2, {0})
    cert = is_projective_fp(FPModule(chart, 2))
    assert cert.projective and cert.rank == 2
    assert cert.verdict == "projective(2)"


def test_plane_ideal_module_is_not_projective():
    chart = make_chart_ring(Q, 2, {0})
    x, y = chart.z(1), chart.z(2)
    cert = is_projective_fp(FPModule(chart, 2, ((y, x.scale(Fraction(-1))),)))
    assert not cert.projective
    assert cert.violating_index == 1


def test_unit_relation_gives_zero_module():
    chart = make_chart_ring(Q, 1, {0, 1})
    cert = is_projective_fp(FPModule(chart, 1, ((chart.z(1),),)))
    assert cert.projective and cert.rank == 0


# ---------------------------------------------------------------------------
# Bundle and flatness reports


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_twists_are_line_bundles(k):
    report = is_vector_bundle(twist(p1(), k))
    assert report.is_bundle and report.rank == 1


def test_binary_subscheme_structure_sheaf_is_bundle():
    x0x1 = poly_from_str(build_proj_quiver(Q, 1).xring, "x0*x1")
    quiver = build_proj_quiver(Q, 1, (x0x1,))
    report = is_vector_bundle(structure_sheaf(quiver))
    assert report.is_bundle and report.rank == 1


def test_skyscraper_is_not_a_bundle():
    quiver = p1()
    rep = skyscraper_rep(quiver)
    report = is_vector_bundle(rep)
    assert not report.is_bundle
    assert any("{1}" in f for f in report.findings)


def test_bundle_check_requires_quasi_coherence():
    quiver = p1()
    rep = twist(quiver, 1)
    chart01 = quiver.chart(V01)
    broken = rep.replaced_edge((V0, V01), ((chart01.ring.zero(),),))
    with pytest.raises(ValueError, match="not quasi-coherent"):
        line_bundle_filtration(broken)


# ---------------------------------------------------------------------------
# Serre covers


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_cover_of_single_twist_is_iso(k):
    rep = twist(p1(), k)
    cover = serre_cover(rep)
    assert map_is_iso(cover)


def test_cover_of_twist_sum_is_iso():
    quiver = p1()
    rep = graded_sheaf(quiver, (0, -2))
    cover = serre_cover(rep)
    assert map_is_surjective(cover)
    assert map_is_iso(cover)


def test_cover_of_point_ideal_data():
    quiver = p1()
    x0 = poly_from_str(quiver.xring, "x0")
    x1 = poly_from_str(quiver.xring, "x1")
    rep = graded_sheaf(quiver, (1, 1), ((x1, x0.scale(Fraction(-1))),))
    cover = serre_cover(rep)
    assert map_is_surjective(cover)
    assert rep_is_zero(cokernel(cover))
    assert not map_is_injective(cover)


def test_cover_needs_graded_presentation():
    quiver = p1()
    rep = twist(quiver, 1)
    bare = rep.replaced_edge((V0, V01), rep.edge_maps[(V0, V01)])
    assert bare.graded is None
    with pytest.raises(ValueError):
        serre_cover(bare)


# ---------------------------------------------------------------------------
# Two-term resolutions


def test_vdim_witness_for_twist_one():
    quiver = p1()
    cover = euler_cover_p1(quiver)
    witness = vdim_le_one_witness(cover.target, cover)
    assert witness.ok
    assert witness.exactness.cover_surjective
    assert witness.exactness.composite_zero
    assert witness.exactness.kernel_covered
    assert witness.exactness.inclusion_injective
    assert witness.kernel_bundle.is_bundle and witness.kernel_bundle.rank == 1
    assert witness.middle_bundle.is_bundle and witness.middle_bundle.rank == 2
    t = transition_matrix(witness.kernel_rep)
    assert len(t) == 1
    assert birkhoff_split(t).splitting_type == (-1,)


def test_vdim_witness_with_identity_cover():
    rep = graded_sheaf(p1(), (0, -2))
    witness = vdim_le_one_witness(rep, serre_cover(rep))
    assert witness.ok
    assert witness.kernel_bundle.rank == 0
    assert rep_is_zero(witness.kernel_rep)


def test_vdim_witness_for_skyscraper():
    quiver = p1()
    rep = skyscraper_rep(quiver)
    witness = vdim_le_one_witness(rep, serre_cover(rep))
    assert witness.ok
    assert witness.kernel_bundle.is_bundle and witness.kernel_bundle.rank == 1
    t = transition_matrix(witness.kernel_rep)
    assert birkhoff_split(t).splitting_type == (-1,)


def test_cover_kernel_prunes_a_redundant_generator():
    # the second relation is x1 times the first, so the relations among the
    # cover rows repeat themselves on most charts
    quiver = build_proj_quiver(Q, 2)
    rows = [
        tuple(poly_from_str(quiver.xring, e) for e in row)
        for row in (("x0", "x1", "0"), ("x0*x1", "x1^2", "0"))
    ]
    rep = graded_sheaf(quiver, (0, 0, 0), rows)
    cover = serre_cover(rep)
    _ker_rep, incl = kernel(cover)
    pruned = 0
    for v in quiver.vertices:
        chart = quiver.chart(v)
        candidates = _chart_nonzero_rows(chart, rep.modules[v].row_relations(cover.rows[v]))
        kept = incl.rows[v]
        pruned += len(candidates) - len(kept)
        module = cover.source.modules[v]
        for i, row in enumerate(kept):
            assert not span_contains(chart, module.span_gb(kept[:i] + kept[i + 1 :]), row)
    assert pruned >= 1
    assert vdim_le_one_witness(rep, cover).ok


def test_vdim_witness_rejects_non_surjective_cover():
    quiver = p1()
    rep = graded_sheaf(quiver, (0, -2))
    cover = serre_cover(rep)
    chart = quiver.chart(V0)
    rows = {v: cover.rows[v] for v in quiver.vertices}
    rows[V0] = (
        cover.rows[V0][0],
        (chart.ring.zero(), chart.ring.zero()),
    )
    bad = make_sheaf_map(cover.source, rep, rows)
    with pytest.raises(ValueError):
        vdim_le_one_witness(rep, bad)


# ---------------------------------------------------------------------------
# Finite flat approximations


def test_lazard_with_zero_sub_recovers_free_cover():
    rep = graded_sheaf(p1(), (0, 0))
    cover = serre_cover(rep)
    approx = lazard_approximation(rep, cover, SubRep(cover.source))
    assert approx.qc.ok
    assert approx.vdim.ok
    assert approx.is_iso
    assert approx.sub_bundle.is_bundle and approx.sub_bundle.rank == 0


def test_lazard_with_full_kernel_recovers_the_sheaf():
    quiver = p1()
    cover = euler_cover_p1(quiver)
    rep = cover.target
    ker_rep, incl = kernel(cover)
    sub = SubRep(cover.source)
    for v in quiver.vertices:
        for row in incl.rows[v]:
            sub.add(v, row)
    approx = lazard_approximation(rep, cover, sub)
    assert approx.qc.ok
    assert approx.vdim.ok
    assert approx.is_iso
    assert approx.sub_bundle.is_bundle and approx.sub_bundle.rank == 1


def test_lazard_chain_reconstruction():
    # growing the sub-representation from zero to the full kernel moves the
    # approximation from the free cover to the sheaf itself
    quiver = p1()
    cover = euler_cover_p1(quiver)
    rep = cover.target
    first = lazard_approximation(rep, cover, SubRep(cover.source))
    assert not first.is_iso
    assert map_is_surjective(first.to_f)
    ker_rep, incl = kernel(cover)
    sub = SubRep(cover.source)
    for v in quiver.vertices:
        for row in incl.rows[v]:
            sub.add(v, row)
    second = lazard_approximation(rep, cover, sub)
    assert second.is_iso


def test_lazard_rejects_sub_outside_kernel():
    quiver = p1()
    cover = euler_cover_p1(quiver)
    chart = quiver.chart(V0)
    sub = SubRep(cover.source)
    sub.add(V0, (chart.ring.one(), chart.ring.zero()))
    with pytest.raises(ValueError):
        lazard_approximation(cover.target, cover, sub)


# ---------------------------------------------------------------------------
# Laurent helpers


laurent_polys = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-9, max_value=9),
    max_size=5,
).map(lambda mapping: laurent_ring(Q).from_terms({(e,): c for e, c in mapping.items()}))


@given(laurent_polys)
def test_laurent_text_round_trip(p):
    assert laurent_from_str(Q, laurent_to_str(p)) == p


@given(laurent_polys)
def test_poly_text_keeps_negative_exponents(p):
    assert terms_from_str(Q, ("s",), poly_to_str(p)) == p.terms


@given(data=st.data())
def test_laurent_text_equals_the_term_loop_it_replaced(data):
    field = data.draw(st.sampled_from((Q, Field.prime(2), Field.prime(7), Field.prime(2**31 - 1))))
    if field.char == 0:
        coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12).map(
            lambda f: field.of_fraction(f.numerator, f.denominator)
        )
    else:
        coeffs = st.integers(0, field.char - 1).map(field.of_int)
    mapping = data.draw(st.dictionaries(st.integers(min_value=-6, max_value=6), coeffs, max_size=5))
    p = laurent_ring(field).from_terms({(e,): c for e, c in mapping.items()})
    text = laurent_to_str(p)
    assert text == oracle_laurent_to_str(p)
    assert laurent_from_str(field, text) == p


def test_the_laurent_rings_keep_their_bound_and_an_evicted_ring_compares_equal():
    laurent_ring.cache_clear()
    f3 = Field.prime(3)
    first = laurent_ring(f3)
    before = LaurentPoly.monomial(f3, -1)
    others = [Q] + [Field.prime(p) for p in (2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)]
    for field in others[:SKELETONS]:
        laurent_ring(field)
        assert laurent_ring.cache_info().currsize <= SKELETONS
    again = laurent_ring(f3)
    assert again is not first and again == first
    assert before + LaurentPoly.monomial(f3, 2) == laurent_from_str(f3, "s^-1 + s^2")


def test_poly_text_of_a_laurent_polynomial():
    assert poly_to_str(lp("s^-1 - 2*s^-3 + s^2")) == "s^2 + s^-1 - 2*s^-3"


@pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=["Q", "F7"])
@given(data=st.data())
def test_polynomial_and_laurent_readers_agree(field, data):
    if field.char == 0:
        coeffs = st.fractions(min_value=-9, max_value=9)
    else:
        coeffs = st.integers(1, field.char - 1)
    mapping = data.draw(st.dictionaries(st.integers(min_value=0, max_value=6), coeffs, max_size=5))
    ring = PolyRing(field, ("s",))
    poly = ring.from_terms({(e,): c for e, c in mapping.items()})
    laurent = laurent_ring(field).from_terms({(e,): c for e, c in mapping.items()})
    for text in (poly_to_str(poly), laurent_to_str(laurent)):
        assert poly_from_str(ring, text) == poly
        assert laurent_from_str(field, text) == laurent
    # a negative exponent is a Laurent term, never a polynomial one
    low = data.draw(st.integers(min_value=-6, max_value=-1))
    with_negative = laurent + LaurentPoly.monomial(field, low, field.one)
    text = laurent_to_str(with_negative)
    assert laurent_from_str(field, text) == with_negative
    with pytest.raises(ValueError, match="negative exponent"):
        poly_from_str(ring, text)


def test_laurent_inverse_of_unit_matrix():
    t = lmat([["s^2", "s"], ["0", "1"]])
    inv = lmat_inv(t)
    assert lmat_mul(t, inv) == lmat_identity(Q, 2)
    assert lmat_mul(inv, t) == lmat_identity(Q, 2)


def test_laurent_inverse_needs_monomial_determinant():
    with pytest.raises(ValueError):
        lmat_inv(lmat([["s + 1"]]))


# ---------------------------------------------------------------------------
# Global sections oracle (independent of the splitting type)


def test_sections_of_single_twists():
    for k in range(-3, 4):
        t = lmat([["s^%d" % k]])
        assert global_sections_dim(t, birkhoff_split(t)) == max(0, k + 1)


def test_sections_of_diagonal_sum():
    t = lmat([["s^2", "0"], ["0", "s^-1"]])
    assert global_sections_dim(t, birkhoff_split(t)) == 3


def test_sections_of_coupled_matrix():
    # frozen by hand: sections are pairs (p*s^2, p*s + q) with p in the span
    # of 1, 1/s, 1/s^2 and q chosen to cancel the principal part, so the
    # space has dimension four
    t = lmat([["s^2", "s"], ["0", "1"]])
    assert global_sections_dim(t, birkhoff_split(t)) == 4


# ---------------------------------------------------------------------------
# Birkhoff factorization


def test_split_of_diagonal_matrix():
    t = lmat([["s^2", "0"], ["0", "s^-1"]])
    split = birkhoff_split(t)
    assert split.splitting_type == (2, -1)
    assert split.left == lmat_identity(Q, 2)
    assert split.right == lmat_identity(Q, 2)


def test_split_of_coupled_matrix():
    t = lmat([["s^2", "s"], ["0", "1"]])
    split = birkhoff_split(t)
    assert split.splitting_type == (1, 1)
    assert h0_of_type(split.splitting_type) == 4
    assert h0_of_type(split.splitting_type) == global_sections_dim(t, split)


def test_split_of_identity():
    split = birkhoff_split(lmat_identity(Q, 3))
    assert split.splitting_type == (0, 0, 0)
    assert split.left == lmat_identity(Q, 3)
    assert split.right == lmat_identity(Q, 3)


def test_split_rejects_non_unit_determinant():
    with pytest.raises(ValueError):
        birkhoff_split(lmat([["s", "0"], ["0", "s + 1"]]))
    with pytest.raises(ValueError):
        birkhoff_split(lmat([["s", "0"]]))


def test_split_verification_catches_tampering():
    t = lmat([["s^2", "s"], ["0", "1"]])
    split = birkhoff_split(t)
    from qsheaf.bundles import verify_birkhoff

    assert verify_birkhoff(t, split)
    forged = BirkhoffSplit((2, 0), split.left, split.right)
    assert not verify_birkhoff(t, forged)


def _random_unit_factor(rng, r, side):
    """Unit-determinant matrix over k[s] (side +1) or k[1/s] (side -1) with
    entry degrees at most two in the allowed direction."""
    rows = [list(row) for row in lmat_identity(Q, r)]
    for _ in range(2):
        if r < 2:
            break
        i, j = rng.sample(range(r), 2)
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        k = side * rng.randint(0, 2)
        mono = LaurentPoly.monomial(Q, k, c)
        for t in range(r):
            rows[i][t] = rows[i][t] + mono * rows[j][t]
    if r > 1 and rng.random() < 0.5:
        a, b = rng.sample(range(r), 2)
        rows[a], rows[b] = rows[b], rows[a]
    scale = Fraction(rng.choice([1, 2, -1]))
    rows[0] = [e.scale(scale) for e in rows[0]]
    return tuple(tuple(row) for row in rows)


def test_split_type_is_invariant_and_matches_sections():
    rng = random.Random(97)
    for _ in range(20):
        r = rng.randint(1, 3)
        degrees = sorted((rng.randint(-3, 3) for _ in range(r)), reverse=True)
        diag = tuple(
            tuple(
                LaurentPoly.monomial(Q, degrees[i]) if i == j else LaurentPoly.zero(Q)
                for j in range(r)
            )
            for i in range(r)
        )
        left = _random_unit_factor(rng, r, -1)
        right = _random_unit_factor(rng, r, +1)
        t = lmat_mul(lmat_mul(left, diag), right)
        split = birkhoff_split(t)
        assert split.splitting_type == tuple(degrees)
        assert h0_of_type(split.splitting_type) == global_sections_dim(t, split)


# ---------------------------------------------------------------------------
# Transition matrices


@pytest.mark.parametrize("k", [-2, 0, 3])
def test_transition_of_twist(k):
    t = transition_matrix(twist(p1(), k))
    assert t == lmat([["s^%d" % k]])


def test_transition_round_trip():
    t = lmat([["s^2", "s"], ["0", "1"]])
    rep = bundle_from_transition(Q, t)
    assert is_quasi_coherent(rep).ok
    assert is_vector_bundle(rep).rank == 2
    assert transition_matrix(rep) == t


def test_transition_requires_free_presentation():
    quiver = p1()
    x0 = poly_from_str(quiver.xring, "x0")
    x1 = poly_from_str(quiver.xring, "x1")
    rep = graded_sheaf(quiver, (1, 1), ((x1, x0.scale(Fraction(-1))),))
    with pytest.raises(ValueError):
        transition_matrix(rep)


def test_transition_requires_the_line():
    with pytest.raises(ValueError):
        transition_matrix(structure_sheaf(build_proj_quiver(Q, 2)))


def test_bundle_from_transition_rejects_degenerate_matrix():
    with pytest.raises(ValueError):
        bundle_from_transition(Q, lmat([["s", "0"], ["s", "0"]]))


# ---------------------------------------------------------------------------
# Line-bundle filtration


def test_filtration_of_twist_sum():
    quiver = p1()
    rep = direct_sum(twist(quiver, 2), twist(quiver, -1))
    filt = line_bundle_filtration(rep)
    assert filt.splitting_type == (2, -1)
    assert len(filt.steps) == 3
    assert filt.ok
    full = filt.steps[-1]
    for v in quiver.vertices:
        chart = quiver.chart(v)
        for i in range(2):
            unit = [chart.ring.zero()] * 2
            unit[i] = chart.ring.one()
            assert full.contains(v, tuple(unit))


def test_filtration_of_coupled_transition():
    rep = bundle_from_transition(Q, lmat([["s^2", "s"], ["0", "1"]]))
    filt = line_bundle_filtration(rep)
    assert filt.splitting_type == (1, 1)
    assert filt.ok
    assert len(filt.steps) == 3


def test_filtration_of_structure_sheaf():
    filt = line_bundle_filtration(structure_sheaf(p1()))
    assert filt.splitting_type == (0,)
    assert len(filt.steps) == 2
    assert filt.ok


def test_filtration_rejects_non_bundles():
    with pytest.raises(ValueError):
        line_bundle_filtration(skyscraper_rep(p1()))


def test_chart_laurent_round_trip():
    chart = p1().chart(V01)
    p = poly_from_str(chart.ring, "z1^2 + 3*u1 - 2")
    lpq = chart_to_laurent(chart, p)
    assert lpq == lp("s^2 - 2 + 3*s^-1")
    assert det(((lpq,),)) == lpq


@given(laurent_polys)
def test_laurent_chart_bridge_round_trip(p):
    q = p1()
    assert chart_to_laurent(q.chart(V01), laurent_to_chart(q.chart(V01), p)) == p
    for v, bad in ((V0, lambda e: e < 0), (V1, lambda e: e > 0)):
        if any(bad(e) for (e,) in p.terms):
            with pytest.raises(ValueError):
                laurent_to_chart(q.chart(v), p)
        else:
            laurent_to_chart(q.chart(v), p)


def _leibniz(rows, zero):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = zero
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


@given(st.integers(min_value=1, max_value=4), st.lists(laurent_polys, min_size=16, max_size=16))
def test_det_matches_leibniz_on_laurent_matrices(n, entries):
    rows = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
    assert det(rows) == _leibniz(rows, LaurentPoly.zero(Q))


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.sampled_from(["0", "1", "-2", "z1", "z2 - 1", "3*z1*z2", "z1^2 + z2"]), min_size=16, max_size=16),
)
def test_det_matches_leibniz_on_poly_matrices(n, texts):
    ring = make_chart_ring(Q, 2, {0}).ring
    entries = [poly_from_str(ring, t) for t in texts]
    rows = [[entries[i * n + j] for j in range(n)] for i in range(n)]
    assert det(rows) == _leibniz(rows, ring.zero())
