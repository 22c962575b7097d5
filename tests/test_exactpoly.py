"""Engine tests.  Expected values are frozen from independent oracles:

- a naive textbook Buchberger (no pair criteria, FIFO pair order, lead-only
  reduction) reimplemented here for basis comparisons;
- a dense degree-bounded linear-algebra solver over Fraction for syzygy
  completeness;
- hand division for the normal-form examples.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from exactpoly_oracle import combos, field_sub, from_int, syzygy_rows, vec_mul_poly
from hypothesis import given, settings, strategies as st

from qsheaf.charts import ideal_block
from qsheaf.exactpoly import (
    DimensionMismatchError,
    Field,
    Poly,
    PolyRing,
    PresIdeal,
    RingMismatchError,
    TrackedBasis,
    _heap_key,
    field_nullspace,
    grevlex_key,
    groebner_basis,
    ideal_contains_one,
    module_kernel,
    normal_form,
    poly_from_str,
    poly_to_str,
    syzygies,
    term_key,
    vec_is_zero,
    vec_lead,
    vec_sub,
)

Q = Field.rationals()


def ring(*names, field=Q):
    return PolyRing(field, tuple(names))


def p(r, text):
    return poly_from_str(r, text)


# --- independent oracle 1: naive Buchberger, no criteria, FIFO, lead-reduction


def _naive_lead_reduce(vec, basis, r):
    changed = True
    while changed:
        changed = False
        lt = vec_lead(vec)
        if lt is None:
            return vec
        for b in basis:
            bl = vec_lead(b)
            if bl[0] == lt[0] and all(x <= y for x, y in zip(bl[1], lt[1])):
                mult = tuple(a - b2 for a, b2 in zip(lt[1], bl[1]))
                coeff = r.field.div(lt[2], bl[2])
                vec = vec_sub(vec, tuple(x.mul_term(mult, coeff) for x in b))
                changed = True
                break
    return vec


def naive_groebner(gens, r):
    basis = [g for g in gens if not vec_is_zero(g)]
    queue = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while queue:
        i, j = queue.pop(0)
        li, lj = vec_lead(basis[i]), vec_lead(basis[j])
        if li[0] != lj[0]:
            continue
        lcm = tuple(max(a, b) for a, b in zip(li[1], lj[1]))
        s = vec_sub(
            tuple(x.mul_term(tuple(a - b for a, b in zip(lcm, li[1])), r.field.inv(li[2])) for x in basis[i]),
            tuple(x.mul_term(tuple(a - b for a, b in zip(lcm, lj[1])), r.field.inv(lj[2])) for x in basis[j]),
        )
        rem = _naive_lead_reduce(s, basis, r)
        if not vec_is_zero(rem):
            basis.append(rem)
            queue.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


# --- independent oracle 2: dense degree-bounded syzygy solver over Fraction


def _monomials_upto(nvars, deg):
    out = []
    for total in range(deg + 1):
        for exp in itertools.product(range(total + 1), repeat=nvars):
            if sum(exp) == total:
                out.append(exp)
    return sorted(out, key=grevlex_key)


def bounded_syzygies(gens, r, coeff_deg):
    """All syzygy rows with polynomial coefficients of degree <= coeff_deg,
    found by Gaussian elimination on monomial coefficients over r's field."""
    f = r.field
    rank = len(gens[0])
    mons = _monomials_upto(r.nvars, coeff_deg)
    max_deg = max(max((g_i.degree() for g_i in g), default=0) for g in gens)
    tgt = _monomials_upto(r.nvars, coeff_deg + max(0, max_deg))
    tgt_index = {(pos, e): k for k, (pos, e) in enumerate((pos, e) for pos in range(rank) for e in tgt)}
    ncols = len(gens) * len(mons)
    rows = [[f.zero] * ncols for _ in range(len(tgt_index))]
    for gi, g in enumerate(gens):
        for mi, m in enumerate(mons):
            col = gi * len(mons) + mi
            for pos in range(rank):
                for e, c in g[pos].terms.items():
                    prod = tuple(a + b for a, b in zip(e, m))
                    k = tgt_index[(pos, prod)]
                    rows[k][col] = f.add(rows[k][col], c)
    # nullspace via row reduction
    mat = [row[:] for row in rows]
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = next((k for k in range(prow, len(mat)) if mat[k][col] != f.zero), None)
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        inv = f.inv(mat[prow][col])
        mat[prow] = [f.mul(x, inv) for x in mat[prow]]
        for k in range(len(mat)):
            if k != prow and mat[k][col] != f.zero:
                c = mat[k][col]
                mat[k] = [field_sub(f, a, f.mul(c, b)) for a, b in zip(mat[k], mat[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        sol = [f.zero] * ncols
        sol[fc] = f.one
        for prow_i, pc in enumerate(pivots):
            sol[pc] = f.neg(mat[prow_i][fc])
        row = []
        for gi in range(len(gens)):
            terms = {}
            for mi, m in enumerate(mons):
                v = sol[gi * len(mons) + mi]
                if v != f.zero:
                    terms[m] = v
            row.append(r.from_terms(terms))
        basis.append(tuple(row))
    return basis


# --- field and arithmetic -------------------------------------------------


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2**31 + 11)
    assert Field(2147483647).char == 2147483647
    f5 = Field(5)
    assert f5.inv(2) == 3
    assert f5.of_fraction(1, 2) == 3


def test_zero_denominator_is_a_value_error():
    assert Field(0).coeff_from_str("3/6") == Fraction(1, 2)
    assert Field(7).coeff_from_str("3/8") == 3
    for fld, text in ((Field(0), "1/0"), (Field(7), "3/7"), (Field(7), "1/14")):
        with pytest.raises(ValueError, match="zero denominator"):
            fld.coeff_from_str(text)


def test_field_nullspace_is_the_canonical_kernel():
    q = Field.rationals()
    rows = [[q.of_int(a) for a in row] for row in ((1, 2, 3), (2, 4, 6), (0, 0, 1))]
    (vec,) = field_nullspace(q, rows, 3)
    assert vec == (q.of_int(-2), q.one, q.zero)
    f2 = Field(2)
    assert field_nullspace(f2, [[1, 1]], 2) == [(1, 1)]
    assert field_nullspace(f2, [], 2) == [(1, 0), (0, 1)]


def test_poly_arithmetic_fp():
    r = ring("x", field=Field(2))
    x = r.var(0)
    assert (x + r.one()) * (x + r.one()) == x * x + r.one()


def test_ring_mismatch():
    r1, r2 = ring("x"), ring("y")
    with pytest.raises(RingMismatchError):
        r1.var(0) * r2.var(0)


def test_poly_str_roundtrip():
    r = ring("x", "y")
    f = p(r, "3*x^2*y - 1/2*y + 2")
    assert poly_from_str(r, poly_to_str(f)) == f
    assert poly_to_str(r.zero()) == "0"
    with pytest.raises(ValueError):
        p(r, "3*q")
    with pytest.raises(ValueError):
        p(r, "x^-1")


def test_whitespace_in_entries_is_ignored():
    r = ring("x0", "x1")
    assert p(r, "x0\t+ x1") == p(r, "x0 + x1")
    assert p(r, "3\t*x0^2 -\t1/2 *\tx1\n") == p(r, "3*x0^2 - 1/2*x1")


def test_grevlex_order():
    # x0 > x1 in grevlex; ties broken by rightmost-negative difference
    assert grevlex_key((1, 0)) > grevlex_key((0, 1))
    assert grevlex_key((1, 1, 0)) > grevlex_key((1, 0, 1))
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))


# --- groebner_basis -------------------------------------------------------


def test_gb_frozen_example():
    # oracle run (naive Buchberger) froze this reduced basis
    r = ring("x", "y")
    gb = groebner_basis([(p(r, "x^2"),), (p(r, "x*y"),)], r)
    assert [poly_to_str(g[0]) for g in gb] == ["x^2", "x*y"]


def test_gb_matches_naive_oracle():
    r = ring("x", "y")
    cases = [
        [(p(r, "x^2 - y"),), (p(r, "x*y - 1"),)],
        [(p(r, "x^2 + y^2 - 1"),), (p(r, "x - y"),)],
        [(p(r, "x^3 - 1"),), (p(r, "x^2 - x"),)],
    ]
    for gens in cases:
        mine = groebner_basis(gens, r)
        oracle = naive_groebner(gens, r)
        for g in mine:
            assert vec_is_zero(_naive_lead_reduce(g, oracle, r))
        for g in oracle:
            assert vec_is_zero(normal_form(g, mine, r))


def test_gb_module_coprime_leads_same_position():
    # coprimality skip must not apply in rank 2: S-vector y*e2 is essential
    r = ring("x", "y")
    f = (p(r, "x"), r.one())
    g = (p(r, "y"), r.zero())
    gb = groebner_basis([f, g], r)
    target = (r.zero(), p(r, "y"))
    assert vec_is_zero(normal_form(target, gb, r))


def test_gb_idempotent_and_deterministic():
    r = ring("x", "y")
    gens = [(p(r, "x^2 - y"),), (p(r, "x*y - 1"),)]
    gb1 = groebner_basis(gens, r)
    gb2 = groebner_basis(gb1, r)
    assert gb1 == gb2
    assert groebner_basis(gens, r) == gb1


def test_gb_empty_and_zero():
    r = ring("x")
    assert groebner_basis([], r) == []
    assert groebner_basis([(r.zero(),)], r) == []


# --- normal_form ----------------------------------------------------------


def test_normal_form_examples():
    # hand division: x^2 + y mod {x^2} leaves y; full reduction hits tails
    r = ring("x", "y")
    gb = groebner_basis([(p(r, "x^2"),)], r)
    assert normal_form((p(r, "x^2 + y"),), gb, r) == (p(r, "y"),)
    gb2 = groebner_basis([(p(r, "x - y"),)], r)
    assert normal_form((p(r, "x^2"),), gb2, r) == (p(r, "y^2"),)


def test_normal_form_membership():
    r = ring("x", "y")
    gens = [(p(r, "x^2 - y"),), (p(r, "x*y - 1"),)]
    gb = groebner_basis(gens, r)
    combo = vec_sub(
        vec_mul_poly(gens[0], p(r, "x + y")),
        vec_mul_poly(gens[1], p(r, "y^2 - 3")),
    )
    assert vec_is_zero(normal_form(combo, gb, r))


# --- syzygies -------------------------------------------------------------


def test_syzygies_of_unit():
    r = ring("x")
    assert syzygies([(r.one(),)], r) == []


def test_syzygies_duplicate_generator():
    r = ring("x")
    x = (r.var(0),)
    rows = syzygies([x, x], r)
    gb = groebner_basis(rows, r)
    assert vec_is_zero(normal_form((r.one(), from_int(r, -1)), gb, r))


def test_syzygies_koszul():
    r = ring("x", "y")
    gens = [(r.var(0),), (r.var(1),)]
    rows = syzygies(gens, r)
    for row in rows:
        acc = r.zero()
        for c, g in zip(row, gens):
            acc = acc + c * g[0]
        assert acc.is_zero()
    gb = groebner_basis(rows, r)
    assert vec_is_zero(normal_form((p(r, "y"), p(r, "-x")), gb, r))


@pytest.mark.parametrize(
    "gens_text",
    [["x", "y"], ["x^2", "x*y"], ["x", "y", "x*y - 1"], ["x^2 - y", "x*y"]],
)
def test_syzygy_completeness_degree_bounded(gens_text):
    # oracle: dense linear algebra finds every syzygy with coefficients of
    # degree <= 3; each must lie in the span of the returned rows
    r = ring("x", "y")
    gens = [(p(r, t),) for t in gens_text]
    rows = syzygies(gens, r)
    for row in rows:
        acc = r.zero()
        for c, g in zip(row, gens):
            acc = acc + c * g[0]
        assert acc.is_zero()
    gb = groebner_basis(rows, r) if rows else []
    for orc in bounded_syzygies(gens, r, 3):
        assert vec_is_zero(normal_form(orc, gb, r)), orc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_syzygy_completeness_in_rank_two_and_three(data):
    # the chain criterion across module positions: every syzygy with
    # coefficients of degree <= 2 lies in the span of the returned rows
    f = data.draw(st.sampled_from((Q, Field(2), Field(3), Field(7))))
    r = ring("x", "y", field=f)
    rank = data.draw(st.integers(2, 3))
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2)
    entry = st.lists(st.tuples(mono, st.integers(-3, 3)), max_size=2).map(
        lambda ts: r.from_terms({e: f.of_int(sum(c for e2, c in ts if e2 == e)) for e, _ in ts})
    )
    gens = [
        tuple(data.draw(entry) for _ in range(rank)) for _ in range(data.draw(st.integers(2, 4)))
    ]
    rows = syzygies(gens, r)
    for row in rows:
        assert vec_is_zero(_combine(r, rank, row, gens))
    gb = groebner_basis(rows, r) if rows else []
    for orc in bounded_syzygies(gens, r, 2):
        assert vec_is_zero(normal_form(orc, gb, r)), orc


def test_syzygies_module_rank2():
    r = ring("x", "y")
    gens = [(p(r, "x"), r.one()), (p(r, "y"), r.zero()), (p(r, "x*y"), p(r, "y"))]
    rows = syzygies(gens, r)
    for row in rows:
        acc = [r.zero(), r.zero()]
        for c, g in zip(row, gens):
            acc[0] = acc[0] + c * g[0]
            acc[1] = acc[1] + c * g[1]
        assert acc[0].is_zero() and acc[1].is_zero()
    gb = groebner_basis(rows, r)
    assert vec_is_zero(normal_form((p(r, "y"), r.zero(), from_int(r, -1)), gb, r))


# --- module_kernel --------------------------------------------------------


def test_module_kernel_identity():
    r = ring("x")
    rows = [(r.one(), r.zero()), (r.zero(), r.one())]
    assert module_kernel(rows, [], r, 2) == []


def test_module_kernel_xy():
    r = ring("x", "y")
    rows = [(r.var(0),), (r.var(1),)]
    ker = module_kernel(rows, [], r, 1)
    gb = groebner_basis(ker, r)
    assert vec_is_zero(normal_form((p(r, "y"), p(r, "-x")), gb, r))
    for k in ker:
        assert (k[0] * r.var(0) + k[1] * r.var(1)).is_zero()


def test_module_kernel_zero_map():
    r = ring("x")
    ker = module_kernel([(r.zero(),)], [], r, 1)
    gb = groebner_basis(ker, r)
    assert vec_is_zero(normal_form((r.one(),), gb, r))


def test_module_kernel_mod_relations():
    # ker(F_1 -> R/(x)) for the map 1 -> x is everything
    r = ring("x")
    ker = module_kernel([(r.var(0),)], [(r.var(0),)], r, 1)
    gb = groebner_basis(ker, r)
    assert vec_is_zero(normal_form((r.one(),), gb, r))


def test_module_kernel_rank_mismatch():
    r = ring("x")
    with pytest.raises(DimensionMismatchError):
        module_kernel([(r.one(), r.zero())], [(r.one(),)], r, 2)


# --- tracked basis / lift -------------------------------------------------


def test_tracked_lift_reconstructs():
    r = ring("x", "y")
    gens = [(p(r, "x^2 - y"),), (p(r, "x*y - 1"),)]
    tb = TrackedBasis(gens, r, 1)
    target = vec_mul_poly(gens[0], p(r, "y"))
    target = (target[0] + gens[1][0] * p(r, "x - 2"),)
    coeffs = tb.lift(target)
    assert coeffs is not None
    acc = r.zero()
    for c, g in zip(coeffs, gens):
        acc = acc + c * g[0]
    assert acc == target[0]
    assert tb.lift((r.one(),)) is None


# --- ideal_contains_one ---------------------------------------------------


def test_ideal_contains_one():
    r = ring("x", "y")
    assert ideal_contains_one(PresIdeal(r, [p(r, "x"), p(r, "x + 1")]))
    assert not ideal_contains_one(PresIdeal(r, [p(r, "x"), p(r, "y")]))
    assert ideal_contains_one(PresIdeal(r, [from_int(r, 2)]))
    r2 = ring("x", field=Field(2))
    assert not ideal_contains_one(PresIdeal(r2, [p(r2, "x^2 + 1")]))


# --- property tests -------------------------------------------------------


def _poly_strategy(r):
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coeff = st.integers(-3, 3)
    return st.lists(st.tuples(mono, coeff), min_size=0, max_size=4).map(
        lambda ts: r.from_terms(
            {m: sum(Fraction(c) for m2, c in ts if m2 == m) for m, _ in ts}
        )
    )


@given(st.data())
def test_gb_idempotence_random(data):
    r = ring("x", "y")
    polys = data.draw(st.lists(_poly_strategy(r), min_size=1, max_size=3))
    gens = [(q,) for q in polys if not q.is_zero()]
    gb = groebner_basis(gens, r)
    assert groebner_basis(gb, r) == gb


@given(st.data())
def test_gb_membership_random(data):
    r = ring("x", "y")
    polys = data.draw(st.lists(_poly_strategy(r), min_size=1, max_size=3))
    gens = [(q,) for q in polys if not q.is_zero()]
    gb = groebner_basis(gens, r)
    mults = data.draw(st.lists(_poly_strategy(r), min_size=len(gens), max_size=len(gens)))
    combo = r.zero()
    for m, g in zip(mults, gens):
        combo = combo + m * g[0]
    assert vec_is_zero(normal_form((combo,), gb, r))


# --- heap order, tracked bases, pinned work -------------------------------


@given(st.lists(
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=3, max_size=3).map(tuple)),
    max_size=12, unique=True,
))
def test_heap_key_is_descending_term_order(terms):
    # reduce_vec's heap pops the term_key-largest term first
    by_heap = sorted(terms, key=lambda t: _heap_key(*t))
    assert by_heap == sorted(terms, key=lambda t: term_key(*t), reverse=True)


@st.composite
def _generator_lists(draw):
    fld = draw(st.sampled_from((Q, Field(2), Field(5), Field(7))))
    r = ring("x", "y", field=fld)
    rank = draw(st.integers(1, 2))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exp = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            terms[exp] = fld.add(terms.get(exp, fld.zero), fld.of_int(draw(st.integers(-3, 3))))
        return r.from_terms(terms)

    gens = [tuple(poly() for _ in range(rank)) for _ in range(draw(st.integers(1, 3)))]
    mults = [poly() for _ in gens]
    return r, rank, gens, mults


def _combine(r, rank, coeffs, gens):
    acc = [r.zero()] * rank
    for c, g in zip(coeffs, gens):
        acc = [a + c * x for a, x in zip(acc, g)]
    return tuple(acc)


@given(_generator_lists())
def test_tracked_basis_agrees_and_certifies(case):
    r, rank, gens, mults = case
    tb = TrackedBasis(gens, r, rank)
    assert groebner_basis(tb.basis, r) == groebner_basis(gens, r)
    for b, combo in zip(tb.basis, combos(tb)):
        assert _combine(r, rank, combo, gens) == b
    for row in syzygy_rows(tb):
        assert vec_is_zero(_combine(r, rank, row, gens))
    member = _combine(r, rank, mults, gens)
    coeffs = tb.lift(member)
    assert coeffs is not None
    assert _combine(r, rank, coeffs, gens) == member


def test_reduction_count_on_euler_relations(monkeypatch, fixture_dir):
    # divisions (_divide calls: S-vector reductions and interreduction
    # steps) per chart of the Euler quotient on P^2, for the reduced basis
    # and the tracked basis of its relation rows modulo the ideal block:
    # they move only if the pair criteria or the pair order change.  On
    # (0, 1, 2) the product criterion skips the pair of ideal-block rows
    # (u1*z1 - 1)*e_p, (u2*z2 - 1)*e_p at each position p, which both runs
    # reduced before, leaving two S-vector reductions in each run and five
    # interreduction steps in the untracked one
    from qsheaf import exactpoly
    from qsheaf.sheaffile import parse_sheaf_file
    from qsheaf.sheafrep import vertex_key

    calls = []
    real = exactpoly._divide

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exactpoly, "_divide", counting)
    rep = parse_sheaf_file(str(fixture_dir / "euler_q_p2.txt"))
    counts = {}
    for v in sorted(rep.quiver.vertices, key=vertex_key):
        module = rep.modules[v]
        block = ideal_block(module.chart, module.gens)
        calls.clear()
        groebner_basis(module.relations + tuple(block), module.chart.ring)
        untracked = len(calls)
        calls.clear()
        TrackedBasis(module.relations, module.chart.ring, module.gens, block)
        counts[tuple(sorted(v))] = (untracked, len(calls))
    assert counts == {
        (0,): (0, 0), (1,): (0, 0), (2,): (0, 0),
        (0, 1): (4, 1), (0, 2): (4, 1), (1, 2): (5, 1),
        (0, 1, 2): (7, 2),
    }
