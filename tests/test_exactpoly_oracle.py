"""The heap-based reduction and Buchberger core against the old routines.

`exactpoly_oracle` keeps the `reduce_vec`, `_buchberger` and
`_reduced_basis` that rebuilt the work vector and recomputed leads at every
step.  On random small inputs over Q and F_p, p in {2, 5, 7}, in ranks 1-3
with 1-3 variables, the new routines must give the same remainders and
quotients, the same untracked and reduced bases, and tracked runs whose
basis is the untracked one, whose combinations rebuild it and whose
syzygy rows generate the oracle's syzygy module.  Reducer lists come in
arbitrary order: they need not be Groebner bases and may repeat a lead or
hold a zero vector, since `normal_form` promises a well-defined remainder
for any list.

A tracked run over rows modulo a second list of rows keeps combinations and
syzygies over the rows alone and skips the pairs of single-entry elements
with coprime leads by the product criterion, recording their Koszul
syzygies.  On inputs that mix unit rows, single-entry rows q*e_p and rows
of several entries, its reduced basis, kernel and lifts must agree with
the oracle's tracked run over both lists, which processes every pair.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import exactpoly_oracle as oracle
from qsheaf.exactpoly import (
    Field,
    PolyRing,
    TrackedBasis,
    _buchberger,
    _dense,
    _reduced_basis,
    groebner_basis,
    normal_form,
    reduce_vec,
    term_key,
    vec_is_zero,
    vec_lead,
    vec_sub,
    vec_unit,
)
from exactpoly_oracle import vec_add, vec_mul_poly, vec_zero

FIELDS = (Field(0), Field(2), Field(5), Field(7))


@st.composite
def setups(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    ring = PolyRing(field, tuple("x%d" % i for i in range(nvars)))
    return ring, rank


def polys(draw, ring, max_terms=3, max_deg=6):
    field = ring.field
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, 2)) for _ in range(ring.nvars))
        if sum(exp) > max_deg:
            continue
        num = draw(st.integers(-3, 3))
        den = draw(st.sampled_from((1, 2, 3))) if field.char == 0 else 1
        terms[exp] = field.add(terms.get(exp, field.zero), field.of_fraction(num, den))
    return ring.from_terms(terms)


def vecs(draw, ring, rank, max_terms=3, max_deg=6):
    return tuple(polys(draw, ring, max_terms, max_deg) for _ in range(rank))


def reducer_list(draw, ring, rank):
    """Arbitrary reducers: random vectors, some whose lead is an earlier
    reducer's lead or a multiple of it, and now and then a zero vector."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("new", "new", "new", "same-lead", "zero")))
        leading = [b for b in out if vec_lead(b)]
        if kind == "same-lead" and leading:
            base = draw(st.sampled_from(leading))
            pos, exp, _ = vec_lead(base)
            shift = tuple(draw(st.integers(0, 1)) for _ in range(ring.nvars))
            scaled = oracle.vec_mul_term(base, shift, ring.field.of_int(draw(st.sampled_from((1, 3)))))
            top = term_key(pos, tuple(a + b for a, b in zip(exp, shift)))
            # a new tail: only terms below the lead of the scaled copy
            tail = tuple(
                ring.from_terms({e: c for e, c in p.terms.items() if term_key(i, e) < top})
                for i, p in enumerate(vecs(draw, ring, rank, 2))
            )
            out.append(vec_add(scaled, tail))
        elif kind == "zero":
            out.append(vec_zero(ring, rank))
        else:
            v = vecs(draw, ring, rank)
            if vec_lead(v) is not None:
                out.append(v)
    return out


@settings(max_examples=150)
@given(st.data())
def test_reduce_vec_matches_oracle(data):
    ring, rank = data.draw(setups())
    basis = reducer_list(data.draw, ring, rank)
    vec = vecs(data.draw, ring, rank, 5)
    assert reduce_vec(vec, basis, ring) == oracle.reduce_vec(vec, basis, ring)
    rem, quot = reduce_vec(vec, basis, ring, track=True)
    old_rem, old_quot = oracle.reduce_vec(vec, basis, ring, track=True)
    assert rem == old_rem
    assert quot == old_quot


def _combine(ring, rank, coeffs, gens):
    acc = vec_zero(ring, rank)
    for c, g in zip(coeffs, gens):
        acc = vec_add(acc, vec_mul_poly(g, c))
    return acc


@settings(max_examples=150)
@given(st.data())
def test_buchberger_matches_oracle(data):
    ring, rank = data.draw(setups())
    # two terms of degree <= 3 per entry: the oracle's tracked run processes
    # every pair, and larger inputs can make it run for minutes
    gens = [vecs(data.draw, ring, rank, 2, 3) for _ in range(data.draw(st.integers(1, 3)))]
    basis, combos, syz = _buchberger(gens, (), ring, rank, False)
    assert (basis, combos, syz) == oracle._buchberger(gens, ring, rank, False)
    # a tracked run skips pairs by the chain criterion, which the oracle's
    # does not: its syzygy list differs, the module it generates does not
    tracked, combos, syz = _buchberger(gens, (), ring, rank, True)
    assert tracked == basis
    for b, combo in zip(tracked, combos):
        assert _combine(ring, rank, _dense(ring, combo, len(gens)), gens) == b
    rows = [_dense(ring, row, len(gens)) for row in syz]
    for row in rows:
        assert vec_is_zero(_combine(ring, rank, row, gens))
    _, _, old_rows = oracle._buchberger(gens, ring, rank, True)
    assert groebner_basis(rows, ring) == groebner_basis(old_rows, ring)
    old_basis, _, _ = oracle._buchberger(gens, ring, rank, False)
    nonzero = [g for g in gens if any(g)]
    expected = oracle._reduced_basis(old_basis, ring) if nonzero else []
    assert groebner_basis(gens, ring) == expected


def test_oracle_sees_reducer_order():
    # two reducers of one lead: the first in list order is used, so the
    # remainder depends on the order of a non-Groebner list
    ring = PolyRing(Field(0), ("x", "y"))
    x, y = ring.var(0), ring.var(1)
    one = ring.one()
    f, g = (x + y,), (x + one,)
    vec = (x,)
    for basis in ([f, g], [g, f]):
        assert reduce_vec(vec, basis, ring) == oracle.reduce_vec(vec, basis, ring)
    assert reduce_vec(vec, [f, g], ring) != reduce_vec(vec, [g, f], ring)
    assert reduce_vec((x * x,), [f], ring, track=True)[1][0].terms == {
        (1, 0): Fraction(1), (0, 1): Fraction(-1)}


def mixed_rows(draw, ring, rank, count):
    """Unit rows, single-entry rows q*e_p and rows of several entries."""
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(("unit", "single", "single", "multi")))
        pos = draw(st.integers(0, rank - 1))
        if kind == "unit":
            out.append(vec_unit(ring, rank, pos))
        elif kind == "single":
            q = polys(draw, ring, 2, 3)
            out.append(tuple(q if k == pos else ring.zero() for k in range(rank)))
        else:
            out.append(vecs(draw, ring, rank, 2, 3))
    return out


def _spans(ring, gens, vecs_):
    """Every vector lies in the span of gens."""
    gb = groebner_basis(gens, ring)
    return all(vec_is_zero(normal_form(v, gb, ring)) for v in vecs_)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tracked_rows_modulo_a_list_match_oracle(data):
    ring, rank = data.draw(setups())
    rows = mixed_rows(data.draw, ring, rank, data.draw(st.integers(1, 3)))
    mod = mixed_rows(data.draw, ring, rank, data.draw(st.integers(0, 3)))
    tracked = TrackedBasis(rows, ring, rank, mod)
    old_basis, _, old_syz = oracle._buchberger(rows + mod, ring, rank, True)
    assert _reduced_basis(tracked.basis, ring) == oracle._reduced_basis(old_basis, ring)
    # every kernel row is a relation among the rows modulo mod, and the
    # kernel generates the oracle's syzygies cut down to the rows
    kernel = tracked.kernel()
    assert _spans(ring, mod, [_combine(ring, rank, row, rows) for row in kernel])
    old_rows = [row[: len(rows)] for row in old_syz]
    assert _spans(ring, kernel, old_rows)
    assert _spans(ring, old_rows, kernel)
    # lift decides membership as the oracle's basis does, and rebuilds
    # each member over the rows modulo mod
    mults = [polys(data.draw, ring, 2, 2) for _ in rows + mod]
    member = vec_add(
        _combine(ring, rank, mults[: len(rows)], rows), _combine(ring, rank, mults[len(rows):], mod)
    )
    for vec in (member, vecs(data.draw, ring, rank, 3)):
        coeffs = tracked.lift(vec)
        inside = vec_is_zero(oracle.reduce_vec(vec, old_basis, ring))
        assert (coeffs is not None) == inside
        if coeffs is not None:
            assert len(coeffs) == len(rows)
            assert _spans(ring, mod, [vec_sub(vec, _combine(ring, rank, coeffs, rows))])
    assert tracked.lift(member) is not None
