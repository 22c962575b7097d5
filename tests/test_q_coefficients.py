"""Rationals have one representation: an int when integral, else a Fraction
with denominator > 1.

`Field(0)` makes only such values, and the loops in `exactpoly` that work
on raw coefficients keep to the rule.  On random small inputs over Q that
follow it (rank 1-3, 1-3 variables, coefficients with denominators 1-3),
every coefficient that leaves `groebner_basis`, `normal_form`,
`reduce_vec` (remainder and quotients, over a basis that is not monic),
`TrackedBasis` (its basis, `lift` and `kernel`), `syzygies` and
`field_nullspace` follows it too, and so does every value of the `Field`
operations.  Two fixed reductions make a multiplier and a remainder whose
denominators cancel, which random inputs reach only now and then.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exactpoly_oracle import is_q_coefficient, vec_add, vec_mul_poly, vec_zero
from qsheaf.exactpoly import (
    Field,
    PolyRing,
    TrackedBasis,
    field_nullspace,
    groebner_basis,
    normal_form,
    reduce_vec,
    syzygies,
    vec_is_zero,
)

Q = Field(0)


def _rational(draw):
    return Q.of_fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 1, 2, 3))))


def _poly(draw, ring, max_terms=2):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, 2)) for _ in range(ring.nvars))
        terms[exp] = Q.add(terms.get(exp, Q.zero), _rational(draw))
    return ring.from_terms(terms)


def _vec(draw, ring, rank, max_terms=2):
    return tuple(_poly(draw, ring, max_terms) for _ in range(rank))


def _coefficients(vecs):
    return [c for vec in vecs for p in vec for c in p.terms.values()]


def _combine(ring, rank, coeffs, gens):
    acc = vec_zero(ring, rank)
    for c, g in zip(coeffs, gens):
        acc = vec_add(acc, vec_mul_poly(g, c))
    return acc


@settings(max_examples=60)
@given(st.data())
def test_groebner_runs_keep_the_representation(data):
    draw = data.draw
    nvars, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ring = PolyRing(Q, tuple("x%d" % i for i in range(nvars)))
    # two terms of degree <= 6 per entry and at most three generators keep
    # every tracked run small
    gens = [_vec(draw, ring, rank) for _ in range(draw(st.integers(1, 3)))]
    assert all(map(is_q_coefficient, _coefficients(gens)))
    gb = groebner_basis(gens, ring)
    inside = _combine(ring, rank, [_poly(draw, ring) for _ in gens], gens)
    outside = _vec(draw, ring, rank, 3)
    assert all(map(is_q_coefficient, _coefficients(gb + [inside])))
    for vec in (inside, outside):
        assert all(map(is_q_coefficient, _coefficients([normal_form(vec, gb, ring)])))
    assert vec_is_zero(normal_form(inside, gb, ring))
    reducers = [g for g in gens if not vec_is_zero(g)]
    rem, quot = reduce_vec(outside, reducers, ring, track=True)
    assert all(map(is_q_coefficient, _coefficients([rem, quot])))

    tracked = TrackedBasis(gens, ring, rank)
    assert all(map(is_q_coefficient, _coefficients(tracked.basis)))
    rows = tracked.kernel()
    assert all(map(is_q_coefficient, _coefficients(rows)))
    lifts = [lift for lift in (tracked.lift(inside), tracked.lift(outside)) if lift is not None]
    assert lifts
    assert all(map(is_q_coefficient, _coefficients(lifts)))
    assert _combine(ring, rank, lifts[0], gens) == inside
    syz = syzygies(gens, ring)
    assert all(map(is_q_coefficient, _coefficients(syz)))
    for row in syz:
        assert vec_is_zero(_combine(ring, rank, row, gens))


def test_reduction_step_and_remainder_are_ints_when_denominators_cancel():
    ring = PolyRing(Q, ("x",))
    x, half = ring.var(0), Q.of_fraction(1, 2)
    # x + 3/2 over 2x + 1: the step has multiplier 1/2, the remainder 3/2 - 1/2
    vec = (x + ring.constant(Q.of_fraction(3, 2)),)
    rem, quot = reduce_vec(vec, [(x.scale(2) + ring.one(),)], ring, track=True)
    assert rem[0].terms == {(0,): 1} and type(rem[0].terms[(0,)]) is int
    assert quot[0].terms == {(0,): half}
    # x/2 over x/2 + 1: the multiplier (1/2) / (1/2) is 1
    rem, quot = reduce_vec((x.scale(half),), [(x.scale(half) + ring.one(),)], ring, track=True)
    assert quot[0].terms == {(0,): 1} and type(quot[0].terms[(0,)]) is int
    assert rem[0].terms == {(0,): -1} and type(rem[0].terms[(0,)]) is int


@given(st.data())
def test_field_nullspace_keeps_the_representation(data):
    draw = data.draw
    ncols = draw(st.integers(0, 5))
    rows = [[_rational(draw) for _ in range(ncols)] for _ in range(draw(st.integers(0, 5)))]
    assert all(is_q_coefficient(e) for row in rows for e in row)
    for vec in field_nullspace(Q, rows, ncols):
        assert all(map(is_q_coefficient, vec))
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(st.integers(-4, 4), st.integers(1, 4), st.integers(-4, 4), st.integers(1, 4))
def test_field_operations_keep_the_representation(n1, d1, n2, d2):
    a, b = Q.of_fraction(n1, d1), Q.of_fraction(n2, d2)
    values = [Q.zero, Q.one, Q.of_int(n1), a, b, Q.add(a, b), Q.mul(a, b), Q.neg(a)]
    values += [Q.coeff_from_str("%d/%d" % (n1, d1)), Q.coeff_from_str(str(n2))]
    if b != 0:
        values += [Q.inv(b), Q.div(a, b)]
    assert all(map(is_q_coefficient, values))
    assert Q.inv(1) == 1 and type(Q.inv(-1)) is int
    # the printed form is the one a Fraction of the same value prints
    for v in values:
        assert Q.coeff_str(v) == str(Fraction(v))
