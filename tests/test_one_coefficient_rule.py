"""One coefficient rule: a sum of terms adds raw values and settles once.

`Field.settle` takes a dict of raw sums, each a sum of products of field
values taken with plain `+`, `-` and `*`, and returns its nonzero entries as
field values.  On random inputs over Q (ints, Fractions, and integral
Fractions, which no `Field` operation makes but a raw product can) and over
F_p (a small prime and the largest one allowed), it equals the per-term
fold of `Field.add` over the same products.  `Poly`'s `+`, `-` and `*`,
`terms_from_str`, `PolyRing.collect` and `exactpoly.mat_apply` equal the
per-term rule they followed before, which `tests/exactpoly_oracle.py`
keeps, value for value and type for type; `mat_apply` is checked on
signed exponents, as chart Laurent forms have them, with zero rows and
entries and diagonal matrices.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from exactpoly_oracle import _fold, is_q_coefficient, poly_add, poly_mul, poly_sub
from qsheaf.exactpoly import Field, PolyRing, mat_apply, poly_to_str, terms_from_str

FIELDS = (Field(0), Field(2), Field(7), Field(2**31 - 1))
KEYS = st.tuples(st.integers(0, 2), st.integers(0, 2))
SIGNED_KEYS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def _raw(draw, field):
    """A value a raw sum may hold: over Q an int, a Fraction or an integral
    Fraction (which no Field operation makes, but a raw sum can), over F_p
    an int in any range."""
    if field.char:
        return draw(st.integers(-3 * field.char, 3 * field.char))
    num = draw(st.integers(-6, 6))
    kind = draw(st.sampled_from(("int", "fraction", "integral")))
    if kind == "int":
        return num
    return Fraction(num, 1 if kind == "integral" else draw(st.integers(1, 4)))


def _value(draw, field):
    """A field value, as Field makes them."""
    if field.char:
        return draw(st.integers(0, field.char - 1))
    return field.of_fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 1, 2, 3))))


def _typed(terms: dict) -> dict:
    return {e: (type(c), c) for e, c in terms.items()}


@given(st.data())
def test_settle_equals_the_per_term_fold(data):
    field = data.draw(st.sampled_from(FIELDS))
    products = [
        (data.draw(KEYS), _raw(data.draw, field), _raw(data.draw, field))
        for _ in range(data.draw(st.integers(0, 8)))
    ]
    raw: dict = {}
    for key, a, b in products:
        raw[key] = raw.get(key, 0) + a * b
    settled = field.settle(raw)
    folded = _fold(field, {}, ((key, field.mul(a, b)) for key, a, b in products), field.add)
    assert _typed(settled) == _typed(folded)
    if field.char:
        assert all(0 < c < field.char for c in settled.values())
    else:
        assert all(c and is_q_coefficient(c) for c in settled.values())


def _poly(draw, ring, keys=KEYS):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[draw(keys)] = _value(draw, ring.field)
    return ring.from_terms(terms)


@given(st.data())
def test_poly_arithmetic_equals_the_per_term_rule(data):
    field = data.draw(st.sampled_from(FIELDS))
    ring = PolyRing(field, ("x", "y"))
    a, b = _poly(data.draw, ring), _poly(data.draw, ring)
    for got, want in ((a + b, poly_add(a, b)), (a - b, poly_sub(a, b)), (a * b, poly_mul(a, b))):
        assert _typed(got.terms) == _typed(want.terms)
    assert (a - a).is_zero()


@given(st.data())
def test_collect_and_terms_from_str_equal_the_per_term_rule(data):
    field = data.draw(st.sampled_from(FIELDS))
    ring = PolyRing(field, ("x", "y"))
    pairs = [(data.draw(SIGNED_KEYS), _value(data.draw, field)) for _ in range(data.draw(st.integers(0, 6)))]
    collected = ring.collect(pairs)
    assert collected.ring is ring
    assert _typed(collected.terms) == _typed(_fold(field, {}, pairs, field.add))
    polys = [_poly(data.draw, ring) for _ in range(data.draw(st.integers(1, 3)))]
    text, total = poly_to_str(polys[0]), polys[0]
    for p in polys[1:]:
        more = poly_to_str(p)
        text += " - " + more[1:] if more.startswith("-") else " + " + more
        total = poly_add(total, p)
    assert _typed(terms_from_str(field, ring.names, text)) == _typed(total.terms)


def _folded_product(vec, rows, ring, width):
    """vec times the matrix rows, each entry summed by poly_add of the
    poly_mul products, the per-term rule."""
    out = [ring.zero()] * width
    for coeff, row in zip(vec, rows):
        for k, entry in enumerate(row):
            out[k] = poly_add(out[k], poly_mul(coeff, entry))
    return out


@given(st.data())
def test_mat_apply_equals_the_per_term_rule(data):
    field = data.draw(st.sampled_from(FIELDS))
    ring = PolyRing(field, ("x", "y"))
    height = data.draw(st.integers(0, 4))
    diagonal = data.draw(st.booleans())
    width = height if diagonal else data.draw(st.integers(0, 3))
    rows = [
        [ring.zero() if diagonal and k != i else _poly(data.draw, ring, SIGNED_KEYS) for k in range(width)]
        for i in range(height)
    ]
    if height and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, height - 1))] = [ring.zero()] * width
    vec = [_poly(data.draw, ring, SIGNED_KEYS) for _ in range(height)]
    got = mat_apply(vec, rows, ring, width)
    assert all(p.ring is ring for p in got)
    want = _folded_product(vec, rows, ring, width)
    assert [_typed(p.terms) for p in got] == [_typed(p.terms) for p in want]
