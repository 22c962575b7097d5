"""The Hill elimination on canonical rows against the oracle.

Vectors enter `qsheaf.hill` reduced mod p, with entries in range(p), and the
private `_rref` and `_reduce` take such canonical rows as they are.  On
canonical rows over F_2, F_3 and F_5, with zero rows, repeated rows and the
empty list among them, they must give `hill_oracle`'s echelon basis and
residue.  The public `fp_rref`, `fp_reduce` and `fp_in_span` take rows with
any integer entries: moving entries by multiples of p, below 0 or to p and
beyond, must not change what they return.
"""

from hypothesis import given, strategies as st

import hill_oracle
from qsheaf.hill import _reduce, _rref, fp_in_span, fp_reduce, fp_rref

PRIMES = (2, 3, 5)


@st.composite
def canonical(draw):
    """(p, rows, vec): up to 6 canonical rows of width ncols <= 6, some of
    them zero rows or repeats of earlier rows, and a canonical vector of
    the same width."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(0, 6))
    entry = st.integers(0, p - 1)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if kind == "zero":
            rows.append((0,) * ncols)
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(tuple(draw(entry) for _ in range(ncols)))
    return p, rows, tuple(draw(entry) for _ in range(ncols))


@given(canonical())
def test_rref_on_canonical_rows_matches_the_oracle(setup):
    p, rows, _ = setup
    assert _rref(p, rows) == hill_oracle.fp_rref(p, rows)


@given(canonical())
def test_reduce_on_canonical_rows_matches_the_oracle(setup):
    p, rows, vec = setup
    basis = hill_oracle.fp_rref(p, rows)
    residue = _reduce(p, basis, vec)
    assert residue == hill_oracle.fp_reduce(p, basis, vec)
    # the residue vanishes exactly when vec adds nothing to the span
    assert (not any(residue)) == (len(hill_oracle.fp_rref(p, rows + [vec])) == len(basis))


@given(canonical(), st.data())
def test_public_wrappers_reduce_raw_entries(setup, data):
    p, rows, vec = setup
    shift = st.integers(-3, 3)

    def raw(row):
        return tuple(e + data.draw(shift) * p for e in row)

    basis = hill_oracle.fp_rref(p, rows)
    residue = hill_oracle.fp_reduce(p, basis, vec)
    assert fp_rref(p, [raw(r) for r in rows]) == basis
    assert fp_reduce(p, basis, raw(vec)) == residue
    assert fp_in_span(p, basis, raw(vec)) == (not any(residue))

