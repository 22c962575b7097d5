"""The one Gauss-Jordan kernel against the two loops it replaced.

`exactpoly.rref` is the reduced-echelon routine over Q and F_p;
`hill.fp_rref` and `exactpoly.field_nullspace` read their answers off it.
`hill_oracle.fp_rref` and `exactpoly_oracle.field_nullspace` keep the old
loops.  On random matrices up to 5x5 over Q and F_p, p in {2, 3, 5, 7},
with zero rows, repeated rows and the empty matrix among them, the kernel
must give the oracles' echelon bases and nullspaces, and exact entries
over Q: an int when integral, else a Fraction with denominator > 1.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

import exactpoly_oracle
import hill_oracle
from qsheaf.exactpoly import Field, field_nullspace, rref
from qsheaf.hill import fp_rref, fp_vec

PRIMES = (2, 3, 5, 7)


@st.composite
def matrices(draw, entries):
    """(ncols, rows): up to 5 rows of width ncols <= 5, some of them zero
    rows or repeats of earlier rows."""
    ncols = draw(st.integers(0, 5))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([draw(entries) for _ in range(ncols)])
    return ncols, rows


def rationals():
    """Small rationals, as int or Fraction, zero often."""
    ints = st.integers(-3, 3)
    return st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 4)))


def fp_setups():
    return st.sampled_from(PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), matrices(st.integers(0, p - 1)))
    )


def _is_reduced_echelon(mat, pivots) -> bool:
    rank = len(pivots)
    for r, col in enumerate(pivots):
        if any(mat[r][:col]) or mat[r][col] != 1:
            return False
        if any(mat[i][col] for i in range(len(mat)) if i != r):
            return False
    return list(pivots) == sorted(pivots) and not any(any(row) for row in mat[rank:])


@given(fp_setups(), st.integers(-20, 20))
def test_kernel_over_fp_matches_the_fp_rref_oracle(setup, shift):
    p, (ncols, rows) = setup
    # fp_rref reduces its entries first, so shifted copies span the same
    shifted = [[e + shift * p for e in row] for row in rows]
    expected = hill_oracle.fp_rref(p, shifted)
    assert fp_rref(p, shifted) == expected
    mat = [list(fp_vec(p, row)) for row in rows]
    pivots = rref(p, mat, ncols)
    assert _is_reduced_echelon(mat, pivots)
    assert tuple(tuple(row) for row in mat[: len(pivots)]) == expected


@given(fp_setups())
def test_field_nullspace_over_fp_matches_its_oracle(setup):
    p, (ncols, rows) = setup
    field = Field(p)
    assert field_nullspace(field, rows, ncols) == exactpoly_oracle.field_nullspace(
        field, rows, ncols
    )


@given(matrices(rationals()))
def test_kernel_over_q_matches_the_field_nullspace_oracle(matrix):
    ncols, rows = matrix
    field = Field(0)
    expected = exactpoly_oracle.field_nullspace(field, rows, ncols)
    got = field_nullspace(field, rows, ncols)
    assert got == expected
    assert all(exactpoly_oracle.is_q_coefficient(e) for vec in got for e in vec)
    mat = [list(row) for row in rows]
    pivots = rref(0, mat, ncols)
    assert _is_reduced_echelon(mat, pivots)
    assert len(pivots) == ncols - len(expected)
    # the echelon rows span the row space, so each is orthogonal to the kernel
    for row in mat[: len(pivots)]:
        assert all(exactpoly_oracle.is_q_coefficient(e) for e in row)
        for vec in expected:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_kernel_on_the_empty_matrix():
    assert rref(0, [], 3) == [] and rref(2, [], 0) == []
    assert fp_rref(5, []) == hill_oracle.fp_rref(5, []) == ()
    for field in (Field(0), Field(3)):
        assert field_nullspace(field, [], 2) == exactpoly_oracle.field_nullspace(field, [], 2)
        assert field_nullspace(field, [], 0) == []
