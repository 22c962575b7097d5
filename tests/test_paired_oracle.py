"""The F_p intersection, nullspace and solve against the bodies they replaced.

`qsheaf.hill._paired_rref` reads the right halves of the zero-left rows off
its one elimination, and `fp_solve` reduces (target | 0) with `_reduce`.
`hill_oracle` keeps the old bodies, which re-echelon the right halves and
solve with a loop of their own.  On random row lists up to 5x5 over F_p,
p in {2, 3, 5, 7}, with zero rows, repeated rows, unreduced entries, the
empty list and targets outside the span among them, both must agree.
"""

from hypothesis import given, strategies as st

import hill_oracle
from qsheaf.hill import fp_intersect, fp_nullspace, fp_solve, fp_vec

PRIMES = (2, 3, 5, 7)


def _rows(draw, p, ncols, max_rows=5):
    """Up to max_rows rows of width ncols, some zero rows or repeats of
    earlier rows, with entries in [-2p, 3p) so some are unreduced."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if kind == "zero":
            rows.append(tuple(0 for _ in range(ncols)))
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(tuple(draw(st.integers(-2 * p, 3 * p - 1)) for _ in range(ncols)))
    return rows


@st.composite
def setups(draw):
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(0, 5))
    return p, ncols, _rows(draw, p, ncols)


@given(setups())
def test_nullspace_matches_the_oracle(setup):
    p, _, rows = setup
    assert fp_nullspace(p, rows) == hill_oracle.fp_nullspace(p, rows)


@st.composite
def intersections(draw):
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, 5))
    return p, _rows(draw, p, ncols), _rows(draw, p, ncols)


@given(intersections())
def test_intersection_matches_the_oracle(setup):
    p, a, b = setup
    # fp_intersect is given canonical bases by its callers; raw rows too
    for left, right in ((a, b), (hill_oracle.fp_rref(p, a), hill_oracle.fp_rref(p, b))):
        assert fp_intersect(p, left, right) == hill_oracle.fp_intersect(p, left, right)


@st.composite
def systems(draw):
    """(p, gens, target): the target is a combination of the gens shifted
    by an arbitrary vector, so it is often outside their span."""
    p, ncols, gens = draw(setups())
    coeffs = [draw(st.integers(0, p - 1)) for _ in gens]
    target = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)]
    if draw(st.booleans()):
        target = [t + draw(st.integers(-p, p)) for t in target]
    return p, gens, tuple(target)


@given(systems())
def test_solve_matches_the_oracle(system):
    p, gens, target = system
    got = fp_solve(p, gens, target)
    assert got == hill_oracle.fp_solve(p, gens, target)
    if got is not None:
        assert len(got) == len(gens)
        combo = [sum(c * g[j] for c, g in zip(got, gens)) for j in range(len(target))]
        assert fp_vec(p, combo) == fp_vec(p, target)


def test_solve_with_no_generators():
    for p in PRIMES:
        assert fp_solve(p, [], ()) == hill_oracle.fp_solve(p, [], ()) == ()
        assert fp_solve(p, [], (0, p)) == hill_oracle.fp_solve(p, [], (0, p)) == ()
        assert fp_solve(p, [], (1, 0)) is hill_oracle.fp_solve(p, [], (1, 0)) is None
        assert fp_nullspace(p, []) == hill_oracle.fp_nullspace(p, []) == ()
