"""Laurent matrix inverses read off the verified Birkhoff split.

`lmat_inv` returns Rm * diag(s^-a) * L from the split L * T * Rm = diag(s^a),
and `line_bundle_filtration` takes Rm^-1 = diag(s^-a) * L * T from the same
identity.  On scrambled unit-determinant matrices over Q and F_p both must
be the adjugate inverse of `bundles_oracle`, and `split-p1`/`filter-p1`
must compute determinants of full size only: an adjugate would show up as
r^2 minors.
"""

import random

import pytest
from bundles_oracle import adjugate_inverse
from hypothesis import given, settings, strategies as st

from qsheaf import bundles
from qsheaf.bundles import (
    LaurentPoly,
    birkhoff_split,
    bundle_from_transition,
    chart_to_laurent,
    laurent_from_str,
    line_bundle_filtration,
    lmat_identity,
    lmat_inv,
    lmat_mul,
)
from qsheaf.cli import EXIT_OK, JobSpec, run
from qsheaf.exactpoly import Field
from qsheaf.sheaffile import transition_text

FIELDS = (Field.rationals(), Field.prime(3), Field.prime(5))
V0 = frozenset({0})
NOT_INVERTIBLE = "transition matrix is not invertible over the Laurent ring"


def _elementary(field, r, ops, side):
    """Product of the elementary operations row i += c*s^(side*k) * row j
    (i != j) applied to the identity: unit determinant, entries over k[s]
    for side +1 and over k[1/s] for side -1."""
    rows = [list(row) for row in lmat_identity(field, r)]
    for i, j, c, k in ops:
        if i % r == j % r:
            continue
        mono = LaurentPoly.monomial(field, side * k, field.of_int(c))
        rows[i % r] = [a + mono * b for a, b in zip(rows[i % r], rows[j % r])]
    return tuple(tuple(row) for row in rows)


def scramble(field, degrees, left_ops, right_ops):
    """diag(s^a) between an elementary factor over k[1/s] and one over k[s]."""
    r = len(degrees)
    diag = tuple(
        tuple(LaurentPoly.monomial(field, a) if i == j else LaurentPoly.zero(field) for j in range(r))
        for i, a in enumerate(degrees)
    )
    left = _elementary(field, r, left_ops, -1)
    right = _elementary(field, r, right_ops, +1)
    return lmat_mul(lmat_mul(left, diag), right)


_OPS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from((-2, -1, 1, 2)), st.integers(0, 2)),
    max_size=12,
)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    _OPS,
    _OPS,
)
def test_inverse_and_filtration_rows_match_the_adjugate(field, degrees, left_ops, right_ops):
    t = scramble(field, degrees, left_ops, right_ops)
    identity = lmat_identity(field, len(t))
    inv = lmat_inv(t)
    assert inv == adjugate_inverse(t)
    assert lmat_mul(t, inv) == identity
    assert lmat_mul(inv, t) == identity
    # the {0} rows of the full step are the rows of Rm^-1
    rep = bundle_from_transition(field, t)
    filtration = line_bundle_filtration(rep)
    chart = rep.quiver.chart(V0)
    rows0 = filtration.steps[-1].sections[V0]
    rows0 = tuple(tuple(chart_to_laurent(chart, e) for e in row) for row in rows0)
    assert rows0 == adjugate_inverse(birkhoff_split(t).right)


def _lmat(field, rows):
    return tuple(tuple(laurent_from_str(field, e) for e in row) for row in rows)


@pytest.mark.parametrize(
    "rows",
    [
        # the triangular form has a row with nothing left past the diagonal
        [["s", "1"], ["s^2", "s"]],
        [["1", "s"], ["0", "0"]],
        # a triangular diagonal entry of two terms
        [["s + 1"]],
        [["s", "0"], ["0", "s + 1"]],
    ],
)
def test_the_splitter_decides_invertibility(rows):
    t = _lmat(FIELDS[0], rows)
    for call in (birkhoff_split, lmat_inv):
        with pytest.raises(ValueError, match="^" + NOT_INVERTIBLE + "$"):
            call(t)


def _rank_five_scramble():
    rng = random.Random(5)
    field = FIELDS[0]

    def ops():
        draws = ((rng.sample(range(5), 2), rng.choice((-2, -1, 1, 2)), rng.randint(0, 2)) for _ in range(10))
        return [(i, j, c, k) for (i, j), c, k in draws]

    t = scramble(field, (3, 1, 0, -1, -2), ops(), ops())
    assert all(not p.is_zero() for row in t for p in row)
    return field, t


@pytest.mark.parametrize("command,calls", [("split-p1", 3), ("filter-p1", 7)])
def test_commands_compute_no_minors(monkeypatch, tmp_path, command, calls):
    # split-p1 splits once: the three determinants are verify_birkhoff's
    # (L, Rm and T), and global_sections_dim reads its inverse off that split
    field, t = _rank_five_scramble()
    path = tmp_path / "t.txt"
    path.write_text(transition_text(field, t))
    sizes = []
    depth = [0]
    det = bundles.det

    def counted(rows):
        if not depth[0]:
            sizes.append((len(rows), {len(row) for row in rows}))
        depth[0] += 1
        try:
            return det(rows)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(bundles, "det", counted)
    report = run(JobSpec(command=command, inputs=(str(path),)))
    assert report.exit_status == EXIT_OK
    assert sizes == [(5, {5})] * calls

