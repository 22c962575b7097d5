"""The Laurent matrix inverse by an adjugate, kept as a test oracle.

`adjugate_inverse` is how `qsheaf.bundles.lmat_inv` inverted a Laurent
matrix before it read the inverse off the verified Birkhoff split: the
determinant must be a unit monomial c*s^e, and entry (j, i) of the inverse
is the signed (i, j) minor, a Laplace determinant, times c^-1*s^-e.  It
makes r^2 + 1 calls to `det`, so the split path has r x r determinants
only.
"""

from __future__ import annotations

from qsheaf.bundles import det


def adjugate_inverse(m):
    """Inverse of a square Laurent matrix whose determinant is a unit
    monomial; ValueError for any other."""
    ring = m[0][0].ring
    field = ring.field
    n = len(m)
    d = det(m)
    if len(d.terms) != 1:
        raise ValueError("matrix is not invertible over the Laurent ring")
    ((dexp,), dcoeff), = d.terms.items()
    inv_scale = field.inv(dcoeff)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(m[ii][jj] for jj in range(n) if jj != j)
                for ii in range(n)
                if ii != i
            )
            cof = det(minor) if n > 1 else ring.one()
            c = field.neg(inv_scale) if (i + j) % 2 else inv_scale
            out[j][i] = cof.mul_term((-dexp,), c)
    return tuple(tuple(row) for row in out)
