"""The Laurent matrix inverse by an adjugate, kept as a test oracle.

`adjugate_inverse` is how `qsheaf.bundles.lmat_inv` inverted a Laurent
matrix before it read the inverse off the verified Birkhoff split: the
determinant must be a unit monomial c*s^e, and entry (j, i) of the inverse
is the signed (i, j) minor, a Laplace determinant, times c^-1*s^-e.  It
makes r^2 + 1 calls to `det`, so the split path has r x r determinants
only.

`laurent_to_str` is how `qsheaf.bundles.laurent_to_str` printed a Laurent
polynomial before it printed through `exactpoly.poly_to_str`: a loop of its
own over the terms, highest exponent first, with no spaces.
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


def laurent_to_str(p) -> str:
    """Text of a Laurent polynomial in s, written term by term."""
    if p.is_zero():
        return "0"
    parts = []
    for (e,), c in sorted(p.terms.items(), reverse=True):
        cs = p.ring.field.coeff_str(c)
        if e == 0:
            term = cs
        else:
            base = "s" if e == 1 else "s^" + str(e)
            term = base if cs == "1" else ("-" + base if cs == "-1" else cs + "*" + base)
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)
