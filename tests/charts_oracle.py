"""The coordinate change between charts before it went through the Laurent
bridge, kept as a test oracle.

`apply` evaluates a source polynomial at the images of the source
variables, each the target chart monomial with the variable's Laurent
exponent in normal form, and reduces the result; that was `ChartHom.apply`
over the `images` its constructor reduced one by one, with
`Poly.substitute`.  `dehomogenize` is `ChartRing.dehomogenize`'s index loop.

`unit_diagonal` tells which way `FPModule.certificate` made a certificate,
by its shape alone.
"""

from __future__ import annotations

from typing import Sequence

from exactpoly_oracle import poly_pow

from qsheaf.exactpoly import DimensionMismatchError, Poly


def substitute(p: Poly, images: Sequence[Poly]) -> Poly:
    """Evaluate at images[i] for variable i; images share one target ring."""
    if len(images) != p.ring.nvars:
        raise DimensionMismatchError("one image per variable required")
    target = images[0].ring if images else p.ring
    out = target.zero()
    for e, c in p.terms.items():
        term = target.constant(c)
        for i, ei in enumerate(e):
            if ei:
                term = term * poly_pow(images[i], ei)
        out = out + term
    return out


def images(source, target) -> tuple:
    images = []
    for lv in source._var_laurent:
        images.append(target.nf(target.from_laurent(Poly(target.xring, {lv: target.field.one}))))
    return tuple(images)


def apply(source, target, p: Poly) -> Poly:
    return target.nf(substitute(p, images(source, target)))


def dehomogenize(chart, g: Poly) -> Poly:
    """Substitute x_pivot = 1 and x_j = z_j into a homogeneous polynomial."""
    out = chart.ring.zero()
    for e, c in g.terms.items():
        exp = [0] * chart.ring.nvars
        for j, ej in enumerate(e):
            if j != chart.pivot and ej:
                exp[chart._z_index[j]] = ej
        out = out + chart.ring.monomial(tuple(exp), c)
    return out


def unit_diagonal(cert) -> bool:
    """cert is a certificate made from a unit diagonal: S is the asker's
    rows alone, square, and B is diagonal.  A constant certificate of
    square rows alone has a constant S, which is a unit diagonal when it
    is diagonal, and only then is its inverse B diagonal."""
    if cert is None or not cert.square or cert.nrows != len(cert.laurent):
        return False
    return all(not p.terms for j, row in enumerate(cert.matrix) for k, p in enumerate(row) if k != j)
