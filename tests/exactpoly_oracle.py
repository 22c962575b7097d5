"""The element-by-element reduction and Buchberger core, kept as a test oracle.

These are the routines `qsheaf.exactpoly.reduce_vec`, `_buchberger` and
`_reduced_basis` replaced: `reduce_vec` rebuilds the whole work vector and
finds its lead again with `vec_lead` after every step, and `_buchberger`
recomputes the lead of every basis element for every pair.  They are only
run on small inputs, where they give the reference remainders, quotients,
bases, combinations and syzygy rows for the heap-based routines.

`field_nullspace` is the Gauss-Jordan loop over `Field` methods that
`qsheaf.exactpoly.field_nullspace` ran before it read the nullspace off
`qsheaf.exactpoly.rref`, the one elimination routine over Q and F_p.

`is_q_coefficient` is the one representation of a rational coefficient:
an int when integral, else a Fraction with denominator > 1, never a float.

`from_int`, `poly_pow`, `syzygy_rows` and `combos` read what only tests
ask of the program's types: the constant polynomial of an integer, a
power of a polynomial by repeated `Poly` multiplication, and the raw
syzygy rows and basis combinations of a `qsheaf.exactpoly.TrackedBasis`
as dense rows over its tracked rows.

`field_sub` is a difference of two field values, `Field.add` of the first
and `Field.neg` of the second; the program takes no per-value difference.

`poly_add`, `poly_sub` and `poly_mul` are the per-term rule `Poly`'s
`+`, `-` and `*` followed before `qsheaf.exactpoly.Field.settle`: `_fold`
normalizes every term by `Field.add`, `field_sub` or `Field.mul` as it is
folded in, and pops it when it cancels.

`vec_zero`, `vec_add` and `vec_mul_poly` are the zero vector, a sum of two
vectors and a vector times a polynomial, entry by entry; the program sums
its products with `qsheaf.exactpoly.mat_apply`.

`vec_mul_term` and `_exp_sub`, a vector times a term and the quotient of
two monomials, are what the oracle's S-vectors and reductions are built
from; the program writes its S-vectors into the division's work dict.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

from qsheaf.exactpoly import (
    DimensionMismatchError,
    Field,
    Poly,
    PolyRing,
    TrackedBasis,
    _dense,
    _divides,
    _exp_lcm,
    term_key,
    vec_is_zero,
    vec_lead,
    vec_scale,
    vec_sub,
    vec_unit,
)


def vec_zero(ring: PolyRing, rank: int) -> tuple:
    return tuple(ring.zero() for _ in range(rank))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_mul_poly(a, p: Poly):
    return tuple(x * p for x in a)


def from_int(ring: PolyRing, n: int):
    """The constant polynomial n of the ring."""
    return ring.constant(ring.field.of_int(n))


def poly_pow(p: Poly, n: int) -> Poly:
    """p to the power n >= 0, by repeated Poly multiplication."""
    out = p.ring.one()
    for _ in range(n):
        out = out * p
    return out


def field_sub(field: Field, a, b):
    """a - b as a field value."""
    return field.add(a, field.neg(b))


def syzygy_rows(tb: TrackedBasis) -> list:
    """Rows r over the tracked rows with sum(r[i] * rows[i]) in the span of
    the rows modded out that generate all such rows, as the tracked run
    recorded them; zero rows contribute unit rows."""
    return [_dense(tb.ring, r, len(tb.rows)) for r in tb._syzygies]


def combos(tb: TrackedBasis) -> list:
    """basis[k] - sum(combos[k][i] * rows[i]) lies in the span of the rows
    modded out, one dense tuple per basis element."""
    return [_dense(tb.ring, c, len(tb.rows)) for c in tb._combos]


def _fold(field, out: dict, pairs, op) -> dict:
    """Fold each (exponent, coefficient) into out with the field operation
    op, dropping an entry that cancels."""
    for e, c in pairs:
        s = op(out.get(e, field.zero), c)
        if s == field.zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def poly_add(a: Poly, b: Poly) -> Poly:
    f = a.ring.field
    return Poly(a.ring, _fold(f, dict(a.terms), b.terms.items(), f.add))


def poly_sub(a: Poly, b: Poly) -> Poly:
    f = a.ring.field
    return Poly(a.ring, _fold(f, dict(a.terms), b.terms.items(), lambda x, y: field_sub(f, x, y)))


def poly_mul(a: Poly, b: Poly) -> Poly:
    f = a.ring.field
    products = (
        (tuple(x + y for x, y in zip(e1, e2)), f.mul(c1, c2))
        for e1, c1 in a.terms.items() for e2, c2 in b.terms.items()
    )
    return Poly(a.ring, _fold(f, {}, products, f.add))


def vec_mul_term(a, exp, coeff):
    return tuple(x.mul_term(exp, coeff) for x in a)


def _exp_sub(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def is_q_coefficient(c) -> bool:
    """c is an int, or a Fraction that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def reduce_vec(vec, basis, ring: PolyRing, track: bool = False):
    """Full normal form of vec against basis (list of nonzero vecs).

    Every term is reduced, scanning reducers in list order.  With track=True
    also returns the quotient list q with vec = sum(q[i]*basis[i]) + remainder.
    The caller is responsible for basis being a Groebner basis when a
    canonical remainder is required.
    """
    field = ring.field
    leads = [vec_lead(b) for b in basis]
    rank = len(vec)
    remainder = vec_zero(ring, rank)
    work = vec
    quotients = [ring.zero() for _ in basis] if track else None
    while True:
        lt = vec_lead(work)
        if lt is None:
            break
        pos, exp, coeff = lt
        hit = -1
        for i, bl in enumerate(leads):
            if bl is not None and bl[0] == pos and _divides(bl[1], exp):
                hit = i
                break
        if hit < 0:
            move = tuple(
                ring.monomial(exp, coeff) if i == pos else ring.zero() for i in range(rank)
            )
            remainder = vec_add(remainder, move)
            work = vec_sub(work, move)
            continue
        bl = leads[hit]
        mult_exp = _exp_sub(exp, bl[1])
        mult_coeff = field.div(coeff, bl[2])
        work = vec_sub(work, vec_mul_term(basis[hit], mult_exp, mult_coeff))
        if track:
            quotients[hit] = quotients[hit] + ring.monomial(mult_exp, mult_coeff)
    if track:
        return remainder, quotients
    return remainder


def _buchberger(gens, ring: PolyRing, rank: int, track: bool):
    """Shared Buchberger core.

    Returns (basis, combos, syzygy_rows):
      basis  - list of nonzero vecs whose leads generate the lead module,
               starting with the nonzero input generators in order;
      combos - basis[k] = sum(combos[k][i] * gens[i]) when track, else None;
      syzygy_rows - rows over the original gens from zero reductions (track).

    S-pairs only form between elements whose leads share a position.
    Untracked runs skip pairs with coprime leads whose elements are both
    nonzero only at that position, and apply the chain criterion; tracked
    runs process every pair so that the recorded zero reductions generate
    the full syzygy module.
    """
    field = ring.field
    basis: list = []
    combos: list = [] if track else None
    syzygies: list = [] if track else None
    ngens = len(gens)

    for i, g in enumerate(gens):
        if len(g) != rank:
            raise DimensionMismatchError("generators of unequal rank")
        if vec_is_zero(g):
            if track:
                syzygies.append(vec_unit(ring, ngens, i))
            continue
        basis.append(g)
        if track:
            combos.append(vec_unit(ring, ngens, i))

    pairs: list = []
    pending: set = set()

    def push_pairs(k: int):
        lk = vec_lead(basis[k])
        for i in range(k):
            li = vec_lead(basis[i])
            if li[0] != lk[0]:
                continue
            lcm = _exp_lcm(li[1], lk[1])
            heappush(pairs, (sum(lcm), i, k, lcm))
            pending.add((i, k))

    for k in range(len(basis)):
        push_pairs(k)

    while pairs:
        _, i, j, lcm = heappop(pairs)
        pending.discard((i, j))
        li, lj = vec_lead(basis[i]), vec_lead(basis[j])
        if not track:
            if _exp_sub(lcm, li[1]) == lj[1] and _single(basis[i]) and _single(basis[j]):
                continue  # coprime leads of single-entry elements
            skip = False
            for k in range(len(basis)):
                if k in (i, j):
                    continue
                lk = vec_lead(basis[k])
                if lk[0] != li[0] or not _divides(lk[1], lcm):
                    continue
                a, b = (i, k) if i < k else (k, i)
                c, d = (j, k) if j < k else (k, j)
                if (a, b) not in pending and (c, d) not in pending:
                    skip = True
                    break
            if skip:
                continue
        s = vec_sub(
            vec_mul_term(basis[i], _exp_sub(lcm, li[1]), field.inv(li[2])),
            vec_mul_term(basis[j], _exp_sub(lcm, lj[1]), field.inv(lj[2])),
        )
        if track:
            rem, quot = reduce_vec(s, basis, ring, track=True)
            combo = vec_sub(
                vec_mul_term(combos[i], _exp_sub(lcm, li[1]), field.inv(li[2])),
                vec_mul_term(combos[j], _exp_sub(lcm, lj[1]), field.inv(lj[2])),
            )
            for k, q in enumerate(quot):
                if not q.is_zero():
                    combo = vec_sub(combo, vec_mul_poly(combos[k], q))
            if vec_is_zero(rem):
                if not vec_is_zero(combo):
                    syzygies.append(combo)
                continue
            basis.append(rem)
            combos.append(combo)
        else:
            rem = reduce_vec(s, basis, ring)
            if vec_is_zero(rem):
                continue
            basis.append(rem)
        push_pairs(len(basis) - 1)

    return basis, combos, syzygies


def _single(vec) -> bool:
    """The vec is nonzero at one position only."""
    return sum(1 for p in vec if not p.is_zero()) == 1


def _reduced_basis(basis, ring: PolyRing):
    """Minimalize, interreduce, normalize monic, sort by decreasing lead."""
    field = ring.field
    kept = []
    for i, g in enumerate(basis):
        li = vec_lead(g)
        redundant = False
        for j, h in enumerate(basis):
            if i == j:
                continue
            lj = vec_lead(h)
            if lj[0] == li[0] and _divides(lj[1], li[1]):
                if term_key(lj[0], lj[1]) != term_key(li[0], li[1]) or j < i:
                    redundant = True
                    break
        if not redundant:
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = reduce_vec(g, others, ring) if others else g
        if vec_is_zero(r):
            continue
        lt = vec_lead(r)
        out.append(vec_scale(r, field.inv(lt[2])))
    out.sort(key=lambda v: term_key(vec_lead(v)[0], vec_lead(v)[1]), reverse=True)
    return out


def field_nullspace(field: Field, rows, ncols: int) -> list:
    """Canonical nullspace basis of a matrix over the coefficient field, by
    reduction to row echelon form: one vector per non-pivot column."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, nrows) if mat[i][col] != field.zero), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col] != field.zero:
                c = mat[i][col]
                mat[i] = [field_sub(field, x, field.mul(c, y)) for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, c in enumerate(pivots):
            vec[c] = field.neg(mat[r][free])
        basis.append(tuple(vec))
    return basis
