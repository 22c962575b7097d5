"""Exact sparse polynomial arithmetic and Groebner machinery for free modules.

Coefficients are either rationals or a prime field F_p with p < 2**31.  A
rational is an int when it is integral and a fractions.Fraction with
denominator > 1 otherwise, and Field makes only such values.  One rule makes
a sum of terms (Poly's +, - and *, PolyRing.collect, mat_apply,
_combination, terms_from_str): it adds raw values and settles the sums
once by Field.settle, which reduces them mod p or turns an integral
Fraction into an int, and drops the zeros; _divide and rref keep their own
documented exits.  So most arithmetic stays on machine ints, and every true division
has a Fraction operand, so no coefficient becomes a float.  Monomials are
exponent tuples ordered by graded reverse lexicographic order; free-module
terms are (position, monomial) pairs ordered position-over-term, position 0
largest.  Module elements are tuples of Poly of a common rank.  All
computations are deterministic for a fixed input order: pair selection,
reducer selection and output ordering use explicit sort keys and no
hashing-dependent iteration.

Division (_divide, which reduce_vec wraps) works on one term heap: the
vector being reduced is a dict from (position, exponent) to coefficient,
and a min-heap keyed by _heap_key yields its largest term next (Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", 2007).  Cancelled terms are dropped lazily when they
reach the top.  Buchberger writes each S-vector m_i*basis[i] -
m_j*basis[j] straight into such a dict, from the tails alone since the
leads cancel.  A reducer index (_Reducers: the reducers of each position,
and each one's inverse lead coefficient and other terms, flattened on
first use) is built once per list: Buchberger extends its own as elements
join, and a GroebnerBasis keeps one for every normal form taken against
it.

Buchberger skips S-pairs by two criteria in every run: the product
criterion for a pair with coprime leads whose elements are both nonzero
only at their lead position (ideal-block rows q*e_p, unit rows, every
rank-one element), and the chain criterion.  Tracked runs (TrackedBasis,
syzygies, module_kernel) take the rows they track apart from rows that are
only modded out (module relations and a chart's ideal block): they keep
each combination over the tracked rows alone, sparse, as a dict from row
index to nonzero Poly, and record a generating set of the relations among
the rows modulo the others, with the Koszul syzygy of each pair the
product criterion skips.  A Poly computes its hash on first use and keeps
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add as _add, le as _le, neg as _neg, sub as _sub
from typing import Iterable, Sequence


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class DimensionMismatchError(ValueError):
    """Module elements or matrix rows have inconsistent rank."""


def _q(x):
    """A rational in its one representation: an int when integral, else a
    Fraction with denominator > 1."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """Exact coefficient field: char 0 means the rationals, else F_char.

    Over Q every value it makes is an int when integral and a Fraction
    otherwise, so equal coefficients are equal objects of one type up to
    that rule; over F_p a value is an int in range(char)."""

    char: int = 0

    def __post_init__(self):
        if self.char != 0:
            if self.char >= 2**31:
                raise ValueError("prime field characteristic must be < 2**31")
            if not _is_prime(self.char):
                raise ValueError(f"{self.char} is not prime")
        # the constants, made once per field; not dataclass fields, so they
        # take no part in equality, hashing or repr
        object.__setattr__(self, "zero", 0)
        object.__setattr__(self, "one", 1)

    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    @staticmethod
    def prime(p: int) -> "Field":
        if p == 0:  # Field(0) would be the rationals
            raise ValueError("0 is not prime")
        return Field(p)

    def of_int(self, n: int):
        return n % self.char if self.char else n

    def of_fraction(self, num: int, den: int):
        if self.char == 0:
            return _q(Fraction(num, den))
        return (num % self.char) * self.inv(den % self.char) % self.char

    def add(self, a, b):
        return (a + b) % self.char if self.char else _q(a + b)

    def mul(self, a, b):
        return (a * b) % self.char if self.char else _q(a * b)

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def settle(self, acc: dict) -> dict:
        """The nonzero entries of a dict of raw sums, as field values: each
        raw value is a sum of products of field values taken with plain +,
        - and *, so over F_p any int congruent to the coefficient and over
        Q an int or a Fraction, an integral one included."""
        if self.char:
            p = self.char
            return {k: c % p for k, c in acc.items() if c % p}
        return {k: _q(c) for k, c in acc.items() if c}

    def inv(self, a):
        if self.char == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            if a == 1 or a == -1:
                return _q(a)
            return _q(1 / Fraction(a))
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coeff_str(self, a) -> str:
        return str(a)

    def coeff_from_str(self, s: str):
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            num, den = int(num), int(den)
            if self.of_int(den) == self.zero:
                raise ValueError(f"zero denominator in coefficient {s!r}")
            return self.of_fraction(num, den)
        return self.of_int(int(s))


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring over an exact field with named, ordered variables."""

    field: Field
    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(self.field.one)

    def constant(self, c) -> "Poly":
        if c == self.field.zero:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "Poly":
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): self.field.one})

    def monomial(self, exp: Sequence[int], coeff=None) -> "Poly":
        c = self.field.one if coeff is None else coeff
        if c == self.field.zero:
            return self.zero()
        if len(exp) != self.nvars or any(e < 0 for e in exp):
            raise ValueError("bad exponent vector")
        return Poly(self, {tuple(exp): c})

    def from_terms(self, terms: dict) -> "Poly":
        z = self.field.zero
        return Poly(self, {e: c for e, c in terms.items() if c != z})

    def collect(self, pairs) -> "Poly":
        """The Poly of the (exponent, coefficient) pairs, summing the raw
        coefficients of equal exponents and settling the sums once
        (Field.settle)."""
        out: dict = {}
        for e, c in pairs:
            out[e] = out.get(e, 0) + c
        return Poly(self, self.field.settle(out))


def grevlex_key(exp: tuple[int, ...]):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(exp), tuple(map(_neg, reversed(exp))))


def term_key(pos: int, exp: tuple[int, ...]):
    """Position-over-term key extending grevlex; position 0 is largest."""
    return (-pos, grevlex_key(exp))


class Poly:
    """Immutable sparse polynomial: map from exponent tuple to coefficient."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _check(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        # computed on first use and kept: chart memos hash whole row tuples
        # on every lookup, and most Polys are never hashed at all
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
            return self._hash

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.ring, self.ring.field.settle(out))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return Poly(self.ring, self.ring.field.settle(out))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(_add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.ring, self.ring.field.settle(out))

    def scale(self, c) -> "Poly":
        f = self.ring.field
        if c == f.zero:
            return self.ring.zero()
        return Poly(self.ring, {e: f.mul(cc, c) for e, cc in self.terms.items()})

    def mul_term(self, exp: tuple[int, ...], coeff) -> "Poly":
        f = self.ring.field
        if coeff == f.zero:
            return self.ring.zero()
        return Poly(
            self.ring,
            {tuple(map(_add, e, exp)): f.mul(c, coeff) for e, c in self.terms.items()},
        )

    def lead(self):
        """(exponent, coefficient) of the grevlex-largest term, or None."""
        if not self.terms:
            return None
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __repr__(self):
        return f"Poly({poly_to_str(self)})"


# ---------------------------------------------------------------------------
# textual encoding


def poly_to_str(p: Poly) -> str:
    """Canonical textual form: terms in decreasing order, explicit '*' and '^'."""
    if p.is_zero():
        return "0"
    field = p.ring.field
    chunks = []
    for e, c in p.sorted_terms():
        factors = [f"{p.ring.names[i]}^{ei}" if ei != 1 else p.ring.names[i] for i, ei in enumerate(e) if ei]
        cs = field.coeff_str(c)
        neg = cs.startswith("-")
        body = cs.lstrip("-")
        if factors and body == "1":
            text = "*".join(factors)
        elif factors:
            text = body + "*" + "*".join(factors)
        else:
            text = body
        if not chunks:
            chunks.append(("-" if neg else "") + text)
        else:
            chunks.append(("- " if neg else "+ ") + text)
    return " ".join(chunks)


def terms_from_str(field: Field, names: Sequence[str], text: str) -> dict:
    """Read a sum of terms like '3*z1^2*u1 - 1/2*z1 + 2' into a map from
    exponent tuple (one entry per name) to nonzero coefficient.

    A term is an optional sign and factors joined by '*'; a factor is a
    coefficient (a or a/b) or a variable with an optional '^' and signed
    integer exponent.  A sign starts a new term unless it follows '^'.
    Whitespace (spaces, tabs) is ignored; raises ValueError with a short
    reason on malformed input.
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial")
    chunks: list[tuple[int, str]] = []
    sign, start = 1, 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    for cur in range(start, len(s) + 1):
        if cur == len(s) or (s[cur] in "+-" and s[cur - 1] != "^"):
            chunk = s[start:cur]
            if not chunk:
                raise ValueError(f"empty term in {text!r}")
            chunks.append((sign, chunk))
            if cur < len(s):
                sign = -1 if s[cur] == "-" else 1
                start = cur + 1
    terms: dict = {}
    for sign, chunk in chunks:
        coeff = sign
        exp = [0] * len(names)
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                coeff = coeff * field.coeff_from_str(factor)
                continue
            name, power = factor, 1
            if "^" in factor:
                name, ptext = factor.split("^", 1)
                try:
                    power = int(ptext)
                except ValueError as exc:
                    raise ValueError(f"bad exponent {ptext!r} in {text!r}") from exc
            if name not in names:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            exp[names.index(name)] += power
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
    return field.settle(terms)


def poly_from_str(ring: PolyRing, text: str) -> Poly:
    """Parse an element of the ring with terms_from_str; exponents must be
    nonnegative."""
    terms = terms_from_str(ring.field, ring.names, text)
    if any(e < 0 for exp in terms for e in exp):
        raise ValueError(f"negative exponent in {text!r}")
    return Poly(ring, terms)


def rref(char: int, mat: list, ncols: int) -> list:
    """Bring the matrix mat (a list of row lists) to reduced row echelon
    form in place, over Q when char is 0 and over F_char otherwise, and
    return its pivot columns: mat[:len(pivots)] is then the canonical basis
    of the row span, and the rows after it are zero.  Over F_p the entries
    must be reduced mod p.  Over Q the entries are ints or Fractions; the
    inverse is 1 / Fraction(a), as in Field.inv, so an int never becomes a
    float, and every entry the elimination writes is an int when integral
    and a Fraction with denominator > 1 otherwise."""
    nrows = len(mat)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = None
        for i in range(rank, nrows):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        if char:
            inv = pow(mat[rank][col], char - 2, char)
            row = mat[rank] = [(x * inv) % char for x in mat[rank]]
        else:
            inv = _q(1 / Fraction(mat[rank][col]))
            row = mat[rank] = [_q(x * inv) for x in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                if char:
                    mat[i] = [(x - c * y) % char for x, y in zip(mat[i], row)]
                else:
                    mat[i] = [_q(x - c * y) for x, y in zip(mat[i], row)]
        pivots.append(col)
    return pivots


def field_nullspace(field: Field, rows, ncols: int) -> list:
    """Canonical nullspace basis of a matrix over the coefficient field, read
    off its reduced echelon form: one vector per non-pivot column."""
    mat = [list(row) for row in rows]
    pivots = rref(field.char, mat, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, c in enumerate(pivots):
            vec[c] = field.neg(mat[r][free])
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# free-module elements (vecs): tuples of Poly of a common rank


def vec_unit(ring: PolyRing, rank: int, pos: int) -> tuple[Poly, ...]:
    return tuple(ring.one() if i == pos else ring.zero() for i in range(rank))

def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))

def vec_scale(a, c):
    return tuple(x.scale(c) for x in a)

def vec_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


def mat_apply(vec, rows, ring: PolyRing, width: int) -> tuple:
    """The row vector vec times the matrix rows (one row per entry of vec,
    width entries each), as width Polys of ring: every product of two
    nonzero entries is written into one dict per output entry, which is
    settled once, so along a diagonal matrix of size r it makes r products,
    not r*r, and no intermediate Poly."""
    acc = [{} for _ in range(width)]
    for coeff, row in zip(vec, rows):
        if not coeff.terms:
            continue
        left = coeff.terms.items()
        for out, entry in zip(acc, row):
            if entry.terms:
                for e2, c2 in entry.terms.items():
                    for e1, c1 in left:
                        e = tuple(map(_add, e1, e2))
                        out[e] = out.get(e, 0) + c1 * c2
    field = ring.field
    return tuple([Poly(ring, field.settle(out) if out else out) for out in acc])


def mat_mul(a, b, ring: PolyRing, width: int) -> tuple:
    """The matrix product a*b, row by row (mat_apply)."""
    return tuple([mat_apply(row, b, ring, width) for row in a])


def mat_identity(ring: PolyRing, size: int) -> tuple:
    rows = []
    for i in range(size):
        row = [ring.zero()] * size
        row[i] = ring.one()
        rows.append(tuple(row))
    return tuple(rows)


def vec_lead(a):
    """(pos, exponent, coeff) of the POT-largest term, or None if zero: the
    lead of the first nonzero entry, since position 0 is largest."""
    for pos, p in enumerate(a):
        if p.terms:
            exp, coeff = p.lead()
            return pos, exp, coeff
    return None


def _divides(e1, e2) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def _exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _heap_key(pos: int, exp: tuple[int, ...]):
    """Min-heap key of a free-module term: ascending order of this key is
    descending term_key order (smaller position first, then higher degree,
    then the grevlex tie-break read off the reversed exponents)."""
    return (pos, -sum(exp), exp[::-1])


class _Reducers:
    """Division index of a list of vecs (vecs, with their leads), built
    once per list and extended as elements join it: the reducers of each
    position in list order, as (index, lead exponent, lead degree), and
    for each element the inverse of its lead coefficient beside its other
    terms, flattened to (position, exponent, coefficient) triples on first
    use (tail).  A zero element takes an index and reduces nothing."""

    __slots__ = ("field", "vecs", "leads", "by_pos", "tails")

    def __init__(self, field: Field, vecs=(), leads=()):
        self.field = field
        self.vecs: list = []
        self.leads: list = []
        self.by_pos: dict = {}
        self.tails: list = []
        for vec, lead in zip(vecs, leads):
            self.add(vec, lead)

    def add(self, vec, lead):
        if lead is not None:
            self.by_pos.setdefault(lead[0], []).append((len(self.vecs), lead[1], sum(lead[1])))
        self.vecs.append(vec)
        self.leads.append(lead)
        self.tails.append(None)

    def tail(self, i: int):
        """(inverse lead coefficient, other terms) of element i."""
        found = self.tails[i]
        if found is None:
            pos, lexp, lc = self.leads[i]
            found = self.tails[i] = (self.field.inv(lc), [
                (tpos, e, c)
                for tpos, p in enumerate(self.vecs[i]) for e, c in p.terms.items()
                if tpos != pos or e != lexp
            ])
        return found


def _work(vec) -> dict:
    """The vec as a division work vector {(pos, exp): coeff}."""
    return {(pos, e): c for pos, p in enumerate(vec) for e, c in p.terms.items()}


def _divide(work: dict, reducers: _Reducers, rank: int, quot=None, skip=None) -> list:
    """Full normal form of the work vector against the reducers, returned
    as one {exp: coeff} dict per position; the division consumes work.

    The largest remaining term goes to the first reducer, in list order,
    whose lead has its position and divides it (never to the reducer
    numbered skip), and to the remainder if no lead does.  A quot dict
    receives each step as quot[reducer][multiplier exp] = coefficient.

    Each term of work also sits in a min-heap under _heap_key, which
    yields the largest term next (heap division after Monagan & Pearce,
    2007).  A term that cancels stays in both, with coefficient zero,
    until it reaches the top of the heap and is dropped; over F_p
    coefficients are reduced mod p only there, so work may hold any int
    congruent to the coefficient.  Over Q an integral Fraction becomes an
    int where it leaves: in the multiplier of a step and in the remainder.
    """
    char = reducers.field.char
    by_pos, tails = reducers.by_pos, reducers.tails
    heap = [_heap_key(pos, e) + (e,) for pos, e in work]
    heapify(heap)
    rem = [{} for _ in range(rank)]
    while heap:
        pos, negdeg, _, exp = heappop(heap)
        c = work.pop((pos, exp))
        if char:
            c %= char
        if not c:
            continue
        deg = -negdeg
        for i, lexp, ldeg in by_pos.get(pos, ()):
            if ldeg <= deg and i != skip and all(map(_le, lexp, exp)):
                break
        else:
            rem[pos][exp] = _q(c)
            continue
        inv, tail = tails[i] or reducers.tail(i)
        m = c * inv % char if char else _q(c * inv)
        mult = tuple(map(_sub, exp, lexp))
        if quot is not None:
            quot.setdefault(i, {})[mult] = m
        # subtract m * mult * reducer; its lead cancels the popped term
        for tpos, te, tc in tail:
            ne = tuple(map(_add, te, mult))
            key = (tpos, ne)
            old = work.get(key)
            if old is None:
                work[key] = -m * tc
                heappush(heap, _heap_key(tpos, ne) + (ne,))
            else:
                work[key] = old - m * tc
    return rem


def reduce_vec(vec, basis, ring: PolyRing, track: bool = False):
    """Full normal form of vec against basis (list of vecs).

    Every term is reduced: the largest remaining term goes to the first
    element of basis, in list order, whose lead has its position and divides
    it, and to the remainder if no lead does; zero elements reduce nothing.
    With track=True also returns the quotient list q with
    vec = sum(q[i]*basis[i]) + remainder.  The caller is responsible for
    basis being a Groebner basis when a canonical remainder is required.
    This is _divide on the terms of vec, against the reducer index a
    GroebnerBasis keeps, or one built for a plain list.
    """
    if isinstance(basis, GroebnerBasis) and basis:
        reducers = basis.reducers()
    else:
        reducers = _Reducers(ring.field, basis, [vec_lead(b) for b in basis])
    quot = {} if track else None
    remainder = tuple(Poly(ring, d) for d in _divide(_work(vec), reducers, len(vec), quot))
    if track:
        return remainder, [Poly(ring, quot.get(i, {})) for i in range(len(basis))]
    return remainder


def _combination(ring: PolyRing, parts) -> dict:
    """Sparse sum of combinations: parts yields (combo, terms) pairs, a combo
    being a dict from generator index to nonzero Poly and terms the
    (exponent, coefficient) pairs of the polynomial it is multiplied by.
    Only the entries present in some combo are touched, each summed raw
    and settled once; the result is again a dict from generator index to
    nonzero Poly."""
    acc: dict = {}
    for combo, terms in parts:
        for idx, p in combo.items():
            out = acc.setdefault(idx, {})
            for me, mc in terms:
                for e, c in p.terms.items():
                    ne = tuple(map(_add, e, me))
                    out[ne] = out.get(ne, 0) + mc * c
    result = {}
    for idx, d in acc.items():
        d = ring.field.settle(d)
        if d:
            result[idx] = Poly(ring, d)
    return result


def _dense(ring: PolyRing, combo: dict, size: int) -> tuple:
    """The sparse combination as a tuple of `size` Poly."""
    return tuple(combo[i] if i in combo else ring.zero() for i in range(size))


def _buchberger(rows, mod, ring: PolyRing, rank: int, track: bool):
    """Shared Buchberger core over the generators rows + mod, in that order.

    Returns (basis, combos, syzygy_rows):
      basis  - a GroebnerBasis of nonzero vecs whose leads generate the
               lead module, starting with the nonzero generators in order,
               with the reducer index the run built;
      combos - when track, basis[k] - sum(c * rows[i] for i, c in
               combos[k].items()) lies in span(mod), else None;
      syzygy_rows - when track, combinations of the rows that lie in
               span(mod), generating every such combination.
    A combination is sparse: a dict from row index to nonzero Poly.  The
    mod generators are modded out and never tracked.

    S-pairs only form between elements whose leads share a position p, and
    two criteria skip pairs (Buchberger's; Gebauer & Moeller 1988; Moeller,
    Mora & Traverso, ISSAC 1992).  The basis is a Groebner basis once every
    pair's S-vector has a standard representation: a combination
    sum(h_k * basis[k]) with every lead of h_k * basis[k] below the pair's
    lcm.  Its syzygy (the pair's two multipliers less the h_k) is then one
    of a set that generates every syzygy of the basis.

    Product criterion: a pair with coprime leads whose elements are both
    nonzero only at p, basis[i] = f*e_p and basis[j] = g*e_p, is skipped.
    With f = lt(f) + f' and g = lt(g) + g', g*f - f*g = 0 gives
    lt(g)*f - lt(f)*g = f'*g - g'*f.  The left side is lc(f)*lc(g) times
    the S-vector, since the lcm of coprime leads is their product, and
    every term on the right lies below lt(f)*lt(g): a standard
    representation, whose syzygy is the Koszul syzygy g*e_i - f*e_j up to
    a unit.  This covers ideal-block rows q*e_p, unit rows and all of rank
    one.

    Chain criterion: the pair (i, j) is skipped when another lead of that
    position divides its lcm and the pairs it forms with i and with j are
    both done; the skipped pair's syzygy is a monomial combination of
    those two.  It is tried first, so a pair it skips records nothing.

    So the syzygies of the pairs reduced here (a zero remainder) and the
    Koszul syzygies of the product criterion generate the syzygies of the
    basis.  A relation (r, m) among rows + mod is one among the nonzero
    generators, which are basis elements, plus unit rows for zero
    generators; sending e_k to basis[k]'s combination over rows + mod is
    linear and fixes it, so it is a combination of the images.  A tracked
    run keeps only the rows' part of each image: r, for any relation
    (r, m), is then a combination of the recorded rows, which for a
    Koszul syzygy is g*c_i - f*c_j (recorded when nonzero).
    """
    one = ring.one()
    nrows = len(rows)
    reducers = _Reducers(ring.field)
    basis, leads = reducers.vecs, reducers.leads  # grown by join alone
    single: list = []  # nonzero only at the lead position
    combos: list = [] if track else None
    syzygies: list = [] if track else None

    def join(vec, lead, combo):
        reducers.add(vec, lead)
        single.append(sum(1 for p in vec if p.terms) == 1)
        if track:
            combos.append(combo)

    for i, g in enumerate(list(rows) + list(mod)):
        if len(g) != rank:
            raise DimensionMismatchError("generators of unequal rank")
        lead = vec_lead(g)
        if lead is None:
            if track and i < nrows:
                syzygies.append({i: one})
            continue
        join(g, lead, {i: one} if i < nrows else {})

    pairs: list = []
    pending: set = set()

    def push_pairs(k: int):
        pk, ek, _ = leads[k]
        for i, ei, _ in reducers.by_pos[pk]:
            if i >= k:
                break
            lcm = _exp_lcm(ei, ek)
            heappush(pairs, (sum(lcm), i, k, lcm))
            pending.add((i, k))

    for k in range(len(basis)):
        push_pairs(k)

    while pairs:
        _, i, j, lcm = heappop(pairs)
        pending.discard((i, j))
        pos, li, _ = leads[i]
        ui = tuple(map(_sub, lcm, li))
        chained = False
        for k, ek, _ in reducers.by_pos[pos]:
            if k == i or k == j or not all(map(_le, ek, lcm)):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                chained = True
                break
        if chained:
            continue
        if ui == leads[j][1] and single[i] and single[j]:
            if track:
                f, g = basis[i][pos].terms, basis[j][pos].terms
                koszul = _combination(
                    ring, ((combos[i], g.items()), (combos[j], [(e, -c) for e, c in f.items()]))
                )
                if koszul:
                    syzygies.append(koszul)
            continue
        # the S-vector: the scaled leads cancel, so only the tails enter
        uj = tuple(map(_sub, lcm, leads[j][1]))
        ci, tail_i = reducers.tail(i)
        cj, tail_j = reducers.tail(j)
        work = {(tpos, tuple(map(_add, e, ui))): ci * c for tpos, e, c in tail_i}
        for tpos, e, c in tail_j:
            key = (tpos, tuple(map(_add, e, uj)))
            old = work.get(key)
            work[key] = -cj * c if old is None else old - cj * c
        quot = {} if track else None
        rem = _divide(work, reducers, rank, quot)
        combo = None
        if track:
            parts = [(combos[i], ((ui, ci),)), (combos[j], ((uj, -cj),))]
            parts += [(combos[k], [(e, -c) for e, c in q.items()]) for k, q in sorted(quot.items())]
            combo = _combination(ring, parts)
        if not any(rem):
            if combo:
                syzygies.append(combo)
            continue
        vec = tuple(Poly(ring, d) for d in rem)
        join(vec, vec_lead(vec), combo)
        push_pairs(len(basis) - 1)

    return GroebnerBasis(basis, leads, reducers), combos, syzygies


def _reduced_basis(basis, ring: PolyRing):
    """Minimalize, interreduce, normalize monic, sort by decreasing lead;
    basis is the GroebnerBasis of a run."""
    field = ring.field
    leads = basis.leads
    kept, kept_leads = [], []
    for i, li in enumerate(leads):
        redundant = False
        for j, lj in enumerate(leads):
            if i == j:
                continue
            if lj[0] == li[0] and _divides(lj[1], li[1]):
                if lj[1] != li[1] or j < i:
                    redundant = True
                    break
        if not redundant:
            kept.append(basis[i])
            kept_leads.append(li)
    # No kept lead divides another, so interreduction moves each element's
    # lead term to its remainder unchanged: the remainder is nonzero and
    # its lead is the element's.
    reducers = _Reducers(field, kept, kept_leads)
    out = []
    for i, (g, (pos, exp, coeff)) in enumerate(zip(kept, kept_leads)):
        if len(kept) > 1:
            g = tuple(Poly(ring, d) for d in _divide(_work(g), reducers, len(g), skip=i))
        g = g if coeff == field.one else vec_scale(g, field.inv(coeff))
        out.append((term_key(pos, exp), g, (pos, exp, field.one)))
    out.sort(key=lambda t: t[0], reverse=True)
    return GroebnerBasis([v for _, v, _ in out], [lt for _, _, lt in out])


class GroebnerBasis(list):
    """A Groebner basis: the list of its vecs, carrying their leads and the
    reducer index every normal form taken against it uses, built once (on
    the first normal form, or by the run that made the basis).
    groebner_basis returns the reduced one, and a TrackedBasis keeps its
    basis as one.  The chart memo behind charts.span_gb keeps bases and so
    their indexes; a kept basis is never mutated."""

    def __init__(self, vecs, leads, reducers=None):
        super().__init__(vecs)
        self.leads = leads
        self._reducers = reducers

    def reducers(self) -> _Reducers:
        if self._reducers is None:
            self._reducers = _Reducers(self[0][0].ring.field, self, self.leads)
        return self._reducers


def groebner_basis(gens: Sequence, ring: PolyRing) -> list:
    """Reduced Groebner basis of the submodule generated by gens.

    gens is a sequence of equal-rank vecs (tuples of Poly); the result is
    canonical for the submodule: monic, interreduced, sorted by decreasing
    lead.  groebner_basis of its own output returns the same list.
    """
    gens = [g for g in gens if not vec_is_zero(g)]
    if not gens:
        return []
    basis, _, _ = _buchberger(gens, (), ring, len(gens[0]), False)
    return _reduced_basis(basis, ring)


def normal_form(vec, basis, ring: PolyRing):
    """Full normal form against a caller-supplied Groebner basis.

    Not validated: a non-Groebner basis yields a well-defined but
    non-canonical remainder.
    """
    if not basis:
        return vec
    return reduce_vec(vec, basis, ring)


class TrackedBasis:
    """Groebner basis of span(rows) + span(mod) remembering expressions
    over the rows; mod lists rows that are modded out and never tracked.

    Supports membership with an explicit witness: lift(v) returns
    coefficients c, one per row, with v - sum(c[i] * rows[i]) in span(mod)
    whenever v lies in span(rows) + span(mod), else None.  The run is the
    Buchberger of _buchberger, whose recorded syzygies generate every
    relation among the rows modulo span(mod); kernel() reads them off.
    """

    def __init__(self, rows: Sequence, ring: PolyRing, rank: int, mod: Sequence = ()):
        self.ring = ring
        self.rows = list(rows)
        self.basis, self._combos, self._syzygies = _buchberger(self.rows, mod, ring, rank, True)

    def kernel(self) -> list:
        """Generators of the relations among the rows modulo span(mod),
        without zero or repeated rows, in the order found."""
        return _distinct_nonzero(_dense(self.ring, row, len(self.rows)) for row in self._syzygies)

    def lift(self, vec):
        if not self.basis:
            return None if not vec_is_zero(vec) else [self.ring.zero()] * len(self.rows)
        rem, quot = reduce_vec(vec, self.basis, self.ring, True)
        if not vec_is_zero(rem):
            return None
        coeffs = _combination(
            self.ring, ((self._combos[k], q.terms.items()) for k, q in enumerate(quot) if q.terms)
        )
        return list(_dense(self.ring, coeffs, len(self.rows)))


def syzygies(gens: Sequence, ring: PolyRing, mod: Sequence = ()) -> list:
    """Generators of the relations among gens modulo span(mod): rows r
    over the gens with sum(r[i]*gens[i]) in span(mod), read off the
    tracked run of TrackedBasis; zero gens contribute unit rows.
    """
    if not gens:
        return []
    return TrackedBasis(gens, ring, len(gens[0]), mod).kernel()


def _distinct_nonzero(rows) -> list:
    """The nonzero rows, each once, in order.  A row is keyed on its
    entries' terms: the rows of one run share a ring, and their Polys are
    new, so a Poly hash, which hashes the ring, would cost more."""
    out, seen = [], set()
    for row in rows:
        if vec_is_zero(row):
            continue
        key = tuple(frozenset(p.terms.items()) for p in row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def module_kernel(map_rows: Sequence, target_relations: Sequence, ring: PolyRing, target_rank: int) -> list:
    """Generators of ker(F_r -> F_s / span(target_relations)).

    map_rows are the images of the source basis vectors (rows over the
    target), target_relations additional rows modded out of the target.
    Returned rows live in the source free module F_r.
    """
    rows = [tuple(r) for r in map_rows]
    rels = [tuple(r) for r in target_relations]
    for r in rows + rels:
        if len(r) != target_rank:
            raise DimensionMismatchError("row rank mismatch")
    return syzygies(rows, ring, rels)


class PresIdeal:
    """Ideal in a PolyRing presented by a finite generator list; it keeps
    no basis, as each one is asked once."""

    def __init__(self, ring: PolyRing, gens: Iterable[Poly]):
        self.ring = ring
        self.gens = tuple(g for g in gens)
        for g in self.gens:
            if g.ring != ring:
                raise RingMismatchError("ideal generator from the wrong ring")

    def groebner(self) -> list:
        return groebner_basis([(g,) for g in self.gens if not g.is_zero()], self.ring)

    def contains(self, p: Poly) -> bool:
        return vec_is_zero(normal_form((p,), self.groebner(), self.ring))

    def __repr__(self):
        return f"PresIdeal({[poly_to_str(g) for g in self.gens]})"


def ideal_contains_one(ideal: PresIdeal) -> bool:
    """Whether the ideal is the unit ideal, via normal form of 1."""
    return ideal.contains(ideal.ring.one())
