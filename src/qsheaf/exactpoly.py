"""Exact sparse polynomial arithmetic and Groebner machinery for free modules.

Coefficients are either rationals or a prime field F_p with p < 2**31.  A
rational is an int when it is integral and a fractions.Fraction with
denominator > 1 otherwise.  Field makes only such values, and the loops
below that work on raw coefficients (reduce_vec, _combination, rref) turn
an integral Fraction back into an int where one leaves them, so most
arithmetic stays on machine ints; every true division has a Fraction
operand, so no coefficient becomes a float.  Monomials are exponent tuples
ordered by graded reverse lexicographic order; free-module terms are
(position, monomial) pairs ordered position-over-term, position 0 largest.
Module elements are tuples of Poly of a common rank.  All computations are
deterministic for a fixed input order: pair selection, reducer selection
and output ordering use explicit sort keys and no hashing-dependent
iteration.

Division (reduce_vec) works on one term heap: the vector being reduced is a
dict from (position, exponent) to coefficient, and a min-heap keyed by
_heap_key yields its largest term next (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", 2007).
Cancelled terms are dropped lazily when they reach the top.  Leads are
computed once: Buchberger keeps a list of them beside its basis and hands
it to every reduction, a reduced basis (GroebnerBasis) carries its leads to
every normal form taken against it, and each reducer's other terms are
flattened once per reduction.

Tracked runs (TrackedBasis, syzygies, module_kernel) skip S-pairs by the
chain criterion as untracked runs do, and still record a generating set of
the syzygy module.  They keep each combination over the input generators
sparse, as a dict from generator index to nonzero Poly, and update only its
nonzero entries.
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

    def sub(self, a, b):
        return (a - b) % self.char if self.char else _q(a - b)

    def mul(self, a, b):
        return (a * b) % self.char if self.char else _q(a * b)

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

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


def grevlex_key(exp: tuple[int, ...]):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(exp), tuple(map(_neg, reversed(exp))))


def term_key(pos: int, exp: tuple[int, ...]):
    """Position-over-term key extending grevlex; position 0 is largest."""
    return (-pos, grevlex_key(exp))


class Poly:
    """Immutable sparse polynomial: map from exponent tuple to coefficient."""

    __slots__ = ("ring", "terms")

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
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, f.zero), c)
            if s == f.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        f = self.ring.field
        return Poly(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.sub(out.get(e, f.zero), c)
            if s == f.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.ring, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(e, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.ring, out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
            {tuple(a + b for a, b in zip(e, exp)): f.mul(c, coeff) for e, c in self.terms.items()},
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

    def key(self):
        return tuple(self.sorted_terms())

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
        coeff = field.one
        exp = [0] * len(names)
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                coeff = field.mul(coeff, field.coeff_from_str(factor))
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
        terms[key] = field.add(terms.get(key, field.zero), coeff if sign > 0 else field.neg(coeff))
    return {e: c for e, c in terms.items() if c != field.zero}


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


def vec_zero(ring: PolyRing, rank: int) -> tuple[Poly, ...]:
    return tuple(ring.zero() for _ in range(rank))

def vec_unit(ring: PolyRing, rank: int, pos: int) -> tuple[Poly, ...]:
    return tuple(ring.one() if i == pos else ring.zero() for i in range(rank))

def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))

def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))

def vec_scale(a, c):
    return tuple(x.scale(c) for x in a)

def vec_mul_poly(a, p: Poly):
    return tuple(x * p for x in a)

def vec_mul_term(a, exp, coeff):
    return tuple(x.mul_term(exp, coeff) for x in a)

def vec_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)

def vec_key(a):
    return tuple(x.key() for x in a)


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


def _exp_sub(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _heap_key(pos: int, exp: tuple[int, ...]):
    """Min-heap key of a free-module term: ascending order of this key is
    descending term_key order (smaller position first, then higher degree,
    then the grevlex tie-break read off the reversed exponents)."""
    return (pos, -sum(exp), exp[::-1])


def reduce_vec(vec, basis, ring: PolyRing, track: bool = False, _leads=None):
    """Full normal form of vec against basis (list of nonzero vecs).

    Every term is reduced: the largest remaining term goes to the first
    element of basis, in list order, whose lead has its position and divides
    it, and to the remainder if no lead does.  With track=True also returns
    the quotient list q with vec = sum(q[i]*basis[i]) + remainder.  The
    caller is responsible for basis being a Groebner basis when a canonical
    remainder is required.

    The work vector is one dict {(pos, exp): coeff} beside a min-heap of its
    terms under _heap_key (heap division after Monagan & Pearce, 2007).  A
    term that cancels stays in both, with coefficient zero, until it reaches
    the top of the heap and is dropped; over F_p coefficients are reduced
    mod p only there.  Over Q an integral Fraction becomes an int where it
    leaves: in the multiplier of a reduction step and in the remainder.
    _leads, internal to this module, is [vec_lead(b) for b in basis] when
    the caller keeps it.
    """
    field = ring.field
    char = field.char
    leads = [vec_lead(b) for b in basis] if _leads is None else _leads
    # the reducers of each position, in list order: (index, lead exp, degree)
    by_pos: dict = {}
    for i, lt in enumerate(leads):
        if lt is not None:
            by_pos.setdefault(lt[0], []).append((i, lt[1], sum(lt[1])))
    work: dict = {}
    heap = []
    for pos, p in enumerate(vec):
        for e, c in p.terms.items():
            work[pos, e] = c
            heap.append(_heap_key(pos, e) + (e,))
    heapify(heap)
    rem = [{} for _ in vec]
    quot = [{} for _ in basis] if track else None
    # reducer index -> (inverse lead coeff, [(pos, exp, coeff)] of its other
    # terms), flattened on first use
    tails: dict = {}
    while heap:
        pos, negdeg, _, exp = heappop(heap)
        c = work.pop((pos, exp))
        if char:
            c %= char
        if not c:
            continue
        deg = -negdeg
        for i, lexp, ldeg in by_pos.get(pos, ()):
            if ldeg <= deg and all(map(_le, lexp, exp)):
                break
        else:
            rem[pos][exp] = _q(c)
            continue
        if i not in tails:
            _, _, lc = leads[i]
            tails[i] = (field.inv(lc), [
                (tpos, e, tc)
                for tpos, p in enumerate(basis[i]) for e, tc in p.terms.items()
                if tpos != pos or e != lexp
            ])
        inv, tail = tails[i]
        m = c * inv % char if char else _q(c * inv)
        mult = tuple(map(_sub, exp, lexp))
        if track:
            quot[i][mult] = m
        # subtract m * mult * basis[i]; its lead cancels the popped term
        for tpos, te, tc in tail:
            ne = tuple(map(_add, te, mult))
            key = (tpos, ne)
            old = work.get(key)
            if old is None:
                work[key] = -m * tc
                heappush(heap, _heap_key(tpos, ne) + (ne,))
            else:
                work[key] = old - m * tc
    remainder = tuple(Poly(ring, d) for d in rem)
    if track:
        return remainder, [Poly(ring, d) for d in quot]
    return remainder


def _combination(ring: PolyRing, parts) -> dict:
    """Sparse sum of combinations: parts yields (combo, terms) pairs, a combo
    being a dict from generator index to nonzero Poly and terms the
    (exponent, coefficient) pairs of the polynomial it is multiplied by.
    Only the entries present in some combo are touched; the result is again
    a dict from generator index to nonzero Poly."""
    char = ring.field.char
    acc: dict = {}
    for combo, terms in parts:
        for idx, p in combo.items():
            out = acc.setdefault(idx, {})
            for me, mc in terms:
                for e, c in p.terms.items():
                    ne = tuple(map(_add, e, me))
                    old = out.get(ne)
                    out[ne] = mc * c if old is None else old + mc * c
    result = {}
    for idx, d in acc.items():
        if char:
            d = {e: c % char for e, c in d.items() if c % char}
        else:
            d = {e: _q(c) for e, c in d.items() if c}
        if d:
            result[idx] = Poly(ring, d)
    return result


def _dense(ring: PolyRing, combo: dict, size: int) -> tuple:
    """The sparse combination as a tuple of `size` Poly."""
    return tuple(combo[i] if i in combo else ring.zero() for i in range(size))


def _buchberger(gens, ring: PolyRing, rank: int, track: bool):
    """Shared Buchberger core.

    Returns (basis, combos, syzygy_rows):
      basis  - list of nonzero vecs whose leads generate the lead module,
               starting with the nonzero input generators in order;
      combos - basis[k] = sum(c * gens[i] for i, c in combos[k].items())
               when track, else None;
      syzygy_rows - combinations of the original gens that vanish, from zero
               reductions (track).
    A combination is sparse: a dict from generator index to nonzero Poly.

    S-pairs only form between elements whose leads share a position.  Every
    run applies the chain criterion (Buchberger's second criterion): the
    pair (i, j) is skipped when another lead of that position divides its
    lcm and the pairs it forms with i and with j are both done.  In a
    tracked run the skipped pair's syzygy is a monomial combination of
    those two, so the recorded zero reductions still generate the syzygy
    module (Gebauer & Moeller 1988; Moeller, Mora & Traverso, ISSAC 1992).
    Untracked runs in rank one also skip pairs with coprime leads; the
    Koszul syzygy of such a pair is not recorded anywhere, so tracked runs
    reduce it.  The lead of each basis element is computed once, when it
    joins the basis.
    """
    field = ring.field
    basis: list = []
    leads: list = []
    combos: list = [] if track else None
    syzygies: list = [] if track else None
    one = ring.one()

    for i, g in enumerate(gens):
        if len(g) != rank:
            raise DimensionMismatchError("generators of unequal rank")
        if vec_is_zero(g):
            if track:
                syzygies.append({i: one})
            continue
        basis.append(g)
        leads.append(vec_lead(g))
        if track:
            combos.append({i: one})

    pairs: list = []
    pending: set = set()

    def push_pairs(k: int):
        pk, ek, _ = leads[k]
        for i in range(k):
            pi, ei, _ = leads[i]
            if pi != pk:
                continue
            lcm = _exp_lcm(ei, ek)
            heappush(pairs, (sum(lcm), i, k, lcm))
            pending.add((i, k))

    for k in range(len(basis)):
        push_pairs(k)

    while pairs:
        _, i, j, lcm = heappop(pairs)
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        if not track and rank == 1 and _exp_sub(lcm, li[1]) == lj[1]:
            continue  # coprime leads; only valid for ideals
        skip = False
        for k, lk in enumerate(leads):
            if k in (i, j):
                continue
            if lk[0] != li[0] or not _divides(lk[1], lcm):
                continue
            a, b = (i, k) if i < k else (k, i)
            c, d = (j, k) if j < k else (k, j)
            if (a, b) not in pending and (c, d) not in pending:
                skip = True
                break
        if skip:
            continue
        ui, ci = _exp_sub(lcm, li[1]), field.inv(li[2])
        uj, cj = _exp_sub(lcm, lj[1]), field.inv(lj[2])
        s = vec_sub(vec_mul_term(basis[i], ui, ci), vec_mul_term(basis[j], uj, cj))
        if track:
            rem, quot = reduce_vec(s, basis, ring, True, _leads=leads)
            parts = [(combos[i], ((ui, ci),)), (combos[j], ((uj, -cj),))]
            parts += [
                (combos[k], [(e, -c) for e, c in q.terms.items()])
                for k, q in enumerate(quot) if q.terms
            ]
            combo = _combination(ring, parts)
            if vec_is_zero(rem):
                if combo:
                    syzygies.append(combo)
                continue
            combos.append(combo)
        else:
            rem = reduce_vec(s, basis, ring, False, _leads=leads)
            if vec_is_zero(rem):
                continue
        basis.append(rem)
        leads.append(vec_lead(rem))
        push_pairs(len(basis) - 1)

    return basis, combos, syzygies


def _reduced_basis(basis, ring: PolyRing):
    """Minimalize, interreduce, normalize monic, sort by decreasing lead."""
    field = ring.field
    leads = [vec_lead(g) for g in basis]
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
    out = []
    for i, (g, (pos, exp, coeff)) in enumerate(zip(kept, kept_leads)):
        others = kept[:i] + kept[i + 1 :]
        r = reduce_vec(g, others, ring, False, _leads=kept_leads[:i] + kept_leads[i + 1 :]) if others else g
        r = r if coeff == field.one else vec_scale(r, field.inv(coeff))
        out.append((term_key(pos, exp), r, (pos, exp, field.one)))
    out.sort(key=lambda t: t[0], reverse=True)
    return GroebnerBasis([v for _, v, _ in out], [lt for _, _, lt in out])


class GroebnerBasis(list):
    """A Groebner basis: the list of its vecs, carrying their leads, which
    normal_form hands to reduce_vec instead of recomputing them.
    groebner_basis returns the reduced one, and a TrackedBasis keeps its
    basis as one.  The chart memo behind charts.span_gb, and PresIdeal for
    its own ideal, keep bases and so their leads; a kept basis is never
    mutated."""

    def __init__(self, vecs, leads):
        super().__init__(vecs)
        self.leads = leads


def groebner_basis(gens: Sequence, ring: PolyRing) -> list:
    """Reduced Groebner basis of the submodule generated by gens.

    gens is a sequence of equal-rank vecs (tuples of Poly); the result is
    canonical for the submodule: monic, interreduced, sorted by decreasing
    lead.  groebner_basis of its own output returns the same list.
    """
    gens = [g for g in gens if not vec_is_zero(g)]
    if not gens:
        return []
    rank = len(gens[0])
    basis, _, _ = _buchberger(gens, ring, rank, track=False)
    return _reduced_basis(basis, ring)


def normal_form(vec, basis, ring: PolyRing):
    """Full normal form against a caller-supplied Groebner basis.

    Not validated: a non-Groebner basis yields a well-defined but
    non-canonical remainder.
    """
    if not basis:
        return vec
    return reduce_vec(vec, basis, ring, _leads=basis.leads if isinstance(basis, GroebnerBasis) else None)


class TrackedBasis:
    """Groebner basis remembering expressions over the original generators.

    Supports membership with an explicit witness: lift(v) returns coefficient
    rows c over the inputs with v = sum(c[i] * gens[i]) whenever v lies in the
    span, else None.  The run is the chain-criterion Buchberger of
    _buchberger, whose zero reductions generate every relation among the
    gens; kernel(count) reads off the relations among the first count gens.
    """

    def __init__(self, gens: Sequence, ring: PolyRing, rank: int):
        self.ring = ring
        self.rank = rank
        self.gens = list(gens)
        basis, combos, syz = _buchberger(self.gens, ring, rank, track=True)
        self.basis = GroebnerBasis(basis, [vec_lead(b) for b in basis])
        self._combos = combos
        self._syzygies = syz

    @property
    def combos(self) -> list:
        """basis[k] = sum(combos[k][i] * gens[i]), one tuple per basis element."""
        return [_dense(self.ring, c, len(self.gens)) for c in self._combos]

    def kernel(self, count: int) -> list:
        """Generators of the relations among the first count gens modulo
        the others: the first count entries of each syzygy row, without
        zero or repeated rows, in the order found."""
        return _distinct_nonzero(_dense(self.ring, row, count) for row in self._syzygies)

    def lift(self, vec):
        if not self.basis:
            return None if not vec_is_zero(vec) else [self.ring.zero()] * len(self.gens)
        rem, quot = reduce_vec(vec, self.basis, self.ring, True, _leads=self.basis.leads)
        if not vec_is_zero(rem):
            return None
        coeffs = _combination(
            self.ring, ((self._combos[k], q.terms.items()) for k, q in enumerate(quot) if q.terms)
        )
        return list(_dense(self.ring, coeffs, len(self.gens)))


def syzygies(gens: Sequence, ring: PolyRing) -> list:
    """Generators of the syzygy module of gens (rows over the gens).

    The chain-criterion run of TrackedBasis records zero reductions that
    generate all relations; zero input generators contribute unit rows.
    Each returned row r satisfies sum(r[i]*gens[i]) = 0.
    """
    if not gens:
        return []
    return TrackedBasis(gens, ring, len(gens[0])).kernel(len(gens))


def _distinct_nonzero(rows) -> list:
    """The nonzero rows, each once, in order."""
    out, seen = [], set()
    for row in rows:
        if vec_is_zero(row):
            continue
        k = vec_key(row)
        if k not in seen:
            seen.add(k)
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
    return _distinct_nonzero(tuple(row[: len(rows)]) for row in syzygies(rows + rels, ring))


class PresIdeal:
    """Ideal in a PolyRing presented by a finite generator list."""

    def __init__(self, ring: PolyRing, gens: Iterable[Poly]):
        self.ring = ring
        self.gens = tuple(g for g in gens)
        for g in self.gens:
            if g.ring != ring:
                raise RingMismatchError("ideal generator from the wrong ring")
        self._gb = None

    def groebner(self) -> list:
        if self._gb is None:
            vecs = [(g,) for g in self.gens if not g.is_zero()]
            self._gb = groebner_basis(vecs, self.ring)
        return self._gb

    def contains(self, p: Poly) -> bool:
        return vec_is_zero(normal_form((p,), self.groebner(), self.ring))

    def __repr__(self):
        return f"PresIdeal({[poly_to_str(g) for g in self.gens]})"


def ideal_contains_one(ideal: PresIdeal) -> bool:
    """Whether the ideal is the unit ideal, via normal form of 1."""
    return ideal.contains(ideal.ring.one())
