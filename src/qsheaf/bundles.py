"""Local projectivity, Serre covers, two-term flat resolutions, and the
splitting machinery on the projective line.

Projectivity of a finitely presented chart module is decided by Fitting
ideals: the module is projective of rank r exactly when the r-th Fitting
ideal is the unit ideal and the (r-1)-st vanishes.  The test assumes the
chart spectrum is connected and does not check it; on a disconnected one a
projective module whose rank varies between components reads as not
projective.  Vector bundles restrict the test to the singleton charts,
which cover the space.

On P^1 an invertible transition matrix over k[s, 1/s] factors as
L * T * Rm = diag(s^a1, ..., s^ar) with L over k[1/s] and Rm over k[s], both
of constant nonzero determinant.  The factorization drives the line-bundle
filtration; every claimed identity is re-verified by exact arithmetic.
Once verified it is also the only way a Laurent matrix is inverted:
T^-1 = Rm * diag(s^-a) * L, and Rm^-1 = diag(s^-a) * L * T.
Laurent polynomials are plain Polys of laurent_ring(field), the ring in the
one variable s, whose exponents may be negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .charts import SKELETONS, FPModule
from .exactpoly import (
    Field,
    Poly,
    PolyRing,
    mat_apply,
    mat_identity,
    mat_mul,
    poly_to_str,
    rref,
    terms_from_str,
)
from .sheafrep import (
    QCReport,
    SheafMap,
    SheafRep,
    SubRep,
    build_proj_quiver,
    cokernel,
    fmt_vertex,
    graded_sheaf,
    identity_map,
    induced_rep,
    is_quasi_coherent,
    kernel,
    make_sheaf_map,
    map_is_injective,
    map_is_iso,
    map_is_surjective,
)
from .closure import verify_subrep

V0 = frozenset({0})
V1 = frozenset({1})
V01 = frozenset({0, 1})


# ---------------------------------------------------------------------------
# Fitting ideals and projectivity certificates


def det(rows):
    """Determinant of a nonempty square matrix of Poly entries, Laurent ones
    included, by Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0].scale(0)  # the zero of the entries' ring
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        term = rows[0][j] * det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _minors(module: FPModule, size: int) -> list:
    """All nonzero size x size minors of the relation matrix (size >= 1),
    in chart normal form."""
    chart = module.chart
    rows = module.relations
    if size > len(rows) or size > module.gens:
        return []
    out = []
    for ri in combinations(range(len(rows)), size):
        for ci in combinations(range(module.gens), size):
            d = chart.nf(det([[rows[i][j] for j in ci] for i in ri]))
            if not d.is_zero():
                out.append(d)
    return out


@dataclass(frozen=True)
class ProjectivityCertificate:
    """Fitting-chain verdict, read under the assumption that the chart
    spectrum is connected."""

    projective: bool
    rank: Optional[int]
    violating_index: Optional[int]

    @property
    def verdict(self) -> str:
        if self.projective:
            return "projective(%d)" % self.rank
        return "not-projective(F_%d)" % self.violating_index


def is_projective_fp(module: FPModule) -> ProjectivityCertificate:
    """Fitting-ideal projectivity test on a chart with connected spectrum.

    Walks the Fitting chain downward from F_g (always the unit ideal) to the
    smallest unit index r, then requires F_{r-1} = 0.  The chart decides
    whether the minors of each size generate the unit ideal
    (ChartRing.generates_one).  On a connected spectrum a failure means the
    module is not projective; the test does not check connectedness itself.
    """
    g = module.gens
    r = g
    while r > 0:
        minors = _minors(module, g - (r - 1))
        if not module.chart.generates_one(minors):
            break
        r -= 1
    if r == 0:
        return ProjectivityCertificate(True, 0, None)
    if not minors:  # minors are already chart normal forms
        return ProjectivityCertificate(True, r, None)
    return ProjectivityCertificate(False, None, r - 1)


@dataclass(frozen=True)
class BundleReport:
    is_bundle: bool
    rank: Optional[int]
    certificates: dict
    findings: tuple


def is_vector_bundle(rep: SheafRep) -> BundleReport:
    """Projectivity at the singleton charts, which cover the space; the
    remaining vertices are localizations and follow.  The representation
    is taken to be quasi-coherent: callers check that first."""
    certs = {}
    findings = []
    ranks = set()
    for i in range(rep.quiver.n + 1):
        v = frozenset({i})
        cert = is_projective_fp(rep.modules[v])
        certs[i] = cert
        if not cert.projective:
            findings.append(
                "module at " + fmt_vertex(v) + " is " + cert.verdict
            )
        elif not rep.quiver.chart(v).is_zero_ring():
            ranks.add(cert.rank)
    ok = all(c.projective for c in certs.values())
    rank = None
    if ok:
        if len(ranks) > 1:
            ok = False
            findings.append("singleton ranks disagree: " + str(sorted(ranks)))
        else:
            rank = ranks.pop() if ranks else 0
    return BundleReport(ok, rank, certs, tuple(findings))


# ---------------------------------------------------------------------------
# Serre covers and two-term resolutions


def serre_cover(rep: SheafRep) -> SheafMap:
    """Surjection from the sum of twists onto a graded-presented sheaf,
    sending the j-th twist generator to the j-th generator."""
    if rep.graded is None:
        raise ValueError("serre cover needs a graded presentation")
    cover_src = graded_sheaf(rep.quiver, rep.graded.degrees)
    rows = {
        v: mat_identity(rep.quiver.chart(v).ring, len(rep.graded.degrees))
        for v in rep.quiver.vertices
    }
    return make_sheaf_map(cover_src, rep, rows)


@dataclass(frozen=True)
class ExactnessReport:
    cover_surjective: bool
    composite_zero: bool
    kernel_covered: bool
    inclusion_injective: bool

    @property
    def ok(self) -> bool:
        return (
            self.cover_surjective
            and self.composite_zero
            and self.kernel_covered
            and self.inclusion_injective
        )


@dataclass(frozen=True)
class VdimWitness:
    ok: bool
    kernel_rep: SheafRep
    exactness: ExactnessReport
    kernel_bundle: BundleReport
    middle_bundle: BundleReport
    findings: tuple


def vdim_le_one_witness(rep: SheafRep, cover: SheafMap) -> VdimWitness:
    """Two-term resolution certificate: the kernel of a surjective twist
    cover, verified exact at every vertex, with bundle certificates for the
    kernel and the middle term.

    kernel(cover) reads a Serre cover's kernel off the graded
    presentation (the graded-kernel lemma, sheafrep._graded_kernel): the
    sum of twists by the relation degrees, included by the relation rows,
    when at every vertex those rows have a certificate in the cover source
    that carries no relations and they intertwine the edges.  Otherwise,
    and for a cover with no graded data such as lazard's quotient, it
    presents the relations among the cover's rows by the generic path.
    The kernel-covered check does neither: it asks row_relations for the
    relations, which takes a certificate's answer only when there are no
    relations among the rows, so over an identity cover onto a module with
    relations a tracked run computes them apart from the lemma that made
    the kernel; reading them by a lemma again would make the check
    circular."""
    if cover.target is not rep:
        raise ValueError("cover does not land in the given representation")
    findings = []
    surj = map_is_surjective(cover)
    if not surj:
        raise ValueError("cover is not surjective")
    ker_rep, incl = kernel(cover)
    composite_zero = True
    kernel_covered = True
    for v in rep.quiver.vertices:
        tgt = rep.modules[v]
        if not tgt.are_zero(mat_mul(incl.rows[v], cover.rows[v], tgt.chart.ring, tgt.gens)):
            composite_zero = False
            findings.append("composite not zero at " + fmt_vertex(v))
        if not cover.source.modules[v].in_span(incl.rows[v], tgt.row_relations(cover.rows[v])):
            kernel_covered = False
            findings.append("kernel element not reached by the inclusion at " + fmt_vertex(v))
    inj = map_is_injective(incl)
    if not inj:
        findings.append("kernel inclusion fails injectivity")
    exact = ExactnessReport(surj, composite_zero, kernel_covered, inj)
    kernel_bundle = is_vector_bundle(ker_rep)
    middle_bundle = is_vector_bundle(cover.source)
    findings.extend(kernel_bundle.findings)
    findings.extend(middle_bundle.findings)
    ok = exact.ok and kernel_bundle.is_bundle and middle_bundle.is_bundle
    return VdimWitness(ok, ker_rep, exact, kernel_bundle, middle_bundle, tuple(findings))


@dataclass(frozen=True)
class LazardApproximation:
    f_sub: SheafRep
    to_f: SheafMap
    sub_bundle: BundleReport
    qc: QCReport
    vdim: VdimWitness
    is_iso: bool


def lazard_approximation(rep: SheafRep, cover: SheafMap, sub: SubRep) -> LazardApproximation:
    """Finite flat approximation: divide a bundle sub of the kernel out of
    the cover source, a finite sum of twists, and map the quotient into the
    sheaf.

    `sub` holds elements of the cover source; they must be killed by the
    cover."""
    if cover.target is not rep:
        raise ValueError("cover does not land in the given representation")
    if sub.ambient is not cover.source:
        raise ValueError("sub-representation must live in the cover source")
    if cover.source.graded is None:
        raise ValueError("cover source must be a sum of twists")
    for v in rep.quiver.vertices:
        tgt = rep.modules[v]
        images = [mat_apply(x, cover.rows[v], tgt.chart.ring, tgt.gens) for x in sub.sections[v]]
        if not tgt.are_zero(images):
            raise ValueError("sub-representation is not contained in the cover kernel at " + fmt_vertex(v))
    sub_ind, incl = induced_rep(sub)
    sub_bundle = is_vector_bundle(sub_ind)
    f_sub = cokernel(incl)
    qc = is_quasi_coherent(f_sub)
    to_f = make_sheaf_map(f_sub, rep, cover.rows)
    quotient = make_sheaf_map(cover.source, f_sub, identity_map(cover.source).rows)
    vdim = vdim_le_one_witness(f_sub, quotient)
    iso = map_is_iso(to_f)
    return LazardApproximation(f_sub, to_f, sub_bundle, qc, vdim, iso)


# ---------------------------------------------------------------------------
# Laurent polynomials in the gluing parameter s = x1/x0 on P^1
#
# A Laurent polynomial is a Poly of laurent_ring(field), the one-variable
# ring in s, with exponent tuples (e,) that may be negative.  Poly arithmetic
# only adds exponent tuples, so it serves as it is; PolyRing.monomial and
# poly_from_str refuse negative exponents, and nothing here calls them.  No
# Laurent polynomial reaches Groebner code.


@lru_cache(maxsize=SKELETONS)
def laurent_ring(field: Field) -> PolyRing:
    """The ring of Laurent polynomials in s over the field: one PolyRing
    object per field among the SKELETONS used last, so Laurent operands
    share their ring by identity (PolyRing equality covers the rest)."""
    return PolyRing(field, ("s",))


class LaurentPoly:
    """Constructors of Laurent polynomials, which are Polys of laurent_ring."""

    @staticmethod
    def zero(field: Field) -> Poly:
        return laurent_ring(field).zero()

    @staticmethod
    def monomial(field: Field, exp: int, coeff=None) -> Poly:
        return laurent_ring(field).from_terms({(exp,): field.one if coeff is None else coeff})


def min_deg(p: Poly) -> int:
    if not p.terms:
        raise ValueError("zero has no degree")
    return min(p.terms)[0]


def max_deg(p: Poly) -> int:
    if not p.terms:
        raise ValueError("zero has no degree")
    return max(p.terms)[0]


def _only_term(p: Poly) -> tuple:
    """(exponent, coefficient) of a Laurent monomial."""
    ((e,), c), = p.terms.items()
    return e, c


def laurent_to_str(p: Poly) -> str:
    """poly_to_str's text with its spaces dropped, the form trow entries
    are written in."""
    return "".join(poly_to_str(p).split())


def laurent_from_str(field: Field, text: str) -> Poly:
    """Parse a Laurent polynomial in s; exponents may be negative."""
    return Poly(laurent_ring(field), terms_from_str(field, ("s",), text))


def chart_to_laurent(chart, p: Poly) -> Poly:
    """Element of a chart of P^1 as a Laurent polynomial in s = x1/x0: the
    chart monomial with Laurent exponent (-e, e) is s^e."""
    terms = chart.to_laurent(chart.nf(p)).terms
    return laurent_ring(chart.field).from_terms({(vec[1],): c for vec, c in terms.items()})


def laurent_to_chart(chart, p: Poly) -> Poly:
    """Laurent polynomial in s as an element of a chart of P^1; raises
    ValueError when a power of s needs an inverse the chart lacks."""
    return chart.from_laurent(Poly(chart.xring, {(-e, e): c for (e,), c in sorted(p.terms.items())}))


def edge_laurent(rep: SheafRep, v) -> tuple:
    """Matrix of the edge v -> {0,1} of a P^1 representation over k[s, 1/s]."""
    chart = rep.quiver.chart(V01)
    return tuple(tuple(chart_to_laurent(chart, e) for e in row) for row in rep.edge_maps[(v, V01)])


# -- Laurent matrices -------------------------------------------------------


def lmat_identity(field: Field, r: int):
    return mat_identity(laurent_ring(field), r)


def lmat_mul(a, b):
    return mat_mul(a, b, a[0][0].ring, len(b[0]))


def lmat_inv(m):
    """Inverse of a Laurent matrix with unit determinant, read off its
    verified Birkhoff split.  Raises the splitter's ValueError for any
    other square matrix."""
    return _split_inverse(birkhoff_split(m))


def _split_inverse(split):
    """The inverse of the matrix m that a verified split factors:
    L*m*Rm = diag(s^a) gives m^-1 = Rm*diag(s^-a)*L."""
    return lmat_mul(split.right, _untwist(split.left, split.splitting_type))


def _untwist(rows, splitting_type):
    """diag(s^-a) times the Laurent matrix: row i times s^-a_i."""
    one = rows[0][0].ring.field.one
    return tuple(tuple(p.mul_term((-a,), one) for p in row) for row, a in zip(rows, splitting_type))


# ---------------------------------------------------------------------------
# Birkhoff factorization


@dataclass(frozen=True)
class BirkhoffSplit:
    splitting_type: tuple
    left: tuple
    right: tuple


def verify_birkhoff(t_matrix, split: BirkhoffSplit) -> bool:
    """Exact re-check of every claim in a factorization."""
    ring = t_matrix[0][0].ring
    r = len(t_matrix)
    if any(split.splitting_type[i] < split.splitting_type[i + 1] for i in range(r - 1)):
        return False
    if any(e > 0 for row in split.left for p in row for (e,) in p.terms):
        return False
    if any(e < 0 for row in split.right for p in row for (e,) in p.terms):
        return False
    # nonzero constant determinants
    if set(det(split.left).terms) != {(0,)} or set(det(split.right).terms) != {(0,)}:
        return False
    dett = det(t_matrix)
    if len(dett.terms) != 1 or sum(split.splitting_type) != _only_term(dett)[0]:
        return False
    prod = lmat_mul(lmat_mul(split.left, t_matrix), split.right)
    want = tuple(
        tuple(ring.from_terms({(a,): ring.field.one}) if i == j else ring.zero() for j in range(r))
        for i, a in enumerate(split.splitting_type)
    )
    return prod == want


_NOT_INVERTIBLE = "transition matrix is not invertible over the Laurent ring"


class _Splitter:
    """Working state for the factorization: M starts at s^N * T and is
    driven to a sorted monomial diagonal by row operations over k[1/s]
    (accumulated in L) and column operations over k[s] (accumulated in R)."""

    def __init__(self, t_matrix):
        self.field = t_matrix[0][0].ring.field
        self.r = len(t_matrix)
        self.shift = max([0] + [-e for row in t_matrix for p in row for (e,) in p.terms])
        self.m = [[p.mul_term((self.shift,), self.field.one) for p in row] for row in t_matrix]
        self.left = [list(row) for row in lmat_identity(self.field, self.r)]
        self.right = [list(row) for row in lmat_identity(self.field, self.r)]

    # row operations act on the left factor, so exponents must be <= 0
    def row_axpy(self, dst, src, c, k):
        assert k <= 0
        for t in range(self.r):
            self.m[dst][t] = self.m[dst][t] + self.m[src][t].mul_term((k,), c)
            self.left[dst][t] = self.left[dst][t] + self.left[src][t].mul_term((k,), c)

    def row_swap(self, a, b):
        self.m[a], self.m[b] = self.m[b], self.m[a]
        self.left[a], self.left[b] = self.left[b], self.left[a]

    def row_scale(self, i, c):
        for t in range(self.r):
            self.m[i][t] = self.m[i][t].scale(c)
            self.left[i][t] = self.left[i][t].scale(c)

    # column operations act on the right factor, so exponents must be >= 0
    def col_axpy(self, dst, src, c, k):
        assert k >= 0
        for t in range(self.r):
            self.m[t][dst] = self.m[t][dst] + self.m[t][src].mul_term((k,), c)
            self.right[t][dst] = self.right[t][dst] + self.right[t][src].mul_term((k,), c)

    def col_swap(self, a, b):
        for t in range(self.r):
            self.m[t][a], self.m[t][b] = self.m[t][b], self.m[t][a]
            self.right[t][a], self.right[t][b] = self.right[t][b], self.right[t][a]

    def diag_degree(self, i) -> int:
        return min_deg(self.m[i][i])

    def hermite(self):
        """Column reduction over k[s] to lower triangular form, which also
        decides whether T is invertible over k[s, 1/s].

        Column operations over k[s] have determinant +-1, so det(s^N*T) is
        +- the determinant of the triangular form.  A row i with no nonzero
        entry left at or past the diagonal puts rows 0..i in columns
        0..i-1, so that determinant is 0.  Otherwise it is the product of
        the diagonal entries, polynomials in s, and a product of nonzero
        polynomials is a single term exactly when each factor is (least
        and greatest degrees add).  det(s^N*T) = s^(rN)*det(T) is a unit of
        k[s, 1/s] exactly when it is a single term, so either failure
        raises ValueError and any other T goes on to the split."""
        f = self.field
        for i in range(self.r):
            while True:
                nz = [j for j in range(i, self.r) if not self.m[i][j].is_zero()]
                if not nz:
                    raise ValueError(_NOT_INVERTIBLE)
                pivot = min(nz, key=lambda j: max_deg(self.m[i][j]))
                done = True
                for j in nz:
                    if j == pivot:
                        continue
                    a, b = self.m[i][j], self.m[i][pivot]
                    ka, kb = max_deg(a), max_deg(b)
                    self.col_axpy(j, pivot, f.neg(f.div(a.terms[(ka,)], b.terms[(kb,)])), ka - kb)
                    done = False
                if done:
                    if pivot != i:
                        self.col_swap(i, pivot)
                    break
        for i in range(self.r):
            if len(self.m[i][i].terms) != 1:
                raise ValueError(_NOT_INVERTIBLE)
            self.row_scale(i, f.inv(_only_term(self.m[i][i])[1]))

    def sweep(self):
        """Clear every below-diagonal degree outside the open window between
        the two diagonal degrees; one ordered pass suffices."""
        f = self.field
        for j in range(1, self.r):
            for i in range(j - 1, -1, -1):
                dj = self.diag_degree(j)
                di = self.diag_degree(i)
                # ascending exponents: the order fixes the factors L and Rm
                for (e,), c in sorted(self.m[j][i].terms.items()):
                    if e <= di:
                        self.row_axpy(j, i, f.neg(c), e - di)
                    elif e >= dj:
                        self.col_axpy(i, j, f.neg(c), e - dj)

    def mini_move(self, i, j):
        """Exchange degree between two diagonal positions through the
        windowed entry that links them; total degree spread drops."""
        f = self.field
        self.row_swap(i, j)
        # euclid over k[s] on the row-i pair at columns (i, j)
        while not self.m[i][j].is_zero():
            a, b = self.m[i][i], self.m[i][j]
            if a.is_zero() or max_deg(a) > max_deg(b):
                self.col_swap(i, j)
                continue
            ka, kb = max_deg(a), max_deg(b)
            self.col_axpy(j, i, f.neg(f.div(b.terms[(kb,)], a.terms[(ka,)])), kb - ka)
        for t in (i, j):
            if len(self.m[t][t].terms) != 1:
                raise AssertionError("degree exchange lost the monomial diagonal")
            self.row_scale(t, f.inv(_only_term(self.m[t][t])[1]))

    def off_diagonal(self):
        best = None
        for j in range(1, self.r):
            for i in range(j):
                if not self.m[j][i].is_zero():
                    if best is None or j - i < best[0]:
                        best = (j - i, j, i)
        return best

    def sort_diagonal(self):
        # selection sort by simultaneous row and column swaps, which keeps
        # both factors products of elementary matrices
        diag = [self.diag_degree(i) for i in range(self.r)]
        for a in range(self.r):
            best = max(range(a, self.r), key=lambda t: diag[t])
            if best != a:
                self.row_swap(a, best)
                self.col_swap(a, best)
                diag[a], diag[best] = diag[best], diag[a]

    def run(self) -> BirkhoffSplit:
        self.hermite()
        while True:
            self.sweep()
            spot = self.off_diagonal()
            if spot is None:
                break
            _, j, i = spot
            self.mini_move(i, j)
        self.sort_diagonal()
        stype = tuple(self.diag_degree(i) - self.shift for i in range(self.r))
        left = tuple(tuple(row) for row in self.left)
        right = tuple(tuple(row) for row in self.right)
        return BirkhoffSplit(stype, left, right)


def birkhoff_split(t_matrix) -> BirkhoffSplit:
    """Factor an invertible Laurent matrix as L^{-1} diag(s^a) Rm^{-1}, i.e.
    produce L over k[1/s] and Rm over k[s] with L * T * Rm diagonal with
    nonincreasing monomial degrees.  The output is re-verified exactly."""
    t_matrix = tuple(tuple(row) for row in t_matrix)
    r = len(t_matrix)
    for row in t_matrix:
        if len(row) != r:
            raise ValueError("transition matrix must be square")
    if r == 0:
        return BirkhoffSplit((), (), ())
    split = _Splitter(t_matrix).run()
    if not verify_birkhoff(t_matrix, split):
        raise AssertionError("factorization failed its own verification")
    return split


def h0_of_type(splitting_type) -> int:
    return sum(max(0, a + 1) for a in splitting_type)


# ---------------------------------------------------------------------------
# Transition matrices and global sections on P^1


def transition_matrix(rep: SheafRep):
    """Transition of a P^1 bundle between the two coordinate charts, rows
    expressing the chart-{1} basis in the pushed-forward chart-{0} basis."""
    if rep.quiver.n != 1:
        raise ValueError("transition extraction works on the projective line only")
    for v in (V0, V1, V01):
        if rep.modules[v].relations:
            raise ValueError(
                "transition extraction needs free presentations at "
                + fmt_vertex(v)
            )
    r = rep.modules[V0].gens
    if rep.modules[V1].gens != r or rep.modules[V01].gens != r:
        raise ValueError("chart ranks disagree")
    if r == 0:
        return ()
    return lmat_mul(edge_laurent(rep, V1), lmat_inv(edge_laurent(rep, V0)))


def bundle_from_transition(field: Field, t_matrix) -> SheafRep:
    """Free rank-r representation on P^1 glued by the given invertible
    Laurent matrix: the chart-{0} edge is the identity and the chart-{1}
    edge is the matrix itself."""
    t_matrix = tuple(tuple(row) for row in t_matrix)
    r = len(t_matrix)
    if r and len(det(t_matrix).terms) != 1:
        raise ValueError(_NOT_INVERTIBLE)
    quiver = build_proj_quiver(field, 1)
    chart01 = quiver.chart(V01)
    mods = {v: FPModule(quiver.chart(v), r) for v in quiver.vertices}
    rows1 = tuple(
        tuple(laurent_to_chart(chart01, e) for e in row) for row in t_matrix
    )
    maps = {
        (V0, V01): mat_identity(chart01.ring, r),
        (V1, V01): rows1,
    }
    return SheafRep(quiver, mods, maps, None)


def global_sections_dim(t_matrix, split: BirkhoffSplit) -> int:
    """Dimension of the space of global sections of the bundle glued by the
    matrix, by degree-window linear algebra: a section is a pair of
    polynomial vectors, one in s and one in 1/s, matched by the transition.

    The 1/s-degree of the chart-{1} half is bounded by the inverse matrix's
    lowest degree, so a finite window is exhaustive.  The inverse is read
    off split, the matrix's Birkhoff split as birkhoff_split returns it,
    and is exact because that split was verified; the linear algebra never
    looks at the splitting type, so the count stays a cross-check of it.
    """
    r = len(t_matrix)
    if r == 0:
        return 0
    field = t_matrix[0][0].ring.field
    inv = _split_inverse(split)
    depth = max([0] + [-e for row in inv for p in row for (e,) in p.terms])
    # unknowns: coefficients of sigma_1[i] at degrees -depth .. 0
    width = depth + 1
    ncols = r * width
    lo = min((e for row in t_matrix for p in row for (e,) in p.terms), default=0)
    rows = []
    for j in range(r):
        for deg in range(-depth + lo, 0):
            row = [field.zero] * ncols
            hit = False
            for i in range(r):
                entry = t_matrix[i][j]
                for (e,), c in entry.terms.items():
                    k = deg - e  # sigma_1[i] exponent contributing here
                    if -depth <= k <= 0:
                        row[i * width + (k + depth)] = field.add(
                            row[i * width + (k + depth)], c
                        )
                        hit = True
            if hit:
                rows.append(row)
    return ncols - len(rref(field.char, rows, ncols))


# ---------------------------------------------------------------------------
# Line-bundle filtration on P^1


@dataclass(frozen=True)
class Filtration:
    steps: tuple  # SubReps, from zero to the full bundle
    splitting_type: tuple
    split: BirkhoffSplit
    reports: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)


def line_bundle_filtration(rep: SheafRep) -> Filtration:
    """Flag of sub-representations with line-bundle quotients, built from the
    Birkhoff factorization of the transition matrix: the new chart bases are
    the rows of Rm^{-1} (at {0}) and of L (at {1}), and the i-th quotient
    has the pure 1x1 transition s^{a_i}."""
    if rep.quiver.n != 1:
        raise ValueError("filtration works on the projective line only")
    qc = is_quasi_coherent(rep)
    if not qc.ok:
        raise ValueError("representation is not quasi-coherent: " + "; ".join(qc.findings))
    report = is_vector_bundle(rep)
    if not report.is_bundle:
        raise ValueError("not a vector bundle: " + "; ".join(report.findings))
    t = transition_matrix(rep)
    r = len(t)
    split = birkhoff_split(t)
    if r == 0:
        sub = SubRep(rep)
        return Filtration((sub,), (), split, (verify_subrep(sub),))
    quiver = rep.quiver
    # Rm^-1 = diag(s^-a) * L * T, by the identity verify_birkhoff checked
    b0 = _untwist(lmat_mul(split.left, t), split.splitting_type)
    b1 = split.left
    b01 = lmat_mul(b0, edge_laurent(rep, V0))
    rows0, rows1, rows01 = (
        [tuple(laurent_to_chart(quiver.chart(v), e) for e in row) for row in b]
        for v, b in ((V0, b0), (V1, b1), (V01, b01))
    )
    steps = []
    reports = []
    for k in range(r + 1):
        sub = SubRep(rep)
        for vec in rows0[:k]:
            sub.add(V0, vec)
        for vec in rows1[:k]:
            sub.add(V1, vec)
        for vec in rows01[:k]:
            sub.add(V01, vec)
        steps.append(sub)
        reports.append(verify_subrep(sub))
    # pure-twist certificate for the quotients: row i of B1 * f1 equals
    # s^{a_i} times row i of B0 * f0
    lhs = lmat_mul(b1, edge_laurent(rep, V1))
    one = rep.quiver.field.one
    for i, a in enumerate(split.splitting_type):
        for j in range(r):
            if lhs[i][j] != b01[i][j].mul_term((a,), one):
                raise AssertionError("quotient transition is not the pure twist")
    return Filtration(tuple(steps), split.splitting_type, split, tuple(reports))
