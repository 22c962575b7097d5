"""Chart coordinate rings on P^n and module localization between them.

A chart is indexed by a nonempty subset v of {0..n} and describes the locus
where every x_i, i in v, is invertible.  Its ring is presented over the
coefficient field with variables z_j = x_j/x_pivot for j != pivot and
u_i = (x_i/x_pivot)^(-1) for i in v minus the pivot, where pivot = min(v),
subject to u_i*z_i - 1 and the dehomogenized subscheme ideal.  Every chart
monomial therefore corresponds to a Laurent monomial in x_0..x_n of total
degree zero; that correspondence drives pivot changes and denominator
clearing elsewhere in the package.

The Laurent bridge.  Every chart ring of P^n without subscheme relations
is a subring of the degree-0 Laurent ring k[x_0^+-1..x_n^+-1]_0, and the
Laurent form of a chart element is a Poly of the x ring of P^n (x_ring,
one object per (field, n), shared by identity) whose exponents, of total
degree 0, may be negative, as bundles.laurent_ring's are on P^1.  So one
polynomial type serves both sides: Laurent forms are summed by
PolyRing.collect and Poly arithmetic, multiplied by a term with
Poly.mul_term and as matrices with exactpoly.mat_apply and mat_mul, each
under exactpoly's one coefficient rule, and no Laurent form reaches
Groebner code.  ChartData.to_laurent reads a chart polynomial as its
Laurent form and from_laurent is the one way back; a module keeps its
relation rows in both forms, each made once, on first read, from the one
it was built from (FPModule.laurent and FPModule.relations): certificates
and sheafrep's edge lemma read the Laurent rows, Groebner runs the chart
polynomials.

Without a subscheme a chart is the Laurent ring k[x_j/x_p, (x_i/x_p)^-1],
in which every element has one Laurent expansion.  Its normal form is
that expansion written back as chart monomials (ChartRing.nf_of_laurent),
so nf, is_zero_ring and ChartHom.apply build no Groebner run there; only
a chart with subscheme relations reduces the Laurent form modulo
relation_gb() (Pauer and Unterkircher, "Groebner bases for ideals in
Laurent polynomial rings", AAECC 9, 1999, treat such rings in general).

A chart's ring data on P^n (ChartData: its PolyRing, variable indexes,
Laurent table and inversions) holds no run and is never mutated, so a
process shares it between jobs: sheafrep keeps it in its bounded table of
quiver skeletons (SKELETONS, 16 keys of (field, n), the least
recently used going first).  A subscheme's ideal changes none of it.  The
chart of one quiver is a ChartRing, which make_chart_ring builds per job on
that data: it adds the quiver's ideal dehomogenized on the chart, which
joins the inversions as the chart's relations, and the memo of its runs.

A ChartRing also keeps two monomial tables, chart exponent to Laurent
exponent and back, which its laurent_of_exp, to_laurent and from_laurent
read first: a job converts the same few monomials per chart again and
again, and each is derived once, by ChartData's table-free code, on its
first ask.  A Poly's coefficients are settled and nonzero, so to_laurent
re-keys its terms and sums them (PolyRing.collect) only when two monomials
meet on one Laurent exponent, as z_i*u_i and 1 do.  The tables live and die with
the ChartRing, one job; on the shared ChartData they would make it
mutable and grow across the jobs of a process.

Each ChartRing keeps one memo of the Groebner runs over its ring (span_gb
and FPModule.lifter) and of the constant certificates that replace them
on a chart without subscheme relations (FPModule.certificate: the one
certificate kind, a Laurent matrix B with S*B = I, or None), keyed on rank
and rows, not on the asking object, and never mutated; each ask cuts a
kept certificate to its own row count.  A unit-diagonal certificate is
read off the rows and not kept, and neither is the tracked run of
FPModule.row_relations, which no later ask reads back.  It lives as
long as its quiver.  A tracked run also serves span requests:
FPModule.lifter files its basis under the span key of the same generator
list, unless a span basis is there already, so span_gb then builds
nothing.  A span basis is therefore a Groebner basis, not always the
reduced one, and is read only through normal forms, which any Groebner
basis gives alike.  Membership in a sub-representation (sheafrep.SubRep)
asks the same lifter, so the lifter of a closure's final sections is in
the memo when sheafrep._present presents them.
"""

from __future__ import annotations

from functools import lru_cache
from operator import neg
from typing import Iterable, Sequence

from .exactpoly import (
    DimensionMismatchError,
    Field,
    Poly,
    PolyRing,
    PresIdeal,
    RingMismatchError,
    TrackedBasis,
    groebner_basis,
    ideal_contains_one,
    mat_apply,
    mat_identity,
    mat_mul,
    module_kernel,
    normal_form,
    poly_to_str,
    rref,
    vec_is_zero,
)


# Bound of the process-level tables keyed on input: the x rings here and the
# quiver skeletons of sheafrep, keyed on (field, n), and the Laurent rings of
# bundles, keyed on the field, keep the SKELETONS keys used last.
SKELETONS = 16


@lru_cache(maxsize=SKELETONS)
def x_ring(field: Field, n: int) -> PolyRing:
    """Homogeneous coordinate ring presentation: variables x0..xn.  It is
    also the ring of the Laurent forms of the charts of P^n, whose
    exponents may be negative, and one object per (field, n) serves both,
    so Laurent operands share their ring by identity."""
    return PolyRing(field, tuple(f"x{i}" for i in range(n + 1)))


def is_homogeneous(p: Poly) -> bool:
    degs = {sum(e) for e in p.terms}
    return len(degs) <= 1


class ChartData:
    """Ring data of one chart of P^n, presented with explicit inverses: its
    PolyRing, variable indexes, Laurent table and inversions, none of which
    depends on a subscheme.  It holds no run and is never mutated, so one
    ChartData serves every ChartRing of its chart in a process, on P^n and
    on each of its subschemes."""

    def __init__(self, field: Field, n: int, vertex: frozenset):
        if not vertex or not vertex <= set(range(n + 1)):
            raise ValueError("vertex must be a nonempty subset of {0..n}")
        self.field = field
        self.n = n
        self.vertex = frozenset(vertex)
        self.pivot = min(vertex)
        zs = [j for j in range(n + 1) if j != self.pivot]
        us = sorted(self.vertex - {self.pivot})
        self._z_index = {j: k for k, j in enumerate(zs)}
        self._u_index = {i: len(zs) + k for k, i in enumerate(us)}
        names = tuple(f"z{j}" for j in zs) + tuple(f"u{i}" for i in us)
        self.ring = PolyRing(field, names)
        self.xring = x_ring(field, n)
        inversions = []
        for i in us:
            inversions.append(self.u(i) * self.z(i) - self.ring.one())
        self.inversions = tuple(inversions)
        # Laurent exponent of each ring variable, length n+1, total degree 0
        lv = []
        for j in zs:
            vec = [0] * (n + 1)
            vec[j], vec[self.pivot] = 1, vec[self.pivot] - 1
            lv.append(tuple(vec))
        for i in us:
            vec = [0] * (n + 1)
            vec[self.pivot], vec[i] = vec[self.pivot] + 1, -1
            lv.append(tuple(vec))
        self._var_laurent = tuple(lv)

    # -- variables ---------------------------------------------------------

    def unit_variable_columns(self) -> tuple:
        """Columns of the variables invertible in this chart: every u_i and
        every z_i whose index lies in the vertex (its inverse u_i exists)."""
        cols = [col for j, col in self._z_index.items() if j in self.vertex]
        cols += list(self._u_index.values())
        return tuple(sorted(cols))

    def z(self, j: int) -> Poly:
        if j not in self._z_index:
            raise ValueError(f"no variable z{j} in chart {sorted(self.vertex)}")
        return self.ring.var(self._z_index[j])

    def u(self, i: int) -> Poly:
        if i not in self._u_index:
            raise ValueError(f"no variable u{i} in chart {sorted(self.vertex)}")
        return self.ring.var(self._u_index[i])

    def dehomogenize(self, g: Poly) -> Poly:
        """Substitute x_pivot = 1 and x_j = z_j into a homogeneous polynomial:
        the chart polynomial of dehomogenized_laurent."""
        return self.from_laurent(dehomogenized_laurent(g, self.pivot))

    # -- Laurent bridge ------------------------------------------------------

    def laurent_of_exp(self, exp: Sequence[int]) -> tuple[int, ...]:
        vec = [0] * (self.n + 1)
        for k, ek in enumerate(exp):
            if ek:
                lv = self._var_laurent[k]
                for t in range(self.n + 1):
                    vec[t] += ek * lv[t]
        return tuple(vec)

    def to_laurent(self, p: Poly) -> Poly:
        """Laurent expansion: the Poly of xring whose exponents, of total
        degree 0, are the Laurent exponents of p's monomials."""
        return self.xring.collect((self.laurent_of_exp(e), c) for e, c in p.terms.items())

    def _exp_of_laurent(self, vec: Sequence[int]) -> tuple:
        """Exponent of the chart monomial with the degree-0 Laurent exponent
        vec; ValueError when vec[j] < 0 for a j outside the chart's vertex,
        an inverse the chart lacks."""
        if len(vec) != self.n + 1 or sum(vec) != 0:
            raise ValueError("laurent exponent must have length n+1 and total degree 0")
        exp = [0] * self.ring.nvars
        for j, m in enumerate(vec):
            if j == self.pivot:
                continue
            if m >= 0:
                exp[self._z_index[j]] = m
            else:
                if j not in self._u_index:
                    raise ValueError(
                        f"x{j}^{m} not representable in chart {sorted(self.vertex)}"
                    )
                exp[self._u_index[j]] = -m
        return tuple(exp)

    def from_laurent(self, laurent: Poly) -> Poly:
        """Chart polynomial of a Laurent expansion, a Poly of xring, and the
        one way back from Laurent forms: a monomial is
        from_laurent(Poly(xring, {exponent: coefficient})).  Distinct
        Laurent exponents give distinct chart exponents, so the terms are
        written into one dict."""
        return Poly(self.ring, {self._exp_of_laurent(vec): c for vec, c in laurent.terms.items()})


class ChartRing(ChartData):
    """Coordinate ring of one chart of one quiver: the shared ChartData of
    its chart of P^n, taken as it is, the quiver's ideal dehomogenized on
    that chart, the memo of the Groebner runs over its ring, and two
    monomial tables.  relations are the inversions and the nonzero
    dehomogenized generators (jays), and _subscheme says whether there is
    any of the latter.  A quiver makes one per chart and job.

    _laurent_exps maps a chart exponent to its Laurent exponent and
    _chart_exps a Laurent exponent to its chart exponent.  laurent_of_exp,
    to_laurent and from_laurent read them and fill a miss through
    ChartData's table-free code; a Laurent exponent the chart cannot write
    raises ValueError on every ask and is never tabled.  The tables live as
    long as the ChartRing, one job, and sit on it rather than on the shared
    ChartData, which then stays unmutated and grows nothing across jobs."""

    def __init__(self, data: ChartData, ideal_gens: Sequence[Poly] = ()):
        vars(self).update(vars(data))
        gens = tuple(ideal_gens)
        for g in gens:
            if not is_homogeneous(g):
                raise ValueError(f"ideal generator not homogeneous: {poly_to_str(g)}")
        self.ideal_gens = gens
        self.jays = tuple(data.dehomogenize(g) for g in gens)
        self.relations = self.inversions + tuple(g for g in self.jays if not g.is_zero())
        self._subscheme = len(self.relations) > len(self.inversions)
        self._runs = {}
        self._laurent_exps, self._chart_exps = {}, {}

    # -- Laurent bridge, by the monomial tables ------------------------------

    def laurent_of_exp(self, exp: Sequence[int]) -> tuple[int, ...]:
        try:
            return self._laurent_exps[exp]
        except KeyError:
            vec = self._laurent_exps[exp] = ChartData.laurent_of_exp(self, exp)
            return vec

    def to_laurent(self, p: Poly) -> Poly:
        """ChartData.to_laurent by re-keying the terms: a Poly's
        coefficients are settled and nonzero already, so nothing is summed
        unless two monomials meet on one Laurent exponent, as z_i*u_i and 1
        do; then, and on a table miss, the terms are collected as there."""
        table = self._laurent_exps
        try:
            out = {table[e]: c for e, c in p.terms.items()}
        except KeyError:
            return ChartData.to_laurent(self, p)
        if len(out) < len(p.terms):
            return ChartData.to_laurent(self, p)
        return Poly(self.xring, out)

    def _exp_of_laurent(self, vec: Sequence[int]) -> tuple:
        try:
            return self._chart_exps[vec]
        except KeyError:
            exp = self._chart_exps[vec] = ChartData._exp_of_laurent(self, vec)
            return exp

    def from_laurent(self, laurent: Poly) -> Poly:
        table = self._chart_exps
        try:
            return Poly(self.ring, {table[vec]: c for vec, c in laurent.terms.items()})
        except KeyError:
            return ChartData.from_laurent(self, laurent)

    # -- presentation ------------------------------------------------------

    def memo(self, key, build):
        """The run stored under key, made by build() on the first call."""
        if key not in self._runs:
            self._runs[key] = build()
        return self._runs[key]

    def relation_gb(self) -> list:
        return span_gb(self, (), 1)

    def nf(self, p: Poly) -> Poly:
        """Canonical representative modulo the chart relations."""
        return self.nf_of_laurent(self.to_laurent(p))

    def nf_of_laurent(self, laurent: Poly) -> Poly:
        """nf of the chart polynomial of a Laurent expansion: its
        from_laurent form, reduced modulo relation_gb() only when the chart
        has subscheme relations.  Without them the relations are the
        inversions u_i*z_i - 1, whose leads are pairwise coprime, so they
        are a Groebner basis already, and a from_laurent monomial never
        holds both z_i and u_i, so no lead divides it: the form is the
        normal form, and nothing is built."""
        p = self.from_laurent(laurent)
        if not self._subscheme:
            return p
        return normal_form((p,), self.relation_gb(), self.ring)[0]

    def is_zero_ring(self) -> bool:
        """1 = 0 in the chart ring.  A chart without subscheme relations is
        a Laurent ring, never zero, so nothing is built there."""
        return self._subscheme and self.nf(self.ring.one()).is_zero()

    def generates_one(self, gens: Sequence[Poly]) -> bool:
        """The chart polynomials gens and the relations generate the unit
        ideal: at once when a gen is a nonzero constant, is_zero_ring() when
        there is no gen, else by one Groebner run over gens and relations."""
        gens = tuple(gens)
        if any(g.degree() == 0 for g in gens):
            return True
        if not gens:
            return self.is_zero_ring()
        return ideal_contains_one(PresIdeal(self.ring, gens + self.relations))

    def __repr__(self):
        return f"ChartRing(v={''.join(str(i) for i in sorted(self.vertex))}, n={self.n})"


def dehomogenized_laurent(g: Poly, pivot: int) -> Poly:
    """Laurent expansion of g on every chart with this pivot, a Poly of g's
    x ring: x^e of degree d is the Laurent monomial of exponent
    e - d*e_pivot."""
    p = pivot
    return g.ring.collect((e[:p] + (e[p] - sum(e),) + e[p + 1:], c) for e, c in g.terms.items())


def make_chart_ring(
    field: Field, n: int, vertex: Iterable[int], ideal_gens: Sequence[Poly] = (), data: ChartData = None
) -> ChartRing:
    """Chart ring for a vertex of the subset quiver on P^n, or on the
    subscheme cut out by ideal_gens, on data, the ChartData of that chart of
    P^n when the caller keeps one (a quiver's skeleton), else on data built
    here."""
    return ChartRing(data or ChartData(field, n, frozenset(vertex)), ideal_gens)


class ChartHom:
    """Ring map between charts with source vertex contained in target vertex.

    Every source monomial is a degree-0 ratio of homogeneous coordinates;
    its image is the target chart monomial with the same Laurent exponent.
    Images are kept in normal form.
    """

    def __init__(self, source: ChartRing, target: ChartRing):
        if not source.vertex <= target.vertex:
            raise ValueError("source vertex must be a subset of the target vertex")
        if source.field != target.field or source.n != target.n:
            raise RingMismatchError("charts of different projective spaces")
        if source.ideal_gens != target.ideal_gens:
            raise RingMismatchError("charts of different subschemes")
        self.source = source
        self.target = target

    def apply(self, p: Poly) -> Poly:
        if p.ring != self.source.ring:
            raise RingMismatchError("polynomial not from the source chart")
        if not p.terms:
            return self.target.ring.zero()
        return self.target.nf_of_laurent(self.source.to_laurent(p))

    def apply_vec(self, vec: Sequence[Poly]) -> tuple:
        return tuple(self.apply(p) for p in vec)

    def apply_rows(self, rows: Sequence[Sequence[Poly]]) -> list:
        return [self.apply_vec(row) for row in rows]

    def __repr__(self):
        s = "".join(str(i) for i in sorted(self.source.vertex))
        t = "".join(str(i) for i in sorted(self.target.vertex))
        return f"ChartHom({s} -> {t})"


def chart_hom(source: ChartRing, target: ChartRing) -> ChartHom:
    return ChartHom(source, target)


def ideal_block(chart: ChartRing, rank: int) -> list:
    """Rows q*e_pos spanning I*F_rank for the chart's defining relations."""
    rows = []
    for q in chart.relations:
        for pos in range(rank):
            rows.append(tuple(q if k == pos else chart.ring.zero() for k in range(rank)))
    return rows


def span_gb(chart: ChartRing, rows: Sequence, rank: int) -> list:
    """A Groebner basis of span(rows) + I*F_rank over the chart's ring, made
    once per chart for each (rank, rows), or the basis of a tracked run
    that FPModule.lifter made over the same generators."""
    rows = tuple(tuple(r) for r in rows)
    return chart.memo(
        ("span", rank, rows),
        lambda: groebner_basis(list(rows) + ideal_block(chart, rank), chart.ring),
    )


def span_contains(chart: ChartRing, gb: list, vec) -> bool:
    return vec_is_zero(normal_form(vec, gb, chart.ring))


class Certificate:
    """A Laurent matrix B with S*B = I of rows S: laurent holds S, m rows
    of length g, and matrix holds B, g rows of m entries, both Polys of
    ring, a chart's xring; square says m = g.  FPModule's certificate lemma
    says what it decides.  Bound to a chart, it answers as FPModule.lifter
    for the first nrows rows of S, and carries the relations of module,
    unless None, outside S.  The chart memo keeps a constant solve unbound,
    since a chart there would make a reference cycle that keeps the job's
    charts alive until the cyclic collector runs; cut binds it per ask."""

    def __init__(self, ring, laurent: tuple, matrix: tuple, nrows: int, chart: ChartRing = None, module=None):
        self.ring = ring
        self.laurent = laurent
        self.matrix = matrix
        self.nrows = nrows
        self.chart = chart
        self.module = module
        self.square = len(laurent) == len(matrix)

    def cut(self, chart: ChartRing, nrows: int) -> "Certificate":
        """This certificate bound to chart, lifting to its first nrows
        coefficients."""
        return Certificate(self.ring, self.laurent, self.matrix, nrows, chart, self.module)

    def coefficients(self, vec):
        """x*B for the row x = vec when x = (x*B)*S, that is when x lies in
        the span of S, else None; a square certificate spans every x, so it
        does not multiply back.  vec and the result are rows of Laurent
        forms."""
        coeffs = mat_apply(vec, self.matrix, self.ring, len(self.laurent))
        if self.square or mat_apply(coeffs, self.laurent, self.ring, len(vec)) == tuple(vec):
            return coeffs
        return None

    def lift(self, vec):
        """The first nrows coefficients of the chart row vec, as chart
        polynomials, or None when vec is not in the span of S."""
        chart = self.chart
        coeffs = self.coefficients(tuple(map(chart.to_laurent, vec)))
        if coeffs is None:
            return None
        return [chart.from_laurent(a) for a in coeffs[: self.nrows]]

    def kernel(self) -> list:
        """The relations among the rows: the carried relations times B, as
        chart polynomials, or [] when none are carried."""
        if self.module is None:
            return []
        chart = self.chart
        b = [tuple(map(chart.from_laurent, row)) for row in self.matrix]
        return [mat_apply(r, b, chart.ring, len(self.laurent)) for r in self.module.relations]

    def is_right_inverse(self) -> bool:
        """S*B = I_m as Laurent forms."""
        m = len(self.laurent)
        return mat_mul(self.laurent, self.matrix, self.ring, m) == mat_identity(self.ring, m)


def find_certificate(chart: ChartRing, laurent: tuple, gens: int):
    """The Certificate of the rows S, given as Laurent forms, over a chart
    without subscheme relations, or None when no constant C gives S*C = I.

    With S[i][j] = sum_e s_ije x^e, entry (i, k) of S*C is
    sum_e x^e sum_j s_ije C[j][k], and Laurent forms are unique, so
    S*C = I is the linear system sum_j s_ije C[j][k] = [i = k and e = 0]
    over the field, one equation per row i and exponent e of that row or
    e = 0, one right-hand side per column k.  One rref of [A | B] decides
    it: a pivot in B means no solution, and otherwise the pivot rows give
    the one whose free unknowns are 0."""
    f, ring = chart.field, chart.xring
    m = len(laurent)
    zero = (0,) * (chart.n + 1)
    # entry (i, i) of S*C = I has constant term sum_j s_ij0 C[j][i] = 1,
    # so every row needs an entry with a constant term; and a square S*C = I
    # gives C*S = I, so C*S_e = 0 and S_e = 0 for every e != 0
    if any(all(zero not in entry.terms for entry in row) for row in laurent):
        return None
    if m == gens and any(e != zero for row in laurent for entry in row for e in entry.terms):
        return None
    mat = []
    for i, row in enumerate(laurent):
        for e in {zero}.union(*(entry.terms for entry in row)):
            mat.append(
                [entry.terms.get(e, f.zero) for entry in row]
                + [f.one if k == i and e == zero else f.zero for k in range(m)]
            )
    pivots = rref(f.char, mat, gens + m)
    if pivots and pivots[-1] >= gens:
        return None
    matrix = [(ring.zero(),) * m] * gens
    for r, j in enumerate(pivots):
        matrix[j] = tuple(map(ring.constant, mat[r][gens:]))
    cert = Certificate(ring, laurent, tuple(matrix), m)
    return cert if cert.is_right_inverse() else None


def _laurent_rows(chart: ChartRing, rows) -> tuple:
    """The Laurent form of every entry of rows of chart polynomials."""
    return tuple(tuple(map(chart.to_laurent, row)) for row in rows)


def _diagonal_terms(chart: ChartRing, rows):
    """(Laurent exponent, coefficient) of each diagonal entry when the
    matrix is square, each diagonal entry one term and every other entry
    zero; None for any other matrix."""
    out = []
    for j, row in enumerate(rows):
        if len(row) != len(rows) or len(row[j].terms) != 1:
            return None
        if any(p.terms for k, p in enumerate(row) if k != j):
            return None
        ((exp, c),) = row[j].terms.items()
        out.append((chart.laurent_of_exp(exp), c))
    return tuple(out)


def _has_unit_diagonal(chart: ChartRing, diagonal, gens: int) -> bool:
    """The diagonal read by _diagonal_terms is that of a square matrix of
    size gens whose entries c*m are units of the chart: the Laurent
    exponent of m is 0 outside the chart's vertex, so m^-1 is a chart
    monomial and m*m^-1 = 1 modulo the inversions, in every quotient."""
    if diagonal is None or len(diagonal) != gens:
        return False
    outside = [i for i in range(chart.n + 1) if i not in chart.vertex]
    return not any(e[i] for e, _c in diagonal for i in outside)


def _inverse_diagonal(module: "FPModule", diagonal) -> Certificate:
    """The certificate of rows with the unit diagonal read by
    _diagonal_terms: S holds the rows and B the inverse terms, of negated
    exponent and inverse coefficient, and it carries the module when the
    module has relations."""
    chart = module.chart
    xring, inv, size = chart.xring, chart.field.inv, len(diagonal)
    zero = Poly(xring, {})
    row, s, b = [zero] * size, [None] * size, [None] * size
    for j, (e, c) in enumerate(diagonal):
        row[j] = Poly(xring, {e: c})
        s[j] = tuple(row)
        row[j] = Poly(xring, {tuple(map(neg, e)): inv(c)})
        b[j] = tuple(row)
        row[j] = zero
    carried = module if module._has_relations() else None
    return Certificate(xring, tuple(s), tuple(b), size, chart, carried)


class FPModule:
    """Finitely presented module over a chart ring.

    gens counts the generators; relations is a tuple of rows of that length.
    The module is the cokernel of the relation rows, always considered
    together with the chart ring's own defining relations.  laurent holds
    the Laurent forms of the relation rows, one Poly of the chart's xring
    per entry.  The module is built from one of the two forms and
    makes the other on first read: a maker with the Laurent rows in hand
    (graded_sheaf) gives those, and relations are then written by
    from_laurent when first read; given relations are read by to_laurent.
    Whether there are relations is asked of the form in hand
    (_has_relations), so neither is made for it.  A list of rows of the same length names the
    submodule those rows generate; the methods taking `rows` give its span,
    the relations among the rows, and lifts over them.  A span or a lift
    is a run in the chart's memo, keyed on the generator count, rows and
    relations, and the relations among the rows are made on each ask; the
    module itself keeps only its Laurent rows.

    are_zero, in_span, lifter and row_relations first ask for a
    certificate of the rows (certificate(rows)), which makes no run;
    without one each method makes its run below.

    Certificate lemma.  Let S be m rows of length gens over the chart ring
    and B a matrix with S*B = I_m (a Certificate).
    (a) x lies in span(S) iff x = (x*B)*S, and then x*B is the only a with
        x = a*S: if x = a*S, then x*B = a*S*B = a.  So S has no relations.
    (b) If S is square, then B*S = I too, as det(S)*det(B) = 1, so every x
        lifts, as x*B.  If S is the rows A alone and the relations R are
        kept outside S, the relations among the rows are R times B:
        c*A = d*R gives c = d*R*B, and (r*B)*A = r.
    A certificate is made in one of two ways.  Unit-diagonal lemma:
    square rows A whose diagonal entries are terms c*m with m a unit (its
    Laurent exponent is 0 outside the chart's vertex) and whose other
    entries are 0 have S = A and B the entrywise inverse,
    b_jj = c^-1*m^-1: S*B = I in every quotient ring, the zero ring
    included.  Graded edges, Serre covers and identity maps are so.
    Constant case: on a chart without subscheme relations, the chart ring
    is the Laurent ring k[x_j/x_p, (x_i/x_p)^-1], where every element has
    one Laurent form, so S*B = I and x = (x*B)*S are compared as Laurent
    forms.  There S may be the rows followed by the relations, at most
    gens of them, and B a constant matrix (find_certificate); by (a) the
    entries of x*B for the rows lift x, and the rows have no relations.
    This is the constant case of unimodular row completion (Logar and
    Sturmfels, J. Algebra 145, 1992): an Euler quotient presents the
    kernel of the Serre cover by a row r = (l_0/x_p, ..., l_n/x_p) with
    sum c_i r_i = 1 for a constant c.
    """

    def __init__(self, chart: ChartRing, gens: int, relations: Sequence[Sequence[Poly]] = (), laurent=None):
        """relations are rows of chart polynomials, or, when laurent is
        given, laurent holds their Laurent forms and stands for them."""
        if gens < 0:
            raise ValueError("negative generator count")
        self.chart = chart
        self.gens = gens
        self._laurent = laurent
        if laurent is None:
            rows = self._relations = tuple(tuple(row) for row in relations)
            if any(entry.ring != chart.ring for row in rows for entry in row):
                raise RingMismatchError("relation entry from the wrong chart")
        else:
            rows, self._relations = laurent, None
        if any(len(row) != gens for row in rows):
            raise DimensionMismatchError("relation row of wrong length")

    @property
    def relations(self) -> tuple:
        if self._relations is None:
            from_laurent = self.chart.from_laurent
            self._relations = tuple(tuple(map(from_laurent, row)) for row in self._laurent)
        return self._relations

    @property
    def laurent(self) -> tuple:
        if self._laurent is None:
            self._laurent = _laurent_rows(self.chart, self._relations)
        return self._laurent

    def _has_relations(self) -> bool:
        """relations is not empty, asked of the form the module was built
        from, so neither form is made."""
        return bool(self._relations if self._laurent is None else self._laurent)

    def relation_gb(self) -> list:
        return self.span_gb(())

    def span_gb(self, rows) -> list:
        """Groebner basis of the submodule generated by the rows, taken
        together with the relations."""
        return span_gb(self.chart, tuple(rows) + self.relations, self.gens)

    def _all_relations(self) -> list:
        return list(self.relations) + ideal_block(self.chart, self.gens)

    def certificate(self, rows) -> Certificate | None:
        """The Certificate of the rows (tuples), or None for none: their
        unit diagonal's (_inverse_diagonal), else the constant one of the
        rows followed by the relations, found once per chart for each
        (gens, rows + relations) from the rows' Laurent forms and laurent
        and cut to len(rows) on each ask; None at once on a chart with
        subscheme relations or for more rows than generators."""
        if any(len(row) != self.gens for row in rows):
            raise DimensionMismatchError("row of wrong length")
        diagonal = _diagonal_terms(self.chart, rows)
        if _has_unit_diagonal(self.chart, diagonal, self.gens):
            return _inverse_diagonal(self, diagonal)
        matrix = rows + self.relations
        if self.chart._subscheme or len(matrix) > self.gens:
            return None
        found = self.chart.memo(
            ("certificate", self.gens, matrix),
            lambda: find_certificate(self.chart, _laurent_rows(self.chart, rows) + self.laurent, self.gens),
        )
        return None if found is None else found.cut(self.chart, len(rows))

    def row_relations(self, rows) -> list:
        """Generators of the relations among the rows: the coefficient
        vectors c with sum(c[i] * rows[i]) zero in the module.  Empty when
        the rows have a certificate that carries no relations, whose
        kernel() is [] (part (b) of the certificate lemma; a constant one
        has none by part (a)).  Otherwise the list of a tracked run
        (module_kernel), made on each ask and not kept in the memo, so a
        kernel the certificate would read off its carried relations is
        checked apart from the lemma."""
        rows = tuple(tuple(r) for r in rows)
        cert = self.certificate(rows)
        if cert is not None and cert.module is None:
            return []
        return module_kernel(rows, self._all_relations(), self.chart.ring, self.gens)

    def lifter(self, rows):
        """Membership with a witness in the submodule generated by the rows:
        lift(x) holds one coefficient per row and expresses x over the rows
        modulo the relations, or lift(x) is None; kernel() gives the
        relations among the rows.  With a certificate of the rows this is
        that Certificate, and no run is made.  Otherwise it is a tracked run
        over the rows alone: the relations and the chart's ideal block are
        only modded out.  Its basis is a Groebner basis of span_gb(rows)'s
        span, filed as span_gb(rows) unless one is filed already, so one
        tracked run answers span membership, witnesses and relations for
        the same rows."""
        rows = tuple(tuple(r) for r in rows)
        cert = self.certificate(rows)
        if cert is not None:
            return cert
        key = rows + self.relations

        def build():
            tracked = TrackedBasis(rows, self.chart.ring, self.gens, self._all_relations())
            self.chart.memo(("span", self.gens, key), lambda: tracked.basis)
            return tracked

        return self.chart.memo(("lift", self.gens, key), build)

    def are_zero(self, vecs) -> bool:
        """Every vector is zero in the module."""
        return self._all_in((), vecs)

    def in_span(self, rows, vecs) -> bool:
        """Every vector lies in the submodule the rows generate."""
        return self._all_in(tuple(tuple(r) for r in rows), vecs)

    def _all_in(self, rows, vecs) -> bool:
        """Every vector lies in the span of the rows and the relations: by
        the certificate of the rows, at once for a square one, else by
        reduction over span_gb(rows), which is relation_gb() for no rows.
        Nothing is looked up when there is no vector."""
        vecs = tuple(vecs)
        if any(len(vec) != self.gens for vec in vecs):
            raise DimensionMismatchError("element of wrong rank")
        if not vecs:
            return True
        cert = self.certificate(rows)
        if cert is not None:
            to_laurent = self.chart.to_laurent
            return cert.square or all(
                cert.coefficients(tuple(map(to_laurent, vec))) is not None for vec in vecs
            )
        gb = self.span_gb(rows) if rows else self.relation_gb()
        return all(span_contains(self.chart, gb, vec) for vec in vecs)

    def __repr__(self):
        return f"FPModule(chart={self.chart!r}, gens={self.gens}, rels={len(self.relations)})"


def localize_module(module: FPModule, hom: ChartHom) -> FPModule:
    """Base change of a presentation along a chart inclusion.

    The localized module keeps the generator count and carries every relation
    row through the hom; the target chart's own relations join automatically.
    """
    if module.chart is not hom.source and module.chart.ring != hom.source.ring:
        raise RingMismatchError("module not over the hom's source chart")
    return FPModule(hom.target, module.gens, hom.apply_rows(module.relations))
