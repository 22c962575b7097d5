"""Quiver representations of quasi-coherent sheaves on projective space.

The quiver has one vertex per nonempty subset v of {0..n} (the chart where
the coordinates indexed by v are invertible) and a generating edge v -> w
whenever w = v + {k}.  A representation assigns a finitely presented module
over the chart ring to each vertex and a generator-image matrix to each
generating edge.  The representation presents a quasi-coherent sheaf exactly
when every edge map becomes an isomorphism after extending scalars and the
squares commute, which is decided here exactly: by comparing Laurent terms
where the edge matrices are diagonals of monomials, as on graded inputs,
and by Groebner spans otherwise.  The terms are read once, by their
owners: a module keeps the Laurent forms of its relation rows
(FPModule.laurent), and a representation keeps in SheafRep.terms the
diagonal of each edge, read by _diagonal, the norms and keys of each
vertex's rows, read by _vertex_rows, and its square findings.
Sub-representations given by per-vertex generator lists, and their
presentations (kernels among them), live here as well.  A
sub-representation decides membership by its ambient module's lifter, the
one membership path (FPModule.lifter), so it makes no run of its own, and
its presentation finds the final sections' lifter in the chart memo.

Every quiver on one (field, n) has the same skeleton: the x ring,
vertices, edges, squares, each chart's ChartData of P^n, and per degree
tuple the graded edge matrices and the squares' verdict by terms.  None of
it depends on a subscheme, so a quiver on V(J) in P^n shares the skeleton
of P^n, and its ChartRings add the dehomogenized ideal.  A bounded
process-level table (_skeleton, SKELETONS (field, n) keys, GRADED_EDGES
degree tuples per key, least recently used first out) keeps the skeletons,
so a job on a key seen before builds none of it.  The table holds no run: a
ProjQuiver, its ChartRings and ChartHoms, and every Groebner run are made
per job.

Matrix convention throughout: row i of a map is the image of source
generator i, so vectors act on the left and composition is the usual
matrix product taken left to right.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, repeat
from operator import add as _add, sub as _sub
from typing import Optional

from .charts import (
    SKELETONS,
    ChartData,
    ChartHom,
    ChartRing,
    FPModule,
    _diagonal_terms,
    _has_unit_diagonal,
    chart_hom,
    dehomogenized_laurent,
    is_homogeneous,
    localize_module,
    make_chart_ring,
    x_ring,
)
from .exactpoly import (
    Field,
    Poly,
    mat_apply,
    mat_identity,
    module_kernel,  # noqa: F401  (re-exported; perfbench patches it here)
    vec_is_zero,
    vec_sub,
    vec_unit,
)

Vertex = frozenset
Edge = tuple


def vertex_key(v: Vertex):
    return (len(v), tuple(sorted(v)))


def fmt_vertex(v: Vertex) -> str:
    return "{" + ",".join(str(i) for i in sorted(v)) + "}"


def fmt_edge(e: Edge) -> str:
    return fmt_vertex(e[0]) + "->" + fmt_vertex(e[1])


def push(rep, edge, x):
    """Image of an element of the near module along a generating edge:
    base change to the far chart, then the edge matrix."""
    v, w = edge
    image = rep.quiver.hom(v, w).apply_vec(x)
    return mat_apply(image, rep.edge_maps[(v, w)], rep.quiver.chart(w).ring, rep.modules[w].gens)


# Bounds of the process-level table of quiver skeletons: it keeps the
# skeletons of the SKELETONS (field, n) keys used last (charts.SKELETONS,
# which bounds the x rings too), and each of them the graded edges of the
# GRADED_EDGES degree tuples used last.  A P^4 key with one degree tuple
# holds about 0.2 MB, about half of it the ChartData of its 31 charts.
GRADED_EDGES = 8


class _Skeleton:
    """The part of the quiver of one (field, n) that every job on that key
    shares: the x ring, vertices and edges, the two paths around each
    square, each chart's ChartData (made on first use), and for each degree
    tuple the graded edge matrices with their diagonals as Laurent terms
    and whether every square passes _square_by_terms on them (made by
    graded_edges).  None of it holds a run, and nothing in it changes once
    made."""

    def __init__(self, fld: Field, n: int):
        self.field = fld
        self.n = n
        self.xring = x_ring(fld, n)
        points = range(n + 1)
        verts = []
        for mask in range(1, 1 << (n + 1)):
            verts.append(frozenset(i for i in points if mask >> i & 1))
        self.vertices = tuple(sorted(verts, key=vertex_key))
        # the far end of an edge is the vertex object itself, not a copy
        same = {v: v for v in self.vertices}
        edges = []
        for v in self.vertices:
            for k in sorted(set(points) - v):
                edges.append((v, same[v | {k}]))
        self.edges = tuple(sorted(edges, key=lambda e: (vertex_key(e[0]), vertex_key(e[1]))))
        # (v, k, l, the paths v -> v+k -> w and v -> v+l -> w), w = v+{k,l}
        squares = []
        for v in self.vertices:
            for k, l in combinations(sorted(set(points) - v), 2):
                w = same[v | {k, l}]
                paths = tuple(((v, same[v | {m}]), (same[v | {m}], w)) for m in (k, l))
                squares.append((v, k, l, paths))
        self.squares = tuple(squares)
        self._charts = {}
        self._graded = OrderedDict()
        self._ratios = {}

    def chart(self, v: Vertex) -> ChartData:
        data = self._charts.get(v)
        if data is None:
            data = self._charts[v] = ChartData(self.field, self.n, v)
        return data

    def graded_edges(self, degrees: tuple) -> tuple:
        """(edge matrices, diagonals, squares) of the graded sheaf with
        these generator twists, the first two dicts by edge: generator j of
        degree d is e_j / x_p^d on a chart with pivot p, which is
        (x_q / x_p)^d times e_j / x_q^d across an edge from pivot p to
        pivot q.  A diagonal is the (Laurent exponent, coefficient) of each
        diagonal entry, as _diagonal_terms reads it off the matrix.  The
        matrix depends on the far chart and p alone, so edges that share
        both share it.  squares says whether every square passes
        _square_by_terms on these diagonals, which are all it reads, so it
        holds for every graded sheaf with these degrees."""
        found = self._graded.get(degrees)
        if found is not None:
            self._graded.move_to_end(degrees)
            return found
        if len(self._graded) == GRADED_EDGES:
            # the ratios go too, so that they stay bounded with the tuples
            self._graded.popitem(last=False)
            self._ratios.clear()
        maps, diagonals, shared = {}, {}, {}
        for v, w in self.edges:
            key = (w, min(v))
            if key not in shared:
                zero = self.chart(w).ring.zero()
                rows, diagonal = [], []
                for j, d in enumerate(degrees):
                    term, monomial = self._ratio(w, key[1], d)
                    row = [zero] * len(degrees)
                    row[j] = monomial
                    rows.append(tuple(row))
                    diagonal.append(term)
                shared[key] = (tuple(rows), tuple(diagonal))
            maps[(v, w)], diagonals[(v, w)] = shared[key]
        fmul = self.field.mul
        squares = all(
            _square_by_terms(fmul, [diagonals[e] for path in paths for e in path])
            for _v, _k, _l, paths in self.squares
        )
        found = self._graded[degrees] = (maps, diagonals, squares)
        return found

    def _ratio(self, w: Vertex, p: int, d: int) -> tuple:
        """(Laurent exponent, coefficient) of (x_q / x_p)^d, q the pivot of
        w, and its monomial in the chart w: one of each per chart and ratio."""
        key = (w, p, d)
        found = self._ratios.get(key)
        if found is None:
            ratio = [0] * (self.n + 1)
            ratio[min(w)] += d
            ratio[p] -= d
            ratio = tuple(ratio)
            monomial = self.chart(w).from_laurent(Poly(self.xring, {ratio: self.field.one}))
            found = self._ratios[key] = ((ratio, self.field.one), monomial)
        return found


@lru_cache(maxsize=SKELETONS)
def _skeleton(fld: Field, n: int) -> _Skeleton:
    return _Skeleton(fld, n)


class ProjQuiver:
    """Chart poset of P^n or of a closed subscheme V(ideal_gens): the
    skeleton its (field, n) shares in the process, and the ChartRings and
    ChartHoms of one job, made on first use, each chart the skeleton's
    ChartData with the quiver's ideal (make_chart_ring)."""

    def __init__(self, fld: Field, n: int, ideal_gens=()):
        if n < 1 or n > 6:
            raise ValueError("ambient dimension must be between 1 and 6")
        self.field = fld
        self.n = n
        self.skeleton = _skeleton(fld, n)
        self.xring = self.skeleton.xring
        gens = tuple(g for g in ideal_gens if not g.is_zero())
        for g in gens:
            if g.ring != self.xring:
                raise ValueError("subscheme generators must live in the x ring")
            if not is_homogeneous(g):
                raise ValueError("subscheme generators must be homogeneous")
        self.ideal_gens = gens
        self.vertices = self.skeleton.vertices
        self.edges = self.skeleton.edges
        self._charts = {}
        self._homs = {}

    def chart(self, v: Vertex) -> ChartRing:
        v = frozenset(v)
        if v not in self._charts:
            data = self.skeleton.chart(v)
            self._charts[v] = make_chart_ring(self.field, self.n, v, self.ideal_gens, data)
        return self._charts[v]

    def hom(self, v: Vertex, w: Vertex) -> ChartHom:
        key = (frozenset(v), frozenset(w))
        if key not in self._homs:
            self._homs[key] = chart_hom(self.chart(key[0]), self.chart(key[1]))
        return self._homs[key]


def build_proj_quiver(fld: Field, n: int, ideal_gens=()) -> ProjQuiver:
    return ProjQuiver(fld, n, ideal_gens)


@dataclass(frozen=True)
class GradedData:
    """Graded presentation a representation was sheafified from."""

    degrees: tuple
    rows: tuple


@dataclass(frozen=True)
class SheafRep:
    """A representation.  terms holds what is read off it once: under each
    edge the diagonal of its matrix as _diagonal_terms reads it, which
    graded_sheaf seeds from the skeleton and _diagonal otherwise reads on
    first use, under each vertex the norms and keys of its module's
    Laurent rows (_vertex_rows), and under "squares" the findings of
    _squares_agree, which graded_sheaf seeds when the skeleton's squares
    pass by terms."""

    quiver: ProjQuiver
    modules: dict
    edge_maps: dict
    graded: Optional[GradedData] = None
    terms: dict = field(default_factory=dict, compare=False, repr=False)

    def replaced_edge(self, edge, rows) -> "SheafRep":
        """The representation with one edge matrix replaced; it keeps no
        graded presentation and starts empty terms, as the old ones describe
        the old matrix."""
        key = (frozenset(edge[0]), frozenset(edge[1]))
        if key not in self.edge_maps:
            raise KeyError(fmt_edge(key))
        new_maps = dict(self.edge_maps)
        new_maps[key] = tuple(tuple(r) for r in rows)
        return SheafRep(self.quiver, self.modules, new_maps, None)


def make_sheaf_rep(quiver: ProjQuiver, modules, edge_maps) -> SheafRep:
    """Assemble a representation, validating shapes and ring membership."""
    mods = {}
    for v in quiver.vertices:
        if v not in modules:
            raise ValueError("missing module at vertex " + fmt_vertex(v))
        m = modules[v]
        if m.chart is not quiver.chart(v):
            raise ValueError("module at " + fmt_vertex(v) + " built over a foreign chart")
        mods[v] = m
    maps = {}
    for e in quiver.edges:
        if e not in edge_maps:
            raise ValueError("missing edge map " + fmt_edge(e))
        rows = tuple(tuple(r) for r in edge_maps[e])
        src, tgt = mods[e[0]], mods[e[1]]
        if len(rows) != src.gens:
            raise ValueError("edge " + fmt_edge(e) + ": expected " + str(src.gens) + " rows")
        ring = quiver.chart(e[1]).ring
        for row in rows:
            if len(row) != tgt.gens:
                raise ValueError("edge " + fmt_edge(e) + ": expected " + str(tgt.gens) + " columns")
            for p in row:
                if p.ring is not ring:
                    raise ValueError("edge " + fmt_edge(e) + ": entry in wrong ring")
        maps[e] = rows
    return SheafRep(quiver, mods, maps, None)


def check_graded_row(row, degrees) -> Optional[int]:
    """The degree of the relation row, deg(entry) + degree at any nonzero
    entry, or None for a zero row; raise ValueError unless the row has one
    entry per generator degree, every nonzero entry is homogeneous, and
    deg(entry) + degree is the same across the row."""
    if len(row) != len(degrees):
        raise ValueError("relation row has %d entries, expected %d" % (len(row), len(degrees)))
    total = None
    for g, d in zip(row, degrees):
        if g.is_zero():
            continue
        if not is_homogeneous(g):
            raise ValueError("relation entry is not homogeneous")
        here = g.degree() + d
        if total is None:
            total = here
        elif total != here:
            raise ValueError("relation row is not homogeneous for the degrees")
    return total


def graded_sheaf(quiver: ProjQuiver, degrees, rows=()) -> SheafRep:
    """Sheafify coker(relations) of a free graded module with the given
    generator twists: generator j of degree d_j corresponds on a chart with
    pivot p to the section e_j / x_p^{d_j}.  The edge matrices, their
    diagonals and whether the squares pass by terms come from the quiver's
    skeleton, and rep.terms starts with the diagonals, and with no square
    findings when the squares pass.  The relation rows are dehomogenized
    here, as Laurent forms once per pivot, which every module on a chart
    with that pivot is built from; a module writes them as chart
    polynomials only when they are read (FPModule.relations)."""
    degrees = tuple(int(d) for d in degrees)
    frozen_rows = tuple(tuple(row) for row in rows)
    for row in frozen_rows:
        check_graded_row(row, degrees)
    by_pivot, modules = {}, {}
    for v in quiver.vertices:
        p = min(v)
        if p not in by_pivot:
            by_pivot[p] = tuple(
                tuple(dehomogenized_laurent(g, p) for g in row) for row in frozen_rows
            )
        modules[v] = FPModule(quiver.chart(v), len(degrees), laurent=by_pivot[p])
    maps, diagonals, squares = quiver.skeleton.graded_edges(degrees)
    terms = dict(diagonals)
    if squares:
        terms["squares"] = ()
    return SheafRep(quiver, modules, dict(maps), GradedData(degrees, frozen_rows), terms)


def structure_sheaf(quiver: ProjQuiver) -> SheafRep:
    return graded_sheaf(quiver, (0,))


def twist(quiver: ProjQuiver, k: int) -> SheafRep:
    """Line bundle O(k): the graded module with one generator of degree -k."""
    return graded_sheaf(quiver, (-k,))


@dataclass(frozen=True)
class EdgeVerdict:
    edge: Edge
    well_defined: bool
    surjective: bool
    injective: bool

    @property
    def ok(self) -> bool:
        return self.well_defined and self.surjective and self.injective


@dataclass(frozen=True)
class QCReport:
    ok: bool
    edges: tuple
    squares_ok: bool
    findings: tuple


def _onto(rows, tgt: FPModule) -> bool:
    """The matrix rows generate tgt: every unit vector lies in their span,
    which a square certificate of the rows says at once, before any unit
    vector is built."""
    rows = tuple(tuple(r) for r in rows)
    cert = tgt.certificate(rows)
    if cert is not None and cert.square:
        return True
    ring = tgt.chart.ring
    return tgt.in_span(rows, (vec_unit(ring, tgt.gens, j) for j in range(tgt.gens)))


def _injective(src: FPModule, rows, tgt: FPModule) -> bool:
    """The matrix A = rows from src to tgt, two modules over one chart, is
    injective: each relation among the rows, read off FPModule.lifter, is
    a relation of src.  A lifter's tracked run files its basis as the span
    basis of the rows, so _onto asked after it decides from that basis."""
    return src.are_zero(tgt.lifter(rows).kernel())


def _diagonal(rep: SheafRep, e: Edge):
    """The diagonal of the matrix of edge e as _diagonal_terms reads it,
    kept in rep.terms: the one place sheafrep reads an edge's terms."""
    terms = rep.terms
    if e not in terms:
        terms[e] = _diagonal_terms(rep.quiver.chart(e[1]), rep.edge_maps[e])
    return terms[e]


def _row_norm(row, field: Field) -> tuple:
    """The part of a nonzero row's _row_key that does not depend on the far
    vertex: the exponent of the least term (lexicographic min) of the
    row's first nonzero entry, and the (column, exponent, coefficient)
    terms of the row over that term."""
    lead = next(entry.terms for entry in row if entry)
    low = min(lead)
    scale, mul = field.inv(lead[low]), field.mul
    return low, frozenset([
        (k, tuple(map(_sub, exp, low)), mul(c, scale))
        for k, entry in enumerate(row) for exp, c in entry.terms.items()
    ])


def _key(norm, outside) -> tuple:
    """The _row_key of a row from its _row_norm."""
    low, terms = norm
    return tuple([low[i] for i in outside]), terms


def _row_key(row, field: Field, outside) -> tuple:
    """The canonical form of a nonzero row of Laurent forms: the exponent of
    its _row_norm term at the indices in outside, and its _row_norm terms.
    A shift keeps the order, so rows a, b have one key exactly when
    a = c*m*b, c a nonzero constant and m a monomial whose exponent is 0 at
    every index in outside."""
    return _key(_row_norm(row, field), outside)


def _vertex_rows(rep: SheafRep, v: Vertex) -> tuple:
    """(norms, keys) of the nonzero Laurent rows of the module at v, kept in
    rep.terms under v: the _row_norm of each row, read once, and the set of
    the rows' _row_key keys with outside the indices not in v, the far
    side of every edge into v."""
    terms = rep.terms
    if v not in terms:
        fld = rep.quiver.field
        norms = tuple(_row_norm(r, fld) for r in rep.modules[v].laurent if any(r))
        outside = [i for i in range(rep.quiver.n + 1) if i not in v]
        terms[v] = norms, {_key(norm, outside) for norm in norms}
    return terms[v]


def _times_diagonal(row, diagonal) -> tuple:
    """The Laurent row times a diagonal of (exponent, coefficient) terms,
    entry by entry."""
    return tuple([entry.mul_term(e, c) for entry, (e, c) in zip(row, diagonal)])


def _edge_by_terms(rep: SheafRep, e: Edge) -> bool:
    """The edge matrix A is a diagonal of unit monomials of the far chart,
    and the relations of the two ends correspond through it as Laurent
    rows: every nonzero near row r has r*A = c*m*f for a far row f, a
    nonzero constant c and a monomial m that is a unit of the far chart,
    and every nonzero far row is such an f.  The first condition is
    _has_unit_diagonal, which also decides the matrices FPModule's
    unit-diagonal lemma inverts.  The second compares the sets of
    _row_key keys of the images r*A and of the far rows, the modules'
    Laurent rows (FPModule.laurent), outside being the indices not in w;
    each side's norms are read once per vertex (_vertex_rows).

    Lemma: when every diagonal entry of A is one term c*m, the same for
    all, with m zero outside w, the key of r*A = c*m*r is the key of r.
    Proof: the least term of the first nonzero entry moves by m, as a
    shift keeps the order, so the terms over it are those of r, their
    coefficients over its coefficient are unchanged, and its exponent
    at the indices outside w is unchanged.  So no image row is built:
    this holds on every graded edge whose generators share a degree,
    every Euler quotient and every one-generator module among them.  Any
    other diagonal builds the images r*A."""
    v, w = e
    diagonal = _diagonal(rep, e)
    if not _has_unit_diagonal(rep.quiver.chart(w), diagonal, rep.modules[w].gens):
        return False
    far = _vertex_rows(rep, w)[1]
    outside = [i for i in range(rep.quiver.n + 1) if i not in w]
    if len(set(diagonal)) <= 1:
        return {_key(norm, outside) for norm in _vertex_rows(rep, v)[0]} == far
    fld = rep.quiver.field
    images = (_times_diagonal(row, diagonal) for row in rep.modules[v].laurent)
    return {_row_key(r, fld, outside) for r in images if any(r)} == far


def _edge_verdict(rep: SheafRep, e: Edge) -> EdgeVerdict:
    """Base change of the near module to the far chart, compared with the
    far module through the edge matrix; it is well defined when every
    relation of the near module, sent through the matrix, is a relation of
    the far one, and injective and onto as _injective and _onto decide.

    Lemma: when _edge_by_terms holds (A a diagonal of unit monomials with
    inverse B, the relations matched as Laurent rows), the verdict is
    (True, True, True), on every chart, the zero ring included.  The chart
    ring modulo its inversions embeds in the Laurent ring and the
    subscheme relations only add relations, so equal Laurent expansions
    are equal in the chart ring.  Proof: r*A = c*m*f lies in span(f), so
    the map is well defined; it is onto by FPModule's unit-diagonal lemma;
    and f*B = c^-1*m^-1*r, since A*B = 1 as Laurent terms, so R_far*B lies
    in the localized relations and the map is injective.  Any other edge
    is decided by localize_module, _injective and _onto, which are also
    the oracle of the lemma."""
    v, w = e
    rows, tgt = rep.edge_maps[e], rep.modules[w]
    if _edge_by_terms(rep, e):
        return EdgeVerdict(e, True, True, True)
    loc = localize_module(rep.modules[v], rep.quiver.hom(v, w))
    well = tgt.are_zero([mat_apply(r, rows, tgt.chart.ring, tgt.gens) for r in loc.relations])
    injective = _injective(loc, rows, tgt)
    return EdgeVerdict(e, well, _onto(rows, tgt), injective)


def _square_by_terms(fmul, d) -> bool:
    """The two composites of a square are equal as Laurent terms: d holds
    the diagonals of its four edge matrices as _diagonal_terms reads them,
    the two edges of one path and then the two of the other; all four are
    diagonals of single terms (none is None), and on every diagonal entry
    the two paths have the same exponent sum and the same coefficient
    product, fmul being the field's multiplication."""
    if None in d:
        return False
    return all(
        tuple(map(_add, e1, e2)) == tuple(map(_add, e3, e4)) and fmul(c1, c2) == fmul(c3, c4)
        for (e1, c1), (e2, c2), (e3, c3), (e4, c4) in zip(*d)
    )


def _squares_agree(rep: SheafRep) -> tuple:
    """Composites of generating edges around each square, compared modulo
    the target relation span.

    Lemma: when _square_by_terms holds, the square agrees.  Proof: each
    composite entry is the single term hom(a)*b, and two terms with the
    same Laurent exponent and coefficient are the same element of the
    chart ring (see _edge_verdict).  When the terms differ, the composites
    are pushed and compared modulo the far relations, since on a
    subscheme chart they may still agree.  The findings are kept in
    rep.terms, so a representation is checked once: a parsed sheafrep file
    carries its parse's findings to is_quasi_coherent."""
    found = rep.terms.get("squares")
    if found is not None:
        return found
    findings = []
    fmul = rep.quiver.field.mul
    for v, k, l, paths in rep.quiver.skeleton.squares:
        if _square_by_terms(fmul, [_diagonal(rep, e) for path in paths for e in path]):
            continue
        left, right = ([push(rep, second, r) for r in rep.edge_maps[first]] for first, second in paths)
        if not rep.modules[v | {k, l}].are_zero(map(vec_sub, left, right)):
            findings.append(
                "square at %s adding {%d,%d}: path composites disagree" % (fmt_vertex(v), k, l)
            )
    found = rep.terms["squares"] = tuple(findings)
    return found


def is_quasi_coherent(rep: SheafRep) -> QCReport:
    verdicts = []
    findings = []
    for e in rep.quiver.edges:
        ev = _edge_verdict(rep, e)
        verdicts.append(ev)
        if not ev.well_defined:
            findings.append("edge " + fmt_edge(e) + ": relations not preserved")
        if not ev.surjective:
            findings.append("edge " + fmt_edge(e) + ": extension of scalars not surjective")
        if not ev.injective:
            findings.append("edge " + fmt_edge(e) + ": extension of scalars not injective")
    square_findings = _squares_agree(rep)
    findings.extend(square_findings)
    ok = all(ev.ok for ev in verdicts) and not square_findings
    return QCReport(ok, tuple(verdicts), not square_findings, tuple(findings))


@dataclass(frozen=True)
class SheafMap:
    source: SheafRep
    target: SheafRep
    rows: dict


def make_sheaf_map(source: SheafRep, target: SheafRep, rows) -> SheafMap:
    if source.quiver is not target.quiver:
        raise ValueError("map endpoints live on different quivers")
    fixed = {}
    for v in source.quiver.vertices:
        if v not in rows:
            raise ValueError("missing map rows at vertex " + fmt_vertex(v))
        mat = tuple(tuple(r) for r in rows[v])
        if len(mat) != source.modules[v].gens:
            raise ValueError("map at " + fmt_vertex(v) + ": wrong row count")
        for row in mat:
            if len(row) != target.modules[v].gens:
                raise ValueError("map at " + fmt_vertex(v) + ": wrong column count")
        fixed[v] = mat
    return SheafMap(source, target, fixed)


def identity_map(rep: SheafRep) -> SheafMap:
    rows = {
        v: mat_identity(rep.quiver.chart(v).ring, rep.modules[v].gens)
        for v in rep.quiver.vertices
    }
    return SheafMap(rep, rep, rows)


def map_is_surjective(f: SheafMap) -> bool:
    """Each vertex's rows span the target, as in_span decides: a
    certificate of the rows, or one untracked span run."""
    return all(_onto(f.rows[v], f.target.modules[v]) for v in f.source.quiver.vertices)


def map_is_injective(f: SheafMap) -> bool:
    """Each vertex's rows are injective, as _injective decides."""
    return all(
        _injective(f.source.modules[v], f.rows[v], f.target.modules[v])
        for v in f.source.quiver.vertices
    )


def map_is_iso(f: SheafMap) -> bool:
    return map_is_injective(f) and map_is_surjective(f)


def _chart_nonzero_rows(chart, rows):
    """Entrywise chart normal forms, dropping rows that are zero in the
    quotient ring (they present the zero element, or a relation already
    implied by the chart's own defining ideal)."""
    out = []
    for row in rows:
        nf_row = tuple(chart.nf(e) for e in row)
        if not vec_is_zero(nf_row):
            out.append(nf_row)
    return tuple(out)


def _prune_generators(module: FPModule, rows):
    """Drop generators lying in the span of the remaining ones (modulo the
    module relations), keeping the earliest representatives, in one pass
    from the last row back: a row found needed stays needed when an
    earlier one goes, as the span of the others only shrinks."""
    rows = list(rows)
    for i in range(len(rows) - 1, -1, -1):
        if module.in_span(rows[:i] + rows[i + 1 :], (rows[i],)):
            rows.pop(i)
    return tuple(rows)


class SubRep:
    """Generator lists for a sub-representation of an ambient sheaf.

    `seed` maps vertices to element lists of the ambient, which are added
    in vertex order.  Spans are always taken modulo the ambient relations,
    so membership means membership in the generated submodule of the
    ambient vertex module.  span(v) is the ambient module's lifter over the
    sections at v, a certificate or else a tracked run in the chart memo,
    and contains asks it for a lift.  So a SubRep makes no run of its own,
    and _present finds the lifter of the final sections in the memo.
    """

    def __init__(self, ambient: SheafRep, seed: Optional[dict] = None):
        self.ambient = ambient
        self.seed = seed or {}
        self.sections = {v: [] for v in ambient.quiver.vertices}
        for v in ambient.quiver.vertices:
            for x in self.seed.get(v, ()):
                self.add(v, x)

    def span(self, v):
        """The lifter of the sections at v over the ambient module."""
        v = frozenset(v)
        return self.ambient.modules[v].lifter(self.sections[v])

    def contains(self, v, vec) -> bool:
        return self.span(v).lift(tuple(vec)) is not None

    def add(self, v, vec) -> bool:
        """Append a generator unless it is already in the span; reports
        whether the span grew."""
        v = frozenset(v)
        if vec_is_zero(vec) or self.contains(v, vec):
            return False
        self.sections[v].append(tuple(vec))
        return True


class NotClosed(ValueError):
    """Pushed generators that do not lift over the far generators, on the
    edges `edges`, in edge order."""

    def __init__(self, edges):
        super().__init__("generators not closed under edge " + fmt_edge(edges[0]))
        self.edges = tuple(edges)


def _present(ambient: SheafRep, gens: dict):
    """Representation generated by the per-vertex element lists `gens` of
    the ambient, with its inclusion: the relations at each vertex are those
    among the generators, and each edge matrix lifts the pushed generators
    over the far generators.  The lifter of each vertex's generators gives
    both: a certificate, or one tracked run, which the chart memo already
    holds when a SubRep has asked about those sections (induced_rep after
    a closure).  Every edge is tried, each up to its first generator that
    does not lift; then NotClosed names the edges that failed."""
    quiver = ambient.quiver
    lifters = {v: ambient.modules[v].lifter(gens[v]) for v in quiver.vertices}
    mods = {}
    for v in quiver.vertices:
        chart = quiver.chart(v)
        rel = _chart_nonzero_rows(chart, lifters[v].kernel())
        mods[v] = FPModule(chart, len(gens[v]), rel)
    edge_maps = {}
    open_edges = []
    for edge in quiver.edges:
        v, w = edge
        rows_vw = []
        for x in gens[v]:
            coeffs = lifters[w].lift(push(ambient, edge, x))
            if coeffs is None:
                open_edges.append(edge)
                break
            rows_vw.append(tuple(coeffs))
        edge_maps[edge] = tuple(rows_vw)
    if open_edges:
        raise NotClosed(open_edges)
    rep = SheafRep(quiver, mods, edge_maps, None)
    return rep, SheafMap(rep, ambient, {v: tuple(gens[v]) for v in quiver.vertices})


def induced_rep(sub: SubRep):
    """Presentation of the sub-representation by its generator lists, with
    the inclusion back into the ambient."""
    return _present(sub.ambient, sub.sections)


def _relation_degrees(graded: GradedData):
    """The degree e_i of each relation row, as check_graded_row gives it,
    or None when a row is zero and has no degree, or when there is no row:
    a sum of twists, whose kernel is zero and which the generic path
    presents with no push and no lift."""
    out = tuple(check_graded_row(row, graded.degrees) for row in graded.rows)
    return out if out and None not in out else None


def _intertwines(near, far, d_src, d_ker) -> bool:
    """row * D_src == D_ker * row' as Laurent terms: each near inclusion
    row times the source edge's diagonal is the far row of the same index
    times that index's entry of the kernel edge's diagonal."""
    return d_src is not None and d_ker is not None and all(
        _times_diagonal(r, d_src) == _times_diagonal(s, repeat(term))
        for r, s, term in zip(near, far, d_ker)
    )


def _graded_kernel(f: SheafMap):
    """The kernel of an identity map onto a graded sheaf, such as Serre's
    cover, read off the target's graded presentation, or None where the
    lemma below does not answer.  The source needs no graded data: (2)
    reads only the diagonals of its edge matrices.

    Lemma.  Let the target's relation rows r_i have degrees e_i, and let K
    be graded_sheaf(quiver, e), the free sheaf on generators of those
    degrees, mapped into the source by the rows r_i dehomogenized at each
    vertex (rep.modules[v].relations).  Suppose that on charts without
    subscheme relations (1) at every vertex the rows have a certificate in
    the source module that carries no relations, and (2) along every edge
    row * D_src == D_ker * row' as Laurent terms (_intertwines), D_src and
    D_ker the diagonals of the source's and K's edge matrices.  Then this
    is the kernel that the generic path presents, generator for generator:
    the kernel at v is the span of the target relations modulo the source
    ones, and by (1) the rows are independent there (part (a) of
    FPModule's certificate lemma), so none is pruned and none has a
    relation; the push of a near row is its Laurent form times D_src, as
    a chart hom is the identity on Laurent forms, and by (2) and the
    uniqueness of lifts it lifts over the far rows as the row of D_ker.
    Why (2) holds on graded input: r_i dehomogenized at pivot p is the
    section r_i / x_p^e_i, which is (x_q/x_p)^e_i times its form at pivot
    q, the skeleton's graded edge for degree e_i.  (2) is still checked,
    once per distinct (near rows, far rows, diagonals), which on a graded
    sheaf is once per pair of pivots."""
    source, target = f.source, f.target
    quiver = source.quiver
    if target.graded is None or quiver.ideal_gens:
        return None
    relation_degrees = _relation_degrees(target.graded)
    if relation_degrees is None:
        return None
    rows, gens = {}, len(target.graded.degrees)
    for v in quiver.vertices:
        incl = target.modules[v].relations
        if f.rows[v] != mat_identity(quiver.chart(v).ring, gens) or len(incl) != len(relation_degrees):
            return None
        cert = source.modules[v].certificate(incl)
        if cert is None or cert.module is not None:
            return None
        rows[v] = incl
    ker = graded_sheaf(quiver, relation_degrees)
    checked = set()
    for e in quiver.edges:
        v, w = e
        near, far = target.modules[v].laurent, target.modules[w].laurent
        d_src, d_ker = _diagonal(source, e), _diagonal(ker, e)
        key = (id(near), id(far), d_src, d_ker)  # graded_sheaf shares one row tuple per pivot
        if key not in checked:
            if not _intertwines(near, far, d_src, d_ker):
                return None
            checked.add(key)
    return ker, SheafMap(ker, source, rows)


def kernel(f: SheafMap):
    """Kernel representation with its inclusion into the source.

    The identity onto a graded sheaf, as bundles.serre_cover builds it,
    has its kernel read off the target's graded presentation where
    _graded_kernel's lemma answers: the free
    sheaf on the relation rows, with no push and no lift.  Any other map,
    and that one where the lemma does not answer (no relation row, a zero
    or dependent one, rows with no constant certificate, subscheme
    charts), takes the generic path, which stays as the lemma's oracle.
    Vertexwise the kernel generators are a generating set of solutions of
    c . f = 0 modulo target relations, pruned of redundant ones; edge maps
    are produced by lifting pushed-forward kernel generators over the kernel
    generators at the far vertex, which succeeds whenever the map
    intertwines the edges.  The solutions are the kernel of the rows'
    lifter, which reads them off the rows' certificate where it has one."""
    found = _graded_kernel(f)
    if found is not None:
        return found
    quiver = f.source.quiver
    gens = {}
    for v in quiver.vertices:
        found = f.target.modules[v].lifter(f.rows[v]).kernel()
        gens[v] = _prune_generators(f.source.modules[v], _chart_nonzero_rows(quiver.chart(v), found))
    return _present(f.source, gens)


def cokernel(f: SheafMap) -> SheafRep:
    """Quotient of the target by the image, presented by appending the image
    rows to the target relations."""
    quiver = f.target.quiver
    mods = {}
    for v in quiver.vertices:
        tgt = f.target.modules[v]
        rel = tuple(tgt.relations) + tuple(
            r for r in f.rows[v] if not vec_is_zero(r)
        )
        mods[v] = FPModule(tgt.chart, tgt.gens, rel)
    return SheafRep(quiver, mods, dict(f.target.edge_maps), None)
