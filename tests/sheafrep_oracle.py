"""The edge verdicts and presentations that ran one Groebner basis per
question, kept as a test oracle.

These are the routines `qsheaf.sheafrep` replaced with one tracked run per
(module, rows): `_onto` built an untracked basis of the rows, `_injective` a
second, tracked basis for the relations among them, and `_present` one
tracked basis per vertex for its relations and another per edge for the
lifts over the far generators.  The tracked bases here are those of
`exactpoly_oracle`, whose Buchberger processes every S-pair and keeps dense
combinations, so the relations and lifts do not go through the chain
criterion or the sparse combinations either.  `relations_preserved` is the
well-definedness test that fetched the target's relation basis and tested
each relation image by hand.

`squares_agree` is the square check that pushed both composites of every
square and reduced their difference modulo the far relations, before
squares whose edge matrices are diagonals of single terms were compared as
Laurent terms.

`verify_subrep` is the sub-representation check that scanned the edges
itself: it pushed every generator and tested span membership at the far
vertex before `induced_rep` pushed and lifted them all again.

`term_multiple` is the pairwise match of two Laurent relation rows that
`_edge_by_terms` ran for every near row against the far rows, the row with
the same index first, before the rows were compared by their `_row_key`
canonical forms.  `prune_generators` is the pruning that restarted its scan
from the last row after each row it dropped, before `_prune_generators`
made one pass.

`map_commutes`, `map_is_well_defined`, `is_zero_module` and `rep_is_zero`
are checks that only tests ever called; tests use them to check maps and
quotients built by `qsheaf.sheafrep` and `qsheaf.bundles`.  So is
`report_verdict`, which reads one edge's verdict out of a coherence report,
and `direct_sum`, which builds the decomposable sheaves some tests start
from.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, sub

import exactpoly_oracle as oracle
from exactpoly_oracle import vec_zero
from qsheaf.charts import FPModule, localize_module, span_contains
from qsheaf.closure import SubRep, SubRepReport, induced_rep
from qsheaf.exactpoly import mat_apply, mat_mul, vec_is_zero, vec_sub, vec_unit
from qsheaf.sheafrep import (
    EdgeVerdict,
    GradedData,
    QCReport,
    SheafMap,
    SheafRep,
    _chart_nonzero_rows,
    fmt_edge,
    fmt_vertex,
    is_quasi_coherent,
    push,
)


class TrackedBasis:
    """Membership with a witness over gens, on the oracle's Buchberger."""

    def __init__(self, gens, ring, rank):
        self.ring = ring
        self.gens = list(gens)
        self.basis, self.combos, self.syzygy_rows = oracle._buchberger(self.gens, ring, rank, True)

    def lift(self, vec):
        zero = self.ring.zero()
        if not self.basis:
            return None if not vec_is_zero(vec) else [zero] * len(self.gens)
        rem, quot = oracle.reduce_vec(vec, self.basis, self.ring, True)
        if not vec_is_zero(rem):
            return None
        coeffs = [zero] * len(self.gens)
        for k, q in enumerate(quot):
            if q.is_zero():
                continue
            for i, c in enumerate(self.combos[k]):
                if not c.is_zero():
                    coeffs[i] = coeffs[i] + q * c
        return coeffs


def lifter(module: FPModule, rows) -> TrackedBasis:
    return TrackedBasis(list(rows) + module._all_relations(), module.chart.ring, module.gens)


def row_relations(module: FPModule, rows) -> list:
    """The heads of the deduplicated syzygy rows of rows + relations, as
    the old module_kernel read them."""
    rows = list(rows)
    seen_rows, syz = set(), []
    for r in lifter(module, rows).syzygy_rows:
        r = tuple(r)
        if r not in seen_rows:
            seen_rows.add(r)
            syz.append(r)
    out, seen = [], set()
    for row in syz:
        head = tuple(row[: len(rows)])
        if vec_is_zero(head) or head in seen:
            continue
        seen.add(head)
        out.append(head)
    return out


def relations_preserved(src: FPModule, rows, tgt: FPModule) -> bool:
    gb = tgt.relation_gb()
    ring = tgt.chart.ring
    return all(span_contains(tgt.chart, gb, mat_apply(r, rows, ring, tgt.gens)) for r in src.relations)


def onto(rows, tgt: FPModule) -> bool:
    gb = tgt.span_gb(rows)
    ring = tgt.chart.ring
    return all(span_contains(tgt.chart, gb, vec_unit(ring, tgt.gens, j)) for j in range(tgt.gens))


def injective(src: FPModule, rows, tgt: FPModule) -> bool:
    ker = row_relations(tgt, rows)
    gb = src.relation_gb()
    return all(span_contains(src.chart, gb, k) for k in ker)


def term_multiple(a, b, fmul, outside) -> bool:
    """a = c*m*b for rows of Laurent dicts, a nonzero, with c a nonzero
    constant and m a monomial whose exponent is 0 at every index in
    outside.  The least exponent of the first nonzero entry of a must be
    that of b shifted by m, which fixes m and c."""
    j = next(j for j, entry in enumerate(a) if entry)
    if not b[j]:
        return False
    ea, eb = min(a[j]), min(b[j])
    shift = tuple(map(sub, ea, eb))
    if any(shift[i] for i in outside):
        return False
    ca, cb = a[j][ea], b[j][eb]
    for x, y in zip(a, b):
        if len(x) != len(y):
            return False
        for e, c in y.items():
            got = x.get(tuple(map(add, e, shift)))
            if got is None or fmul(got, cb) != fmul(ca, c):
                return False
    return True


def prune_generators(module: FPModule, rows):
    rows = list(rows)
    changed = True
    while changed:
        changed = False
        for i in range(len(rows) - 1, -1, -1):
            if module.in_span(rows[:i] + rows[i + 1 :], (rows[i],)):
                rows.pop(i)
                changed = True
                break
    return tuple(rows)


def map_commutes(f: SheafMap) -> tuple:
    """Edges where the map fails to intertwine the two representations."""
    bad = []
    for (v, w) in f.source.quiver.edges:
        tgt = f.target.modules[w]
        left = [push(f.target, (v, w), r) for r in f.rows[v]]
        right = mat_mul(f.source.edge_maps[(v, w)], f.rows[w], tgt.chart.ring, tgt.gens)
        if not tgt.are_zero([vec_sub(r1, r2) for r1, r2 in zip(left, right)]):
            bad.append((v, w))
    return tuple(bad)


def map_is_well_defined(f: SheafMap) -> bool:
    """Every source relation at every vertex maps to a target relation."""
    return all(
        relations_preserved(f.source.modules[v], f.rows[v], f.target.modules[v])
        for v in f.source.quiver.vertices
    )


def is_zero_module(module: FPModule) -> bool:
    """Every unit vector is zero in the module."""
    ring = module.chart.ring
    return module.are_zero([vec_unit(ring, module.gens, pos) for pos in range(module.gens)])


def rep_is_zero(rep: SheafRep) -> bool:
    return all(is_zero_module(rep.modules[v]) for v in rep.quiver.vertices)


def report_verdict(report: QCReport, edge) -> EdgeVerdict:
    key = (frozenset(edge[0]), frozenset(edge[1]))
    for ev in report.edges:
        if ev.edge == key:
            return ev
    raise KeyError(fmt_edge(key))


def edge_verdict(rep: SheafRep, e) -> EdgeVerdict:
    v, w = e
    loc = localize_module(rep.modules[v], rep.quiver.hom(v, w))
    rows, tgt = rep.edge_maps[e], rep.modules[w]
    well = relations_preserved(loc, rows, tgt)
    return EdgeVerdict(e, well, onto(rows, tgt), injective(loc, rows, tgt))


def squares_agree(rep: SheafRep) -> tuple:
    findings = []
    points = set(range(rep.quiver.n + 1))
    for v in rep.quiver.vertices:
        for k, l in combinations(sorted(points - v), 2):
            w = v | {k, l}
            left, right = (
                [push(rep, (mid, w), r) for r in rep.edge_maps[(v, mid)]]
                for mid in (v | {k}, v | {l})
            )
            if not rep.modules[w].are_zero([vec_sub(a, b) for a, b in zip(left, right)]):
                findings.append(
                    "square at " + fmt_vertex(v) + " adding {%d,%d}: path composites disagree" % (k, l)
                )
    return tuple(findings)


def present(ambient: SheafRep, gens: dict):
    quiver = ambient.quiver
    mods = {}
    for v in quiver.vertices:
        chart = quiver.chart(v)
        rel = _chart_nonzero_rows(chart, row_relations(ambient.modules[v], gens[v]))
        mods[v] = FPModule(chart, len(gens[v]), rel)
    edge_maps = {}
    for edge in quiver.edges:
        v, w = edge
        lift = lifter(ambient.modules[w], gens[w])
        rows_vw = []
        for x in gens[v]:
            coeffs = lift.lift(push(ambient, edge, x))
            if coeffs is None:
                raise ValueError("generators not closed under edge " + fmt_edge(edge))
            rows_vw.append(tuple(coeffs[: len(gens[w])]))
        edge_maps[edge] = tuple(rows_vw)
    rep = SheafRep(quiver, mods, edge_maps, None)
    return rep, SheafMap(rep, ambient, {v: tuple(gens[v]) for v in quiver.vertices})


def verify_subrep(sub: SubRep) -> SubRepReport:
    ambient = sub.ambient
    quiver = ambient.quiver
    findings = []
    seed_ok = True
    for v in quiver.vertices:
        for x in sub.seed.get(v, ()):
            if not sub.contains(v, x):
                seed_ok = False
                findings.append("seed element at " + fmt_vertex(v) + " not in span")
    closed = True
    for edge in quiver.edges:
        v, w = edge
        for x in sub.sections[v]:
            if not sub.contains(w, push(ambient, edge, x)):
                closed = False
                findings.append(
                    "image of a generator not in span along " + fmt_edge(edge)
                )
                break
    qc = None
    if closed:
        rep, _incl = induced_rep(sub)
        qc = is_quasi_coherent(rep)
        findings.extend(qc.findings)
    ok = seed_ok and closed and qc is not None and qc.ok
    return SubRepReport(ok, seed_ok, closed, qc, tuple(findings))


def direct_sum(a: SheafRep, b: SheafRep) -> SheafRep:
    """The sum of two sheaves on one quiver, blockwise: the input of the
    closure, kernel and splitting tests that need a decomposable sheaf."""
    if a.quiver is not b.quiver:
        raise ValueError("summands live on different quivers")
    quiver = a.quiver
    mods = {}
    maps = {}
    for v in quiver.vertices:
        chart = quiver.chart(v)
        ma, mb = a.modules[v], b.modules[v]
        rel = [r + vec_zero(chart.ring, mb.gens) for r in ma.relations]
        rel += [vec_zero(chart.ring, ma.gens) + r for r in mb.relations]
        mods[v] = FPModule(chart, ma.gens + mb.gens, tuple(rel))
    for e in quiver.edges:
        chart = quiver.chart(e[1])
        ra, rb = a.edge_maps[e], b.edge_maps[e]
        wa = a.modules[e[1]].gens
        wb = b.modules[e[1]].gens
        rows = [row + vec_zero(chart.ring, wb) for row in ra]
        rows += [vec_zero(chart.ring, wa) + row for row in rb]
        maps[e] = tuple(rows)
    graded = None
    if a.graded is not None and b.graded is not None:
        xr = quiver.xring
        wa, wb = len(a.graded.degrees), len(b.graded.degrees)
        rows = [row + vec_zero(xr, wb) for row in a.graded.rows]
        rows += [vec_zero(xr, wa) + row for row in b.graded.rows]
        graded = GradedData(a.graded.degrees + b.graded.degrees, tuple(rows))
    return SheafRep(quiver, mods, maps, graded)
