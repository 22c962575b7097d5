"""Quasi-coherent closure of prescribed sections inside an ambient sheaf.

Given finitely many elements of the vertex modules of a quasi-coherent
representation, the closure produces a sub-representation whose per-vertex
spans contain them and which is itself quasi-coherent.  The engine walks the
generating edges round-robin; along each edge every current generator of the
far module is pulled back by solving a membership problem over the localized
ring and splitting each solution coefficient into an invertible monomial
(which stays on the localized side) and a polynomial part that descends to
the near chart.  The closure is stable after a cycle that adds no generator:
every pulled-back and pushed element already lies in its span, as
SubRep.contains decides by the ambient module's lifter.  The induced
sub-representation is then re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactpoly import Poly, mat_apply, vec_sub
from .sheafrep import (  # SubRep and induced_rep are re-exported
    NotClosed,
    QCReport,
    SheafRep,
    SubRep,
    fmt_edge,
    fmt_vertex,
    induced_rep,
    is_quasi_coherent,
    push,
)


MAX_CYCLES = 12


def make_section_set(rep: SheafRep, mapping) -> dict:
    """Element lists of rep keyed by vertex, {vertex: tuple of elements},
    checked for known vertices, widths and chart rings."""
    entries = {}
    for v, vecs in mapping.items():
        key = frozenset(v)
        if key not in rep.modules:
            raise ValueError("no vertex " + fmt_vertex(key))
        mod = rep.modules[key]
        ring = rep.quiver.chart(key).ring
        fixed = []
        for vec in vecs:
            vec = tuple(vec)
            if len(vec) != mod.gens:
                raise ValueError(
                    "section at " + fmt_vertex(key) + " has wrong width"
                )
            for p in vec:
                if p.ring is not ring:
                    raise ValueError(
                        "section at " + fmt_vertex(key) + " lives in a foreign ring"
                    )
            fixed.append(vec)
        entries[key] = tuple(fixed)
    return entries


@dataclass(frozen=True)
class WitnessPart:
    """One summand of a pulled-back section: element `preimage` of the near
    module, pushed across the edge and rescaled by `unit` times the inverse
    `power` of the newly inverted coordinate product."""

    index: int
    unit: Poly
    power: int
    preimage: tuple


@dataclass(frozen=True)
class ClosureWitness:
    edge: tuple
    element: tuple
    parts: tuple


def denominator_vector(v, w, pivot: int, n: int) -> tuple:
    """Laurent exponent of the product of x_k / x_pivot over k in w - v."""
    vec = [0] * (n + 1)
    for k in sorted(frozenset(w) - frozenset(v)):
        vec[k] += 1
        vec[pivot] -= 1
    return tuple(vec)


def pullback_witness(rep: SheafRep, edge, element) -> ClosureWitness:
    """Express `element` of M(w) over the image of M(v) along the edge.

    The membership solution has coefficients in the localized chart; each
    one factors as (invertible monomial) * (descendable part), and the
    descendable part comes down to the near chart after clearing the minimal
    power of the coordinates inverted by the edge.
    """
    v, w = edge
    chart_v = rep.quiver.chart(v)
    chart_w = rep.quiver.chart(w)
    src = rep.modules[v]
    coeffs = rep.modules[w].lifter(rep.edge_maps[edge]).lift(tuple(element))
    if coeffs is None:
        raise RuntimeError(
            "ambient representation is inconsistent along edge "
            + fmt_edge(edge)
            + ": section has no preimage"
        )
    unit_cols = chart_w.unit_variable_columns()
    svec = denominator_vector(v, w, chart_v.pivot, rep.quiver.n)
    one = chart_w.field.one
    parts = []
    for i, lifted in enumerate(coeffs):
        c = chart_w.nf(lifted)
        if c.is_zero():
            continue
        content = [0] * chart_w.ring.nvars
        for col in unit_cols:
            content[col] = min(e[col] for e in c.terms)
        unit = chart_w.ring.monomial(tuple(content))
        laurent = chart_w.to_laurent(c.mul_term(tuple(-x for x in content), one))
        power = 0
        for vec in laurent.terms:
            for k in frozenset(w) - frozenset(v):
                if vec[k] < 0:
                    power = max(power, -vec[k])
        descended = chart_v.from_laurent(laurent.mul_term(tuple(power * s for s in svec), one))
        preimage = [chart_v.ring.zero()] * src.gens
        preimage[i] = descended
        parts.append(WitnessPart(i, unit, power, tuple(preimage)))
    return ClosureWitness((frozenset(v), frozenset(w)), tuple(element), tuple(parts))


def verify_witness(rep: SheafRep, witness: ClosureWitness) -> bool:
    """Check the defining identity of a pullback witness exactly."""
    v, w = witness.edge
    chart_v = rep.quiver.chart(v)
    chart_w = rep.quiver.chart(w)
    tgt = rep.modules[w]
    svec = denominator_vector(v, w, chart_v.pivot, rep.quiver.n)
    scales, pushed = [], []
    for part in witness.parts:
        pushed.append(push(rep, witness.edge, part.preimage))
        inv = Poly(chart_w.xring, {tuple(-part.power * s for s in svec): chart_w.field.one})
        scales.append(chart_w.nf(part.unit * chart_w.from_laurent(inv)))
    total = mat_apply(scales, pushed, chart_w.ring, tgt.gens)
    return tgt.are_zero((vec_sub(witness.element, total),))


@dataclass(frozen=True)
class ClosureResult:
    sub: SubRep
    witnesses: tuple
    cycles: int
    trace: tuple
    report: Optional[SubRepReport]

    @property
    def stabilized(self) -> bool:
        return self.report is not None


def qc_closure(
    ambient: SheafRep,
    seed: dict,
    max_cycles: int = MAX_CYCLES,
) -> ClosureResult:
    """Round-robin closure over the generating edges with a cycle budget.

    Each cycle pulls back every not-yet-processed generator along every edge
    and pushes every generator forward along every edge (in ascending vertex
    order, so one sweep propagates fully).  Every pullback witness that grew
    the sub-representation is re-checked by verify_witness before it is
    kept; one that fails raises RuntimeError.  A cycle that adds nothing means
    the spans are stable; the result is then re-verified by verify_subrep,
    whose report it carries, before it is returned as stabilized.
    """
    if max_cycles <= 0:
        raise ValueError("max_cycles must be positive")
    if not is_quasi_coherent(ambient).ok:
        raise ValueError("ambient representation is not quasi-coherent")
    quiver = ambient.quiver
    sub = SubRep(ambient, seed)
    pulled = {e: 0 for e in quiver.edges}
    pushed = {e: 0 for e in quiver.edges}
    witnesses = []
    trace = []
    report = None
    cycles = 0
    for _cycle in range(max_cycles):
        cycles += 1
        added = {}
        for edge in quiver.edges:
            v, w = edge
            # pull back the far generators not seen by this edge yet
            while pulled[edge] < len(sub.sections[w]):
                t = sub.sections[w][pulled[edge]]
                pulled[edge] += 1
                wit = pullback_witness(ambient, edge, t)
                grew = False
                for part in wit.parts:
                    if sub.add(v, part.preimage):
                        grew = True
                        added[v] = added.get(v, 0) + 1
                if grew:
                    if not verify_witness(ambient, wit):
                        raise RuntimeError(
                            "pullback witness along edge " + fmt_edge(edge) + " does not verify"
                        )
                    witnesses.append(wit)
            # push every unpushed generator along every edge, in order
            for e2 in quiver.edges:
                v2, w2 = e2
                while pushed[e2] < len(sub.sections[v2]):
                    x = sub.sections[v2][pushed[e2]]
                    pushed[e2] += 1
                    if sub.add(w2, push(ambient, e2, x)):
                        added[w2] = added.get(w2, 0) + 1
        trace.append(
            tuple(sorted((fmt_vertex(v), k) for v, k in added.items()))
        )
        if not added:
            report = verify_subrep(sub)
            if not report.ok:
                raise RuntimeError(
                    "stable spans failed coherence verification: "
                    + "; ".join(report.findings)
                )
            break
    return ClosureResult(sub, tuple(witnesses), cycles, tuple(trace), report)


@dataclass(frozen=True)
class SubRepReport:
    ok: bool
    seed_contained: bool
    edges_closed: bool
    qc: Optional[QCReport]
    findings: tuple


def verify_subrep(sub: SubRep) -> SubRepReport:
    """Re-check a sub-representation from scratch: seed containment, closure
    under the ambient edge maps, and coherence of the induced presentation.
    Closure is read off the presentation: a pushed generator lifts over the
    far generators exactly when it lies in their span."""
    findings = []
    seed_ok = True
    for v in sub.ambient.quiver.vertices:
        for x in sub.seed.get(v, ()):
            if not sub.contains(v, x):
                seed_ok = False
                findings.append("seed element at " + fmt_vertex(v) + " not in span")
    qc = None
    try:
        rep, _incl = induced_rep(sub)
    except NotClosed as err:
        findings.extend(
            "image of a generator not in span along " + fmt_edge(edge) for edge in err.edges
        )
    else:
        qc = is_quasi_coherent(rep)
        findings.extend(qc.findings)
    closed = qc is not None
    ok = seed_ok and closed and qc.ok
    return SubRepReport(ok, seed_ok, closed, qc, tuple(findings))
