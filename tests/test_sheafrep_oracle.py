"""Edge verdicts and presentations from one tracked run per (module, rows)
against the routines that ran one Groebner basis per question.

`sheafrep_oracle` keeps the old `_onto`, `_injective` and `_present` on the
oracle Buchberger of `exactpoly_oracle`.  On generated twists, sums of
twists and Euler-type quotients on P^1 and P^2, over Q and F_p, with now and
then one edge matrix spoiled so that it is no longer onto or injective,
every edge verdict must be the same.  Presentations of generator lists must
present the same modules: equal relation spans at every vertex, and edge
matrices that agree modulo the far relations, since a lift is only defined
up to a relation among the far generators.

`verify_subrep` reads closure off the presentation's lifts; the oracle keeps
its old scan, which pushed every generator and tested span membership.  On
the shipped seed fixtures, truncated closures must give the same report.
"""

import pathlib
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import sheafrep_oracle as oracle
from qsheaf.closure import SubRep, qc_closure, verify_subrep
from qsheaf.exactpoly import Field, vec_sub, vec_unit
from qsheaf.sheaffile import parse_section_file, parse_sheaf_file
from qsheaf.sheafrep import _edge_verdict, _present, build_proj_quiver, graded_sheaf

FIELDS = (Field(0), Field(2), Field(3), Field(7))
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SEEDS = sorted(FIXTURES.glob("seed_*.txt"))


@st.composite
def reps(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 2))
    quiver = build_proj_quiver(field, n)
    xr = quiver.xring
    if draw(st.booleans()):
        degrees = tuple(draw(st.integers(-2, 2)) for _ in range(draw(st.integers(1, 2))))
        rep = graded_sheaf(quiver, degrees)
    else:
        # a row of linear forms on n+1 generators of degree 0, as in the
        # Euler sequence quotient O^{n+1} / O(-1)
        row = []
        for _ in range(n + 1):
            coeffs = [draw(st.integers(-2, 2)) for _ in range(n + 1)]
            form = xr.zero()
            for i, c in enumerate(coeffs):
                form = form + xr.var(i).scale(field.of_int(c))
            row.append(form)
        rep = graded_sheaf(quiver, (0,) * (n + 1), (tuple(row),))
    spoil = draw(st.sampled_from(("none", "none", "zero-row", "scale")))
    if spoil != "none":
        edge = draw(st.sampled_from(quiver.edges))
        ring = quiver.chart(edge[1]).ring
        rows = list(rep.edge_maps[edge])
        if spoil == "zero-row":
            rows[0] = tuple(ring.zero() for _ in rows[0])
        else:
            factor = ring.var(0) + ring.one()
            rows = [tuple(x * factor for x in r) for r in rows]
        rep = rep.replaced_edge(edge, rows)
    return rep


@settings(max_examples=40, deadline=None)
@given(reps())
def test_edge_verdicts_match_oracle(rep):
    for e in rep.quiver.edges:
        assert _edge_verdict(rep, e) == oracle.edge_verdict(rep, e)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_presentations_match_oracle(data):
    rep = data.draw(reps())
    gens = {}
    for v in rep.quiver.vertices:
        module = rep.modules[v]
        ring = module.chart.ring
        units = [vec_unit(ring, module.gens, j) for j in range(module.gens)]
        # every unit vector, so that pushed generators always lift, and an
        # extra element or repeated unit, so that there are relations
        extra = []
        for _ in range(data.draw(st.integers(0, 2))):
            j = data.draw(st.integers(0, module.gens - 1))
            k = data.draw(st.integers(0, ring.nvars - 1))
            extra.append(vec_unit(ring, module.gens, j) if data.draw(st.booleans()) else tuple(
                ring.var(k) * x for x in units[j]))
        gens[v] = units + extra
    for v in rep.quiver.vertices:
        module, rows = rep.modules[v], gens[v]
        assert module.lifter(rows).kernel(len(rows)) == module.row_relations(rows)
    new_rep, new_incl = _present(rep, gens)
    old_rep, old_incl = oracle.present(rep, gens)
    assert new_incl.rows == old_incl.rows
    for v in rep.quiver.vertices:
        assert new_rep.modules[v].relation_gb() == old_rep.modules[v].relation_gb()
    for e in rep.quiver.edges:
        far = old_rep.modules[e[1]]
        assert len(new_rep.edge_maps[e]) == len(old_rep.edge_maps[e])
        for r_new, r_old in zip(new_rep.edge_maps[e], old_rep.edge_maps[e]):
            assert far.are_zero((vec_sub(r_new, r_old),))


def _truncations(sections):
    """Every choice of kept generators at every vertex, the full lists too."""
    choices = [
        [list(kept) for k in range(len(rows) + 1) for kept in combinations(rows, k)]
        for rows in sections.values()
    ]
    for picks in product(*choices):
        yield dict(zip(sections, picks))


@pytest.mark.parametrize("seed_path", SEEDS, ids=[p.stem for p in SEEDS])
def test_verify_subrep_matches_the_scanning_oracle(seed_path):
    ambient = parse_sheaf_file(str(FIXTURES / seed_path.name[len("seed_"):]))
    seed = parse_section_file(str(seed_path), ambient)
    closure = qc_closure(ambient, seed).sub.sections
    open_counts = set()
    for kept in _truncations(closure):
        # the fixture's seed stays, so dropped seeds show as findings too
        sub = SubRep(ambient, seed)
        sub.sections = kept
        report = verify_subrep(sub)
        assert report == oracle.verify_subrep(sub)
        open_counts.add(sum(f.startswith("image of a generator") for f in report.findings))
    assert {0, 1, 2} <= open_counts
