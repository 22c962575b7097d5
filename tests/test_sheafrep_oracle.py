"""Edge verdicts and presentations from one tracked run per (module, rows)
against the routines that ran one Groebner basis per question.

`sheafrep_oracle` keeps the old `_onto`, `_injective` and `_present` on the
oracle Buchberger of `exactpoly_oracle`.  On generated twists, sums of
twists and Euler-type quotients on P^1 to P^3 and on subschemes, over Q and
F_p, with now and then one edge matrix or one vertex module spoiled, every
edge verdict must be the same.  Graded edge maps are diagonals of unit
monomials, which `FPModule.certificate` inverts by inspection (its
unit-diagonal lemma); a spoil either keeps that shape (a row scaled by a
constant or a unit), so the fast path runs with an inverse other than the
identity, or breaks it (a zero, two-term, non-unit or off-diagonal entry),
and the test pins which edges take the fast path: every unit diagonal, into
a chart that is the zero ring too, where the inverse times the entry is
still 1, which is 0 there.

Two further lemmas decide graded inputs with no Groebner run.  An edge
whose matrix A is a diagonal of unit monomials is an isomorphism when the
near relation rows times A are the far rows up to a constant and a unit
monomial, read as Laurent terms (`_edge_by_terms`); a square whose four
matrices are diagonals of single terms agrees when both composites have
the same terms (`_square_by_terms`).  Spoils of one relation entry at one
vertex (times a non-unit, or plus a term) keep every edge matrix a unit
diagonal but break the match, and the edge spoils above break squares;
every edge verdict and every square finding must still be the oracle's.
The tests pin which edges and squares take the term path: every edge and
square of an unspoiled graded representation, edges into a chart that is
the zero ring included.  The `check-qc` and `is-bundle` bodies of every
golden fixture are the same with both lemmas turned off.

The term path matches relation rows by their `_row_key` canonical forms;
the oracle keeps the pairwise match it replaced (`term_multiple`).  On
random Laurent rows over Q, F_5 and F_7, zero entries among them, and on
multiples c*m*a with c a constant (not only +-1) and m a unit or a
non-unit monomial, now and then with one coefficient spoiled, two rows
must have equal keys exactly when the oracle matches them.  A row times
one term c*m repeated, m zero outside, keeps its key, so the term path
keys the near rows in place of their images; with m nonzero outside or
one entry changed, keys are equal exactly when the oracle matches.  On the
Euler quotient on P^2 over Q, F_5 and F_7, no edge keys an image row; an
edge with one diagonal entry times 3 keys its images, one times a
non-unit leaves the term path, and a presentation with generators of
degrees 0 and 1 keys images across every pivot change, each verdict the
oracle's.  A `check-qc`
input whose relation row at one vertex is 3 times a unit monomial times
the unspoiled one is decided by the term path, with no coordinate change
(`ChartHom.apply`); with only one entry of that row times 3, the general
path gives the oracle's verdicts.  `kernel` prunes its generators in one
pass; on random generator lists with repeated and combined rows it keeps
what the oracle's restart loop keeps.

The unit-diagonal lemma decides `map_is_iso` and gives `kernel`'s generic
path its generators.  On the Serre covers of shipped fixtures, at every vertex
(zero-ring charts included), and on spoiled copies of one vertex's matrix,
the lemma's kernel rows, the relations among the rows from a tracked run
and the oracle's span the same submodule, and `_onto` and `_injective`
agree with the tracked path and with the oracle.  The `vdim-witness`, `lazard`
and `serre-cover` bodies are the same with the lemma turned off in the
certificate finder and in the edge term path.  The lemma decides
`map_is_surjective` where the rows are a square diagonal of unit terms, in
any ring: on the Serre covers of generated representations, zero-ring
charts included, with one vertex's matrix spoiled now and then (kept a
unit diagonal or not), it must agree with the oracle's span run at every
vertex.

Presentations of generator lists must present the same modules: equal
relation spans at every vertex, and edge matrices that agree modulo the far
relations, since a lift is only defined up to a relation among the far
generators.  The relations among generator lists read off their lifter are
the tracked run's list, and span what it spans where the list is a unit
diagonal, whose lifter reads them off the lemma.

`verify_subrep` reads closure off the presentation's lifts; the oracle keeps
its old scan, which pushed every generator and tested span membership.  On
the shipped seed fixtures, truncated closures must give the same report.
"""

import pathlib
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import sheafrep_oracle as oracle
from charts_oracle import unit_diagonal
from qsheaf import charts, sheafrep
from qsheaf.bundles import serre_cover
from qsheaf.charts import FPModule, x_ring
from qsheaf.cli import EXIT_CHECK_FAILED, EXIT_OK, JobSpec, run
from qsheaf.closure import SubRep, qc_closure, verify_subrep
from qsheaf.exactpoly import Field, Poly, vec_sub, vec_unit
from qsheaf.sheaffile import parse_section_file, parse_sheaf_file, sheafrep_text
from qsheaf.sheafrep import (
    SheafRep,
    _diagonal,
    _edge_by_terms,
    _edge_verdict,
    _square_by_terms,
    _squares_agree,
    _injective,
    _onto,
    _present,
    _row_key,
    build_proj_quiver,
    graded_sheaf,
    make_sheaf_map,
    map_is_surjective,
)

FIELDS = (Field(0), Field(2), Field(3), Field(7))
ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SEEDS = sorted(FIXTURES.glob("seed_*.txt"))


def _linear_form(draw, xr):
    form = xr.zero()
    for i in range(xr.nvars):
        form = form + xr.var(i).scale(xr.field.of_int(draw(st.integers(-2, 2))))
    return form


def _ideal(draw, field, n):
    """No subscheme, a monomial one (its charts that invert every factor are
    the zero ring) or a hyperplane."""
    kind = draw(st.sampled_from(("none", "none", "monomial", "linear")))
    xr = build_proj_quiver(field, n).xring
    if kind == "monomial":
        gen = xr.one()
        for i in draw(st.lists(st.integers(0, n), min_size=1, max_size=2, unique=True)):
            gen = gen * xr.var(i)
        return (gen,)
    if kind == "linear":
        return (_linear_form(draw, xr),)
    return ()


# spoils of one edge map that keep it a diagonal of unit monomials, so
# that it takes the fast path with an inverse other than the identity
KEPT = ("constant", "unit")
# spoils it must refuse: a zero diagonal entry, a two-term entry, a
# non-unit z_j, an off-diagonal entry
REFUSED = ("zero-row", "two-term", "non-unit", "off-diagonal")


def _constants(field) -> list:
    return [c for c in (-1, 2, 3) if field.of_int(c) not in (0, 1)]


def _spoil_edge(draw, rep, spoil):
    quiver = rep.quiver
    edges = quiver.edges
    if spoil == "constant" and not _constants(quiver.field):
        spoil = "unit"
    if spoil == "non-unit":
        edges = [e for e in edges if len(e[1]) <= quiver.n]
    if not edges or (spoil == "off-diagonal" and rep.modules[edges[0][0]].gens < 2):
        spoil = "two-term"
        edges = quiver.edges
    edge = draw(st.sampled_from(edges))
    return rep.replaced_edge(edge, _spoil_rows(draw, quiver, edge[1], rep.edge_maps[edge], spoil))


def _spoil_rows(draw, quiver, w, rows, spoil):
    """One KEPT or REFUSED spoil of a square diagonal matrix of unit
    monomials over the chart at w."""
    chart = quiver.chart(w)
    ring = chart.ring
    rows = [list(r) for r in rows]
    j = draw(st.integers(0, len(rows) - 1))
    if spoil == "zero-row":
        rows[j] = [ring.zero()] * len(rows[j])
    elif spoil == "two-term":
        rows = [[x * (ring.var(0) + ring.one()) for x in r] for r in rows]
    elif spoil == "non-unit":
        k = draw(st.sampled_from(sorted(set(range(quiver.n + 1)) - w)))
        rows[j] = [x * chart.z(k) for x in rows[j]]
    elif spoil == "off-diagonal":
        rows[j][(j + 1) % len(rows)] = ring.one()
    elif spoil == "constant":
        c = quiver.field.of_int(draw(st.sampled_from(_constants(quiver.field))))
        rows[j] = [x.scale(c) for x in rows[j]]
    else:
        unit = ring.var(draw(st.sampled_from(chart.unit_variable_columns())))
        rows[j] = [x * unit for x in rows[j]]
    return rows


def _spoil_module(draw, rep):
    """Kill generator 0 at one vertex: edges into it stay unit diagonals
    but are no longer injective, unless the near module kills it too."""
    v = draw(st.sampled_from(rep.quiver.vertices))
    old = rep.modules[v]
    ring = old.chart.ring
    modules = dict(rep.modules)
    modules[v] = FPModule(old.chart, old.gens, old.relations + (vec_unit(ring, old.gens, 0),))
    return SheafRep(rep.quiver, modules, rep.edge_maps, None)


# spoils of one relation entry at one vertex: times a non-unit z_k, or
# plus a term; every edge matrix stays a diagonal of unit monomials
RELATION = ("relation-non-unit", "relation-term")


def _spoil_relation(draw, rep, spoil):
    """Spoil one entry of one relation row at one vertex, or the whole row
    times a non-unit, which is then a monomial multiple of the unspoiled
    rows; a representation without relations gets the module spoil
    instead."""
    n = rep.quiver.n
    vertices = [v for v in rep.quiver.vertices if rep.modules[v].relations]
    if spoil == "relation-non-unit":
        vertices = [v for v in vertices if len(v) <= n]
    if not vertices:
        return _spoil_module(draw, rep)
    v = draw(st.sampled_from(vertices))
    old = rep.modules[v]
    ring = old.chart.ring
    rows = [list(r) for r in old.relations]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, old.gens - 1))
    if spoil == "relation-non-unit":
        z = old.chart.z(draw(st.sampled_from(sorted(set(range(n + 1)) - v))))
        for k in range(old.gens) if draw(st.booleans()) else (j,):
            rows[i][k] = rows[i][k] * z
    else:
        rows[i][j] = rows[i][j] + ring.var(draw(st.integers(0, ring.nvars - 1)))
    modules = dict(rep.modules)
    modules[v] = FPModule(old.chart, old.gens, rows)
    return SheafRep(rep.quiver, modules, rep.edge_maps, None)


@st.composite
def graded_reps(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    quiver = build_proj_quiver(field, n, _ideal(draw, field, n))
    if n == 3 or draw(st.booleans()):
        degrees = tuple(draw(st.integers(-2, 2)) for _ in range(draw(st.integers(1, 2))))
        return graded_sheaf(quiver, degrees)
    # a row of linear forms on n+1 generators of degree 0, as in the
    # Euler sequence quotient O^{n+1} / O(-1)
    row = tuple(_linear_form(draw, quiver.xring) for _ in range(n + 1))
    return graded_sheaf(quiver, (0,) * (n + 1), (row,))


@st.composite
def reps(draw):
    rep = draw(graded_reps())
    spoil = draw(st.sampled_from(("none", "none", "module") + KEPT + REFUSED + RELATION))
    if spoil == "module":
        return _spoil_module(draw, rep)
    if spoil in RELATION:
        return _spoil_relation(draw, rep, spoil)
    if spoil != "none":
        return _spoil_edge(draw, rep, spoil)
    return rep


def _unit_diagonal(rep, e) -> bool:
    """The edge matrix is square and diagonal, each diagonal entry one term
    in the unit variables of the far chart."""
    rows, tgt = rep.edge_maps[e], rep.modules[e[1]]
    units = set(tgt.chart.unit_variable_columns())
    if len(rows) != tgt.gens:
        return False
    for j, row in enumerate(rows):
        if any(not p.is_zero() for k, p in enumerate(row) if k != j) or len(row[j].terms) != 1:
            return False
        ((exp, _c),) = row[j].terms.items()
        if any(d and col not in units for col, d in enumerate(exp)):
            return False
    return True


def _lemma(rows, tgt):
    """The certificate of the rows in tgt when charts reads a unit diagonal
    off them, which is then of that shape, or None."""
    rows, chart = tuple(map(tuple, rows)), tgt.chart
    if not charts._has_unit_diagonal(chart, charts._diagonal_terms(chart, rows), tgt.gens):
        return None
    cert = tgt.certificate(rows)
    assert unit_diagonal(cert)
    return cert


def _without_the_lemma(monkeypatch):
    """Turn the unit-diagonal lemma off in the certificate finder and in
    the edge term path, which share its predicate."""
    for module in (charts, sheafrep):
        monkeypatch.setattr(module, "_has_unit_diagonal", lambda chart, diagonal, gens: False)


def _squares(quiver):
    """The two paths, each a pair of edges, around every square."""
    for v in quiver.vertices:
        for k, l in combinations(sorted(set(range(quiver.n + 1)) - v), 2):
            w = v | {k, l}
            yield tuple(((v, mid), (mid, w)) for mid in (v | {k}, v | {l}))


def _by_terms(rep, paths) -> bool:
    """_square_by_terms on the diagonals of the two paths of a square."""
    return _square_by_terms(rep.quiver.field.mul, [_diagonal(rep, e) for path in paths for e in path])


@settings(max_examples=60, deadline=None)
@given(reps())
def test_edge_verdicts_match_oracle(rep):
    for e in rep.quiver.edges:
        inverse = _lemma(rep.edge_maps[e], rep.modules[e[1]])
        assert (inverse is not None) == _unit_diagonal(rep, e)
        if inverse is not None:
            # the source reads the inverse off the exponents; the products
            # are checked here, in the chart, where 1 may be 0
            chart = rep.modules[e[1]].chart
            one = chart.nf(chart.ring.one())
            for j, (row, b) in enumerate(zip(rep.edge_maps[e], inverse.matrix)):
                assert chart.nf(row[j] * chart.from_laurent(b[j])) == one
        # the term path takes only matrices the lemma of _injective
        # and _onto inverts
        assert not _edge_by_terms(rep, e) or inverse is not None
        assert _edge_verdict(rep, e) == oracle.edge_verdict(rep, e)
    assert _squares_agree(rep) == oracle.squares_agree(rep)


@settings(max_examples=40, deadline=None)
@given(graded_reps())
def test_unspoiled_graded_reps_take_the_term_path(rep):
    for e in rep.quiver.edges:
        assert _edge_by_terms(rep, e)
    assert all(_by_terms(rep, paths) for paths in _squares(rep.quiver))


def _pinned_cases():
    """(name, rep, edge, fast, by_terms): one case of each kind the
    strategy draws at random, so that every run sees a non-trivial
    inverse, a fast edge that is not injective, each refusal, and unit
    diagonals whose relations do not match as Laurent terms.  fast is the
    lemma of _injective and _onto, by_terms the term path of _edge_verdict."""
    q = build_proj_quiver(Field(0), 2)
    xr = q.xring
    euler = graded_sheaf(q, (0, 0, 0), (tuple(xr.var(i) for i in range(3)),))
    edge = (frozenset({0}), frozenset({0, 1}))
    chart = q.chart(edge[1])
    rows = [list(r) for r in euler.edge_maps[edge]]

    def spoiled(i, j, entry):
        new = [list(r) for r in rows]
        new[i][j] = entry
        return euler.replaced_edge(edge, new)

    def relation_spoiled(v, j, entry):
        """The Euler row at v with entry j (every entry for None) replaced."""
        old = euler.modules[v]
        row = list(old.relations[0])
        for k in range(len(row)) if j is None else (j,):
            row[k] = entry(row[k], old.chart)
        modules = dict(euler.modules)
        modules[v] = FPModule(old.chart, old.gens, (tuple(row),))
        return SheafRep(q, modules, euler.edge_maps, None)

    three = chart.ring.constant(Field(0).of_int(3))
    twist3 = graded_sheaf(build_proj_quiver(Field(3), 3), (2,))
    edge3 = (frozenset({1, 2}), frozenset({1, 2, 3}))
    chart3 = twist3.quiver.chart(edge3[1])
    unit = chart3.u(3) * chart3.u(2)
    by_unit = twist3.replaced_edge(edge3, [[e * unit for e in r] for r in twist3.edge_maps[edge3]])
    killed = dict(euler.modules)
    killed[edge[1]] = FPModule(chart, 3, euler.modules[edge[1]].relations + (vec_unit(chart.ring, 3, 1),))
    x1 = build_proj_quiver(Field(0), 1).xring
    p1 = build_proj_quiver(Field(0), 1, (x1.var(0) * x1.var(1),))  # the chart {0,1} is the zero ring
    near, far = edge
    return [
        ("unspoiled", euler, edge, True, True),
        ("scaled-by-constant", spoiled(0, 0, three), edge, True, False),
        # no relations on either end: nothing to match
        ("scaled-by-unit", by_unit, edge3, True, True),
        ("not-injective", SheafRep(q, killed, euler.edge_maps, None), edge, True, False),
        # z2 is not a unit of {0,1}, at either end
        ("relation-times-non-unit", relation_spoiled(near, 1, lambda p, c: p * c.z(2)), edge, True, False),
        ("far-relation-times-non-unit", relation_spoiled(far, 1, lambda p, c: p * c.z(2)), edge, True, False),
        ("relation-plus-term", relation_spoiled(far, 2, lambda p, c: p + c.ring.one()), edge, True, False),
        # the whole row times the unit u1 of {0,1}: it still matches; times
        # z2, it is a monomial multiple that is no unit
        ("row-times-unit", relation_spoiled(far, None, lambda p, c: p * c.u(1)), edge, True, True),
        ("row-times-non-unit", relation_spoiled(far, None, lambda p, c: p * c.z(2)), edge, True, False),
        # the lemma holds in the zero ring too
        ("zero-ring", graded_sheaf(p1, (1,)), (frozenset({0}), frozenset({0, 1})), True, True),
        ("non-unit", spoiled(2, 2, chart.z(2)), edge, False, False),
        ("two-term", spoiled(1, 1, chart.z(1) + three), edge, False, False),
        ("off-diagonal", spoiled(0, 2, chart.z(1)), edge, False, False),
        ("zero-entry", spoiled(1, 1, chart.ring.zero()), edge, False, False),
    ]


PINNED = _pinned_cases()


@pytest.mark.parametrize("name,rep,edge,fast,by_terms", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_edges_take_the_expected_path(name, rep, edge, fast, by_terms):
    inverse = _lemma(rep.edge_maps[edge], rep.modules[edge[1]])
    assert (inverse is not None) == fast == _unit_diagonal(rep, edge)
    assert _edge_by_terms(rep, edge) == by_terms
    verdict = _edge_verdict(rep, edge)
    assert verdict == oracle.edge_verdict(rep, edge)
    if name == "not-injective":
        assert verdict.surjective and not verdict.injective
    if name in ("scaled-by-constant", "relation-times-non-unit", "relation-plus-term", "row-times-non-unit"):
        assert not verdict.ok


KEY_FIELDS = (Field(0), Field(5), Field(7))


def _coefficient(draw, field):
    """A nonzero field value: over Q a fraction, not only +-1."""
    return field.of_fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))


def _as_polys(row, field):
    """A nonzero row of Laurent dicts as the Laurent Polys _row_key reads,
    in the x ring of the exponents' length."""
    ring = x_ring(field, len(next(e for entry in row for e in entry)) - 1)
    return tuple(Poly(ring, dict(entry)) for entry in row)


def _laurent_row(draw, field, n, width):
    """A nonzero row of Laurent dicts, some of its entries zero."""
    exps = st.tuples(*[st.integers(-2, 2)] * (n + 1))
    while True:
        row = tuple(
            {} if draw(st.booleans()) else {
                e: _coefficient(draw, field) for e in draw(st.lists(exps, min_size=1, max_size=3))
            }
            for _ in range(width)
        )
        if any(row):
            return row


@st.composite
def row_pairs(draw):
    """(field, outside, a, b): b is a random row, or c*m*a with m zero
    outside (a unit of the far chart) or not, or such a multiple with one
    coefficient spoiled."""
    field = draw(st.sampled_from(KEY_FIELDS))
    n = draw(st.integers(1, 3))
    width = draw(st.integers(1, 3))
    outside = sorted(draw(st.sets(st.integers(0, n), max_size=n)))
    a = _laurent_row(draw, field, n, width)
    kind = draw(st.sampled_from(("random", "unit", "unit", "non-unit", "spoiled")))
    if kind == "random":
        return field, outside, a, _laurent_row(draw, field, n, width)
    c = _coefficient(draw, field)
    shift = [draw(st.integers(-2, 2)) for _ in range(n + 1)]
    if kind != "non-unit":
        for i in outside:
            shift[i] = 0
    b = [
        {tuple(x + s for x, s in zip(exp, shift)): field.mul(c, coeff) for exp, coeff in entry.items()}
        for entry in a
    ]
    if kind == "spoiled":
        j = draw(st.sampled_from([j for j, entry in enumerate(b) if entry]))
        e = draw(st.sampled_from(sorted(b[j])))
        old = b[j][e]
        b[j][e] = field.add(old, field.one) or field.add(old, field.of_int(2))
    return field, outside, a, tuple(b)


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_row_keys_match_the_pairwise_oracle(case):
    field, outside, a, b = case
    same = _row_key(_as_polys(a, field), field, outside) == _row_key(_as_polys(b, field), field, outside)
    assert same == oracle.term_multiple(a, b, field.mul, outside)


@st.composite
def diagonal_images(draw):
    """(field, outside, r, diagonal): a nonzero Laurent row r and one
    (exponent, coefficient) term per entry, c*m repeated with m zero
    outside, or spoiled: m nonzero at an outside index, or one entry
    changed."""
    field = draw(st.sampled_from(KEY_FIELDS))
    n = draw(st.integers(1, 3))
    width = draw(st.integers(1, 3))
    outside = sorted(draw(st.sets(st.integers(0, n), max_size=n)))
    r = _laurent_row(draw, field, n, width)
    m = [0 if i in outside else draw(st.integers(-2, 2)) for i in range(n + 1)]
    diagonal = [(tuple(m), _coefficient(draw, field))] * width
    kind = draw(st.sampled_from(("uniform", "uniform", "outside", "changed")))
    if kind == "outside" and outside:
        m[draw(st.sampled_from(outside))] = draw(st.sampled_from((-1, 1)))
        diagonal = [(tuple(m), diagonal[0][1])] * width
    elif kind == "changed":
        m[draw(st.integers(0, n))] += draw(st.sampled_from((-1, 0, 1)))
        diagonal[draw(st.integers(0, width - 1))] = (tuple(m), _coefficient(draw, field))
    return field, outside, r, tuple(diagonal)


@settings(max_examples=300, deadline=None)
@given(diagonal_images())
def test_a_row_times_one_repeated_unit_term_keeps_its_key(case):
    # _edge_by_terms keys the near row r in place of its image r*D when D
    # is one term c*m repeated, m zero outside the far vertex
    field, outside, r, diagonal = case
    image = tuple(
        {tuple(x + y for x, y in zip(e, d)): field.mul(c, dc) for e, c in entry.items()}
        for entry, (d, dc) in zip(r, diagonal)
    )
    same = _row_key(_as_polys(image, field), field, outside) == _row_key(_as_polys(r, field), field, outside)
    assert same == oracle.term_multiple(image, r, field.mul, outside)
    if len(set(diagonal)) == 1 and not any(diagonal[0][0][i] for i in outside):
        assert same


def _edge_paths(monkeypatch, rep) -> dict:
    """{edge: (_edge_by_terms, whether it keyed an image row)}."""
    keyed = []
    real = sheafrep._row_key

    def counting(row, field, outside):
        keyed.append(row)
        return real(row, field, outside)

    monkeypatch.setattr(sheafrep, "_row_key", counting)
    paths = {}
    for e in rep.quiver.edges:
        keyed.clear()
        paths[e] = (_edge_by_terms(rep, e), bool(keyed))
    monkeypatch.setattr(sheafrep, "_row_key", real)
    return paths


EDGE_SPOILS = ("none", "changed-entry", "m-outside", "mixed-degrees")


@pytest.mark.parametrize("field", KEY_FIELDS, ids=("Q", "F5", "F7"))
@pytest.mark.parametrize("spoil", EDGE_SPOILS)
def test_only_one_repeated_unit_term_skips_the_image_rows(monkeypatch, field, spoil):
    # the Euler quotient on P^2, every diagonal the term 1 repeated; one
    # edge with its first diagonal entry times 3, or its matrix times z2,
    # which is no unit of the far chart {0,1}; and a presentation with
    # generators of degrees 0 and 1, whose diagonals across a pivot change
    # are 1 and x_q/x_p
    q = build_proj_quiver(field, 2)
    xr = q.xring
    x0, x1, x2 = (xr.var(i) for i in range(3))
    if spoil == "mixed-degrees":
        rep = graded_sheaf(q, (0, 1), ((x0 * x0 + x1 * x2, x1),))
    else:
        rep = graded_sheaf(q, (0, 0, 0), ((x0, x1, x2),))
    edge = (frozenset({1}), frozenset({0, 1}))
    rows = [list(r) for r in rep.edge_maps[edge]]
    if spoil == "changed-entry":
        rows[0][0] = rows[0][0].scale(field.of_int(3))
        rep = rep.replaced_edge(edge, rows)
    elif spoil == "m-outside":
        rep = rep.replaced_edge(edge, [[x * q.chart(edge[1]).z(2) for x in r] for r in rows])
    paths = _edge_paths(monkeypatch, rep)
    for e, (by_terms, imaged) in paths.items():
        pivot_change = min(e[0]) != min(e[1])
        spoiled = e == edge and spoil in ("changed-entry", "m-outside")
        assert imaged == ((spoil == "mixed-degrees" and pivot_change) or (e == edge and spoil == "changed-entry"))
        assert by_terms == (not spoiled)
        assert _edge_verdict(rep, e) == oracle.edge_verdict(rep, e)


def _scaled_euler(spoiled: bool) -> SheafRep:
    """The Euler quotient on P^2 over Q with its relation row at {0,1}
    times 3*u1, a unit of that chart, or (spoiled) only its first entry
    times 3."""
    q = build_proj_quiver(Field(0), 2)
    xr = q.xring
    euler = graded_sheaf(q, (0, 0, 0), (tuple(xr.var(i) for i in range(3)),))
    v = frozenset({0, 1})
    old = euler.modules[v]
    three = old.chart.ring.constant(Field(0).of_int(3))
    (row,) = old.relations
    if spoiled:
        row = (row[0] * three,) + tuple(row[1:])
    else:
        row = tuple(x * three * old.chart.u(1) for x in row)
    modules = dict(euler.modules)
    modules[v] = FPModule(old.chart, 3, (row,))
    return SheafRep(q, modules, euler.edge_maps, None)


@pytest.mark.parametrize("spoiled", (False, True), ids=("scaled-row", "spoiled-entry"))
def test_a_row_times_a_constant_takes_the_term_path(monkeypatch, tmp_path, spoiled):
    path = tmp_path / "scaled.txt"
    path.write_text(sheafrep_text(_scaled_euler(spoiled)))
    rep = parse_sheaf_file(str(path))
    touched = {e for e in rep.quiver.edges if frozenset({0, 1}) in e}
    for e in rep.quiver.edges:
        assert _edge_by_terms(rep, e) == (not spoiled or e not in touched)
    applied = []
    real_apply = charts.ChartHom.apply

    def watched_apply(self, p):
        applied.append(p)
        return real_apply(self, p)

    monkeypatch.setattr(charts.ChartHom, "apply", watched_apply)
    report = run(JobSpec(command="check-qc", inputs=(str(path),), machine=True))
    if not spoiled:
        assert report.exit_status == EXIT_OK
        assert applied == []
        return
    assert report.exit_status == EXIT_CHECK_FAILED
    assert applied
    verdicts = sheafrep.is_quasi_coherent(rep).edges
    assert verdicts == tuple(oracle.edge_verdict(rep, e) for e in rep.quiver.edges)
    assert {ev.edge for ev in verdicts if not ev.ok} <= touched


def _generator_lists(draw):
    """(module, rows): a module on a chart of P^1 or P^2, with a relation
    now and then, and generators some of which repeat, scale or add up
    earlier ones."""
    field = draw(st.sampled_from(FIELDS))
    quiver = build_proj_quiver(field, draw(st.integers(1, 2)))
    chart = quiver.chart(draw(st.sampled_from(quiver.vertices)))
    ring = chart.ring
    gens = draw(st.integers(1, 2))

    def element():
        j = draw(st.integers(0, gens - 1))
        k = draw(st.integers(-1, ring.nvars - 1))
        return tuple(p if k < 0 else p * ring.var(k) for p in vec_unit(ring, gens, j))

    relations = (element(),) if draw(st.booleans()) else ()
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("new", "new", "repeat", "sum")))
        if kind == "new" or not rows:
            rows.append(element())
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(p + q for p, q in zip(x, y)))
    return FPModule(chart, gens, relations), [r for r in rows if any(not p.is_zero() for p in r)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_pass_pruning_matches_the_restart_loop(data):
    module, rows = _generator_lists(data.draw)
    assert sheafrep._prune_generators(module, rows) == oracle.prune_generators(module, rows)


def test_pruning_drops_repeated_and_multiple_rows():
    chart = build_proj_quiver(Field(0), 1).chart(frozenset({0}))
    module = FPModule(chart, 2)
    e0, e1 = (vec_unit(chart.ring, 2, j) for j in range(2))
    z = tuple(p * chart.ring.var(0) for p in e0)
    rows = [e0, e1, z, e0]
    assert sheafrep._prune_generators(module, rows) == oracle.prune_generators(module, rows) == (e0, e1)


def _pinned_squares():
    """(name, rep, paths, by_terms, agrees): the square at {0} adding
    {1,2} on P^2, each path a pair of edges, with its first edge spoiled
    in turn.  On V(x0*x1) the charts {0,1} and {0,1,2} are the zero ring,
    so a square whose terms differ still agrees there."""
    ideal = build_proj_quiver(Field(0), 2).xring
    cases = []
    for name, gens in (("", ()), ("subscheme-", (ideal.var(0) * ideal.var(1),))):
        q = build_proj_quiver(Field(0), 2, gens)
        xr = q.xring
        euler = graded_sheaf(q, (0, 0, 0), (tuple(xr.var(i) for i in range(3)),))
        v, w = frozenset({0}), frozenset({0, 1, 2})
        paths = tuple(((v, mid), (mid, w)) for mid in (frozenset({0, 1}), frozenset({0, 2})))
        first = paths[0][0]
        chart = q.chart(first[1])

        def spoiled(j, entry):
            rows = [list(r) for r in euler.edge_maps[first]]
            rows[j][j] = entry(rows[j][j])
            return euler.replaced_edge(first, rows)

        zero_ring = bool(gens)
        cases += [
            (name + "unspoiled", euler, paths, True, True),
            (name + "scaled-by-constant", spoiled(0, lambda p: p.scale(3)), paths, False, zero_ring),
            (name + "scaled-by-unit", spoiled(1, lambda p: p * chart.u(1)), paths, False, zero_ring),
            (name + "non-unit", spoiled(2, lambda p: p * chart.z(2)), paths, False, zero_ring),
            (name + "two-term", spoiled(2, lambda p: p + chart.z(2)), paths, False, zero_ring),
        ]
    return cases


SQUARES = _pinned_squares()


@pytest.mark.parametrize("name,rep,paths,by_terms,agrees", SQUARES, ids=[c[0] for c in SQUARES])
def test_pinned_squares_take_the_expected_path(name, rep, paths, by_terms, agrees):
    assert _by_terms(rep, paths) == by_terms
    findings = _squares_agree(rep)
    assert findings == oracle.squares_agree(rep)
    assert (findings == ()) == agrees


GOLDEN_QC = sorted(
    (command, path.name[len(command) + 2 : -len(".json")])
    for command in ("check-qc", "is-bundle")
    for path in (ROOT / "tests" / "golden").glob(command + "__*.json")
)


@pytest.mark.parametrize("command,stem", GOLDEN_QC, ids=["%s__%s" % c for c in GOLDEN_QC])
def test_golden_bodies_are_the_same_without_the_term_lemmas(monkeypatch, command, stem):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sheafrep, "_edge_by_terms", lambda terms, e: False)
    monkeypatch.setattr(sheafrep, "_square_by_terms", lambda *a: False)
    job = JobSpec(command=command, inputs=("fixtures/%s.txt" % stem,), machine=True)
    want = (ROOT / "tests" / "golden" / ("%s__%s.json" % (command, stem))).read_text(encoding="utf-8")
    # a skeleton keeps its squares' verdict by terms: start from an empty
    # table, so that the job asks the stub, and keep no verdict of it
    sheafrep._skeleton.cache_clear()
    try:
        assert run(job).machine_text() == want
    finally:
        sheafrep._skeleton.cache_clear()


COVERED = ("euler_q_p2.txt", "euler_q_p3.txt", "twist_p1_k2.txt", "twist_p2_k-1.txt", "subscheme_p1.txt")


def _cover_cases():
    """(name, src, rows, tgt, fast): the matrix of a Serre cover at every
    vertex of the covered fixtures, and one vertex's matrix spoiled."""
    cases = []
    for fixture in COVERED:
        cover = serre_cover(parse_sheaf_file(str(FIXTURES / fixture)))
        for v in cover.source.quiver.vertices:
            src, tgt = cover.source.modules[v], cover.target.modules[v]
            name = fixture[:-4] + "-" + "".join(map(str, sorted(v)))
            # subscheme_p1 (x0*x1 = 0) has the zero ring at {0,1}, where
            # the lemma holds too
            cases.append((name, src, cover.rows[v], tgt, True))
    cover = serre_cover(parse_sheaf_file(str(FIXTURES / "euler_q_p2.txt")))
    v, w = frozenset({0}), frozenset({0, 1})
    chart, chart_w = cover.target.quiver.chart(v), cover.target.quiver.chart(w)

    def spoiled(at, i, j, entry):
        rows = [list(r) for r in cover.rows[at]]
        rows[i][j] = entry
        return (cover.source.modules[at], tuple(map(tuple, rows)), cover.target.modules[at])

    three = chart.ring.constant(Field(0).of_int(3))
    twists, scaled, euler = spoiled(v, 0, 0, three)
    cases += [
        ("scaled-by-constant", twists, scaled, euler, True),
        # from the Euler module to itself: R_tgt*B does not lie in R_src
        # although R_tgt does, so the lemma must multiply by B
        ("scaled-endomorphism", euler, scaled, euler, True),
        ("scaled-by-unit", *spoiled(w, 1, 1, chart_w.u(1)), True),
        ("non-unit", *spoiled(v, 1, 1, chart.z(1)), False),
        ("off-diagonal", *spoiled(v, 0, 2, chart.z(1)), False),
    ]
    return cases


COVER_CASES = _cover_cases()


@pytest.mark.parametrize("name,src,rows,tgt,fast", COVER_CASES, ids=[c[0] for c in COVER_CASES])
def test_lemma_rows_span_the_relations_among_the_rows(name, src, rows, tgt, fast):
    cert = _lemma(rows, tgt)
    assert (cert is not None) == fast
    if fast:
        lemma, tracked = cert.kernel(), tgt.row_relations(rows)
        assert tgt.lifter(rows).kernel() == lemma
        free = FPModule(tgt.chart, len(rows))
        for other in (tracked, oracle.row_relations(tgt, rows)):
            assert free.in_span(lemma, other) and free.in_span(other, lemma)


@pytest.mark.parametrize("name,src,rows,tgt,fast", COVER_CASES, ids=[c[0] for c in COVER_CASES])
def test_onto_and_injective_match_the_tracked_path(monkeypatch, name, src, rows, tgt, fast):
    verdict = (_onto(rows, tgt), _injective(src, rows, tgt))
    assert verdict == (oracle.onto(rows, tgt), oracle.injective(src, rows, tgt))
    _without_the_lemma(monkeypatch)
    assert _lemma(rows, tgt) is None
    assert (_onto(rows, tgt), _injective(src, rows, tgt)) == verdict


@pytest.mark.parametrize("command", ("vdim-witness", "lazard", "serre-cover"))
@pytest.mark.parametrize("fixture", ("euler_q_p2.txt", "euler_q_p3.txt", "subscheme_p1.txt"))
def test_bodies_are_the_same_without_the_lemma(monkeypatch, command, fixture):
    job = JobSpec(command=command, inputs=(str(FIXTURES / fixture),), machine=True)
    report = run(job)
    assert report.exit_status == 0
    _without_the_lemma(monkeypatch)
    assert run(job).machine_text() == report.machine_text()


@st.composite
def covers(draw):
    """The Serre cover of a generated representation and the spoil made to
    one vertex's matrix: none, one that keeps it a diagonal of unit terms
    (KEPT), or one that breaks it (REFUSED); or the map from the zero
    sheaf, whose empty matrices span only zero-ring charts."""
    cover = serre_cover(draw(graded_reps()))
    spoil = draw(st.sampled_from(("none", "none", "zero-source") + KEPT + REFUSED))
    if spoil == "none":
        return cover, spoil
    if spoil == "zero-source":
        zero = graded_sheaf(cover.target.quiver, ())
        return make_sheaf_map(zero, cover.target, {v: () for v in zero.quiver.vertices}), spoil
    quiver = cover.source.quiver
    v = draw(st.sampled_from(quiver.vertices))
    if spoil == "unit" and not quiver.chart(v).unit_variable_columns():
        spoil = "constant"
    if (
        (spoil == "constant" and not _constants(quiver.field))
        or (spoil == "non-unit" and len(v) == quiver.n + 1)
        or (spoil == "off-diagonal" and len(cover.rows[v]) < 2)
    ):
        spoil = "two-term"
    rows = _spoil_rows(draw, quiver, v, cover.rows[v], spoil)
    return make_sheaf_map(cover.source, cover.target, {**cover.rows, v: rows}), spoil


@settings(max_examples=60, deadline=None)
@given(covers())
def test_surjectivity_matches_the_span_oracle(case):
    f, spoil = case
    onto = []
    for v in f.source.quiver.vertices:
        rows, tgt = f.rows[v], f.target.modules[v]
        fast = _lemma(rows, tgt) is not None
        # the identity and the KEPT spoils are diagonals of unit terms
        identity = tuple(map(tuple, sheafrep.mat_identity(tgt.chart.ring, tgt.gens)))
        assert fast == (spoil in ("none",) + KEPT or rows == identity)
        onto.append(oracle.onto(rows, tgt))
        assert not fast or onto[-1]
    assert map_is_surjective(f) == all(onto)


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
        lifted, tracked = module.lifter(rows).kernel(), module.row_relations(rows)
        if _lemma(rows, module) is None:
            assert lifted == tracked
        else:
            # all unit vectors and no extra: the lemma reads the relations
            free = FPModule(module.chart, len(rows))
            assert free.in_span(lifted, tracked) and free.in_span(tracked, lifted)
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
