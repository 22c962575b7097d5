"""The Serre cover's kernel read off the graded presentation.

`sheafrep.kernel` answers the identity between graded sheaves of the same
degrees, as `bundles.serre_cover` builds it, by `_graded_kernel`: the free
sheaf on the relation rows, twisted by their degrees, with no push and no
lift.  The generic path (pruned generators, then `_present`) stays as its
oracle, reached here by turning `_graded_kernel` off.

- On random graded presentations of P^1 to P^3 over Q, F_5 and F_7, where
  the fast path answers, it gives the generic path's modules, relations,
  edge maps and inclusion rows.
- `vdim-witness` on the Euler quotients of P^2 to P^4 takes the fast path
  and makes no `_present` or `push` call.
- A duplicated relation row, a zero relation row, `x0^2 | x1^2` on P^2
  (no constant certificate at chart {2}) and the shipped graded fixtures
  with no relation row (sums of twists, and one subscheme) take the
  generic path through `_present`, and print the bodies they printed
  before the fast path: pinned by sha256, and by the goldens.
- The lemma's checks are each needed: a presentation whose graded rows
  misstate the degree of its modules' rows fails the intertwining check,
  one with more graded rows than its modules have is refused, and so are
  rows whose only certificate carries the source's relations; each then
  takes the generic path.
"""

from __future__ import annotations

import hashlib
import pathlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_skeletons import _homogeneous

from qsheaf import sheafrep
from qsheaf.bundles import serre_cover
from qsheaf.cli import JobSpec, run
from qsheaf.exactpoly import Field, poly_from_str
from qsheaf.sheafrep import (
    GradedData,
    SheafRep,
    _graded_kernel,
    build_proj_quiver,
    graded_sheaf,
    kernel,
    make_sheaf_map,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
Q = Field(0)


def _generic(f):
    """The kernel by the generic path."""
    with mock.patch.object(sheafrep, "_graded_kernel", lambda f: None):
        return kernel(f)


def _same_kernel(found, want) -> None:
    (rep, incl), (want_rep, want_incl) = found, want
    quiver = rep.quiver
    for v in quiver.vertices:
        assert rep.modules[v].gens == want_rep.modules[v].gens
        assert rep.modules[v].relations == want_rep.modules[v].relations
        assert incl.rows[v] == want_incl.rows[v]
    assert rep.edge_maps == want_rep.edge_maps
    assert incl.source is rep and want_incl.source is want_rep


def _watched_job(monkeypatch, path: pathlib.Path):
    """Machine body of vdim-witness on path, run from its directory, with
    what each _graded_kernel call answered and the _present and push
    calls made."""
    answers, calls = [], []

    def counting(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)

        return wrapped

    def watched(f):
        answers.append(real_graded(f))
        return answers[-1]

    real_graded = sheafrep._graded_kernel
    monkeypatch.setattr(sheafrep, "_graded_kernel", watched)
    for name in ("_present", "push"):
        monkeypatch.setattr(sheafrep, name, counting(name, getattr(sheafrep, name)))
    monkeypatch.chdir(path.parent)
    report = run(JobSpec("vdim-witness", inputs=(path.name,), machine=True))
    return report.machine_text(), answers, calls


@pytest.mark.parametrize("n", (2, 3, 4))
def test_vdim_witness_on_euler_quotients_makes_no_present_or_push_call(monkeypatch, n):
    body, answers, calls = _watched_job(monkeypatch, FIXTURES / ("euler_q_p%d.txt" % n))
    assert len(answers) == 1 and answers[0] is not None
    assert calls == []
    # the kernel is O(-1): one relation row of degree 1
    assert answers[0][0].graded.degrees == (1,)
    golden = (GOLDEN / ("vdim-witness__euler_q_p%d.json" % n)).read_text(encoding="utf-8")
    assert body.replace("euler_q_p%d.txt" % n, "fixtures/euler_q_p%d.txt" % n) == golden


# name: (file name, input, sha256 of the vdim-witness body before the fast
# path, run from the input's directory)
FALLBACKS = {
    "duplicated-row": (
        "dup_p2.txt",
        "kind graded\nfield Q\nn 2\ndegrees 0 0 0\nrelation x0 | x1 | x2\nrelation x0 | x1 | x2\n",
        "64d771d9cd469907f1085893dac6b85edc64045bfb1edf5f248aaeb3acb00fc2",
    ),
    "zero-row": (
        "zero_p2.txt",
        "kind graded\nfield Q\nn 2\ndegrees 0 0 0\nrelation x0 | x1 | x2\nrelation 0 | 0 | 0\n",
        "781fc4b692dd876039c35faf5b3a47593f026135a69d2bf6341725977aeae8c9",
    ),
    "no-constant-certificate": (
        "sq_p2.txt",
        "kind graded\nfield Q\nn 2\ndegrees 0 0\nrelation x0^2 | x1^2\n",
        "00f6c042833348532e2f69ceae2935c12eb168181ea638e61f73e000c60d104b",
    ),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_inputs_the_lemma_does_not_answer_take_the_generic_kernel(monkeypatch, tmp_path, name):
    file_name, text, digest = FALLBACKS[name]
    path = tmp_path / file_name
    path.write_text(text, encoding="utf-8")
    body, answers, calls = _watched_job(monkeypatch, path)
    assert answers == [None]
    assert "_present" in calls and "push" in calls
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest


UNRELATED = sorted(
    path.name
    for path in FIXTURES.glob("*.txt")
    if path.read_text(encoding="utf-8").startswith("kind graded") and "\nrelation" not in path.read_text()
)


@pytest.mark.parametrize("fixture", UNRELATED)
def test_graded_fixtures_with_no_relation_row_take_the_generic_kernel(monkeypatch, fixture):
    # sums of twists have a zero kernel, which the generic path presents
    # with no push
    body, answers, calls = _watched_job(monkeypatch, FIXTURES / fixture)
    assert answers == [None] and "_present" in calls
    golden = (GOLDEN / ("vdim-witness__%s.json" % fixture[: -len(".txt")])).read_text(encoding="utf-8")
    assert body.replace(fixture, "fixtures/" + fixture) == golden


def test_the_unrelated_fixtures_are_the_sums_of_twists_and_the_subscheme():
    assert len(UNRELATED) == 18
    assert "subscheme_p1.txt" in UNRELATED and "euler_q_p2.txt" not in UNRELATED


def _rows(quiver, rows):
    return [tuple(poly_from_str(quiver.xring, e) for e in row) for row in rows]


def test_misstated_relation_degrees_fail_the_intertwining_check():
    # the modules are the Euler quotient's, of relation degree 1; the
    # graded data claims x0 times that row, of degree 2, so the kernel edges
    # it would give are (x_q/x_p)^2 where the rows move by x_q/x_p
    quiver = build_proj_quiver(Q, 2)
    euler = graded_sheaf(quiver, (0, 0, 0), _rows(quiver, [("x0", "x1", "x2")]))
    claimed = GradedData((0, 0, 0), tuple(_rows(quiver, [("x0^2", "x0*x1", "x0*x2")])))
    liar = SheafRep(quiver, euler.modules, euler.edge_maps, claimed, dict(euler.terms))
    # and graded data with one row more than the modules have
    extra = GradedData((0, 0, 0), euler.graded.rows * 2)
    longer = SheafRep(quiver, euler.modules, euler.edge_maps, extra, dict(euler.terms))
    for target in (euler, liar, longer):
        cover = serre_cover(target)
        found = _graded_kernel(cover)
        assert (found is None) == (target is not euler)
        _same_kernel(kernel(cover), _generic(cover))


def test_rows_whose_certificate_carries_source_relations_take_the_generic_kernel():
    # the identity from O/(x0) onto O/(1) = 0 on P^1: the row (1) has a
    # unit-diagonal certificate in the source, which carries the source's
    # relation x0, so the rows are not independent there; the kernel is
    # O/(x0), zero on every chart where x0 is a unit
    quiver = build_proj_quiver(Q, 1)
    source = graded_sheaf(quiver, (0,), _rows(quiver, [("x0",)]))
    target = graded_sheaf(quiver, (0,), _rows(quiver, [("1",)]))
    f = make_sheaf_map(source, target, serre_cover(target).rows)
    assert _graded_kernel(f) is None
    found, want = kernel(f), _generic(f)
    _same_kernel(found, want)
    assert [found[0].modules[v].gens for v in quiver.vertices] == [0, 1, 0]


FIELDS = (Field(0), Field(5), Field(7))


@st.composite
def graded_presentations(draw):
    """A graded presentation on P^1..P^3 with degrees in -2..2 and one or
    two relation rows.  Each row is random, and now and then holds a pure
    power of every coordinate in some entry, so that it has a constant term
    on every chart as the Euler row does; now and then a row repeats or is
    zero."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    quiver = build_proj_quiver(field, n)
    xr = quiver.xring
    degrees = tuple(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("planted", "planted", "random", "repeat", "zero")))
        if kind == "repeat" and rows:
            rows.append(rows[-1])
            continue
        total = max(degrees) + draw(st.integers(0, 2))
        row = [_homogeneous(draw, xr, total - d) for d in degrees]
        if kind == "planted":
            for p in range(n + 1):
                j = draw(st.integers(0, len(degrees) - 1))
                exp = [0] * (n + 1)
                exp[p] = total - degrees[j]
                row[j] = row[j] + xr.monomial(exp, field.of_int(draw(st.integers(1, 4))))
        elif kind == "zero":
            row = [xr.zero()] * len(degrees)
        rows.append(tuple(row))
    return quiver, degrees, rows


@settings(max_examples=150, deadline=None)
@given(graded_presentations())
def test_where_the_lemma_answers_it_gives_the_generic_kernel(data):
    quiver, degrees, rows = data
    rep = graded_sheaf(quiver, degrees, rows)
    cover = serre_cover(rep)
    found = _graded_kernel(cover)
    if found is None:
        return
    # the generic path on a new quiver, so that no memo is shared
    again = graded_sheaf(build_proj_quiver(quiver.field, quiver.n), degrees, rows)
    _same_kernel(found, _generic(serre_cover(again)))
    assert found[0].graded.degrees == tuple(
        next(g.degree() + d for g, d in zip(row, degrees) if g) for row in rows
    )
