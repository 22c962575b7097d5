"""Groebner runs per job: each chart keeps one memo of the runs over its
ring, so a job makes no run twice, tracked or not, and no memo outlives
its job; the skeletons a process shares between jobs hold none.  A tracked run also serves span requests over its generators, so
no untracked run follows a tracked one over the same generator rows.

A run is one exactpoly._buchberger call, keyed on its ring, rank, whether
it is tracked, and its generator rows: the rows it tracks, then the rows it
only mods out.

S-vectors reduced: vdim-witness and lazard on the Euler quotient on P^3
divide a pinned number of S-vectors inside their runs, since the product
criterion skips the pairs of single-entry elements with coprime leads and
rows with a constant right inverse (charts.FPModule's certificate lemma)
build no run.

Certificates on Euler quotients: every chart presents the Serre cover's
kernel by a unimodular row with a constant right inverse, so lazard builds
no run at all and vdim-witness builds one tracked run per chart, the
kernel-covered re-check over the identity cover (identity rows and the
relation row are more rows than generators, so they have no certificate),
and no untracked run.

Pushes per sub-representation check: verify_subrep pushes each generator
along each edge out of its vertex once, to lift it over the far generators.

Sub-representations: SubRep.contains asks the ambient module's lifter, a
certificate or else a tracked run in the chart memo, and builds no span run
of its own.  So closure on sum_o1_o1_p1, whose lifters are all
certificates, builds one tracked run (the edge check of the induced
presentation) and no untracked run, and verify_subrep on a stabilized
closure builds no tracked run outside that edge check: _present finds
every lifter of the final sections in the memo, as contains built it.

Coefficients over Q: every run a chart memo keeps (bases, tracked bases
with their combinations and syzygy rows, certificate matrices), every
unit-diagonal certificate (its inverse and kernel rows) and every lift,
tracked or certified, holds ints where the value is integral, never a
Fraction of denominator 1; a chart memo keeps a missing certificate as
None, the one "no certificate" value.

What a memo keeps: span bases, lifters and certificates, the three kinds
a later ask reads back; the kernel-covered re-check's relations among the
rows (FPModule.row_relations) are made on each ask and not filed.

Edge verdicts: a graded edge map is a diagonal of unit monomials, which
FPModule's certificate inverts by inspection in every ring, the zero ring
included, so check-qc and is-bundle on a graded fixture build no
("lift", ...) run; a P^1 mutant builds lift runs only for its bad edge.
Graded relations match along every edge as Laurent terms
and graded squares commute term by term, and a chart of P^n without a
subscheme is a Laurent ring whose normal forms are Laurent forms, so
check-qc, is-bundle and serre-cover on an Euler quotient build no run at
all, fetch no chart relation basis and push nothing along a chart hom.

Graded sheaves read once: on the Euler quotient on P^3, check-qc writes
no relation entry as a chart polynomial and is-bundle writes them only at
the n+1 singleton charts, where it reads the Fitting minors; each vertex's
relation row is normed once and no image row is keyed; and a second job
on the same degree tuple asks _square_by_terms nothing.

Monomial tables: a chart converts each exponent between its chart and
Laurent forms once per job, through its own tables, so vdim-witness on the
Euler quotient on P^3 derives each (chart, exponent) pair once, and a
second job, on new charts with empty tables, derives the same pairs again.
"""

from __future__ import annotations

import pathlib
import sys
from collections import Counter
from fractions import Fraction

import pytest
from exactpoly_oracle import combos, syzygy_rows

from qsheaf import bundles, charts, closure, exactpoly, sheaffile, sheafrep
from qsheaf.cli import JobSpec, run
from qsheaf.exactpoly import Field
from qsheaf.sheaffile import sheafrep_text
from qsheaf.sheafrep import build_proj_quiver, graded_sheaf

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

JOBS = [
    ("check-qc", "euler_q_p3.txt", None),
    ("closure", "sum_o1_o1_p1.txt", "seed_sum_o1_o1_p1.txt"),
    ("vdim-witness", "euler_q_p2.txt", None),
    ("lazard", "euler_q_p2.txt", None),
    ("is-bundle", "subscheme_p1.txt", None),
]


def _run_keys(monkeypatch, command, fixture, seed):
    """Report of one job and the keys of its runs, in the order made."""
    runs = []
    real = exactpoly._buchberger

    def counting(rows, mod, ring, rank, track):
        runs.append((ring, rank, track, tuple(tuple(g) for g in list(rows) + list(mod))))
        return real(rows, mod, ring, rank, track)

    monkeypatch.setattr(exactpoly, "_buchberger", counting)
    job = JobSpec(
        command=command,
        inputs=(str(FIXTURES / fixture),),
        seed_file=str(FIXTURES / seed) if seed else None,
        machine=True,
    )
    report = run(job)
    monkeypatch.setattr(exactpoly, "_buchberger", real)
    return report, runs


def _counted_run(monkeypatch, command, fixture, seed):
    """Report of one job and the Counter of its runs by key."""
    report, runs = _run_keys(monkeypatch, command, fixture, seed)
    return report, Counter(runs)


@pytest.mark.parametrize("command,fixture,seed", JOBS, ids=[c for c, _, _ in JOBS])
def test_no_untracked_run_repeats_within_a_job(monkeypatch, command, fixture, seed):
    report, runs = _counted_run(monkeypatch, command, fixture, seed)
    assert report.exit_status == 0
    # tracked runs do not repeat either: map_is_injective reads the
    # relations among the rows off the rows' own tracked run
    assert {key: n for key, n in runs.items() if n > 1} == {}


@pytest.mark.parametrize("command,fixture,seed", JOBS, ids=[c for c, _, _ in JOBS])
def test_a_second_run_of_a_job_repeats_the_first(monkeypatch, command, fixture, seed):
    # the first run starts from an empty table of quiver skeletons and the
    # second finds its key there: the skeleton holds no run, so both make
    # the same runs
    sheafrep._skeleton.cache_clear()
    first, first_runs = _counted_run(monkeypatch, command, fixture, seed)
    assert sheafrep._skeleton.cache_info().currsize > 0
    second, second_runs = _counted_run(monkeypatch, command, fixture, seed)
    assert second.machine_text() == first.machine_text()
    assert second_runs == first_runs


CROSS_JOBS = JOBS + [
    ("vdim-witness", "euler_q_p3.txt", None),
    ("lazard", "euler_q_p3.txt", None),
]


@pytest.mark.parametrize("command,fixture,seed", CROSS_JOBS, ids=[c + "-" + f[:-4] for c, f, _ in CROSS_JOBS])
def test_no_untracked_run_follows_a_tracked_run_of_its_generators(monkeypatch, command, fixture, seed):
    # FPModule.lifter files its tracked basis as the span basis of the same
    # generators, so in_span and _onto reuse it; before,
    # vdim-witness on euler_q_p2/p3 made 7 and 15 such untracked runs, and
    # lazard 4 and 11
    report, runs = _run_keys(monkeypatch, command, fixture, seed)
    assert report.exit_status == 0
    tracked, repeats = set(), []
    for ring, rank, track, gens in runs:
        if track:
            tracked.add((ring, rank, gens))
        elif (ring, rank, gens) in tracked:
            repeats.append((ring, rank, gens))
    assert repeats == []


def _reduced_pairs(monkeypatch, command, fixture):
    """Exit status of one job and the S-vectors its Groebner runs divide:
    the _divide calls made inside _buchberger."""
    depth, count = [0], [0]
    real_run, real_divide = exactpoly._buchberger, exactpoly._divide

    def run_counting(*args):
        depth[0] += 1
        try:
            return real_run(*args)
        finally:
            depth[0] -= 1

    def divide_counting(*args, **kwargs):
        count[0] += bool(depth[0])
        return real_divide(*args, **kwargs)

    monkeypatch.setattr(exactpoly, "_buchberger", run_counting)
    monkeypatch.setattr(exactpoly, "_divide", divide_counting)
    report = run(JobSpec(command=command, inputs=(str(FIXTURES / fixture),), machine=True))
    monkeypatch.setattr(exactpoly, "_buchberger", real_run)
    monkeypatch.setattr(exactpoly, "_divide", real_divide)
    return report.exit_status, count[0]


@pytest.mark.parametrize("command,pairs", [("vdim-witness", 15), ("lazard", 0)])
def test_s_pairs_reduced_on_euler_p3(monkeypatch, command, pairs):
    # the product criterion skips every pair of single-entry elements with
    # coprime leads (ideal-block rows, unit rows) in tracked runs too, and
    # records its Koszul syzygy instead of reducing it: before, these jobs
    # reduced 233 and 164 S-vectors; vdim-witness then reduced 47, 15 of
    # them in the span runs of the identity cover, which map_is_surjective
    # now decides by the unit-diagonal lemma, and then 32, 17 of them in the
    # kernel's runs over the relation row, which its certificate replaces;
    # the 15 left are the kernel-covered runs, one per chart
    assert _reduced_pairs(monkeypatch, command, "euler_q_p3.txt") == (0, pairs)


EULER_FIXTURES = ("euler_q_p2.txt", "euler_q_p3.txt")


@pytest.mark.parametrize("fixture", EULER_FIXTURES)
def test_lazard_on_euler_quotients_builds_no_run(monkeypatch, fixture):
    # before the certificates, 14 and 30 tracked runs
    report, runs = _run_keys(monkeypatch, "lazard", fixture, None)
    assert report.exit_status == 0
    assert runs == []


@pytest.mark.parametrize("fixture", EULER_FIXTURES)
def test_vdim_witness_on_euler_quotients_builds_one_tracked_run_per_chart(monkeypatch, fixture):
    # before the certificates, 14 tracked and 8 untracked runs on P^2 and
    # 30 and 22 on P^3; what is left is the kernel-covered check's
    # row_relations over the identity cover, which has no certificate
    report, runs = _run_keys(monkeypatch, "vdim-witness", fixture, None)
    assert report.exit_status == 0
    n = int(fixture[len("euler_q_p")])
    assert [track for _ring, _rank, track, _gens in runs] == [True] * (2 ** (n + 1) - 1)
    assert len({ring for ring, _rank, _track, _gens in runs}) == 2 ** (n + 1) - 1


@pytest.mark.parametrize("command,fixture", [("vdim-witness", "euler_q_p3.txt"), ("lazard", "euler_q_p2.txt")])
def test_a_chart_memo_keeps_only_spans_lifts_and_certificates(monkeypatch, command, fixture):
    kinds = set()
    real_memo = charts.ChartRing.memo

    def watched_memo(self, key, build):
        found = real_memo(self, key, build)
        kinds.update(k[0] for k in self._runs)
        return found

    monkeypatch.setattr(charts.ChartRing, "memo", watched_memo)
    assert run(JobSpec(command=command, inputs=(str(FIXTURES / fixture),), machine=True)).exit_status == 0
    assert kinds and kinds <= {"span", "lift", "certificate"}


PUSH_JOBS = [
    ("closure", "sum_o1_o1_p1.txt", "seed_sum_o1_o1_p1.txt"),
    ("filter-p1", "trans_coupled.txt", None),
]


@pytest.mark.parametrize("command,fixture,seed", PUSH_JOBS, ids=[c for c, _, _ in PUSH_JOBS])
def test_verify_subrep_pushes_each_generator_once_per_edge(monkeypatch, command, fixture, seed):
    # both fixtures live on P^1, which has no squares, so every push inside
    # verify_subrep is a generator pushed along an edge
    real_push, real_verify = sheafrep.push, closure.verify_subrep
    open_checks, done = [], []

    def counting_push(*args):
        if open_checks:
            open_checks[-1][0] += 1
        return real_push(*args)

    def watched_verify(sub):
        edges = sub.ambient.quiver.edges
        open_checks.append([0, sum(len(sub.sections[v]) for v, _w in edges)])
        try:
            return real_verify(sub)
        finally:
            done.append(tuple(open_checks.pop()))

    for name, module in sorted(sys.modules.items()):
        if name.startswith("qsheaf.") and getattr(module, "push", None) is real_push:
            monkeypatch.setattr(module, "push", counting_push)
    for module in (closure, bundles):
        monkeypatch.setattr(module, "verify_subrep", watched_verify)
    job = JobSpec(
        command=command,
        inputs=(str(FIXTURES / fixture),),
        seed_file=str(FIXTURES / seed) if seed else None,
        machine=True,
    )
    assert run(job).exit_status == 0
    assert done
    assert all(pushes == expected for pushes, expected in done)


def test_closure_on_sum_o1_o1_p1_builds_one_tracked_run_and_no_untracked_run(monkeypatch):
    # before, SubRep.contains built 7 untracked span runs here
    report, runs = _run_keys(monkeypatch, "closure", "sum_o1_o1_p1.txt", "seed_sum_o1_o1_p1.txt")
    assert report.exit_status == 0
    assert [track for _ring, _rank, track, _gens in runs] == [True]


def test_verify_subrep_builds_no_tracked_run_that_contains_did_not(monkeypatch):
    # O(2)+O on P^2 seeded with (2*z1 + 3, 5) at chart {0}, as the
    # closure-lift corpus draws it: its lifters need tracked runs; before,
    # contains built none and verify_subrep 7 besides its edge check
    quiver = build_proj_quiver(Field(0), 2)
    ambient = graded_sheaf(quiver, (-2, 0))
    ring = quiver.chart({0}).ring
    seed = {frozenset({0}): ((ring.var(0).scale(2) + ring.constant(3), ring.constant(5)),)}
    where, built = ["closure"], []
    real_run = exactpoly._buchberger

    def counting(rows, mod, ring, rank, track):
        if track:
            built.append(where[-1])
        return real_run(rows, mod, ring, rank, track)

    def inside(label, real):
        def wrapped(*args):
            where.append(label)
            try:
                return real(*args)
            finally:
                where.pop()
        return wrapped

    monkeypatch.setattr(exactpoly, "_buchberger", counting)
    monkeypatch.setattr(sheafrep.SubRep, "contains", inside("contains", sheafrep.SubRep.contains))
    monkeypatch.setattr(closure, "verify_subrep", inside("verify_subrep", closure.verify_subrep))
    monkeypatch.setattr(closure, "is_quasi_coherent", inside("qc", closure.is_quasi_coherent))
    result = closure.qc_closure(ambient, seed)
    assert result.stabilized and result.report.ok
    assert "contains" in built
    assert "verify_subrep" not in built


Q_JOBS = [
    # check-qc builds no run on a graded fixture; is-bundle on a subscheme
    # builds the chart relation bases
    ("is-bundle", "subscheme_p1.txt", None),
    ("vdim-witness", "euler_q_p2.txt", None),
    ("lazard", "euler_q_p2.txt", None),
    ("closure", "sum_o1_o1_p1.txt", "seed_sum_o1_o1_p1.txt"),
]


@pytest.mark.parametrize("command,fixture,seed", Q_JOBS, ids=[c for c, _, _ in Q_JOBS])
def test_memo_runs_and_lifts_keep_integral_rationals_as_ints(monkeypatch, command, fixture, seed):
    stored, lifts, constants = [], [], []

    def watched_memo(self, key, build):
        found = real_memo(self, key, build)
        stored.append((key[0], found))
        return found

    def watching(real_lift):
        def watched_lift(self, vec):
            rows = real_lift(self, vec)
            if rows is not None:
                lifts.append(rows)
            return rows

        return watched_lift

    def watched_certificate(self, rows):
        found = real_certificate(self, rows)
        if found is not None:
            constants.extend(c for row in found.matrix for p in row for c in p.terms.values())
            lifts.extend(found.kernel())
        return found

    real_memo, real_certificate = charts.ChartRing.memo, charts.FPModule.certificate
    monkeypatch.setattr(charts.ChartRing, "memo", watched_memo)
    monkeypatch.setattr(charts.FPModule, "certificate", watched_certificate)
    for lifter in (exactpoly.TrackedBasis, charts.Certificate):
        monkeypatch.setattr(lifter, "lift", watching(lifter.lift))
    job = JobSpec(
        command=command,
        inputs=(str(FIXTURES / fixture),),
        seed_file=str(FIXTURES / seed) if seed else None,
        machine=True,
    )
    assert run(job).exit_status == 0
    rows = list(lifts)
    for kind, found in stored:
        if kind == "certificate":
            assert found is None or isinstance(found, charts.Certificate)
            constants += [c for row in found.matrix for p in row for c in p.terms.values()] if found else []
        elif isinstance(found, exactpoly.TrackedBasis):
            rows += found.basis + combos(found) + syzygy_rows(found)
        else:
            rows += list(found)
    coefficients = [c for row in rows for p in row for c in p.terms.values()] + constants
    assert stored and coefficients
    # every chart of subscheme_p1 has subscheme relations, so no constant
    # certificate
    certified = [found for kind, found in stored if kind == "certificate" and found]
    assert bool(certified) == (fixture != "subscheme_p1.txt")
    assert [c for c in coefficients if type(c) is Fraction and c.denominator == 1] == []


GRADED = sorted(
    path.name for path in FIXTURES.glob("*.txt") if path.read_text(encoding="utf-8").startswith("kind graded")
)


def _lift_runs(monkeypatch, command, path):
    """Exit status of one job and the (chart, rows) of every lift run its
    chart memos build."""
    built = []
    real_memo = charts.ChartRing.memo

    def watched_memo(self, key, build):
        if key[0] == "lift" and key not in self._runs:
            built.append((self, key[2]))
        return real_memo(self, key, build)

    monkeypatch.setattr(charts.ChartRing, "memo", watched_memo)
    report = run(JobSpec(command=command, inputs=(str(path),), machine=True))
    monkeypatch.setattr(charts.ChartRing, "memo", real_memo)
    return report.exit_status, built


@pytest.mark.parametrize("command", ("check-qc", "is-bundle"))
@pytest.mark.parametrize("fixture", GRADED)
def test_graded_edges_build_no_lift_run(monkeypatch, command, fixture):
    status, built = _lift_runs(monkeypatch, command, FIXTURES / fixture)
    assert status == 0
    # before, subscheme_p1 (x0*x1 = 0) built one, over its zero-ring chart
    assert built == []


@pytest.mark.parametrize("degrees,relations", [((0, 0), True), ((1, 0, -2), False)], ids=["euler", "sum"])
def test_p1_mutant_builds_lift_runs_only_on_its_bad_edge(monkeypatch, tmp_path, degrees, relations):
    quiver = build_proj_quiver(Field(0), 1)
    rows = ((quiver.xring.var(0), quiver.xring.var(1)),) if relations else ()
    rep = graded_sheaf(quiver, degrees, rows)
    edge = quiver.edges[-1]
    chart = quiver.chart(edge[1])
    bad_rows = [list(r) for r in rep.edge_maps[edge]]
    bad_rows[0][0] = bad_rows[0][0] * (chart.z(1) + chart.ring.constant(2))
    bad_rows = tuple(tuple(r) for r in bad_rows)
    path = tmp_path / "mutant.txt"
    path.write_text(sheafrep_text(rep.replaced_edge(edge, bad_rows)), encoding="utf-8")
    status, built = _lift_runs(monkeypatch, "check-qc", path)
    assert status == 1
    assert built and all(rows[: len(bad_rows)] == bad_rows for _chart, rows in built)


EULER_JOBS = [
    (command, fixture)
    for fixture in ("euler_q_p3.txt", "euler_q_p4.txt")
    for command in ("check-qc", "is-bundle", "serre-cover")
]


@pytest.mark.parametrize("command,fixture", EULER_JOBS, ids=[c + "-" + f[:-4] for c, f in EULER_JOBS])
def test_euler_jobs_build_no_groebner_run(monkeypatch, command, fixture):
    # a chart of P^n is a Laurent ring: nf is the Laurent form and the zero
    # ring test builds nothing, an identity cover is onto by the unit-diagonal
    # lemma, and a nonzero constant minor is a unit Fitting ideal; before,
    # check-qc built every chart ideal (a rank-1 run) and is-bundle and
    # serre-cover more
    applied, relation_gbs = [], []
    real_apply, real_relation_gb = charts.ChartHom.apply, charts.ChartRing.relation_gb

    def watched_apply(self, p):
        applied.append(p)
        return real_apply(self, p)

    def watched_relation_gb(self):
        relation_gbs.append(self)
        return real_relation_gb(self)

    monkeypatch.setattr(charts.ChartHom, "apply", watched_apply)
    monkeypatch.setattr(charts.ChartRing, "relation_gb", watched_relation_gb)
    report, runs = _run_keys(monkeypatch, command, fixture, None)
    assert report.exit_status == 0
    assert runs == []
    assert relation_gbs == []
    assert applied == []


def _graded_job(monkeypatch, command, fixture, watch):
    """Report of one job on a graded fixture, with watch(rep) installed
    once graded_sheaf has made the job's representation rep."""
    real = sheaffile.graded_sheaf

    def keeping(*args):
        rep = real(*args)
        watch(rep)
        return rep

    monkeypatch.setattr(sheaffile, "graded_sheaf", keeping)
    report = run(JobSpec(command=command, inputs=(str(FIXTURES / fixture),), machine=True))
    monkeypatch.setattr(sheaffile, "graded_sheaf", real)
    return report


@pytest.mark.parametrize("command,charts_written", [("check-qc", 0), ("is-bundle", 4)])
def test_euler_p3_writes_relation_rows_only_where_they_are_read(monkeypatch, command, charts_written):
    # graded_sheaf hands each module its Laurent rows, and a module writes
    # them as chart polynomials on first read: check-qc matches them as
    # Laurent terms and reads none, is-bundle reads the Fitting minors at
    # the n+1 singleton charts; before, every chart wrote them
    entries, written = set(), Counter()
    real = charts.ChartRing.from_laurent

    def watch(rep):
        entries.update(id(e) for m in rep.modules.values() for row in m.laurent for e in row)

    def watched(self, terms):
        if id(terms) in entries:
            written[self.vertex] += 1
        return real(self, terms)

    monkeypatch.setattr(charts.ChartRing, "from_laurent", watched)
    assert _graded_job(monkeypatch, command, "euler_q_p3.txt", watch).exit_status == 0
    # one relation row of 4 entries
    assert written == {frozenset({i}): 4 for i in range(charts_written)}


@pytest.mark.parametrize("command", ("check-qc", "is-bundle"))
def test_euler_p3_norms_each_laurent_row_once(monkeypatch, command):
    # the relation row is normed once at each of the 15 vertices, the far
    # side of an edge keyed once per vertex, and every diagonal is one
    # repeated term, so no image row is keyed; before, 2 keys per edge
    # (56 over 28 edges)
    normed, keyed = [], []
    real_norm, real_key = sheafrep._row_norm, sheafrep._row_key

    def counting_norm(row, field):
        normed.append(row)
        return real_norm(row, field)

    def counting_key(row, field, outside):
        keyed.append(row)
        return real_key(row, field, outside)

    monkeypatch.setattr(sheafrep, "_row_norm", counting_norm)
    monkeypatch.setattr(sheafrep, "_row_key", counting_key)
    assert _graded_job(monkeypatch, command, "euler_q_p3.txt", lambda rep: None).exit_status == 0
    assert (len(normed), keyed) == (15, [])


def test_a_repeated_degree_tuple_evaluates_no_square_by_terms(monkeypatch):
    # the skeleton asks _square_by_terms of each of the 18 squares of P^3
    # once per degree tuple, and every graded sheaf with those degrees
    # starts with no square findings
    calls, seeded = [], []
    real = sheafrep._square_by_terms

    def counting(fmul, d):
        calls.append(d)
        return real(fmul, d)

    monkeypatch.setattr(sheafrep, "_square_by_terms", counting)
    sheafrep._skeleton.cache_clear()
    counts = []
    for _ in range(2):
        calls.clear()
        watch = lambda rep: seeded.append(rep.terms.get("squares"))  # noqa: E731
        assert _graded_job(monkeypatch, "check-qc", "euler_q_p3.txt", watch).exit_status == 0
        counts.append(len(calls))
    assert counts == [18, 0] and seeded == [(), ()]


def _derived_exponents(monkeypatch):
    """Report of vdim-witness on the Euler quotient on P^3 and the Counter
    of its table-free ChartData.laurent_of_exp calls by (chart, exponent)."""
    calls = Counter()
    real = charts.ChartData.laurent_of_exp

    def counting(self, exp):
        calls[(self, exp)] += 1
        return real(self, exp)

    monkeypatch.setattr(charts.ChartData, "laurent_of_exp", counting)
    report = run(JobSpec(command="vdim-witness", inputs=(str(FIXTURES / "euler_q_p3.txt"),), machine=True))
    monkeypatch.setattr(charts.ChartData, "laurent_of_exp", real)
    return report, calls


def test_euler_p3_vdim_witness_derives_each_laurent_exponent_once_per_chart(monkeypatch):
    # before the tables, 840 calls per job over the same 110 pairs, up to
    # 33 for one pair; 77 since the Serre cover's kernel is read off the
    # graded presentation, which pushes and lifts no kernel generator
    first, first_calls = _derived_exponents(monkeypatch)
    second, second_calls = _derived_exponents(monkeypatch)
    assert first.exit_status == 0 and second.machine_text() == first.machine_text()
    assert sum(first_calls.values()) == len(first_calls) == 77
    # nothing is kept across jobs: the second job's charts are new, and
    # they derive the same pairs again
    assert {chart for chart, _exp in first_calls}.isdisjoint(chart for chart, _exp in second_calls)
    assert Counter((c.vertex, e) for c, e in second_calls.elements()) == Counter(
        (c.vertex, e) for c, e in first_calls.elements()
    )
