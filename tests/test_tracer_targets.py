"""Every boundary the perfbench tracer wraps still resolves in its home
module, every traced `hill` name is reached by `hill-verify` on the
shipped Hill fixtures and one failing family with a two-vector extension
class, and every traced `closure` name by `closure` on the
shipped seed fixtures.  Every traced `charts` and `sheafrep` name is reached
by `check-qc`, `is-bundle` and `serre-cover` on a graded subscheme fixture,
`check-qc` on a P^1 mutant sheafrep file and on the same mutant on a
subscheme, and `vdim-witness` and `lazard` on an Euler quotient, the
latter also seeded with the cover's kernel, whose presentation pushes
along chart homs, from an empty table of quiver skeletons and again from
a full one, with the same span counts: what a process shares between
jobs calls no traced name.
Every traced `exactpoly` name is reached by `vdim-witness` on an Euler
quotient, whose kernel-covered check is the one tracked run certificates
leave there, `closure` on a seed fixture, `filter-p1` on a coupled
transition, and `is-bundle` on a subscheme and on an Euler quotient with no
constant relation entry.  The perfbench self-tests check the same, but they run
the whole benchmark corpus; these guards catch a renamed, moved or no
longer called name in a second.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

from qsheaf import cli, sheafrep
from qsheaf.exactpoly import Field
from qsheaf.hill import make_filtered_module
from qsheaf.sheaffile import filtered_text, parse_sheaf_file, sections_text, sheafrep_text

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
HILL_FIXTURES = sorted((ROOT / "fixtures").glob("hill_*.txt"))
SEED_FIXTURES = sorted((ROOT / "fixtures").glob("seed_*.txt"))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
NAMES = [
    (layer, attr)
    for table in (_tracer.TARGETS, _tracer.COUNTED_GENERATORS)
    for layer, attrs in table.items()
    for attr in attrs
]


@pytest.mark.parametrize("layer,attr", NAMES, ids=["%s.%s" % n for n in NAMES])
def test_traced_name_resolves_in_its_home_module(layer, attr):
    home = importlib.import_module("qsheaf." + layer)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(home, cls_name).__dict__[meth])
    else:
        assert callable(getattr(home, attr))


def _traced(jobs):
    """The tracer after running the jobs under it."""
    rec = _tracer.Tracer()
    rec.install()
    try:
        for job in jobs:
            cli.run(job).machine_text()
    finally:
        rec.uninstall()
    return rec


def _unreached(layers, rec) -> set:
    """Traced names of the layers that the traced jobs did not reach."""
    reached = set(rec.span_counts())
    reached |= {k.rsplit(".", 1)[0] for k in rec.counts if k.endswith(".calls")}
    wanted = {
        layer + "." + attr
        for table in (_tracer.TARGETS, _tracer.COUNTED_GENERATORS)
        for layer in layers
        for attr in table.get(layer, ())
    }
    return wanted - reached


def test_hill_verify_reaches_every_traced_hill_name(tmp_path):
    assert len(HILL_FIXTURES) == 6
    # every class of the shipped failing family has a one-vector V_N, whose
    # example needs no enumerate_space; block 1 here makes a two-vector one
    module = make_filtered_module(2, 4, (((1, 0, 0, 0),), ((0, 1, 0, 0), (0, 0, 1, 0)), ((0, 0, 0, 1),)))
    wide = tmp_path / "hill_wide_class_f2.txt"
    wide.write_text(filtered_text(module, [(), (2,), (0,), (1, 2), (0, 2), (0, 1), (0, 1, 2)]))
    jobs = [
        cli.JobSpec("hill-verify", inputs=(str(path),), machine=True) for path in HILL_FIXTURES + [wide]
    ]
    assert _unreached(("hill",), _traced(jobs)) == set()


def test_closure_reaches_every_traced_closure_name():
    assert len(SEED_FIXTURES) == 6
    jobs = [
        cli.JobSpec(
            "closure",
            inputs=(str(path.with_name(path.name[len("seed_"):])),),
            seed_file=str(path),
            machine=True,
        )
        for path in SEED_FIXTURES
    ]
    assert _unreached(("closure",), _traced(jobs)) == set()


def _p1_mutant(tmp_path, subscheme=False) -> str:
    """A P^1 sum of twists in sheafrep form, one edge entry times z1 + 2;
    on V(x0*x1) when subscheme, where the bad edge goes by localization
    into a chart with subscheme relations (FPModule.relation_gb)."""
    xr = sheafrep.build_proj_quiver(Field(0), 1).xring
    quiver = sheafrep.build_proj_quiver(Field(0), 1, (xr.var(0) * xr.var(1),) if subscheme else ())
    rep = sheafrep.graded_sheaf(quiver, (1, 0))
    edge = quiver.edges[-1]
    chart = quiver.chart(edge[1])
    rows = [list(r) for r in rep.edge_maps[edge]]
    rows[0][0] = rows[0][0] * (chart.z(1) + chart.ring.constant(2))
    path = tmp_path / ("mutant_v_p1.txt" if subscheme else "mutant_p1.txt")
    path.write_text(sheafrep_text(rep.replaced_edge(edge, rows)), encoding="utf-8")
    return str(path)


def _kernel_seed(tmp_path, euler: str) -> str:
    """A section file of the Euler quotient's cover kernel: its relation
    row on every chart, as perfbench's full lazard jobs seed it."""
    rep = parse_sheaf_file(euler)
    mapping = {
        v: [tuple(rep.quiver.chart(v).dehomogenize(g) for g in rep.graded.rows[0])] for v in rep.quiver.vertices
    }
    path = tmp_path / "kseed_q_p2.txt"
    path.write_text(sections_text(mapping), encoding="utf-8")
    return str(path)


def test_sheaf_jobs_reach_every_traced_chart_and_sheafrep_name_cold_and_warm(tmp_path):
    graded = str(ROOT / "fixtures" / "subscheme_p1.txt")
    euler = str(ROOT / "fixtures" / "euler_q_p2.txt")
    jobs = [cli.JobSpec(c, inputs=(graded,), machine=True) for c in ("check-qc", "is-bundle", "serre-cover")]
    jobs += [cli.JobSpec("check-qc", inputs=(_p1_mutant(tmp_path, v),), machine=True) for v in (False, True)]
    jobs += [cli.JobSpec(c, inputs=(euler,), machine=True) for c in ("vdim-witness", "lazard")]
    # the Serre cover's kernel is read off the graded presentation, so no
    # job above pushes along a chart hom; lazard seeded with that kernel
    # presents it as a sub-representation, which does
    jobs.append(cli.JobSpec("lazard", inputs=(euler,), seed_file=_kernel_seed(tmp_path, euler), machine=True))
    sheafrep._skeleton.cache_clear()
    cold = _traced(jobs)
    warm = _traced(jobs)
    assert _unreached(("charts", "sheafrep"), cold) == set()
    assert warm.span_counts() == cold.span_counts()
    assert warm.counts == cold.counts


def test_fixture_jobs_reach_every_traced_exactpoly_name(tmp_path):
    # vdim-witness re-checks that the kernel is covered by a tracked
    # row_relations run over the identity cover (module_kernel, syzygies,
    # TrackedBasis), which no certificate replaces; closure presents its
    # generators with tracked runs, and filter-p1 on a coupled transition
    # lifts over them (TrackedBasis.lift: edge matrices of twists are unit
    # diagonals, which lift by a certificate); is-bundle on a subscheme and
    # on an Euler quotient whose relation entries are never constant decides
    # Fitting ideals by Groebner bases
    fixtures = ROOT / "fixtures"
    generic = tmp_path / "euler_generic_p2.txt"
    generic.write_text(
        "kind graded\nfield Q\nn 2\ndegrees 0 0 0\nrelation x0 + x1 | x1 + x2 | x2 + x0\n", encoding="utf-8"
    )
    jobs = [
        cli.JobSpec("vdim-witness", inputs=(str(fixtures / "euler_q_p2.txt"),), machine=True),
        cli.JobSpec(
            "closure",
            inputs=(str(fixtures / "sum_o1_o1_p1.txt"),),
            seed_file=str(fixtures / "seed_sum_o1_o1_p1.txt"),
            machine=True,
        ),
        cli.JobSpec("filter-p1", inputs=(str(fixtures / "trans_coupled.txt"),), machine=True),
        cli.JobSpec("is-bundle", inputs=(str(fixtures / "subscheme_p1.txt"),), machine=True),
        cli.JobSpec("is-bundle", inputs=(str(generic),), machine=True),
    ]
    assert _unreached(("exactpoly",), _traced(jobs)) == set()
