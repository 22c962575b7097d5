"""Acceptance gate: one test per shipped guarantee.

Each test prints a single pass/fail line with its elapsed time and enforces
a runtime budget, so the whole file doubles as a release checklist:

  1. quasi-coherence suite (structure sheaf, twists, a subscheme) plus ten
     mutated representations that must fail naming the mutated edge;
  2. closure soundness on six (ambient, seed) fixture pairs, including the
     exact direct-summand recovery inside O(1) + O;
  3. projectivity oracle agreement on twelve hand-checked modules;
  4. splitting types on P^1: exact factorization identity, determinant
     degree bookkeeping, invariance under unit-determinant multiplication,
     recovery of planted types, and certified filtration quotients;
  5. finite flat approximation: certified two-term resolutions and nested
     sub chains whose final cokernel reconstructs the sheaf;
  6. filtered-module family properties on all shipped fixtures plus the
     deliberately broken one that must fail with a named witness;
  7. the engine self-test (Groebner idempotence, syzygy completeness,
     localization exactness, format round-trip and report determinism).

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from sheafrep_oracle import report_verdict

from qsheaf.bundles import (
    LaurentPoly,
    birkhoff_split,
    det,
    is_projective_fp,
    kernel,
    lazard_approximation,
    lmat_identity,
    lmat_mul,
    serre_cover,
    verify_birkhoff,
)
from qsheaf.charts import FPModule, span_contains, span_gb
from qsheaf.cli import EXIT_CHECK_FAILED, EXIT_OK, JobSpec, run
from qsheaf.closure import SubRep, qc_closure, verify_subrep
from qsheaf.exactpoly import Field, poly_from_str
from qsheaf.hill import build_hill_family, make_filtered_module, verify_hill_properties
from qsheaf.sheaffile import (
    parse_filtered_file,
    parse_section_file,
    parse_sheaf_file,
    parse_transition_file,
)
from qsheaf.sheafrep import (
    build_proj_quiver,
    fmt_edge,
    is_quasi_coherent,
    structure_sheaf,
    twist,
)

Q = Field.rationals()
V = frozenset


@contextmanager
def criterion(number, label, bound_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print("criterion %d (%s): FAIL after %.2fs" % (number, label, elapsed))
        raise
    elapsed = time.perf_counter() - start
    print(
        "criterion %d (%s): PASS in %.2fs (bound %ds)"
        % (number, label, elapsed, bound_s)
    )
    assert elapsed < bound_s, "runtime budget exceeded: %.2fs" % elapsed


def fixture(fixture_dir, name):
    return str(fixture_dir / (name + ".txt"))


def run_ok(job):
    report = run(job)
    assert report.exit_status == EXIT_OK, report.human_text()
    assert report.ok
    return report


# ---------------------------------------------------------------------------
# 1. quasi-coherence suite


def _zeroed_edge(rep, edge):
    v, w = V(edge[0]), V(edge[1])
    ring = rep.quiver.chart(w).ring
    rows = rep.edge_maps[(v, w)]
    zero = tuple(tuple(ring.zero() for _ in row) for row in rows)
    return rep.replaced_edge((v, w), zero)


def _perturbed_edge(rep, edge, expr):
    """Add a non-unit of the target chart to the top-left entry."""
    v, w = V(edge[0]), V(edge[1])
    ring = rep.quiver.chart(w).ring
    rows = [list(row) for row in rep.edge_maps[(v, w)]]
    rows[0][0] = rows[0][0] + poly_from_str(ring, expr)
    return rep.replaced_edge((v, w), rows)


def test_criterion_1_quasi_coherence_suite(fixture_dir):
    with criterion(1, "quasi-coherence suite", 60):
        names = ["structure_p1", "structure_p2", "subscheme_p1"]
        names += ["twist_p1_k%d" % k for k in (-3, -2, -1, 1, 2, 3)]
        names += ["twist_p2_k%d" % k for k in (-3, -2, -1, 1, 2, 3)]
        for name in names:
            report = run_ok(JobSpec("check-qc", [fixture(fixture_dir, name)]))
            edges = report.certificates["edges"]
            assert edges, name
            for entry in edges:
                assert entry["well_defined"] and entry["surjective"], name
                assert entry["injective"], name

        q1 = build_proj_quiver(Q, 1)
        q2 = build_proj_quiver(Q, 2)
        mutants = [
            (_zeroed_edge(structure_sheaf(q1), ({0}, {0, 1})), ({0}, {0, 1})),
            (_perturbed_edge(structure_sheaf(q1), ({1}, {0, 1}), "z1"), ({1}, {0, 1})),
            (_zeroed_edge(twist(q1, 1), ({1}, {0, 1})), ({1}, {0, 1})),
            (_perturbed_edge(twist(q1, -2), ({1}, {0, 1}), "1"), ({1}, {0, 1})),
            (_perturbed_edge(twist(q1, 3), ({1}, {0, 1}), "1"), ({1}, {0, 1})),
            (_zeroed_edge(structure_sheaf(q2), ({0, 1}, {0, 1, 2})), ({0, 1}, {0, 1, 2})),
            (_perturbed_edge(structure_sheaf(q2), ({1}, {1, 2}), "z2"), ({1}, {1, 2})),
            (_zeroed_edge(twist(q2, 2), ({0}, {0, 1})), ({0}, {0, 1})),
            (_perturbed_edge(twist(q2, -1), ({2}, {0, 2}), "1"), ({2}, {0, 2})),
            (_perturbed_edge(twist(q2, -3), ({0, 2}, {0, 1, 2}), "z1"), ({0, 2}, {0, 1, 2})),
        ]
        assert len(mutants) == 10
        for rep, edge in mutants:
            report = is_quasi_coherent(rep)
            key = (V(edge[0]), V(edge[1]))
            assert not report.ok
            assert not report_verdict(report, key).ok
            for other in report.edges:
                if other.edge != key:
                    assert other.ok, "mutation leaked to " + fmt_edge(other.edge)
            assert any(fmt_edge(key) in f for f in report.findings)


# ---------------------------------------------------------------------------
# 2. closure soundness


CLOSURE_PAIRS = [
    ("structure_p1", "seed_structure_p1"),
    ("twist_p1_k1", "seed_twist_p1_k1"),
    ("twist_p1_k2", "seed_twist_p1_k2"),
    ("sum_o1_o0_p1", "seed_sum_o1_o0_p1"),
    ("sum_o1_o1_p1", "seed_sum_o1_o1_p1"),
    ("sum_o0_o2_p1", "seed_sum_o0_o2_p1"),
]


def test_criterion_2_closure_soundness(fixture_dir):
    with criterion(2, "closure soundness", 30):
        for ambient_name, seed_name in CLOSURE_PAIRS:
            report = run_ok(
                JobSpec(
                    "closure",
                    [fixture(fixture_dir, ambient_name)],
                    seed_file=fixture(fixture_dir, seed_name),
                    max_cycles=3,
                )
            )
            assert dict(report.verdicts)["stabilized"].startswith("pass")
            assert report.certificates["cycles"] <= 3

            ambient = parse_sheaf_file(fixture(fixture_dir, ambient_name))
            seed = parse_section_file(fixture(fixture_dir, seed_name), ambient)
            result = qc_closure(ambient, seed, max_cycles=3)
            assert result.stabilized and result.cycles <= 3
            assert verify_subrep(result.sub).ok

        # O(1) + O: the closure of the twist generator is exactly the O(1)
        # summand, i.e. the span of (1, 0) at every vertex, both inclusions.
        ambient = parse_sheaf_file(fixture(fixture_dir, "sum_o1_o0_p1"))
        seed = parse_section_file(fixture(fixture_dir, "seed_sum_o1_o0_p1"), ambient)
        sub = qc_closure(ambient, seed, max_cycles=3).sub
        for v in ambient.quiver.vertices:
            chart = ambient.quiver.chart(v)
            unit = (chart.ring.one(), chart.ring.zero())
            expected = span_gb(
                chart, [unit] + list(ambient.modules[v].relations), 2
            )
            for section in sub.sections[v]:
                assert span_contains(chart, expected, section)
            assert sub.contains(v, unit)


# ---------------------------------------------------------------------------
# 3. projectivity oracle agreement


def test_criterion_3_projectivity_oracle(fixture_dir):
    with criterion(3, "projectivity oracle", 10):
        q1 = build_proj_quiver(Q, 1)
        q2 = build_proj_quiver(Q, 2)
        x0x1 = poly_from_str(q1.xring, "x0*x1")
        qsub = build_proj_quiver(Q, 1, (x0x1,))
        line = q1.chart(V({0}))  # k[z1]
        plane = q2.chart(V({0}))  # k[z1, z2]
        punct = q1.chart(V({0, 1}))  # k[z1, 1/z1]
        dead = qsub.chart(V({0, 1}))  # zero ring: both coordinates inverted

        def P(chart, text):
            return poly_from_str(chart.ring, text)

        # Hand-checked Fitting chains.  For g generators the chain is read
        # from F_g = (1) downward; projective of rank r needs F_r = (1) and
        # F_{r-1} = 0, and a chain stalling on a proper nonzero ideal is a
        # non-projectivity witness.
        cases = [
            # free modules: no relations, F_{g} = (1), F_{g-1} = 0.
            (FPModule(line, 1), True, 1),
            (FPModule(plane, 3), True, 3),
            (FPModule(line, 0), True, 0),
            # unit relation: F_0 = (1), the module is zero.
            (FPModule(line, 1, [(P(line, "1"),)]), True, 0),
            # relation by an invertible coordinate: F_0 = (z1) = (1) here.
            (FPModule(punct, 1, [(P(punct, "z1"),)]), True, 0),
            # over the zero ring every Fitting ideal is the unit ideal.
            (FPModule(dead, 2), True, 0),
            # torsion on the line: F_0 = (z1), proper and nonzero.
            (FPModule(line, 1, [(P(line, "z1"),)]), False, 0),
            (FPModule(line, 1, [(P(line, "z1^2"),)]), False, 0),
            # torsion on the plane: F_0 = (z1).
            (FPModule(plane, 1, [(P(plane, "z1"),)]), False, 0),
            # the ideal (z1, z2) presented by its Koszul syzygy (z2, -z1):
            # F_1 = (z1, z2) is proper nonzero, so not projective.
            (FPModule(plane, 2, [(P(plane, "z2"), P(plane, "-z1"))]), False, 1),
            # free-plus-torsion: F_1 = (z1) stalls the chain at index 1.
            (FPModule(line, 2, [(P(line, "0"), P(line, "z1"))]), False, 1),
            # diagonal torsion: F_1 = (z1, z2) proper nonzero.
            (
                FPModule(
                    plane,
                    2,
                    [
                        (P(plane, "z1"), P(plane, "0")),
                        (P(plane, "0"), P(plane, "z2")),
                    ],
                ),
                False,
                1,
            ),
        ]
        assert len(cases) == 12
        agreed = 0
        for module, expect_projective, expect_index in cases:
            cert = is_projective_fp(module)
            assert cert.projective == expect_projective, cert.verdict
            if expect_projective:
                assert cert.rank == expect_index, cert.verdict
            else:
                assert cert.violating_index == expect_index, cert.verdict
            agreed += 1
        assert agreed == 12


# ---------------------------------------------------------------------------
# 4. splitting and filtration on P^1


def _unit_factor(rng, r, side):
    """Unit-determinant matrix over k[s] (side +1) or k[1/s] (side -1) with
    entry degrees at most two in the allowed direction."""
    rows = [list(row) for row in lmat_identity(Q, r)]
    for _ in range(2):
        if r < 2:
            break
        i, j = rng.sample(range(r), 2)
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        mono = LaurentPoly.monomial(Q, side * rng.randint(0, 2), c)
        for t in range(r):
            rows[i][t] = rows[i][t] + mono * rows[j][t]
    if r > 1 and rng.random() < 0.5:
        a, b = rng.sample(range(r), 2)
        rows[a], rows[b] = rows[b], rows[a]
    scale = Fraction(rng.choice([1, 2, -1]))
    rows[0] = [e.scale(scale) for e in rows[0]]
    return tuple(tuple(row) for row in rows)


def _det_degree(matrix):
    d = det(matrix)
    assert len(d.terms) == 1, "determinant of the fixture is not a monomial"
    ((exp,),) = d.terms
    return exp


def test_criterion_4_splitting_and_filtration(fixture_dir):
    with criterion(4, "splitting and filtration", 30):
        rng = random.Random(20260819)
        shipped = {
            "trans_diag": (2, -1),
            "trans_coupled": (1, 1),
            "trans_identity": (0, 0, 0),
        }
        matrices = []
        for name, expected in shipped.items():
            _, rows = parse_transition_file(fixture(fixture_dir, name), Q)
            matrices.append((rows, expected))
            report = run_ok(JobSpec("split-p1", [fixture(fixture_dir, name)]))
            assert tuple(report.certificates["type"]) == expected

        for _ in range(5):
            r = rng.randint(2, 3)
            planted = tuple(
                sorted((rng.randint(-2, 2) for _ in range(r)), reverse=True)
            )
            diag = tuple(
                tuple(
                    LaurentPoly.monomial(Q, planted[i]) if i == j else LaurentPoly.zero(Q)
                    for j in range(r)
                )
                for i in range(r)
            )
            scrambled = lmat_mul(
                lmat_mul(_unit_factor(rng, r, -1), diag), _unit_factor(rng, r, +1)
            )
            matrices.append((scrambled, planted))

        for rows, expected in matrices:
            split = birkhoff_split(rows)
            assert split.splitting_type == expected
            assert verify_birkhoff(rows, split)
            assert sum(split.splitting_type) == _det_degree(rows)
            for _ in range(20):
                left = _unit_factor(rng, len(rows), -1)
                right = _unit_factor(rng, len(rows), +1)
                moved = lmat_mul(lmat_mul(left, rows), right)
                assert birkhoff_split(moved).splitting_type == expected

        for name, expected in shipped.items():
            report = run_ok(JobSpec("filter-p1", [fixture(fixture_dir, name)]))
            assert tuple(report.certificates["quotient_twists"]) == expected


# ---------------------------------------------------------------------------
# 5. two-term resolutions and flat approximation chains


def test_criterion_5_resolution_witness(fixture_dir):
    with criterion(5, "resolution witness", 60):
        for name in ("twist_p1_k1", "sum_o0_o2_p1", "euler_q_p2"):
            report = run_ok(JobSpec("vdim-witness", (fixture(fixture_dir, name),)))
            verdicts = dict(report.verdicts)
            assert verdicts["kernel-bundle"] == "pass"
            assert verdicts["middle-bundle"] == "pass"

        # Sheaves covered by their own twists: the empty sub chain already
        # reconstructs the sheaf as the cokernel.
        for name in ("twist_p1_k1", "sum_o0_o2_p1"):
            rep = parse_sheaf_file(fixture(fixture_dir, name))
            cover = serre_cover(rep)
            approx = lazard_approximation(rep, cover, SubRep(cover.source))
            assert approx.is_iso
            assert approx.qc.ok and approx.vdim.ok and approx.sub_bundle.is_bundle

        # Euler-type quotient on P^2: a genuinely nested chain.  The empty
        # stage leaves the relation unimposed, dividing by the full kernel
        # reconstructs the sheaf exactly.
        rep = parse_sheaf_file(fixture(fixture_dir, "euler_q_p2"))
        cover = serre_cover(rep)
        ker, incl = kernel(cover)
        assert any(ker.modules[v].gens > 0 for v in rep.quiver.vertices)

        empty = SubRep(cover.source)
        stage0 = lazard_approximation(rep, cover, empty)
        assert stage0.qc.ok and stage0.vdim.ok and stage0.sub_bundle.is_bundle
        assert not stage0.is_iso

        full = SubRep(cover.source)
        for v in rep.quiver.vertices:
            for row in incl.rows[v]:
                full.add(v, row)
        for v in rep.quiver.vertices:  # the chain is nested stage by stage
            for section in empty.sections[v]:
                assert full.contains(v, section)
        stage1 = lazard_approximation(rep, cover, full)
        assert stage1.qc.ok and stage1.vdim.ok and stage1.sub_bundle.is_bundle
        assert stage1.is_iso


# ---------------------------------------------------------------------------
# 6. filtered-module family properties


def test_criterion_6_hill_families(fixture_dir):
    with criterion(6, "filtered families", 30):
        good = [
            "hill_indep_f2",
            "hill_dep_f2",
            "hill_op_f2",
            "hill_dep_f3",
            "hill_big_f2",
        ]
        seen_p = set()
        seen_deps = set()
        for name in good:
            module, override = parse_filtered_file(fixture(fixture_dir, name))
            assert override is None
            assert module.sigma <= 6 and module.dim <= 8
            seen_p.add(module.p)
            seen_deps.add(any(module.deps[i] for i in range(module.sigma)))
            report = run_ok(JobSpec("hill-verify", [fixture(fixture_dir, name)]))
            for verdict_name, verdict in report.verdicts:
                assert verdict == "pass", (name, verdict_name)
        assert seen_p == {2, 3}
        assert seen_deps == {True, False}

        # the largest size build_hill_family accepts in dim: F_2^12 in six
        # blocks, the last reaching back into the first
        units = [tuple(int(j == i) for j in range(12)) for i in range(12)]
        blocks = [(units[2 * k], units[2 * k + 1]) for k in range(6)]
        reach = tuple((x + y) % 2 for x, y in zip(units[10], units[0]))
        blocks[5] = blocks[5] + (reach,)
        module = make_filtered_module(2, 12, blocks)
        assert module.deps[5] == frozenset({0})
        family = build_hill_family(module)
        assert len(family.members) == 48
        assert verify_hill_properties(family).ok

        report = run(
            JobSpec("hill-verify", (fixture(fixture_dir, "hill_broken_f2"),))
        )
        assert report.exit_status == EXIT_CHECK_FAILED and not report.ok
        witness = report.certificates["closure_witness"]
        assert witness["operation"] == "intersection"
        assert witness["left"] is not None and witness["right"] is not None


# ---------------------------------------------------------------------------
# 7. engine self-test


def test_criterion_7_engine_selftest():
    with criterion(7, "engine selftest", 120):
        report = run_ok(JobSpec("selftest", [], rand_seed=20260819))
        assert len(report.verdicts) >= 4
        for verdict_name, verdict in report.verdicts:
            assert verdict == "pass", verdict_name
