#!/usr/bin/env python3
"""Regenerate the shipped fixture corpus under fixtures/.

Every file is produced through the toolkit's own serializers, so the corpus
always parses, and each fixture is checked against its intended verdict
before being written.  Rerunning the script is deterministic.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qsheaf.bundles import birkhoff_split, lmat_identity  # noqa: E402
from qsheaf.charts import span_contains, span_gb  # noqa: E402
from qsheaf.closure import qc_closure, verify_subrep  # noqa: E402
from qsheaf.exactpoly import Field, poly_from_str  # noqa: E402
from qsheaf.hill import build_hill_family, make_filtered_module, verify_hill_properties  # noqa: E402
from qsheaf.sheaffile import (  # noqa: E402
    family_from_supports,
    filtered_text,
    parse_section_file,
    parse_sheaf_file,
    parse_transition_file,
    sheafrep_text,
    transition_text,
)
from qsheaf.bundles import laurent_from_str  # noqa: E402
from qsheaf.sheafrep import (  # noqa: E402
    build_proj_quiver,
    graded_sheaf,
    is_quasi_coherent,
    structure_sheaf,
    twist,
)

OUT = ROOT / "fixtures"


def write(name: str, text: str) -> pathlib.Path:
    path = OUT / name
    path.write_text(text, encoding="utf-8")
    print("wrote", path.relative_to(OUT.parent))
    return path


def check(condition, message):
    if not condition:
        raise SystemExit("fixture check failed: " + message)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    field = Field.rationals()
    q1 = build_proj_quiver(field, 1)
    q2 = build_proj_quiver(field, 2)

    # -- graded representations -------------------------------------------
    reps = {
        "structure_p1": structure_sheaf(q1),
        "structure_p2": structure_sheaf(q2),
    }
    for k in (-3, -2, -1, 1, 2, 3):
        reps["twist_p1_k%d" % k] = twist(q1, k)
        reps["twist_p2_k%d" % k] = twist(q2, k)

    xr1 = q1.xring
    sub_quiver = build_proj_quiver(field, 1, (poly_from_str(xr1, "x0*x1"),))
    reps["subscheme_p1"] = structure_sheaf(sub_quiver)

    xr2 = q2.xring
    euler_row = tuple(poly_from_str(xr2, name) for name in ("x0", "x1", "x2"))
    reps["euler_q_p2"] = graded_sheaf(q2, (0, 0, 0), (euler_row,))

    q3 = build_proj_quiver(field, 3)
    xr3 = q3.xring
    euler_row3 = tuple(poly_from_str(xr3, "x%d" % i) for i in range(4))
    reps["euler_q_p3"] = graded_sheaf(q3, (0, 0, 0, 0), (euler_row3,))

    q4 = build_proj_quiver(field, 4)
    xr4 = q4.xring
    euler_row4 = tuple(poly_from_str(xr4, "x%d" % i) for i in range(5))
    reps["euler_q_p4"] = graded_sheaf(q4, (0,) * 5, (euler_row4,))

    reps["sum_o1_o0_p1"] = graded_sheaf(q1, (-1, 0))
    reps["sum_o1_o1_p1"] = graded_sheaf(q1, (-1, -1))
    reps["sum_o0_o2_p1"] = graded_sheaf(q1, (0, -2))

    paths = {}
    for name, rep in sorted(reps.items()):
        check(is_quasi_coherent(rep).ok, name + " is not quasi-coherent")
        paths[name] = write(name + ".txt", sheafrep_text(rep))

    # -- closure seeds ------------------------------------------------------
    seeds = {
        "seed_structure_p1": ("structure_p1", "section {0} 1\n"),
        "seed_twist_p1_k1": ("twist_p1_k1", "section {0} 1\n"),
        "seed_twist_p1_k2": ("twist_p1_k2", "section {1} 1\n"),
        "seed_sum_o1_o0_p1": ("sum_o1_o0_p1", "section {0} 1 | 0\n"),
        "seed_sum_o1_o1_p1": (
            "sum_o1_o1_p1",
            "section {0} 1 | 0\nsection {1} 0 | 1\n",
        ),
        "seed_sum_o0_o2_p1": ("sum_o0_o2_p1", "section {0,1} 0 | 1\n"),
    }
    for name, (ambient_name, body) in sorted(seeds.items()):
        path = write(name + ".txt", "kind sections\n" + body)
        ambient = parse_sheaf_file(str(paths[ambient_name]))
        sections = parse_section_file(str(path), ambient)
        result = qc_closure(ambient, sections, max_cycles=3)
        check(result.stabilized, name + " does not stabilize in 3 cycles")
        check(verify_subrep(result.sub).ok, name + " closure fails verification")
        if name == "seed_sum_o1_o0_p1":
            # the closure must be exactly the first summand
            for v in ambient.quiver.vertices:
                chart = ambient.quiver.chart(v)
                ring = chart.ring
                unit = (ring.one(), ring.zero())
                gens = result.sub.sections[v]
                gb_sub = span_gb(chart, list(gens), 2)
                gb_unit = span_gb(chart, [unit], 2)
                check(
                    span_contains(chart, gb_sub, unit),
                    "summand generator missing at " + str(sorted(v)),
                )
                for g in gens:
                    check(
                        span_contains(chart, gb_unit, g),
                        "closure leaks outside the summand at " + str(sorted(v)),
                    )

    # -- transition matrices -------------------------------------------------
    def lp(text):
        return laurent_from_str(field, text)

    transitions = {
        "trans_diag": ((lp("s^2"), lp("0")), (lp("0"), lp("s^-1"))),
        "trans_coupled": ((lp("s^2"), lp("s")), (lp("0"), lp("1"))),
        "trans_identity": lmat_identity(field, 3),
    }
    expected_types = {
        "trans_diag": (2, -1),
        "trans_coupled": (1, 1),
        "trans_identity": (0, 0, 0),
    }
    for name, rows in sorted(transitions.items()):
        path = write(name + ".txt", transition_text(field, rows))
        _, back = parse_transition_file(str(path), None)
        split = birkhoff_split(back)
        check(
            split.splitting_type == expected_types[name],
            name + " splits as " + str(split.splitting_type),
        )

    # -- filtered modules ----------------------------------------------------
    hills = {
        "hill_indep_f2": make_filtered_module(2, 2, (((1, 0),), ((0, 1),))),
        "hill_dep_f2": make_filtered_module(2, 2, (((1, 0),), ((0, 1), (1, 1)))),
        "hill_op_f2": make_filtered_module(
            2, 2, (((1, 0),),), operator=((0, 1), (0, 0))
        ),
        "hill_dep_f3": make_filtered_module(
            3,
            3,
            (((1, 0, 0),), ((0, 1, 0), (1, 2, 0)), ((0, 0, 1),)),
        ),
        "hill_big_f2": make_filtered_module(
            2,
            8,
            (
                ((1, 0, 0, 0, 0, 0, 0, 0),),
                ((0, 1, 0, 0, 0, 0, 0, 0),),
                ((0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0)),
                ((0, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0)),
                ((0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0)),
                ((0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0, 0, 1)),
            ),
        ),
    }
    for name, module in sorted(hills.items()):
        write(name + ".txt", filtered_text(module))
        report = verify_hill_properties(build_hill_family(module))
        check(report.ok, name + " fails its own verification")
    check(hills["hill_dep_f2"].deps[1] == frozenset({0}), "hill_dep_f2 lost its dependency")
    check(hills["hill_dep_f3"].deps[1] == frozenset({0}), "hill_dep_f3 lost its dependency")
    check(hills["hill_big_f2"].deps[3] == frozenset({0}), "hill_big_f2 lost dependency 3")
    check(hills["hill_big_f2"].deps[5] == frozenset({2}), "hill_big_f2 lost dependency 5")

    # deliberately broken family: every closed support except {1}
    broken_module = make_filtered_module(
        2, 3, (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
    )
    full = build_hill_family(broken_module)
    supports = tuple(m.support for m in full.members if m.support != (1,))
    check(len(supports) == len(full.members) - 1, "broken fixture pruned wrongly")
    write("hill_broken_f2.txt", filtered_text(broken_module, supports))
    broken_report = verify_hill_properties(
        family_from_supports(broken_module, supports)
    )
    check(not broken_report.lattice_closed, "broken fixture still closed")
    check(broken_report.lattice_witness is not None, "broken fixture lacks a witness")

    print("fixture corpus complete:", len(list(OUT.glob("*.txt"))), "files")


if __name__ == "__main__":
    main()
