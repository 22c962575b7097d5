#!/usr/bin/env python3
"""Mutant registry: each entry breaks one fast path, lemma or invariant on
purpose, and the tests named with it must then fail.

    python3 scripts/mutants.py [--root DIR] [--all] [NAME ...]

For every registered mutant, or only the NAMEs given, the script copies the
tree (no .git, no caches) into a fresh directory under --root (the system
temporary directory by default), replaces the entry's old text, which must
occur exactly once in its file, by its new text, and runs pytest in that
copy on the entry's tests, or on the whole tier-1 suite with --all.  It
prints one line per mutant, killed or survived, and exits 1 when any
mutant survives or cannot be applied, or when the tests already fail on
an unmutated copy, where no kill would mean anything.  Hypothesis runs
with a fixed seed, so a verdict does not depend on the run.  Uses the
standard library only.

tests/test_mutant_registry.py keeps the registry in step with the code:
each old text occurs exactly once in its file, the file compiles with the
entry applied, and each named test exists, so a change that moves the
mutated code updates its entry too.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
IGNORED = (".git", ".hypothesis", "__pycache__", ".pytest_cache", ".perfbench_work", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    old: str
    new: str
    tests: tuple  # pytest node ids: "tests/test_x.py::test_name"


MUTANTS = (
    Mutant(
        "laurent-collision-fallback-dropped",
        "src/qsheaf/charts.py",
        "        if len(out) < len(p.terms):\n            return ChartData.to_laurent(self, p)\n"
        "        return Poly(self.xring, out)\n",
        "        return Poly(self.xring, out)\n",
        (
            "tests/test_charts_oracle.py::test_table_conversions_match_the_table_free_ones",
            "tests/test_closure.py::test_non_normal_seeds_close_alike_without_the_tables",
        ),
    ),
    Mutant(
        "unwritable-laurent-exponent-tabled",
        "src/qsheaf/charts.py",
        "            exp = self._chart_exps[vec] = ChartData._exp_of_laurent(self, vec)\n",
        "            try:\n"
        "                exp = self._chart_exps[vec] = ChartData._exp_of_laurent(self, vec)\n"
        "            except ValueError:\n"
        "                self._chart_exps[vec] = None\n"
        "                raise\n",
        ("tests/test_charts_oracle.py::test_an_exponent_the_chart_cannot_write_is_never_tabled",),
    ),
    Mutant(
        "monomial-tables-on-shared-chart-data",
        "src/qsheaf/charts.py",
        "        self._laurent_exps, self._chart_exps = {}, {}\n",
        '        self._laurent_exps = vars(data).setdefault("_laurent_exps", {})\n'
        '        self._chart_exps = vars(data).setdefault("_chart_exps", {})\n',
        (
            "tests/test_skeletons.py::test_a_job_leaves_the_shared_chart_data_as_it_was",
            "tests/test_runs.py::test_euler_p3_vdim_witness_derives_each_laurent_exponent_once_per_chart",
        ),
    ),
    Mutant(
        "row-key-without-outside-exponents",
        "src/qsheaf/sheafrep.py",
        "    return tuple([low[i] for i in outside]), terms\n",
        "    return (), terms\n",
        ("tests/test_sheafrep_oracle.py::test_row_keys_match_the_pairwise_oracle",),
    ),
    Mutant(
        "chart-ring-ignores-ideal-gens",
        "src/qsheaf/charts.py",
        "        gens = tuple(ideal_gens)\n",
        "        gens = ()\n",
        (
            "tests/test_charts.py::test_chart_zero_ring",
            "tests/test_charts.py::test_chart_rejects_inhomogeneous",
            "tests/test_acceptance.py::test_criterion_3_projectivity_oracle",
        ),
    ),
    Mutant(
        "generates-one-true-for-no-gens",
        "src/qsheaf/charts.py",
        "        if not gens:\n            return self.is_zero_ring()\n",
        "        if not gens:\n            return True\n",
        ("tests/test_charts.py::test_generates_one",),
    ),
    Mutant(
        "certificate-coefficients-without-membership-check",
        "src/qsheaf/charts.py",
        "        if self.square or mat_apply(coeffs, self.laurent, self.ring, len(vec)) == tuple(vec):\n"
        "            return coeffs\n        return None\n",
        "        return coeffs\n",
        ("tests/test_certificate_oracle.py::test_a_non_member_is_refused_though_its_coefficients_exist",),
    ),
    Mutant(
        "square-shortcut-for-every-certificate",
        "src/qsheaf/charts.py",
        "        self.square = len(laurent) == len(matrix)\n",
        "        self.square = True\n",
        (
            "tests/test_certificate_oracle.py::test_a_non_member_is_refused_though_its_coefficients_exist",
            "tests/test_certificate_oracle.py::test_certificate_answers_match_a_direct_tracked_run",
        ),
    ),
    Mutant(
        "find-certificate-without-right-inverse-check",
        "src/qsheaf/charts.py",
        "    return cert if cert.is_right_inverse() else None\n",
        "    return cert\n",
        ("tests/test_certificate_oracle.py::test_a_wrong_solve_is_refused",),
    ),
    Mutant(
        "certificate-lifts-to-the-memoized-row-count",
        "src/qsheaf/charts.py",
        "        return None if found is None else found.cut(self.chart, len(rows))\n",
        "        return None if found is None else found.cut(self.chart, found.nrows)\n",
        ("tests/test_certificate_oracle.py::test_a_shared_solve_keeps_each_askers_row_count",),
    ),
    Mutant(
        "kept-solve-bound-to-its-chart",
        "src/qsheaf/charts.py",
        "    cert = Certificate(ring, laurent, tuple(matrix), m)\n",
        "    cert = Certificate(ring, laurent, tuple(matrix), m, chart)\n",
        ("tests/test_certificate_oracle.py::test_a_kept_solve_leaves_its_chart_free_of_reference_cycles",),
    ),
    Mutant(
        "unit-diagonal-exponents-not-negated",
        "src/qsheaf/charts.py",
        "        row[j] = Poly(xring, {tuple(map(neg, e)): inv(c)})\n",
        "        row[j] = Poly(xring, {e: inv(c)})\n",
        ("tests/test_certificate_oracle.py::test_unit_diagonal_answers_match_a_direct_tracked_run",),
    ),
    Mutant(
        "unit-diagonal-carries-no-relations",
        "src/qsheaf/charts.py",
        "    carried = module if module._has_relations() else None\n",
        "    carried = None\n",
        (
            "tests/test_certificate_oracle.py::test_row_relations_reads_an_empty_kernel_off_the_certificate_kind",
            "tests/test_certificate_oracle.py::test_unit_diagonal_answers_match_a_direct_tracked_run",
        ),
    ),
    Mutant(
        "mat-apply-ignores-last-row",
        "src/qsheaf/exactpoly.py",
        "    for coeff, row in zip(vec, rows):\n",
        "    for coeff, row in zip(vec[:-1], rows):\n",
        ("tests/test_one_coefficient_rule.py::test_mat_apply_equals_the_per_term_rule",),
    ),
    Mutant(
        "square-by-terms-without-coefficients",
        "src/qsheaf/sheafrep.py",
        " and fmul(c1, c2) == fmul(c3, c4)\n",
        "\n",
        ("tests/test_sheafrep_oracle.py::test_pinned_squares_take_the_expected_path",),
    ),
    Mutant(
        "term-edge-shortcut-for-every-unit-diagonal",
        "src/qsheaf/sheafrep.py",
        "    if len(set(diagonal)) <= 1:\n",
        "    if True:\n",
        (
            "tests/test_sheafrep_oracle.py::test_only_one_repeated_unit_term_skips_the_image_rows",
            "tests/test_sheafrep_oracle.py::test_pinned_edges_take_the_expected_path",
        ),
    ),
    Mutant(
        "graded-kernel-degree-without-the-row-degree",
        "src/qsheaf/sheafrep.py",
        "        here = g.degree() + d\n",
        "        here = d\n",
        (
            "tests/test_graded_kernel.py::test_vdim_witness_on_euler_quotients_makes_no_present_or_push_call",
            "tests/test_graded_kernel.py::test_misstated_relation_degrees_fail_the_intertwining_check",
        ),
    ),
    Mutant(
        "graded-kernel-without-intertwining-check",
        "src/qsheaf/sheafrep.py",
        "            if not _intertwines(near, far, d_src, d_ker):\n                return None\n",
        "",
        ("tests/test_graded_kernel.py::test_misstated_relation_degrees_fail_the_intertwining_check",),
    ),
    Mutant(
        "graded-kernel-accepts-a-certificate-carrying-relations",
        "src/qsheaf/sheafrep.py",
        "        if cert is None or cert.module is not None:\n",
        "        if cert is None:\n",
        (
            "tests/test_graded_kernel.py::test_rows_whose_certificate_carries_source_relations_take_the_generic_kernel",
        ),
    ),
    Mutant(
        "lattice-theorem-without-dimension-check",
        "src/qsheaf/hill.py",
        "            and m.dim == sum(x for b, x in enumerate(d) if mask >> b & 1)\n",
        "",
        ("tests/test_hill_theorem.py::test_family_failing_h2_falls_back",),
    ),
)


def apply(mutant: Mutant, tree: pathlib.Path) -> None:
    """Write the mutant into the copy at tree."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant | None, tests: tuple, root: str) -> str:
    """killed, survived or error (the patch did not apply, or pytest
    neither passed nor failed), from pytest on tests (all of tier-1 for
    none) in a copy of the tree with the mutant, or with none."""
    with tempfile.TemporaryDirectory(prefix="mutant-", dir=root) as work:
        tree = pathlib.Path(work) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*IGNORED))
        try:
            if mutant is not None:
                apply(mutant, tree)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return "error"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        done = subprocess.run(
            args + list(tests), cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
    # 1: a test failed; 2: collection failed on the mutated code, which
    # compiles (test_mutant_registry), so an import or a fixture failed
    return {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode, "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--root", default=None, help="directory for the mutated copies")
    parser.add_argument("--all", action="store_true", help="run all of tier-1 against each mutant")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error("unknown mutant(s): " + ", ".join(unknown))
    chosen = [known[name] for name in args.names] if args.names else list(MUTANTS)
    # the tests must pass on the unmutated tree, or every kill means nothing
    named = () if args.all else tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    if run(None, named, args.root) != "survived":
        print("the named tests fail on the unmutated tree")
        return 1
    verdicts = []
    for mutant in chosen:
        verdicts.append(run(mutant, () if args.all else mutant.tests, args.root))
        print(f"{verdicts[-1]:8}  {mutant.name}", flush=True)
    print(f"{verdicts.count('killed')} of {len(chosen)} mutants killed")
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
