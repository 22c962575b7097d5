"""Command-line driver: parse input files, run one verification command,
and emit a reproducible report.

Commands
    check-qc FILE        quasi-coherence of a representation, per edge
    closure FILE         stable sub-representation spanned by seed sections
                         (requires --seed-file; --max-cycles bounds the work)
    is-bundle FILE       local projectivity at the covering charts, with rank
    serre-cover FILE     twist-sum cover of a graded representation
    vdim-witness FILE    two-term resolution certificate with bundle kernel
    lazard FILE          finite-stage approximation data for a sub-bundle of
                         the cover kernel (--seed-file gives its sections)
    split-p1 FILE        splitting type of a transition matrix on the line
    filter-p1 FILE       line-bundle filtration certified step by step
    hill-verify FILE     the four lattice properties of a filtered module's
                         submodule family (sigma, dim <= 14 for built and
                         listed families alike; exit 2 past it)
    selftest             engine invariants: basis idempotence, syzygy
                         completeness at low degree, localization exactness,
                         format round trips, report determinism

Exit status: 0 all verdicts positive; 1 a check failed (the report carries
witnesses); 2 usage or parse error; 3 cycle budget exhausted before the
closure stabilized; 4 internal error (a self-check of the engine failed, or
any other exception escaped the command; the report names the exception).

Reports are deterministic for identical inputs: the machine form (--machine)
is canonical JSON that excludes timing; the human form appends timing.
Randomized self-test parts draw from an explicitly seeded generator
(--rand-seed, default 0).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .bundles import (
    birkhoff_split,
    bundle_from_transition,
    global_sections_dim,
    h0_of_type,
    is_vector_bundle,
    laurent_to_str,
    line_bundle_filtration,
    serre_cover,
    vdim_le_one_witness,
    lazard_approximation,
)
from .charts import FPModule, ideal_block
from .closure import MAX_CYCLES, SubRep, qc_closure
from .exactpoly import (
    Field,
    Poly,
    PolyRing,
    field_nullspace,
    groebner_basis,
    module_kernel,
    poly_to_str,
    vec_is_zero,
)
from .hill import build_hill_family, verify_hill_properties
from .sheaffile import (
    ParseError,
    family_from_supports,
    field_token,
    parse_field_token,
    parse_filtered_file,
    parse_section_file,
    parse_sheaf_file,
    parse_transition_file,
    rep_equal,
    sheafrep_text,
    transition_text,
)
from .sheafrep import (
    SheafRep,
    build_proj_quiver,
    fmt_vertex,
    is_quasi_coherent,
    map_is_surjective,
    structure_sheaf,
    twist,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class JobSpec:
    """One command invocation: what to run, on which files, with which
    options.  Validated before dispatch."""

    command: str
    inputs: tuple = ()
    field: Optional[Field] = None
    max_cycles: int = MAX_CYCLES
    seed_file: Optional[str] = None
    out: Optional[str] = None
    machine: bool = False
    rand_seed: int = 0
    verbose: int = 0


@dataclass(frozen=True)
class Report:
    """Reproducible result of one job: identical inputs give identical
    verdicts and certificates (and byte-identical machine bodies)."""

    command: str
    ok: bool
    exit_status: int
    verdicts: tuple
    certificates: dict
    inputs: tuple  # (path, sha256) pairs
    version: str
    schema: int
    timing_ms: int

    def machine_text(self) -> str:
        body = {
            "schema": self.schema,
            "version": self.version,
            "command": self.command,
            "ok": self.ok,
            "exit": self.exit_status,
            "verdicts": [list(v) for v in self.verdicts],
            "certificates": self.certificates,
            "inputs": [list(pair) for pair in self.inputs],
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"

    def human_text(self) -> str:
        lines = ["command: " + self.command]
        lines.append("version: %s (schema %d)" % (self.version, self.schema))
        for path, digest in self.inputs:
            lines.append("input: %s sha256=%s" % (path, digest))
        for name, value in self.verdicts:
            lines.append("verdict %s: %s" % (name, value))
        for key in sorted(self.certificates):
            lines.append("certificate %s: %s" % (key, json.dumps(self.certificates[key], sort_keys=True)))
        lines.append("ok: %s" % ("yes" if self.ok else "no"))
        lines.append("exit: %d" % self.exit_status)
        lines.append("timing_ms: %d" % self.timing_ms)
        return "\n".join(lines) + "\n"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def validate_job(job: JobSpec) -> None:
    if job.command not in COMMANDS:
        raise UsageError("unknown command %r" % job.command)
    wants = 0 if job.command == "selftest" else 1
    if len(job.inputs) != wants:
        raise UsageError(
            "%s takes %d input file%s, got %d"
            % (job.command, wants, "" if wants == 1 else "s", len(job.inputs))
        )
    if job.max_cycles < 1:
        raise UsageError("--max-cycles must be positive")
    if job.command == "closure" and not job.seed_file:
        raise UsageError("closure requires --seed-file")


# ---------------------------------------------------------------------------
# command handlers: each returns (ok, verdicts, certificates, exit_status)


def _passfail(flag: bool) -> str:
    return "pass" if flag else "fail"


def _cmd_check_qc(job: JobSpec):
    rep = parse_sheaf_file(job.inputs[0])
    report = is_quasi_coherent(rep)
    verdicts = [("quasi-coherent", _passfail(report.ok))]
    edges = []
    for ev in report.edges:
        edges.append(
            {
                "edge": fmt_vertex(ev.edge[0]) + "->" + fmt_vertex(ev.edge[1]),
                "well_defined": ev.well_defined,
                "surjective": ev.surjective,
                "injective": ev.injective,
            }
        )
    certificates = {
        "edges": edges,
        "squares_ok": report.squares_ok,
        "findings": list(report.findings),
    }
    return report.ok, verdicts, certificates, EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_closure(job: JobSpec):
    ambient = parse_sheaf_file(job.inputs[0])
    seed = parse_section_file(job.seed_file, ambient)
    result = qc_closure(ambient, seed, max_cycles=job.max_cycles)
    counts = {
        fmt_vertex(v): len(rows) for v, rows in result.sub.sections.items()
    }
    certificates = {
        "cycles": result.cycles,
        "trace": [list(map(list, cycle)) for cycle in result.trace],
        "generator_counts": counts,
        "pullback_witnesses": len(result.witnesses),
    }
    if not result.stabilized:
        verdicts = [("stabilized", "fail (budget %d exhausted)" % job.max_cycles)]
        return False, verdicts, certificates, EXIT_BUDGET
    ok = result.report.ok
    verdicts = [
        ("stabilized", "pass (cycle %d)" % result.cycles),
        ("sub-representation", _passfail(ok)),
    ]
    certificates["subrep_findings"] = list(result.report.findings)
    generators = {}
    for v, rows in result.sub.sections.items():
        generators[fmt_vertex(v)] = [" | ".join(poly_to_str(e) for e in row) for row in rows]
    certificates["generators"] = generators
    return ok, verdicts, certificates, EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_is_bundle(job: JobSpec):
    rep = parse_sheaf_file(job.inputs[0])
    qc = is_quasi_coherent(rep)
    if not qc.ok:
        verdicts = [("precondition quasi-coherent", "fail")]
        return False, verdicts, {"findings": list(qc.findings)}, EXIT_CHECK_FAILED
    report = is_vector_bundle(rep)
    verdicts = [
        ("vector-bundle", _passfail(report.is_bundle)),
        ("rank", str(report.rank) if report.rank is not None else "-"),
    ]
    certificates = {
        "charts": {str(k): v.verdict for k, v in report.certificates.items()},
        "findings": list(report.findings),
    }
    return report.is_bundle, verdicts, certificates, EXIT_OK if report.is_bundle else EXIT_CHECK_FAILED


def _cmd_serre_cover(job: JobSpec):
    rep = parse_sheaf_file(job.inputs[0])
    cover = serre_cover(rep)
    surjective = map_is_surjective(cover)
    verdicts = [("cover-surjective", _passfail(surjective))]
    certificates = {
        "source_degrees": list(cover.source.graded.degrees),
        "target_generators": {
            fmt_vertex(v): rep.modules[v].gens for v in rep.quiver.vertices
        },
    }
    return surjective, verdicts, certificates, EXIT_OK if surjective else EXIT_CHECK_FAILED


def _cmd_vdim_witness(job: JobSpec):
    rep = parse_sheaf_file(job.inputs[0])
    cover = serre_cover(rep)
    witness = vdim_le_one_witness(rep, cover)
    ex = witness.exactness
    verdicts = [
        ("cover-surjective", _passfail(ex.cover_surjective)),
        ("composite-zero", _passfail(ex.composite_zero)),
        ("kernel-covered", _passfail(ex.kernel_covered)),
        ("inclusion-injective", _passfail(ex.inclusion_injective)),
        ("kernel-bundle", _passfail(witness.kernel_bundle.is_bundle)),
        ("middle-bundle", _passfail(witness.middle_bundle.is_bundle)),
    ]
    certificates = {
        "kernel_rank": witness.kernel_bundle.rank,
        "middle_rank": witness.middle_bundle.rank,
        "findings": list(witness.findings),
    }
    return witness.ok, verdicts, certificates, EXIT_OK if witness.ok else EXIT_CHECK_FAILED


def _cmd_lazard(job: JobSpec):
    rep = parse_sheaf_file(job.inputs[0])
    cover = serre_cover(rep)
    seed = parse_section_file(job.seed_file, cover.source) if job.seed_file else None
    approx = lazard_approximation(rep, cover, SubRep(cover.source, seed))
    ok = (
        approx.qc.ok
        and approx.vdim.ok
        and approx.sub_bundle.is_bundle
    )
    verdicts = [
        ("sub-bundle", _passfail(approx.sub_bundle.is_bundle)),
        ("quotient-quasi-coherent", _passfail(approx.qc.ok)),
        ("quotient-vdim", _passfail(approx.vdim.ok)),
    ]
    certificates = {
        "sub_rank": approx.sub_bundle.rank,
        "comparison_is_iso": approx.is_iso,
        "quotient_generators": {
            fmt_vertex(v): approx.f_sub.modules[v].gens
            for v in approx.f_sub.quiver.vertices
        },
    }
    return ok, verdicts, certificates, EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_split_p1(job: JobSpec):
    field, rows = parse_transition_file(job.inputs[0], job.field)
    split = birkhoff_split(rows)
    sections = global_sections_dim(rows, split)
    agree = sections == h0_of_type(split.splitting_type)
    verdicts = [
        ("splitting-type", "(" + ",".join(str(a) for a in split.splitting_type) + ")"),
        ("sections-agree", _passfail(agree)),
    ]
    certificates = {
        "field": field_token(field),
        "type": list(split.splitting_type),
        "h0": sections,
        "left": [[laurent_to_str(e) for e in row] for row in split.left],
        "right": [[laurent_to_str(e) for e in row] for row in split.right],
    }
    return agree, verdicts, certificates, EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_filter_p1(job: JobSpec):
    field, rows = parse_transition_file(job.inputs[0], job.field)
    rep = bundle_from_transition(field, rows)
    filtration = line_bundle_filtration(rep)
    ok = filtration.ok
    verdicts = [
        ("splitting-type", "(" + ",".join(str(a) for a in filtration.splitting_type) + ")"),
        ("steps-verified", _passfail(ok)),
    ]
    certificates = {
        "field": field_token(field),
        "quotient_twists": list(filtration.splitting_type),
        "step_generator_counts": [
            {
                fmt_vertex(v): len(step.sections.get(v, ()))
                for v in rep.quiver.vertices
            }
            for step in filtration.steps
        ],
    }
    return ok, verdicts, certificates, EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_hill_verify(job: JobSpec):
    module, override = parse_filtered_file(job.inputs[0])
    if override is not None:
        lattice = family_from_supports(module, override)
    else:
        lattice = build_hill_family(module)
    report = verify_hill_properties(lattice)
    verdicts = [
        ("stages-in-family", _passfail(report.stages_present)),
        ("pairwise-closure", _passfail(report.lattice_closed)),
        ("block-chains", _passfail(report.chains_ok)),
        ("one-element-extensions", _passfail(report.extensions_ok)),
    ]
    certificates = {
        "members": len(lattice.members),
        "member_supports": [list(m.support) for m in lattice.members],
        "chains": report.chains,
        "extension_failures": report.failed_extensions,
        "findings": list(report.findings),
    }
    if report.lattice_witness is not None:
        kind, left, right = report.lattice_witness
        certificates["closure_witness"] = {
            "operation": kind,
            "left": list(left),
            "right": list(right),
        }
    return report.ok, verdicts, certificates, EXIT_OK if report.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# selftest


def _random_poly(rng: random.Random, ring: PolyRing, max_terms: int, max_deg: int) -> Poly:
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(ring.nvars)] += 1
        pairs.append((tuple(exp), rng.choice((-2, -1, 1, 2, 3))))
    return ring.collect(pairs)


def _selftest_groebner(rng: random.Random):
    for field in (Field.rationals(), Field.prime(5)):
        ring = PolyRing(field, ("x0", "x1"))
        for _ in range(3):
            gens = [(g,) for g in (_random_poly(rng, ring, 3, 3) for _ in range(3)) if not g.is_zero()]
            if not gens:
                continue
            basis = groebner_basis(gens, ring)
            again = groebner_basis(basis, ring)
            if set(basis) != set(again):
                return False, "reduced basis changed on recomputation"
    return True, "stable over Q and F5"


def _monomials_up_to(ring: PolyRing, degree: int):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d, slots - 1)

    rec([], degree, ring.nvars)
    return out


def _selftest_syzygies(rng: random.Random):
    """Every syzygy with coefficients of degree <= 3 must lie in the span
    of the computed kernel; found by exact linear algebra over the field."""
    quiver = build_proj_quiver(Field.rationals(), 2)
    chart = quiver.chart(frozenset({0}))
    ring = chart.ring
    field = ring.field
    for trial in range(3):
        nrows = rng.randint(2, 3)
        width = rng.randint(1, 2)
        rows = []
        for _ in range(nrows):
            rows.append(tuple(_random_poly(rng, ring, 2, 2) for _ in range(width)))
        if all(vec_is_zero(r) for r in rows):
            continue
        kernel = module_kernel(list(rows), [], ring, width)
        coefficients = FPModule(chart, nrows)
        coeff_monos = _monomials_up_to(ring, 3)
        unknowns = []
        for i in range(nrows):
            for m in coeff_monos:
                unknowns.append((i, m))
        eq_index = {}
        columns = []
        for i, m in unknowns:
            column = {}
            for pos, entry in enumerate(rows[i]):
                for exp, coeff in entry.terms.items():
                    key = (pos, tuple(a + b for a, b in zip(exp, m)))
                    eq_index.setdefault(key, len(eq_index))
                    column[key] = column.get(key, 0) + coeff
            columns.append(field.settle(column))
        nequations = len(eq_index)
        matrix = [[field.zero] * len(unknowns) for _ in range(nequations)]
        for j, column in enumerate(columns):
            for key, coeff in column.items():
                matrix[eq_index[key]][j] = coeff
        for vec in field_nullspace(field, matrix, len(unknowns)):
            syz = []
            for i in range(nrows):
                terms = {}
                for j, (owner, m) in enumerate(unknowns):
                    if owner == i and vec[j] != field.zero:
                        terms[m] = vec[j]
                syz.append(Poly(ring, terms))
            if not coefficients.in_span(kernel, (tuple(syz),)):
                return False, "missed a degree-3 syzygy on trial %d" % trial
    return True, "degree-3 syzygy spaces covered"


def _selftest_localization(rng: random.Random):
    """Kernels commute with chart localization: the localized kernel and
    the kernel of the localized matrix span the same submodule."""
    quiver = build_proj_quiver(Field.rationals(), 1)
    chart0 = quiver.chart(frozenset({0}))
    chart01 = quiver.chart(frozenset({0, 1}))
    hom = quiver.hom(frozenset({0}), frozenset({0, 1}))
    for trial in range(3):
        nrows = rng.randint(2, 3)
        width = 2
        rows = []
        for _ in range(nrows):
            rows.append(tuple(_random_poly(rng, chart0.ring, 2, 2) for _ in range(width)))
        kernel = module_kernel(list(rows), [], chart0.ring, width)
        rows_loc = hom.apply_rows(rows)
        kernel_loc = [hom.apply_vec(v) for v in kernel]
        kernel_afterwards = module_kernel(
            list(rows_loc), ideal_block(chart01, width), chart01.ring, width
        )
        coefficients = FPModule(chart01, nrows)
        if not coefficients.in_span(kernel_loc, kernel_afterwards):
            return False, "localized kernel misses a syzygy on trial %d" % trial
        if not coefficients.in_span(kernel_afterwards, kernel_loc):
            return False, "kernel shrank under localization on trial %d" % trial
    return True, "kernel localization exact"


def _selftest_roundtrip(rng: random.Random):
    del rng  # deterministic part
    quiver1 = build_proj_quiver(Field.rationals(), 1)
    cases = [
        structure_sheaf(quiver1),
        twist(build_proj_quiver(Field.rationals(), 2), 2),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for i, rep in enumerate(cases):
            text = sheafrep_text(rep)
            back = parse_sheaf_file(_write(tmp, "case%d.txt" % i, text))
            if not rep_equal(rep, back):
                return False, "graded round trip changed case %d" % i
            if sheafrep_text(back) != text:
                return False, "serialization is not canonical on case %d" % i
        # explicit (non-graded) grammar, exercising the square check
        rep = structure_sheaf(quiver1)
        bare = SheafRep(rep.quiver, rep.modules, rep.edge_maps, None)
        back = parse_sheaf_file(_write(tmp, "bare.txt", sheafrep_text(bare)))
        if not rep_equal(bare, back):
            return False, "explicit round trip changed the representation"
        # transition grammar and report determinism
        field = Field.rationals()
        rows = parse_transition_file(
            _write(tmp, "t.txt", "kind transition\nrows 2\ntrow s^2 | s\ntrow 0 | 1\n"),
            field,
        )[1]
        ttext = transition_text(field, rows)
        tpath = _write(tmp, "t2.txt", ttext)
        field2, rows2 = parse_transition_file(tpath, None)
        if rows2 != rows or transition_text(field2, rows2) != ttext:
            return False, "transition round trip changed the matrix"
        job = JobSpec(command="split-p1", inputs=(tpath,))
        first = run(job).machine_text()
        second = run(job).machine_text()
        if first != second:
            return False, "machine report is not deterministic"
    return True, "round trips canonical, reports deterministic"


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _cmd_selftest(job: JobSpec):
    parts = (
        ("groebner-idempotence", _selftest_groebner),
        ("syzygy-completeness-deg3", _selftest_syzygies),
        ("localization-exactness", _selftest_localization),
        ("format-roundtrip", _selftest_roundtrip),
    )
    verdicts = []
    details = {}
    ok = True
    for name, func in parts:
        rng = random.Random(job.rand_seed)
        good, detail = func(rng)
        ok = ok and good
        verdicts.append((name, _passfail(good)))
        details[name] = detail
    certificates = {"seed": job.rand_seed, "details": details}
    return ok, verdicts, certificates, EXIT_OK if ok else EXIT_CHECK_FAILED


_HANDLERS = {
    "check-qc": _cmd_check_qc,
    "closure": _cmd_closure,
    "is-bundle": _cmd_is_bundle,
    "serre-cover": _cmd_serre_cover,
    "vdim-witness": _cmd_vdim_witness,
    "lazard": _cmd_lazard,
    "split-p1": _cmd_split_p1,
    "filter-p1": _cmd_filter_p1,
    "hill-verify": _cmd_hill_verify,
    "selftest": _cmd_selftest,
}
COMMANDS = tuple(_HANDLERS)


def run(job: JobSpec) -> Report:
    """Execute one job and package the outcome; never raises for input
    problems (they become exit-status-2 reports) or for a failed self-check
    of the engine or any other exception (exit status 4)."""
    start = time.perf_counter()

    def finish(ok, exit_status, verdicts, certificates, inputs):
        ms = int((time.perf_counter() - start) * 1000)
        return Report(
            job.command,
            ok,
            exit_status,
            tuple(tuple(v) for v in verdicts),
            certificates,
            tuple(inputs),
            __version__,
            SCHEMA_VERSION,
            ms,
        )

    try:
        validate_job(job)
    except UsageError as err:
        return finish(False, EXIT_USAGE, [("usage", str(err))], {}, ())
    hashes = []
    paths = list(job.inputs)
    if job.seed_file:
        paths.append(job.seed_file)
    try:
        for path in paths:
            hashes.append((path, _sha256(path)))
    except OSError as err:
        return finish(False, EXIT_USAGE, [("input", str(err))], {}, ())
    try:
        ok, verdicts, certificates, exit_status = _HANDLERS[job.command](job)
    except ParseError as err:
        return finish(
            False,
            EXIT_USAGE,
            [(err.code + "-error", str(err))],
            {"line": err.line, "path": err.path},
            hashes,
        )
    except ValueError as err:
        return finish(False, EXIT_USAGE, [("error", str(err))], {}, hashes)
    except Exception as err:
        # a failed self-check of the engine, or any other defect: not a
        # failed check, and never a traceback
        verdict = "%s: %s" % (type(err).__name__, err)
        return finish(False, EXIT_INTERNAL, [("internal-error", verdict)], {}, hashes)
    return finish(ok, exit_status, verdicts, certificates, hashes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsheaf",
        description="exact sheaf-as-quiver verification toolkit",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("inputs", nargs="*", help="input files for the command")
    parser.add_argument(
        "--field",
        type=parse_field_token,
        default=None,
        help="coefficient field for files that omit one: Q or Fp:<p>",
    )
    parser.add_argument("--max-cycles", type=int, default=MAX_CYCLES, help="closure cycle budget")
    parser.add_argument("--seed-file", default=None, help="sections file for closure/lazard")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--machine", action="store_true", help="canonical JSON report body")
    parser.add_argument("--rand-seed", type=int, default=0, help="seed for randomized self-tests")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    job = JobSpec(
        command=args.command,
        inputs=tuple(args.inputs),
        field=args.field,
        max_cycles=args.max_cycles,
        seed_file=args.seed_file,
        out=args.out,
        machine=args.machine,
        rand_seed=args.rand_seed,
        verbose=args.verbose,
    )
    report = run(job)
    body = report.machine_text() if job.machine else report.human_text()
    if job.out:
        # a report that cannot be written is a usage error, not a failed check
        try:
            with open(job.out, "w", encoding="utf-8") as handle:
                handle.write(body)
        except OSError as err:
            sys.stderr.write("qsheaf: cannot write %s: %s\n" % (job.out, err.strerror or err))
            return EXIT_USAGE
    else:
        sys.stdout.write(body)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
