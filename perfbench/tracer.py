"""Outside-in tracer for qsheaf: wraps the public functions and methods at
each module boundary, records one span per call, and restores every
original when uninstalled.

A span is (name, start, end, parent, job).  Spans stay in memory in flat
arrays while the traced jobs run; `write_tsv` writes them out afterwards and
`layer_metrics` reduces them to the per-layer metrics of BENCHMARK.json.

Each wrapper is installed in every `qsheaf.*` module that binds the original
object, so `from .exactpoly import module_kernel` in another module is
traced too.  Polynomial, vector and field arithmetic is never wrapped: its
time is self time of the calling span.  `enumerate_space` is a generator;
its wrapper counts the vectors it yields and records no span.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("exactpoly", "charts", "sheafrep", "closure", "bundles", "hill", "sheaffile", "cli")

# Traced boundaries, by home module: the public functions and methods a CLI
# job reaches, plus sheafrep._squares_agree, which sheaffile imports.
# Functions no command reaches (map_commutes, localize_module, edge_closure,
# the serializers, ...) are left out, so every wrapper is exercised.
TARGETS = {
    "exactpoly": (
        "groebner_basis", "normal_form", "reduce_vec", "syzygies", "module_kernel",
        "ideal_contains_one", "poly_from_str", "poly_to_str",
        "TrackedBasis.__init__", "TrackedBasis.lift", "PresIdeal.groebner",
    ),
    "charts": (
        "make_chart_ring", "chart_hom", "ideal_block", "span_gb", "span_contains",
        "ChartRing.__init__", "ChartRing.nf", "ChartRing.relation_gb", "ChartRing.is_zero_ring",
        "ChartHom.__init__", "ChartHom.apply_vec", "FPModule.relation_gb",
    ),
    "sheafrep": (
        "build_proj_quiver", "make_sheaf_rep", "graded_sheaf", "is_quasi_coherent",
        "_squares_agree", "make_sheaf_map", "map_is_surjective", "map_is_injective",
        "map_is_iso", "kernel",
    ),
    "closure": (
        "make_section_set", "pullback_witness", "qc_closure", "induced_rep", "verify_subrep",
        "SubRep.add", "SubRep.span", "SubRep.contains",
    ),
    "bundles": (
        "is_projective_fp", "is_vector_bundle", "serre_cover", "vdim_le_one_witness",
        "lazard_approximation", "laurent_to_str", "laurent_from_str", "verify_birkhoff",
        "birkhoff_split", "h0_of_type", "transition_matrix", "bundle_from_transition",
        "global_sections_dim", "line_bundle_filtration",
    ),
    "hill": (
        "fp_rref", "fp_in_span", "fp_sum", "fp_intersect", "fp_nullspace", "fp_solve",
        "closed_span", "make_filtered_module", "build_hill_family", "quotient_partition",
        "verify_hill_properties",
    ),
    "sheaffile": (
        "parse_field_token", "field_token", "parse_sheaf_file", "parse_section_file",
        "parse_transition_file", "parse_filtered_file", "family_from_supports",
    ),
    "cli": ("run", "validate_job", "Report.machine_text"),
}
COUNTED_GENERATORS = {"hill": ("enumerate_space",)}

GB = "exactpoly.groebner_basis"
TRACKED = "exactpoly.TrackedBasis.__init__"
BASIS_BUILDERS = (GB, "charts.span_gb")
PARSERS = (
    "sheaffile.parse_sheaf_file", "sheaffile.parse_section_file",
    "sheaffile.parse_transition_file", "sheaffile.parse_filtered_file",
)
MAP_CHECKS = ("sheafrep.map_is_surjective", "sheafrep.map_is_injective", "sheafrep.map_is_iso")
RELATION_GB = ("charts.ChartRing.relation_gb", "charts.FPModule.relation_gb")


class Tracer:
    """Span recorder.  `install()` patches qsheaf; `uninstall()` restores
    every original; `job` tags the spans of the job being run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.job_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.job = -1
        self.counts = Counter()
        self._patched: list = []

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("qsheaf.") and m]
        for layer, attrs in TARGETS.items():
            home = sys.modules["qsheaf." + layer]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._span(layer + "." + attr, orig))
                else:
                    orig = getattr(home, attr)
                    wrapper = self._span(layer + "." + attr, orig)
                    for mod in modules:
                        if mod.__dict__.get(attr) is orig:
                            self._patch(mod, attr, orig, wrapper)
        for layer, attrs in COUNTED_GENERATORS.items():
            home = sys.modules["qsheaf." + layer]
            for attr in attrs:
                orig = getattr(home, attr)
                wrapper = self._counted(layer + "." + attr, orig)
                for mod in modules:
                    if mod.__dict__.get(attr) is orig:
                        self._patch(mod, attr, orig, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def _patch(self, owner, attr, orig, wrapper):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn):
        nid = self._id(name)
        post = _POST.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec.stack
            idx = len(rec.name_id)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.job_of.append(rec.job)
            rec.start.append(0.0)
            rec.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1
            if post is not None:
                post(rec, idx, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                rec.counts[name + ".vectors"] += 1
                yield item

        return wrapper

    # -- output ------------------------------------------------------------

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.name_id)):
                handle.write(
                    "%s\t%.9f\t%.9f\t%d\t%d\n"
                    % (self.names[self.name_id[i]], self.start[i], self.end[i],
                       self.parent[i], self.job_of[i])
                )

    def layer_metrics(self):
        """Per-layer metrics (BENCHMARK.json `per_layer`, except
        trace.overhead_frac) from the recorded spans."""
        n = len(self.name_id)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        gb_child = [False] * n
        calls = Counter()
        total = Counter()
        self_by_name = Counter()
        root = 0.0
        for i in range(n):
            name = names[self.name_id[i]]
            calls[name] += 1
            total[name] += dur[i]
            par = self.parent[i]
            if par < 0:
                root += dur[i]
            else:
                child[par] += dur[i]
                if name in BASIS_BUILDERS:
                    gb_child[par] = True
        layer_self = Counter()
        misses = 0
        for i in range(n):
            name = names[self.name_id[i]]
            own = dur[i] - child[i]
            self_by_name[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if name in RELATION_GB and gb_child[i]:
                misses += 1

        def frac(num, den):
            return num / den if den else 0.0

        c = self.counts
        m = {}
        for layer in LAYERS:
            m[layer + ".self_s"] = layer_self[layer]
            m[layer + ".self_frac"] = frac(layer_self[layer], root)
        m.update({
            "exactpoly.groebner_basis.calls": calls[GB],
            "exactpoly.groebner_basis.total_s": total[GB],
            "exactpoly.tracked_basis.calls": calls[TRACKED],
            "exactpoly.tracked_basis.total_s": total[TRACKED],
            "exactpoly.lift.calls": calls["exactpoly.TrackedBasis.lift"],
            "exactpoly.lift.total_s": total["exactpoly.TrackedBasis.lift"],
            "exactpoly.normal_form.calls": calls["exactpoly.normal_form"],
            "exactpoly.normal_form.total_s": total["exactpoly.normal_form"],
            "exactpoly.syzygies.calls": calls["exactpoly.syzygies"],
            "exactpoly.reduce_vec.calls": calls["exactpoly.reduce_vec"],
            "exactpoly.reduce_vec.self_s": self_by_name["exactpoly.reduce_vec"],
            "exactpoly.gb_reductions.zero_frac": frac(c["gb_zero"], c["gb_reductions"]),
            "exactpoly.tracked_reductions.zero_frac": frac(c["tracked_zero"], c["tracked_reductions"]),
            "charts.span_gb.calls": calls["charts.span_gb"],
            "charts.span_contains.calls": calls["charts.span_contains"],
            "charts.nf.calls": calls["charts.ChartRing.nf"],
            "charts.relation_gb.calls": sum(calls[k] for k in RELATION_GB),
            "charts.relation_gb.miss_frac": frac(misses, sum(calls[k] for k in RELATION_GB)),
            "sheafrep.is_quasi_coherent.calls": calls["sheafrep.is_quasi_coherent"],
            "sheafrep.is_quasi_coherent.total_s": total["sheafrep.is_quasi_coherent"],
            "sheafrep.kernel.calls": calls["sheafrep.kernel"],
            "sheafrep.map_checks.calls": sum(calls[k] for k in MAP_CHECKS),
            "closure.qc_closure.total_s": total["closure.qc_closure"],
            "closure.pullback_witness.calls": calls["closure.pullback_witness"],
            "closure.verify_subrep.calls": calls["closure.verify_subrep"],
            "closure.subrep_add.accepted_frac": frac(c["subrep_accepted"], calls["closure.SubRep.add"]),
            "bundles.is_projective_fp.calls": calls["bundles.is_projective_fp"],
            "bundles.birkhoff_split.total_s": total["bundles.birkhoff_split"],
            "bundles.line_bundle_filtration.total_s": total["bundles.line_bundle_filtration"],
            "bundles.vdim_le_one_witness.total_s": total["bundles.vdim_le_one_witness"],
            "hill.fp_rref.calls": calls["hill.fp_rref"],
            "hill.fp_solve.calls": calls["hill.fp_solve"],
            "hill.closed_span.calls": calls["hill.closed_span"],
            "hill.fp_in_span.calls": calls["hill.fp_in_span"],
            "hill.enumerate_space.vectors": c["hill.enumerate_space.vectors"],
            "hill.build_hill_family.total_s": total["hill.build_hill_family"],
            "hill.verify_hill_properties.total_s": total["hill.verify_hill_properties"],
            "sheaffile.parse.calls": sum(calls[k] for k in PARSERS),
            "cli.report.total_s": total["cli.Report.machine_text"],
        })
        return m

    def span_counts(self):
        """Calls per span name: deterministic for a fixed job list."""
        return Counter(self.names[i] for i in self.name_id)


def _post_reduce_vec(rec, idx, args, kwargs, result):
    par = rec.parent[idx]
    if par < 0:
        return
    parent = rec.names[rec.name_id[par]]
    if parent == GB:
        key = "gb"
    elif parent == TRACKED:
        key = "tracked"
    else:
        return
    track = kwargs.get("track", args[3] if len(args) > 3 else False)
    remainder = result[0] if track else result
    rec.counts[key + "_reductions"] += 1
    if all(not entry.terms for entry in remainder):
        rec.counts[key + "_zero"] += 1


def _post_subrep_add(rec, idx, args, kwargs, result):
    if result:
        rec.counts["subrep_accepted"] += 1


_POST = {"exactpoly.reduce_vec": _post_reduce_vec, "closure.SubRep.add": _post_subrep_add}
