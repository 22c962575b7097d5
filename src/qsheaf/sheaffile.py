"""Line-oriented textual formats for the toolkit's objects.

One self-describing format family covers every input the command line
accepts.  Files are plain text: '#' starts a comment, blank lines are
skipped, and the first significant line must be `kind <name>` with name
one of

  graded      a graded presentation to sheafify (field, ambient n,
              optional subscheme ideal, generator degrees, relation rows)
  sheafrep    an explicit representation (per-vertex presentations and
              per-edge matrices in chart coordinates)
  sections    lists of module elements keyed by vertex, used as closure
              seeds and sub-representation generators
  transition  a square matrix of Laurent polynomials in s for bundles on
              the projective line
  filtered    a filtered module over a prime field, with optional
              nilpotent operator and an optional explicit family listing

Matrix rows put entries between '|' separators; polynomial entries use
the canonical textual form (x0..xn upstairs, z<j>/u<i> on charts, s for
Laurent entries), all read by exactpoly.terms_from_str, with negative
exponents only in Laurent entries.  Every parse error is raised by the
line that carries it (_Line.error), and is either a syntax error (bad
tokens) or a semantic error (well-formed lines that violate an invariant:
wrong widths, foreign rings, non-commuting squares, mismatched stages).
An error no one line carries, such as a missing line, is raised by the
first or last significant line after the kind line, or by the kind line
when there is none; only a file with no significant line reports line 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .bundles import laurent_from_str, laurent_to_str
from .charts import FPModule, is_homogeneous
from .closure import make_section_set
from .exactpoly import Field, poly_from_str, poly_to_str
from .hill import (
    FilteredModule,
    FilteredModuleError,
    HillLattice,
    assemble_family,
    fp_rref,
    make_filtered_module,
)
from .sheafrep import (
    ProjQuiver,
    SheafRep,
    _squares_agree,
    build_proj_quiver,
    check_graded_row,
    fmt_vertex,
    graded_sheaf,
    make_sheaf_rep,
)

KINDS = ("graded", "sheafrep", "sections", "transition", "filtered")

SYNTAX = "syntax"
SEMANTIC = "semantic"


class ParseError(ValueError):
    """A file failed to parse; .code distinguishes syntax from semantics."""

    def __init__(self, path: str, line: int, message: str, code: str = SYNTAX):
        self.path = path
        self.line = line
        self.code = code
        super().__init__("%s:%d: %s error: %s" % (path, line, code, message))


@dataclass(frozen=True)
class _Line:
    path: str
    number: int
    tokens: tuple
    text: str

    def error(self, message: str, code: str = SYNTAX) -> ParseError:
        """The error this line carries, for the caller to raise."""
        return ParseError(self.path, self.number, message, code)


def _read_lines(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    out = []
    for number, text in enumerate(raw.splitlines(), start=1):
        body = text.split("#", 1)[0].strip()
        if not body:
            continue
        out.append(_Line(path, number, tuple(body.split()), body))
    return out


def _take_kind(path, lines, expected):
    """The kind line, which must name one of the expected kinds, and the
    lines after it."""
    if not lines:
        raise ParseError(path, 1, "empty file, expected a kind line")
    first = lines[0]
    if first.tokens[0] != "kind" or len(first.tokens) != 2:
        raise first.error("expected 'kind <name>'")
    kind = first.tokens[1]
    if kind not in KINDS:
        raise first.error("unknown kind %r" % kind)
    if kind not in expected:
        raise first.error("expected a file of kind %s, got %r" % ("/".join(expected), kind), SEMANTIC)
    return first, lines[1:]


def parse_field_token(text: str) -> Field:
    """Q for the rationals, Fp:<p> for a prime field."""
    if text == "Q":
        return Field.rationals()
    match = re.fullmatch(r"Fp:(\d+)", text)
    if match:
        return Field.prime(int(match.group(1)))
    raise ValueError("field must be Q or Fp:<p>, got %r" % text)


def field_token(field: Field) -> str:
    return "Q" if field.char == 0 else "Fp:%d" % field.char


def _parse_int(line, text, what):
    try:
        return int(text)
    except ValueError:
        raise line.error("%s must be an integer, got %r" % (what, text))


def _parse_value(line, placeholder, what, old):
    """The integer of a one-value header line such as 'n 2'; old is the
    value of an earlier line of that key, and a repeat is refused."""
    if old is not None:
        raise line.error("duplicate %r line" % line.tokens[0], SEMANTIC)
    if len(line.tokens) != 2:
        raise line.error("expected '%s <%s>'" % (line.tokens[0], placeholder))
    return _parse_int(line, line.tokens[1], what)


def _nonnegative(line, value, message):
    """value, refused on its own line with message when it is negative."""
    if value < 0:
        raise line.error(message, SEMANTIC)
    return value


def _parse_entry(line, parse, text):
    try:
        return parse(text)
    except ValueError as err:
        raise line.error(str(err))


def _parse_field_line(line, old) -> Field:
    """The field of a 'field' line; old is the field of an earlier one,
    and a repeat is refused."""
    if old is not None:
        raise line.error("duplicate 'field' line", SEMANTIC)
    if len(line.tokens) != 2:
        raise line.error("expected 'field Q' or 'field Fp:<p>'")
    return _parse_entry(line, parse_field_token, line.tokens[1])


def _parse_row(line, skip, width, what, parse):
    """A matrix row line: everything after the first `skip` tokens, split
    on '|' into `width` entries, each read with `parse`."""
    rest = line.text.split(None, skip)[skip] if len(line.tokens) > skip else ""
    entries = [chunk.strip() for chunk in rest.split("|")] if rest else []
    if len(entries) != width:
        raise line.error("%s has %d entries, expected %d" % (what, len(entries), width), SEMANTIC)
    return tuple(_parse_entry(line, parse, e) for e in entries)


def _parse_vertex(line, token, quiver: Optional[ProjQuiver]):
    match = re.fullmatch(r"\{(\d+(,\d+)*)\}", token)
    if not match:
        raise line.error("malformed vertex %r" % token)
    v = frozenset(int(t) for t in match.group(1).split(","))
    if quiver is not None and v not in set(quiver.vertices):
        raise line.error("no vertex %s in this quiver" % token, SEMANTIC)
    return v


# ---------------------------------------------------------------------------
# headers shared by graded and sheafrep files


def _parse_header(kind_line, lines):
    field = None
    n = None
    n_line = None
    ideal_texts = []
    body = []
    for line in lines:
        key = line.tokens[0]
        if key == "field":
            field = _parse_field_line(line, field)
        elif key == "n":
            n = _parse_value(line, "int", "ambient dimension", n)
            n_line = line
        elif key == "ideal":
            ideal_texts.append((line, line.text.split(None, 1)[1] if len(line.tokens) > 1 else ""))
        else:
            body.append(line)
    first = (lines or [kind_line])[0]
    kind = kind_line.tokens[1]
    if field is None:
        raise first.error("missing 'field' line in %s file" % kind, SEMANTIC)
    if n is None:
        raise first.error("missing 'n' line in %s file" % kind, SEMANTIC)
    try:
        quiver = build_proj_quiver(field, n)
    except ValueError as err:
        raise n_line.error(str(err), SEMANTIC)
    gens = []
    for line, text in ideal_texts:
        g = _parse_entry(line, partial(poly_from_str, quiver.xring), text)
        if not is_homogeneous(g):
            raise line.error("subscheme generator is not homogeneous", SEMANTIC)
        gens.append(g)
    if gens:
        quiver = build_proj_quiver(field, n, tuple(gens))
    return quiver, body


# ---------------------------------------------------------------------------
# graded files


def _parse_graded(kind_line, quiver, body) -> SheafRep:
    degrees = None
    degrees_line = kind_line
    rows = []
    for line in body:
        key = line.tokens[0]
        if key == "degrees":
            if degrees is not None:
                raise line.error("duplicate 'degrees' line", SEMANTIC)
            degrees = tuple(_parse_int(line, t, "degree") for t in line.tokens[1:])
            degrees_line = line
        elif key == "relation":
            rows.append(line)
        else:
            raise line.error("unexpected %r in a graded file" % key)
    if not degrees:
        raise degrees_line.error("a graded file needs a nonempty 'degrees' line", SEMANTIC)
    parse = partial(poly_from_str, quiver.xring)
    parsed_rows = []
    for line in rows:
        row = _parse_row(line, 1, len(degrees), "relation row", parse)
        try:
            check_graded_row(row, degrees)
        except ValueError as err:
            raise line.error(str(err), SEMANTIC)
        parsed_rows.append(row)
    return graded_sheaf(quiver, degrees, tuple(parsed_rows))


# ---------------------------------------------------------------------------
# sheafrep files


def _parse_sheafrep(kind_line, quiver, body) -> SheafRep:
    gens = {}
    rels = {}
    edge_rows = {}
    decl_lines = {}
    for line in body:
        key = line.tokens[0]
        if key == "vertex":
            if len(line.tokens) != 4 or line.tokens[2] != "gens":
                raise line.error("expected 'vertex {v} gens <count>'")
            v = _parse_vertex(line, line.tokens[1], quiver)
            if v in gens:
                raise line.error("vertex %s declared twice" % fmt_vertex(v), SEMANTIC)
            count = _parse_int(line, line.tokens[3], "generator count")
            gens[v] = _nonnegative(line, count, "negative generator count")
            rels[v] = []
            decl_lines[v] = line
        elif key == "vrel":
            if len(line.tokens) < 2:
                raise line.error("expected 'vrel {v} <entries>'")
            v = _parse_vertex(line, line.tokens[1], quiver)
            if v not in gens:
                raise line.error("vrel before 'vertex' line for %s" % fmt_vertex(v), SEMANTIC)
            what = "relation at %s" % fmt_vertex(v)
            parse = partial(poly_from_str, quiver.chart(v).ring)
            rels[v].append(_parse_row(line, 2, gens[v], what, parse))
        elif key == "edge":
            if len(line.tokens) != 3:
                raise line.error("expected 'edge {v} {w}'")
            v = _parse_vertex(line, line.tokens[1], quiver)
            w = _parse_vertex(line, line.tokens[2], quiver)
            if (v, w) not in set(quiver.edges):
                raise line.error("%s->%s is not a generating edge" % (fmt_vertex(v), fmt_vertex(w)), SEMANTIC)
            if (v, w) in edge_rows:
                raise line.error("edge declared twice", SEMANTIC)
            edge_rows[(v, w)] = []
            decl_lines[(v, w)] = line
        elif key == "erow":
            if len(line.tokens) < 3:
                raise line.error("expected 'erow {v} {w} <entries>'")
            v = _parse_vertex(line, line.tokens[1], quiver)
            w = _parse_vertex(line, line.tokens[2], quiver)
            if (v, w) not in edge_rows:
                raise line.error("erow before its 'edge' line", SEMANTIC)
            if w not in gens:
                raise line.error("erow before 'vertex' line for the target", SEMANTIC)
            parse = partial(poly_from_str, quiver.chart(w).ring)
            edge_rows[(v, w)].append(_parse_row(line, 3, gens[w], "edge row", parse))
        else:
            raise line.error("unexpected %r in a sheafrep file" % key)
    last = (body or [kind_line])[-1]
    modules = {}
    for v in quiver.vertices:
        if v not in gens:
            raise last.error("missing vertex %s" % fmt_vertex(v), SEMANTIC)
        modules[v] = FPModule(quiver.chart(v), gens[v], tuple(rels[v]))
    for e in quiver.edges:
        if e not in edge_rows:
            raise last.error("missing edge %s->%s" % (fmt_vertex(e[0]), fmt_vertex(e[1])), SEMANTIC)
        if len(edge_rows[e]) != gens[e[0]]:
            raise decl_lines[e].error(
                "edge %s->%s has %d rows, expected %d"
                % (fmt_vertex(e[0]), fmt_vertex(e[1]), len(edge_rows[e]), gens[e[0]]),
                SEMANTIC,
            )
    try:
        rep = make_sheaf_rep(quiver, modules, edge_rows)
    except ValueError as err:
        raise last.error(str(err), SEMANTIC)
    violations = _squares_agree(rep)
    if violations:
        raise last.error(violations[0], SEMANTIC)
    return rep


def parse_sheaf_file(path: str) -> SheafRep:
    """Parse a graded or sheafrep file into a validated representation."""
    kind_line, rest = _take_kind(path, _read_lines(path), ("graded", "sheafrep"))
    quiver, body = _parse_header(kind_line, rest)
    if kind_line.tokens[1] == "graded":
        return _parse_graded(kind_line, quiver, body)
    return _parse_sheafrep(kind_line, quiver, body)


# ---------------------------------------------------------------------------
# sections files


def parse_section_file(path: str, rep: SheafRep) -> dict:
    """Parse sections against the representation they are sections of:
    {vertex: tuple of elements}, as make_section_set returns them."""
    kind_line, rest = _take_kind(path, _read_lines(path), ("sections",))
    mapping = {}
    for line in rest:
        if line.tokens[0] != "section":
            raise line.error("expected 'section {v} <entries>'")
        if len(line.tokens) < 2:
            raise line.error("section line needs a vertex")
        v = _parse_vertex(line, line.tokens[1], rep.quiver)
        what = "section at %s" % fmt_vertex(v)
        parse = partial(poly_from_str, rep.quiver.chart(v).ring)
        mapping.setdefault(v, []).append(_parse_row(line, 2, rep.modules[v].gens, what, parse))
    try:
        return make_section_set(rep, mapping)
    except ValueError as err:
        raise (rest or [kind_line])[-1].error(str(err), SEMANTIC)


# ---------------------------------------------------------------------------
# transition files


def parse_transition_file(path: str, default_field: Optional[Field] = None):
    """Parse an r x r Laurent matrix; returns (field, rows)."""
    kind_line, rest = _take_kind(path, _read_lines(path), ("transition",))
    field = None
    size = None
    rows = []
    for line in rest:
        key = line.tokens[0]
        if key == "field":
            if rows:
                raise line.error("'field' line after a trow", SEMANTIC)
            field = _parse_field_line(line, field)
        elif key == "rows":
            size = _parse_value(line, "count", "row count", size)
            _nonnegative(line, size, "negative row count")
        elif key == "trow":
            if field is None:
                field = default_field or Field.rationals()
            if size is None:
                raise line.error("trow before the 'rows' line", SEMANTIC)
            rows.append(_parse_row(line, 1, size, "row", partial(laurent_from_str, field)))
        else:
            raise line.error("unexpected %r in a transition file" % key)
    if field is None:
        field = default_field or Field.rationals()
    last = (rest or [kind_line])[-1]
    if size is None:
        raise last.error("missing 'rows' line", SEMANTIC)
    if len(rows) != size:
        raise last.error("matrix has %d rows, expected %d" % (len(rows), size), SEMANTIC)
    return field, tuple(rows)


# ---------------------------------------------------------------------------
# filtered files


def parse_filtered_file(path: str):
    """Parse a filtered module; returns (module, family_override) where the
    override is None or a tuple of explicit member supports."""
    kind_line, rest = _take_kind(path, _read_lines(path), ("filtered",))
    p = None
    dim = None
    oprows = []
    blocks = []
    stages = {}
    vectors = []  # (line, what, row) for every row checked against dim
    members = None
    # the line each refusal of make_filtered_module concerns: the 'p' line,
    # the first oprow and the first row of each block (dim is refused here)
    concerns = {}
    for line in rest:
        key = line.tokens[0]
        if key == "p":
            p = _parse_value(line, "prime", "characteristic", p)
            concerns["p"] = line
        elif key == "dim":
            dim = _parse_value(line, "int", "dimension", dim)
            _nonnegative(line, dim, "negative ambient dimension")
        elif key == "oprow":
            row = tuple(_parse_int(line, t, "operator entry") for t in line.tokens[1:])
            oprows.append((line, row))
            vectors.append((line, "operator", row))
            concerns.setdefault("operator", line)
        elif key in ("block", "stage"):
            if len(line.tokens) < 2:
                raise line.error("expected '%s <index> <entries>'" % key)
            idx = _parse_int(line, line.tokens[1], key + " index")
            vec = tuple(_parse_int(line, t, key + " entry") for t in line.tokens[2:])
            vectors.append((line, key, vec))
            if key == "stage":
                stages.setdefault(idx, (line, []))[1].append(vec)
            elif idx == len(blocks):
                blocks.append([vec])
                concerns[idx] = line
            elif idx < 0 or idx != len(blocks) - 1:
                raise line.error("block indices must be contiguous from 0", SEMANTIC)
            else:
                blocks[idx].append(vec)
        elif key == "member":
            if members is None:
                members = []
            if line.tokens[1:] == ("-",):
                members.append((line, ()))
            else:
                members.append((line, tuple(_parse_int(line, t, "member index") for t in line.tokens[1:])))
        else:
            raise line.error("unexpected %r in a filtered file" % key)
    first = (rest or [kind_line])[0]
    if p is None:
        raise first.error("missing 'p' line", SEMANTIC)
    if dim is None:
        raise first.error("missing 'dim' line", SEMANTIC)
    if oprows and len(oprows) != dim:
        raise oprows[-1][0].error("operator has %d rows, expected %d" % (len(oprows), dim), SEMANTIC)
    for line, what, row in vectors:
        if len(row) != dim:
            raise line.error("%s row has wrong width" % what, SEMANTIC)
    operator = tuple(row for _, row in oprows) if oprows else None
    try:
        module = make_filtered_module(p, dim, tuple(tuple(b) for b in blocks), operator)
    except FilteredModuleError as err:
        raise concerns[err.concerns].error(str(err), SEMANTIC)
    for idx, (line, rows) in sorted(stages.items()):
        if idx < 0 or idx >= len(module.stages):
            raise line.error("no stage %d in this filtration" % idx, SEMANTIC)
        if fp_rref(p, rows) != module.stages[idx]:
            raise line.error("stage %d does not match the filtration" % idx, SEMANTIC)
    override = None
    if members is not None:
        supports = []
        for line, supp in members:
            if any(i < 0 or i >= module.sigma for i in supp):
                raise line.error("member support out of range", SEMANTIC)
            supports.append(tuple(sorted(set(supp))))
        override = tuple(supports)
    return module, override


def family_from_supports(module: FilteredModule, supports) -> HillLattice:
    """Assemble an explicitly listed family (no closedness filtering); used
    for shipped fixtures, including deliberately broken ones.  A space
    listed under several supports keeps the first."""
    return assemble_family(module, supports, union=False)


# ---------------------------------------------------------------------------
# serializers


def _matrix_lines(prefix, rows, to_str):
    out = []
    for row in rows:
        out.append(prefix + " " + " | ".join(to_str(e) for e in row))
    return out


def sheafrep_text(rep: SheafRep) -> str:
    """Canonical text for a representation; graded ones keep their graded
    header so the round trip preserves the presentation."""
    quiver = rep.quiver
    lines = []
    if rep.graded is not None:
        lines.append("kind graded")
        lines.append("field " + field_token(quiver.field))
        lines.append("n %d" % quiver.n)
        for g in quiver.ideal_gens:
            lines.append("ideal " + poly_to_str(g))
        lines.append("degrees " + " ".join(str(d) for d in rep.graded.degrees))
        lines.extend(_matrix_lines("relation", rep.graded.rows, poly_to_str))
        return "\n".join(lines) + "\n"
    lines.append("kind sheafrep")
    lines.append("field " + field_token(quiver.field))
    lines.append("n %d" % quiver.n)
    for g in quiver.ideal_gens:
        lines.append("ideal " + poly_to_str(g))
    for v in quiver.vertices:
        mod = rep.modules[v]
        lines.append("vertex %s gens %d" % (fmt_vertex(v), mod.gens))
        lines.extend(_matrix_lines("vrel " + fmt_vertex(v), mod.relations, poly_to_str))
    for (v, w) in quiver.edges:
        lines.append("edge %s %s" % (fmt_vertex(v), fmt_vertex(w)))
        lines.extend(
            _matrix_lines("erow %s %s" % (fmt_vertex(v), fmt_vertex(w)), rep.edge_maps[(v, w)], poly_to_str)
        )
    return "\n".join(lines) + "\n"


def sections_text(sections) -> str:
    """Text for element lists keyed by vertex."""
    lines = ["kind sections"]
    for v in sorted(sections, key=lambda s: (len(s), tuple(sorted(s)))):
        for vec in sections[v]:
            lines.append("section %s %s" % (fmt_vertex(v), " | ".join(poly_to_str(e) for e in vec)))
    return "\n".join(lines) + "\n"


def transition_text(field: Field, rows) -> str:
    lines = ["kind transition", "field " + field_token(field), "rows %d" % len(rows)]
    lines.extend(_matrix_lines("trow", rows, laurent_to_str))
    return "\n".join(lines) + "\n"


def filtered_text(module: FilteredModule, supports=None) -> str:
    """Text for a filtered module: blocks, derived stage bases (checked on
    reparse), the optional operator, and an optional explicit family."""
    lines = ["kind filtered", "p %d" % module.p, "dim %d" % module.dim]
    if module.operator is not None:
        for row in module.operator:
            lines.append("oprow " + " ".join(str(e) for e in row))
    for idx, block in enumerate(module.blocks):
        for vec in block:
            lines.append("block %d %s" % (idx, " ".join(str(e) for e in vec)))
    for idx, stage in enumerate(module.stages):
        for vec in stage:
            lines.append("stage %d %s" % (idx, " ".join(str(e) for e in vec)))
    if supports is not None:
        for supp in supports:
            lines.append("member " + (" ".join(str(i) for i in supp) if supp else "-"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structural equality across separately built quivers


def rep_equal(a: SheafRep, b: SheafRep) -> bool:
    """Structural equality: same field, ambient, subscheme, presentations,
    edge matrices, and graded data.  Chart objects are cached per quiver,
    so dataclass equality cannot compare representations parsed twice;
    this compares the underlying polynomials, which carry ring identity
    structurally."""
    qa, qb = a.quiver, b.quiver
    if qa.field != qb.field or qa.n != qb.n:
        return False
    if tuple(qa.ideal_gens) != tuple(qb.ideal_gens):
        return False
    for v in qa.vertices:
        ma, mb = a.modules[v], b.modules[v]
        if ma.gens != mb.gens or tuple(ma.relations) != tuple(mb.relations):
            return False
    for e in qa.edges:
        if tuple(a.edge_maps[e]) != tuple(b.edge_maps[e]):
            return False
    if (a.graded is None) != (b.graded is None):
        return False
    if a.graded is not None:
        if a.graded.degrees != b.graded.degrees or tuple(a.graded.rows) != tuple(b.graded.rows):
            return False
    return True
