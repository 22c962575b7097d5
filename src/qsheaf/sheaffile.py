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
exponents only in Laurent entries.  Parse errors carry the offending line
number and are either syntax errors (bad tokens) or semantic errors
(well-formed lines that violate an invariant: wrong widths, foreign rings,
non-commuting squares, mismatched stages).
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
from .hill import FilteredModule, HillLattice, assemble_family, fp_rref, make_filtered_module
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
    number: int
    tokens: tuple
    text: str


def _read_lines(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    out = []
    for number, text in enumerate(raw.splitlines(), start=1):
        body = text.split("#", 1)[0].strip()
        if not body:
            continue
        out.append(_Line(number, tuple(body.split()), body))
    return out


def _take_kind(path, lines, expected=None):
    if not lines:
        raise ParseError(path, 1, "empty file, expected a kind line")
    first = lines[0]
    if first.tokens[0] != "kind" or len(first.tokens) != 2:
        raise ParseError(path, first.number, "expected 'kind <name>'")
    kind = first.tokens[1]
    if kind not in KINDS:
        raise ParseError(path, first.number, "unknown kind %r" % kind)
    if expected is not None and kind not in expected:
        raise ParseError(
            path,
            first.number,
            "expected a file of kind %s, got %r" % ("/".join(expected), kind),
            SEMANTIC,
        )
    return kind, lines[1:]


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


def _parse_int(path, line, text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line.number, "%s must be an integer, got %r" % (what, text))


def _parse_value(path, line, placeholder, what, old):
    """The integer of a one-value header line such as 'n 2'; old is the
    value of an earlier line of that key, and a repeat is refused."""
    if old is not None:
        raise ParseError(path, line.number, "duplicate %r line" % line.tokens[0], SEMANTIC)
    if len(line.tokens) != 2:
        raise ParseError(path, line.number, "expected '%s <%s>'" % (line.tokens[0], placeholder))
    return _parse_int(path, line, line.tokens[1], what)


def _nonnegative(path, line, value, message):
    """value, refused on its own line with message when it is negative."""
    if value < 0:
        raise ParseError(path, line.number, message, SEMANTIC)
    return value


def _parse_entry(path, line, parse, text):
    try:
        return parse(text)
    except ValueError as err:
        raise ParseError(path, line.number, str(err))


def _parse_field_line(path, line, old) -> Field:
    """The field of a 'field' line; old is the field of an earlier one,
    and a repeat is refused."""
    if old is not None:
        raise ParseError(path, line.number, "duplicate 'field' line", SEMANTIC)
    if len(line.tokens) != 2:
        raise ParseError(path, line.number, "expected 'field Q' or 'field Fp:<p>'")
    return _parse_entry(path, line, parse_field_token, line.tokens[1])


def _parse_row(path, line, skip, width, what, parse):
    """A matrix row line: everything after the first `skip` tokens, split
    on '|' into `width` entries, each read with `parse`."""
    rest = line.text.split(None, skip)[skip] if len(line.tokens) > skip else ""
    entries = [chunk.strip() for chunk in rest.split("|")] if rest else []
    if len(entries) != width:
        raise ParseError(
            path, line.number, "%s has %d entries, expected %d" % (what, len(entries), width), SEMANTIC
        )
    return tuple(_parse_entry(path, line, parse, e) for e in entries)


def _parse_vertex(path, line, token, quiver: Optional[ProjQuiver]):
    match = re.fullmatch(r"\{(\d+(,\d+)*)\}", token)
    if not match:
        raise ParseError(path, line.number, "malformed vertex %r" % token)
    v = frozenset(int(t) for t in match.group(1).split(","))
    if quiver is not None and v not in set(quiver.vertices):
        raise ParseError(path, line.number, "no vertex %s in this quiver" % token, SEMANTIC)
    return v


# ---------------------------------------------------------------------------
# headers shared by graded and sheafrep files


def _parse_header(path, lines, kind):
    field = None
    n = None
    ideal_texts = []
    body = []
    for line in lines:
        key = line.tokens[0]
        if key == "field":
            field = _parse_field_line(path, line, field)
        elif key == "n":
            n = _parse_value(path, line, "int", "ambient dimension", n)
        elif key == "ideal":
            ideal_texts.append((line, line.text.split(None, 1)[1] if len(line.tokens) > 1 else ""))
        else:
            body.append(line)
    if field is None:
        raise ParseError(path, lines[0].number if lines else 1, "missing 'field' line in %s file" % kind, SEMANTIC)
    if n is None:
        raise ParseError(path, lines[0].number if lines else 1, "missing 'n' line in %s file" % kind, SEMANTIC)
    try:
        quiver = build_proj_quiver(field, n)
    except ValueError as err:
        raise ParseError(path, lines[0].number, str(err), SEMANTIC)
    gens = []
    for line, text in ideal_texts:
        g = _parse_entry(path, line, partial(poly_from_str, quiver.xring), text)
        if not is_homogeneous(g):
            raise ParseError(path, line.number, "subscheme generator is not homogeneous", SEMANTIC)
        gens.append(g)
    if gens:
        quiver = build_proj_quiver(field, n, tuple(gens))
    return quiver, body


# ---------------------------------------------------------------------------
# graded files


def _parse_graded(path, quiver, body) -> SheafRep:
    degrees = None
    degrees_line = None
    rows = []
    for line in body:
        key = line.tokens[0]
        if key == "degrees":
            if degrees is not None:
                raise ParseError(path, line.number, "duplicate 'degrees' line", SEMANTIC)
            degrees = tuple(
                _parse_int(path, line, t, "degree") for t in line.tokens[1:]
            )
            degrees_line = line
        elif key == "relation":
            rows.append(line)
        else:
            raise ParseError(path, line.number, "unexpected %r in a graded file" % key)
    if degrees is None or not degrees:
        raise ParseError(
            path,
            degrees_line.number if degrees_line else 1,
            "a graded file needs a nonempty 'degrees' line",
            SEMANTIC,
        )
    parse = partial(poly_from_str, quiver.xring)
    parsed_rows = []
    for line in rows:
        row = _parse_row(path, line, 1, len(degrees), "relation row", parse)
        try:
            check_graded_row(row, degrees)
        except ValueError as err:
            raise ParseError(path, line.number, str(err), SEMANTIC)
        parsed_rows.append(row)
    return graded_sheaf(quiver, degrees, tuple(parsed_rows))


# ---------------------------------------------------------------------------
# sheafrep files


def _parse_sheafrep(path, quiver, body) -> SheafRep:
    gens = {}
    rels = {}
    edge_rows = {}
    decl_lines = {}
    for line in body:
        key = line.tokens[0]
        if key == "vertex":
            if len(line.tokens) != 4 or line.tokens[2] != "gens":
                raise ParseError(path, line.number, "expected 'vertex {v} gens <count>'")
            v = _parse_vertex(path, line, line.tokens[1], quiver)
            if v in gens:
                raise ParseError(path, line.number, "vertex %s declared twice" % fmt_vertex(v), SEMANTIC)
            count = _parse_int(path, line, line.tokens[3], "generator count")
            gens[v] = _nonnegative(path, line, count, "negative generator count")
            rels[v] = []
            decl_lines[v] = line
        elif key == "vrel":
            if len(line.tokens) < 2:
                raise ParseError(path, line.number, "expected 'vrel {v} <entries>'")
            v = _parse_vertex(path, line, line.tokens[1], quiver)
            if v not in gens:
                raise ParseError(
                    path, line.number, "vrel before 'vertex' line for %s" % fmt_vertex(v), SEMANTIC
                )
            what = "relation at %s" % fmt_vertex(v)
            parse = partial(poly_from_str, quiver.chart(v).ring)
            rels[v].append(_parse_row(path, line, 2, gens[v], what, parse))
        elif key == "edge":
            if len(line.tokens) != 3:
                raise ParseError(path, line.number, "expected 'edge {v} {w}'")
            v = _parse_vertex(path, line, line.tokens[1], quiver)
            w = _parse_vertex(path, line, line.tokens[2], quiver)
            if (v, w) not in set(quiver.edges):
                raise ParseError(
                    path,
                    line.number,
                    "%s->%s is not a generating edge" % (fmt_vertex(v), fmt_vertex(w)),
                    SEMANTIC,
                )
            if (v, w) in edge_rows:
                raise ParseError(path, line.number, "edge declared twice", SEMANTIC)
            edge_rows[(v, w)] = []
            decl_lines[(v, w)] = line
        elif key == "erow":
            if len(line.tokens) < 3:
                raise ParseError(path, line.number, "expected 'erow {v} {w} <entries>'")
            v = _parse_vertex(path, line, line.tokens[1], quiver)
            w = _parse_vertex(path, line, line.tokens[2], quiver)
            if (v, w) not in edge_rows:
                raise ParseError(path, line.number, "erow before its 'edge' line", SEMANTIC)
            if w not in gens:
                raise ParseError(path, line.number, "erow before 'vertex' line for the target", SEMANTIC)
            parse = partial(poly_from_str, quiver.chart(w).ring)
            edge_rows[(v, w)].append(_parse_row(path, line, 3, gens[w], "edge row", parse))
        else:
            raise ParseError(path, line.number, "unexpected %r in a sheafrep file" % key)
    last = body[-1].number if body else 1
    modules = {}
    for v in quiver.vertices:
        if v not in gens:
            raise ParseError(path, last, "missing vertex %s" % fmt_vertex(v), SEMANTIC)
        modules[v] = FPModule(quiver.chart(v), gens[v], tuple(rels[v]))
    for e in quiver.edges:
        if e not in edge_rows:
            raise ParseError(
                path, last, "missing edge %s->%s" % (fmt_vertex(e[0]), fmt_vertex(e[1])), SEMANTIC
            )
        if len(edge_rows[e]) != gens[e[0]]:
            raise ParseError(
                path,
                decl_lines[e].number,
                "edge %s->%s has %d rows, expected %d"
                % (fmt_vertex(e[0]), fmt_vertex(e[1]), len(edge_rows[e]), gens[e[0]]),
                SEMANTIC,
            )
    try:
        rep = make_sheaf_rep(quiver, modules, edge_rows)
    except ValueError as err:
        raise ParseError(path, last, str(err), SEMANTIC)
    violations = _squares_agree(rep)
    if violations:
        raise ParseError(path, last, violations[0], SEMANTIC)
    return rep


def parse_sheaf_file(path: str) -> SheafRep:
    """Parse a graded or sheafrep file into a validated representation."""
    kind, rest = _take_kind(path, _read_lines(path), expected=("graded", "sheafrep"))
    quiver, body = _parse_header(path, rest, kind)
    if kind == "graded":
        return _parse_graded(path, quiver, body)
    return _parse_sheafrep(path, quiver, body)


# ---------------------------------------------------------------------------
# sections files


def parse_section_file(path: str, rep: SheafRep) -> dict:
    """Parse sections against the representation they are sections of:
    {vertex: tuple of elements}, as make_section_set returns them."""
    kind, rest = _take_kind(path, _read_lines(path), expected=("sections",))
    mapping = {}
    for line in rest:
        if line.tokens[0] != "section":
            raise ParseError(path, line.number, "expected 'section {v} <entries>'")
        if len(line.tokens) < 2:
            raise ParseError(path, line.number, "section line needs a vertex")
        v = _parse_vertex(path, line, line.tokens[1], rep.quiver)
        what = "section at %s" % fmt_vertex(v)
        parse = partial(poly_from_str, rep.quiver.chart(v).ring)
        mapping.setdefault(v, []).append(_parse_row(path, line, 2, rep.modules[v].gens, what, parse))
    try:
        return make_section_set(rep, mapping)
    except ValueError as err:
        raise ParseError(path, rest[-1].number if rest else 1, str(err), SEMANTIC)


# ---------------------------------------------------------------------------
# transition files


def parse_transition_file(path: str, default_field: Optional[Field] = None):
    """Parse an r x r Laurent matrix; returns (field, rows)."""
    kind, rest = _take_kind(path, _read_lines(path), expected=("transition",))
    field = None
    size = None
    rows = []
    for line in rest:
        key = line.tokens[0]
        if key == "field":
            if rows:
                raise ParseError(path, line.number, "'field' line after a trow", SEMANTIC)
            field = _parse_field_line(path, line, field)
        elif key == "rows":
            size = _parse_value(path, line, "count", "row count", size)
            _nonnegative(path, line, size, "negative row count")
        elif key == "trow":
            if field is None:
                field = default_field or Field.rationals()
            if size is None:
                raise ParseError(path, line.number, "trow before the 'rows' line", SEMANTIC)
            rows.append(_parse_row(path, line, 1, size, "row", partial(laurent_from_str, field)))
        else:
            raise ParseError(path, line.number, "unexpected %r in a transition file" % key)
    if field is None:
        field = default_field or Field.rationals()
    if size is None:
        raise ParseError(path, rest[-1].number if rest else 1, "missing 'rows' line", SEMANTIC)
    if len(rows) != size:
        raise ParseError(
            path,
            rest[-1].number if rest else 1,
            "matrix has %d rows, expected %d" % (len(rows), size),
            SEMANTIC,
        )
    return field, tuple(rows)


# ---------------------------------------------------------------------------
# filtered files


def parse_filtered_file(path: str):
    """Parse a filtered module; returns (module, family_override) where the
    override is None or a tuple of explicit member supports."""
    kind, rest = _take_kind(path, _read_lines(path), expected=("filtered",))
    p = None
    p_line = None
    dim = None
    oprows = []
    blocks = []
    stages = {}
    vectors = []  # (line, what, row) for every row checked against dim
    members = None
    for line in rest:
        key = line.tokens[0]
        if key == "p":
            p = _parse_value(path, line, "prime", "characteristic", p)
            p_line = line
        elif key == "dim":
            dim = _parse_value(path, line, "int", "dimension", dim)
            _nonnegative(path, line, dim, "negative ambient dimension")
        elif key == "oprow":
            row = tuple(_parse_int(path, line, t, "operator entry") for t in line.tokens[1:])
            oprows.append((line, row))
            vectors.append((line, "operator", row))
        elif key in ("block", "stage"):
            if len(line.tokens) < 2:
                raise ParseError(path, line.number, "expected '%s <index> <entries>'" % key)
            idx = _parse_int(path, line, line.tokens[1], key + " index")
            vec = tuple(_parse_int(path, line, t, key + " entry") for t in line.tokens[2:])
            vectors.append((line, key, vec))
            if key == "stage":
                stages.setdefault(idx, (line, []))[1].append(vec)
            elif idx == len(blocks):
                blocks.append([vec])
            elif idx < 0 or idx != len(blocks) - 1:
                raise ParseError(
                    path, line.number, "block indices must be contiguous from 0", SEMANTIC
                )
            else:
                blocks[idx].append(vec)
        elif key == "member":
            if members is None:
                members = []
            if line.tokens[1:] == ("-",):
                members.append((line, ()))
            else:
                members.append(
                    (line, tuple(_parse_int(path, line, t, "member index") for t in line.tokens[1:]))
                )
        else:
            raise ParseError(path, line.number, "unexpected %r in a filtered file" % key)
    first = rest[0].number if rest else 1
    if p is None:
        raise ParseError(path, first, "missing 'p' line", SEMANTIC)
    if dim is None:
        raise ParseError(path, first, "missing 'dim' line", SEMANTIC)
    if oprows and len(oprows) != dim:
        raise ParseError(
            path, oprows[-1][0].number, "operator has %d rows, expected %d" % (len(oprows), dim), SEMANTIC
        )
    for line, what, row in vectors:
        if len(row) != dim:
            raise ParseError(path, line.number, "%s row has wrong width" % what, SEMANTIC)
    operator = tuple(row for _, row in oprows) if oprows else None
    try:
        module = make_filtered_module(p, dim, tuple(tuple(b) for b in blocks), operator)
    except ValueError as err:
        raise ParseError(path, p_line.number, str(err), SEMANTIC)
    for idx, (line, rows) in sorted(stages.items()):
        if idx < 0 or idx >= len(module.stages):
            raise ParseError(path, line.number, "no stage %d in this filtration" % idx, SEMANTIC)
        if fp_rref(p, rows) != module.stages[idx]:
            raise ParseError(
                path, line.number, "stage %d does not match the filtration" % idx, SEMANTIC
            )
    override = None
    if members is not None:
        supports = []
        for line, supp in members:
            if any(i < 0 or i >= module.sigma for i in supp):
                raise ParseError(path, line.number, "member support out of range", SEMANTIC)
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
