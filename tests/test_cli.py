"""Tests for the textual formats and the command-line driver.

Fixture files under fixtures/ are the shipped corpus; tests that need a
malformed or failing input write a temporary file instead, so the corpus
stays all-green.
"""

import json
import time

import pytest

from qsheaf import cli
from qsheaf.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    JobSpec,
    main,
    run,
)
from qsheaf.exactpoly import Field
from qsheaf.hill import build_hill_family, make_filtered_module
from qsheaf.sheaffile import (
    ParseError,
    field_token,
    filtered_text,
    parse_field_token,
    parse_filtered_file,
    parse_section_file,
    parse_sheaf_file,
    parse_transition_file,
    rep_equal,
    sheafrep_text,
    transition_text,
)
from qsheaf.sheafrep import SheafRep, build_proj_quiver, graded_sheaf, structure_sheaf, twist


def fixture(fixture_dir, name):
    return str(fixture_dir / (name + ".txt"))


# ---------------------------------------------------------------------------
# formats


def test_graded_fixture_round_trip(fixture_dir):
    path = fixture(fixture_dir, "twist_p2_k2")
    rep = parse_sheaf_file(path)
    assert rep.graded is not None and rep.graded.degrees == (-2,)
    text = sheafrep_text(rep)
    assert text == (fixture_dir / "twist_p2_k2.txt").read_text()
    again = parse_sheaf_file(path)
    assert rep_equal(rep, again)


def test_explicit_sheafrep_round_trip(tmp_path):
    rep = structure_sheaf(build_proj_quiver(Field.rationals(), 1))
    bare = SheafRep(rep.quiver, rep.modules, rep.edge_maps, None)
    text = sheafrep_text(bare)
    assert text.startswith("kind sheafrep")
    path = tmp_path / "bare.txt"
    path.write_text(text)
    back = parse_sheaf_file(str(path))
    assert rep_equal(bare, back)
    assert sheafrep_text(back) == text


def test_tabs_in_entries_read_like_spaces(fixture_dir, tmp_path):
    # a tab inside a relation entry is whitespace like a space
    spaced = (fixture_dir / "euler_q_p2.txt").read_text()
    assert "relation x0 | x1 | x2" in spaced
    tabbed = tmp_path / "tabbed.txt"
    tabbed.write_text(spaced.replace("relation x0 | x1 | x2", "relation x0\t+ x1 | x1\t| 2\t*\tx2"))
    rep = parse_sheaf_file(str(tabbed))
    want = parse_sheaf_file(fixture(fixture_dir, "euler_q_p2"))
    x0, x1, x2 = want.graded.rows[0]
    assert rep.graded.rows == ((x0 + x1, x1, x2 + x2),)


def test_subscheme_fixture_parses_with_ideal(fixture_dir):
    rep = parse_sheaf_file(fixture(fixture_dir, "subscheme_p1"))
    assert len(rep.quiver.ideal_gens) == 1


def test_transition_round_trip(fixture_dir):
    field, rows = parse_transition_file(fixture(fixture_dir, "trans_coupled"), None)
    assert field.char == 0
    assert transition_text(field, rows) == (fixture_dir / "trans_coupled.txt").read_text()


def test_filtered_round_trip(fixture_dir):
    module, override = parse_filtered_file(fixture(fixture_dir, "hill_dep_f2"))
    assert override is None
    assert module.deps[1] == frozenset({0})
    assert filtered_text(module) == (fixture_dir / "hill_dep_f2.txt").read_text()


def test_broken_hill_fixture_lists_members(fixture_dir):
    module, override = parse_filtered_file(fixture(fixture_dir, "hill_broken_f2"))
    assert override is not None
    assert (1,) not in override


def test_field_tokens():
    assert parse_field_token("Q").char == 0
    assert parse_field_token("Fp:7").char == 7
    assert field_token(Field.prime(7)) == "Fp:7"
    with pytest.raises(ValueError):
        parse_field_token("GF(4)")


def test_syntax_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind graded\nfield Q\nn 1\ndegrees 0 0\nrelation x0 + % | x1\n")
    with pytest.raises(ParseError) as err:
        parse_sheaf_file(str(path))
    assert err.value.line == 5
    assert err.value.code == "syntax"


def test_semantic_error_on_wrong_width(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind graded\nfield Q\nn 1\ndegrees 0 0\nrelation x0\n")
    with pytest.raises(ParseError) as err:
        parse_sheaf_file(str(path))
    assert err.value.code == "semantic"
    assert err.value.line == 5


def test_wrong_kind_is_semantic(fixture_dir):
    with pytest.raises(ParseError) as err:
        parse_sheaf_file(fixture(fixture_dir, "trans_coupled"))
    assert err.value.code == "semantic"


def test_non_commuting_square_is_semantic(tmp_path):
    rep = structure_sheaf(build_proj_quiver(Field.rationals(), 2))
    bare = SheafRep(rep.quiver, rep.modules, rep.edge_maps, None)
    text = sheafrep_text(bare)
    needle = "erow {0} {0,1} 1"
    assert needle in text
    path = tmp_path / "square.txt"
    path.write_text(text.replace(needle, "erow {0} {0,1} z1", 1))
    with pytest.raises(ParseError) as err:
        parse_sheaf_file(str(path))
    assert err.value.code == "semantic"
    assert "square" in str(err.value)


def test_stage_mismatch_is_semantic(tmp_path):
    module = make_filtered_module(2, 2, (((1, 0),), ((0, 1),)))
    text = filtered_text(module).replace("stage 1 1 0", "stage 1 0 1")
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_filtered_file(str(path))
    assert err.value.code == "semantic"
    assert "stage 1" in str(err.value)


def test_noncontiguous_blocks_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind filtered\np 2\ndim 2\nblock 0 1 0\nblock 2 0 1\n")
    with pytest.raises(ParseError) as err:
        parse_filtered_file(str(path))
    assert err.value.code == "semantic"


def test_transition_row_count_checked(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind transition\nrows 2\ntrow s | 0\n")
    with pytest.raises(ParseError) as err:
        parse_transition_file(str(path), None)
    assert err.value.code == "semantic"


def test_sections_width_checked(tmp_path, fixture_dir):
    rep = parse_sheaf_file(fixture(fixture_dir, "sum_o1_o0_p1"))
    path = tmp_path / "seed.txt"
    path.write_text("kind sections\nsection {0} 1\n")
    with pytest.raises(ParseError) as err:
        parse_section_file(str(path), rep)
    assert err.value.code == "semantic"
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# commands and exit codes


def test_check_qc_fixture_passes(fixture_dir):
    report = run(JobSpec(command="check-qc", inputs=(fixture(fixture_dir, "structure_p1"),)))
    assert report.exit_status == EXIT_OK
    assert report.ok
    assert all(e["well_defined"] for e in report.certificates["edges"])


def test_check_qc_failure_names_the_edge(tmp_path):
    rep = structure_sheaf(build_proj_quiver(Field.rationals(), 1))
    bare = SheafRep(rep.quiver, rep.modules, rep.edge_maps, None)
    # z1 + 1 is not a unit on the overlap chart, so the edge map stops
    # being an isomorphism after extension of scalars
    text = sheafrep_text(bare).replace("erow {0} {0,1} 1", "erow {0} {0,1} z1 + 1", 1)
    path = tmp_path / "broken.txt"
    path.write_text(text)
    report = run(JobSpec(command="check-qc", inputs=(str(path),)))
    assert report.exit_status == EXIT_CHECK_FAILED
    assert not report.ok
    assert any("{0}->{0,1}" in f for f in report.certificates["findings"])


def test_closure_command(fixture_dir):
    job = JobSpec(
        command="closure",
        inputs=(fixture(fixture_dir, "twist_p1_k1"),),
        seed_file=fixture(fixture_dir, "seed_twist_p1_k1"),
        max_cycles=3,
    )
    report = run(job)
    assert report.exit_status == EXIT_OK
    assert dict(report.verdicts)["sub-representation"] == "pass"
    assert report.certificates["generator_counts"]["{0}"] >= 1


def test_closure_budget_exhaustion(fixture_dir):
    job = JobSpec(
        command="closure",
        inputs=(fixture(fixture_dir, "twist_p1_k2"),),
        seed_file=fixture(fixture_dir, "seed_twist_p1_k2"),
        max_cycles=1,
    )
    report = run(job)
    assert report.exit_status == EXIT_BUDGET
    assert not report.ok
    assert report.certificates["cycles"] == 1


def test_is_bundle_command(fixture_dir):
    report = run(JobSpec(command="is-bundle", inputs=(fixture(fixture_dir, "twist_p1_k-2"),)))
    assert report.exit_status == EXIT_OK
    assert dict(report.verdicts)["rank"] == "1"


def test_vdim_witness_command(fixture_dir):
    report = run(JobSpec(command="vdim-witness", inputs=(fixture(fixture_dir, "euler_q_p2"),)))
    assert report.exit_status == EXIT_OK
    assert report.certificates["kernel_rank"] == 1
    assert report.certificates["middle_rank"] == 3


def _euler_p5_reports(tmp_path, char):
    """Machine bodies, without their inputs, of the Euler quotient
    O^6/(x0..x5) on P^5 over the field of characteristic char."""
    quiver = build_proj_quiver(Field(char), 5)
    rep = graded_sheaf(quiver, (0,) * 6, (tuple(quiver.xring.var(i) for i in range(6)),))
    path = tmp_path / ("euler_p5_%d.txt" % char)
    path.write_text(sheafrep_text(rep))
    bodies = {}
    for command in ("check-qc", "is-bundle", "serre-cover", "vdim-witness"):
        report = run(JobSpec(command=command, inputs=(str(path),), machine=True))
        assert report.exit_status == EXIT_OK, (command, char)
        body = json.loads(report.machine_text())
        del body["inputs"]
        bodies[command] = body
    return bodies


def test_euler_sequence_on_p5_over_q_and_fp(tmp_path):
    # no golden report exists for P^5 (the bound was n <= 4 before), so the
    # reports are checked against the Euler sequence
    # 0 -> O(-1) -> O^6 -> T(-1) -> 0 and against the same verdicts over F_7
    over_q = _euler_p5_reports(tmp_path, 0)
    assert len(over_q["check-qc"]["certificates"]["edges"]) == 6 * (2**5 - 1)
    assert over_q["is-bundle"]["verdicts"] == [["vector-bundle", "pass"], ["rank", "5"]]
    assert over_q["is-bundle"]["certificates"]["charts"] == {str(i): "projective(5)" for i in range(6)}
    assert over_q["serre-cover"]["certificates"]["source_degrees"] == [0] * 6
    assert over_q["vdim-witness"]["certificates"] == {"findings": [], "kernel_rank": 1, "middle_rank": 6}
    assert all(body["ok"] for body in over_q.values())
    assert _euler_p5_reports(tmp_path, 7) == over_q


def test_split_command_verdict(fixture_dir):
    report = run(JobSpec(command="split-p1", inputs=(fixture(fixture_dir, "trans_coupled"),)))
    assert report.exit_status == EXIT_OK
    assert dict(report.verdicts)["splitting-type"] == "(1,1)"
    assert report.certificates["h0"] == 4


def test_filter_command_verdict(fixture_dir):
    report = run(JobSpec(command="filter-p1", inputs=(fixture(fixture_dir, "trans_diag"),)))
    assert report.exit_status == EXIT_OK
    assert report.certificates["quotient_twists"] == [2, -1]
    assert len(report.certificates["step_generator_counts"]) == 3


def test_hill_verify_fixtures(fixture_dir):
    for name in ("hill_indep_f2", "hill_dep_f2", "hill_op_f2", "hill_dep_f3"):
        report = run(JobSpec(command="hill-verify", inputs=(fixture(fixture_dir, name),)))
        assert report.exit_status == EXIT_OK, name


def test_hill_verify_broken_fixture(fixture_dir):
    report = run(JobSpec(command="hill-verify", inputs=(fixture(fixture_dir, "hill_broken_f2"),)))
    assert report.exit_status == EXIT_CHECK_FAILED
    assert dict(report.verdicts)["pairwise-closure"] == "fail"
    witness = report.certificates["closure_witness"]
    assert witness["operation"] in ("sum", "intersection")


@pytest.mark.parametrize("listed", [None, [(), (0,)]], ids=["built", "listed"])
def test_hill_verify_size_bound(tmp_path, listed):
    # hill-verify takes sigma <= 14 and dim <= 14; fifteen unit blocks are a
    # usage error, named in the report, for a built family and for a listed
    # one alike, before any of the 2^15 supports is enumerated
    units = tuple((tuple(1 if j == i else 0 for j in range(15)),) for i in range(15))
    path = tmp_path / "sigma15.txt"
    path.write_text(filtered_text(make_filtered_module(2, 15, units), listed))
    start = time.perf_counter()
    report = run(JobSpec(command="hill-verify", inputs=(str(path),)))
    assert time.perf_counter() - start < 1.0
    assert report.exit_status == EXIT_USAGE
    assert report.verdicts == (("error", "size bound exceeded: need sigma <= 14 and dim <= 14"),)


def test_hill_verify_large_field(tmp_path):
    # p^dim = 65537^6 elements: only a class-wise check of one-element
    # extensions finishes
    p = 65537
    units = [tuple(1 if j == i else 0 for j in range(6)) for i in range(6)]
    blocks = ((units[0], units[1]), ((1, 0, 5, 0, 0, 0), units[3]), (units[4], units[5]))
    module = make_filtered_module(p, 6, blocks)
    good = tmp_path / "good.txt"
    good.write_text(filtered_text(module))
    report = run(JobSpec(command="hill-verify", inputs=(str(good),)))
    assert report.exit_status == EXIT_OK
    assert report.certificates["extension_failures"] == 0
    kept = [m.support for m in build_hill_family(module).members if m.support != (0, 2)]
    pruned = tmp_path / "pruned.txt"
    pruned.write_text(filtered_text(module, kept))
    assert main(["hill-verify", str(pruned), "--out", str(tmp_path / "r.json"), "--machine"]) == (
        EXIT_CHECK_FAILED
    )
    body = json.loads((tmp_path / "r.json").read_text())
    assert dict(map(tuple, body["verdicts"]))["one-element-extensions"] == "fail"
    # members {} and {0} and {2} reach {0, 2} through the classes {0, 2},
    # {2} and {0}, each piece holding p^2 - 1 nonzero vectors
    q = p * p - 1
    assert body["certificates"]["extension_failures"] == q * q + (q + q * q) * 2


@pytest.mark.parametrize("error", [AssertionError, RuntimeError, KeyError])
def test_internal_error_has_its_own_exit_status(fixture_dir, monkeypatch, error, tmp_path):
    # a self-check of the engine, or any other exception: never a traceback
    message = "element of the module escapes the blocks"

    def broken(job):
        raise error(message)

    monkeypatch.setitem(cli._HANDLERS, "hill-verify", broken)
    path = fixture(fixture_dir, "hill_dep_f2")
    report = run(JobSpec(command="hill-verify", inputs=(path,)))
    assert report.exit_status == EXIT_INTERNAL and not report.ok
    assert report.verdicts == (("internal-error", "%s: %s" % (error.__name__, error(message))),)
    assert main(["hill-verify", path, "--out", str(tmp_path / "r.txt")]) == EXIT_INTERNAL


def test_lazard_rejects_sections_outside_kernel(fixture_dir, tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("kind sections\nsection {0} 1\n")
    job = JobSpec(
        command="lazard",
        inputs=(fixture(fixture_dir, "twist_p1_k1"),),
        seed_file=str(seed),
    )
    report = run(job)
    assert report.exit_status == EXIT_USAGE


def test_usage_errors():
    assert run(JobSpec(command="closure", inputs=("x",))).exit_status == EXIT_USAGE
    assert run(JobSpec(command="check-qc", inputs=())).exit_status == EXIT_USAGE
    assert run(JobSpec(command="check-qc", inputs=("/nonexistent/file",))).exit_status == EXIT_USAGE


def test_parse_error_becomes_exit_two(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind graded\nfield Q\nn 1\ndegrees 0 0\nrelation x0\n")
    report = run(JobSpec(command="check-qc", inputs=(str(path),)))
    assert report.exit_status == EXIT_USAGE
    assert report.certificates["line"] == 5


@pytest.mark.parametrize(
    "command,text,line",
    [
        ("check-qc", "kind graded\nfield Q\nn 1\ndegrees 0\nrelation 1/0*x0\n", 5),
        ("check-qc", "kind graded\nfield Fp:7\nn 1\ndegrees 0\nrelation 3/7*x0\n", 5),
        ("split-p1", "kind transition\nfield Q\nrows 1\ntrow 2/0*s\n", 4),
    ],
    ids=["graded-Q", "graded-F7", "transition-Q"],
)
def test_zero_denominator_is_a_parse_error(tmp_path, command, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    report = run(JobSpec(command=command, inputs=(str(path),)))
    assert report.exit_status == EXIT_USAGE
    assert report.certificates["line"] == line
    assert "zero denominator" in report.verdicts[0][1]


_G = "kind graded\nfield Q\nn 1\ndegrees 0\n"
_G2 = "kind graded\nfield Q\nn 1\ndegrees 0 0\n"
_T = "kind transition\nfield Q\nrows 1\n"
_S = "kind sheafrep\nfield Q\nn 1\n"
_F = "kind filtered\np 2\ndim 2\n"

# One malformed input per distinct exit-2 text of the parsers, with the
# verdict it gets after "<path>:"; sections files are read as the seed of a
# closure on structure_p1.
EXIT_TWO_TEXTS = [
    # entries: the term grammar
    ("poly-empty", "check-qc", _G2 + "relation x0 |\n", "5: syntax error: empty polynomial"),
    (
        "poly-empty-term",
        "check-qc",
        _G + "relation x0 + + x1\n",
        "5: syntax error: empty term in 'x0 + + x1'",
    ),
    ("poly-empty-factor", "check-qc", _G + "relation x0**x1\n", "5: syntax error: empty factor in 'x0**x1'"),
    ("poly-bad-exponent", "check-qc", _G + "relation x0^a\n", "5: syntax error: bad exponent 'a' in 'x0^a'"),
    (
        "poly-negative-exponent",
        "check-qc",
        _G + "relation x0^-1\n",
        "5: syntax error: negative exponent in 'x0^-1'",
    ),
    (
        "poly-unknown-variable",
        "check-qc",
        _G + "relation y\n",
        "5: syntax error: unknown variable 'y' in 'y'",
    ),
    (
        "poly-bad-coefficient",
        "check-qc",
        _G + "relation 2x0\n",
        "5: syntax error: invalid literal for int() with base 10: '2x0'",
    ),
    (
        "poly-zero-denominator",
        "check-qc",
        _G + "relation 1/0*x0\n",
        "5: syntax error: zero denominator in coefficient '1/0'",
    ),
    (
        "laurent-empty",
        "split-p1",
        "kind transition\nfield Q\nrows 2\ntrow s |\ntrow 0 | 1\n",
        "4: syntax error: empty polynomial",
    ),
    ("laurent-empty-term", "split-p1", _T + "trow s+\n", "4: syntax error: empty term in 's+'"),
    ("laurent-empty-factor", "split-p1", _T + "trow s**2\n", "4: syntax error: empty factor in 's**2'"),
    ("laurent-bad-power", "split-p1", _T + "trow sx\n", "4: syntax error: unknown variable 'sx' in 'sx'"),
    ("laurent-bad-exponent", "split-p1", _T + "trow s^x\n", "4: syntax error: bad exponent 'x' in 's^x'"),
    ("laurent-unknown-variable", "split-p1", _T + "trow t\n", "4: syntax error: unknown variable 't' in 't'"),
    (
        "laurent-bad-coefficient",
        "split-p1",
        _T + "trow 2s\n",
        "4: syntax error: invalid literal for int() with base 10: '2s'",
    ),
    (
        "laurent-zero-denominator",
        "split-p1",
        _T + "trow 2/0*s\n",
        "4: syntax error: zero denominator in coefficient '2/0'",
    ),
    # doubled signs were read as one sign
    ("laurent-double-minus", "split-p1", _T + "trow --s\n", "4: syntax error: empty term in '--s'"),
    ("laurent-double-plus", "split-p1", _T + "trow s + +1\n", "4: syntax error: empty term in 's + +1'"),
    ("laurent-minus-minus", "split-p1", _T + "trow s--2\n", "4: syntax error: empty term in 's--2'"),
    # the kind line
    ("empty-file", "check-qc", "# nothing\n", "1: syntax error: empty file, expected a kind line"),
    ("bad-kind-line", "check-qc", "kind\n", "1: syntax error: expected 'kind <name>'"),
    ("unknown-kind", "check-qc", "kind frob\n", "1: syntax error: unknown kind 'frob'"),
    (
        "wrong-kind",
        "check-qc",
        "kind transition\nrows 1\ntrow 1\n",
        "1: semantic error: expected a file of kind graded/sheafrep, got 'transition'",
    ),
    # header lines
    (
        "field-arity",
        "check-qc",
        "kind graded\nfield\nn 1\ndegrees 0\n",
        "2: syntax error: expected 'field Q' or 'field Fp:<p>'",
    ),
    (
        "field-token",
        "check-qc",
        "kind graded\nfield GF4\nn 1\ndegrees 0\n",
        "2: syntax error: field must be Q or Fp:<p>, got 'GF4'",
    ),
    (
        "field-not-prime",
        "check-qc",
        "kind graded\nfield Fp:4\nn 1\ndegrees 0\n",
        "2: syntax error: 4 is not prime",
    ),
    (
        "field-zero",
        "check-qc",
        "kind graded\nfield Fp:0\nn 1\ndegrees 0\n",
        "2: syntax error: 0 is not prime",
    ),
    (
        "field-too-large",
        "check-qc",
        "kind graded\nfield Fp:2147483659\nn 1\ndegrees 0\n",
        "2: syntax error: prime field characteristic must be < 2**31",
    ),
    (
        "transition-field-arity",
        "split-p1",
        "kind transition\nfield Q Q\nrows 1\ntrow 1\n",
        "2: syntax error: expected 'field Q' or 'field Fp:<p>'",
    ),
    (
        "n-arity",
        "check-qc",
        "kind graded\nfield Q\nn 1 2\ndegrees 0\n",
        "3: syntax error: expected 'n <int>'",
    ),
    (
        "n-integer",
        "check-qc",
        "kind graded\nfield Q\nn x\ndegrees 0\n",
        "3: syntax error: ambient dimension must be an integer, got 'x'",
    ),
    (
        "n-range",
        "check-qc",
        "kind graded\nfield Q\nn 7\ndegrees 0\n",
        "3: semantic error: ambient dimension must be between 1 and 6",
    ),
    (
        "missing-field",
        "check-qc",
        "kind graded\nn 1\ndegrees 0\n",
        "2: semantic error: missing 'field' line in graded file",
    ),
    (
        "missing-n",
        "check-qc",
        "kind graded\nfield Q\ndegrees 0\n",
        "2: semantic error: missing 'n' line in graded file",
    ),
    (
        "ideal-inhomogeneous",
        "check-qc",
        "kind graded\nfield Q\nn 1\nideal x0 + 1\ndegrees 0\n",
        "4: semantic error: subscheme generator is not homogeneous",
    ),
    (
        "duplicate-field",
        "check-qc",
        "kind graded\nfield Q\nfield Fp:5\nn 1\ndegrees 0\n",
        "3: semantic error: duplicate 'field' line",
    ),
    (
        "duplicate-n",
        "check-qc",
        "kind graded\nfield Q\nn 1\nn 2\ndegrees 0\n",
        "4: semantic error: duplicate 'n' line",
    ),
    # graded files
    ("duplicate-degrees", "check-qc", _G + "degrees 0\n", "5: semantic error: duplicate 'degrees' line"),
    (
        "degree-integer",
        "check-qc",
        "kind graded\nfield Q\nn 1\ndegrees a\n",
        "4: syntax error: degree must be an integer, got 'a'",
    ),
    (
        "graded-unexpected",
        "check-qc",
        _G + "vrel {0} 1\n",
        "5: syntax error: unexpected 'vrel' in a graded file",
    ),
    (
        "no-degrees",
        "check-qc",
        "kind graded\nfield Q\nn 1\nrelation x0\n",
        "1: semantic error: a graded file needs a nonempty 'degrees' line",
    ),
    (
        "relation-width",
        "check-qc",
        _G2 + "relation x0\n",
        "5: semantic error: relation row has 1 entries, expected 2",
    ),
    (
        "relation-entry-inhomogeneous",
        "check-qc",
        _G + "relation x0 + 1\n",
        "5: semantic error: relation entry is not homogeneous",
    ),
    (
        "relation-row-inhomogeneous",
        "check-qc",
        _G2 + "relation x0 | x0^2\n",
        "5: semantic error: relation row is not homogeneous for the degrees",
    ),
    # sheafrep files
    (
        "vertex-syntax",
        "check-qc",
        _S + "vertex {0} 1\n",
        "4: syntax error: expected 'vertex {v} gens <count>'",
    ),
    ("vertex-malformed", "check-qc", _S + "vertex {a} gens 1\n", "4: syntax error: malformed vertex '{a}'"),
    (
        "vertex-absent",
        "check-qc",
        _S + "vertex {2} gens 1\n",
        "4: semantic error: no vertex {2} in this quiver",
    ),
    (
        "vertex-twice",
        "check-qc",
        _S + "vertex {0} gens 1\nvertex {0} gens 1\n",
        "5: semantic error: vertex {0} declared twice",
    ),
    (
        "gens-integer",
        "check-qc",
        _S + "vertex {0} gens x\n",
        "4: syntax error: generator count must be an integer, got 'x'",
    ),
    # a negative count is refused on its own line, not by a later layer
    ("gens-negative", "check-qc", _S + "vertex {0} gens -1\n", "4: semantic error: negative generator count"),
    ("vrel-syntax", "check-qc", _S + "vrel\n", "4: syntax error: expected 'vrel {v} <entries>'"),
    ("vrel-early", "check-qc", _S + "vrel {0} 1\n", "4: semantic error: vrel before 'vertex' line for {0}"),
    (
        "vrel-width",
        "check-qc",
        _S + "vertex {0} gens 2\nvrel {0} 1\n",
        "5: semantic error: relation at {0} has 1 entries, expected 2",
    ),
    ("edge-syntax", "check-qc", _S + "edge {0}\n", "4: syntax error: expected 'edge {v} {w}'"),
    (
        "edge-not-generating",
        "check-qc",
        _S + "edge {0,1} {0}\n",
        "4: semantic error: {0,1}->{0} is not a generating edge",
    ),
    (
        "edge-twice",
        "check-qc",
        _S + "edge {0} {0,1}\nedge {0} {0,1}\n",
        "5: semantic error: edge declared twice",
    ),
    ("erow-syntax", "check-qc", _S + "erow {0}\n", "4: syntax error: expected 'erow {v} {w} <entries>'"),
    (
        "erow-early-edge",
        "check-qc",
        _S + "erow {0} {0,1} 1\n",
        "4: semantic error: erow before its 'edge' line",
    ),
    (
        "erow-early-vertex",
        "check-qc",
        _S + "edge {0} {0,1}\nerow {0} {0,1} 1\n",
        "5: semantic error: erow before 'vertex' line for the target",
    ),
    (
        "erow-width",
        "check-qc",
        _S + "vertex {0,1} gens 1\nedge {0} {0,1}\nerow {0} {0,1} 1 | 0\n",
        "6: semantic error: edge row has 2 entries, expected 1",
    ),
    (
        "sheafrep-unexpected",
        "check-qc",
        _S + "degrees 0\n",
        "4: syntax error: unexpected 'degrees' in a sheafrep file",
    ),
    ("missing-vertex", "check-qc", _S + "vertex {0} gens 1\n", "4: semantic error: missing vertex {1}"),
    (
        "missing-edge",
        "check-qc",
        _S + "vertex {0} gens 1\nvertex {1} gens 1\nvertex {0,1} gens 1\n",
        "6: semantic error: missing edge {0}->{0,1}",
    ),
    (
        "edge-rows",
        "check-qc",
        _S + "vertex {0} gens 1\nvertex {1} gens 1\nvertex {0,1} gens 1\n"
        "edge {0} {0,1}\nedge {1} {0,1}\nerow {1} {0,1} 1\n",
        "7: semantic error: edge {0}->{0,1} has 0 rows, expected 1",
    ),
    # sections files
    (
        "section-keyword",
        "closure",
        "kind sections\nsect {0} 1\n",
        "2: syntax error: expected 'section {v} <entries>'",
    ),
    ("section-vertex", "closure", "kind sections\nsection\n", "2: syntax error: section line needs a vertex"),
    (
        "section-width",
        "closure",
        "kind sections\nsection {0} 1 | 0\n",
        "2: semantic error: section at {0} has 2 entries, expected 1",
    ),
    # transition files
    ("rows-arity", "split-p1", "kind transition\nrows\n", "2: syntax error: expected 'rows <count>'"),
    (
        "rows-integer",
        "split-p1",
        "kind transition\nrows x\n",
        "2: syntax error: row count must be an integer, got 'x'",
    ),
    ("rows-negative", "split-p1", "kind transition\nrows -1\n", "2: semantic error: negative row count"),
    ("trow-early", "split-p1", "kind transition\ntrow 1\n", "2: semantic error: trow before the 'rows' line"),
    ("trow-width", "split-p1", _T + "trow 1 | 0\n", "4: semantic error: row has 2 entries, expected 1"),
    (
        "transition-unexpected",
        "split-p1",
        _T + "row 1\n",
        "4: syntax error: unexpected 'row' in a transition file",
    ),
    ("missing-rows", "split-p1", "kind transition\nfield Q\n", "2: semantic error: missing 'rows' line"),
    # a repeated one-value line is refused, so no value silently wins
    (
        "duplicate-rows",
        "split-p1",
        "kind transition\nfield Q\nrows 2\nrows 1\ntrow 1\n",
        "4: semantic error: duplicate 'rows' line",
    ),
    (
        "duplicate-transition-field",
        "split-p1",
        "kind transition\nfield Q\nfield Fp:5\nrows 1\ntrow 1\n",
        "3: semantic error: duplicate 'field' line",
    ),
    (
        "field-after-trow",
        "split-p1",
        "kind transition\nrows 2\ntrow s | 0\nfield Fp:5\ntrow 0 | 1\n",
        "4: semantic error: 'field' line after a trow",
    ),
    (
        "matrix-rows",
        "split-p1",
        "kind transition\nfield Q\nrows 2\ntrow 1 | 0\n",
        "4: semantic error: matrix has 1 rows, expected 2",
    ),
    # filtered files
    (
        "p-integer",
        "hill-verify",
        "kind filtered\np x\ndim 2\n",
        "2: syntax error: characteristic must be an integer, got 'x'",
    ),
    ("p-bare", "hill-verify", "kind filtered\np\ndim 2\n", "2: syntax error: expected 'p <prime>'"),
    (
        "p-trailing",
        "hill-verify",
        "kind filtered\np 2 3\ndim 1\nblock 0 1\n",
        "2: syntax error: expected 'p <prime>'",
    ),
    ("dim-bare", "hill-verify", "kind filtered\np 2\ndim\n", "3: syntax error: expected 'dim <int>'"),
    (
        "dim-trailing",
        "hill-verify",
        "kind filtered\np 2\ndim 1 5\nblock 0 1\n",
        "3: syntax error: expected 'dim <int>'",
    ),
    (
        "oprow-entry",
        "hill-verify",
        _F + "oprow 0 x\n",
        "4: syntax error: operator entry must be an integer, got 'x'",
    ),
    ("block-syntax", "hill-verify", _F + "block\n", "4: syntax error: expected 'block <index> <entries>'"),
    (
        "block-index",
        "hill-verify",
        _F + "block x 1 0\n",
        "4: syntax error: block index must be an integer, got 'x'",
    ),
    (
        "block-entry",
        "hill-verify",
        _F + "block 0 1 x\n",
        "4: syntax error: block entry must be an integer, got 'x'",
    ),
    (
        "block-contiguous",
        "hill-verify",
        _F + "block 0 1 0\nblock 2 0 1\n",
        "5: semantic error: block indices must be contiguous from 0",
    ),
    ("stage-syntax", "hill-verify", _F + "stage\n", "4: syntax error: expected 'stage <index> <entries>'"),
    (
        "stage-index",
        "hill-verify",
        _F + "stage x 1 0\n",
        "4: syntax error: stage index must be an integer, got 'x'",
    ),
    (
        "stage-entry",
        "hill-verify",
        _F + "stage 0 1 x\n",
        "4: syntax error: stage entry must be an integer, got 'x'",
    ),
    (
        "member-index",
        "hill-verify",
        _F + "block 0 1 0\nmember x\n",
        "5: syntax error: member index must be an integer, got 'x'",
    ),
    (
        "filtered-unexpected",
        "hill-verify",
        _F + "blocks 0 1 0\n",
        "4: syntax error: unexpected 'blocks' in a filtered file",
    ),
    ("missing-p", "hill-verify", "kind filtered\ndim 2\n", "2: semantic error: missing 'p' line"),
    # with no line after the kind line, the kind line carries the error
    ("missing-p-after-comment", "hill-verify", "# c\nkind filtered\n", "2: semantic error: missing 'p' line"),
    ("missing-dim", "hill-verify", "kind filtered\np 2\n", "2: semantic error: missing 'dim' line"),
    ("duplicate-p", "hill-verify", _F + "p 3\nblock 0 1 0\n", "4: semantic error: duplicate 'p' line"),
    ("duplicate-dim", "hill-verify", _F + "dim 3\nblock 0 1 0\n", "4: semantic error: duplicate 'dim' line"),
    (
        "operator-rows",
        "hill-verify",
        _F + "oprow 0 1\nblock 0 1 0\n",
        "4: semantic error: operator has 1 rows, expected 2",
    ),
    (
        "operator-width",
        "hill-verify",
        _F + "oprow 0 1\noprow 0\nblock 0 1 0\n",
        "5: semantic error: operator row has wrong width",
    ),
    ("block-width", "hill-verify", _F + "block 0 1\n", "4: semantic error: block row has wrong width"),
    (
        "block-empty",
        "hill-verify",
        _F + "block 0 1 0\nblock 1\n",
        "5: semantic error: block row has wrong width",
    ),
    (
        "block-negative-index",
        "hill-verify",
        _F + "block -1 1 0\n",
        "4: semantic error: block indices must be contiguous from 0",
    ),
    (
        "stage-width",
        "hill-verify",
        _F + "block 0 1 0\nblock 1 0 1\nstage 1 1 0\nstage 2 1 0\nstage 2 1\n",
        "8: semantic error: stage row has wrong width",
    ),
    (
        "p-not-prime",
        "hill-verify",
        "kind filtered\np 4\ndim 1\nblock 0 1\n",
        "2: semantic error: 4 is not prime",
    ),
    ("p-zero", "hill-verify", "kind filtered\np 0\ndim 1\nblock 0 1\n", "2: semantic error: 0 is not prime"),
    (
        "negative-dim",
        "hill-verify",
        "kind filtered\np 2\ndim -1\n",
        "3: semantic error: negative ambient dimension",
    ),
    (
        "operator-nilpotent",
        "hill-verify",
        _F + "oprow 0 1\noprow 1 0\nblock 0 1 0\n",
        "4: semantic error: operator is not nilpotent",
    ),
    (
        "block-adds-nothing",
        "hill-verify",
        _F + "block 0 1 0\nblock 1 1 0\n",
        "5: semantic error: block 1 adds nothing to the filtration",
    ),
    (
        "stage-index-range",
        "hill-verify",
        _F + "block 0 1 0\nstage 3 1 0\n",
        "5: semantic error: no stage 3 in this filtration",
    ),
    (
        "stage-mismatch",
        "hill-verify",
        _F + "block 0 1 0\nstage 1 0 1\n",
        "5: semantic error: stage 1 does not match the filtration",
    ),
    (
        "member-range",
        "hill-verify",
        _F + "block 0 1 0\nmember 3\n",
        "5: semantic error: member support out of range",
    ),
]


def _run_text(fixture_dir, path, command, text):
    path.write_text(text)
    if command == "closure":
        job = JobSpec(command=command, inputs=(fixture(fixture_dir, "structure_p1"),), seed_file=str(path))
    else:
        job = JobSpec(command=command, inputs=(str(path),))
    return run(job)


@pytest.mark.parametrize(
    "command,text,expected", [case[1:] for case in EXIT_TWO_TEXTS], ids=[case[0] for case in EXIT_TWO_TEXTS]
)
def test_exit_two_texts(fixture_dir, tmp_path, command, text, expected):
    path = tmp_path / "in.txt"
    report = _run_text(fixture_dir, path, command, text)
    code = expected.split(": ", 1)[1].split(" ", 1)[0]
    assert report.exit_status == EXIT_USAGE
    assert report.verdicts == ((code + "-error", "%s:%s" % (path, expected)),)


@pytest.mark.parametrize(
    "command,text",
    [case[1:3] for case in EXIT_TWO_TEXTS if case[0] != "empty-file"],
    ids=[case[0] for case in EXIT_TWO_TEXTS if case[0] != "empty-file"],
)
def test_exit_two_lines_follow_a_leading_comment(fixture_dir, tmp_path, command, text):
    # every refusal is raised by a significant line of its file, so a
    # comment put in front moves it down by one
    lines = []
    for name, body in (("plain.txt", text), ("commented.txt", "# note\n" + text)):
        line = _run_text(fixture_dir, tmp_path / name, command, body).certificates["line"]
        assert body.splitlines()[line - 1].split("#", 1)[0].strip()
        lines.append(line)
    plain, commented = lines
    assert commented == plain + 1


@pytest.mark.parametrize("command", ["split-p1", "filter-p1"])
@pytest.mark.parametrize(
    "rows",
    ["rows 2\ntrow s | 1\ntrow s^2 | s\n", "rows 1\ntrow s + 1\n"],
    ids=["zero-determinant", "non-unit-determinant"],
)
def test_singular_transition_is_refused(tmp_path, command, rows):
    # filter-p1 is refused by bundle_from_transition's determinant, split-p1
    # by the splitter's triangular form; both with the same text
    path = tmp_path / "in.txt"
    path.write_text("kind transition\nfield Q\n" + rows)
    report = run(JobSpec(command=command, inputs=(str(path),)))
    assert report.exit_status == EXIT_USAGE
    assert report.verdicts == (("error", "transition matrix is not invertible over the Laurent ring"),)


def test_machine_reports_are_deterministic(fixture_dir):
    job = JobSpec(command="split-p1", inputs=(fixture(fixture_dir, "trans_diag"),))
    first = run(job).machine_text()
    second = run(job).machine_text()
    assert first == second
    body = json.loads(first)
    assert body["schema"] == 1
    assert body["verdicts"][0][0] == "splitting-type"
    assert len(body["inputs"][0][1]) == 64


def test_main_writes_out_file(fixture_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "split-p1",
            fixture(fixture_dir, "trans_identity"),
            "--machine",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["ok"] is True


@pytest.mark.parametrize("where", ("missing-directory", "directory", "nonexistent-root"))
def test_main_refuses_an_out_path_it_cannot_write(fixture_dir, tmp_path, capsys, where):
    out = {
        "missing-directory": str(tmp_path / "missing" / "report.json"),
        "directory": str(tmp_path),
        "nonexistent-root": "/nonexistent/x.json",
    }[where]
    code = main(["split-p1", fixture(fixture_dir, "trans_identity"), "--machine", "--out", out])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and out in captured.err
    assert list(tmp_path.iterdir()) == []


def test_main_prints_human_report(fixture_dir, capsys):
    code = main(["check-qc", fixture(fixture_dir, "structure_p2")])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict quasi-coherent: pass" in text
    assert "timing_ms:" in text


def test_main_rejects_unknown_command(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_field_flag_applies_to_bare_transition(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("kind transition\nrows 1\ntrow s^3\n")
    report = run(JobSpec(command="split-p1", inputs=(str(path),), field=Field.prime(5)))
    assert report.exit_status == EXIT_OK
    assert report.certificates["field"] == "Fp:5"
    assert report.certificates["type"] == [3]


def test_selftest_passes_with_other_seed():
    report = run(JobSpec(command="selftest", rand_seed=7))
    assert report.exit_status == EXIT_OK
    assert all(value == "pass" for _, value in report.verdicts)
