"""Tests for the textual formats and the command-line driver.

Fixture files under fixtures/ are the shipped corpus; tests that need a
malformed or failing input write a temporary file instead, so the corpus
stays all-green.
"""

import json

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
from qsheaf.sheafrep import SheafRep, build_proj_quiver, structure_sheaf, twist


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


@pytest.mark.parametrize("error", [AssertionError, RuntimeError])
def test_internal_error_has_its_own_exit_status(fixture_dir, monkeypatch, error, tmp_path):
    def broken(job):
        raise error("element of the module escapes the blocks")

    monkeypatch.setitem(cli._HANDLERS, "hill-verify", broken)
    path = fixture(fixture_dir, "hill_dep_f2")
    report = run(JobSpec(command="hill-verify", inputs=(path,)))
    assert report.exit_status == EXIT_INTERNAL and not report.ok
    assert report.verdicts == (
        ("internal-error", error.__name__ + ": element of the module escapes the blocks"),
    )
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
