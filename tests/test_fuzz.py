"""Exit-status fuzz over the shipped fixtures.

Each example mutates one line of one fixture (drop it, duplicate it,
truncate it, or replace one of its tokens by a token of the same file or a
malformed one) and runs the fixture's command on the result.  Whatever the
input, cli.run must return a report and never raise, and its exit status
is a verdict (0 or 1), a usage or parse error (2) or an exhausted budget
(3): a bad input never makes an internal error (4).  Sections fixtures are
mutated as the seed of a closure on their unmutated base file.
"""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from qsheaf.cli import JobSpec, run

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(p.name for p in FIXTURES.glob("*.txt"))
COMMAND_BY_KIND = {
    "graded": "check-qc",
    "sheafrep": "check-qc",
    "transition": "split-p1",
    "filtered": "hill-verify",
}
MALFORMED = ("-", "--s", "-1", "0", "1/0", "x9", "x0^-1", "s^-1", "^", "*", "|", "{9}", "{0,0}", "Fp:4")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _job(name: str, path: pathlib.Path) -> JobSpec:
    if name.startswith("seed_"):
        base = FIXTURES / name[len("seed_"):]
        return JobSpec(command="closure", inputs=(str(base),), seed_file=str(path), max_cycles=2)
    kind = (FIXTURES / name).read_text(encoding="utf-8").split()[1]
    return JobSpec(command=COMMAND_BY_KIND[kind], inputs=(str(path),))


def _mutate(data, text: str) -> str:
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    mutation = data.draw(st.sampled_from(("drop", "duplicate", "truncate", "substitute")), label="mutation")
    if mutation == "drop":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "truncate":
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1), label="keep")]
    else:
        tokens = lines[i].split()
        j = data.draw(st.integers(0, len(tokens) - 1), label="token")
        tokens[j] = data.draw(st.sampled_from(sorted(set(text.split())) + list(MALFORMED)), label="by")
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_mutated_fixtures_never_raise(workdir, name, data):
    path = workdir / "in.txt"
    path.write_text(_mutate(data, (FIXTURES / name).read_text(encoding="utf-8")), encoding="utf-8")
    report = run(_job(name, path))
    assert report.exit_status in {0, 1, 2, 3}
    report.machine_text()
