"""Golden machine reports: every CLI command that applies to a shipped
fixture, compared byte for byte with the stored body in tests/golden/.

Each stored file is named <command>__<fixture stem>.json.  Inputs are given
as repo-relative paths, so the paths recorded in the reports do not depend
on where the repository is checked out.
"""

from __future__ import annotations

import pathlib

import pytest

from qsheaf.cli import JobSpec, run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS_BY_KIND = {
    "graded": ("check-qc", "is-bundle", "serre-cover", "vdim-witness", "lazard", "closure"),
    "sheafrep": ("check-qc", "is-bundle", "serre-cover", "vdim-witness", "lazard", "closure"),
    "transition": ("split-p1", "filter-p1"),
    "filtered": ("hill-verify",),
}


def _kind(path: pathlib.Path) -> str:
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            return line.split()[1]
    return ""


def _jobs():
    jobs = []
    for path in sorted((ROOT / "fixtures").glob("*.txt")):
        for command in COMMANDS_BY_KIND.get(_kind(path), ()):
            seed = None
            if command == "closure":
                seed = path.parent / ("seed_" + path.name)
                if not seed.exists():
                    continue
                seed = "fixtures/" + seed.name
            jobs.append((command, path.stem, "fixtures/" + path.name, seed))
    return jobs


JOBS = _jobs()


def test_every_applicable_job_is_covered():
    assert len(JOBS) == 123
    stored = {p.name for p in GOLDEN.glob("*.json")}
    assert stored == {"%s__%s.json" % (c, stem) for c, stem, _, _ in JOBS}


@pytest.mark.parametrize(
    "command,stem,path,seed", JOBS, ids=["%s__%s" % (c, s) for c, s, _, _ in JOBS]
)
def test_machine_report_matches_golden(monkeypatch, command, stem, path, seed):
    monkeypatch.chdir(ROOT)
    body = run(JobSpec(command=command, inputs=(path,), seed_file=seed, machine=True)).machine_text()
    want = (GOLDEN / ("%s__%s.json" % (command, stem))).read_text(encoding="utf-8")
    assert body == want
