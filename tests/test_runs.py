"""Groebner runs per job: each chart keeps one memo of the runs over its
ring, so a job makes no untracked run twice, and no memo outlives its job.

A run is one exactpoly._buchberger call, keyed on its ring, rank, whether
it is tracked, and its generator rows.
"""

from __future__ import annotations

import pathlib
from collections import Counter

import pytest

from qsheaf import exactpoly
from qsheaf.cli import JobSpec, run

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

JOBS = [
    ("check-qc", "euler_q_p3.txt", None),
    ("closure", "sum_o1_o1_p1.txt", "seed_sum_o1_o1_p1.txt"),
    ("vdim-witness", "euler_q_p2.txt", None),
    ("is-bundle", "subscheme_p1.txt", None),
]


def _counted_run(monkeypatch, command, fixture, seed):
    """Report of one job and the Counter of its runs by key."""
    runs = Counter()
    real = exactpoly._buchberger

    def counting(gens, ring, rank, track):
        runs[(ring, rank, track, tuple(tuple(g) for g in gens))] += 1
        return real(gens, ring, rank, track)

    monkeypatch.setattr(exactpoly, "_buchberger", counting)
    job = JobSpec(
        command=command,
        inputs=(str(FIXTURES / fixture),),
        seed_file=str(FIXTURES / seed) if seed else None,
        machine=True,
    )
    report = run(job)
    monkeypatch.setattr(exactpoly, "_buchberger", real)
    return report, runs


@pytest.mark.parametrize("command,fixture,seed", JOBS, ids=[c for c, _, _ in JOBS])
def test_no_untracked_run_repeats_within_a_job(monkeypatch, command, fixture, seed):
    report, runs = _counted_run(monkeypatch, command, fixture, seed)
    assert report.exit_status == 0
    repeated = {key: n for key, n in runs.items() if n > 1}
    assert not [key for key in repeated if not key[2]]
    if command != "vdim-witness":
        # row_relations keeps its own module_kernel run beside the lifter of
        # the same rows, so only vdim-witness may repeat a tracked run
        assert not repeated


@pytest.mark.parametrize("command,fixture,seed", JOBS, ids=[c for c, _, _ in JOBS])
def test_a_second_run_of_a_job_repeats_the_first(monkeypatch, command, fixture, seed):
    first, first_runs = _counted_run(monkeypatch, command, fixture, seed)
    second, second_runs = _counted_run(monkeypatch, command, fixture, seed)
    assert second.machine_text() == first.machine_text()
    assert second_runs == first_runs
