"""F_p work per Hill job: a module builds each member space once, however
many of the family builder and the verifier ask for it, and a module with
no operator is never multiplied by a zero matrix.

A member space is one hill.closed_span call, made by
FilteredModule.member_space for one support (a set of block indices).
"""

from __future__ import annotations

import pathlib

import pytest

from qsheaf import hill
from qsheaf.cli import EXIT_CHECK_FAILED, EXIT_OK, JobSpec, run

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
HILL = sorted(path.name for path in FIXTURES.glob("hill_*.txt"))


def test_every_hill_fixture_is_covered():
    assert len(HILL) == 6


@pytest.mark.parametrize("fixture", HILL)
def test_hill_job_builds_each_member_space_once(monkeypatch, fixture):
    supports = []
    spans = []
    zero_products = []
    member_space = hill.FilteredModule.member_space
    closed_span = hill.closed_span
    fp_mat_vec = hill.fp_mat_vec

    def recording_member_space(module, support):
        supports.append(frozenset(support))
        return member_space(module, support)

    def counting_closed_span(p, vectors, op):
        spans.append(tuple(vectors))
        return closed_span(p, vectors, op)

    def checking_fp_mat_vec(p, vec, mat):
        if not any(any(row) for row in mat):
            zero_products.append((vec, mat))
        return fp_mat_vec(p, vec, mat)

    monkeypatch.setattr(hill.FilteredModule, "member_space", recording_member_space)
    monkeypatch.setattr(hill, "closed_span", counting_closed_span)
    monkeypatch.setattr(hill, "fp_mat_vec", checking_fp_mat_vec)
    report = run(JobSpec("hill-verify", inputs=(str(FIXTURES / fixture),), machine=True))
    assert report.exit_status in (EXIT_OK, EXIT_CHECK_FAILED)
    assert supports
    assert len(spans) == len(set(supports))
    assert zero_products == []
