"""F_p work per Hill job: a module builds each member space once, however
many of the family builder and the verifier ask for it, and a module with
no operator is never multiplied by a zero matrix.  The verifier reads sums,
intersections and nesting off the supports: a passing family makes no
hill.fp_intersect call, a failing one eliminates only its escaping pair
and names its failing class without trying the zero element, and no row
that has died is multiplied again.  A built family that meets (H1) and
(H2) passes by the lattice theorem: its check makes no elimination of
pairs and builds no table of extension classes.  Vectors are reduced mod p
once, where they enter the module: building and verifying a family reduce
none again (hill.fp_vec), and only a family checked pair by pair goes
through the public fp_* wrappers.

A member space is one hill.closed_span call, made by
FilteredModule.member_space for one support (a set of block indices).
"""

from __future__ import annotations

import pathlib

import pytest

from qsheaf import hill
from qsheaf.cli import EXIT_CHECK_FAILED, EXIT_OK, JobSpec, run
from qsheaf.sheaffile import family_from_supports, parse_filtered_file

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
HILL = sorted(path.name for path in FIXTURES.glob("hill_*.txt"))
PASSING = [name for name in HILL if name != "hill_broken_f2.txt"]


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


def _counted_job(monkeypatch, fixture):
    """Run hill-verify on a fixture; return its exit status, the number of
    calls of the elimination routines and the zero vectors fp_mat_vec got."""
    calls = {"fp_intersect": 0, "fp_sum": 0}
    zero_vectors = []
    for name in calls:
        original = getattr(hill, name)

        def counting(p, a, b, name=name, original=original):
            calls[name] += 1
            return original(p, a, b)

        monkeypatch.setattr(hill, name, counting)
    fp_mat_vec = hill.fp_mat_vec

    def checking_fp_mat_vec(p, vec, mat):
        if not any(vec):
            zero_vectors.append(vec)
        return fp_mat_vec(p, vec, mat)

    monkeypatch.setattr(hill, "fp_mat_vec", checking_fp_mat_vec)
    report = run(JobSpec("hill-verify", inputs=(str(FIXTURES / fixture),), machine=True))
    return report.exit_status, calls, zero_vectors


@pytest.mark.parametrize("fixture", PASSING)
def test_passing_family_never_intersects_or_multiplies_a_dead_row(monkeypatch, fixture):
    status, calls, zero_vectors = _counted_job(monkeypatch, fixture)
    assert status == EXIT_OK
    assert calls["fp_intersect"] == 0
    assert zero_vectors == []


def test_failing_family_eliminates_only_its_escaping_pair(monkeypatch):
    status, calls, _ = _counted_job(monkeypatch, "hill_broken_f2.txt")
    assert status == EXIT_CHECK_FAILED
    assert calls["fp_intersect"] == 1


def test_big_family_sums_only_along_its_chains(monkeypatch):
    status, calls, _ = _counted_job(monkeypatch, "hill_big_f2.txt")
    assert status == EXIT_OK
    assert calls["fp_sum"] <= 84


def test_failing_family_names_its_class_without_the_zero_element(monkeypatch):
    zero_coords = []
    of = hill._BlockPatterns.of

    def checking_of(patterns, coords):
        if not any(coords):
            zero_coords.append(coords)
        return of(patterns, coords)

    monkeypatch.setattr(hill._BlockPatterns, "of", checking_of)
    status, _, zero_vectors = _counted_job(monkeypatch, "hill_broken_f2.txt")
    assert status == EXIT_CHECK_FAILED
    assert zero_coords == []
    assert zero_vectors == []


def _unit_module(sigma):
    """The F_2 module of dimension sigma with block beta the unit vector
    e_beta: every support is closed."""
    units = [tuple(int(i == j) for j in range(sigma)) for i in range(sigma)]
    return hill.make_filtered_module(2, sigma, [[u] for u in units])


def _unit_family(sigma):
    return hill.build_hill_family(_unit_module(sigma))


def _verify_counted(monkeypatch, lattice):
    """verify_hill_properties on a family; returns the report, the calls of
    the pair eliminations and the number of _BlockPatterns built."""
    calls = {"fp_sum": 0, "fp_intersect": 0, "fp_nullspace": 0, "_BlockPatterns": 0}
    for name in calls:
        original = getattr(hill, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(hill, name, counting)
    report = hill.verify_hill_properties(lattice)
    monkeypatch.undo()
    return report, calls


def _family(module, override):
    if override is not None:
        return family_from_supports(module, override)
    return hill.build_hill_family(module)


def _fixture_family(fixture):
    return _family(*parse_filtered_file(str(FIXTURES / fixture)))


@pytest.mark.parametrize("fixture", PASSING)
def test_passing_built_family_passes_by_the_theorem(monkeypatch, fixture):
    report, calls = _verify_counted(monkeypatch, _fixture_family(fixture))
    assert report.ok
    assert calls == {"fp_sum": 0, "fp_intersect": 0, "fp_nullspace": 0, "_BlockPatterns": 0}


def test_unit_vector_family_at_sigma_10_passes_by_the_theorem(monkeypatch):
    report, calls = _verify_counted(monkeypatch, _unit_family(10))
    assert report.ok
    assert report.chains == 3 ** 10 - 2 ** 10
    assert calls == {"fp_sum": 0, "fp_intersect": 0, "fp_nullspace": 0, "_BlockPatterns": 0}


def test_family_failing_h1_is_checked_pair_by_pair(monkeypatch):
    # hill_broken_f2 lists every closed support of its three blocks but {1}
    report, calls = _verify_counted(monkeypatch, _fixture_family("hill_broken_f2.txt"))
    assert not report.ok
    assert calls["fp_intersect"] == 1
    assert calls["_BlockPatterns"] == 1
    assert calls["fp_nullspace"] > 0


@pytest.mark.parametrize("sigma", range(8))
def test_unit_vector_family_counts_its_nested_pairs(sigma):
    # a pair S < T of subsets of sigma blocks puts each block in neither,
    # T only or both, less the 2^sigma pairs with S = T
    assert hill.verify_hill_properties(_unit_family(sigma)).chains == 3 ** sigma - 2 ** sigma


def _reductions(monkeypatch, module, override=None):
    """The hill.fp_vec calls made by building the family of a module (or
    listing it, when override names its supports) and verifying it."""
    calls = []
    fp_vec = hill.fp_vec

    def counting_fp_vec(p, entries):
        calls.append(entries)
        return fp_vec(p, entries)

    monkeypatch.setattr(hill, "fp_vec", counting_fp_vec)
    report = hill.verify_hill_properties(_family(module, override))
    monkeypatch.undo()
    return report, len(calls)


@pytest.mark.parametrize("fixture", PASSING)
def test_passing_family_reduces_no_vector_again(monkeypatch, fixture):
    report, calls = _reductions(monkeypatch, *parse_filtered_file(str(FIXTURES / fixture)))
    assert report.ok
    assert calls == 0


def test_unit_vector_family_at_sigma_10_reduces_no_vector_again(monkeypatch):
    report, calls = _reductions(monkeypatch, _unit_module(10))
    assert report.ok
    assert calls == 0


def test_family_checked_pair_by_pair_goes_through_the_public_wrappers(monkeypatch):
    report, calls = _reductions(monkeypatch, *parse_filtered_file(str(FIXTURES / "hill_broken_f2.txt")))
    assert not report.ok
    assert calls > 0
