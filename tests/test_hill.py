"""Tests for the distinguished-submodule family over small prime fields.

Oracle: subspaces of F_p^d at these sizes are small enough to enumerate as
literal vector sets.  The helpers below build spans and intersections with
itertools.product, independently of the echelon-form engine under test,
and the example families are frozen from a hand enumeration of the closed
support sets.
"""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import qsheaf.hill as hill
from hill_oracle import needed_blocks
from qsheaf.cli import EXIT_CHECK_FAILED, EXIT_OK, JobSpec, run
from qsheaf.hill import (
    FilteredModule,
    HillLattice,
    _BlockPatterns,
    build_hill_family,
    closed_span,
    enumerate_space,
    fp_in_span,
    fp_intersect,
    fp_nullspace,
    fp_rref,
    fp_solve,
    fp_sum,
    make_filtered_module,
    quotient_partition,
    verify_hill_properties,
)
from qsheaf.sheaffile import family_from_supports, parse_filtered_file


def naive_span(p, gens, width):
    """Every F_p combination of the generators, as a frozenset."""
    vecs = set()
    gens = [tuple(int(e) % p for e in g) for g in gens]
    for coeffs in product(range(p), repeat=len(gens)):
        out = [0] * width
        for c, g in zip(coeffs, gens):
            for j in range(width):
                out[j] = (out[j] + c * g[j]) % p
        vecs.add(tuple(out))
    return frozenset(vecs)


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


# ---------------------------------------------------------------------------
# linear algebra layer


def test_rref_is_canonical_across_generating_sets():
    a = fp_rref(2, [(1, 1, 0), (0, 1, 1)])
    b = fp_rref(2, [(1, 0, 1), (0, 1, 1), (1, 1, 0)])
    assert a == b == ((1, 0, 1), (0, 1, 1))


def test_rref_drops_dependent_rows():
    assert fp_rref(3, [(1, 2), (2, 4)]) == ((1, 2),)
    assert fp_rref(2, [(0, 0)]) == ()


def test_membership_matches_naive_span():
    gens = [(1, 1, 0), (0, 1, 1)]
    basis = fp_rref(2, gens)
    vectors = naive_span(2, gens, 3)
    for v in product(range(2), repeat=3):
        assert fp_in_span(2, basis, v) == (v in vectors)


def test_intersection_of_coordinate_planes():
    left = fp_rref(2, [E1, E2])
    right = fp_rref(2, [E2, E3])
    assert fp_intersect(2, left, right) == ((0, 1, 0),)


@given(
    st.integers(0, 1).map(lambda i: (2, 3)[i]),
    st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), max_size=3),
    st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), max_size=3),
)
@settings(max_examples=40)
def test_intersection_matches_naive(p, gens_a, gens_b):
    a = fp_rref(p, gens_a)
    b = fp_rref(p, gens_b)
    meet = fp_intersect(p, a, b)
    expected = naive_span(p, gens_a, 3) & naive_span(p, gens_b, 3)
    assert naive_span(p, meet, 3) == expected
    join = fp_sum(p, a, b)
    assert naive_span(p, join, 3) == naive_span(
        p, list(gens_a) + list(gens_b), 3
    )


def test_nullspace_frozen():
    # c1*(1,1) + c2*(1,1) = 0 exactly when c1 = c2 over F_2
    assert fp_nullspace(2, [(1, 1), (1, 1)]) == ((1, 1),)
    assert fp_nullspace(2, [(1, 0), (0, 1)]) == ()


def test_solve_recovers_combination():
    gens = [(1, 1, 0), (0, 1, 1)]
    coeffs = fp_solve(2, gens, (1, 0, 1))
    assert coeffs is not None
    acc = [0, 0, 0]
    for c, g in zip(coeffs, gens):
        for j in range(3):
            acc[j] = (acc[j] + c * g[j]) % 2
    assert tuple(acc) == (1, 0, 1)
    assert fp_solve(2, [(1, 1, 0)], (1, 0, 0)) is None


def test_enumerate_space_counts():
    basis = fp_rref(3, [(1, 0), (0, 1)])
    assert len(set(enumerate_space(3, basis))) == 9
    assert list(enumerate_space(2, ())) == [()]


# ---------------------------------------------------------------------------
# filtered modules and their families


def independent_pair():
    return make_filtered_module(2, 2, (((1, 0),), ((0, 1),)))


def dependent_pair():
    # the second block carries the relation (e2) + (e1 + e2) = e1, which
    # reaches back into block 0
    return make_filtered_module(2, 2, (((1, 0),), ((0, 1), (1, 1))))


def test_independent_blocks_have_no_dependencies():
    mod = independent_pair()
    assert mod.deps == (frozenset(), frozenset())
    assert mod.stages == ((), ((1, 0),), ((1, 0), (0, 1)))


def test_independent_blocks_family_is_all_four_supports():
    fam = build_hill_family(independent_pair())
    spaces = {m.space for m in fam.members}
    assert spaces == {
        (),
        ((1, 0),),
        ((0, 1),),
        ((1, 0), (0, 1)),
    }
    assert {m.support for m in fam.members} == {(), (0,), (1,), (0, 1)}


def test_dependent_blocks_family_drops_the_unclosed_support():
    mod = dependent_pair()
    assert mod.deps[1] == frozenset({0})
    fam = build_hill_family(mod)
    spaces = {m.space for m in fam.members}
    assert spaces == {(), ((1, 0),), ((1, 0), (0, 1))}
    assert all(m.support != (1,) for m in fam.members)


def test_zero_module_family():
    mod = make_filtered_module(2, 0, ())
    fam = build_hill_family(mod)
    assert len(fam.members) == 1
    assert fam.members[0].space == ()
    report = verify_hill_properties(fam)
    assert report.ok
    assert report.chains == 0


def test_no_blocks_positive_ambient():
    mod = make_filtered_module(3, 2, ())
    fam = build_hill_family(mod)
    assert [m.space for m in fam.members] == [()]
    assert verify_hill_properties(fam).ok


def test_verify_independent_family_passes():
    fam = build_hill_family(independent_pair())
    report = verify_hill_properties(fam)
    assert report.ok
    assert report.stages_present
    assert report.lattice_closed and report.lattice_witness is None
    assert report.chains_ok
    assert report.extensions_ok and report.extension_failures == ()
    # five nested pairs: () below the other three, (0,) and (1,) below (0, 1)
    assert report.chains == 5
    # the chain from the bottom to the top walks both blocks, one
    # dimension at a time
    space = {m.support: m.space for m in fam.members}
    assert quotient_partition(2, space[(0,)], space[()], None) == (1,)
    assert quotient_partition(2, space[(0, 1)], space[(0,)], None) == (1,)


def test_verify_dependent_family_passes():
    report = verify_hill_properties(build_hill_family(dependent_pair()))
    assert report.ok


def test_operator_module_partition_type():
    # one generator whose operator orbit fills F_2^2: a single size-2 block
    op = ((0, 1), (0, 0))
    mod = make_filtered_module(2, 2, (((1, 0),),), operator=op)
    assert mod.stages[-1] == ((1, 0), (0, 1))
    assert quotient_partition(2, mod.stages[1], mod.stages[0], op) == (2,)
    fam = build_hill_family(mod)
    assert {m.space for m in fam.members} == {(), ((1, 0), (0, 1))}
    report = verify_hill_properties(fam)
    assert report.ok
    assert report.chains == 1
    bottom, top = fam.members
    assert quotient_partition(2, top.space, bottom.space, op) == (2,)


def test_operator_orbits_enter_dependency_spans():
    # x sends e1 to e2, so stage 1 is the orbit span of e1; block 1 has an
    # internal relation landing on e2, reachable only through that orbit
    op = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    mod = make_filtered_module(
        2, 3, (((1, 0, 0),), ((0, 1, 1), (0, 0, 1))), operator=op
    )
    assert mod.deps == (frozenset(), frozenset({0}))
    fam = build_hill_family(mod)
    assert all(m.support != (1,) for m in fam.members)
    assert verify_hill_properties(fam).ok


def test_operator_relation_free_block_stays_independent():
    # same operator, but block 1 meets stage 1 trivially: no dependency
    op = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    mod = make_filtered_module(
        2, 3, (((1, 0, 0),), ((0, 1, 1),)), operator=op
    )
    assert mod.deps == (frozenset(), frozenset())
    fam = build_hill_family(mod)
    assert verify_hill_properties(fam).ok


def test_operator_must_be_nilpotent():
    ident = ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="nilpotent"):
        make_filtered_module(2, 2, (((1, 0),),), operator=ident)


def test_blocks_must_strictly_grow():
    with pytest.raises(ValueError, match="adds nothing"):
        make_filtered_module(2, 2, (((1, 0),), ((1, 0),)))


def _unit_blocks(count, dim):
    return tuple((tuple(1 if j == i else 0 for j in range(dim)),) for i in range(count))


def test_family_size_bound():
    mod = make_filtered_module(2, 15, _unit_blocks(15, 15))
    with pytest.raises(ValueError, match="size bound"):
        build_hill_family(mod)
    # dim 14 is within the bound: three unit blocks give all 2^3 supports
    assert len(build_hill_family(make_filtered_module(2, 14, _unit_blocks(3, 14))).members) == 8


def test_tampered_family_fails_pairwise_closure():
    blocks = (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
    fam = build_hill_family(make_filtered_module(2, 3, blocks))
    assert len(fam.members) == 8
    pruned = tuple(m for m in fam.members if m.space != ((0, 1, 0),))
    broken = HillLattice(fam.module, pruned)
    report = verify_hill_properties(broken)
    assert not report.ok
    assert not report.lattice_closed
    kind, left, right = report.lattice_witness
    assert kind == "intersection"
    assert left != right



@pytest.mark.parametrize(
    "name", ["hill_indep_f2", "hill_dep_f2", "hill_op_f2", "hill_dep_f3", "hill_big_f2"]
)
def test_listing_the_computed_supports_gives_the_same_family(fixture_dir, name):
    module, override = parse_filtered_file(str(fixture_dir / (name + ".txt")))
    assert override is None
    fam = build_hill_family(module)
    supports = [m.support for m in fam.members]
    for listed in (supports, supports[::-1]):
        assert family_from_supports(module, listed).members == fam.members


def test_listed_family_keeps_the_first_support_of_a_space():
    mod = dependent_pair()
    # block 1 alone already spans the whole module, as do blocks 0 and 1
    whole = ((1, 0), (0, 1))
    for listed in ([(1,), (0, 1)], [(0, 1), (1,)]):
        fam = family_from_supports(mod, [()] + listed)
        assert [(m.space, m.support) for m in fam.members] == [((), ()), (whole, listed[0])]
    computed = build_hill_family(mod)
    assert computed.members[-1].space == whole and computed.members[-1].support == (0, 1)

def test_report_is_deterministic():
    first = build_hill_family(dependent_pair())
    second = build_hill_family(dependent_pair())
    assert first == second
    assert verify_hill_properties(first) == verify_hill_properties(second)


def _random_module(p, dim, draw_blocks):
    blocks = []
    for block in draw_blocks:
        vecs = tuple(tuple(e % p for e in v) for v in block)
        blocks.append(vecs)
    return make_filtered_module(p, dim, tuple(blocks))


@given(
    st.integers(0, 1).map(lambda i: (2, 3)[i]),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=30)
def test_random_families_satisfy_all_properties(p, dim, data):
    sigma = data.draw(st.integers(0, 3))
    blocks = []
    for _ in range(sigma):
        size = data.draw(st.integers(1, 2))
        block = tuple(
            tuple(data.draw(st.integers(0, p - 1)) for _ in range(dim))
            for _ in range(size)
        )
        blocks.append(block)
    try:
        mod = make_filtered_module(p, dim, tuple(blocks))
    except ValueError:
        return  # a block failed to grow the filtration; not a family
    fam = build_hill_family(mod)
    assert len(fam.members) <= 2 ** mod.sigma
    report = verify_hill_properties(fam)
    assert report.ok, report.findings


@given(st.integers(0, 1).map(lambda i: (2, 3)[i]), st.data())
@settings(max_examples=20)
def test_family_members_are_operator_stable(p, data):
    dim = 3
    op_rows = [[0] * dim for _ in range(dim)]
    # strictly upper triangular, hence nilpotent
    for i in range(dim):
        for j in range(i + 1, dim):
            op_rows[i][j] = data.draw(st.integers(0, p - 1))
    op = tuple(tuple(r) for r in op_rows)
    blocks = []
    for _ in range(data.draw(st.integers(1, 2))):
        blocks.append(
            (tuple(data.draw(st.integers(0, p - 1)) for _ in range(dim)),)
        )
    try:
        mod = make_filtered_module(p, dim, tuple(blocks), operator=op)
    except ValueError:
        return
    fam = build_hill_family(mod)
    for member in fam.members:
        for v in member.space:
            image = tuple(
                sum(c * op[i][j] for i, c in enumerate(v)) % p
                for j in range(dim)
            )
            assert fp_in_span(p, member.space, image)
    assert verify_hill_properties(fam).ok


def test_closed_span_includes_orbits():
    op = ((0, 1), (0, 0))
    assert closed_span(2, [(1, 0)], op) == ((1, 0), (0, 1))


def test_filtered_module_rejects_bad_shapes():
    with pytest.raises(ValueError, match="wrong length"):
        make_filtered_module(2, 2, (((1, 0, 0),),))
    with pytest.raises(ValueError, match="empty"):
        make_filtered_module(2, 2, ((),))
    with pytest.raises(ValueError, match="matrix"):
        make_filtered_module(2, 2, (((1, 0),),), operator=((0,),))


# ---------------------------------------------------------------------------
# property (4) by class: exact counts without walking p^dim vectors


def _direct_sum(p, dim, sigma):
    """sigma blocks, each a run of unit vectors, the first one mixed with
    the last so every block spans its run through a non-echelon basis."""
    size = dim // sigma
    units = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    blocks = []
    for k in range(sigma):
        run_ = units[k * size:(k + 1) * size]
        first = tuple((x + 2 * y) % p for x, y in zip(run_[0], run_[-1]))
        blocks.append((first,) + tuple(run_[1:]))
    return make_filtered_module(p, dim, blocks)


@pytest.mark.parametrize("p", [2, 3, 65537])
def test_extension_classes_count_every_nonzero_element(p):
    module = make_filtered_module(
        p, 4, (((1, 0, 0, 0),), ((0, 1, 0, 0), (1, 1, 0, 0)), ((0, 0, 1, 1), (0, 0, 0, 1)))
    )
    patterns = _BlockPatterns(module)
    classes = patterns.classes()
    assert sum(c.count for c in classes) == p ** len(module.top()) - 1
    for cls in classes:
        assert needed_blocks(module, patterns.example(cls)) == tuple(sorted(cls.blocks))


def test_passing_families_enumerate_no_vector(fixture_dir, monkeypatch):
    yielded = []
    original = hill.enumerate_space

    def counting(p, basis):
        for v in original(p, basis):
            yielded.append(v)
            yield v

    monkeypatch.setattr(hill, "enumerate_space", counting)
    for name in ("hill_indep_f2", "hill_dep_f2", "hill_op_f2", "hill_dep_f3", "hill_big_f2"):
        report = run(JobSpec("hill-verify", (str(fixture_dir / (name + ".txt")),)))
        assert report.exit_status == EXIT_OK, name
    assert verify_hill_properties(build_hill_family(_direct_sum(65537, 6, 3))).ok
    assert yielded == []
    # a failing class is named by one concrete element; hill_broken_f2's has a
    # one-vector V_N, which the walk takes without enumerating
    report = run(JobSpec("hill-verify", (str(fixture_dir / "hill_broken_f2.txt"),)))
    assert report.exit_status == EXIT_CHECK_FAILED
    # the count is live: an example of a class with a two-vector V_N walks a line
    patterns = _BlockPatterns(
        make_filtered_module(2, 4, (((1, 0, 0, 0),), ((0, 1, 0, 0), (1, 1, 0, 0)), ((0, 0, 1, 1), (0, 0, 0, 1))))
    )
    patterns.example(next(c for c in patterns.classes() if len(c.coords) > 1))
    assert yielded


def test_large_field_pruned_family_names_exact_examples():
    p = 65537
    module = _direct_sum(p, 8, 4)
    family = build_hill_family(module)
    kept = tuple(m for m in family.members if m.support != (0, 1, 3))
    report = verify_hill_properties(HillLattice(module, kept))
    assert not report.extensions_ok
    for w in report.extension_failures:
        assert needed_blocks(module, w.element) == w.blocks
        assert w.found_support == ()
    # x extends member M onto the dropped support D exactly when M is inside
    # D and x is nonzero on the pieces of N, where D - M <= N <= D; there
    # are (p^2 - 1)^|N| such x
    dropped = {0, 1, 3}
    subsets = [set(c) for k in range(4) for c in combinations(sorted(dropped), k)]
    expected = sum(
        (p * p - 1) ** len(n)
        for m in subsets if m != dropped
        for n in subsets if n and dropped - m <= n
    )
    assert report.failed_extensions == expected
    assert report.findings[-1] == "%d one-element extensions failed" % expected
