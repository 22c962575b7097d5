"""The lattice-theorem path of the Hill verifier against the pairwise path.

`verify_hill_properties` passes a family that meets (H1) and (H2) by the
finite Hill lemma, and hands every other family to `_verify_pairwise`, which
checks the four properties pair by pair.  On random modules over F_2, F_3
and F_5, with and without an operator and with planted dependencies, both
must give the same whole `HillReport`: on built families, on listed families
that happen to be the closed family, on families with one member left out
and on families listed from random supports.  A built family always meets
the hypotheses, so it never falls back; a pruned one always does.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from qsheaf import hill
from qsheaf.hill import (
    HillLattice,
    _verify_pairwise,
    build_hill_family,
    make_filtered_module,
    quotient_partition,
    verify_hill_properties,
)
from qsheaf.sheaffile import family_from_supports

# the pairwise path has no p^dim walk, so these run well past the sizes
# of the element-by-element oracle
MAX_DIM = {2: 6, 3: 5, 5: 4}


@st.composite
def modules(draw):
    p = draw(st.sampled_from(sorted(MAX_DIM)))
    dim = draw(st.integers(1, MAX_DIM[p]))
    op = None
    if draw(st.booleans()):
        # strictly upper triangular, hence nilpotent
        op = tuple(
            tuple(draw(st.integers(0, p - 1)) if j > i else 0 for j in range(dim))
            for i in range(dim)
        )
    vec = st.tuples(*[st.integers(0, p - 1)] * dim)
    blocks = []
    for block in draw(st.lists(st.lists(vec, min_size=1, max_size=2), max_size=5)):
        try:
            make_filtered_module(p, dim, blocks + [block], op)
        except ValueError:
            continue  # the block does not grow the filtration
        blocks.append(block)
    if len(blocks) > 1 and draw(st.booleans()):
        # plant a relation of a later block reaching back into an earlier one
        late = draw(st.integers(1, len(blocks) - 1))
        early = draw(st.integers(0, late - 1))
        own, reach = blocks[late][0], blocks[early][0]
        blocks[late] = blocks[late] + [tuple((x + y) % p for x, y in zip(own, reach))]
    return make_filtered_module(p, dim, blocks, op)


def _paths_agree(lattice) -> bool:
    """Whole reports of both paths are equal; returns whether
    verify_hill_properties fell back to the pairwise path."""
    fallbacks = []

    def counting(lat):
        fallbacks.append(lat)
        return _verify_pairwise(lat)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(hill, "_verify_pairwise", counting)
        report = verify_hill_properties(lattice)
    assert report == _verify_pairwise(lattice)
    return bool(fallbacks)


@given(modules(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_built_and_relisted_families_pass_by_the_theorem(module, rng):
    built = build_hill_family(module)
    assert not _paths_agree(built)
    # the closed supports listed in any order give the same family
    supports = [m.support for m in built.members]
    rng.shuffle(supports)
    listed = family_from_supports(module, supports)
    assert listed.members == built.members
    assert not _paths_agree(listed)
    assert verify_hill_properties(listed).ok


@given(modules(), st.data())
@settings(max_examples=60, deadline=None)
def test_pruned_families_fall_back(module, data):
    members = build_hill_family(module).members
    drop = data.draw(st.integers(0, len(members) - 1))
    assert _paths_agree(HillLattice(module, members[:drop] + members[drop + 1:]))


@given(modules().filter(lambda m: m.sigma >= 2), st.data())
@settings(max_examples=60, deadline=None)
def test_listed_families_agree(module, data):
    masks = data.draw(st.lists(st.integers(0, (1 << module.sigma) - 1), min_size=1, max_size=10))
    supports = [tuple(b for b in range(module.sigma) if mask >> b & 1) for mask in masks]
    _paths_agree(family_from_supports(module, supports))


def test_built_family_with_mismatched_partitions_falls_back():
    # x sends e1 and e2 to e3, so block 0 spans <e1, e3> and block 1 spans
    # <e2, e3>: block 1 depends on block 0, and stage 2 / stage 1 is one
    # size-1 block.  With that dependency stripped, {1} is a member whose
    # quotient over 0 is one size-2 block: the family fails (H2), and the
    # pairwise path names the mismatched chain.
    op = ((0, 0, 1), (0, 0, 1), (0, 0, 0))
    module = make_filtered_module(2, 3, (((1, 0, 0),), ((0, 1, 0),)), operator=op)
    assert module.deps == (frozenset(), frozenset({0}))
    stripped = dataclasses.replace(module, deps=(frozenset(), frozenset()))
    family = build_hill_family(stripped)
    space = {m.support: m.space for m in family.members}
    assert quotient_partition(2, space[(1,)], space[()], op) == (2,)
    assert quotient_partition(2, module.stages[2], module.stages[1], op) == (1,)
    assert _paths_agree(family)
    report = verify_hill_properties(family)
    assert not report.chains_ok
    assert "chain () -> (1,) has mismatched quotients at blocks [1]" in report.findings


@pytest.mark.parametrize("deps", [(frozenset(), frozenset({1})), (frozenset({1}), frozenset())])
def test_dependencies_that_do_not_reach_back_fall_back(deps):
    module = make_filtered_module(2, 2, (((1, 0),), ((0, 1),)))
    family = build_hill_family(dataclasses.replace(module, deps=deps))
    assert _paths_agree(family)


def test_family_failing_h2_falls_back():
    # block 1's generator e2 lies in block 0, so block 1 depends on it;
    # with that dependency stripped, every support is closed, but A_1 =
    # <e2, e3> has dimension 2 against d_1 = 1, and A_0 & A_1 = <e2> is no
    # member
    module = make_filtered_module(2, 3, (((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1))))
    assert module.deps == (frozenset(), frozenset({0}))
    family = build_hill_family(dataclasses.replace(module, deps=(frozenset(), frozenset())))
    assert len(family.members) == 4
    assert _paths_agree(family)
    report = verify_hill_properties(family)
    assert report.lattice_witness == ("intersection", (1,), (0,))


def test_unclosed_support_in_place_of_a_closed_one_falls_back():
    # with block 2 made to depend on block 1, the closed supports are the
    # stages, {1} and {1, 2}; listing {0, 2} instead of {1, 2} keeps the
    # count, the stages and every dimension, but {0, 2} is not closed
    units = ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)
    module = dataclasses.replace(
        make_filtered_module(2, 3, units), deps=(frozenset(), frozenset(), frozenset({1}))
    )
    family = family_from_supports(module, [(), (0,), (0, 1), (0, 1, 2), (1,), (0, 2)])
    assert _paths_agree(family)
    assert not verify_hill_properties(family).extensions_ok


def test_member_that_is_not_the_span_of_its_support_is_refused():
    module = make_filtered_module(2, 2, (((1, 0),), ((0, 1),)))
    # the two one-dimensional members with their supports swapped: every
    # support is still closed and of the right dimension
    members = list(build_hill_family(module).members)
    members[1:3] = [
        dataclasses.replace(members[1], support=members[2].support),
        dataclasses.replace(members[2], support=members[1].support),
    ]
    for verify in (verify_hill_properties, _verify_pairwise):
        with pytest.raises(AssertionError, match="is not the span of its support"):
            verify(HillLattice(module, tuple(members)))
