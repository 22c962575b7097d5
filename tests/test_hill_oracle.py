"""The class-wise Hill verifier against the element-by-element oracle.

`hill_oracle.verify_hill_properties` walks every vector of the top stage
once per member.  On random small families, with and without an operator,
with planted dependencies, and with one member left out of the family, both
verifiers must agree on every verdict, witness, chain and finding, and the
failing extensions the oracle lists one by one must be exactly the classes
the new verifier reports, with their counts.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

import hill_oracle
from hill_oracle import needed_blocks
from qsheaf.hill import (
    HillLattice,
    build_hill_family,
    make_filtered_module,
    verify_hill_properties,
)

# p^dim stays small enough for the oracle's walk over the top stage
MAX_DIM = {2: 5, 3: 4, 5: 3}


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
    for block in draw(st.lists(st.lists(vec, min_size=1, max_size=2), max_size=4)):
        try:
            make_filtered_module(p, dim, blocks + [block], op)
        except ValueError:
            continue  # the block does not grow the filtration
        blocks.append(block)
    if len(blocks) > 1 and draw(st.booleans()):
        # plant a relation of the last block reaching back into block 0
        own, reach = blocks[-1][0], blocks[0][0]
        blocks[-1] = blocks[-1] + [tuple((x + y) % p for x, y in zip(own, reach))]
    return make_filtered_module(p, dim, blocks, op)


def _assert_agree(lattice):
    new = verify_hill_properties(lattice)
    old = hill_oracle.verify_hill_properties(lattice)
    assert new.ok == old.ok
    assert new.stages_present == old.stages_present
    assert new.lattice_closed == old.lattice_closed
    assert new.lattice_witness == old.lattice_witness
    assert new.chains_ok == old.chains_ok
    assert new.chains == old.chains
    assert new.extensions_ok == old.extensions_ok
    assert new.findings == old.findings
    assert new.failed_extensions == len(old.extension_failures)
    module = lattice.module
    expected = Counter(
        (w.member_support, needed_blocks(module, w.element), w.found_support, w.added_dim, w.bound)
        for w in old.extension_failures
    )
    got = Counter()
    for w in new.extension_failures:
        assert needed_blocks(module, w.element) == w.blocks
        got[w.member_support, w.blocks, w.found_support, w.added_dim, w.bound] += w.count
    assert got == expected
    return new


@given(modules())
@settings(max_examples=60)
def test_class_verifier_matches_oracle(module):
    assert _assert_agree(build_hill_family(module)).ok


@given(modules(), st.data())
@settings(max_examples=60)
def test_class_verifier_matches_oracle_on_pruned_families(module, data):
    members = build_hill_family(module).members
    drop = data.draw(st.integers(0, len(members) - 1))
    _assert_agree(HillLattice(module, members[:drop] + members[drop + 1:]))
