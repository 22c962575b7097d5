"""The class-wise Hill verifier against the element-by-element oracle.

`hill_oracle.verify_hill_properties` walks every vector of the top stage
once per member.  On random small families, with and without an operator,
with planted dependencies, and with one member left out of the family, both
verifiers must agree on every verdict, witness, chain and finding, and the
failing extensions the oracle lists one by one must be exactly the classes
the new verifier reports, with their counts.

Listed families (`family_from_supports` on random support lists, closed or
not, maximal or not) reach the paths a built family never takes: the
elimination fallback for an intersection the supports do not give, nested
members whose listed supports are not nested, and the re-check of the first
escaping pair.
"""

import pathlib
from collections import Counter

from hypothesis import given, settings, strategies as st

import hill_oracle
from hill_oracle import needed_blocks
from qsheaf import hill
from qsheaf.hill import (
    HillLattice,
    build_hill_family,
    make_filtered_module,
    verify_hill_properties,
)
from qsheaf.sheaffile import family_from_supports, parse_filtered_file

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

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
    assert new.chains == len(old.chains)
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


@st.composite
def listed_families(draw):
    """A listed family over at least two blocks: random supports, kept in
    the order drawn, and half the time closed under unions, so that only
    an intersection can escape."""
    module = draw(modules().filter(lambda m: m.sigma >= 2))
    masks = draw(st.lists(st.integers(0, (1 << module.sigma) - 1), min_size=1, max_size=8))
    if draw(st.booleans()):
        joined = set(masks)
        for _ in range(module.sigma):
            joined |= {a | b for a in joined for b in joined}
        masks += sorted(joined - set(masks))
    supports = [tuple(b for b in range(module.sigma) if mask >> b & 1) for mask in masks]
    return family_from_supports(module, supports)


@given(listed_families())
@settings(max_examples=80)
def test_class_verifier_matches_oracle_on_listed_families(lattice):
    _assert_agree(lattice)


def test_listed_supports_whose_meet_is_too_small_intersect_once(monkeypatch):
    # A_0 lies in A_1, so A_0 & A_1 = A_0, but the supports {0} and {1}
    # meet in the empty support, whose space is 0
    module, _ = parse_filtered_file(str(FIXTURES / "hill_dep_f2.txt"))
    lattice = family_from_supports(module, [(0,), (1,)])
    calls = []
    fp_intersect = hill.fp_intersect

    def counting(p, a, b):
        calls.append((a, b))
        return fp_intersect(p, a, b)

    monkeypatch.setattr(hill, "fp_intersect", counting)
    report = _assert_agree(lattice)
    assert len(calls) == 1
    assert report.lattice_closed
    assert "no support chain from (0,) to (1,)" in report.findings
