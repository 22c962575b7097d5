"""The element-by-element Hill verifier, kept as a test oracle.

This is the verifier `qsheaf.hill.verify_hill_properties` replaced: it
checks property (4) by walking every vector of the top stage once per
member, so its cost grows with p^dim.  It is only run on small families,
where it gives the reference report for the class-wise verifier.  Its
extension witnesses have the old per-element shape, defined here.
`needed_blocks` is the block set it derives for one element.

`fp_rref` is the F_p Gauss-Jordan loop `qsheaf.hill.fp_rref` ran before it
read its echelon form off `qsheaf.exactpoly.rref`, the one elimination
routine over Q and F_p.  `fp_reduce` reduces a vector by a reduced-echelon
basis in one step, where `qsheaf.hill` reduces row by row.

`_paired_rref`, `fp_intersect`, `fp_nullspace` and `fp_solve` are the
bodies `qsheaf.hill` had before `_paired_rref` read the right halves off
its one elimination and `fp_solve` reduced through `fp_reduce`: they
re-echelon the right halves, and `fp_solve` runs a loop of its own.  The
oracle verifier intersects and solves with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from qsheaf.hill import (
    ChainStep,
    ChainWitness,
    HillLattice,
    HillReport,
    _down_closure,
    _orbit,
    _pivot,
    closed_span,
    enumerate_space,
    fp_in_span,
    fp_sum,
    fp_vec,
    quotient_partition,
)


def fp_rref(p: int, rows) -> tuple:
    """Canonical reduced-echelon basis of the row span (unique per space)."""
    mat = [list(fp_vec(p, r)) for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    out = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(x - c * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return tuple(tuple(r) for r in mat[:rank])


def fp_reduce(p: int, basis, vec) -> tuple:
    """The residue of vec by a reduced-echelon basis: vec less the basis
    rows, each taken as often as vec's entry at its pivot says (every other
    row is zero there)."""
    vec = fp_vec(p, vec)
    out = list(vec)
    for row in basis:
        c = vec[_pivot(row)]
        out = [(x - c * y) % p for x, y in zip(out, row)]
    return tuple(out)


def _paired_rref(p: int, pairs):
    """Echelon form of (left | right) rows, eliminating by left columns
    first; rows whose left half vanished are re-echeloned by the right."""
    if not pairs:
        return [], ()
    lw = len(pairs[0][0])
    joined = [list(l) + list(r) for l, r in pairs]
    red = fp_rref(p, joined)
    with_left = [(row[:lw], row[lw:]) for row in red if any(row[:lw])]
    zero_left = [row[lw:] for row in red if not any(row[:lw])]
    return with_left, fp_rref(p, zero_left)


def fp_nullspace(p: int, rows) -> tuple:
    """Canonical basis of {c : sum c_i rows_i = 0}."""
    if not rows:
        return ()
    n = len(rows)
    pairs = []
    for i, r in enumerate(rows):
        unit = [0] * n
        unit[i] = 1
        pairs.append((tuple(r), tuple(unit)))
    _, zero_left = _paired_rref(p, pairs)
    return zero_left


def fp_solve(p: int, gens, target) -> Optional[tuple]:
    """One coefficient vector with sum c_i gens_i = target, chosen
    canonically from the echelon form; None when target is outside."""
    if not gens:
        return () if not any(fp_vec(p, target)) else None
    n = len(gens)
    pairs = []
    for i, r in enumerate(gens):
        unit = [0] * n
        unit[i] = 1
        pairs.append((tuple(fp_vec(p, r)), tuple(unit)))
    with_left, _ = _paired_rref(p, pairs)
    res = list(fp_vec(p, target))
    comb = [0] * n
    for left, right in with_left:
        piv = _pivot(left)
        c = res[piv]
        if c:
            res = [(x - c * y) % p for x, y in zip(res, left)]
            comb = [(x + c * y) % p for x, y in zip(comb, right)]
    if any(res):
        return None
    return tuple(comb)


def fp_intersect(p: int, a, b) -> tuple:
    """Intersection of two spans by the double-block echelon method."""
    pairs = [(v, v) for v in a] + [(w, tuple(0 for _ in w)) for w in b]
    _, zero_left = _paired_rref(p, pairs)
    return zero_left


def needed_blocks(module, x) -> tuple:
    """The blocks whose orbit generators fp_solve's combination of x uses."""
    op = module.operator
    gens = [(beta, r) for beta, block in enumerate(module.blocks) for b in block
            for r in _orbit(module.p, b, op)]
    coeffs = fp_solve(module.p, [g for _, g in gens], x)
    return tuple(sorted({beta for (beta, _), c in zip(gens, coeffs) if c}))


@dataclass(frozen=True)
class ExtensionWitness:
    member_support: tuple
    element: tuple
    found_support: tuple
    added_dim: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.added_dim <= self.bound


def verify_hill_properties(lattice: HillLattice) -> HillReport:
    """Exhaustive check of the four lattice properties.  Everything is
    recomputed from the module data; the report carries explicit witnesses
    (chains for property three, extension members for property four)."""
    module = lattice.module
    p = module.p
    op = module.operator
    findings = []
    spaces = {m.space: m for m in lattice.members}

    # (1) the filtration stages belong to the family
    stages_present = True
    for alpha, stage in enumerate(module.stages):
        if stage not in spaces:
            stages_present = False
            findings.append("stage %d is missing from the family" % alpha)

    # (2) pairwise sums and intersections stay inside
    lattice_closed = True
    lattice_witness = None
    mem = lattice.members
    for i in range(len(mem)):
        for j in range(i, len(mem)):
            s = fp_sum(p, mem[i].space, mem[j].space)
            if s not in spaces:
                lattice_closed = False
                lattice_witness = ("sum", mem[i].support, mem[j].support)
                findings.append(
                    "sum of members %s and %s escapes the family"
                    % (mem[i].support, mem[j].support)
                )
                break
            t = fp_intersect(p, mem[i].space, mem[j].space)
            if t not in spaces:
                lattice_closed = False
                lattice_witness = ("intersection", mem[i].support, mem[j].support)
                findings.append(
                    "intersection of members %s and %s escapes the family"
                    % (mem[i].support, mem[j].support)
                )
                break
        if not lattice_closed:
            break

    # block invariants, computed once
    block_data = []
    for beta in range(module.sigma):
        bdim = len(module.stages[beta + 1]) - len(module.stages[beta])
        bpart = quotient_partition(
            p, module.stages[beta + 1], module.stages[beta], op
        )
        block_data.append((bdim, bpart))

    # (3) chains with block-matching quotients between nested members
    chains = []
    chains_ok = True
    for low in mem:
        for high in mem:
            if low is high:
                continue
            if not all(fp_in_span(p, high.space, v) for v in low.space):
                continue
            sset = set(low.support)
            tset = set(high.support)
            if not sset <= tset:
                # supports are maximal, so nesting implies support nesting;
                # anything else is a genuine failure
                chains_ok = False
                findings.append(
                    "no support chain from %s to %s" % (low.support, high.support)
                )
                continue
            steps = []
            cur = low.space
            cur_supp = set(sset)
            for gamma in sorted(tset - sset):
                cur_supp.add(gamma)
                nxt_vectors = list(module.blocks[gamma])
                nxt = fp_sum(p, cur, closed_span(p, nxt_vectors, op))
                qdim = len(nxt) - len(cur)
                qpart = quotient_partition(p, nxt, cur, op)
                bdim, bpart = block_data[gamma]
                steps.append(ChainStep(gamma, qdim, qpart, bdim, bpart))
                cur = nxt
            witness = ChainWitness(low.support, high.support, tuple(steps))
            if cur != high.space:
                chains_ok = False
                findings.append(
                    "chain from %s does not land on %s"
                    % (low.support, high.support)
                )
            if not witness.ok:
                chains_ok = False
                bad = [s.block for s in witness.steps if not s.ok]
                findings.append(
                    "chain %s -> %s has mismatched quotients at blocks %s"
                    % (low.support, high.support, bad)
                )
            chains.append(witness)

    # (4) one-element extensions inside the family, with a dimension bound
    max_block = max(
        (len(closed_span(p, b, op)) for b in module.blocks), default=0
    )
    all_orbit_gens = []
    for beta in range(module.sigma):
        for b in module.blocks[beta]:
            for r in _orbit(p, b, op):
                all_orbit_gens.append((beta, r))
    extensions_ok = True
    extension_failures = []
    for member in mem:
        for x in enumerate_space(p, module.top()):
            if module.dim and not any(x):
                continue
            if not x:
                continue
            coeffs = fp_solve(p, [g for _, g in all_orbit_gens], x)
            if coeffs is None:
                raise AssertionError("element of the module escapes the blocks")
            needed = {
                beta for (beta, _), c in zip(all_orbit_gens, coeffs) if c
            }
            tsupp = _down_closure(module.deps, needed | set(member.support))
            target_vectors = []
            for alpha in tsupp:
                target_vectors.extend(module.blocks[alpha])
            tspace = closed_span(p, target_vectors, op) if target_vectors else ()
            found = spaces.get(tspace)
            added = len(tspace) - member.dim
            bound = max_block * len(tsupp - set(member.support))
            witness = ExtensionWitness(
                member.support,
                x,
                found.support if found else (),
                added,
                bound,
            )
            if (
                found is None
                or not fp_in_span(p, tspace, x)
                or not all(fp_in_span(p, tspace, v) for v in member.space)
                or not witness.ok
            ):
                extensions_ok = False
                extension_failures.append(witness)
    if extension_failures:
        findings.append(
            "%d one-element extensions failed" % len(extension_failures)
        )

    ok = stages_present and lattice_closed and chains_ok and extensions_ok
    return HillReport(
        ok,
        stages_present,
        lattice_closed,
        lattice_witness,
        chains_ok,
        tuple(chains),
        extensions_ok,
        tuple(extension_failures),
        tuple(findings),
    )
