"""Finite lattice of distinguished submodules of a filtered module.

A finite-dimensional module over F_p (optionally an F_p[x]/(x^k)-module via
a nilpotent operator) filtered by stages with chosen generator blocks gives
rise to a family of submodules: one for every support set of blocks closed
under the dependency relation "a block's relations reach back into an
earlier block".  The family is enumerated outright, and its lattice
properties are verified:

  (1) every filtration stage belongs to the family;
  (2) the family is closed under pairwise sums and intersections, which in
      the finite case gives closure under arbitrary ones;
  (3) between any two nested members there is a chain inside the family
      whose successive quotients match the filtration blocks (dimension
      and, in the operator case, nilpotent partition type);
  (4) any member extended by a single element embeds into a member that is
      larger by a controlled dimension bound.

The finite Hill lemma (Stovicek & Trlifaj, Rocky Mountain J. Math. 39,
2009) proves all four from two hypotheses: (H1) the member supports are
exactly the dependency-closed ones, and (H2) each member's dimension is
the sum of the (positive) dimensions its blocks add to the filtration.
A family meeting them, as every built family does, passes on work over
the support masks alone (see verify_hill_properties).  Any other family
is checked pair by pair.  With A_S the member space of a support S, sums,
intersections and nesting are read off the supports: A_S + A_T =
A_{S|T}, A_{S&T} = A_S & A_T exactly when the dimensions add up (else it
is eliminated), and the first escaping pair is eliminated again as a
check.  Property (4) is checked once per class of elements whose
canonical combination of orbit generators uses the same blocks N: these
form the difference of the subspace V_N and the smaller V_N' inside it,
so inclusion-exclusion counts each class and the cost does not grow with
p^dim.

Everything is exact arithmetic over F_p with canonical reduced bases, so
subspaces compare by equality.  Vectors are reduced mod p once, where they
enter: make_filtered_module reduces the blocks and the operator, and each
public fp_* function reduces its arguments.  From there on every row is
canonical (entries in range(p)), fp_mat_vec returns reduced vectors, and
the module's own eliminations (closed_span, quotient_partition and the
stages of make_filtered_module) call _rref and _reduce, which take
canonical rows as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .exactpoly import Field, rref


# ---------------------------------------------------------------------------
# Exact linear algebra over F_p with canonical bases


def fp_vec(p: int, entries) -> tuple:
    return tuple(int(e) % p for e in entries)


def _pivot(row) -> int:
    for i, e in enumerate(row):
        if e:
            return i
    return -1


def _rref(p: int, rows) -> tuple:
    """Canonical reduced-echelon basis of the span of canonical rows
    (entries in range(p)): unique per space."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    rank = len(rref(p, mat, len(mat[0])))
    return tuple(tuple(r) for r in mat[:rank])


def _reduce(p: int, basis, vec) -> tuple:
    """A canonical vector reduced by a canonical reduced-echelon basis."""
    res = vec
    for row in basis:
        c = res[_pivot(row)]
        if c:
            res = [(x - c * y) % p for x, y in zip(res, row)]
    return tuple(res)


def fp_rref(p: int, rows) -> tuple:
    """_rref of rows with any integer entries."""
    return _rref(p, [fp_vec(p, r) for r in rows])


def fp_reduce(p: int, basis, vec) -> tuple:
    """_reduce by a canonical basis (as fp_rref returns) of a vector with
    any integer entries."""
    return _reduce(p, basis, fp_vec(p, vec))


def fp_in_span(p: int, basis, vec) -> bool:
    return not any(fp_reduce(p, basis, vec))


def fp_sum(p: int, a, b) -> tuple:
    return fp_rref(p, tuple(a) + tuple(b))


def _paired_rref(p: int, pairs):
    """Echelon form of canonical (left | right) rows, eliminating by left
    columns first.  The rows whose left half vanished pivot right of the
    left block, so their right halves are already a reduced echelon basis."""
    if not pairs:
        return [], ()
    lw = len(pairs[0][0])
    red = _rref(p, [tuple(l) + tuple(r) for l, r in pairs])
    with_left = [row for row in red if any(row[:lw])]
    zero_left = tuple(row[lw:] for row in red if not any(row[:lw]))
    return with_left, zero_left


def _with_units(p: int, rows):
    """_paired_rref of the canonical rows each beside its unit vector, so
    the right half of an echelon row is the combination of rows giving its
    left."""
    n = len(rows)
    return _paired_rref(
        p, [(tuple(r), tuple(int(i == j) for j in range(n))) for i, r in enumerate(rows)]
    )


def fp_intersect(p: int, a, b) -> tuple:
    """Intersection of two spans by the double-block echelon method."""
    a = [fp_vec(p, v) for v in a]
    b = [fp_vec(p, w) for w in b]
    pairs = [(v, v) for v in a] + [(w, tuple(0 for _ in w)) for w in b]
    _, zero_left = _paired_rref(p, pairs)
    return zero_left


def fp_nullspace(p: int, rows) -> tuple:
    """Canonical basis of {c : sum c_i rows_i = 0}."""
    _, zero_left = _with_units(p, [fp_vec(p, r) for r in rows])
    return zero_left


def fp_solve(p: int, gens, target) -> Optional[tuple]:
    """One coefficient vector with sum c_i gens_i = target, chosen
    canonically from the echelon form; None when target is outside.
    Reducing (target | 0) by the rows (g | c) with g = c.gens leaves
    (0 | -c) exactly when c.gens = target."""
    with_left, _ = _with_units(p, [fp_vec(p, g) for g in gens])
    res = _reduce(p, with_left, fp_vec(p, target) + (0,) * len(gens))
    if any(res[: len(target)]):
        return None
    return tuple(-x % p for x in res[len(target):])


def fp_mat_vec(p: int, vec, mat) -> tuple:
    """Row vector times matrix, reduced mod p."""
    n = len(mat[0]) if mat else 0
    out = [0] * n
    for c, row in zip(vec, mat):
        if c:
            for j in range(n):
                out[j] = (out[j] + c * row[j]) % p
    return tuple(out)


def enumerate_space(p: int, basis):
    """Every vector of the span, zero included."""
    if not basis:
        yield ()
        return
    for coeffs in product(range(p), repeat=len(basis)):
        yield fp_mat_vec(p, coeffs, basis)


# ---------------------------------------------------------------------------
# Filtered modules


def _orbit(p: int, vec, op) -> list:
    """The canonical vector and its images under repeated application of
    the canonical operator, until it dies (operators here are nilpotent, and
    None is the zero operator)."""
    out = []
    cur = vec
    while any(cur):
        out.append(cur)
        if op is None:
            break
        cur = fp_mat_vec(p, cur, op)
    return out


def closed_span(p: int, vectors, op) -> tuple:
    """The operator-closed span of canonical vectors under a canonical
    operator, as the module data is."""
    rows = []
    for v in vectors:
        rows.extend(_orbit(p, v, op))
    return _rref(p, rows)


@dataclass(frozen=True)
class FilteredModule:
    """Filtration data: stage alpha+1 is stage alpha plus the span of block
    alpha (operator-closed; operator None is the zero operator).  All
    derived data is canonical and computed at construction: orbits[beta]
    holds the orbit rows of block beta's generators, and the dependency
    relation deps[beta] lists the earlier blocks whose orbit rows appear
    when the relations of block beta over stage beta are written out.
    Member spaces are kept per support once built."""

    p: int
    dim: int
    blocks: tuple
    operator: Optional[tuple]
    orbits: tuple
    stages: tuple
    deps: tuple

    def __post_init__(self):
        object.__setattr__(self, "_spaces", {})

    @property
    def sigma(self) -> int:
        return len(self.blocks)

    def top(self) -> tuple:
        return self.stages[-1]

    def member_space(self, support) -> tuple:
        """The member of a support: the operator-closed span of its blocks,
        which is the span of their orbit rows, read off self.orbits."""
        key = frozenset(support)
        if key not in self._spaces:
            rows = [r for alpha in sorted(key) for r in self.orbits[alpha]]
            self._spaces[key] = closed_span(self.p, rows, None)
        return self._spaces[key]


class FilteredModuleError(ValueError):
    """A refusal of make_filtered_module; .concerns names the input it
    concerns: "p", "dim", "operator", or the index of a block."""

    def __init__(self, message: str, concerns):
        super().__init__(message)
        self.concerns = concerns


def make_filtered_module(p: int, dim: int, blocks, operator=None) -> FilteredModule:
    try:
        Field.prime(p)  # validates primality
    except ValueError as err:
        raise FilteredModuleError(str(err), "p") from None
    if dim < 0:
        raise FilteredModuleError("negative ambient dimension", "dim")
    blocks = tuple(tuple(fp_vec(p, v) for v in block) for block in blocks)
    for beta, block in enumerate(blocks):
        if not block:
            raise FilteredModuleError("empty generator block", beta)
        if any(len(v) != dim for v in block):
            raise FilteredModuleError("generator of wrong length", beta)
    if operator is not None:
        operator = tuple(tuple(int(e) % p for e in row) for row in operator)
        if len(operator) != dim or any(len(r) != dim for r in operator):
            raise FilteredModuleError("operator must be a dim x dim matrix", "operator")
        # rows of the powers of the operator, dropped as they die
        power = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
        for _ in range(dim):
            power = [r for r in (fp_mat_vec(p, row, operator) for row in power) if any(r)]
        if power:
            raise FilteredModuleError("operator is not nilpotent", "operator")
    stages = [()]
    orbits = []
    deps = []
    for beta, block in enumerate(blocks):
        mbeta = stages[-1]
        orows = [r for b in block for r in _orbit(p, b, operator)]
        if not orows:
            raise FilteredModuleError("block %d adds nothing to the filtration" % beta, beta)
        gens = [g for orbit in orbits for g in orbit]
        owner = [alpha for alpha, orbit in enumerate(orbits) for _ in orbit]
        reduced = [_reduce(p, mbeta, r) for r in orows]
        support = set()
        for c in fp_nullspace(p, reduced):
            coeffs = fp_solve(p, gens, fp_mat_vec(p, c, orows))
            if coeffs is None:
                raise AssertionError("relation element escapes the earlier stages")
            support.update(owner[j] for j, cj in enumerate(coeffs) if cj)
        deps.append(frozenset(support))
        nxt = _rref(p, gens + orows)
        if len(nxt) <= len(mbeta):
            raise FilteredModuleError("block %d adds nothing to the filtration" % beta, beta)
        stages.append(nxt)
        orbits.append(tuple(orows))
    return FilteredModule(
        p, dim, blocks, operator, tuple(orbits), tuple(stages), tuple(deps)
    )


# ---------------------------------------------------------------------------
# The family


@dataclass(frozen=True)
class HillMember:
    space: tuple  # canonical basis
    # a support whose member space is the space: in a built family the
    # union of the closed supports spanning it, in a listed family the
    # first one listed (which need be neither closed nor largest)
    support: tuple

    @property
    def dim(self) -> int:
        return len(self.space)


@dataclass(frozen=True)
class HillLattice:
    module: FilteredModule
    members: tuple


def _down_closure(deps, support) -> frozenset:
    out = set(support)
    changed = True
    while changed:
        changed = False
        for beta in list(out):
            for alpha in deps[beta]:
                if alpha not in out:
                    out.add(alpha)
                    changed = True
    return frozenset(out)


def _closed_masks(module: FilteredModule) -> list:
    """closed[mask]: the support with this bitmask holds its blocks' deps.
    This is the one enumeration of all 2^sigma supports, so it refuses a
    module with sigma or dim above 14, built or listed family alike."""
    if module.sigma > 14 or module.dim > 14:
        raise ValueError("size bound exceeded: need sigma <= 14 and dim <= 14")
    need = [_mask(d) for d in module.deps]
    return [
        all(not mask >> b & 1 or not n & ~mask for b, n in enumerate(need))
        for mask in range(1 << len(need))
    ]


def assemble_family(module: FilteredModule, supports, union: bool) -> HillLattice:
    """The family of the distinct member spaces of the supports, ordered by
    (dim, space).  Supports naming one space merge into their union when
    union is set, and otherwise the first of them is kept."""
    spaces: dict = {}
    for s in supports:
        space = module.member_space(s)
        if space not in spaces:
            spaces[space] = frozenset(s)
        elif union:
            spaces[space] |= frozenset(s)
    members = [
        HillMember(space, tuple(sorted(supp))) for space, supp in spaces.items()
    ]
    members.sort(key=lambda m: (m.dim, m.space))
    return HillLattice(module, tuple(members))


def build_hill_family(module: FilteredModule) -> HillLattice:
    """Enumerate the dependency-closed supports and collect the distinct
    submodules they span; equal spaces merge, keeping the union of their
    supports (the union of closed sets is closed and spans the same)."""
    supports = [
        [b for b in range(module.sigma) if mask >> b & 1]
        for mask, closed in enumerate(_closed_masks(module)) if closed
    ]
    return assemble_family(module, supports, union=True)


# ---------------------------------------------------------------------------
# Quotient invariants


def quotient_partition(p: int, big, small, op) -> tuple:
    """Partition type of the induced nilpotent operator on big/small,
    reported as block sizes in nonincreasing order; for the zero operator
    (op None) this is all ones, so it carries exactly the dimension.  The
    spaces and the operator are canonical, as the module data is."""
    residues = [_reduce(p, small, r) for r in big]
    comp = _rref(p, residues)
    q = len(comp)
    if op is None:
        return (1,) * q
    if q == 0:
        return ()
    # comp is reduced echelon, so a vector of its span has the coefficients
    # it carries at the pivot columns (what fp_solve returns on comp)
    pivots = [_pivot(c) for c in comp]
    rows = []
    for c in comp:
        img = _reduce(p, small, fp_mat_vec(p, c, op))
        if any(_reduce(p, comp, img)):
            raise AssertionError("operator does not preserve the quotient")
        rows.append(tuple(img[j] for j in pivots))
    ranks = [q, len(_rref(p, rows))]
    # rows of the powers, dropped as they die; none are left at rank 0
    power = [r for r in rows if any(r)]
    while power:
        power = [r for r in (fp_mat_vec(p, row, rows) for row in power) if any(r)]
        ranks.append(len(_rref(p, power)))
    counts = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    out = []
    for j, nblocks in enumerate(
        [counts[j] - (counts[j + 1] if j + 1 < len(counts) else 0) for j in range(len(counts))]
    ):
        out.extend([j + 1] * nblocks)
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# The four properties


@dataclass(frozen=True)
class ChainStep:
    block: int
    quotient_dim: int
    quotient_partition: tuple
    block_dim: int
    block_partition: tuple

    @property
    def ok(self) -> bool:
        return (
            self.quotient_dim == self.block_dim
            and self.quotient_partition == self.block_partition
        )


@dataclass(frozen=True)
class ChainWitness:
    lower_support: tuple
    upper_support: tuple
    steps: tuple

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)


@dataclass(frozen=True)
class ExtensionWitness:
    """A failing class of one-element extensions of one member: the `count`
    nonzero elements whose canonical combination of orbit generators uses
    exactly the blocks `blocks`, `element` being one of them.  The rest is
    what property (4) derives for every element of the class."""

    member_support: tuple
    blocks: tuple
    count: int
    element: tuple
    found_support: tuple
    added_dim: int
    bound: int


@dataclass(frozen=True)
class HillReport:
    ok: bool
    stages_present: bool
    lattice_closed: bool
    lattice_witness: Optional[tuple]
    chains_ok: bool
    chains: int  # nested pairs of members walked by a chain
    extensions_ok: bool
    extension_failures: tuple
    findings: tuple

    @property
    def failed_extensions(self) -> int:
        """Number of (member, element) extensions that failed."""
        return sum(w.count for w in self.extension_failures)


@dataclass(frozen=True)
class _ExtensionClass:
    blocks: frozenset
    count: int
    coords: tuple  # basis of V_blocks, in coordinates over the top stage
    basis: tuple  # the same basis as vectors of the module


class _BlockPatterns:
    """The blocks each element of the top stage needs.  fp_solve writes a
    vector over the orbit generators by a reduction that is linear in the
    vector, so with rows[k] = fp_solve(top[k]) the element a.top uses the
    blocks owning the nonzero entries of a.rows.  Elements are handled by
    their coordinates a over the top-stage basis."""

    def __init__(self, module: FilteredModule):
        p = module.p
        gens = [g for orbit in module.orbits for g in orbit]
        self.owner = [beta for beta, orbit in enumerate(module.orbits) for _ in orbit]
        self.p = p
        self.top = module.top()
        self.rows = []
        for t in self.top:
            coeffs = fp_solve(p, gens, t)
            if coeffs is None:
                raise AssertionError("element of the module escapes the blocks")
            self.rows.append(coeffs)

    def of(self, coords) -> frozenset:
        comb = fp_mat_vec(self.p, coords, self.rows)
        return frozenset(self.owner[j] for j, c in enumerate(comb) if c)

    def classes(self) -> list:
        """Every nonempty class of nonzero elements, by its exact pattern.
        V_N is the nullspace of the columns of blocks outside N; the class
        of N has sum over N' in N of (-1)^|N - N'| p^dim V_N' elements."""
        p = self.p
        active = sorted({self.owner[j] for row in self.rows for j, c in enumerate(row) if c})
        spans = []
        for mask in range(1 << len(active)):
            inside = {beta for i, beta in enumerate(active) if mask >> i & 1}
            cols = [j for j, beta in enumerate(self.owner) if beta not in inside]
            spans.append(fp_nullspace(p, [tuple(row[j] for j in cols) for row in self.rows]))
        counts = [p ** len(s) for s in spans]
        for i in range(len(active)):
            for mask in range(len(counts)):
                if mask >> i & 1:
                    counts[mask] -= counts[mask ^ (1 << i)]
        out = []
        for mask in range(1, len(counts)):
            if counts[mask]:
                coords = spans[mask]
                out.append(_ExtensionClass(
                    frozenset(beta for i, beta in enumerate(active) if mask >> i & 1),
                    counts[mask],
                    coords,
                    tuple(fp_mat_vec(p, a, self.top) for a in coords),
                ))
        out.sort(key=lambda c: (len(c.blocks), sorted(c.blocks)))
        return out

    def example(self, cls: _ExtensionClass) -> tuple:
        """One element of the class.  Start at the first basis vector of V_N
        and walk the line a + t*b through each further basis vector b in
        turn, keeping the first point that uses every block a or b uses: at
        most |N| + 1 points of a line miss, so the walk ends on the class
        unless p is as small as that; then the whole of V_N is searched."""
        p = self.p
        a = cls.coords[0]
        for b in cls.coords[1:]:
            want = self.of(a) | self.of(b)
            for y in enumerate_space(p, (b,)):
                cand = tuple((u + v) % p for u, v in zip(a, y))
                if self.of(cand) == want:
                    a = cand
                    break
        if self.of(a) != cls.blocks:
            a = next(c for c in enumerate_space(p, cls.coords) if self.of(c) == cls.blocks)
        return fp_mat_vec(p, a, self.top)


def _mask(support) -> int:
    """The bitmask of a support: bit beta is set when block beta is in it."""
    out = 0
    for beta in support:
        out |= 1 << beta
    return out


def _lattice_theorem(lattice: HillLattice) -> Optional[int]:
    """The number of nested pairs S < T of member supports when the family
    meets the hypotheses of verify_hill_properties, else None."""
    module = lattice.module
    p, op, stages, sigma = module.p, module.operator, module.stages, module.sigma
    d = [len(stages[b + 1]) - len(stages[b]) for b in range(sigma)]
    closed = _closed_masks(module)
    masks = {_mask(m.support): m for m in lattice.members}
    if (
        any(_mask(dep) >> b for b, dep in enumerate(module.deps))
        or min(d, default=1) <= 0
        or not len(masks) == len(lattice.members) == sum(closed)
        or not {m.space for m in lattice.members}.issuperset(stages)
        or not all(
            closed[mask]
            and m.dim == sum(x for b, x in enumerate(d) if mask >> b & 1)
            and module.member_space(m.support) == m.space
            for mask, m in masks.items()
        )
    ):
        return None
    for g in range(sigma) if op is not None else ():
        part = quotient_partition(p, stages[g + 1], stages[g], op)
        for mask, m in masks.items():
            up = masks.get(mask | 1 << g)
            if up not in (m, None) and quotient_partition(p, up.space, m.space, op) != part:
                return None
    # superset sums: above[S] counts the member supports holding S
    above = list(closed)
    for b in range(sigma):
        for mask in range(1 << sigma):
            above[mask] += 0 if mask >> b & 1 else above[mask | 1 << b]
    return sum(above[mask] for mask in masks) - len(masks)


def verify_hill_properties(lattice: HillLattice) -> HillReport:
    """Check of the four lattice properties.  A family meeting the
    hypotheses of the finite Hill lemma passes by it; any other family is
    checked pair by pair (_verify_pairwise), with explicit witnesses.  Let
    d_beta = dim stage_{beta+1} - dim stage_beta, w(S) the sum of d_beta
    over S.  (H1): the member supports are exactly the supports closed
    under deps, which reach back.  (H2): every d_beta > 0, and each member
    is A_S with dim A_S = w(S).  Every stage is a member and, with an
    operator, A_{U+g} / A_U has block g's partition type for members U, U+g.

    Nest equals support: if A_beta lies in A_S, beta not in S, then V =
    S | reach(beta) and V - beta are closed and span the same, against
    (H2).  (2): S|T and S&T are closed, A_S + A_T = A_{S|T}, and A_{S&T}
    lies in A_S & A_T, both of dimension w(S) + w(T) - w(S|T).  (3):
    adding T - S to S in ascending order passes only through closed
    supports, each step adding d_g dimensions of a checked type.  (4): an
    element of a class N is a combination of the orbit rows of N, so it
    lies in A_N, inside the member A_{S|reach(N)}, and added = w(T - S) <=
    max_block * |T - S| as d_g <= dim A_g.

    The stage and type checks re-verify consequences of (H1) and (H2), as
    deps are derived data: stage alpha is A_{0..alpha-1}, and with R =
    reach(g) - g, (H2) on R+g and U+g gives A_g & stage_g = A_g & A_R =
    A_g & A_U by dimension, so A_{U+g} / A_U and stage_{g+1} / stage_g are
    both A_g / (A_g & stage_g).  chains counts nested pairs of members by
    superset sums over the support masks."""
    chains = _lattice_theorem(lattice)
    if chains is None:
        return _verify_pairwise(lattice)
    return HillReport(True, True, True, None, True, chains, True, (), ())


def _verify_pairwise(lattice: HillLattice) -> HillReport:
    """The four properties checked pair by pair: the theorem path's oracle.
    Each member is A_S for its support S, so (2) and (3) are read off the
    member spaces A_mask of support masks (at)."""
    module = lattice.module
    p = module.p
    op = module.operator
    findings = []
    mem = lattice.members
    spaces = {m.space: m for m in mem}

    # the support algebra below reads each member as A_S for its support S
    for m in mem:
        if module.member_space(m.support) != m.space:
            raise AssertionError("member %s is not the span of its support" % (m.support,))
    supps = [_mask(m.support) for m in mem]
    dims = [m.dim for m in mem]
    at_mask: dict = {}

    def at(mask):
        """A_S for the support S with this bitmask, and the member whose
        space it is (None when it is no member's)."""
        if mask not in at_mask:
            space = module.member_space(
                [beta for beta in range(module.sigma) if mask >> beta & 1]
            )
            at_mask[mask] = (space, spaces.get(space))
        return at_mask[mask]

    # (1) the filtration stages belong to the family
    stages_present = True
    for alpha, stage in enumerate(module.stages):
        if stage not in spaces:
            stages_present = False
            findings.append("stage %d is missing from the family" % alpha)

    # (2) pairwise sums and intersections stay inside: A_S + A_T = A_{S|T},
    # and A_{S&T} lies in A_S & A_T, equal to it when the dimensions agree
    def escapes(i, j):
        a, b = supps[i], supps[j]
        join, joined = at(a | b)
        if joined is None:
            return "sum"
        meet, met = at(a & b)
        if len(meet) != dims[i] + dims[j] - len(join):
            met = spaces.get(fp_intersect(p, mem[i].space, mem[j].space))
        return None if met is not None else "intersection"

    lattice_witness = None
    for i in range(len(mem)):
        for j in range(i, len(mem)):
            kind = escapes(i, j)
            if kind is None:
                continue
            # the failing pair again by elimination, both results computed
            # and the sum read first
            sum_in = fp_sum(p, mem[i].space, mem[j].space) in spaces
            meet_in = fp_intersect(p, mem[i].space, mem[j].space) in spaces
            eliminated = "sum" if not sum_in else None if meet_in else "intersection"
            if eliminated != kind:
                raise AssertionError(
                    "support algebra and elimination disagree on %s and %s"
                    % (mem[i].support, mem[j].support)
                )
            lattice_witness = (kind, mem[i].support, mem[j].support)
            findings.append(
                "%s of members %s and %s escapes the family"
                % (kind, mem[i].support, mem[j].support)
            )
            break
        if lattice_witness is not None:
            break
    lattice_closed = lattice_witness is None

    # block invariants, computed once
    block_data = []
    for beta in range(module.sigma):
        bdim = len(module.stages[beta + 1]) - len(module.stages[beta])
        bpart = quotient_partition(
            p, module.stages[beta + 1], module.stages[beta], op
        )
        block_data.append((bdim, bpart))

    # (3) chains with block-matching quotients between nested members, read
    # off the member spaces as (2) is.  A member A_S holds the blocks of
    # nest = S + {beta : dim A_{S|beta} = dim A_S}, so A_S = A_nest, and one
    # member lies in another exactly when its nest lies in the other's.  A
    # chain adds T - S in ascending order, stepping from A_M to A_{M|gamma}
    # (a step keyed on (M, gamma)) and ending on A_T.
    nests = []
    for nest, dim in zip(supps, dims):
        for beta in range(module.sigma):
            if not nest >> beta & 1 and len(at(nest | 1 << beta)[0]) == dim:
                nest |= 1 << beta
        nests.append(nest)
    chains = []
    chains_ok = True
    steps_from: dict = {}
    for low, low_mask, low_nest in zip(mem, supps, nests):
        for high, high_mask, high_nest in zip(mem, supps, nests):
            if low is high or low_nest & ~high_nest:
                continue
            if low_mask & ~high_mask:
                # a built family lists maximal supports, so nesting implies
                # support nesting there; a listed family may name a smaller
                # support, and then no chain of its blocks runs between them
                chains_ok = False
                findings.append(
                    "no support chain from %s to %s" % (low.support, high.support)
                )
                continue
            steps = []
            mask = low_mask
            for gamma in sorted(set(high.support) - set(low.support)):
                if (mask, gamma) not in steps_from:
                    cur, nxt = at(mask)[0], at(mask | 1 << gamma)[0]
                    qpart = quotient_partition(p, nxt, cur, op)
                    bdim, bpart = block_data[gamma]
                    steps_from[mask, gamma] = ChainStep(
                        gamma, len(nxt) - len(cur), qpart, bdim, bpart
                    )
                steps.append(steps_from[mask, gamma])
                mask |= 1 << gamma
            witness = ChainWitness(low.support, high.support, tuple(steps))
            if not witness.ok:
                chains_ok = False
                bad = [s.block for s in witness.steps if not s.ok]
                findings.append(
                    "chain %s -> %s has mismatched quotients at blocks %s"
                    % (low.support, high.support, bad)
                )
            chains.append(witness)

    # (4) one-element extensions inside the family, with a dimension bound,
    # once per (member, class of elements needing the same blocks).  The
    # target support T is the down-closure of the class's blocks and the
    # member's support S, the OR of per-block closures; S lies in T, so the
    # member lies in A_T.
    max_block = max((len(at(1 << beta)[0]) for beta in range(module.sigma)), default=0)
    reach = [_mask(_down_closure(module.deps, (beta,))) for beta in range(module.sigma)]

    def closure(mask) -> int:
        out = 0
        for beta, r in enumerate(reach):
            if mask >> beta & 1:
                out |= r
        return out

    patterns = _BlockPatterns(module)
    classes = patterns.classes()
    class_reach = [closure(_mask(cls.blocks)) for cls in classes]

    def inside(k, tmask) -> bool:
        return all(fp_in_span(p, at(tmask)[0], v) for v in classes[k].basis)

    # A_T grows with T, and every target T holds the class's own reach R,
    # so a class inside A_R is inside every target
    home = [inside(k, r) for k, r in enumerate(class_reach)]
    examples: dict = {}
    extensions_ok = True
    extension_failures = []
    for member, smask, mdim in zip(mem, supps, dims):
        member_reach = closure(smask)
        for k, cls in enumerate(classes):
            tmask = member_reach | class_reach[k]
            tspace, found = at(tmask)
            added = len(tspace) - mdim
            bound = max_block * (tmask & ~smask).bit_count()
            if found is None or not (home[k] or inside(k, tmask)) or added > bound:
                if cls.blocks not in examples:
                    examples[cls.blocks] = patterns.example(cls)
                extensions_ok = False
                extension_failures.append(ExtensionWitness(
                    member.support,
                    tuple(sorted(cls.blocks)),
                    cls.count,
                    examples[cls.blocks],
                    found.support if found is not None else (),
                    added,
                    bound,
                ))
    if extension_failures:
        findings.append(
            "%d one-element extensions failed"
            % sum(w.count for w in extension_failures)
        )

    ok = stages_present and lattice_closed and chains_ok and extensions_ok
    return HillReport(
        ok,
        stages_present,
        lattice_closed,
        lattice_witness,
        chains_ok,
        len(chains),
        extensions_ok,
        tuple(extension_failures),
        tuple(findings),
    )
