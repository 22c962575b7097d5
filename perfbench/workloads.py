"""Seeded inputs with planted answers for the qsheaf benchmark.

Every input is written through the toolkit's own serializers, and every job
carries the outcome known from how its input was built: the exit status,
named verdicts, certificate fields, and for deliberately broken inputs the
witness the verifier must name.  The verifier output is never consulted here.

A workload is a sequence of rounds.  A round is a fixed list of job shapes
(command, ambient space, field, size), so every round costs about the same;
the seed only changes the coefficients, forms, seeds and vectors drawn.

    python3 perfbench/workloads.py --workload sheaf-qc --seed 3 --rounds 2 --out DIR

writes the input files and DIR/manifest.json (the job list with expected
outcomes).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qsheaf.bundles import LaurentPoly, lmat_identity, lmat_mul  # noqa: E402
from qsheaf.exactpoly import Field, poly_to_str  # noqa: E402
from qsheaf.hill import make_filtered_module  # noqa: E402
from qsheaf.sheaffile import (  # noqa: E402
    filtered_text,
    sections_text,
    sheafrep_text,
    transition_text,
)
from qsheaf.sheafrep import (  # noqa: E402
    GradedData,
    SheafRep,
    build_proj_quiver,
    fmt_edge,
    graded_sheaf,
)

WORKLOADS = ("sheaf-qc", "closure-lift", "hill-lattice")
PRIMES = (5, 7, 11)
SMALL = (1, 2, 3, -1, -2, -3)


@dataclass
class Job:
    """One CLI invocation and its planted outcome."""

    name: str  # the input file, relative to the input directory
    command: str
    seed_file: str | None = None
    exit: int = 0
    verdicts: dict = field(default_factory=dict)
    certs: dict = field(default_factory=dict)
    # sheaf jobs: (field token, n, ideal) identifying the chart rings used
    chart_key: list | None = None
    # check-qc: how many edge verdicts the certificate lists
    edges: int | None = None
    # mutants: the one edge that must fail, by name
    bad_edge: str | None = None
    # pruned Hill family: every (operation, left, right) that names the
    # dropped member as a sum or intersection of two remaining members
    witnesses: list | None = None
    # hill jobs: (p, dim, sigma, has operator)
    hill_shape: list | None = None


# ---------------------------------------------------------------------------
# exact helpers independent of the program under test


def _rank_mod(rows, p):
    """Rank of an integer matrix over F_p (p=0: over Q)."""
    mat = [[Fraction(x) if p == 0 else x % p for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col] if p == 0 else pow(mat[rank][col], p - 2, p)
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col] * inv
                mat[i] = [
                    (a - c * b) if p == 0 else (a - c * b) % p
                    for a, b in zip(mat[i], mat[rank])
                ]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# sheaves on P^n


def _field(p):
    return Field.rationals() if p == 0 else Field.prime(p)


def _token(p):
    return "Q" if p == 0 else "Fp:%d" % p


def _stem(p):
    return "Q" if p == 0 else "F%d" % p


def _draw_prime(rng):
    return rng.choice(PRIMES)


def _linear_forms(rng, n, count, p):
    """`count` linear forms in n+1 variables with no zero coefficient, as
    coefficient rows.  count == n+1: the matrix is nonsingular (redrawn
    otherwise); count < n+1: pairwise non-proportional."""
    while True:
        rows = [[rng.choice(SMALL) for _ in range(n + 1)] for _ in range(count)]
        if p and any(c % p == 0 for row in rows for c in row):
            continue
        if count == n + 1 and _rank_mod(rows, p) < n + 1:
            continue
        if any(_rank_mod([a, b], p) < 2 for a, b in combinations(rows, 2)):
            continue
        return rows


def _form(ring, coeffs):
    out = ring.zero()
    for i, c in enumerate(coeffs):
        exp = tuple(1 if j == i else 0 for j in range(ring.nvars))
        out = out + ring.monomial(exp, ring.field.of_int(c))
    return out


def _write(outdir, name, text):
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as handle:
        handle.write(text)


def _edge_count(n):
    """Generating edges of the chart quiver of P^n."""
    return (n + 1) * (2 ** n - 1)


class Gen:
    """Writes one round's inputs at a time into `outdir`."""

    def __init__(self, rng, outdir):
        self.rng = rng
        self.outdir = outdir
        self.count = 0

    def _name(self, stem):
        self.count += 1
        return "%04d-%s.txt" % (self.count, stem)

    # -- graded presentations ---------------------------------------------

    def _emit(self, stem, quiver, degrees, rows, write):
        """A graded presentation, written through sheafrep_text when `write`
        (which reads only the quiver header and the graded data, so the
        chart modules are left unbuilt), else sheafified in full."""
        name = self._name(stem)
        if write:
            rep = SheafRep(quiver, {}, {}, GradedData(tuple(degrees), tuple(rows)))
            _write(self.outdir, name, sheafrep_text(rep))
        else:
            rep = graded_sheaf(quiver, degrees, rows)
        return name, rep

    def euler(self, n, p, write=True):
        """O^{n+1} / (l_0, ..., l_n): a rank-n bundle for a nonsingular
        linear-form matrix; the cover kernel is O(-1)."""
        quiver = build_proj_quiver(_field(p), n)
        forms = _linear_forms(self.rng, n, n + 1, p)
        relation = tuple(_form(quiver.xring, coeffs) for coeffs in forms)
        name, rep = self._emit(
            "euler-p%d-%s" % (n, _stem(p)), quiver, (0,) * (n + 1), (relation,), write)
        return name, rep, {"rank": n, "key": [_token(p), n, []], "degrees": [0] * (n + 1)}

    def twists(self, n, p, count, write=True):
        """O(a_1) + ... + O(a_count) with |a_i| = i - 1 and random signs,
        so every draw has the same twist sizes."""
        degrees = tuple(sorted((k * self.rng.choice((1, -1)) for k in range(count)), reverse=True))
        quiver = build_proj_quiver(_field(p), n)
        name, rep = self._emit("sum-p%d-%s" % (n, _stem(p)), quiver, degrees, (), write)
        return name, rep, {"rank": count, "key": [_token(p), n, []], "degrees": list(degrees)}

    def subscheme(self, n, p, factors):
        """O_V for V = V(l_1 * ... * l_k), distinct linear forms: a line
        bundle on V."""
        field_ = _field(p)
        ring = build_proj_quiver(field_, n).xring
        forms = _linear_forms(self.rng, n, factors, p)
        product = ring.one()
        for coeffs in forms:
            product = product * _form(ring, coeffs)
        quiver = build_proj_quiver(field_, n, (product,))
        name, rep = self._emit("sub-p%d-%s" % (n, _stem(p)), quiver, (0,), (), True)
        ideal = [poly_to_str(product)]
        return name, rep, {"rank": 1, "key": [_token(p), n, ideal], "degrees": [0]}

    # -- job builders ------------------------------------------------------

    def check_qc(self, made):
        name, rep, info = made
        return Job(
            name, "check-qc", verdicts={"quasi-coherent": "pass"},
            certs={"squares_ok": True, "findings": []},
            chart_key=info["key"], edges=_edge_count(rep.quiver.n),
        )

    def is_bundle(self, made):
        name, rep, info = made
        return Job(
            name, "is-bundle",
            verdicts={"vector-bundle": "pass", "rank": str(info["rank"])},
            certs={"findings": []}, chart_key=info["key"],
        )

    def serre_cover(self, made):
        name, rep, info = made
        gens = len(info["degrees"])
        return Job(
            name, "serre-cover",
            verdicts={"cover-surjective": "pass"},
            certs={
                "source_degrees": info["degrees"],
                "target_generators": {
                    _fmt(v): gens for v in rep.quiver.vertices
                },
            },
            chart_key=info["key"],
        )

    def mutant(self, command, shape, p):
        """A P^1 presentation written as an explicit sheafrep file, with one
        nonzero entry of one edge map multiplied by the non-unit z1 + a of
        the target chart.  On P^1 the quiver has no squares, so the parser
        accepts it and only that edge can fail."""
        rng = self.rng
        if shape == "euler":
            _, rep, _ = self.euler(1, p, write=False)
        else:
            _, rep, _ = self.twists(1, p, 3, write=False)
        edges = list(rep.quiver.edges)
        edge = edges[rng.randrange(len(edges))]
        rows = [list(r) for r in rep.edge_maps[edge]]
        spots = [(i, j) for i, r in enumerate(rows) for j, e in enumerate(r) if not e.is_zero()]
        i, j = spots[rng.randrange(len(spots))]
        chart = rep.quiver.chart(edge[1])
        a = rng.choice([c for c in SMALL if p == 0 or c % p])
        factor = chart.z(1) + chart.ring.constant(chart.ring.field.of_int(a))
        rows[i][j] = rows[i][j] * factor
        bad = rep.replaced_edge(edge, rows)
        name = self._name("mutant-p1-%s" % _stem(p))
        _write(self.outdir, name, sheafrep_text(bad))
        key = [_token(p), 1, []]
        if command == "check-qc":
            return Job(
                name, "check-qc", exit=1,
                verdicts={"quasi-coherent": "fail"}, certs={"squares_ok": True},
                chart_key=key, edges=_edge_count(1), bad_edge=fmt_edge(edge),
            )
        return Job(
            name, "is-bundle", exit=1,
            verdicts={"precondition quasi-coherent": "fail"},
            chart_key=key, bad_edge=fmt_edge(edge),
        )

    # -- closure, resolutions, P^1 transitions -----------------------------

    def closure(self, n, degrees, template):
        """Seed sections at chart {0} of a sum of twists; the closure must
        stabilize and re-verify.  `template` fixes the monomials of every
        seed entry (one list of exponent tuples per entry, one list of
        entries per section) and only the coefficients are drawn, because
        the cost of saturation swings by orders of magnitude with the
        support of the seeds."""
        rng = self.rng
        quiver = build_proj_quiver(_field(0), n)
        name, _ = self._emit("amb-p%d" % n, quiver, degrees, (), True)
        v = frozenset({0})
        ring = quiver.chart(v).ring
        seeds = []
        for section in template:
            vec = []
            for monomials in section:
                entry = ring.zero()
                for exp in monomials:
                    entry = entry + ring.monomial(exp, ring.field.of_int(rng.choice(SMALL)))
                vec.append(entry)
            seeds.append(tuple(vec))
        seed_name = name.replace("amb", "seed")
        _write(self.outdir, seed_name, sections_text({v: seeds}))
        return Job(
            name, "closure", seed_file=seed_name,
            verdicts={"stabilized": "pass*", "sub-representation": "pass"},
            certs={"subrep_findings": []}, chart_key=[_token(0), n, []],
        )

    def vdim(self, n, p):
        name, rep, info = self.euler(n, p)
        return Job(
            name, "vdim-witness",
            verdicts={k: "pass" for k in (
                "cover-surjective", "composite-zero", "kernel-covered",
                "inclusion-injective", "kernel-bundle", "middle-bundle")},
            certs={"kernel_rank": 1, "middle_rank": n + 1, "findings": []},
            chart_key=info["key"],
        )

    def lazard(self, n, p, full):
        """With `full`, the seed is the cover kernel (the relation row on
        every chart), so the approximation reconstructs the sheaf."""
        name, rep, info = self.euler(n, p)
        seed_name = None
        if full:
            relation = rep.graded.rows[0]
            mapping = {}
            for v in rep.quiver.vertices:
                chart = rep.quiver.chart(v)
                mapping[v] = [tuple(chart.dehomogenize(g) for g in relation)]
            seed_name = name.replace("euler", "kseed")
            _write(self.outdir, seed_name, sections_text(mapping))
        return Job(
            name, "lazard", seed_file=seed_name,
            verdicts={"sub-bundle": "pass", "quotient-quasi-coherent": "pass",
                      "quotient-vdim": "pass"},
            certs={"sub_rank": 1 if full else 0, "comparison_is_iso": full},
            chart_key=info["key"],
        )

    def transition(self, command, rank, p):
        """diag(s^a) scrambled by unit-determinant factors over k[1/s] on
        the left and k[s] on the right; the planted type is a."""
        rng = self.rng
        fld = _field(p)
        planted = tuple(sorted((rng.randint(-2, 2) for _ in range(rank)), reverse=True))
        diag = tuple(
            tuple(
                LaurentPoly.monomial(fld, planted[i]) if i == j else LaurentPoly.zero(fld)
                for j in range(rank)
            )
            for i in range(rank)
        )
        rows = lmat_mul(lmat_mul(self._unit_factor(fld, rank, -1), diag),
                        self._unit_factor(fld, rank, +1))
        name = self._name("trans-r%d-%s" % (rank, _stem(p)))
        _write(self.outdir, name, transition_text(fld, rows))
        text = "(" + ",".join(str(a) for a in planted) + ")"
        if command == "split-p1":
            h0 = sum(max(0, a + 1) for a in planted)
            return Job(
                name, command,
                verdicts={"splitting-type": text, "sections-agree": "pass"},
                certs={"type": list(planted), "h0": h0},
            )
        return Job(
            name, command,
            verdicts={"splitting-type": text, "steps-verified": "pass"},
            certs={"quotient_twists": list(planted)},
        )

    def _unit_factor(self, fld, r, side):
        rng = self.rng
        rows = [list(row) for row in lmat_identity(fld, r)]
        for _ in range(2):
            i, j = rng.sample(range(r), 2)
            c = fld.of_int(rng.choice([-2, -1, 1, 2]))
            mono = LaurentPoly.monomial(fld, side * rng.randint(0, 2), c)
            for t in range(r):
                rows[i][t] = rows[i][t] + mono * rows[j][t]
        if rng.random() < 0.5:
            a, b = rng.sample(range(r), 2)
            rows[a], rows[b] = rows[b], rows[a]
        scale = fld.of_int(rng.choice([1, 2, -1]))
        rows[0] = [e.scale(scale) for e in rows[0]]
        return tuple(tuple(row) for row in rows)

    # -- filtered modules --------------------------------------------------

    def _basis(self, p, dim):
        """Rows of a random invertible dim x dim matrix over F_p."""
        while True:
            rows = [[self.rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
            if _rank_mod(rows, p) == dim:
                return rows

    def _pieces(self, p, dim, sigma):
        """A random basis split into sigma consecutive pieces, one per
        block, each at least one vector long."""
        sizes = [1] * sigma
        for _ in range(dim - sigma):
            sizes[self.rng.randrange(sigma)] += 1
        basis = self._basis(p, dim)
        pieces, at = [], 0
        for size in sizes:
            pieces.append(basis[at:at + size])
            at += size
        return basis, pieces

    def _combo(self, p, rows):
        """A random combination of `rows` with a nonzero first coefficient."""
        coeffs = [1 + self.rng.randrange(p - 1)] + [self.rng.randrange(p) for _ in rows[1:]]
        return [sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(len(rows[0]))]

    def hill(self, p, dim, sigma, operator, dependency):
        """A filtered module with a planted structure, so every draw of a
        shape costs about the same.  The space is the direct sum of sigma
        pieces of a random basis, one per block.  Without an operator a
        block is its piece (re-mixed by a random triangular matrix); with
        one, the operator shifts each piece along itself (a single Jordan
        chain written in the random basis) and the block is one cyclic
        generator.  With `dependency`, the last block gets one more vector
        that reaches into the piece of block 0, so exactly the supports
        holding the last block without block 0 are not closed.  The family
        then has 2^sigma (or 3 * 2^(sigma-2)) members, the top stage is the
        whole space, and the verifier enumerates p^dim vectors per member."""
        basis, pieces = self._pieces(p, dim, sigma)
        op = None
        if operator:
            shift = [[0] * dim for _ in range(dim)]
            at = 0
            for piece in pieces:
                for i in range(len(piece) - 1):
                    shift[at + i][at + i + 1] = 1
                at += len(piece)
            # v -> v * op sends row k of the basis to row k+1 of its piece
            op = _matmul(_matmul(_inverse_mod(basis, p), shift, p), basis, p)
            blocks = [[self._combo(p, piece)] for piece in pieces]
        else:
            blocks = [
                [self._combo(p, piece[k:]) for k in range(len(piece))] for piece in pieces
            ]
        members = 2 ** sigma
        if dependency:
            reach = self._combo(p, pieces[0])
            own = self._combo(p, pieces[-1])
            blocks[-1].append([(x + y) % p for x, y in zip(own, reach)])
            members = 3 * 2 ** (sigma - 2)
        module = make_filtered_module(p, dim, blocks, op)
        name = self._name("hill-f%d-d%d-s%d%s%s" % (
            p, dim, sigma, "-op" if op else "", "-dep" if dependency else ""))
        _write(self.outdir, name, filtered_text(module))
        return Job(
            name, "hill-verify",
            verdicts={k: "pass" for k in (
                "stages-in-family", "pairwise-closure", "block-chains",
                "one-element-extensions")},
            certs={"members": members, "extension_failures": 0, "findings": []},
            hill_shape=[p, dim, sigma, bool(op)],
        )

    def pruned_hill(self, p, dim, sigma):
        """The direct sum above without operator or dependency, so sums and
        intersections of members are unions and intersections of supports.
        One member D (not a stage, not empty, not everything) is left out of
        the listed family; the verifier must fail pairwise closure naming a
        pair whose sum or intersection is D."""
        rng = self.rng
        _, pieces = self._pieces(p, dim, sigma)
        module = make_filtered_module(p, dim, pieces)
        supports = [
            tuple(i for i in range(sigma) if mask >> i & 1) for mask in range(1 << sigma)
        ]
        stages = {tuple(range(k)) for k in range(sigma + 1)}
        candidates = [s for s in supports if s not in stages and len(s) < sigma]
        dropped = candidates[rng.randrange(len(candidates))]
        kept = [s for s in supports if s != dropped]
        target = set(dropped)
        witnesses = []
        for a, b in combinations(kept, 2):
            if set(a) | set(b) == target:
                witnesses.append(["sum", list(a), list(b)])
            if set(a) & set(b) == target:
                witnesses.append(["intersection", list(a), list(b)])
        # verifier pairs are ordered by member order, either way round
        witnesses += [[op, r, l] for op, l, r in witnesses]
        name = self._name("hill-pruned-f%d-d%d-s%d" % (p, dim, sigma))
        _write(self.outdir, name, filtered_text(module, kept))
        return Job(
            name, "hill-verify", exit=1,
            verdicts={"stages-in-family": "pass", "pairwise-closure": "fail",
                      "block-chains": "pass", "one-element-extensions": "fail"},
            certs={"members": len(kept)},
            witnesses=witnesses, hill_shape=[p, dim, sigma, False],
        )


def _fmt(v):
    return "{" + ",".join(str(i) for i in sorted(v)) + "}"


def _matmul(a, b, p):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _inverse_mod(mat, p):
    n = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [(x - c * y) % p for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# rounds


def _round_sheaf_qc(g, rng):
    # 6 jobs under 0.03 s (mutants, covers), 4 of about 0.05 s around the
    # median, 5 between 0.08 and 0.2 s and 2 P^3 Euler quotients near 0.8 s
    fp = _draw_prime(rng)
    return [
        g.check_qc(g.euler(2, 0)),
        g.is_bundle(g.euler(2, fp)),
        g.serre_cover(g.euler(2, 0)),
        g.check_qc(g.euler(3, fp)),
        g.is_bundle(g.euler(3, _draw_prime(rng))),
        g.is_bundle(g.twists(2, 0, 3)),
        g.check_qc(g.twists(3, 0, 2)),
        g.serre_cover(g.twists(4, 0, 2)),
        g.check_qc(g.twists(4, fp, 1)),
        g.check_qc(g.subscheme(2, 0, 2)),
        g.check_qc(g.subscheme(2, fp, 2)),
        g.is_bundle(g.subscheme(2, fp, 3)),
        g.serre_cover(g.subscheme(3, 0, 2)),
        g.is_bundle(g.twists(3, fp, 2)),
        g.mutant("check-qc", "euler", 0),
        g.mutant("check-qc", "sum", fp),
        g.mutant("is-bundle", "euler", fp),
    ]


def _round_closure_lift(g, rng):
    # 6 jobs under 0.15 s, 7 between 0.1 and 0.6 s and 2 near 1 s, so the
    # median falls inside the middle group
    fp = _draw_prime(rng)
    return [
        # O(1)+O on P^1: (a*z1 + b, c)
        g.closure(1, (-1, 0), [[[(1,), (0,)], [(0,)]]]),
        # O(1)+O(1) on P^1: (a*z1 + b, c) and (d, e*z1 + f)
        g.closure(1, (-1, -1), [[[(1,), (0,)], [(0,)]], [[(0,)], [(1,), (0,)]]]),
        # O(2)+O on P^2: (a*z1 + b, c)
        g.closure(2, (-2, 0), [[[(1, 0), (0, 0)], [(0, 0)]]]),
        # O(1)+O on P^2: (a*z1 + b*z2, c)
        g.closure(2, (-1, 0), [[[(1, 0), (0, 1)], [(0, 0)]]]),
        g.vdim(2, 0),
        g.vdim(3, fp),
        g.vdim(3, _draw_prime(rng)),
        g.lazard(2, 0, True),
        g.lazard(2, fp, False),
        g.lazard(3, fp, False),
        g.transition("split-p1", 3, 0),
        g.transition("split-p1", 4, fp),
        g.transition("split-p1", 5, fp),
        g.transition("filter-p1", 3, fp),
        g.transition("filter-p1", 4, 0),
    ]


HILL_SHAPES = (
    # (p, dim, sigma, operator, dependency), two of nine with an operator.
    # Three shapes of about the same cost lead, so the tail percentile falls
    # inside one cluster of jobs whatever the number of rounds in a run.
    (2, 8, 4, True, False),
    (5, 4, 4, False, False),
    (3, 6, 3, False, True),
    (2, 7, 5, False, True),
    (2, 6, 6, False, True),
    (2, 8, 3, False, True),
    (3, 5, 3, True, False),
    (3, 4, 4, False, False),
    (5, 3, 3, False, False),
)


def _round_hill_lattice(g, rng):
    return [g.hill(*shape) for shape in HILL_SHAPES]


ROUNDS = {
    "sheaf-qc": _round_sheaf_qc,
    "closure-lift": _round_closure_lift,
    "hill-lattice": _round_hill_lattice,
}


def generate(workload, seed, rounds, outdir):
    """Write `rounds` rounds of inputs for `workload` into a fresh `outdir`;
    returns the job list, grouped by round."""
    if workload not in ROUNDS:
        raise ValueError("unknown workload %r" % workload)
    if os.path.isdir(outdir):
        shutil.rmtree(outdir)
    os.makedirs(outdir)
    rng = random.Random("%s/%d" % (workload, seed))
    g = Gen(rng, outdir)
    out = []
    for r in range(rounds):
        jobs = []
        if workload == "hill-lattice" and r == 0:
            jobs.append(g.pruned_hill(2, 6, 4))
        jobs.extend(ROUNDS[workload](g, rng))
        out.append(jobs)
    return out


def check(job, report):
    """None when a qsheaf Report matches the job's planted outcome, else a
    one-line description of the first difference.  A verdict ending in
    '*' matches by prefix."""
    if report.exit_status != job.exit:
        return "exit %d, expected %d" % (report.exit_status, job.exit)
    verdicts = dict(report.verdicts)
    for name, want in job.verdicts.items():
        got = verdicts.get(name)
        match = got is not None and (
            got.startswith(want[:-1]) if want.endswith("*") else got == want
        )
        if not match:
            return "verdict %s is %r, expected %r" % (name, got, want)
    certs = json.loads(json.dumps(report.certificates))
    for key, want in job.certs.items():
        if certs.get(key) != want:
            return "certificate %s is %r, expected %r" % (key, certs.get(key), want)
    if job.edges is not None:
        edges = certs.get("edges", [])
        if len(edges) != job.edges:
            return "%d edge verdicts, expected %d" % (len(edges), job.edges)
        for entry in edges:
            ok = entry["well_defined"] and entry["surjective"] and entry["injective"]
            if ok == (entry["edge"] == job.bad_edge):
                return "edge %s verdict ok=%s" % (entry["edge"], ok)
    if job.bad_edge is not None:
        named = [f for f in certs.get("findings", []) if f.startswith("edge ")]
        if not named or any(not f.startswith("edge " + job.bad_edge + ":") for f in named):
            return "findings %r do not name exactly %s" % (named, job.bad_edge)
    if job.witnesses is not None:
        w = certs.get("closure_witness", {})
        if [w.get("operation"), w.get("left"), w.get("right")] not in job.witnesses:
            return "closure witness %r is not a planted one" % (w,)
    return None


def describe(jobs):
    """Input properties a later change may depend on, as printable lines:
    how often a job reuses a (field, n, ideal) chart key already seen in
    the run, and the (p, dim, sigma) mix and operator share of Hill jobs."""
    lines = []
    keys = [json.dumps(job.chart_key) for job in jobs if job.chart_key is not None]
    if keys:
        seen, reused = set(), 0
        for key in keys:
            reused += key in seen
            seen.add(key)
        lines.append("chart-key reuse: %d/%d jobs (%.3f) over %d distinct keys"
                     % (reused, len(keys), reused / len(keys), len(seen)))
    shapes = [tuple(job.hill_shape) for job in jobs if job.hill_shape is not None]
    if shapes:
        mix = {}
        for p, dim, sigma, _ in shapes:
            mix[(p, dim, sigma)] = mix.get((p, dim, sigma), 0) + 1
        lines.append("(p, dim, sigma) mix: " + ", ".join(
            "%s x%d" % (k, v) for k, v in sorted(mix.items())))
        ops = sum(1 for s in shapes if s[3])
        lines.append("operator share: %d/%d (%.3f)" % (ops, len(shapes), ops / len(shapes)))
    return lines


def write_manifest(outdir, rounds):
    data = [[asdict(job) for job in jobs] for jobs in rounds]
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as handle:
        return [[Job(**job) for job in jobs] for jobs in json.load(handle)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    import qsheaf.cli  # noqa: F401  (set-up time covers loading the CLI)

    write_manifest(args.out, generate(args.workload, args.seed, args.rounds, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
