"""Steiner quadruple systems of the codes S_tau: generation, validation,
the structured automorphism group, isomorphism, and point transitivity.

Point labels: the left copy of F^r occupies [0, 2^r), the right copy
[2^r, 2^{r+1}); label p is on the left iff p < 2^r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import (
    BitMatrix,
    PointPerm,
    count_linear_products,
    double_coset_member,
    gl_order,
    invert_perm,
    is_linear,
)
from .errors import AffineInput, BudgetExceeded, DimensionMismatch, InconsistentInput

SQS_MAX_R = 5


@dataclass(frozen=True)
class SQS:
    """A set of 4-subsets of [0, order); quadruples stored as sorted tuples."""

    order: int
    quadruples: frozenset[tuple[int, int, int, int]]


@dataclass(frozen=True)
class Violation:
    triple: tuple[int, int, int]
    count: int


def sqs_from_tau(tau: PointPerm) -> SQS:
    """SQS_tau = Q_0 u Q_1 u Q_tau on 2^{r+1} points.

    Q_0 / Q_1: zero-sum 4-subsets inside one copy; Q_tau: pairs
    ({a,c},{b,d}) with tau(a+c) = b+d != 0.
    """
    tau.require_zero_fixing()
    r = tau.r
    if r > SQS_MAX_R:
        raise BudgetExceeded(f"sqs_from_tau supports r <= {SQS_MAX_R}, got {r}")
    n = 1 << r
    quads = set()
    for a, b, c in combinations(range(n), 3):
        d = a ^ b ^ c
        if d > c:
            quads.add((a, b, c, d))
            quads.add((n + a, n + b, n + c, n + d))
    for a, c in combinations(range(n), 2):
        t = tau.images[a ^ c]
        for b in range(n):
            d = b ^ t
            if b < d:
                quads.add((a, c, n + b, n + d))
    return SQS(order=2 * n, quadruples=frozenset(quads))


def validate_sqs(q: SQS):
    """None if every 3-subset is covered exactly once, else the first Violation."""
    v = q.order
    counts: dict[tuple[int, int, int], int] = {}
    for quad in q.quadruples:
        if len(quad) != 4 or len(set(quad)) != 4 or any(not 0 <= p < v for p in quad):
            bad = tuple(sorted(quad))[:3]
            return Violation(triple=bad, count=-1)
        for tri in combinations(sorted(quad), 3):
            counts[tri] = counts.get(tri, 0) + 1
    total = v * (v - 1) * (v - 2) // 6
    if len(counts) == total and all(c == 1 for c in counts.values()):
        return None
    for tri in combinations(range(v), 3):
        c = counts.get(tri, 0)
        if c != 1:
            return Violation(triple=tri, count=c)
    return None


# ---------------------------------------------------------------------------
# Symmetric-difference structure of the quadruples through a point pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyReport:
    """Outcome of the symmetric-difference dichotomy check.

    part1_counterexamples: pairs of quadruples through two same-side
    points whose symmetric difference leaves the system (must be empty).
    part2_missing: (a, b) for which no quadruple pair through left-a,
    right-b has a symmetric difference outside the system (must be empty
    for non-linear tau).
    """

    part1_counterexamples: tuple
    part2_missing: tuple
    part2_witnesses: dict

    @property
    def ok(self) -> bool:
        return not self.part1_counterexamples and not self.part2_missing


def _pair_table(quads) -> tuple[list[int], dict[tuple[int, int], list]]:
    """The bit mask 1<<a | 1<<b | 1<<c | 1<<d of each quadruple (a sorted
    tuple), and for every point pair x < y the (quadruple, mask) entries
    through it, in the order of `quads`."""
    masks = []
    table: dict[tuple[int, int], list] = {}
    for quad in quads:
        mask = sum(1 << p for p in quad)
        masks.append(mask)
        for pair in combinations(quad, 2):
            table.setdefault(pair, []).append((quad, mask))
    return masks, table


def symmetric_difference_dichotomy(tau: PointPerm) -> DichotomyReport:
    """Symmetric-difference dichotomy for a non-linear tau.

    (i) through two same-side points, symmetric differences of distinct
    quadruples stay in SQS_tau; (ii) through a left/right point pair
    there is always a quadruple pair whose symmetric difference leaves it.
    One walk over the quadruples through each point pair, in sorted order,
    checks both; the witness for (a, b) is the first pair through left-a,
    right-b whose symmetric difference leaves the system.
    """
    tau.require_zero_fixing()
    if is_linear(tau) is not None:
        raise AffineInput("tau is linear; the system is affine")
    n = 1 << tau.r
    masks, table = _pair_table(sorted(sqs_from_tau(tau).quadruples))
    quad_masks = set(masks)
    part1, missing, witnesses = [], [], {}
    for x, y in combinations(range(2 * n), 2):
        outside = (
            (q1, q2)
            for (q1, m1), (q2, m2) in combinations(table[(x, y)], 2)
            if m1 ^ m2 not in quad_masks
        )
        if (x < n) == (y < n):
            part1.extend(outside)
        elif (found := next(outside, None)) is None:
            missing.append((x, y - n))
        else:
            witnesses[(x, y - n)] = found
    return DichotomyReport(
        part1_counterexamples=tuple(part1),
        part2_missing=tuple(missing),
        part2_witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Structured maps of tau-labeled systems
# ---------------------------------------------------------------------------


def apply_structured(transform: tuple, q: SQS) -> SQS:
    """Apply (sigma_{a,A} | sigma_{b,B}) o xi^t to a tau-labeled system.

    With t=1 the side swap acts first, then the left/right affine
    relabelings; this matches the action identities
    (sigma_A|sigma_B)(SQS_tau) = SQS_{B tau A^{-1}} and
    (sigma_A|sigma_B) xi (SQS_tau) = SQS_{B tau^{-1} A^{-1}}.
    """
    a, mat_a, b, mat_b, t = transform
    n = q.order // 2

    def image(p: int) -> int:
        side, x = (p >= n), p % n
        if t:
            side = not side
        if side:
            return n + (b ^ mat_b.apply(x))
        return a ^ mat_a.apply(x)

    quads = frozenset(tuple(sorted(image(p) for p in quad)) for quad in q.quadruples)
    return SQS(order=q.order, quadruples=quads)


def xi_swap(q: SQS) -> SQS:
    """Swap the two point copies; maps SQS_tau to SQS_{tau^{-1}}."""
    n = q.order // 2
    quads = frozenset(tuple(sorted(p ^ n for p in quad)) for quad in q.quadruples)
    return SQS(order=q.order, quadruples=quads)


@dataclass(frozen=True)
class SqsIsomorphism:
    """Witness (A, B, t): apply_structured((0, A, 0, B, t), SQS_tau) = SQS_tau'."""

    a_mat: BitMatrix
    b_mat: BitMatrix
    t: int


def sqs_isomorphic(tau: PointPerm, tau_p: PointPerm):
    """Witness that SQS_tau and SQS_tau' are isomorphic, or None: isomorphic
    iff tau' lies in GL tau GL (t=0) or GL tau^{-1} GL (t=1).

    The search decides the linear cases too: two linear maps give the
    witness (I, lin' lin^{-1}, 0), both systems being affine, and GL lin GL
    holds no non-linear map.  Above SEARCH_MAX_R the search raises
    BudgetExceeded.
    """
    if tau.r != tau_p.r:
        raise DimensionMismatch("permutations live over different dimensions")
    tau.require_zero_fixing()
    tau_p.require_zero_fixing()
    witness = double_coset_member(tau_p, tau, group="GL")
    if witness is not None:
        return SqsIsomorphism(witness[0], witness[1], 0)
    witness = double_coset_member(tau_p, invert_perm(tau), group="GL")
    if witness is not None:
        return SqsIsomorphism(witness[0], witness[1], 1)
    return None


def point_transitive(tau: PointPerm):
    """(flag, witness): SQS_tau is point transitive iff tau^{-1} in GL tau GL.

    Linear tau gives the affine system, always point transitive (witness
    None).  Otherwise the witness is the double-coset pair (A, B).
    """
    tau.require_zero_fixing()
    if is_linear(tau) is not None:
        return True, None
    witness = double_coset_member(invert_perm(tau), tau, group="GL")
    return witness is not None, witness


def aut_order(tau: PointPerm) -> int:
    """|Aut(SQS_tau)| (= |PAut(S_tau)|).

    Non-linear tau: every automorphism is (sigma_{a,A}|sigma_{b,B}) xi^t,
    so the order is 2^{2r} (N0 + N1) with
    N0 = #{A : tau o sigma_A o tau^{-1} linear} (t=0) and
    N1 = #{A : tau o sigma_A o tau   linear} (t=1).
    Linear tau: the affine system of order 2^{r+1}, |Aut| = 2^{r+1} |GL(r+1,2)|.
    """
    return aut_order_and_transitivity(tau)[0]


def aut_order_and_transitivity(tau: PointPerm) -> tuple[int, bool]:
    """(aut_order(tau), point_transitive(tau)[0]) from the counts of the
    formula: N1 > 0 iff tau^{-1} lies in GL tau GL, and then the A counted
    by N1 are a coset of N0's group, so N0 = N1 needs no second count."""
    r = tau.r
    if is_linear(tau) is not None:
        return (1 << (r + 1)) * gl_order(r + 1), True
    n1 = count_linear_products(tau, tau)
    n0 = n1 if n1 else count_linear_products(tau, invert_perm(tau))
    return (1 << (2 * r)) * (n0 + n1), n1 > 0


# ---------------------------------------------------------------------------
# Independent automorphism counting by backtracking (oracle for aut_order)
# ---------------------------------------------------------------------------

# the largest order whose point sets fit the uint64 masks of _pair_invariant
PAIR_INVARIANT_MAX_ORDER = 64


def _pair_invariant(quads, masks, v: int) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """For every point pair x, y: how many pairs of distinct quadruples
    through it have their symmetric difference among the quadruples (the
    v x v table, symmetric), and each point's row of it, sorted.

    `quads` are sorted 4-tuples and `masks` their `_pair_table` masks.  The
    six pairs of every quadruple are sorted by pair; each quadruple is then
    paired with the one d places on in that order, for d = 1, 2, ... while
    any such two share a pair, which visits every two quadruples through
    a pair once, however many quadruples each pair has.
    """
    quads = np.array(quads, dtype=np.int64).reshape(-1, 4)
    masks = np.array(masks, dtype=np.uint64)
    first, second = np.triu_indices(4, 1)  # the six pairs of slots
    keys = (quads[:, first] * v + quads[:, second]).reshape(-1)
    order = np.argsort(keys)
    keys, through = keys[order], masks[order // 6]
    members = np.sort(masks)
    hits = [keys[:0]]
    d = 1
    while (lead := np.flatnonzero(keys[d:] == keys[:-d])).size:
        sym = through[lead] ^ through[lead + d]
        at = np.minimum(np.searchsorted(members, sym), members.size - 1)
        hits.append(keys[lead[members[at] == sym]])
        d += 1
    counts = np.bincount(np.concatenate(hits), minlength=v * v).reshape(v, v)
    pair_inv = counts + np.triu(counts, 1).T  # keys have x <= y: mirror them
    return pair_inv.tolist(), list(map(tuple, np.sort(pair_inv, axis=1).tolist()))


class _SqsIndex:
    """Lookup tables of one system; a point set {a, b, c} is keyed by the
    bit mask 1<<a | 1<<b | 1<<c, so no lookup sorts."""

    def __init__(self, q: SQS):
        self.v = q.order
        if self.v > PAIR_INVARIANT_MAX_ORDER:
            raise BudgetExceeded(
                f"count_automorphisms supports order <= {PAIR_INVARIANT_MAX_ORDER}, got {self.v}"
            )
        self.quads = [tuple(sorted(quad)) for quad in q.quadruples]
        masks, pairs = _pair_table(self.quads)
        self.quad_masks = set(masks)
        # others[x]: the other three points of each quadruple through x
        self.others: list[list[tuple[int, int, int]]] = [[] for _ in range(self.v)]
        self.completion: dict[int, int] = {}
        for quad, mask in zip(self.quads, masks):
            for i, p in enumerate(quad):
                self.others[p].append(quad[:i] + quad[i + 1 :])
                self.completion[mask ^ (1 << p)] = p
        self.pair_quads = {pair: [quad for quad, _ in through] for pair, through in pairs.items()}
        # an isomorphism must match the pair invariant, which prunes image
        # candidates early
        self.pair_inv, self.point_inv = _pair_invariant(self.quads, masks, self.v)

    def compatible(self, img: list[int], p: int, c: int) -> bool:
        """Invariant screen for mapping p to c under the partial map."""
        if self.point_inv[p] != self.point_inv[c]:
            return False
        row_p, row_c = self.pair_inv[p], self.pair_inv[c]
        for x, x_img in enumerate(img):
            if x_img >= 0 and row_p[x] != row_c[x_img]:
                return False
        return True

    def propagate(self, img: list[int], used: list[bool], seeds: list[int]) -> bool:
        """Force images through quadruples with three known points."""
        completion, quad_masks = self.completion, self.quad_masks
        queue = list(seeds)
        while queue:
            x = queue.pop()
            bit_x = 1 << img[x]
            for a, b, c in self.others[x]:
                ia, ib, ic = img[a], img[b], img[c]
                if ia < 0:
                    if ib < 0 or ic < 0:
                        continue
                    y, known = a, bit_x | 1 << ib | 1 << ic
                elif ib < 0:
                    if ic < 0:
                        continue
                    y, known = b, bit_x | 1 << ia | 1 << ic
                elif ic < 0:
                    y, known = c, bit_x | 1 << ia | 1 << ib
                else:
                    if bit_x | 1 << ia | 1 << ib | 1 << ic not in quad_masks:
                        return False
                    continue
                comp = completion.get(known)
                if comp is None or used[comp]:
                    return False
                img[y] = comp
                used[comp] = True
                queue.append(y)
        return True

    def _branch_choices(self, img: list[int], used: list[bool]):
        """Next decision point and its candidate images.

        Prefers the first quadruple with exactly two assigned points: the
        images of its two free points must fill an image quadruple through
        the two known images, which caps the branching at a handful of
        pairs instead of every unused point.
        """
        # no quadruple has two points mapped while fewer than two are, or
        # two free while none is: skip the scan at the top level's
        # one-point maps and at every complete map
        quads = self.quads if 2 <= self.v - used.count(False) < self.v else ()
        for quad in quads:
            known_img = []
            free = []
            for p in quad:
                if img[p] >= 0:
                    known_img.append(img[p])
                else:
                    free.append(p)
            if len(free) != 2:
                continue
            a, b = sorted(known_img)
            p, p2 = free
            cands = []
            for target in self.pair_quads[(a, b)]:
                rest = [z for z in target if z != a and z != b]
                for z, w in (rest, rest[::-1]):
                    if not used[z] and not used[w]:
                        cands.append((p, z, p2, w))
            return cands
        p = next((x for x in range(self.v) if img[x] < 0), None)
        if p is None:
            return None
        return [(p, c, None, None) for c in range(self.v) if not used[c]]

    def extendable(self, img: list[int], used: list[bool]):
        """The image list of a full automorphism extending the partial map, or None."""
        choices = self._branch_choices(img, used)
        if choices is None:
            return img
        for p, c, p2, c2 in choices:
            if not self.compatible(img, p, c):
                continue
            img2, used2 = img[:], used[:]
            img2[p] = c
            used2[c] = True
            seeds = [p]
            if p2 is not None:
                if used2[c2] or not self.compatible(img2, p2, c2):
                    continue
                img2[p2] = c2
                used2[c2] = True
                seeds.append(p2)
            if self.propagate(img2, used2, seeds):
                found = self.extendable(img2, used2)
                if found is not None:
                    return found
        return None


def _closure(points: set[int], gens: list[list[int]]) -> set[int]:
    """The union of the orbits of `points` under the group the images generate."""
    out = set(points)
    queue = list(points)
    while queue:
        x = queue.pop()
        for g in gens:
            y = g[x]
            if y not in out:
                out.add(y)
                queue.append(y)
    return out


def count_automorphisms(q: SQS) -> int:
    """|Aut(Q)| by an orbit-stabilizer chain over backtracking searches.

    Independent of the structured formula in aut_order: works on the bare
    quadruple set of any SQS.  Level i fixes the points F_i pointwise (the
    identity branch, closed under propagation) and branches on the next
    point p; the chain is built bottom-up, so every automorphism found at
    level i or below fixes F_i and lies in the stabilizer G_i.  The orbit
    of p under G_i is decided exhaustively with those automorphisms as
    generators: a candidate in the closure of p is certified without a
    search, a search that succeeds adds its automorphism as a generator,
    and a search that fails rejects the candidate's whole orbit under the
    generators (an orbit of G_i is a union of orbits of any subgroup).
    """
    index = _SqsIndex(q)
    # the identity branch, top-down: (prefix, its used images, branch point)
    levels = []
    img, used = [-1] * index.v, [False] * index.v
    while (p := next((x for x in range(index.v) if img[x] < 0), None)) is not None:
        levels.append((img, used, p))
        img, used = img[:], used[:]
        img[p] = p
        used[p] = True
        if not index.propagate(img, used, [p]):
            raise InconsistentInput("the identity does not stabilize every prefix")
    gens: list[list[int]] = []
    order = 1
    for img, used, p in reversed(levels):
        orbit = _closure({p}, gens)
        rejected: set[int] = set()
        for c in range(index.v):
            if used[c] or c in orbit or c in rejected or not index.compatible(img, p, c):
                continue
            img2, used2 = img[:], used[:]
            img2[p] = c
            used2[c] = True
            found = index.extendable(img2, used2) if index.propagate(img2, used2, [p]) else None
            if found is None:
                rejected |= _closure({c}, gens)
            else:
                gens.append(found)
                orbit = _closure(orbit, gens)
        order *= len(orbit)
    return order
