"""Steiner quadruple systems of the codes S_tau: generation, validation,
the structured automorphism group, isomorphism, and point transitivity.

Point labels: the left copy of F^r occupies [0, 2^r), the right copy
[2^r, 2^{r+1}); label p is on the left iff p < 2^r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, permutations

import numpy as np

from .algebra import (
    BitMatrix,
    PointPerm,
    count_linear_products,
    double_coset_member,
    gl_order,
    identity_matrix,
    invert_perm,
    is_linear,
    sigma_am,
)
from .errors import AffineInput, BudgetExceeded, DimensionMismatch, InconsistentInput

SQS_MAX_R = 5
# the largest order whose triple keys (a·v + b)·v + c and C(v, 3) fit int64
VALIDATE_MAX_ORDER = 1 << 21


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


def _choose(n, k: int):
    """C(n, k) for k = 2 or 3, of an int or an int64 array."""
    return n * (n - 1) // 2 if k == 2 else n * (n - 1) * (n - 2) // 6


def _read_rows(quads: list[tuple], v: int) -> tuple[np.ndarray, tuple | None]:
    """The quadruples as (b, 4) int64 rows, each sorted, in their order, and
    the first that is not four distinct points of [0, v), or None."""
    # a quadruple of another length becomes (-1, -1, -1, -1), malformed too
    flat = chain.from_iterable(quad if len(quad) == 4 else (-1,) * 4 for quad in quads)
    rows = np.sort(np.fromiter(flat, dtype=np.int64, count=4 * len(quads)).reshape(-1, 4))
    ok = (rows[:, 1:] > rows[:, :-1]).all(axis=1) & (rows[:, 0] >= 0) & (rows[:, 3] < v)
    return rows, None if ok.all() else quads[int(np.argmin(ok))]


def validate_sqs(q: SQS):
    """None if every 3-subset is covered exactly once, else the first
    Violation: the first malformed quadruple (count -1), else the least
    triple not covered once.  Triples are counted as keys (a·v + b)·v + c;
    sorted, key j is triple number C(v,3) - C(v-a,3) + C(v-a-1,2) -
    C(v-b,2) + c - b - 1, which passes j just after the least triple missed.
    An order above VALIDATE_MAX_ORDER raises BudgetExceeded.
    """
    v = q.order
    if v > VALIDATE_MAX_ORDER:
        raise BudgetExceeded(f"validate_sqs supports order <= {VALIDATE_MAX_ORDER}, got {v}")
    pts, malformed = _read_rows(list(q.quadruples), v)
    if malformed is not None:
        return Violation(triple=tuple(sorted(malformed))[:3], count=-1)
    x, y, z = (pts[:, list(slots)] for slots in zip(*combinations(range(4), 3)))
    keys, counts = np.unique((x * v + y) * v + z, return_counts=True)
    a, b, c = keys // (v * v), keys // v % v, keys % v
    number = _choose(v, 3) - _choose(v - a, 3) + _choose(v - a - 1, 2) - _choose(v - b, 2) + c - b - 1
    gaps = np.flatnonzero(number != np.arange(keys.size))
    missed = int(gaps[0]) if gaps.size else keys.size  # the place of the least triple missed
    j = int(np.argmax(counts > 1)) if keys.size else 0
    if j < missed and counts[j] > 1:
        return Violation(triple=(int(a[j]), int(b[j]), int(c[j])), count=int(counts[j]))
    if missed == _choose(v, 3):
        return None
    # the successor of the last triple before the gap, or of (0, 1, 1) at the start
    a, b, c = (int(a[missed - 1]), int(b[missed - 1]), int(c[missed - 1])) if missed else (0, 1, 1)
    triple = (a, b, c + 1) if c + 1 < v else (a, b + 1, b + 2) if b + 2 < v else (a + 1, a + 2, a + 3)
    return Violation(triple=triple, count=0)


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


def _quad_pairs(quads: np.ndarray, v: int):
    """Every two quadruples through a point pair x < y, from a (b, 4) int64
    array of sorted rows on v <= 64 points: the pair keys x·v + y of every
    row, stably sorted; the row of each; the positions p < q of each
    pairing, found d = 1, 2, ... places apart; and whether its rows'
    symmetric difference, their other pairs a < b and c < d, is a row, which
    is bit d of bits[(a·v + b)·v + c]."""
    first, second = np.triu_indices(4, 1)  # the six pairs of slots; pair 5 - k is pair k's complement
    x, y = quads[:, first], quads[:, second]
    keys = (x * v + y).reshape(-1)
    a, b = x[:, ::-1].reshape(-1), y[:, ::-1].reshape(-1)  # the other pair of each key's row
    bits = np.zeros(v**3, dtype=np.uint64)
    np.bitwise_or.at(bits, keys * v + a, np.uint64(1) << b.astype(np.uint64))
    order = np.argsort(keys, kind="stable")
    keys, rows, a, b = keys[order], order // 6, a[order], b[order]
    p, q, d = [order[:0]], [order[:0]], 1
    while (lead := np.flatnonzero(keys[d:] == keys[:-d])).size:
        p.append(lead)
        q.append(lead + d)
        d += 1
    p, q = np.concatenate(p), np.concatenate(q)
    return keys, rows, p, q, (bits[(a[p] * v + b[p]) * v + a[q]] >> b[q].astype(np.uint64) & 1).astype(bool)


def symmetric_difference_dichotomy(tau: PointPerm) -> DichotomyReport:
    """Symmetric-difference dichotomy for a non-linear tau: (i) through two
    same-side points, symmetric differences of distinct quadruples stay in
    SQS_tau; (ii) through a left/right point pair some quadruple pair's
    leaves it.  Both read the pairings of `_quad_pairs` that leave it, in
    (pair, row, row) order: the same-side ones are the counterexamples, and
    the first through left-a, right-b is the witness for (a, b)."""
    if is_linear(tau) is not None:
        raise AffineInput("tau is linear; the system is affine")
    n = 1 << tau.r
    quads = sorted(sqs_from_tau(tau).quadruples)
    keys, rows, p, q, inside = _quad_pairs(np.array(quads, dtype=np.int64), 2 * n)
    p, q = np.divmod(np.sort((p * keys.size + q)[~inside]), keys.size)  # (pair, row, row) order
    x, y = np.divmod(keys[p], 2 * n)
    same = (x < n) == (y < n)
    keep = same | (np.diff(keys[p], prepend=-1) != 0)  # and the first of each left/right pair
    cols = (col[keep].tolist() for col in (x, y - n, rows[p], rows[q], same))
    found = [((a, b), (quads[i], quads[j]), s) for a, b, i, j, s in zip(*cols)]
    witnesses = {ab: pair for ab, pair, s in found if not s}
    return DichotomyReport(
        part1_counterexamples=tuple(pair for _, pair, s in found if s),
        part2_missing=tuple((a, b) for a in range(n) for b in range(n) if (a, b) not in witnesses),
        part2_witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Structured maps of tau-labeled systems
# ---------------------------------------------------------------------------


def apply_structured(transform: tuple, q: SQS) -> SQS:
    """Apply (sigma_{a,A} | sigma_{b,B}) o xi^t to a tau-labeled system.

    The point maps are `sigma_am(a, A)` on the left copy and
    `sigma_am(b, B)` on the right, read off as one 2n-entry image table.
    With t=1 the side swap acts first, then the left/right affine
    relabelings; this matches the action identities
    (sigma_A|sigma_B)(SQS_tau) = SQS_{B tau A^{-1}} and
    (sigma_A|sigma_B) xi (SQS_tau) = SQS_{B tau^{-1} A^{-1}}.  An odd order,
    or A or B not r x r, r the least with 2^r >= n, raises DimensionMismatch.
    """
    a, mat_a, b, mat_b, t = transform
    n, odd = divmod(q.order, 2)
    r = (n - 1).bit_length()
    if odd or {mat_a.rows, mat_a.cols, mat_b.rows, mat_b.cols} != {r}:
        raise DimensionMismatch(f"structured maps need an even order and {r} x {r} parts, got {q.order}")
    left = sigma_am(a, mat_a).images[:n]
    right = tuple(n + y for y in sigma_am(b, mat_b).images[:n])
    table = right + left if t else left + right
    quads = frozenset(tuple(sorted(table[p] for p in quad)) for quad in q.quadruples)
    return SQS(order=q.order, quadruples=quads)


def xi_swap(q: SQS) -> SQS:
    """Swap the copies [0, n) and [n, 2n) of a system of even order 2n, which
    maps SQS_tau to SQS_{tau^{-1}}; an odd order raises DimensionMismatch."""
    eye = identity_matrix((q.order // 2 - 1).bit_length())
    return apply_structured((0, eye, 0, eye, 1), q)


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
    holds no non-linear map.  The search makes the input checks: unequal r
    raises DimensionMismatch, r above SEARCH_MAX_R BudgetExceeded (first,
    even for a tau that moves 0), then a tau that moves 0 ZeroNotFixed.
    """
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
    None).  Otherwise the witness is the double-coset pair (A, B).  A tau
    that moves 0 raises ZeroNotFixed, from `is_linear`.
    """
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

# the largest order whose points fit the uint64 bit rows of _quad_pairs
PAIR_INVARIANT_MAX_ORDER = 64
_SLOT_ORDERS = np.array(list(permutations(range(4))))  # the 24 orders of a quadruple


def _pair_invariant(quads: np.ndarray, v: int) -> list[list[int]]:
    """The symmetric v x v table of how many pairs of distinct quadruples
    through x, y have their symmetric difference among the quadruples: the
    inside pairings of `_quad_pairs` (of (b, 4) sorted rows) by key."""
    keys, _, p, _, inside = _quad_pairs(quads, v)
    counts = np.bincount(keys[p[inside]], minlength=v * v).reshape(v, v)
    pair_inv = counts + np.triu(counts, 1).T  # keys have x <= y: mirror them
    return pair_inv.tolist()


def _forcing_schedule(quads: list[tuple[int, int, int, int]], v: int):
    """(base, steps, fixed) of the identity branch: level i fixes base[i],
    the first point not yet known in the order 0, h, 1, h + 1, ..., h =
    ceil(v/2), which alternates the two copies of F^r in SQS_tau, and then
    every quadruple with three known points forces its fourth until none
    does.  Which points get known depends only on which were known, so
    every search node at level i forces the same points: steps[i] holds
    each completion (a, b, c, d, False), d forced by the known a, b, c,
    followed by the quadruples (a, b, c, d, True) it leaves fully known, to
    be checked, and fixed[i] the points known before base[i], a bit mask.
    """
    through: list[list[int]] = [[] for _ in range(v)]
    for i, quad in enumerate(quads):
        for p in quad:
            through[p].append(i)
    count = [0] * len(quads)  # how many of its points are known
    known = 0  # the known points, as a bit mask
    ready: list[int] = []  # quadruples that had three known points

    def know(y: int, by: int, level: list[tuple]):
        """Mark y known; check the quadruples it completes but `by`, which forced it."""
        nonlocal known
        known |= 1 << y
        for i in through[y]:
            count[i] += 1
            if count[i] == 3:
                ready.append(i)
            elif count[i] == 4 and i != by:
                level.append((*quads[i], True))

    base, steps, fixed = [], [], []
    half = (v + 1) // 2
    for p in sorted(range(v), key=lambda p: (p % half, p // half)):
        if known >> p & 1:
            continue
        base.append(p)
        fixed.append(known)
        steps.append(level := [])
        know(p, -1, level)
        while ready:
            i = ready.pop()
            if count[i] == 3:
                (y,) = (z for z in quads[i] if not known >> z & 1)
                level.append((*(z for z in quads[i] if z != y), y, False))
                know(y, i, level)
    return base, steps, fixed


def _closure(points: set[int], gens: list[list[int]]) -> set[int]:
    """The union of the orbits of `points` under the group the images generate."""
    out, new = set(), set(points)
    while new:
        out |= new
        new = {g[x] for x in new for g in gens} - out
    return out


def count_automorphisms(q: SQS) -> int:
    """|Aut(Q)| by an orbit-stabilizer chain over backtracking searches.

    Independent of the structured formula in aut_order: works on the bare
    quadruple set of any SQS or packing (no triple in two quadruples), read
    as `validate_sqs` reads it, and raises InconsistentInput on any other.
    Level i fixes F_i, the points known before base[i] (`_forcing_schedule`),
    and decides the orbit of base[i] under the stabilizer G_i.  A search
    node (`attempt`) gives a base point an image that passes the pair
    invariant on F_i, the one screen, then reads its level's forced images
    from the table comp[(x·v + y)·v + z]; it fails on a missing or used
    image, or on a quadruple of the level that does not map to one.  Built
    bottom-up, the chain finds at level i or below only automorphisms in
    G_i: a candidate in the closure of base[i] under them is certified
    without a search, a search that succeeds adds a generator, and one that
    fails rejects the candidate's orbit under them.
    """
    v = q.order
    if v > PAIR_INVARIANT_MAX_ORDER:
        raise BudgetExceeded(f"count_automorphisms supports order <= {PAIR_INVARIANT_MAX_ORDER}, got {v}")
    quads = sorted(q.quadruples)  # the schedule follows this order
    rows, malformed = _read_rows(quads, v)
    if malformed is not None:
        raise InconsistentInput(f"{malformed} is not four distinct points of [0, {v})")
    slots = rows[:, _SLOT_ORDERS]  # x, y, z and their completion w
    table = np.full(v**3, -1, dtype=np.int64)
    table[(slots[..., 0] * v + slots[..., 1]) * v + slots[..., 2]] = slots[..., 3]
    # a packing writes the 24 orders of each quadruple, no key twice
    if np.count_nonzero(table >= 0) != slots[..., 0].size:
        raise InconsistentInput("a triple lies in two quadruples: not a packing")
    comp = table.tolist()
    pair_inv = _pair_invariant(rows, v)
    base, steps, fixed = _forcing_schedule(quads, v)

    def assign(i: int, img: list[int], used: int):
        """Level i's forced images and checks once img[base[i]] is set: the
        used images as a bit mask, or None."""
        for a, b, c, d, check in steps[i]:
            y = comp[(img[a] * v + img[b]) * v + img[c]]
            if check:
                if y != img[d]:
                    return None
            elif y < 0 or used >> y & 1:
                return None
            else:
                img[d] = y
                used |= 1 << y
        return used

    # column_masks[y][n]: the points c with pair_inv[c][y] = n, as a bit mask
    column_masks = [{} for _ in range(v)]
    for masks, row in zip(column_masks, pair_inv):  # symmetric: row y is column y
        for c, n in enumerate(row):
            masks[n] = masks.get(n, 0) | 1 << c
    screens = [[(x, pair_inv[p][x]) for x in range(v) if fixed[i] >> x & 1] for i, p in enumerate(base)]

    def candidates(i: int, img: list[int], used: int):
        """Unused images of base[i] that match its pair invariant on F_i, ascending."""
        mask = (1 << v) - 1 & ~used
        for x, n in screens[i]:
            mask &= column_masks[img[x]].get(n, 0)
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def attempt(i: int, img: list[int], used: int, c: int):
        """A full automorphism that maps base[i] to c and extends a node with
        the levels before i set, or None."""
        img[base[i]] = c
        if (used := assign(i, img, used | 1 << c)) is None:
            return None
        if i + 1 == len(base):
            return img[:]
        for d in candidates(i + 1, img, used):
            if (found := attempt(i + 1, img, used, d)) is not None:
                return found
        return None

    gens: list[list[int]] = []
    order = 1
    for i in reversed(range(len(base))):
        orbit = _closure({base[i]}, gens)
        rejected: set[int] = set()
        img = list(range(v))
        for c in candidates(i, img, fixed[i]):
            if c in orbit or c in rejected:
                continue
            if (found := attempt(i, img, fixed[i], c)) is None:
                rejected |= _closure({c}, gens)
            else:
                gens.append(found)
                orbit = _closure(orbit, gens)
        order *= len(orbit)
    return order
