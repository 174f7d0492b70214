"""Steiner quadruple systems of the codes S_tau: generation, validation,
the structured automorphism group, isomorphism, and point transitivity.

Point labels: the left copy of F^r occupies [0, 2^r), the right copy
[2^r, 2^{r+1}); label p is on the left iff p < 2^r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

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


def _choose(n, k: int):
    """C(n, k) for k = 2 or 3, of an int or an int64 array."""
    return n * (n - 1) // 2 if k == 2 else n * (n - 1) * (n - 2) // 6


def validate_sqs(q: SQS):
    """None if every 3-subset is covered exactly once, else the first
    Violation: the first malformed quadruple (count -1), else the least
    triple not covered once.  Triples are counted as keys (a·v + b)·v + c;
    sorted, key j is triple number C(v,3) - C(v-a,3) + C(v-a-1,2) -
    C(v-b,2) + c - b - 1, which passes j just after the least triple missed.
    """
    v = q.order
    quads = list(q.quadruples)
    # a quadruple of another length becomes (-1, -1, -1, -1), malformed too
    pts = np.array([quad if len(quad) == 4 else (-1,) * 4 for quad in quads], dtype=np.int64)
    pts = np.sort(pts.reshape(-1, 4))
    ok = (pts[:, 1:] > pts[:, :-1]).all(axis=1) & (pts[:, 0] >= 0) & (pts[:, 3] < v)
    if not ok.all():
        return Violation(triple=tuple(sorted(quads[int(np.argmin(ok))]))[:3], count=-1)
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


def _pairs_through(quads: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uint64 mask 1<<a | 1<<b | 1<<c | 1<<d of each row of a (b, 4)
    int64 array of sorted quadruples; the key x·v + y of each of their
    pairs x < y, sorted stably; and the row each key comes from.  The
    quadruples through a pair are consecutive, in row order."""
    masks = np.bitwise_or.reduce(np.uint64(1) << quads.astype(np.uint64), axis=1)
    first, second = np.triu_indices(4, 1)  # the six pairs of slots
    keys = (quads[:, first] * v + quads[:, second]).reshape(-1)
    order = np.argsort(keys, kind="stable")
    return masks, keys[order], order // 6


def symmetric_difference_dichotomy(tau: PointPerm) -> DichotomyReport:
    """Symmetric-difference dichotomy for a non-linear tau.

    (i) through two same-side points, symmetric differences of distinct
    quadruples stay in SQS_tau; (ii) through a left/right point pair
    there is always a quadruple pair whose symmetric difference leaves it.
    One walk over the quadruples through each point pair
    (`_pairs_through`), in sorted order, checks both; the witness for
    (a, b) is the first pair through left-a, right-b whose symmetric
    difference leaves the system.
    """
    tau.require_zero_fixing()
    if is_linear(tau) is not None:
        raise AffineInput("tau is linear; the system is affine")
    n = 1 << tau.r
    quads = sorted(sqs_from_tau(tau).quadruples)
    masks, keys, rows = _pairs_through(np.array(quads, dtype=np.int64), 2 * n)
    masks = masks.tolist()
    quad_masks = set(masks)
    cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    part1, missing, witnesses = [], [], {}
    for key, through in zip(keys[np.r_[0, cuts]].tolist(), np.split(rows, cuts)):
        x, y = divmod(key, 2 * n)
        outside = (
            (quads[i], quads[j])
            for i, j in combinations(through.tolist(), 2)
            if masks[i] ^ masks[j] not in quad_masks
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


def _pair_invariant(quads: np.ndarray, v: int) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """For every point pair x, y: how many pairs of distinct quadruples
    through it have their symmetric difference among the quadruples (the
    v x v table, symmetric), and each point's row of it, sorted.

    `quads` is a (b, 4) int64 array of sorted rows.  The six pairs of
    every quadruple come sorted by pair (`_pairs_through`); each quadruple
    is then paired with the one d places on in that order, for d = 1, 2,
    ... while any such two share a pair, which visits every two quadruples
    through a pair once, however many quadruples each pair has.
    """
    masks, keys, rows = _pairs_through(quads, v)
    through, members = masks[rows], np.sort(masks)
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


def _forcing_schedule(quads: list[tuple[int, int, int, int]], v: int):
    """(base, steps) of the identity branch: level i fixes base[i], the
    least point not yet known, and then every quadruple with three known
    points forces its fourth until none does.  Which points get known
    depends only on which were known, so every search node at level i
    forces the same points: steps[i] holds each completion (a, b, c, d,
    False), d forced by the known a, b, c, followed by the quadruples
    (a, b, c, d, True) it leaves fully known, to be checked.
    """
    through: list[list[int]] = [[] for _ in range(v)]
    for i, quad in enumerate(quads):
        for p in quad:
            through[p].append(i)
    count = [0] * len(quads)  # how many of its points are known
    known = [False] * v
    ready: list[int] = []  # quadruples that had three known points

    def know(y: int, by: int, level: list[tuple]):
        """Mark y known; check the quadruples it completes but `by`, which forced it."""
        known[y] = True
        for i in through[y]:
            count[i] += 1
            if count[i] == 3:
                ready.append(i)
            elif count[i] == 4 and i != by:
                level.append((*quads[i], True))

    base, steps = [], []
    for p in range(v):
        if known[p]:
            continue
        base.append(p)
        steps.append(level := [])
        know(p, -1, level)
        while ready:
            i = ready.pop()
            if count[i] == 3:
                (y,) = (z for z in quads[i] if not known[z])
                level.append((*(z for z in quads[i] if z != y), y, False))
                know(y, i, level)
    return base, steps


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
    quadruple set of any SQS.  Level i fixes F_i, the points known before
    base[i] (`_forcing_schedule`), and decides the orbit of base[i] under
    the stabilizer G_i.  A search node gives a base point an image that
    passes the pair invariant, then reads its level's forced images from
    the table comp[(x·v + y)·v + z]; it fails on a missing or used image,
    or on a quadruple of the level that does not map to one.  Built
    bottom-up, the chain finds at level i or below only automorphisms in
    G_i: a candidate in the closure of base[i] under them is certified
    without a search, a search that succeeds adds a generator, and one
    that fails rejects the candidate's orbit under them.
    """
    v = q.order
    if v > PAIR_INVARIANT_MAX_ORDER:
        raise BudgetExceeded(f"count_automorphisms supports order <= {PAIR_INVARIANT_MAX_ORDER}, got {v}")
    quads = sorted(q.quadruples)
    rows = np.array(quads, dtype=np.int64).reshape(-1, 4)
    slots = rows[:, list(permutations(range(4)))]  # x, y, z and their completion w
    table = np.full(v**3, -1, dtype=np.int64)
    table[(slots[..., 0] * v + slots[..., 1]) * v + slots[..., 2]] = slots[..., 3]
    comp = table.tolist()
    pair_inv, point_inv = _pair_invariant(rows, v)
    base, steps = _forcing_schedule(quads, v)

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

    # fixed[i]: the points F_i as a bit mask; the identity must pass every level
    img, fixed = list(range(v)), [0]
    for i, p in enumerate(base):
        used = assign(i, img, fixed[i] | 1 << p)
        if used is None or img != list(range(v)):
            raise InconsistentInput("the identity does not stabilize every prefix")
        fixed.append(used)
    # column_masks[y][n]: the points c with pair_inv[c][y] = n, as a bit mask
    column_masks = [{} for _ in range(v)]
    for c, row in enumerate(pair_inv):
        for y, n in enumerate(row):
            column_masks[y][n] = column_masks[y].get(n, 0) | 1 << c
    same = [sum(1 << c for c in range(v) if point_inv[c] == point_inv[p]) for p in range(v)]
    screens = [[(x, pair_inv[p][x]) for x in range(v) if fixed[i] >> x & 1] for i, p in enumerate(base)]

    def candidates(i: int, img: list[int], used: int):
        """Unused images of base[i] that match its pair invariant on F_i, ascending."""
        mask = same[base[i]] & ~used
        for x, n in screens[i]:
            mask &= column_masks[img[x]].get(n, 0)
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def extend(i: int, img: list[int], used: int):
        """A full automorphism extending a node with levels before i set, or None."""
        if i == len(base):
            return img[:]
        p = base[i]
        for c in candidates(i, img, used):
            img[p] = c
            after = assign(i, img, used | 1 << c)
            if after is not None and (found := extend(i + 1, img, after)) is not None:
                return found
        return None

    gens: list[list[int]] = []
    order = 1
    for i in reversed(range(len(base))):
        p = base[i]
        orbit = _closure({p}, gens)
        rejected: set[int] = set()
        img = list(range(v))
        for c in candidates(i, img, fixed[i]):
            if c in orbit or c in rejected:
                continue
            img[p] = c
            used = assign(i, img, fixed[i] | 1 << c)
            found = extend(i + 1, img, used) if used is not None else None
            if found is None:
                rejected |= _closure({c}, gens)
            else:
                gens.append(found)
                orbit = _closure(orbit, gens)
        order *= len(orbit)
    return order
