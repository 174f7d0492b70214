"""Regular subgroups of the general affine group GA(r,2), their
automorphism groups, and the point permutations they induce.

A regular subgroup is stored by the map a -> M_a where g_a = (a, M_a) is
the unique element sending 0 to a; the closure law M_{a + M_a b} = M_a M_b
encodes g_a g_b = g_{a + M_a b}.  Every matrix part of a 2-group element
is unipotent, which the enumeration uses as a pre-filter.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .algebra import BitMatrix, PointPerm, gl_rows_cached, identity_matrix
from .errors import BudgetExceeded, NotAnAutomorphism

ENUM_MIN_R = 3
ENUM_MAX_R = 4


@dataclass(frozen=True)
class RegularSubgroup:
    """The map a -> M_a of a regular subgroup of GA(r,2)."""

    r: int
    mats: tuple[BitMatrix, ...]

    def mult_table(self) -> list[list[int]]:
        rows = np.array([m.row_bits for m in self.mats], dtype=np.int64)
        return _mult_table(_point_maps(rows, self.r))


@dataclass(frozen=True)
class ClosureViolation:
    a: int
    b: int


@dataclass(frozen=True)
class GroupAutomorphism:
    """A product-preserving relabeling T(g_a) = g_{perm(a)} fixing the identity."""

    perm: PointPerm


def verify_regular(group: RegularSubgroup):
    """None if M_0 = I and the closure law holds for all pairs, else a violation."""
    n = 1 << group.r
    if group.mats[0] != identity_matrix(group.r):
        return ClosureViolation(0, 0)
    for a in range(n):
        ma = group.mats[a]
        for b in range(n):
            c = a ^ ma.apply(b)
            if group.mats[c] != ma @ group.mats[b]:
                return ClosureViolation(a, b)
    return None


# ---------------------------------------------------------------------------
# Table-driven enumeration
# ---------------------------------------------------------------------------


def _point_maps(rows: np.ndarray, r: int) -> np.ndarray:
    """(k, 2^r) int16 point maps b -> M b of k matrices given as a (k, r)
    array of bit-packed rows."""
    brange = np.arange(1 << r, dtype=np.int64)
    out = np.zeros((len(rows), 1 << r), dtype=np.int16)
    for i in range(r):
        out |= ((np.bitwise_count(rows[:, i : i + 1] & brange) & 1) << i).astype(np.int16)
    return out


class _Tables:
    """Unipotent-matrix action and multiplication tables for one r.

    `mul` is the one product table, built one unipotent row at a time; the
    DFS reads it through `mul_l`, one memoryview per row, so mul_l[a][b] is
    a Python int with no per-entry copy."""

    def __init__(self, r: int):
        rows_list = gl_rows_cached(r)
        maps = _point_maps(np.array(rows_list, dtype=np.int64), r)
        # 2-power order in GL(r,2) is equivalent to (M + I)^r = 0
        nil = maps ^ np.arange(1 << r, dtype=np.int16)
        power = nil
        for _ in range(r - 1):
            power = np.take_along_axis(nil, power.astype(np.intp), axis=1)
        keep = np.flatnonzero(~power.any(axis=1))
        self.uni = [rows_list[k] for k in keep]
        self.id_idx = self.uni.index(tuple(1 << i for i in range(r)))
        self.app = app = maps[keep]
        nu = len(keep)
        # a unipotent is looked up by its columns M e_j, r bits each
        cols = app[:, 1 << np.arange(r)].astype(np.intp)
        shifts = r * np.arange(r)
        code2idx = np.full(1 << (r * r), -1, dtype=np.int16)
        code2idx[(cols << shifts).sum(axis=1)] = np.arange(nu)
        # -1 marks a non-unipotent product (prunes the branch)
        self.mul = mul = np.empty((nu, nu), dtype=np.int16)
        # column j of M_a M_b is M_a(M_b e_j)
        for a, row in enumerate(app.astype(np.intp)):
            mul[a] = code2idx[(row[cols] << shifts).sum(axis=1)]
        self.app_l = tuple(tuple(row.tolist()) for row in app)
        self.mul_l = tuple(map(memoryview, mul))


@functools.cache
def _tables(r: int) -> _Tables:
    if r < ENUM_MIN_R:
        raise ValueError(f"enumeration needs r >= {ENUM_MIN_R}, got {r}")
    if r > ENUM_MAX_R:
        raise BudgetExceeded(f"enumeration supports r <= {ENUM_MAX_R}, got {r}")
    return _Tables(r)


def _enumerate_regular_idx(r: int, deadline: float | None):
    """Yield assignments point -> unipotent index, in deterministic DFS order.

    Depth-first over the smallest unassigned point, with matrix candidates
    in enumeration order.  The points chosen on the path generate the
    node's subgroup, so each node is closed under them alone: every
    assigned element times every generator, assigning the products it
    reaches and backtracking on the first violation.  The deadline is
    checked before each assignment is yielded, so BudgetExceeded means a
    group is still missing, never that only dead ends were left to search.
    """
    tab = _tables(r)
    n = 1 << r
    app_l, mul_l = tab.app_l, tab.mul_l
    app_np = tab.app

    def close(mats: list[int], gens: list[int]):
        # in a finite group, right products by the generators reach the
        # whole subgroup they generate
        queue = [x for x in range(n) if mats[x] >= 0]
        for x in queue:
            kx = mats[x]
            row_x, mul_x = app_l[kx], mul_l[kx]
            for s in gens:
                prod = mul_x[mats[s]]
                if prod < 0:
                    return None
                t = x ^ row_x[s]
                cur = mats[t]
                if cur < 0:
                    mats[t] = prod
                    queue.append(t)
                elif cur != prod:
                    return None
        return mats

    def dfs(mats: list[int], gens: list[int]):
        a = next((p for p in range(n) if mats[p] < 0), None)
        if a is None:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("regular-subgroup enumeration budget exhausted")
            yield mats
            return
        pts = np.array([p for p in range(n) if mats[p] >= 0], dtype=np.int64)
        assigned_mask = np.zeros(n, dtype=bool)
        assigned_mask[pts] = True
        # right products g_a g_b land in the coset g_a H, disjoint from H:
        # any candidate whose product translation hits an assigned point dies
        trans = a ^ app_np[:, pts]
        alive = np.flatnonzero(~assigned_mask[trans].any(axis=1))
        gens = gens + [a]
        for k in alive:
            child = mats.copy()
            child[a] = int(k)
            if close(child, gens) is not None:
                yield from dfs(child, gens)

    start = [-1] * n
    start[0] = tab.id_idx
    yield from dfs(start, [])


def _deadline(budget_seconds: float | None) -> float | None:
    """When a budget ends; None and inf never do, and NaN, which no clock passes, is refused."""
    if budget_seconds is not None and math.isnan(budget_seconds):
        raise ValueError("budget_seconds must be a number of seconds, got nan")
    return None if budget_seconds is None else time.monotonic() + budget_seconds


def enumerate_regular_subgroups(r: int, budget_seconds: float | None = None):
    """Yield every regular subgroup of GA(r,2) exactly once.

    Deterministic order; raises BudgetExceeded mid-stream when the time
    budget runs out (everything yielded before that is valid, the stream
    is just incomplete).
    """
    deadline = _deadline(budget_seconds)
    tab = _tables(r)
    for mats_idx in _enumerate_regular_idx(r, deadline):
        mats = tuple(BitMatrix(r, r, tab.uni[k]) for k in mats_idx)
        yield RegularSubgroup(r=r, mats=mats)


# ---------------------------------------------------------------------------
# Automorphisms and induced permutations
# ---------------------------------------------------------------------------


def _mult_table(point_maps: np.ndarray) -> list[list[int]]:
    """Labels of g_a g_b = g_{a + M_a b}, from the (n, n) point maps b -> M_a b."""
    return (np.arange(len(point_maps))[:, None] ^ point_maps).tolist()


def _label_orders(mul: list[list[int]], n: int) -> list[int]:
    orders = [1] * n
    for a in range(1, n):
        x, k = a, 1
        while x != 0:
            x = mul[x][a]
            k += 1
        orders[a] = k
    return orders


def _automorphism_perms(mul: list[list[int]], n: int) -> np.ndarray:
    """All product-preserving label bijections fixing 0, as the rows of a
    (k, n) array of images.

    A level-by-level search over the images of generators that it picks
    as it goes: gens[i] is the least label outside H_{i-1} = <gens[:i]>,
    and the search stops once H_i holds all n labels.  At level i every
    surviving map is repeated once per candidate image for gens[i] of the
    same element order that is not yet an image, and extended to
    H_i = <gens[:i+1]> breadth first along right multiplication,
    img[x h] = img[x] img[h]; in a finite group the labels this reaches
    from 0 are the subgroup gens[:i+1] generate.  A row survives when
    every Cayley edge x h (x in H_i, h in gens[:i+1]) maps to
    img[x] img[h], which with img[0] = 0 makes it a homomorphism on H_i,
    and no x != 0 maps to 0, which makes it injective.  The last level is
    Aut(G).

    Ordering guarantee: rows stay parent-major with candidates ascending,
    so the rows are sorted lexicographically by the tuple of generator
    images (img[gens[0]], img[gens[1]], ...), the order in which a
    depth-first search over ascending candidates emits them.  aut_ids in
    the tau catalog are row positions.
    """
    orders = np.array(_label_orders(mul, n))
    table = np.array(mul, dtype=np.intp)
    img = np.zeros((1, n), dtype=np.intp)
    gens: list[int] = []
    members, seen = [0], {0}
    while len(members) < n:
        g = next(a for a in range(n) if a not in seen)
        gens.append(g)
        cands = np.flatnonzero(orders == orders[g])
        used = np.zeros((len(img), n), dtype=bool)
        used[np.arange(len(img))[:, None], img[:, members]] = True
        parent, pick = np.nonzero(~used[:, cands])
        img = img[parent]
        img[:, g] = cands[pick]
        # breadth first over H_i: tree edges define the images of each new
        # layer, the layer's other Cayley edges x h drop the rows they break
        members, seen, frontier = [0], {0}, [0]
        while frontier:
            xs, hs, ys, cx, ch, cy = [], [], [], [], [], []
            for x in frontier:
                for h in gens:
                    y = mul[x][h]
                    if y in seen:
                        cx.append(x)
                        ch.append(h)
                        cy.append(y)
                    else:
                        seen.add(y)
                        xs.append(x)
                        hs.append(h)
                        ys.append(y)
            if ys:
                img[:, ys] = table[img[:, xs], img[:, hs]]
            if cy:
                img = img[(img[:, cy] == table[img[:, cx], img[:, ch]]).all(axis=1)]
            members += ys
            frontier = ys
        img = img[(img[:, members[1:]] != 0).all(axis=1)]
    return img


def automorphisms(group: RegularSubgroup) -> list[GroupAutomorphism]:
    """All automorphisms of the group, as permutations of the element labels."""
    n = 1 << group.r
    if n > 1 << ENUM_MAX_R:
        raise BudgetExceeded(f"automorphism search supports order <= {1 << ENUM_MAX_R}")
    mul = group.mult_table()
    return [
        GroupAutomorphism(perm=PointPerm(group.r, tuple(images)))
        for images in _automorphism_perms(mul, n).tolist()
    ]


def automorphism_census(r: int, budget_seconds: float | None = None):
    """Yield Aut(G) of every regular subgroup G of GA(r,2), in enumeration
    order, as the (k, 2^r) array of `_automorphism_perms`; each row is an
    induced tau.

    Raises BudgetExceeded mid-stream once the time budget runs out: the
    enumeration checks the deadline before it hands over each group, so
    the groups yielded before are whole and are the first ones in order."""
    deadline = _deadline(budget_seconds)
    tab = _tables(r)
    for mats_idx in _enumerate_regular_idx(r, deadline):
        yield _automorphism_perms(_mult_table(tab.app[mats_idx]), 1 << r)


def induced_tau(group: RegularSubgroup, aut: GroupAutomorphism) -> PointPerm:
    """The point permutation tau with T(g_a) = g_{tau(a)}; tagged induced."""
    n = 1 << group.r
    mul = group.mult_table()
    img = aut.perm.images
    for a in range(n):
        for b in range(n):
            if img[mul[a][b]] != mul[img[a]][img[b]]:
                raise NotAnAutomorphism(f"map breaks the product at ({a}, {b})")
    return PointPerm(group.r, img, induced=True)


# ---------------------------------------------------------------------------
# The tau catalog
# ---------------------------------------------------------------------------


class TauCatalog:
    """Deduplicated induced permutations with (group, automorphism) provenance.

    Entries are stored column-wise (images as an (N, 2^r) array) so the
    r=4 catalog of a few million permutations stays compact; indexing
    materializes PointPerm objects on demand.
    """

    def __init__(self, r: int, images: np.ndarray, group_ids, aut_ids, complete: bool):
        self.r = r
        self.images = images
        self.group_ids = np.asarray(group_ids, dtype=np.int64)
        self.aut_ids = np.asarray(aut_ids, dtype=np.int64)
        self.complete = complete

    def __len__(self) -> int:
        return len(self.images)

    def perm(self, i: int) -> PointPerm:
        return PointPerm(self.r, tuple(int(x) for x in self.images[i]), induced=True)

    def provenance(self, i: int) -> tuple[int, int]:
        return int(self.group_ids[i]), int(self.aut_ids[i])

    def __getitem__(self, i: int):
        return self.perm(i), self.provenance(i)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def catalog_taus(r: int, budget_seconds: float | None = None) -> TauCatalog:
    """Aggregate induced permutations over all (group, automorphism) pairs.

    Deduplicates by exact permutation equality, keeping the first
    (group, automorphism) pair in enumeration order as provenance.  On
    budget exhaustion the partial catalog is returned with complete=False.
    """
    if r not in (ENUM_MIN_R, ENUM_MAX_R):
        raise ValueError(f"catalog_taus supports r in {{3, 4}}, got {r}")
    n = 1 << r
    # one nibble per point; 16 nibbles fill all 64 bits at r=4
    shifts = np.uint64(4) * np.arange(n, dtype=np.uint64)
    codes, gids, aids = [], [], []
    complete = True
    try:
        for gid, auts in enumerate(automorphism_census(r, budget_seconds)):
            codes.append(np.bitwise_or.reduce(auts.astype(np.uint64) << shifts, axis=1))
            gids.append(np.full(len(auts), gid, dtype=np.int64))
            aids.append(np.arange(len(auts), dtype=np.int64))
    except BudgetExceeded:
        complete = False

    if not codes:
        return TauCatalog(r, np.zeros((0, n), dtype=np.int8), [], [], complete)
    codes, gids, aids = np.concatenate(codes), np.concatenate(gids), np.concatenate(aids)
    _, first = np.unique(codes, return_index=True)
    first.sort()  # first-seen order over the deduplicated set
    codes, gids, aids = codes[first], gids[first], aids[first]
    images = ((codes[:, None] >> shifts[None, :]) & 15).astype(np.int8)
    return TauCatalog(r, images, gids, aids, complete)
