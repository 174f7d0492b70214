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

from .algebra import BitMatrix, PointPerm, conjugate_rows, gl_rows_cached, identity_matrix, inverse_rows
from .errors import BudgetExceeded, InconsistentInput, NotAnAutomorphism

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
    """GL(r,2) point maps and the unipotent tables for one r.

    `gl` holds sigma_M of every M in GL(r,2), in `gl_enumerate` order (the
    identity first), and `app` its unipotent rows.  `mul` is the one product
    table, built one unipotent row at a time; the DFS reads it through
    `mul_l`, one memoryview per row, so mul_l[a][b] is a Python int with no
    per-entry copy.  `code2idx` is the one lookup from a matrix's columns
    M e_j = sigma_M(units) to its unipotent index: code2idx[cols @ weights]."""

    def __init__(self, r: int):
        rows_list = gl_rows_cached(r)
        self.gl = maps = _point_maps(np.array(rows_list, dtype=np.int64), r)
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
        self.units = units = 1 << np.arange(r)
        cols = app[:, units].astype(np.intp)
        self.weights = weights = 1 << (r * np.arange(r))
        self.code2idx = np.full(1 << (r * r), -1, dtype=np.int16)
        self.code2idx[cols @ weights] = np.arange(nu)
        # -1 marks a non-unipotent product (prunes the branch)
        self.mul = mul = np.empty((nu, nu), dtype=np.int16)
        # column j of M_a M_b is M_a(M_b e_j)
        for a, row in enumerate(app.astype(np.intp)):
            mul[a] = self.code2idx[row[cols] @ weights]
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


def _levels(mul: list[list[int]], n: int):
    """The generators of the automorphism search, one level each.

    gens[i] is the least label outside H_{i-1} = <gens[:i]>, and the last
    level is the first whose H_i = <gens[:i+1]> holds all n labels.  Yields
    (gens[i], layers, members): a breadth-first walk over H_i along right
    multiplication by gens[:i+1] from 0, in a finite group the subgroup they
    generate, as one (tree, cross) pair per layer, each three parallel lists
    x, h, y of the Cayley edges x h = y whose y is new (tree) or already
    reached (cross); and H_i's labels in the order the walk reached them."""
    gens: list[int] = []
    seen = {0}
    while len(seen) < n:
        g = next(a for a in range(n) if a not in seen)
        gens.append(g)
        members, seen, frontier, layers = [0], {0}, [0], []
        while frontier:
            tree, cross = ([], [], []), ([], [], [])
            for x in frontier:
                for h in gens:
                    y = mul[x][h]
                    edges = cross if y in seen else tree
                    seen.add(y)
                    edges[0].append(x)
                    edges[1].append(h)
                    edges[2].append(y)
            layers.append((tree, cross))
            members += tree[2]
            frontier = tree[2]
        yield g, layers, members


def _automorphism_perms(mul: list[list[int]], n: int) -> np.ndarray:
    """All product-preserving label bijections fixing 0, as the rows of a
    (k, n) array of images.

    A level-by-level search over the images of the generators `_levels`
    picks.  At level i every surviving map is repeated once per candidate
    image for gens[i] of the same element order that is not yet an image,
    and extended to H_i along the level's walk: each tree edge x h = y
    defines img[y] = img[x] img[h].  A row survives when every cross edge
    maps to img[x] img[h] too, which with img[0] = 0 makes it a
    homomorphism on H_i, and no x != 0 maps to 0, which makes it
    injective.  The last level is Aut(G).

    Ordering guarantee: rows stay parent-major with candidates ascending,
    so the rows are sorted lexicographically by the tuple of generator
    images (img[gens[0]], img[gens[1]], ...), the order in which a
    depth-first search over ascending candidates emits them.  That is
    ascending row order: two maps that agree on gens[:i] agree on H_{i-1},
    which holds every label below gens[i].  aut_ids in the tau catalog are
    row positions.
    """
    orders = np.array(_label_orders(mul, n))
    table = np.array(mul, dtype=np.intp)
    img = np.zeros((1, n), dtype=np.intp)
    reached = [0]
    for g, layers, members in _levels(mul, n):
        cands = np.flatnonzero(orders == orders[g])
        used = np.zeros((len(img), n), dtype=bool)
        used[np.arange(len(img))[:, None], img[:, reached]] = True
        parent, pick = np.nonzero(~used[:, cands])
        img = img[parent]
        img[:, g] = cands[pick]
        for (xs, hs, ys), (cx, ch, cy) in layers:
            if ys:
                img[:, ys] = table[img[:, xs], img[:, hs]]
            if cy:
                img = img[(img[:, cy] == table[img[:, cx], img[:, ch]]).all(axis=1)]
        img = img[(img[:, members[1:]] != 0).all(axis=1)]
        reached = members
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


def _conjugacy_class(tab: _Tables, mats: np.ndarray) -> dict[bytes, np.ndarray]:
    """The GL(r,2)-conjugates M G M^-1 of the group G = `mats` (point ->
    unipotent index, int16), keyed by their own int16 bytes, each with the
    point map sigma_M of the first M in `tab.gl` that carries G to it.

    The class is the image of G under every point map at once: conjugation
    by sigma_M sends g_a = (a, M_a) to (M a, M M_a M^-1), and the columns of
    M M_a M^-1 are sigma_M(M_a(sigma_M^-1 e_j)), gathered at the units alone."""
    inner = tab.app[mats][:, inverse_rows(tab.gl)[:, tab.units]]  # (point a, M, column)
    conj = tab.gl[np.arange(len(tab.gl))[:, None], inner]
    groups = np.empty_like(tab.gl)
    np.put_along_axis(groups, tab.gl.astype(np.intp), tab.code2idx[conj @ tab.weights].T, axis=1)
    _, first = np.unique(groups.view(np.dtype((np.void, groups[0].nbytes))).ravel(), return_index=True)
    return {groups[k].tobytes(): tab.gl[k] for k in first}


def _carried_automorphisms(auts: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Aut(M G M^-1) from Aut(G) and sigma_M: the conjugate induces
    sigma_M tau sigma_M^-1 for each tau of G, sorted into ascending row
    order, the order of the conjugate's own search (`_automorphism_perms`)."""
    carried = conjugate_rows(auts, sigma)
    return carried[np.lexsort(carried.T[::-1].astype(np.int8))]  # int8 keys sort by radix


def automorphism_census(r: int, budget_seconds: float | None = None):
    """Yield Aut(G) of every regular subgroup G of GA(r,2), in enumeration
    order, as the (k, 2^r) array `_automorphism_perms` gives; each row is an
    induced tau.

    One search per GL(r,2)-conjugacy class: the first group of a class
    that the enumeration meets is searched, its class is computed at once
    as the group's image under every GL(r,2) point map
    (`_conjugacy_class`), and every later member, met in its turn, gets the
    searched rows carried by conjugation and re-sorted into lexicographic
    order, which is its own search's order, so each array equals the
    member's own search.
    At r=3 the 232 groups form 8 classes, at r=4 the 62,896 form 39.

    Raises BudgetExceeded mid-stream once the time budget runs out: the
    enumeration checks the deadline before it hands over each group, so
    the groups yielded before are whole and are the first ones in order.
    An enumeration that ends before meeting every conjugate of the groups
    it met has missed a group: InconsistentInput."""
    deadline = _deadline(budget_seconds)
    tab = _tables(r)
    n = 1 << r
    # key -> (the searched rows of its class, sigma_M carrying them to it);
    # the enumeration meets each group once, so its entry is popped then
    carried: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for mats_idx in _enumerate_regular_idx(r, deadline):
        mats = np.array(mats_idx, dtype=np.int16)
        key = mats.tobytes()
        found = carried.pop(key, None)
        if found is None:
            auts = _automorphism_perms(_mult_table(tab.app[mats]), n)
            klass = _conjugacy_class(tab, mats)
            del klass[key]
            carried.update((other, (auts, sigma)) for other, sigma in klass.items())
        else:
            auts = _carried_automorphisms(*found)
        yield auts
    if carried:
        raise InconsistentInput(f"the enumeration missed {len(carried)} of the conjugates of the groups it yielded")


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

    The pairs come from `automorphism_census`, which searches once per
    conjugacy class; an aut_id is a row position in the group's own search
    order either way.  Each tau is packed one nibble per point into a
    uint64 code, and deduplicated by exact permutation equality, keeping
    the first (group, automorphism) pair in enumeration order as
    provenance; the images are unpacked from the codes' bytes.  On budget
    exhaustion the partial catalog is returned with complete=False: the
    pairs of the first k groups, all of them.
    """
    if r not in (ENUM_MIN_R, ENUM_MAX_R):
        raise ValueError(f"catalog_taus supports r in {{3, 4}}, got {r}")
    n = 1 << r
    # one nibble per point; 16 nibbles fill all 64 bits at r=4
    shifts = np.uint64(4) * np.arange(n, dtype=np.uint64)
    codes = []
    complete = True
    try:
        for auts in automorphism_census(r, budget_seconds):
            codes.append(np.bitwise_or.reduce(auts.astype(np.uint64) << shifts, axis=1))
    except BudgetExceeded:
        complete = False

    if not codes:
        return TauCatalog(r, np.zeros((0, n), dtype=np.int8), [], [], complete)
    starts = np.cumsum([0] + [len(c) for c in codes[:-1]])
    codes = np.concatenate(codes)
    _, first = np.unique(codes, return_index=True)
    first.sort()  # first-seen order over the deduplicated set
    gids = np.searchsorted(starts, first, "right") - 1
    codes, aids = codes[first], first - starts[gids]
    # little-endian bytes: the low nibble of byte k is point 2k, the high one point 2k + 1
    packed = codes.astype("<u8").view(np.uint8).reshape(len(codes), 8)[:, : n // 2]
    images = np.empty((len(codes), n), dtype=np.int8)
    images[:, 0::2] = packed & 15
    images[:, 1::2] = packed >> 4
    return TauCatalog(r, images, gids, aids, complete)
