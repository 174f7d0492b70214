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

from .algebra import (
    BitMatrix,
    PointPerm,
    conjugate_rows,
    gl_rows_cached,
    inverse_rows,
    pack_rows,
    point_maps,
    unpack_codes,
)
from .errors import BudgetExceeded, DimensionMismatch, InconsistentInput, NotAnAutomorphism

ENUM_MIN_R = 3
ENUM_MAX_R = 4


@dataclass(frozen=True)
class RegularSubgroup:
    """The map a -> M_a of a regular subgroup of GA(r,2)."""

    r: int
    mats: tuple[BitMatrix, ...]

    def mult_table(self) -> list[list[int]]:
        """mul[a][x] = a + M_a x, the list form of the label array the group-law checks read."""
        return self._labels().tolist()

    def _labels(self) -> np.ndarray:
        """The label table as one int array; DimensionMismatch unless 2^r matrices are r x r."""
        if len(self.mats) != 1 << self.r or {(m.rows, m.cols) for m in self.mats} != {(self.r, self.r)}:
            raise DimensionMismatch(f"GA({self.r},2) needs {1 << self.r} matrices of size {self.r} x {self.r}")
        return _mult_table(point_maps([m.row_bits for m in self.mats], self.r))


@dataclass(frozen=True)
class ClosureViolation:
    a: int
    b: int


@dataclass(frozen=True)
class GroupAutomorphism:
    """A product-preserving relabeling T(g_a) = g_{perm(a)} fixing the identity."""

    perm: PointPerm


def verify_regular(group: RegularSubgroup):
    """None if the maps g_a = (a, M_a) form a group, else the first violation
    in row-major order: (0, 0) unless M_0 = I, then the first (a, b) where M_a
    maps b as it maps some b' < b (M_a is singular) or M_{a + M_a b} != M_a M_b."""
    return _first_violation(group._labels())


def _first_violation(mul: np.ndarray):
    """`verify_regular` on the label array mul[a][x] = a + M_a x, in one pass.
    The closure law is tested at e_1, ..., e_r alone, exact for a table built
    from matrices: mul[a][mul[b][x]] ^ mul[mul[a][b]][x] = (M_a M_b + M_{a + M_a b}) x
    is linear in x.  A stable argsort of each row runs equal images together,
    least b first, so every later b of a run repeats an earlier image."""
    n = len(mul)
    if (mul[0] != np.arange(n)).any():
        return ClosureViolation(0, 0)
    units = mul[:, 1 << np.arange(n.bit_length() - 1)]  # mul[b][e_j]
    bad = (mul[:, units] != units[mul]).any(axis=2)
    order = np.argsort(mul, axis=1, kind="stable")
    a, k = np.nonzero(np.diff(np.take_along_axis(mul, order, axis=1), axis=1) == 0)
    bad[a, order[a, k + 1]] = True
    if bad.any():
        return ClosureViolation(*divmod(int(bad.argmax()), n))
    return None


def _group_table(group: RegularSubgroup) -> np.ndarray:
    """`group`'s label array; InconsistentInput if `verify_regular` fails."""
    if (bad := _first_violation(mul := group._labels())) is not None:
        raise InconsistentInput(f"the maps break at ({bad.a}, {bad.b}): not a group")
    return mul


# ---------------------------------------------------------------------------
# Table-driven enumeration
# ---------------------------------------------------------------------------


class _Tables:
    """GL(r,2) point maps and the unipotent tables for one r.

    `gl` holds sigma_M of every M in GL(r,2) as int16, in `gl_enumerate`
    order, and `app` its unipotent rows, the identity first in both.  `uni`
    holds their frozen BitMatrix objects, which every group the enumeration
    yields shares.  `mul` is the one product table, built one unipotent row at a
    time; the DFS reads it through `mul_l`, one memoryview per row, so
    mul_l[a][b] is a Python int with no per-entry copy.  `code2idx` is the
    one lookup from a matrix's columns M e_j = sigma_M(units) to its
    unipotent index: code2idx[cols @ weights]."""

    def __init__(self, r: int):
        rows_list = gl_rows_cached(r)
        self.gl = maps = point_maps(rows_list, r).astype(np.int16)
        # 2-power order in GL(r,2) is equivalent to (M + I)^r = 0
        nil = maps ^ np.arange(1 << r, dtype=np.int16)
        power = nil
        for _ in range(r - 1):
            power = np.take_along_axis(nil, power.astype(np.intp), axis=1)
        keep = np.flatnonzero(~power.any(axis=1))
        self.uni = [BitMatrix(r, r, rows_list[k]) for k in keep]
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


def check_census_r(r: int) -> None:
    """The one gate of the census range: ValueError for every r outside {3, 4}.
    The tables, the groups reader and the tau catalog readers all pass it."""
    if r not in (ENUM_MIN_R, ENUM_MAX_R):
        raise ValueError(f"the census supports r in {{{ENUM_MIN_R}, {ENUM_MAX_R}}}, got {r}")


@functools.cache
def _tables(r: int) -> _Tables:
    check_census_r(r)
    return _Tables(r)


def _enumerate_regular_idx(r: int, budget_seconds: float | None):
    """Yield assignments point -> unipotent index, in deterministic DFS order.

    Depth-first over the smallest unassigned point, with matrix candidates
    in enumeration order.  The points chosen on the path generate the
    node's subgroup, so each node is closed under them alone: every
    assigned element times every generator, assigning the products it
    reaches and backtracking on the first violation.  The budget starts
    before the tables are read, so a fresh process counts their build; it
    is checked before each assignment is yielded, so BudgetExceeded means a
    group is still missing, never that only dead ends were left to search.
    None and inf never run out, and NaN, which no clock passes, is refused.
    """
    if budget_seconds is not None and math.isnan(budget_seconds):
        raise ValueError("budget_seconds must be a number of seconds, got nan")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
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
        assigned = np.array(mats) >= 0
        # right products g_a g_b land in the coset g_a H, disjoint from H:
        # any candidate whose product translation hits an assigned point dies
        alive = np.flatnonzero(~assigned[a ^ app_np[:, assigned]].any(axis=1))
        gens = gens + [a]
        for k in alive:
            child = mats.copy()
            child[a] = int(k)
            if close(child, gens) is not None:
                yield from dfs(child, gens)

    start = [-1] * n
    start[0] = 0  # the identity
    yield from dfs(start, [])


def enumerate_regular_subgroups(r: int, budget_seconds: float | None = None):
    """Yield every regular subgroup of GA(r,2) exactly once.

    Deterministic order.  An r outside {3, 4} is a ValueError (`_tables`);
    a spent time budget raises BudgetExceeded mid-stream, after groups
    that are all valid: the stream is just incomplete.
    """
    for mats_idx in _enumerate_regular_idx(r, budget_seconds):
        uni = _tables(r).uni  # built by the walk, inside its budget
        yield RegularSubgroup(r=r, mats=tuple(uni[k] for k in mats_idx))


# ---------------------------------------------------------------------------
# Automorphisms and induced permutations
# ---------------------------------------------------------------------------


def _mult_table(maps: np.ndarray) -> np.ndarray:
    """Labels of g_a g_b = g_{a + M_a b}, from the (n, n) point maps b -> M_a b."""
    return np.arange(len(maps))[:, None] ^ maps


def _label_orders(mul: list[list[int]]) -> list[int]:
    """Each label's order in the group, the least k with a^k = 0."""
    orders = [1] * len(mul)
    for a in range(1, len(mul)):
        x = a
        while x:
            x = mul[x][a]
            orders[a] += 1
    return orders


def _levels(mul: list[list[int]]):
    """The generators of the automorphism search, one level each, with the
    Cayley edges x h = y that each level adds.

    gens[i] is the least label outside <Phi, gens[:i]>, where Phi is the
    subgroup the squares mul[x][x] generate.  In a 2-group Phi is the
    Frattini subgroup, so by Burnside's basis theorem gens is a minimal
    generating set, of log2(n / |Phi|) labels, and the last level is the
    first whose H_i = <gens[:i+1]> holds all n labels.

    Yields (gens[i], tree, cross, new).  `tree` holds three parallel lists
    x, h, y per layer, of the edges whose y the walk reaches first; its
    first layer is H_{i-1} gens[i], the coset of labels new to H_i, and
    each later one the right products of the last layer's labels by
    gens[:i+1].  `cross` holds the products whose y was reached before,
    and `new` the new labels in the order the walk reached them.  With the
    edges of H_{i-1} by gens[:i], which the levels before walked, these are
    all edges of H_i by gens[:i+1]."""
    n = len(mul)
    squares = {mul[x][x] for x in range(n)}
    phi = [0]
    for x in phi:  # right products by the squares reach the subgroup they generate
        phi += {mul[x][s] for s in squares}.difference(phi)
    gens: list[int] = []
    members, span = [0], set(phi)
    while len(members) < n:
        g = next(a for a in range(n) if a not in span)
        gens.append(g)
        coset = [mul[x][g] for x in members]
        seen = set(members + coset)
        tree, cross, frontier = [(members, [g] * len(members), coset)], ([], [], []), coset
        while frontier:
            layer = ([], [], [])
            for x in frontier:
                for h in gens:
                    y = mul[x][h]
                    edges = cross if y in seen else layer
                    seen.add(y)
                    edges[0].append(x)
                    edges[1].append(h)
                    edges[2].append(y)
            tree.append(layer)
            frontier = layer[2]
        new = [y for _, _, ys in tree for y in ys]
        yield g, tree, cross, new
        members = members + new
        span = {mul[f][x] for f in phi for x in members}


def _automorphism_perms(mul: np.ndarray) -> np.ndarray:
    """All product-preserving label bijections fixing 0, as the rows of a
    (k, n) int8 array of images, in ascending order.

    A level-by-level search over the images of the generators `_levels`
    picks.  At level i every surviving map is repeated once per candidate
    image for gens[i] of the same element order that is not yet an image,
    and extended to H_i along the level's tree edges: each x h = y defines
    img[y] = img[x] img[h].  A row survives when every cross edge maps to
    img[x] img[h] too and no new label maps to 0.  With the edges and
    labels the levels before checked, and img[0] = 0, that makes it an
    injective homomorphism on H_i, and the last level is Aut(G).

    The rows are put in ascending order by one lexsort; that is the order
    in which a depth-first search over ascending images of each label in
    turn emits them.  aut_ids in the tau catalog are row positions.
    """
    n, rows = len(mul), mul.tolist()  # the Python walks read lists
    orders = np.array(_label_orders(rows))
    table = mul.astype(np.int8).ravel()  # x y at x n + y
    img = np.zeros((1, n), dtype=np.int8)
    reached = [0]
    for g, tree, (cx, ch, cy), new in _levels(rows):
        cands = np.flatnonzero(orders == orders[g])
        parent, pick = np.nonzero((img[:, reached, None] != cands).all(axis=1))
        img = img[parent]
        img[:, g] = cands[pick]
        for xs, hs, ys in tree:
            if ys:
                img[:, ys] = table[img[:, xs].astype(np.intp) * n + img[:, hs]]
        keep = (img[:, new] != 0).all(axis=1)
        if cy:
            keep &= (img[:, cy] == table[img[:, cx].astype(np.intp) * n + img[:, ch]]).all(axis=1)
        img = img[keep]
        reached += new
    return img[np.lexsort(img.T[::-1])]


def automorphisms(group: RegularSubgroup) -> list[GroupAutomorphism]:
    """All automorphisms of the group, as label permutations.  Above order 16
    the search raises BudgetExceeded, and a table that is no group InconsistentInput."""
    if group.r > ENUM_MAX_R:
        raise BudgetExceeded(f"automorphism search supports order <= {1 << ENUM_MAX_R}")
    return [
        GroupAutomorphism(perm=PointPerm(group.r, tuple(images)))
        for images in _automorphism_perms(_group_table(group)).tolist()
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


def _carried_codes(auts: np.ndarray, klass: dict[bytes, np.ndarray]) -> dict[bytes, np.ndarray]:
    """Aut(M G M^-1) for every conjugate in `klass` (key -> sigma_M), from
    the searched int8 rows `auts` of G, as sorted `pack_rows` codes: the
    conjugate induces sigma_M tau sigma_M^-1 for each tau of G, and codes
    order like rows, so code order is the order its own search
    (`_automorphism_perms`) sorts its rows into.  The whole class is carried
    in one `conjugate_rows` batch, G itself under the identity."""
    codes = pack_rows(conjugate_rows(auts, np.array(list(klass.values())))).T.copy()
    codes.sort(axis=1)  # each conjugate's codes, in its own search's order
    return dict(zip(klass, codes))


def _census_codes(r: int, budget_seconds: float | None):
    """Yield Aut(G) of every regular subgroup G of GA(r,2), in enumeration
    order, as the ascending `pack_rows` codes of its rows; each row is an
    induced tau.

    One search per GL(r,2)-conjugacy class: the first group of a class
    that the enumeration meets is searched, its class is computed at once
    as the group's image under every GL(r,2) point map
    (`_conjugacy_class`), and the searched rows are carried by conjugation
    to every member, the searched group included, in one batch
    (`_carried_codes`).  Each member is handed its codes when the
    enumeration meets it, so each equals the member's own search, packed.
    At r=3 the 232 groups form 8 classes, at r=4 the 62,896 form 39.

    Raises BudgetExceeded mid-stream once the time budget runs out: the
    enumeration checks the deadline before it hands over each group, so
    the groups yielded before are whole and are the first ones in order.
    An enumeration that ends before meeting every conjugate of the groups
    it met has missed a group: InconsistentInput."""
    # key -> the codes of a conjugate not met yet; the enumeration meets
    # each group once, so its entry is popped then
    pending: dict[bytes, np.ndarray] = {}
    for mats_idx in _enumerate_regular_idx(r, budget_seconds):
        mats = np.array(mats_idx, dtype=np.int16)
        key = mats.tobytes()
        codes = pending.pop(key, None)
        if codes is None:
            tab = _tables(r)  # built by the walk, inside its budget
            auts = _automorphism_perms(_mult_table(tab.app[mats]))
            pending.update(_carried_codes(auts, _conjugacy_class(tab, mats)))
            codes = pending.pop(key)
        yield codes
    if pending:
        raise InconsistentInput(f"the enumeration missed {len(pending)} of the conjugates of the groups it yielded")


def induced_tau(group: RegularSubgroup, aut: GroupAutomorphism) -> PointPerm:
    """The point permutation tau with T(g_a) = g_{tau(a)}; tagged induced.  A
    map of another r raises DimensionMismatch, a non-group InconsistentInput,
    a map breaking a product NotAnAutomorphism at its row-major first (a, b)."""
    if aut.perm.r != group.r:
        raise DimensionMismatch(f"an automorphism of r = {aut.perm.r} on a group of r = {group.r}")
    mul, img = _group_table(group), np.array(aut.perm.images)
    bad = np.argwhere(img[mul] != mul[np.ix_(img, img)])  # row-major
    if len(bad):
        raise NotAnAutomorphism(f"map breaks the product at ({bad[0][0]}, {bad[0][1]})")
    return PointPerm(group.r, aut.perm.images, induced=True)


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

    The pairs come from `_census_codes`, which searches once per conjugacy
    class and hands each group its automorphisms as `pack_rows` codes, in
    the group's own search order, so an aut_id is a row position in that
    order.  The codes themselves are deduplicated, by exact permutation
    equality, keeping the first (group, automorphism) pair in enumeration
    order as provenance; the images are unpacked from the kept codes.  On
    budget exhaustion the partial catalog is returned with complete=False:
    the pairs of the first k groups, all of them.
    """
    codes = []
    complete = True
    try:
        for group_codes in _census_codes(r, budget_seconds):
            codes.append(group_codes)
    except BudgetExceeded:
        complete = False

    starts = np.cumsum([0] + [len(c) for c in codes[:-1]])
    codes = np.concatenate([np.zeros(0, dtype=np.uint64), *codes])
    _, first = np.unique(codes, return_index=True)
    first.sort()  # first-seen order over the deduplicated set
    gids = np.searchsorted(starts, first, "right") - 1
    return TauCatalog(r, unpack_codes(codes[first], 1 << r), gids, first - starts[gids], complete)
