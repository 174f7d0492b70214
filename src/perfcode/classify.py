"""The classification pipeline: per-permutation invariants, isomorphism
classes via double-coset tests inside invariant buckets, transitivity
reports, and the composed series of neighbor transitive codes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import (
    SEARCH_MAX_R,
    BitMatrix,
    PointPerm,
    compose,
    conjugate_rows,
    double_coset_member,  # not called here: perfbench/tracing.py hooks this name
    gl_generators,
    inverse_rows,
    invert_perm,
    pack_rows,
    point_maps,
    sigma_m,
    spectra_bytes,
    spectrum_keys,
)
# perm_kernel_dim is not called here: perfbench/tracing.py hooks this name
from .codes import base_dim, kernel_dims, perm_kernel_dim, perm_rank
from .constructions import tau_product
from .errors import BudgetExceeded, ExcludedLength, InconsistentInput, MixedDimensions
from .regular_groups import TauCatalog
from .sqs import aut_order, aut_order_and_transitivity, point_transitive, sqs_isomorphic

SERIES_MAX_R = 12


@dataclass(frozen=True)
class CatalogEntry:
    """One classified permutation.  Its fields, in order and with their types,
    are the columns of the classification JSON and CSV."""

    tau_id: str
    r: int
    rank: int
    kernel_dim: int
    intersection_dim: int
    point_transitive: bool
    aut_order: int | None
    class_id: int
    non_mollard: bool
    provenance: str


@dataclass(frozen=True)
class TransitivityReport:
    """Transitivity status of S_tau.

    `transitive` is "verified-by-theorem" only for permutations tagged as
    induced by a regular-subgroup automorphism (propelinearity is a
    theorem for those); anything else is "unverified" and neighbor
    transitivity is then not claimed, even when coordinate transitive.
    """

    coordinate_transitive: bool
    transitive: str
    neighbor_transitive: bool


def tau_id_string(tau: PointPerm) -> str:
    return _tau_ids(tau.r, np.array([tau.images]))[0]


def _tau_ids(r: int, rows: np.ndarray) -> list[str]:
    """The id of each row of an (N, 2^r) image array: one hex digit per image
    for r <= 4, in one pass over the array, and dotted decimals beyond."""
    if r > 4:
        return [f"r{r}-" + ".".join(map(str, row)) for row in rows.tolist()]
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)[rows]
    return np.char.add(f"r{r}-".encode(), digits.view(f"S{rows.shape[1]}").ravel()).astype(str).tolist()


class Classification(Sequence):
    """Classified permutations as columns, with entries built on demand: the
    lexsorted int8 `rows` (row p is input row order[p]), their class ids and
    induced flags, each class's (rank, kernel, intersection, aut_order,
    transitive), and the rows' provenance `source`: the input's (group_ids,
    aut_ids), written "g<group>:a<aut>", or one string for every row."""

    def __init__(self, r: int, rows, order, class_ids, classes: list[tuple], induced, source):
        self.r, self.rows, self.order, self.class_ids = r, rows, order, class_ids
        self.classes, self.induced, self.source = classes, induced, source
        # the columns between tau_id and provenance, at 2 * class id + induced flag
        self.middles = [(r, rank, kern, inter, trans, aut, cid, flag and kern == base_dim(r))
                        for cid, (rank, kern, inter, aut, trans) in enumerate(classes) for flag in (False, True)]

    def columns(self, rows=slice(None)) -> tuple[list[str], list[tuple], list[int], list[str]]:
        """(tau ids, `middles`, each row's index into them, provenances) of
        the rows, a slice or a list of positions."""
        keys = (2 * self.class_ids[rows] + self.induced[rows]).tolist()
        if isinstance(self.source, str):
            provenance = [self.source] * len(keys)
        else:
            picked = self.order[rows]
            provenance = ["g%d:a%d" % ids for ids in zip(*(col[picked].tolist() for col in self.source))]
        return _tau_ids(self.r, self.rows[rows]), self.middles, keys, provenance

    def _entries(self, rows):
        tau_ids, middles, keys, provenance = self.columns(rows)
        return (CatalogEntry(t, *middles[k], p) for t, k, p in zip(tau_ids, keys, provenance))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self._entries(i))
        return next(self._entries([range(len(self))[i]]))

    def __iter__(self):
        return self._entries(slice(None))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def perm_intersection_dim(tau: PointPerm) -> int:
    """dim(tau(H) ∩ H), read off the rank of S_tau; invariant under GL on both sides.

    For zero-fixing tau the parity rows of H and tau(H) are the functions
    x -> x_i, x -> (tau^-1 x)_i and 1 on F^r.  Re-indexed by x = tau(a), they
    become a -> tau(a)_i, a -> a_i and 1.  The first 2r span the syndrome
    space whose dimension `perm_rank` adds to 2 dim(H); 1 lies outside it,
    as every other function vanishes at 0 = tau(0).  Translations preserve
    H, so any other tau takes the value of x -> tau(x) ^ tau(0)."""
    if shift := tau.images[0]:
        tau = PointPerm(tau.r, tuple(v ^ shift for v in tau.images))
    return _intersection_from_rank(tau.r, perm_rank(tau))


def _intersection_from_rank(r: int, rank: int) -> int:
    """dim(tau(H) ∩ H) = 2 dim(H) + 2^r - 1 - rank(S_tau) for zero-fixing tau."""
    return base_dim(r) + (1 << r) - 1 - rank


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of an (N, 2^r) image array, ordered like the image
    tuples: the uint64 `pack_rows` code at 1 <= r <= 4, and otherwise the
    row's int8 bytes as one void scalar, as images are non-negative."""
    if 2 <= rows.shape[1] <= 16:
        return pack_rows(rows)
    rows = np.ascontiguousarray(rows, dtype=np.int8)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def _edge_images(rows: np.ndarray, r: int):
    """Yield the rows moved by each edge transform: the identity (which
    joins equal rows), conjugation tau -> sigma_M tau sigma_M^-1 by each of
    `gl_generators(r)` (which stays in the GL double coset of tau), and
    inversion.  Every one of them maps a class to itself."""
    yield rows
    for sigma in point_maps([m.row_bits for m in gl_generators(r)], r):
        yield conjugate_rows(rows, sigma)
    yield inverse_rows(rows)


def _orbit_roots(rows: np.ndarray, r: int) -> np.ndarray:
    """The least position in each row's orbit among the lexicographically
    sorted rows of an (N, 2^r) image array, where each transform of
    `_edge_images` joins a row to its image when that image is a row.

    Union-find, one transform at a time: hook every root to the least root
    it has an edge to, then pointer jump until every label is a root, and
    repeat until no edge of the transform is apart.  Merges only join
    components, so the edges of earlier transforms stay inside one."""
    keys = _row_keys(rows)
    label = np.arange(len(rows))
    for moved in _edge_images(rows, r):
        moved_keys = _row_keys(moved)
        dst = np.searchsorted(keys, moved_keys)
        src = np.flatnonzero(dst < len(keys))
        src = src[keys[dst[src]] == moved_keys[src]]
        dst = dst[src]
        while True:
            a, b = label[src], label[dst]
            apart = a != b
            if not apart.any():
                break
            src, dst, a, b = src[apart], dst[apart], a[apart], b[apart]
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label = jumped
    return label


def _classify_arrays(images: np.ndarray, r: int, induced, source) -> Classification:
    """Core classification over an (N, 2^r) image array.

    The rows are split into orbits under GL conjugation and inversion
    (`_orbit_roots`), which never leave a class.  Orbits are processed in
    ascending lexicographic order of their least member, which alone gets
    a rank, spectra and bucket tests, so each class representative is the
    least member of its class and class ids are canonical regardless of
    input order.  A bucket holds the orbits with one rank and one pair
    sorted((S(tau), S(tau^-1))) of `spectrum_keys` multisets; the spectra
    fix the kernel dimension (log2 #{x : c_tau(x) = 2^r}, which a class's
    founder reads off its point keys) and the rank the intersection
    dimension.  An orbit joins the first class of its bucket whose
    representative's system is isomorphic to its own.  The spectra
    come in batches; the keys of each orbit are given to `spectrum_keys`
    once, and its cache holds them for the tests and a new class's
    aut_order search (a representative that has left the cache gets its
    spectra recomputed).  The class columns are computed once, for the
    founder.
    """
    order = np.lexsort(images.T[::-1])
    rows = images[order]
    root = _orbit_roots(rows, r)
    least = np.flatnonzero(root == np.arange(len(rows)))

    buckets: dict[tuple, list] = {}
    class_columns: list[tuple] = []  # (rank, kernel, intersection, aut_order, transitive) per class
    class_of = []  # the class id of each least member
    for start in range(0, len(least), 64):  # the spectra of 64 least members and their inverses at once
        block = rows[least[start : start + 64]]
        inverses = inverse_rows(block)
        keys = spectra_bytes(np.concatenate([block, inverses]))
        for row, inv_row, *own in zip(block.tolist(), inverses.tolist(), keys, keys[len(block) :]):
            perm = PointPerm(r, tuple(row))
            entered = tuple(zip((perm.images, tuple(inv_row)), own))
            rank = perm_rank(perm)
            bucket = buckets.setdefault((rank, tuple(sorted(spectrum_keys(*pair)[1] for pair in entered))), [])
            for cid, rep in bucket:
                if sqs_isomorphic(rep, perm) is not None:
                    found = cid
                    break
            else:
                found, inter = len(class_columns), _intersection_from_rank(r, rank)
                # |L_tau| = #{x : c_tau(x) = 2^r}, the first byte of each point key
                kernel = base_dim(r) + sum(key[0] == 1 << r for key in own[0]).bit_length() - 1
                class_columns.append((rank, kernel, inter, *aut_order_and_transitivity(perm)))
                bucket.append((found, perm))
            class_of.append(found)

    class_ids = np.array(class_of, dtype=np.intp)[np.searchsorted(least, root)]
    return Classification(r, rows, order, class_ids, class_columns, np.asarray(induced, dtype=bool)[order], source)


def classify(taus) -> Sequence[CatalogEntry]:
    """Classify permutations into isomorphism classes of their codes/SQS.

    Entries with equal class_id are pairwise sqs-isomorphic; the output
    order, representatives, and class ids are canonical (sorted by image
    tuple), so shuffled input yields an identical result.  Every entry's
    provenance is "user".
    """
    taus = list(taus)
    if not taus:
        return []
    r = taus[0].r
    if any(t.r != r for t in taus):
        raise MixedDimensions("all permutations must share one r")
    for t in taus:
        t.require_zero_fixing()
    if r > SEARCH_MAX_R:
        raise BudgetExceeded(f"classification supports r <= {SEARCH_MAX_R}")
    images = np.array([t.images for t in taus], dtype=np.int8)
    return _classify_arrays(images, r, [t.induced for t in taus], "user")


def classify_catalog(catalog: TauCatalog, kernel_dim: int | None = None) -> Classification:
    """Classify a tau catalog, optionally filtered to one kernel dimension.

    Stays in array form throughout, so the full r=4 catalog (millions of
    permutations) is classified without materializing permutation objects.
    """
    images, gids, aids = catalog.images, catalog.group_ids, catalog.aut_ids
    if kernel_dim is not None:
        keep = kernel_dims(images) == kernel_dim
        images, gids, aids = images[keep], gids[keep], aids[keep]
    return _classify_arrays(images, catalog.r, np.ones(len(images), dtype=bool), (gids, aids))


def transitivity_report(tau: PointPerm) -> TransitivityReport:
    """Coordinate transitivity is verified by a double-coset witness;
    transitivity only by the induced tag (propelinearity theorem); neighbor = both."""
    coord = point_transitive(tau)[0]
    trans = "verified-by-theorem" if tau.induced else "unverified"
    return TransitivityReport(
        coordinate_transitive=coord,
        transitive=trans,
        neighbor_transitive=coord and trans == "verified-by-theorem",
    )


# ---------------------------------------------------------------------------
# The composed series of neighbor transitive non-Mollard codes
# ---------------------------------------------------------------------------

# The first induced, minimal-kernel, point-transitive tau of each base
# dimension, in enumeration order (tests/test_classify.py re-derives both
# by walking the census, regular_groups._census_codes).
SERIES_BASE_TAUS = {
    3: (0, 6, 2, 5, 4, 3, 1, 7),
    4: (0, 4, 8, 14, 1, 5, 9, 15, 2, 6, 10, 12, 11, 13, 3, 7),
}


def _series_base(r: int):
    """A base permutation of the series and its point-transitivity witness (A, B)."""
    tau = PointPerm(r, SERIES_BASE_TAUS[r], induced=True)
    return tau, point_transitive(tau)[1]


def _block_diag(m1: BitMatrix, m2: BitMatrix) -> BitMatrix:
    r1, r2 = m1.rows, m2.rows
    rows = tuple(m1.row_bits) + tuple(row << r1 for row in m2.row_bits)
    return BitMatrix(r1 + r2, r1 + r2, rows)


def composed_series(r: int):
    """A neighbor transitive non-Mollard extended perfect code of length
    2^{r+1}, as (tau, transitivity report, catalog entry).

    Composes minimal-kernel base permutations of dimensions 3 and 4 into
    r = 3a + 4b; point transitivity of the product is certified by the
    block-diagonal double-coset witness (no search over GL(r,2)).  The kernel
    is minimal: the linear structure set of a product is the product of
    the factors' sets, and a product of trivial sets is trivial.
    Length 64 (r = 5) is excluded.
    """
    if r < 3:
        raise ValueError(f"series needs r >= 3, got {r}")
    if r == 5:
        raise ExcludedLength("length 64 (r = 5) is excluded from the series")
    if r > SERIES_MAX_R:
        raise BudgetExceeded(f"series supports r <= {SERIES_MAX_R}")
    fours = next(b for b in range(r // 4, -1, -1) if (r - 4 * b) % 3 == 0)
    parts = [3] * ((r - 4 * fours) // 3) + [4] * fours

    tau, (wit_a, wit_b) = _series_base(parts[0])
    for part in parts[1:]:
        nxt, (nxt_a, nxt_b) = _series_base(part)
        tau = tau_product(tau, nxt)
        wit_a = _block_diag(wit_a, nxt_a)
        wit_b = _block_diag(wit_b, nxt_b)

    # certify the witness directly: sigma_B o tau o sigma_A^{-1} = tau^{-1}
    if compose(sigma_m(wit_b), tau) != compose(invert_perm(tau), sigma_m(wit_a)):
        raise InconsistentInput("block-diagonal witness failed to verify")

    rank = perm_rank(tau)
    entry = CatalogEntry(
        tau_id=tau_id_string(tau),
        r=r,
        rank=rank,
        kernel_dim=base_dim(r),
        intersection_dim=_intersection_from_rank(r, rank),
        point_transitive=True,
        aut_order=aut_order(tau) if r <= 4 else None,
        class_id=0,
        non_mollard=True,
        provenance="series",
    )
    report = TransitivityReport(
        coordinate_transitive=True,
        transitive="verified-by-theorem",
        neighbor_transitive=True,
    )
    return tau, report, entry
