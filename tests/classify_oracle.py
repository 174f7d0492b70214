"""The per-tau classification, kept as the differential oracle for the
orbit-at-a-time classification of `perfcode.classify`, and a pure-Python
union-find over the moves that form its orbits.

Every row gets its own invariant triple and its own double-coset tests
against the representatives of its invariant bucket, in ascending
lexicographic order of the image tuples; no orbit is formed.  It shares
the rank, the kernel dimension, the double-coset search and `aut_order` /
`point_transitive` with the code it checks, and computes the intersection
dimension by its own GF(2) elimination, where the code it checks reads it
off the rank.
"""

from __future__ import annotations

import numpy as np

from perfcode._bits import span_dim, transpose
from perfcode.algebra import BitMatrix, PointPerm, double_coset_member, identity_matrix, invert_perm
from perfcode.classify import CatalogEntry, tau_id_string
from perfcode.codes import hamming_parity_rows, perm_kernel_dim, perm_rank
from perfcode.sqs import aut_order, point_transitive


def intersection_dim(tau: PointPerm) -> int:
    """dim(tau(H) ∩ H) as 2^r minus the rank of the stacked parity rows of
    H and tau(H)."""
    r = tau.r
    # the all-ones parity row of tau(H) equals that of H; skip the duplicate
    rows = hamming_parity_rows(r) + transpose(invert_perm(tau).images, r)
    return (1 << r) - span_dim(rows)


def orbit_moves(r: int) -> list[BitMatrix | None]:
    """The moves that join rows into orbits: conjugation by the identity and
    by the transvections x_i += x_{i+1} and x_{i+1} += x_i for i < r - 1,
    then inversion, written None."""
    moves = [identity_matrix(r)]
    for i, j in [(i, i + 1) for i in range(r - 1)] + [(i + 1, i) for i in range(r - 1)]:
        rows = list(identity_matrix(r).row_bits)
        rows[i] |= 1 << j
        moves.append(BitMatrix(r, r, tuple(rows)))
    return moves + [None]


def apply_move(perm: PointPerm, move: BitMatrix | None) -> PointPerm:
    """tau^-1 for None, else sigma_M tau sigma_M^-1, which maps M x to M tau(x)."""
    if move is None:
        return invert_perm(perm)
    images = [0] * len(perm.images)
    for x, y in enumerate(perm.images):
        images[move.apply(x)] = move.apply(y)
    return PointPerm(perm.r, tuple(images))


def orbit_roots_oracle(perms) -> list[int]:
    """The least position in each perm's orbit, where every move of
    `orbit_moves` joins a perm to its image when the image is in the list."""
    perms = list(perms)
    if not perms:
        return []
    parent = list(range(len(perms)))

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    position = {}
    for p, perm in enumerate(perms):
        position.setdefault(perm.images, p)
    for move in orbit_moves(perms[0].r):
        for p, perm in enumerate(perms):
            q = position.get(apply_move(perm, move).images)
            if q is not None:
                a, b = find(p), find(q)
                parent[max(a, b)] = min(a, b)
    return [find(p) for p in range(len(perms))]


def _invariant_triple(perm: PointPerm):
    return perm_rank(perm), perm_kernel_dim(perm), intersection_dim(perm)


def classify_oracle(taus) -> list[CatalogEntry]:
    """`perfcode.classify` through the per-tau path."""
    taus = list(taus)
    r = taus[0].r
    images = np.array([t.images for t in taus], dtype=np.int8)
    induced = [t.induced for t in taus]
    return _classify_arrays(images, r, induced)


def _classify_arrays(images: np.ndarray, r: int, induced):
    """Core classification over an (N, 2^r) image array.

    Entries are processed in ascending lexicographic order of the image
    tuples, so each class representative is the least member of its class
    and class ids are canonical regardless of input order.  aut_order and
    point_transitive are computed once per class (both are constant on
    isomorphism classes) and assigned to the members.
    """
    count = len(images)
    order = np.lexsort(images.T[::-1])
    perms = [PointPerm(r, tuple(int(x) for x in images[i])) for i in range(count)]
    invariants = [_invariant_triple(perm) for perm in perms]

    buckets: dict[tuple, list] = {}
    class_reps: list[PointPerm] = []
    class_of = np.empty(count, dtype=np.int64)
    for i in order:
        perm = perms[i]
        key = invariants[i]
        bucket = buckets.setdefault(key, [])
        found = -1
        for cid, rep, rep_inv in bucket:
            if (
                double_coset_member(perm, rep) is not None
                or double_coset_member(perm, rep_inv) is not None
            ):
                found = cid
                break
        if found < 0:
            found = len(class_reps)
            class_reps.append(perm)
            bucket.append((found, perm, invert_perm(perm)))
        class_of[i] = found

    class_aut = [aut_order(rep) for rep in class_reps]
    class_pt = [point_transitive(rep)[0] for rep in class_reps]

    min_kernel = (2 << r) - 2 * r - 2
    entries = []
    for i in order:
        rank_val, kernel_val, inter_val = invariants[i]
        cid = int(class_of[i])
        perm = PointPerm(r, tuple(int(x) for x in images[i]), induced=bool(induced[i]))
        entries.append(
            CatalogEntry(
                tau_id=tau_id_string(perm),
                r=r,
                rank=rank_val,
                kernel_dim=kernel_val,
                intersection_dim=inter_val,
                point_transitive=bool(class_pt[cid]),
                aut_order=class_aut[cid],
                class_id=cid,
                non_mollard=bool(induced[i]) and kernel_val == min_kernel,
                provenance="user",
            )
        )
    return entries

