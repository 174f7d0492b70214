"""The vectorized GL(r,2) / GA(r,2) sweep, kept as the differential oracle
for the double-coset search of `perfcode.algebra` (r <= 4).

It forms the point map left o sigma_{a,A} o right for every A of GL(r,2),
in enumeration order (and every translation a, A-major, for GA), and marks
the linear ones (for GA: linear after removing the translation cand[:, 0]).
No pruning, no search order: every candidate is checked at every point.
"""

from __future__ import annotations

import numpy as np

from perfcode.algebra import AffineTransform, BitMatrix, PointPerm, gl_rows_cached, invert_perm

_SIGMA: dict[int, np.ndarray] = {}


def sigma_table(r: int) -> np.ndarray:
    """(|GL|, 2^r) int8 table of the sigma_M images, in enumeration order."""
    if r not in _SIGMA:
        rows = np.array(gl_rows_cached(r), dtype=np.int64)
        brange = np.arange(1 << r, dtype=np.int64)
        tab = np.zeros((len(rows), 1 << r), dtype=np.int8)
        for i in range(r):
            tab |= ((np.bitwise_count(rows[:, i : i + 1] & brange) & 1) << i).astype(np.int8)
        _SIGMA[r] = tab
    return _SIGMA[r]


def linear_mask(maps: np.ndarray, r: int) -> np.ndarray:
    """Row mask of point maps (N, 2^r) that are linear (additive, fix 0)."""
    brange = np.arange(1 << r)
    basis = maps[:, [1 << j for j in range(r)]]
    pred = np.zeros_like(maps)
    for j in range(r):
        pred[:, np.flatnonzero((brange >> j) & 1)] ^= basis[:, j : j + 1]
    return (maps == pred).all(axis=1) & (maps[:, 0] == 0)


def matrix_of(images, r: int) -> BitMatrix:
    """The matrix whose columns are the images of the standard basis."""
    return BitMatrix(
        r, r, tuple(sum(((int(images[1 << j]) >> i) & 1) << j for j in range(r)) for i in range(r))
    )


def sweep(left: PointPerm, right: PointPerm, affine: bool = False):
    """(cand, mask): all candidate point maps and the linear (affine) ones."""
    r = left.r
    n = 1 << r
    base = sigma_table(r)[:, np.array(right.images)]
    left_a = np.array(left.images, dtype=np.int8)
    if not affine:
        cand = left_a[base]
        return cand, linear_mask(cand, r)
    cand = left_a[base[:, None, :] ^ np.arange(n, dtype=np.int8)[:, None]].reshape(-1, n)
    return cand, linear_mask(cand ^ cand[:, :1], r)


def sweep_count(left: PointPerm, right: PointPerm) -> int:
    """#{A in GL(r,2) : left o sigma_A o right is linear}."""
    return int(sweep(left, right)[1].sum())


def sweep_member(tau_p: PointPerm, tau: PointPerm, group: str = "GL"):
    """The first witness in enumeration order that tau' lies in GL tau GL
    (or GA tau GA), in the form double_coset_member returns, or None."""
    r = tau.r
    affine = group == "GA"
    cand, mask = sweep(tau_p, invert_perm(tau), affine)
    hits = np.flatnonzero(mask)
    if len(hits) == 0:
        return None
    idx = int(hits[0])
    if not affine:
        return BitMatrix(r, r, gl_rows_cached(r)[idx]), matrix_of(cand[idx], r)
    k, a = divmod(idx, 1 << r)
    t0 = int(cand[idx, 0])
    return (
        AffineTransform(a, BitMatrix(r, r, gl_rows_cached(r)[k])),
        AffineTransform(t0, matrix_of(cand[idx] ^ t0, r)),
    )
