"""Low-level GF(2) helpers on bit-packed integers.

Vectors are Python ints; bit j of the int is coordinate j.  All routines
are pure and allocation-light; the double-coset search lives in `algebra`.
`pack_words` and `packed_rank` hold many words at once as rows of uint64
limbs, for the brute-force oracles over thousands of code words.
"""

from __future__ import annotations

import numpy as np


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def weight(x: int) -> int:
    return bin(x).count("1")


def reduce_vec(pivots, v: int) -> int:
    """v reduced by (pivot, row) pairs whose pivot bit is set in no later row."""
    for p, pv in pivots:
        if (v >> p) & 1:
            v ^= pv
    return v


def mul_rows(a_rows, b_rows) -> tuple[int, ...]:
    """Rows of the GF(2) product A B, both given as bit-packed rows."""
    out = []
    for ra in a_rows:
        acc = 0
        x, j = ra, 0
        while x:
            if x & 1:
                acc ^= b_rows[j]
            x >>= 1
            j += 1
        out.append(acc)
    return tuple(out)


def transpose(rows, width: int) -> tuple[int, ...]:
    """The bit-packed rows of the transpose of a matrix with bit-packed
    rows `width` columns wide: bit i of row j is bit j of rows[i]."""
    return tuple(sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(width))


def span_dim(vecs) -> int:
    """Dimension of the GF(2) span of an iterable of bit-packed vectors."""
    pivots: list[tuple[int, int]] = []
    for v in vecs:
        cur = reduce_vec(pivots, int(v))
        if cur:
            pivots.append((cur.bit_length() - 1, cur))
    return len(pivots)


def pack_words(words, length: int) -> np.ndarray:
    """A sequence of words, Python ints that fit in `length` bits, as an
    (N, ceil(length / 64)) array of uint64 limbs: bit j of limb i is
    coordinate 64 i + j.  A word too long for the limbs raises
    OverflowError."""
    words = np.array(words, dtype=object)
    packed = np.empty((words.size, (length + 63) >> 6), dtype=np.uint64)
    for i in range(packed.shape[1] - 1):
        packed[:, i] = words & 0xFFFF_FFFF_FFFF_FFFF
        words = words >> 64
    if packed.shape[1]:
        packed[:, -1] = words
    return packed


def packed_rank(rows: np.ndarray) -> int:
    """Dimension of the GF(2) span of the rows of a `pack_words` array.

    An elimination over all rows at once, top bit first: the highest bit
    set in any row is a pivot, and the first row holding it is XORed into
    every row that holds it, itself included, which clears that bit from
    all of them.  The caller's array is left as it was.
    """
    rows = rows.copy()
    rank = 0
    for limb in range(rows.shape[1] - 1, -1, -1):
        column = rows[:, limb]
        while top := int(np.bitwise_or.reduce(column)):
            hit = np.flatnonzero((column >> np.uint64(top.bit_length() - 1)) & np.uint64(1))
            rows[hit] ^= rows[hit[0]]
            rank += 1
    return rank


def span_basis(vecs) -> list[int]:
    """A row-reduced basis of the span (pivot rows, reduced against each other)."""
    piv: dict[int, int] = {}
    for v in vecs:
        cur = reduce_vec(piv.items(), int(v))
        if cur:
            c = cur.bit_length() - 1
            for c2 in list(piv):
                if (piv[c2] >> c) & 1:
                    piv[c2] ^= cur
            piv[c] = cur
    return [piv[c] for c in sorted(piv)]


def nullspace_basis(rows, ncols: int) -> list[int]:
    """Basis of {x in F^ncols : parity(row & x) = 0 for every row}.

    Rows are bit-packed vectors of length `ncols`.  The reduced basis of
    `span_basis` has one row per pivot column; free columns parameterize
    the kernel.
    """
    piv = {row.bit_length() - 1: row for row in span_basis(rows)}
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        x = 1 << f
        for c, row in piv.items():
            if (row >> f) & 1:
                x |= 1 << c
        basis.append(x)
    return basis


def span_words(basis) -> list[int]:
    """All 2^k words spanned by a basis (k must stay small)."""
    words = [0]
    for b in basis:
        words += [w ^ int(b) for w in words]
    return words
