"""Low-level GF(2) helpers on bit-packed integers.

Vectors are Python ints; bit j of the int is coordinate j.  All routines
are pure and allocation-light; the double-coset search lives in `algebra`.
"""

from __future__ import annotations


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
