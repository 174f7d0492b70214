"""GF(2) vectors, matrices, and permutations of the binary space F^r.

Conventions (global for the whole package):

* A point of F^r is an integer in [0, 2^r); bit j of the integer is
  coordinate j+1 of the vector (little-endian).
* A matrix row is a bit-packed integer; bit j of row i is the entry in
  row i+1, column j+1.  M acts on column vectors: (M b)_i = <row_i, b>.
* GL(r,2) is enumerated in ascending lexicographic order of the row
  tuple (row 0 first), i.e. the numeric order of row-major encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ._bits import parity, span_basis, span_dim, weight
from .errors import BudgetExceeded, DimensionMismatch, NotInvertible, ZeroNotFixed

GL_ENUM_MAX_R = 6
SWEEP_MAX_R = 5


@dataclass(frozen=True)
class BitWord:
    """Fixed-length vector over GF(2); addition is XOR."""

    length: int
    value: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value out of range for length {self.length}")

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self.length != other.length:
            raise DimensionMismatch("word lengths differ")
        return BitWord(self.length, self.value ^ other.value)

    __add__ = __xor__

    def __and__(self, other: "BitWord") -> "BitWord":
        if self.length != other.length:
            raise DimensionMismatch("word lengths differ")
        return BitWord(self.length, self.value & other.value)

    @property
    def weight(self) -> int:
        return weight(self.value)

    def bit(self, j: int) -> int:
        return (self.value >> j) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> j) & 1 for j in range(self.length))


@dataclass(frozen=True)
class BitMatrix:
    """Dense GF(2) matrix with bit-packed rows."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.row_bits:
            if not 0 <= row < (1 << self.cols):
                raise ValueError("row value out of range")

    def entry(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1

    def apply(self, b: int) -> int:
        """Matrix-vector product M b on bit-packed vectors."""
        v = 0
        for i, row in enumerate(self.row_bits):
            v |= parity(row & b) << i
        return v

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        return BitMatrix(self.rows, other.cols, _mul_rows(self.row_bits, other.row_bits))

    def transpose(self) -> "BitMatrix":
        cols = tuple(
            sum(((self.row_bits[i] >> j) & 1) << i for i in range(self.rows))
            for j in range(self.cols)
        )
        return BitMatrix(self.cols, self.rows, cols)


def identity_matrix(r: int) -> BitMatrix:
    return BitMatrix(r, r, tuple(1 << i for i in range(r)))


def _mul_rows(a_rows, b_rows) -> tuple[int, ...]:
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


def rank(m: BitMatrix) -> int:
    """GF(2) row rank."""
    return span_dim(m.row_bits)


def invert(m: BitMatrix) -> BitMatrix:
    """Inverse over GF(2); raises NotInvertible for singular input."""
    if m.rows != m.cols:
        raise NotInvertible("matrix is not square")
    n = m.rows
    # reduce [M | I] with M in the high half: row i of the inverse is the
    # low half of the basis row whose pivot is column n + i
    basis = span_basis((row << n) | (1 << i) for i, row in enumerate(m.row_bits))
    if basis and basis[0] >> n == 0:
        raise NotInvertible("matrix is singular over GF(2)")
    return BitMatrix(n, n, tuple(row & ((1 << n) - 1) for row in basis))


def gl_order(r: int) -> int:
    """|GL(r,2)| = prod_{i<r} (2^r - 2^i)."""
    out = 1
    for i in range(r):
        out *= (1 << r) - (1 << i)
    return out


def _gl_rows(r: int):
    """Yield every invertible r x r matrix as a row tuple, in enumeration order.

    Rows are chosen in ascending order, each outside the span of the
    previous ones, so no singular row tuple is ever formed.
    """
    n = 1 << r

    def extend(rows, basis):
        if len(rows) == r:
            yield tuple(rows)
            return
        for cand in range(1, n):
            red = cand
            for p, pv in basis:
                if (red >> p) & 1:
                    red ^= pv
            if red:
                yield from extend(rows + [cand], basis + [(red.bit_length() - 1, red)])

    yield from extend([], [])


_GL_CACHE: dict[int, list] = {}


def gl_rows_cached(r: int) -> list:
    if r not in _GL_CACHE:
        _GL_CACHE[r] = list(_gl_rows(r))
    return _GL_CACHE[r]


def gl_enumerate(r: int):
    """Yield every matrix of GL(r,2) exactly once, in enumeration order."""
    if not 1 <= r <= GL_ENUM_MAX_R:
        raise BudgetExceeded(f"gl_enumerate supports 1 <= r <= {GL_ENUM_MAX_R}, got {r}")
    # r in {5, 6} is too large to cache; the stream is rebuilt on every call
    for rows in gl_rows_cached(r) if r <= 4 else _gl_rows(r):
        yield BitMatrix(r, r, rows)


@dataclass(frozen=True)
class PointPerm:
    """Permutation of the 2^r points of F^r.

    `images[i]` is the image of point i.  The `induced` flag marks
    permutations produced by an automorphism of a regular subgroup of
    GA(r,2); it is provenance, not part of equality.
    """

    r: int
    images: tuple[int, ...]
    induced: bool = field(default=False, compare=False)

    def __post_init__(self):
        n = 1 << self.r
        if len(self.images) != n or sorted(self.images) != list(range(n)):
            raise ValueError(f"images is not a permutation of [0, {n})")

    def __call__(self, p: int) -> int:
        return self.images[p]

    @property
    def zero_fixing(self) -> bool:
        return self.images[0] == 0

    def require_zero_fixing(self):
        if not self.zero_fixing:
            raise ZeroNotFixed("permutation does not fix 0")


def identity_perm(r: int) -> PointPerm:
    return PointPerm(r, tuple(range(1 << r)))


def sigma_m(m: BitMatrix) -> PointPerm:
    """The linear point permutation b -> M b."""
    r = m.rows
    return PointPerm(r, tuple(m.apply(b) for b in range(1 << r)))


def sigma_am(a: int, m: BitMatrix) -> PointPerm:
    """The affine point permutation b -> a + M b."""
    r = m.rows
    return PointPerm(r, tuple(a ^ m.apply(b) for b in range(1 << r)))


def compose(tau: PointPerm, tau2: PointPerm) -> PointPerm:
    """(tau o tau2)(a) = tau(tau2(a))."""
    if tau.r != tau2.r:
        raise DimensionMismatch("permutations live over different dimensions")
    return PointPerm(tau.r, tuple(tau.images[x] for x in tau2.images))

def invert_perm(tau: PointPerm) -> PointPerm:
    out = [0] * len(tau.images)
    for i, v in enumerate(tau.images):
        out[v] = i
    return PointPerm(tau.r, tuple(out), induced=tau.induced)


def is_linear(tau: PointPerm) -> BitMatrix | None:
    """The matrix M with tau = sigma_M, or None if tau is not linear.

    M is read off the images of the standard basis and then verified on
    all 2^r points; a basis-only check would accept non-additive maps.
    """
    tau.require_zero_fixing()
    m = _matrix_from_map(tau.images, tau.r)
    if all(m.apply(b) == img for b, img in enumerate(tau.images)):
        return m
    return None


@dataclass(frozen=True)
class AffineTransform:
    """(a, M) acting as b -> a + M b."""

    a: int
    m: BitMatrix

    def apply(self, b: int) -> int:
        return self.a ^ self.m.apply(b)

    def compose(self, other: "AffineTransform") -> "AffineTransform":
        # (a, M)(b, N) maps x to a + M(b + N x)
        return AffineTransform(self.a ^ self.m.apply(other.a), self.m @ other.m)

    def as_perm(self) -> PointPerm:
        return sigma_am(self.a, self.m)


# ---------------------------------------------------------------------------
# Vectorized sweeps over GL(r,2) / GA(r,2)
# ---------------------------------------------------------------------------

SWEEP_CHUNK = 1 << 12
_SIGMA_CACHE: dict[int, np.ndarray] = {}


def _sigma_rows(rows, r: int) -> np.ndarray:
    """(len(rows), 2^r) int8 table of the sigma_M images of row tuples."""
    rows = np.array(rows, dtype=np.int64)
    brange = np.arange(1 << r, dtype=np.int64)
    tab = np.zeros((len(rows), 1 << r), dtype=np.int8)
    for i in range(r):
        tab |= ((np.bitwise_count(rows[:, i : i + 1] & brange[None, :]) & 1) << i).astype(
            np.int8
        )
    return tab


def _sigma_table(r: int) -> np.ndarray:
    """(|GL|, 2^r) table of sigma_M images in enumeration order; r <= 4."""
    if r not in _SIGMA_CACHE:
        _SIGMA_CACHE[r] = _sigma_rows(gl_rows_cached(r), r)
    return _SIGMA_CACHE[r]


def _linear_mask(maps: np.ndarray, r: int) -> np.ndarray:
    """Row mask of point maps (N, 2^r) that are linear (additive, fix 0)."""
    brange = np.arange(1 << r)
    basis = maps[:, [1 << j for j in range(r)]]
    pred = np.zeros_like(maps)
    for j in range(r):
        idx = np.flatnonzero((brange >> j) & 1)
        pred[:, idx] ^= basis[:, j : j + 1]
    return (maps == pred).all(axis=1) & (maps[:, 0] == 0)


def _matrix_from_map(images, r: int) -> BitMatrix:
    rows = tuple(
        sum(((int(images[1 << j]) >> i) & 1) << j for j in range(r)) for i in range(r)
    )
    return BitMatrix(r, r, rows)


def _sweep(left: PointPerm, right: PointPerm, affine: bool = False):
    """The sweep for "A with left o sigma_A o right linear", in blocks.

    Yields (rows, cand, mask) in enumeration order: `rows` are the GL row
    tuples of the block, `cand` the point maps left o sigma_A o right (for
    affine=True, left o sigma_{a,A} o right with rows A-major, then a) and
    `mask` marks the linear ones (affine: linear up to the translation
    cand[:, 0]).  r <= 4 sweeps the cached table in one block; r = 5
    streams GL(5,2) in chunks of SWEEP_CHUNK matrices.
    """
    r = left.r
    n = 1 << r
    left_a = np.array(left.images, dtype=np.int8)
    right_a = np.array(right.images, dtype=np.int64)
    if r <= 4:
        blocks = [(gl_rows_cached(r), _sigma_table(r))]
    else:
        stream = _gl_rows(r)
        chunks = iter(lambda: list(islice(stream, SWEEP_CHUNK)), [])
        blocks = ((rows, _sigma_rows(rows, r)) for rows in chunks)
    for rows, sig in blocks:
        base = sig[:, right_a]
        if affine:
            cand = left_a[base[:, None, :] ^ np.arange(n, dtype=np.int8)[:, None]].reshape(-1, n)
            yield rows, cand, _linear_mask(cand ^ cand[:, :1], r)
        else:
            cand = left_a[base]
            yield rows, cand, _linear_mask(cand, r)


def count_linear_products(left: PointPerm, right: PointPerm) -> int:
    """#{A in GL(r,2) : left o sigma_A o right is linear}."""
    if left.r != right.r:
        raise DimensionMismatch("permutations live over different dimensions")
    if left.r > SWEEP_MAX_R:
        raise BudgetExceeded(f"GL sweep supports r <= {SWEEP_MAX_R}, got {left.r}")
    return sum(int(mask.sum()) for _, _, mask in _sweep(left, right))


def double_coset_member(tau_p: PointPerm, tau: PointPerm, group: str = "GL"):
    """Witness that tau' lies in the double coset of tau under GL or GA.

    For group="GL": returns (A, B) in GL x GL with tau' = sigma_B o tau o
    sigma_A^{-1}, or None.  Sweeps A in enumeration order and accepts the
    first A for which the derived map B := tau' o sigma_A o tau^{-1} is
    linear at all 2^r points.

    For group="GA": same sweep over affine (a, A); the derived map must
    be affine (translation part read off at 0); returns a pair of
    AffineTransform witnesses or None.  Zero-fixing is not required of
    the inputs in the GA variant.
    """
    if tau_p.r != tau.r:
        raise DimensionMismatch("permutations live over different dimensions")
    r = tau.r
    if r > SWEEP_MAX_R:
        raise BudgetExceeded(f"double_coset_member supports r <= {SWEEP_MAX_R}, got {r}")
    if group == "GL":
        tau_p.require_zero_fixing()
        tau.require_zero_fixing()
    elif group != "GA":
        raise ValueError(f"unknown group {group!r}")
    affine = group == "GA"
    for rows, cand, mask in _sweep(tau_p, invert_perm(tau), affine):
        hits = np.flatnonzero(mask)
        if len(hits) == 0:
            continue
        idx = int(hits[0])
        if not affine:
            return BitMatrix(r, r, rows[idx]), _matrix_from_map(cand[idx], r)
        k, a = divmod(idx, 1 << r)
        t0 = int(cand[idx, 0])
        return (
            AffineTransform(a, BitMatrix(r, r, rows[k])),
            AffineTransform(t0, _matrix_from_map(cand[idx] ^ t0, r)),
        )
    return None
