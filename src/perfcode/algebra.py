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

import functools
from dataclasses import dataclass, field

import numpy as np

from ._bits import mul_rows, parity, reduce_vec, span_basis, span_dim, transpose, weight
from .errors import BudgetExceeded, DimensionMismatch, NotInvertible, ZeroNotFixed

GL_ENUM_MAX_R = 6
SEARCH_MAX_R = 5
TABLE_MAX_R = 12  # a 4^r additivity table: about 300 MB at r = 12


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
        return BitMatrix(self.rows, other.cols, mul_rows(self.row_bits, other.row_bits))

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, transpose(self.row_bits, self.cols))


def identity_matrix(r: int) -> BitMatrix:
    return BitMatrix(r, r, tuple(1 << i for i in range(r)))


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
            red = reduce_vec(basis, cand)
            if red:
                yield from extend(rows + [cand], basis + [(red.bit_length() - 1, red)])

    yield from extend([], [])


@functools.cache
def gl_rows_cached(r: int) -> tuple:
    return tuple(_gl_rows(r))


def gl_enumerate(r: int):
    """Yield every matrix of GL(r,2) exactly once, in enumeration order."""
    if not 1 <= r <= GL_ENUM_MAX_R:
        raise BudgetExceeded(f"gl_enumerate supports 1 <= r <= {GL_ENUM_MAX_R}, got {r}")
    # r in {5, 6} is too large to cache; the stream is rebuilt on every call
    for rows in gl_rows_cached(r) if r <= 4 else _gl_rows(r):
        yield BitMatrix(r, r, rows)


def gl_generators(r: int) -> tuple[BitMatrix, ...]:
    """The transvections x_i += x_{i+1} and x_{i+1} += x_i for i < r - 1,
    which generate GL(r,2); each is an involution.

    More generators than the two GL(r,2) needs: an input that is not
    closed under conjugation (a catalog prefix) splits into fewer
    components when more conjugates are one step away."""

    def transvection(i: int, j: int) -> BitMatrix:
        return BitMatrix(r, r, tuple(1 << k | (1 << j if k == i else 0) for k in range(r)))

    return tuple(transvection(i, i + 1) for i in range(r - 1)) + tuple(
        transvection(i + 1, i) for i in range(r - 1)
    )


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


def inverse_rows(rows: np.ndarray) -> np.ndarray:
    """The inverse permutation of each row of an (..., n) image array, in its
    dtype: the order that sorts the row, as its images are distinct."""
    return np.argsort(rows, axis=-1).astype(rows.dtype, copy=False)


def conjugate_rows(rows: np.ndarray, sigma) -> np.ndarray:
    """sigma o tau o sigma^-1 for every row tau of an (..., n) image array and
    every point map sigma, one (n,) row or a stack (..., n) of them: an array
    of shape rows.shape[:-1] + sigma.shape, in the dtype of `rows`.  A gather:
    (sigma tau sigma^-1)(x) = sigma(tau(sigma^-1 x))."""
    sigma = np.asarray(sigma, dtype=rows.dtype)
    inner = np.take(rows, inverse_rows(sigma), axis=-1)  # C-contiguous, where rows[..., inv] is not
    if sigma.ndim == 1:
        return sigma[inner]
    return np.take_along_axis(sigma[(None,) * (rows.ndim - 1)], inner, axis=-1)


def _differences(f) -> np.ndarray:
    """[..., x, y] = f(x ^ y) ^ f(y), for one row of images f or an
    (N, 2^r) batch of rows: the one n x n gather behind `additivity_table`
    and `point_spectra`."""
    if f.shape[-1] > 1 << TABLE_MAX_R:
        raise BudgetExceeded(f"additivity tables support r <= {TABLE_MAX_R}")
    pts = np.arange(f.shape[-1])
    return f[..., pts[:, None] ^ pts] ^ f[..., None, :]


def additivity_table(images) -> np.ndarray:
    """[..., x, y] = f(x ^ y) == f(x) ^ f(y), for one row of images f or an
    (N, 2^r) batch of rows: the entries of `_differences` equal to f(x).

    Every linearity question reads this table: f is linear iff it is all
    true, and the linear structure set of f is the set of its all-true
    rows.  Its row sums c_f(x) are the entries D_f[x, f(x)] of the
    difference table that `point_spectra` counts from the same gather."""
    f = np.asarray(images)
    return _differences(f) == f[..., :, None]


def point_spectra(images) -> np.ndarray:
    """[..., x, :] is the spectrum of point x under f, for one row of images f
    or an (N, 2^r) batch of rows: c_f(x) = #{y : f(x ^ y) = f(x) ^ f(y)},
    then row x of the difference table D_f[x, a] = #{y : f(x ^ y) ^ f(y) = a}
    (Nyberg, EUROCRYPT '93) in ascending order.  D_f bincounts the rows of
    `_differences`, and c_f(x) is its entry D_f[x, f(x)], read off before
    the sort.

    g = sigma_B f sigma_A^-1 has D_g[A x, B a] = D_f[x, a] and c_g(A x) =
    c_f(x), so x and A x have one spectrum; the table of f^-1 is D_f
    transposed, so the spectra of f^-1 are those of the columns of D_f."""
    f = np.asarray(images)
    n = f.shape[-1]
    diff = _differences(f)
    base = np.arange(0, diff.size, n).reshape(diff.shape[:-1])  # where each row of D_f starts
    counts = np.bincount((base[..., None] + diff).ravel(), minlength=diff.size)
    c = counts[base + f]
    counts = counts.reshape(diff.shape)
    counts.sort(-1)
    return np.concatenate([c[..., None], counts], -1)


def spectra_bytes(images) -> list:
    """The point spectra of one row of images, or of each row of an (N, 2^r)
    batch, as one bytes key per point: the one encoding of the spectra."""
    spectra = point_spectra(images).astype(np.int8)  # counts of at most 2^r <= 32 points
    return spectra.view(np.dtype((np.void, spectra.shape[-1])))[..., 0].tolist()


_spectra: dict = {}  # images -> spectrum_keys(images), the last 32, least recently used first


def spectrum_keys(images: tuple, keys=None) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The point keys of one permutation, point by point and sorted; the
    sorted tuple is constant on a GL double coset.  `keys`, when given, are
    its point keys from a batch `spectra_bytes` call.  The last 32 results
    are kept, so the searches that share a permutation (`aut_order`'s two
    counts, `classify`'s bucket tests) compute its spectra once, or not at
    all once its keys were given."""
    found = _spectra.pop(images, None)
    if found is None:
        keys = tuple(spectra_bytes(images) if keys is None else keys)
        found = keys, tuple(sorted(keys))
        if len(_spectra) >= 32:
            del _spectra[next(iter(_spectra))]
    _spectra[images] = found
    return found


def is_linear(tau: PointPerm) -> BitMatrix | None:
    """The matrix M with tau = sigma_M, or None if tau is not linear.

    M is read off the images of the standard basis once tau is additive on
    every pair of points; a basis-only check would accept non-additive maps.
    """
    tau.require_zero_fixing()
    if additivity_table(tau.images).all():
        return _matrix_from_map(tau.images, tau.r)
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
# Backtracking search for A, B in GL(r,2) with g(A x) = B f(x)
# ---------------------------------------------------------------------------


def _matrix_from_map(images, r: int) -> BitMatrix:
    """The matrix whose column j is the image of e_j."""
    return BitMatrix(r, r, transpose([int(images[1 << j]) for j in range(r)], r))


def _linear_solutions(g, f, r: int):
    """Yield (as a reused list) the point map of every A in GL(r,2) with
    g(A x) = B f(x) for all x and some B in GL(r,2).

    Depth first over the columns of A, known on V_k = [0, 2^k) at depth k,
    candidates ascending (the identity first).  Prunes on the point spectra
    (`spectrum_keys`: x under f and A x under g have one), and on pairs
    (z, w) = (f(x), g(A x)) that do not extend B to a linear bijection.  B
    is a span table, copied per candidate: `span` lists the span S of the
    z placed so far, bmap[z] is B z on S and -1 off it, and taken[w] says
    w is in B(S).  z off S and w off B(S) double S; any other pair needs
    B z = w, which a singular A, mapping two points to one, fails."""
    f, g = [int(z) for z in f], [int(w) for w in g]
    (sf, multiset_f), (sg, multiset_g) = spectrum_keys(tuple(f)), spectrum_keys(tuple(g))
    if multiset_f != multiset_g:
        return
    candidates: dict[bytes, list[int]] = {}
    for y in range(1, 1 << r):
        candidates.setdefault(sg[y], []).append(y)
    amap = [0] * (1 << r)

    def extend(k, bmap_k, span_k, taken_k):
        if k == r:
            yield amap
            return
        lo = 1 << k
        for c in candidates.get(sf[lo], ()):
            bmap, span, taken = bmap_k.copy(), span_k.copy(), taken_k.copy()
            for v in range(lo):
                x, y = lo | v, c ^ amap[v]
                if sg[y] != sf[x]:
                    break
                z, w = f[x], g[y]
                if bmap[z] < 0 and not taken[w]:
                    for s in span[:]:
                        bmap[s ^ z] = b = bmap[s] ^ w
                        taken[b] = True
                        span.append(s ^ z)
                elif bmap[z] != w:
                    break
                amap[x] = y
            else:
                yield from extend(k + 1, bmap, span, taken)

    # B f(0) = g(0) needs no test: B is a bijection onto the other g(A x)
    yield from extend(0, [0] + [-1] * ((1 << r) - 1), [0], [True] + [False] * ((1 << r) - 1))


def count_linear_products(left: PointPerm, right: PointPerm) -> int:
    """#{A in GL(r,2) : left o sigma_A o right is linear}: the solutions A
    of left(A x) = B right^{-1}(x), counted by the double-coset search."""
    if left.r != right.r:
        raise DimensionMismatch("permutations live over different dimensions")
    if left.r > SEARCH_MAX_R:
        raise BudgetExceeded(f"count_linear_products supports r <= {SEARCH_MAX_R}, got {left.r}")
    return sum(1 for _ in _linear_solutions(left.images, invert_perm(right).images, left.r))


def double_coset_member(tau_p: PointPerm, tau: PointPerm, group: str = "GL"):
    """Witness that tau' lies in the double coset of tau under GL or GA.

    GL: (A, B) with tau' = sigma_B o tau o sigma_A^{-1}, or None; a verified
    witness from the search, the identity pair when tau' = tau.  GA: affine
    ((a, A), (b, B)) with tau' = sigma_{b,B} o tau o sigma_{a,A}^{-1}, or
    None, from one GL search per a on tau'_a(y) = tau'(y + a) + tau'(a) and
    tau_0(x) = tau(x) + tau(0); b = tau'(a) + B tau(0).  GA inputs need not
    fix zero."""
    if tau_p.r != tau.r:
        raise DimensionMismatch("permutations live over different dimensions")
    r = tau.r
    if r > SEARCH_MAX_R:
        raise BudgetExceeded(f"double_coset_member supports r <= {SEARCH_MAX_R}, got {r}")
    if group == "GL":
        tau_p.require_zero_fixing()
        tau.require_zero_fixing()
    elif group != "GA":
        raise ValueError(f"unknown group {group!r}")
    t0 = tau.images[0]
    tau_0 = [z ^ t0 for z in tau.images]
    for a in range(1 << r) if group == "GA" else (0,):
        ta = tau_p.images[a]
        tau_pa = [tau_p.images[y ^ a] ^ ta for y in range(1 << r)]
        for amap in _linear_solutions(tau_pa, tau_0, r):
            a_mat = _matrix_from_map(amap, r)
            b_mat = _matrix_from_map({z: tau_pa[amap[x]] for x, z in enumerate(tau_0)}, r)
            if group == "GL":
                return a_mat, b_mat
            return AffineTransform(a, a_mat), AffineTransform(ta ^ b_mat.apply(t0), b_mat)
    return None
