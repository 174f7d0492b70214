"""Binary code representations: the extended Hamming code, coset-union
codes, and brute-force rank/kernel/distance oracles.

Code words are bit-packed integers; coordinate p of a length-n word is
bit p, with coordinates indexed by the points of F^r when n = 2^r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import zip_longest
from operator import ge

import numpy as np

from ._bits import (
    nullspace_basis,
    pack_words,
    packed_rank,
    reduce_vec,
    span_basis,
    span_dim,
    span_words,
    transpose,
)
from .algebra import BitMatrix, PointPerm, additivity_table
from .errors import BudgetExceeded, InconsistentInput, LengthMismatch

MATERIALIZE_BUDGET = 1 << 21
BRUTE_TABLE_MAX_LENGTH = 23  # a 64 MB float64 table over all 2^length vectors


@dataclass(frozen=True)
class LinearCode:
    """Linear code given by a generator matrix (rows span the code)."""

    length: int
    generators: BitMatrix

    @property
    def dim(self) -> int:
        return span_dim(self.generators.row_bits)

    @property
    def size(self) -> int:
        return 1 << self.dim

    def words(self) -> list[int]:
        if self.size > MATERIALIZE_BUDGET:
            raise BudgetExceeded(f"code with 2^{self.dim} words exceeds budget")
        return sorted(span_words(span_basis(self.generators.row_bits)))

    def contains(self, word: int) -> bool:
        pivots = [(row.bit_length() - 1, row) for row in span_basis(self.generators.row_bits)]
        return reduce_vec(pivots, int(word)) == 0


@dataclass(frozen=True)
class ExplicitCode:
    """A code as a sorted, duplicate-free tuple of bit-packed words."""

    length: int
    words: tuple[int, ...]

    def __post_init__(self):
        if any(map(ge, self.words, self.words[1:])):
            raise ValueError("words must be sorted and duplicate-free")

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class CodeStats:
    rank: int
    kernel_dim: int
    min_distance: int
    size: int


@dataclass(frozen=True)
class CosetUnionCode:
    """Union over a in F^r of cosets (base + reps[a]) of any linear base code
    of length 2^{r+1}, reps[a] pairing a word at point a with one at tau(a):
    S_tau is over H x H with `coset_reps(tau)`, A_tau over R x R (R the
    repetition code) with f_a | f_tau(a) << 2^r.  reps[0] is the zero word.
    """

    r: int
    base: LinearCode
    reps: tuple[int, ...]

    @property
    def length(self) -> int:
        return 2 << self.r

    @property
    def size(self) -> int:
        return (1 << self.r) * self.base.size


@cache
def hamming_parity_rows(r: int) -> tuple[int, ...]:
    """Parity-check rows of the extended Hamming code of length 2^r.

    Row i (i < r) has bit b equal to coordinate i of the point b; the
    last row is all-ones (overall parity).
    """
    n = 1 << r
    return transpose(range(n), r) + ((1 << n) - 1,)


@cache
def extended_hamming(r: int) -> LinearCode:
    """The extended Hamming code {x : sum of set positions = 0, wt(x) even}."""
    if not 1 <= r <= 6:
        raise ValueError(f"extended_hamming supports 1 <= r <= 6, got {r}")
    n = 1 << r
    basis = nullspace_basis(hamming_parity_rows(r), n)
    return LinearCode(n, BitMatrix(len(basis), n, tuple(basis)))


def dual_rows(code: LinearCode) -> list[int]:
    """Parity-check rows (a basis of the dual code)."""
    return nullspace_basis(code.generators.row_bits, code.length)


def intersect(c: LinearCode, d: LinearCode) -> LinearCode:
    """Generator matrix of C ∩ D via stacked parity checks."""
    if c.length != d.length:
        raise LengthMismatch("codes have different lengths")
    stacked = dual_rows(c) + dual_rows(d)
    basis = nullspace_basis(stacked, c.length)
    return LinearCode(c.length, BitMatrix(len(basis), c.length, tuple(basis)))


def apply_coordinate_perm(word: int, perm: tuple[int, ...]) -> int:
    """Position perm[p] of the image carries position p of the word."""
    return sum(((word >> p) & 1) << perm[p] for p in range(len(perm)))


def apply_point_perm_to_code(tau: PointPerm, code: LinearCode) -> LinearCode:
    """Permute coordinates: position tau(p) of the image carries position p."""
    if code.length != (1 << tau.r):
        raise LengthMismatch("permutation size does not match code length")
    rows = tuple(apply_coordinate_perm(row, tau.images) for row in code.generators.row_bits)
    return LinearCode(code.length, BitMatrix(code.generators.rows, code.length, rows))


def linear_structure_set(tau: PointPerm) -> list[int]:
    """L_tau = {a : tau(a+b) = tau(a) + tau(b) for all b}; a subspace."""
    tau.require_zero_fixing()
    return np.flatnonzero(additivity_table(tau.images).all(-1)).tolist()


def base_dim(r: int) -> int:
    """dim(H x H) = 2 dim(H), H the extended Hamming code of length 2^r:
    the base code every S_tau is a union of cosets of, and the least rank
    and kernel dimension of S_tau."""
    return 2 * ((1 << r) - r - 1)


def kernel_dims(images) -> np.ndarray:
    """Kernel dimensions of S_tau over an (N, 2^r) array of zero-fixing taus:
    2 dim(H) plus dim L_tau, which is log2 |L_tau| since L_tau is a subspace.

    The additivity tables are built a few million entries at a time."""
    images = np.asarray(images)
    count, n = images.shape
    sizes = np.empty(count, dtype=np.int64)
    chunk = max(1, (1 << 22) // (n * n))
    for s in range(0, count, chunk):
        sizes[s : s + chunk] = additivity_table(images[s : s + chunk]).all(-1).sum(-1)
    return base_dim(n.bit_length() - 1) + np.log2(sizes).astype(np.int64)


def perm_rank(tau: PointPerm) -> int:
    """Rank of S_tau: 2 dim(H) plus the span of the syndromes (a | tau(a))."""
    r = tau.r
    return base_dim(r) + span_dim(a | (tau.images[a] << r) for a in range(1, 1 << r))


def perm_kernel_dim(tau: PointPerm) -> int:
    """Kernel dimension of S_tau: 2 dim(H) plus dim of the linear structure set."""
    tau.require_zero_fixing()
    return int(kernel_dims([tau.images])[0])


def coset_reps(tau: PointPerm) -> tuple[int, ...]:
    """The coset representatives (e_a + e_0 | e_tau(a) + e_0) of S_tau, one
    per point a, bit-packed with length 2^{r+1}; e_0 + e_0 is the zero word."""
    n = 1 << tau.r
    return tuple(((1 << a) ^ 1) | (((1 << tau.images[a]) ^ 1) << n) for a in range(n))


def _check_reps(s: CosetUnionCode, tau: PointPerm) -> None:
    for a, (rep, expect) in enumerate(zip_longest(s.reps, coset_reps(tau))):
        if rep != expect:
            raise InconsistentInput(f"rep at point {a} does not match the permutation")


def stats_coset_union(s: CosetUnionCode, tau: PointPerm) -> CodeStats:
    """Structural rank/kernel of S_tau without materializing the words.

    rank: a word in coset a contributes syndrome (a | tau(a)) modulo the
    base code H x H, so the rank is 2 dim(H) plus the span of those 2r-bit
    syndromes.  kernel: translating by a word of coset c maps coset b to
    coset b + c and matches the second halves iff c has the linear
    structure property, so the kernel is the union of the cosets over
    L_tau.  Both closed forms are validated against the r=3 brute-force
    oracles in the test suite before being trusted at r=4.
    """
    _check_reps(s, tau)
    size = 1 << ((2 << s.r) - s.r - 2)
    return CodeStats(
        rank=perm_rank(tau), kernel_dim=perm_kernel_dim(tau), min_distance=4, size=size
    )


def explicit_materialize(s: CosetUnionCode) -> ExplicitCode:
    """All words of a coset-union code, sorted (budget: 2^21 words)."""
    if s.size > MATERIALIZE_BUDGET:
        raise BudgetExceeded(f"{s.size} words exceed the materialization budget")
    assert s.length <= 64  # a word fits one uint64
    words = np.array(s.reps, dtype=np.uint64)[:, None] ^ np.array(s.base.words(), dtype=np.uint64)
    return ExplicitCode(s.length, tuple(np.sort(words, axis=None).tolist()))


# ---------------------------------------------------------------------------
# Brute-force oracles on explicit codes
# ---------------------------------------------------------------------------


def brute_rank(code: ExplicitCode) -> int:
    """Dimension of the linear span of the words, by one elimination over
    all of them at once (independent of `span_dim`, which `perm_rank` uses)."""
    return packed_rank(pack_words(code.words, code.length))


# The Sylvester-Hadamard matrix (-1)^popcount(i & j) on 3 bits; its leading
# 2^k x 2^k block is the one on k <= 3 bits.  On 2 cores 4-bit blocks ran
# several times slower with several BLAS threads, and 3-bit blocks are not
# immune: the first pass of a 2^16 transform took 0.19-0.26 ms against
# 0.06-0.11 ms with one thread, and 8 ms a call in 2 of 21 processes.
_WALSH_BLOCK = 3
_HADAMARD = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * _WALSH_BLOCK)


def _walsh(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform of a float64 vector of length
    2^n: at every x, the sum over y of (-1)^popcount(x & y) values[y].

    The butterflies are blocked: each pass applies a Hadamard matrix with
    `@` across the next few bits of the index.  The first pass, over the
    lowest bits, is one plain matrix product.
    """
    n = values.size.bit_length() - 1
    done = min(_WALSH_BLOCK, n)
    values = values.reshape(-1, 1 << done) @ _HADAMARD[: 1 << done, : 1 << done].T
    while done < n:
        k = min(_WALSH_BLOCK, n - done)
        values = _HADAMARD[: 1 << k, : 1 << k] @ values.reshape(-1, 1 << k, 1 << done)
        done += k
    return values.reshape(-1)


def brute_kernel_dim(code: ExplicitCode) -> int:
    """Dimension of {x in C : x + C = C} (0 must be a codeword).

    The kernel words are the words x with A(x) = |C|, where A(x) counts
    the words y with x + y in C.  A is the autocorrelation of C's
    indicator over all 2^length vectors, computed exactly as W(W(1_C)^2)
    / 2^length for W the Walsh–Hadamard transform (MacWilliams & Sloane,
    ch. 14): every pair is counted in length * 2^length operations
    instead of |C|^2 lookups, and the table caps the length.
    """
    if code.length > BRUTE_TABLE_MAX_LENGTH:
        raise BudgetExceeded(
            f"brute_kernel_dim supports length <= {BRUTE_TABLE_MAX_LENGTH}, got {code.length}"
        )
    words = np.array(code.words, dtype=np.int64)
    indicator = np.zeros(1 << code.length)
    indicator[words] = 1.0
    spectrum = _walsh(indicator)
    # exact in float64: |W(1_C)| <= |C|, and by Parseval every partial sum
    # of the second transform is at most sum W(1_C)^2 = 2^length |C|,
    # which the length cap keeps <= 2^46 < 2^53: every intermediate is an
    # exactly held integer
    counts = _walsh(spectrum * spectrum)
    kernel = words[counts[words] == len(words) << code.length]
    return packed_rank(kernel.astype(np.uint64)[:, None])  # the cap keeps a word in one limb


def brute_min_distance(code: ExplicitCode) -> int:
    """Minimum pairwise distance over all distinct word pairs."""
    words = np.array(code.words, dtype=np.int64)
    best = code.length
    for i in range(len(words) - 1):
        d = np.bitwise_count(words[i + 1 :] ^ words[i])
        best = min(best, int(d.min()))
        if best <= 1:
            break
    return best


def weight4_supports(code: ExplicitCode) -> set[frozenset[int]]:
    """Supports of the weight-4 codewords (the SQS of an extended perfect code)."""
    packed = pack_words(code.words, code.length)
    packed = packed[np.bitwise_count(packed).sum(axis=1) == 4]
    bits = (packed[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    _, positions = np.nonzero(bits.reshape(packed.shape[0], 64 * packed.shape[1]))
    return set(map(frozenset, positions.reshape(-1, 4).tolist()))
