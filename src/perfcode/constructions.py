"""Builders: the concatenation code S_tau, blockwise products of point
permutations, the Mollard composition, and the Hadamard analog A_tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

from ._bits import parity, span_words
from .algebra import BitMatrix, PointPerm
from .codes import (
    CosetUnionCode,
    ExplicitCode,
    LinearCode,
    apply_coordinate_perm,  # re-exported: the coordinate action of the dub1/dub2 lifts
    coset_reps,
    explicit_materialize,
    extended_hamming,
    hamming_parity_rows,
)
from .errors import BudgetExceeded, InconsistentInput

S_TAU_MAX_R = 5
HADAMARD_MAX_R = 4
MOLLARD_BUDGET_BITS = 20


def build_s_tau(tau: PointPerm) -> CosetUnionCode:
    """S_tau = union over a of (H + e_a + e_0) x (H + e_tau(a) + e_0).

    The base code is H x H with H the extended Hamming code of length
    2^r; the representatives are `coset_reps(tau)`.  Contains the
    all-zero word since tau fixes 0.
    """
    tau.require_zero_fixing()
    r = tau.r
    if r > S_TAU_MAX_R:
        raise BudgetExceeded(f"build_s_tau supports r <= {S_TAU_MAX_R}, got {r}")
    n = 1 << r
    h = extended_hamming(r)
    gen_rows = tuple(h.generators.row_bits) + tuple(
        row << n for row in h.generators.row_bits
    )
    base = LinearCode(2 * n, BitMatrix(len(gen_rows), 2 * n, gen_rows))
    return CosetUnionCode(r=r, base=base, reps=coset_reps(tau))


def tau_product(tau: PointPerm, tau2: PointPerm) -> PointPerm:
    """The blockwise permutation (tau|tau2) of F^{r+r'}.

    Under the little-endian concatenation the low r bits of a combined
    point hold the first factor.  The product of induced permutations is
    induced (by an automorphism of the direct product group), so the
    flag is carried over as the conjunction.
    """
    tau.require_zero_fixing()
    tau2.require_zero_fixing()
    r, r2 = tau.r, tau2.r
    mask = (1 << r) - 1
    images = tuple(
        tau.images[p & mask] | (tau2.images[p >> r] << r) for p in range(1 << (r + r2))
    )
    return PointPerm(r + r2, images, induced=tau.induced and tau2.induced)


# ---------------------------------------------------------------------------
# Mollard composition
# ---------------------------------------------------------------------------


def p1(z: int, t: int, m: int) -> int:
    """Row sums: coordinate i of p1 is the parity of row i of z."""
    row_mask = (1 << m) - 1
    return sum(parity((z >> (i * m)) & row_mask) << i for i in range(t))


def p2(z: int, t: int, m: int) -> int:
    """Column sums: coordinate j of p2 is the parity of column j of z, so
    p2 is the XOR of the t rows of z."""
    return reduce(xor, (z >> (i * m) for i in range(t)), 0) & ((1 << m) - 1)


@dataclass(frozen=True)
class MollardCode:
    """M(C,D) = {z : p1(z) in C, p2(z) in D}.

    Coordinates are pairs (row, col) flattened row-major: (i, j) -> i*m + j.
    """

    t: int
    m: int
    c: ExplicitCode
    d: ExplicitCode

    @property
    def length(self) -> int:
        return self.t * self.m

    @property
    def size(self) -> int:
        return self.c.size * self.d.size * (1 << (self.t * self.m - self.t - self.m + 1))

    def contains(self, z: int) -> bool:
        return p1(z, self.t, self.m) in self.c.words and p2(z, self.t, self.m) in self.d.words

    def materialize(self) -> ExplicitCode:
        if self.length > MOLLARD_BUDGET_BITS:
            raise BudgetExceeded(
                f"cannot enumerate 2^{self.length} candidate words"
            )
        c_set = frozenset(self.c.words)
        d_set = frozenset(self.d.words)
        t, m = self.t, self.m
        words = tuple(z for z in range(1 << self.length) if p1(z, t, m) in c_set and p2(z, t, m) in d_set)
        return ExplicitCode(self.length, words)


def mollard(c: ExplicitCode, d: ExplicitCode) -> MollardCode:
    """The Mollard composition of two extended perfect codes containing 0."""
    return MollardCode(t=c.length, m=d.length, c=c, d=d)


def dub1(pi, t: int, m: int) -> tuple[int, ...]:
    """Lift a coordinate permutation of C to M(C,D): (i, j) -> (pi(i), j)."""
    return tuple(pi[i] * m + j for i in range(t) for j in range(m))


def dub2(pi, t: int, m: int) -> tuple[int, ...]:
    """Lift a coordinate permutation of D to M(C,D): (i, j) -> (i, pi(j))."""
    return tuple(i * m + pi[j] for i in range(t) for j in range(m))


# ---------------------------------------------------------------------------
# Hadamard analog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HadamardCode:
    r: int
    tau: PointPerm
    words: ExplicitCode


def hadamard_a_tau(tau: PointPerm) -> HadamardCode:
    """A_tau = union over a of C_a x C_tau(a); 2^{r+2} words of length 2^{r+1}.

    C_a = {f_a, f_a + 1}, f_a the word x -> <x, a>, is a coset of the
    repetition code R, and the f_a span the first r rows of
    `hamming_parity_rows(r)` (RM(1, r) is the extended Hamming code's dual).
    So A_tau is a coset-union code, as S_tau is: base R x R, reps
    f_a | f_tau(a) << 2^r.  Each rep is its coset's one word that is 0 at
    both points 0, so the cosets are disjoint exactly when the reps differ.
    """
    tau.require_zero_fixing()
    r = tau.r
    if r > HADAMARD_MAX_R:
        raise BudgetExceeded(f"hadamard_a_tau supports r <= {HADAMARD_MAX_R}, got {r}")
    n = 1 << r
    f = span_words(hamming_parity_rows(r)[:r])
    reps = tuple(f[a] | (f[tau.images[a]] << n) for a in range(n))
    if len(set(reps)) != n:
        raise InconsistentInput(f"A_tau has {4 * len(set(reps))} words, not {4 * n}")
    ones = (1 << n) - 1
    base = LinearCode(2 * n, BitMatrix(2, 2 * n, (ones, ones << n)))
    return HadamardCode(r=r, tau=tau, words=explicit_materialize(CosetUnionCode(r, base, reps)))
