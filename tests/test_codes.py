import random
from itertools import combinations, permutations

import numpy as np
import pytest

from perfcode import (
    BitMatrix,
    BudgetExceeded,
    InconsistentInput,
    LengthMismatch,
    LinearCode,
    PointPerm,
    ZeroNotFixed,
    apply_point_perm_to_code,
    brute_kernel_dim,
    brute_min_distance,
    brute_rank,
    build_s_tau,
    explicit_materialize,
    extended_hamming,
    gl_enumerate,
    identity_perm,
    intersect,
    invert_perm,
    is_linear,
    linear_structure_set,
    sigma_m,
    stats_coset_union,
)
from perfcode._bits import span_dim, weight
from perfcode.codes import BRUTE_TABLE_MAX_LENGTH, ExplicitCode, _walsh, perm_kernel_dim, weight4_supports
from conftest import random_zero_fixing


class TestExtendedHamming:
    def test_r3_parameters(self):
        h = extended_hamming(3)
        words = h.words()
        assert h.length == 8
        assert len(words) == 16  # dimension 2^3 - 3 - 1 = 4
        assert brute_min_distance(_explicit(h)) == 4
        # two words at distance 1 end the scan at the first word
        assert brute_min_distance(ExplicitCode(8, (0, 1, 6, 24))) == 1

    def test_r3_defining_conditions(self):
        for w in extended_hamming(3).words():
            index_sum = 0
            for a in range(8):
                if (w >> a) & 1:
                    index_sum ^= a
            assert index_sum == 0
            assert weight(w) % 2 == 0

    def test_r4_weight4_count(self):
        # v(v-1)(v-2)/24 quadruples for v = 16; frozen from the closed form
        expected = 16 * 15 * 14 // 24
        assert expected == 140
        words = extended_hamming(4).words()
        assert len(words) == 2048
        assert sum(1 for w in words if weight(w) == 4) == expected

    def test_r1_is_the_zero_code(self):
        # the parity rows 10 and 11 leave only the zero word of length 2
        h = extended_hamming(1)
        assert (h.length, h.dim, h.words()) == (2, 0, [0])

    def test_bad_r(self):
        for r in (0, 7):
            with pytest.raises(ValueError):
                extended_hamming(r)


class TestContains:
    def test_every_length_8_word(self):
        h = extended_hamming(3)
        words = set(h.words())
        assert all(h.contains(w) == (w in words) for w in range(1 << 8))

    def test_dependent_generators(self):
        # the third generator is the sum of the first two, the fourth repeats one
        gens = (0b00001111, 0b00110011, 0b00111100, 0b00110011)
        code = LinearCode(8, BitMatrix(len(gens), 8, gens))
        words = set(code.words())
        assert len(words) == 4
        assert all(code.contains(w) == (w in words) for w in range(1 << 8))


def _explicit(linear):
    from perfcode import ExplicitCode

    return ExplicitCode(linear.length, tuple(linear.words()))


class TestIntersect:
    def test_self_intersection(self):
        h = extended_hamming(3)
        assert set(intersect(h, h).words()) == set(h.words())

    def test_gl_invariance(self):
        rng = random.Random(11)
        h = extended_hamming(3)
        mats = list(gl_enumerate(3))
        for _ in range(5):
            moved = apply_point_perm_to_code(sigma_m(rng.choice(mats)), h)
            assert set(moved.words()) == set(h.words())
            assert set(intersect(h, moved).words()) == set(h.words())

    def test_all_four_dimensions_reachable_at_r3(self):
        # the intersection dim tau(H) cap H takes each value in {1,2,3,4}
        h = extended_hamming(3)
        seen = set()
        rng = random.Random(12)
        for _ in range(4000):
            tau = random_zero_fixing(3, rng)
            moved = apply_point_perm_to_code(tau, h)
            seen.add(intersect(moved, h).dim)
            if seen == {1, 2, 3, 4}:
                break
        assert seen == {1, 2, 3, 4}

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            intersect(extended_hamming(3), extended_hamming(4))
        with pytest.raises(LengthMismatch):
            apply_point_perm_to_code(identity_perm(4), extended_hamming(3))

    @pytest.mark.parametrize("r", [3, 4])
    def test_intersection_dim_is_coset_invariant(self, r):
        # dim(tau(H) cap H) is unchanged by tau -> sigma_A o tau o sigma_B
        rng = random.Random(13)
        mats = list(gl_enumerate(r))
        h = extended_hamming(r)
        from perfcode import compose

        for _ in range(5):
            tau = random_zero_fixing(r, rng)
            base = intersect(apply_point_perm_to_code(tau, h), h).dim
            a, b = rng.choice(mats), rng.choice(mats)
            moved = compose(compose(sigma_m(a), tau), sigma_m(b))
            assert intersect(apply_point_perm_to_code(moved, h), h).dim == base


class TestApplyPointPerm:
    def test_identity(self):
        h = extended_hamming(3)
        assert apply_point_perm_to_code(identity_perm(3), h).generators == h.generators

    def test_roundtrip(self, rng):
        h = extended_hamming(3)
        tau = random_zero_fixing(3, rng)
        back = apply_point_perm_to_code(invert_perm(tau), apply_point_perm_to_code(tau, h))
        assert set(back.words()) == set(h.words())


class TestLinearStructureSet:
    def test_linear_tau_gives_everything(self):
        rng = random.Random(14)
        m = rng.choice(list(gl_enumerate(3)))
        assert linear_structure_set(sigma_m(m)) == list(range(8))

    def test_against_exhaustive_oracle(self, rng, r3_taus):
        taus = [random_zero_fixing(r, rng) for r in (3, 4, 5) for _ in range(20)] + r3_taus
        for tau in taus:
            n = 1 << tau.r
            oracle = [
                a
                for a in range(n)
                if all(tau(a ^ b) == tau(a) ^ tau(b) for b in range(n))
            ]
            assert linear_structure_set(tau) == oracle
            assert perm_kernel_dim(tau) == 2 * (n - tau.r - 1) + span_dim(oracle)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_linear_exactly_when_structure_set_is_everything(self, r, rng):
        mats = [m for m, _ in zip(gl_enumerate(r), range(200))]
        taus = [random_zero_fixing(r, rng) for _ in range(20)]
        taus += [sigma_m(m) for m in rng.sample(mats, 20)]
        # a sigma_M with two non-basis images swapped keeps its basis images
        for m in rng.sample(mats, 20):
            images = list(sigma_m(m).images)
            images[3], images[5] = images[5], images[3]
            taus.append(PointPerm(r, tuple(images)))
        for tau in taus:
            everything = linear_structure_set(tau) == list(range(1 << r))
            assert (is_linear(tau) is not None) == everything

    def test_is_a_subspace(self, rng):
        for _ in range(20):
            tau = random_zero_fixing(4, rng)
            members = set(linear_structure_set(tau))
            assert 0 in members
            for a in members:
                for b in members:
                    assert a ^ b in members

    def test_trivial_structure_gives_kernel_22_at_r4(self, rng):
        # a zero-fixing tau with L = {0} yields the minimal kernel 2^5 - 10
        while True:
            tau = random_zero_fixing(4, rng)
            if linear_structure_set(tau) == [0]:
                break
        stats = stats_coset_union(build_s_tau(tau), tau)
        assert stats.kernel_dim == 22

    def test_zero_not_fixed(self):
        with pytest.raises(ZeroNotFixed):
            linear_structure_set(PointPerm(3, (1, 0, 2, 3, 4, 5, 6, 7)))


class TestStatsAgainstBruteForce:
    def test_random_taus_r3(self, rng):
        for _ in range(12):
            tau = random_zero_fixing(3, rng)
            code = build_s_tau(tau)
            stats = stats_coset_union(code, tau)
            explicit = explicit_materialize(code)
            assert len(explicit.words) == 2048
            assert stats.size == 2048
            assert stats.rank == brute_rank(explicit)
            assert stats.kernel_dim == brute_kernel_dim(explicit)
            assert stats.min_distance == brute_min_distance(explicit) == 4

    def test_linear_tau_r3(self):
        tau = identity_perm(3)
        code = build_s_tau(tau)
        explicit = explicit_materialize(code)
        assert brute_rank(explicit) == 11
        assert brute_kernel_dim(explicit) == 11

    def test_inconsistent_reps(self, rng):
        tau = random_zero_fixing(3, rng)
        other = random_zero_fixing(3, rng)
        while other.images == tau.images:
            other = random_zero_fixing(3, rng)
        code = build_s_tau(tau)
        with pytest.raises(InconsistentInput):
            stats_coset_union(code, other)

    def test_kernel_word_stability(self, rng):
        # kernel words translate the code onto itself
        tau = random_zero_fixing(3, rng)
        code = build_s_tau(tau)
        explicit = explicit_materialize(code)
        words = set(explicit.words)
        kernel_words = [x for x in explicit.words if all((x ^ w) in words for w in words)]
        assert span_dim(kernel_words) == stats_coset_union(code, tau).kernel_dim


def isin_kernel_dim(code: ExplicitCode) -> int:
    """The np.isin formulation of the kernel oracle, for comparison."""
    words = np.array(code.words, dtype=np.int64)
    in_code = np.isin(words[:, None] ^ words[None, :], words).all(axis=1)
    return span_dim(words[in_code].tolist())


def random_coset_union(length: int, rng: random.Random) -> ExplicitCode:
    """A union of random cosets of a random linear code, so that the kernel
    is often larger than {0}; the coset of 0 is dropped now and then."""
    basis = [rng.randrange(1 << length) for _ in range(rng.randrange(length))]
    linear = {0}
    for row in basis:
        linear |= {w ^ row for w in linear}
    shifts = {0} | {rng.randrange(1 << length) for _ in range(rng.randrange(1, 4))}
    if rng.random() < 0.25:
        shifts.discard(0)
    return ExplicitCode(length, tuple(sorted({w ^ s for w in linear for s in shifts})))


class TestExplicitMaterialize:
    """The uint64 materialization against the word loop it replaced."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_equals_the_word_loop(self, r):
        local = random.Random(70 + r)
        for tau in [identity_perm(r)] + [random_zero_fixing(r, local) for _ in range(4)]:
            code = build_s_tau(tau)
            base = code.base.words()
            words = explicit_materialize(code).words
            assert words == tuple(sorted(w ^ rep for rep in code.reps for w in base))
            assert all(type(w) is int for w in words)

    def test_linear_words_over_budget(self):
        # the extended Hamming code of length 32 has 2^26 words
        with pytest.raises(BudgetExceeded, match="2\\^26 words"):
            extended_hamming(5).words()

    def test_budget_checked_before_any_word(self, monkeypatch):
        # r=4: 2^26 words; the base code's words are never listed
        code = build_s_tau(random_zero_fixing(4, random.Random(74)))
        monkeypatch.setattr(LinearCode, "words", lambda self: pytest.fail("words listed"))
        with pytest.raises(BudgetExceeded):
            explicit_materialize(code)

    @pytest.mark.parametrize("words", [(1, 0), (0, 2, 1), (0, 1, 1), (3, 3)])
    def test_unsorted_or_repeated_words_rejected(self, words):
        with pytest.raises(ValueError, match="sorted and duplicate-free"):
            ExplicitCode(4, words)

    @pytest.mark.parametrize("words", [(), (5,), (0, 1, 2, 7)])
    def test_sorted_words_accepted(self, words):
        assert ExplicitCode(4, words).words == words


class TestBruteKernelDim:
    """The Walsh–Hadamard kernel oracle against the pairwise np.isin count."""

    @pytest.mark.parametrize(
        "length, words, kernel",
        [
            (4, (0b0000, 0b0001, 0b0010, 0b0100), 0),  # non-linear, trivial kernel
            (4, (0, 1, 2, 12, 13, 14), 1),  # three cosets of {0, 12}: non-linear
            (4, (0, 3, 5, 6), 2),  # linear
            (4, (3, 5, 6, 9), 0),  # no zero word: no word translates C onto itself
            (4, (0,), 0),
            (4, (9,), 0),
            (0, (0,), 0),
            (5, (), 0),
        ],
    )
    def test_small_codes(self, length, words, kernel):
        code = ExplicitCode(length, words)
        assert brute_kernel_dim(code) == isin_kernel_dim(code) == kernel

    @pytest.mark.parametrize("length", range(1, 13))
    def test_random_codes(self, length):
        local = random.Random(1000 + length)
        codes = [random_coset_union(length, local) for _ in range(12)]
        codes += [ExplicitCode(length, (local.randrange(1 << length),)) for _ in range(2)]
        words = sorted(local.sample(range(1, 1 << length), min(5, (1 << length) - 1)))
        codes.append(ExplicitCode(length, tuple(words)))  # without the zero word
        assert any(0 not in code.words for code in codes)
        for code in codes:
            assert brute_kernel_dim(code) == isin_kernel_dim(code)

    def test_hamming_and_s_tau(self, rng, r3_taus):
        hamming = extended_hamming(3)
        code = ExplicitCode(hamming.length, tuple(hamming.words()))
        assert brute_kernel_dim(code) == isin_kernel_dim(code) == 4
        # every S_tau at r=2, and r=3 ones from the catalog and at random
        local = random.Random(41)
        taus = [PointPerm(2, (0, *rest)) for rest in permutations((1, 2, 3))]
        taus += local.sample(r3_taus, 4) + [random_zero_fixing(3, rng) for _ in range(2)]
        kernels = set()
        for tau in taus:
            code = explicit_materialize(build_s_tau(tau))
            kernel = brute_kernel_dim(code)
            assert kernel == isin_kernel_dim(code) == perm_kernel_dim(tau)
            kernels.add(kernel)
        assert len(kernels) > 2

    def test_exact_at_the_top_of_the_range(self):
        # the largest counts: |C| 2^length = 2^40 for the whole space of length 20
        assert brute_kernel_dim(ExplicitCode(20, tuple(range(1 << 20)))) == 20
        hamming = extended_hamming(4)
        assert brute_kernel_dim(ExplicitCode(16, tuple(hamming.words()))) == 11

    def test_at_the_length_cap(self):
        # cosets of {0, all-ones} through random words: the kernel is {0, all-ones}
        ones = (1 << BRUTE_TABLE_MAX_LENGTH) - 1
        local = random.Random(43)
        shifts = [0, *local.sample(range(1, 1 << BRUTE_TABLE_MAX_LENGTH), 20)]
        words = sorted({s ^ w for s in shifts for w in (0, ones)})
        code = ExplicitCode(BRUTE_TABLE_MAX_LENGTH, tuple(words))
        assert brute_kernel_dim(code) == isin_kernel_dim(code) == 1

    def test_length_cap(self):
        with pytest.raises(BudgetExceeded):
            brute_kernel_dim(ExplicitCode(BRUTE_TABLE_MAX_LENGTH + 1, (0, 1)))


def butterfly_walsh(values: np.ndarray) -> np.ndarray:
    """The radix-2 Walsh–Hadamard butterflies, one bit of the index at a time."""
    values = values.copy()
    half = 1
    while half < values.size:
        pairs = values.reshape(-1, 2, half)
        pairs[:] = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]], axis=1)
        half *= 2
    return values


class TestWalsh:
    @pytest.mark.parametrize("n", range(13))
    def test_equals_the_butterflies(self, n):
        # integer entries, so that every sum is exact in any order
        values = np.random.default_rng(n).integers(-1000, 1000, 1 << n).astype(np.float64)
        assert np.array_equal(_walsh(values), butterfly_walsh(values))


def python_weight4_supports(code: ExplicitCode) -> set[frozenset[int]]:
    return {
        frozenset(p for p in range(code.length) if (w >> p) & 1)
        for w in code.words
        if bin(w).count("1") == 4
    }


class TestWeight4Supports:
    @pytest.mark.parametrize("length", [0, 3, 4, 8, 16, 63, 64, 65, 130])
    def test_random_codes(self, length):
        rng = random.Random(3000 + length)
        for _ in range(8):
            words = {rng.getrandbits(length) for _ in range(rng.randrange(50))}
            if length >= 4:
                words |= {sum(1 << p for p in rng.sample(range(length), 4)) for _ in range(30)}
                words.add(sum(1 << p for p in range(length - 4, length)))  # the top bit
            code = ExplicitCode(length, tuple(sorted(words)))
            assert weight4_supports(code) == python_weight4_supports(code)
