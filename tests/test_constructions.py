import random
from itertools import permutations

import pytest

from perfcode import (
    ExplicitCode,
    InconsistentInput,
    PointPerm,
    ZeroNotFixed,
    brute_min_distance,
    build_s_tau,
    compose,
    double_coset_member,
    dub1,
    dub2,
    explicit_materialize,
    extended_hamming,
    gl_enumerate,
    hadamard_a_tau,
    identity_perm,
    invert_perm,
    is_linear,
    mollard,
    p1,
    p2,
    sigma_m,
    tau_product,
)
from perfcode._bits import parity, weight
from perfcode.constructions import apply_coordinate_perm
from conftest import random_zero_fixing


class TestBuildStau:
    def test_contains_zero_and_reps_shape(self, rng):
        tau = random_zero_fixing(3, rng)
        code = build_s_tau(tau)
        assert code.reps[0] == 0
        assert code.length == 16
        assert 0 in explicit_materialize(code).words

    def test_linear_tau_gives_extended_hamming(self):
        # S_{sigma_M} is the extended Hamming code of length 16 up to a
        # coordinate permutation; compare weight distributions and linearity
        rng = random.Random(21)
        m = rng.choice(list(gl_enumerate(3)))
        code = explicit_materialize(build_s_tau(sigma_m(m)))
        reference = extended_hamming(4).words()
        assert sorted(weight(w) for w in code.words) == sorted(
            weight(w) for w in reference
        )
        words = set(code.words)
        sample = random.Random(22).sample(code.words, 60)
        assert all((x ^ y) in words for x in sample for y in sample)

    def test_r3_parameters(self, rng):
        tau = random_zero_fixing(3, rng)
        explicit = explicit_materialize(build_s_tau(tau))
        assert len(explicit.words) == 2048
        assert brute_min_distance(explicit) == 4

    def test_identity_tau_syndromes_match(self):
        code = explicit_materialize(build_s_tau(identity_perm(3)))
        for w in code.words:
            left, right = w & 0xFF, w >> 8
            sum_left = sum_right = 0
            for a in range(8):
                if (left >> a) & 1:
                    sum_left ^= a
                if (right >> a) & 1:
                    sum_right ^= a
            assert sum_left == sum_right

    def test_zero_not_fixed(self):
        with pytest.raises(ZeroNotFixed):
            build_s_tau(PointPerm(3, (1, 0, 2, 3, 4, 5, 6, 7)))

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_cosets_disjoint(self, rng, r):
        # distinct coset representatives have distinct syndromes
        tau = random_zero_fixing(r, rng)
        code = build_s_tau(tau)
        n = 1 << r
        mask = (1 << n) - 1
        seen = set()
        for a, rep in enumerate(code.reps):
            left, right = rep & mask, rep >> n
            s_left = s_right = 0
            for point in range(n):
                if (left >> point) & 1:
                    s_left ^= point
                if (right >> point) & 1:
                    s_right ^= point
            assert (s_left, s_right) == (a, tau(a))
            assert (s_left, s_right) not in seen
            seen.add((s_left, s_right))


class TestTauProduct:
    def test_identity_product(self):
        prod = tau_product(identity_perm(2), identity_perm(3))
        assert prod.images == identity_perm(5).images

    def test_linear_factors_give_block_diagonal(self):
        rng = random.Random(23)
        a = rng.choice(list(gl_enumerate(2)))
        b = rng.choice(list(gl_enumerate(3)))
        prod = tau_product(sigma_m(a), sigma_m(b))
        mat = is_linear(prod)
        assert mat is not None
        for i in range(2):
            assert mat.row_bits[i] == a.row_bits[i]
        for i in range(3):
            assert mat.row_bits[2 + i] == b.row_bits[i] << 2

    def test_blockwise_action(self, rng):
        t1 = random_zero_fixing(2, rng)
        t2 = random_zero_fixing(3, rng)
        prod = tau_product(t1, t2)
        for x in range(4):
            for y in range(8):
                assert prod(x | (y << 2)) == t1(x) | (t2(y) << 2)

    def test_block_diagonal_witness_for_point_transitivity(self, rng):
        # component double-coset witnesses assemble into a product witness
        from perfcode.classify import _block_diag

        t1 = random_zero_fixing(3, rng)
        t2 = random_zero_fixing(3, rng)
        w1 = double_coset_member(invert_perm(t1), t1)
        w2 = double_coset_member(invert_perm(t2), t2)
        assert w1 is not None and w2 is not None
        prod = tau_product(t1, t2)
        a_mat = _block_diag(w1[0], w2[0])
        b_mat = _block_diag(w1[1], w2[1])
        from perfcode import invert

        a_inv = invert(a_mat)
        inv_images = invert_perm(prod).images
        assert all(
            inv_images[x] == b_mat.apply(prod(a_inv.apply(x))) for x in range(64)
        )

    def test_induced_flag_conjunction(self, rng):
        t1 = random_zero_fixing(3, rng)
        assert not tau_product(t1, identity_perm(3)).induced


def _rep_code(length: int) -> ExplicitCode:
    return ExplicitCode(length, (0, (1 << length) - 1))


class TestMollard:
    def test_smallest_instance_size(self):
        code = mollard(_rep_code(4), _rep_code(4))
        assert code.size == 2048
        words = code.materialize()
        assert words.length == 16
        assert len(words.words) == 2048

    def test_materialize_matches_contains(self):
        code = mollard(_rep_code(4), _rep_code(4))
        words = set(code.materialize().words)
        rng = random.Random(24)
        for _ in range(500):
            z = rng.randrange(1 << 16)
            assert code.contains(z) == (z in words)

    def test_all_zero_is_member(self):
        code = mollard(_rep_code(4), _rep_code(4))
        assert code.contains(0)
        assert p1(0, 4, 4) == 0 and p2(0, 4, 4) == 0

    def test_projections(self):
        # z with a single one at (row 2, col 1)
        z = 1 << (2 * 4 + 1)
        assert p1(z, 4, 4) == 1 << 2
        assert p2(z, 4, 4) == 1 << 1

    def test_p2_matches_the_column_loop(self):
        def columns(z, t, m):
            out = 0
            for j in range(m):
                acc = 0
                for i in range(t):
                    acc ^= (z >> (i * m + j)) & 1
                out |= acc << j
            return out

        for t in range(1, 9):
            for m in range(1, 8 // t + 1):
                assert all(p2(z, t, m) == columns(z, t, m) for z in range(1 << (t * m)))
        rng = random.Random(41)
        for t, m in ((4, 4), (2, 8), (8, 2)):
            for z in (rng.randrange(1 << (t * m)) for _ in range(3000)):
                assert p2(z, t, m) == columns(z, t, m)

    def test_zero_phi_linear(self):
        words = mollard(_rep_code(4), _rep_code(4)).materialize().words
        wset = set(words)
        for x in words[:64]:
            for y in words[:64]:
                assert (x ^ y) in wset


class TestDub:
    def test_identity(self):
        assert dub1(tuple(range(4)), 4, 4) == tuple(range(16))
        assert dub2(tuple(range(4)), 4, 4) == tuple(range(16))

    def test_all_row_permutations_fix_the_code(self):
        code = mollard(_rep_code(4), _rep_code(4))
        words = set(code.materialize().words)
        for pi in permutations(range(4)):
            lifted = dub1(pi, 4, 4)
            assert {apply_coordinate_perm(w, lifted) for w in words} == words

    def test_all_column_permutations_fix_the_code(self):
        code = mollard(_rep_code(4), _rep_code(4))
        words = set(code.materialize().words)
        for pi in permutations(range(4)):
            lifted = dub2(pi, 4, 4)
            assert {apply_coordinate_perm(w, lifted) for w in words} == words

    def test_dub1_dub2_commute(self):
        rng = random.Random(25)
        pi = tuple(rng.sample(range(4), 4))
        pi2 = tuple(rng.sample(range(4), 4))
        first = dub1(pi, 4, 4)
        second = dub2(pi2, 4, 4)
        composed_a = tuple(first[second[i]] for i in range(16))
        composed_b = tuple(second[first[i]] for i in range(16))
        assert composed_a == composed_b


def _a_tau_oracle(tau: PointPerm) -> tuple[int, ...]:
    """A_tau point by point: C_a holds the words with supports <x,a> = 1 and
    <x,a> = 0, each a parity of x & a at every point x, and A_tau the four
    products of C_a and C_tau(a) for every a."""
    n = 1 << tau.r
    ones = (1 << n) - 1
    pairs = [(f, f ^ ones) for f in (sum(parity(x & a) << x for x in range(n)) for a in range(n))]
    return tuple(sorted({u | (v << n) for a in range(n) for u in pairs[a] for v in pairs[tau.images[a]]}))


class TestHadamard:
    def test_identity_tau_parameters(self):
        code = hadamard_a_tau(identity_perm(3))
        assert code.words.length == 16
        assert len(code.words.words) == 32
        assert brute_min_distance(code.words) == 8

    def test_contains_zero_and_ones(self):
        words = hadamard_a_tau(identity_perm(3)).words.words
        assert 0 in words
        assert (1 << 16) - 1 in words

    def test_c0_is_repetition_pair(self, rng):
        # C_0 x C_0 = {0, 1...1} x {0, 1...1} lies in every A_tau
        for r in range(5):
            n = 1 << r
            ones = (1 << n) - 1
            for tau in (identity_perm(r), random_zero_fixing(r, rng)):
                words = set(hadamard_a_tau(tau).words.words)
                assert {0, ones, ones << n, ones | (ones << n)} <= words

    def test_word_count_is_checked(self, monkeypatch):
        # f_2 = f_1, so the cosets of points 1 and 2 coincide: 28 words, not 32
        import perfcode.constructions as constructions

        span_words = constructions.span_words

        def f2_is_f1(basis):
            f = span_words(basis)
            f[2] = f[1]
            return f

        monkeypatch.setattr(constructions, "span_words", f2_is_f1)
        with pytest.raises(InconsistentInput, match="A_tau has 28 words, not 32"):
            hadamard_a_tau(identity_perm(3))

    def test_matches_the_point_by_point_oracle(self):
        taus = [PointPerm(r, (0, *rest)) for r in range(3) for rest in permutations(range(1, 1 << r))]
        for r, count in ((3, 200), (4, 50)):
            rng = random.Random(40 + r)
            taus += [random_zero_fixing(r, rng) for _ in range(count)]
        for tau in taus:
            assert hadamard_a_tau(tau).words.words == _a_tau_oracle(tau)

    def test_distance_profile(self, rng):
        tau = random_zero_fixing(3, rng)
        words = hadamard_a_tau(tau).words.words
        for i, x in enumerate(words):
            for y in words[i + 1 :]:
                assert weight(x ^ y) in (8, 16)

    def test_isomorphism_by_ga_double_coset(self, rng):
        # A_tau vs A_tau': decided by the affine double-coset sweep
        tau = random_zero_fixing(3, rng)
        mats = list(gl_enumerate(3))
        local = random.Random(26)
        moved = compose(compose(sigma_m(local.choice(mats)), tau), sigma_m(local.choice(mats)))
        assert double_coset_member(moved, tau, group="GA") is not None
        assert double_coset_member(invert_perm(tau), tau, group="GA") is not None
