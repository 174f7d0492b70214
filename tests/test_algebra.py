import random
from itertools import product

import numpy as np
import pytest

from perfcode import (
    AffineTransform,
    BitMatrix,
    DimensionMismatch,
    NotInvertible,
    PointPerm,
    ZeroNotFixed,
    BudgetExceeded,
    compose,
    count_linear_products,
    double_coset_member,
    gl_enumerate,
    gl_order,
    identity_matrix,
    identity_perm,
    invert,
    invert_perm,
    is_linear,
    rank,
    sigma_am,
    sigma_m,
)
from perfcode._bits import nullspace_basis, span_dim, span_words
from perfcode import algebra as algebra_module
from perfcode.algebra import (
    _linear_solutions,
    conjugate_rows,
    gl_rows_cached,
    inverse_rows,
    pack_rows,
    point_spectra,
    spectra_bytes,
    spectrum_keys,
    unpack_codes,
)
from perfcode.codes import hamming_parity_rows, perm_rank
from conftest import random_gl, random_zero_fixing
from sweep_oracle import sigma_table, sweep, sweep_count, sweep_member


def xor_span_size(rows) -> int:
    """Oracle: size of the XOR span by explicit enumeration."""
    span = {0}
    for row in rows:
        span |= {x ^ row for x in span}
    return len(span)


class TestBitWord:
    def test_addition_is_involution(self):
        from perfcode import BitWord

        x = BitWord(8, 0b10110010)
        assert (x ^ x).value == 0
        y = BitWord(8, 0b00001111)
        assert ((x ^ y) ^ y) == x

    def test_weight_identity(self):
        from perfcode import BitWord

        rng = random.Random(9)
        for _ in range(50):
            x = BitWord(10, rng.randrange(1 << 10))
            y = BitWord(10, rng.randrange(1 << 10))
            assert (x ^ y).weight == x.weight + y.weight - 2 * (x & y).weight

    def test_range_and_length_checks(self):
        from perfcode import BitWord

        for value in (-1, 8):
            with pytest.raises(ValueError, match="out of range"):
                BitWord(3, value)
        x, y = BitWord(3, 5), BitWord(4, 5)
        with pytest.raises(DimensionMismatch):
            x ^ y
        with pytest.raises(DimensionMismatch):
            x & y

    def test_bits_are_little_endian(self):
        from perfcode import BitWord

        x = BitWord(5, 0b10110)
        assert x.bits() == (0, 1, 1, 0, 1)
        assert [x.bit(j) for j in range(5)] == list(x.bits())


class TestRank:
    def test_identity(self):
        assert rank(identity_matrix(3)) == 3

    def test_zero(self):
        assert rank(BitMatrix(4, 4, (0, 0, 0, 0))) == 0

    def test_rectangular_against_enumeration(self):
        # rows 110, 011 over 3 columns; leftmost char is column 1
        m = BitMatrix(2, 3, (0b011, 0b110))
        expected = xor_span_size(m.row_bits).bit_length() - 1
        assert expected == 2
        assert rank(m) == 2

    def test_random_against_enumeration(self):
        rng = random.Random(1)
        for _ in range(30):
            rows = tuple(rng.randrange(16) for _ in range(rng.randrange(1, 5)))
            m = BitMatrix(len(rows), 4, rows)
            assert rank(m) == xor_span_size(rows).bit_length() - 1


class TestInvert:
    def test_identity(self):
        assert invert(identity_matrix(4)) == identity_matrix(4)

    def test_permutation_matrix_transpose(self):
        m = BitMatrix(3, 3, (0b010, 0b100, 0b001))
        assert invert(m) == m.transpose()

    def test_transpose_entries(self):
        rng = random.Random(13)
        for _ in range(50):
            rows, cols = rng.randrange(0, 6), rng.randrange(0, 6)
            m = BitMatrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))
            t = m.transpose()
            assert (t.rows, t.cols) == (cols, rows)
            assert all(t.entry(j, i) == m.entry(i, j) for i in range(rows) for j in range(cols))

    def test_singular(self):
        with pytest.raises(NotInvertible):
            invert(BitMatrix(3, 3, (0b011, 0b011, 0b100)))
        with pytest.raises(NotInvertible, match="not square"):
            invert(BitMatrix(2, 3, (0b001, 0b010)))

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="row count"):
            BitMatrix(2, 3, (0b001,))
        for row in (-1, 0b1000):
            with pytest.raises(ValueError, match="out of range"):
                BitMatrix(1, 3, (row,))
        with pytest.raises(DimensionMismatch):
            identity_matrix(2) @ identity_matrix(3)

    def test_involution_and_product(self):
        rng = random.Random(2)
        mats = list(gl_enumerate(3))
        for _ in range(20):
            m = rng.choice(mats)
            mi = invert(m)
            assert invert(mi) == m
            assert m @ mi == identity_matrix(3)
            assert mi @ m == identity_matrix(3)


class TestInvertOracle:
    """invert against the point action: M is invertible iff b -> M b is a
    bijection of F^r, and then the inverse undoes it at every point."""

    @staticmethod
    def check(m: BitMatrix):
        points = [m.apply(b) for b in range(1 << m.rows)]
        if len(set(points)) < len(points):
            with pytest.raises(NotInvertible):
                invert(m)
            return
        mi = invert(m)
        assert all(mi.apply(p) == b for b, p in enumerate(points))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_exhaustive(self, r):
        for rows in product(range(1 << r), repeat=r):
            self.check(BitMatrix(r, r, rows))

    def test_random_r4(self):
        rng = random.Random(11)
        for _ in range(3000):
            self.check(BitMatrix(4, 4, tuple(rng.randrange(16) for _ in range(4))))


class TestNullspaceOracle:
    """nullspace_basis against enumerating every vector of F^ncols."""

    @staticmethod
    def check(rows, ncols: int):
        basis = nullspace_basis(rows, ncols)
        kernel = {
            x for x in range(1 << ncols) if all(bin(row & x).count("1") % 2 == 0 for row in rows)
        }
        assert span_dim(basis) == len(basis)
        assert set(span_words(basis)) == kernel

    def test_random(self):
        rng = random.Random(12)
        for _ in range(300):
            ncols = rng.randrange(1, 9)
            rows = [rng.randrange(1 << ncols) for _ in range(rng.randrange(0, 9))]
            self.check(rows, ncols)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_extended_hamming_parity_checks(self, r):
        self.check(hamming_parity_rows(r), 1 << r)


def _oracle_sweep(left, right, group="GL"):
    """Yield (A, a, left o sigma_{a,A} o right) over GL(r,2) in enumeration
    order (and a in F^r, A-major, for GA) where the map is linear, or
    affine for GA; pure Python, one candidate at a time."""
    r = left.r
    for m in gl_enumerate(r):
        for a in range(1 << r) if group == "GA" else (0,):
            cand = compose(compose(left, sigma_am(a, m)), right)
            t0 = cand.images[0]
            lin = is_linear(PointPerm(r, tuple(x ^ t0 for x in cand.images)))
            if lin is not None:
                yield m, a, AffineTransform(t0, lin)


def _oracle_member(tau_p, tau, group="GL"):
    hit = next(_oracle_sweep(tau_p, invert_perm(tau), group), None)
    if hit is None:
        return None
    m, a, b = hit
    return (m, b.m) if group == "GL" else (AffineTransform(a, m), b)


def _rebuilds(witness, tau_p, tau, group="GL"):
    """The witness maps tau to tau' at every point:
    tau' = sigma_B o tau o sigma_A^{-1} (affine maps for GA)."""
    if group == "GL":
        a_perm, b_perm = sigma_m(witness[0]), sigma_m(witness[1])
    else:
        a_perm, b_perm = witness[0].as_perm(), witness[1].as_perm()
    return compose(compose(b_perm, tau), invert_perm(a_perm)).images == tau_p.images


def _check_member(tau_p, tau, group="GL"):
    """The search agrees with the sweep oracle on hit or miss, and a
    returned witness rebuilds tau'; returns whether it was a hit."""
    witness = double_coset_member(tau_p, tau, group=group)
    assert (witness is None) == (sweep_member(tau_p, tau, group) is None)
    assert witness is None or _rebuilds(witness, tau_p, tau, group)
    return witness is not None


class TestSweepOracle:
    """The double-coset search against the GL/GA sweep of tests/sweep_oracle.py
    at r=3, and that sweep against a pure-Python walk of GL(3,2)."""

    @pytest.fixture()
    def pairs(self):
        local = random.Random(13)
        taus = [random_zero_fixing(3, local) for _ in range(8)]
        return [(t, u) for t in taus for u in taus[:4]]

    @pytest.mark.parametrize("group", ["GL", "GA"])
    def test_hit_miss_and_witness(self, pairs, r3_taus, group):
        local = random.Random(16)
        catalog = local.sample(r3_taus, 12)
        pairs = pairs + [(t, u) for t in catalog for u in catalog[:3]]
        pairs += [(invert_perm(t), t) for t in catalog]
        hits = sum(_check_member(t, u, group) for t, u in pairs)
        assert 0 < hits < len(pairs)

    @pytest.mark.parametrize("group", ["GL", "GA"])
    def test_oracle_first_witness(self, pairs, group):
        assert [sweep_member(t, u, group) for t, u in pairs] == [
            _oracle_member(t, u, group) for t, u in pairs
        ]

    def test_counts(self, pairs):
        for t, u in pairs[:12]:
            for right in (u, invert_perm(u)):
                expect = sum(1 for _ in _oracle_sweep(t, right))
                assert count_linear_products(t, right) == expect == sweep_count(t, right)

    def test_counts_without_fixed_zero(self):
        # the count is defined for any permutations, not only zero-fixing ones
        local = random.Random(17)
        for _ in range(10):
            left, right = (PointPerm(3, tuple(local.sample(range(8), 8))) for _ in range(2))
            assert count_linear_products(left, right) == sweep_count(left, right)

    def test_r5_hit_deep_in_gl_order(self):
        # A has the largest first row, so it sits past nearly all of the
        # 9,999,360 matrices in GL(5,2) enumeration order
        local = random.Random(14)
        a_mat = BitMatrix(5, 5, (31, 30, 28, 24, 16))
        for _ in range(3):
            tau = random_zero_fixing(5, local)
            b_mat = BitMatrix(5, 5, tuple(local.sample([1, 2, 4, 8, 16], 5)))
            tau_p = compose(compose(sigma_m(b_mat), tau), invert_perm(sigma_m(a_mat)))
            witness = double_coset_member(tau_p, tau)
            assert witness is not None and _rebuilds(witness, tau_p, tau)

    def test_r5_affine(self):
        local = random.Random(15)
        a_t = AffineTransform(local.randrange(32), BitMatrix(5, 5, (31, 29, 25, 17, 1)))
        b_t = AffineTransform(local.randrange(32), BitMatrix(5, 5, (1, 3, 7, 15, 31)))
        tau = random_zero_fixing(5, local)
        tau_p = compose(compose(b_t.as_perm(), tau), invert_perm(a_t.as_perm()))
        witness = double_coset_member(tau_p, tau, group="GA")
        assert witness is not None and _rebuilds(witness, tau_p, tau, "GA")

    def test_r5_miss(self):
        # perm_rank is constant on GL double cosets, so a rank gap proves a miss
        local = random.Random(18)
        taus = [random_zero_fixing(5, local) for _ in range(2)]
        taus.append(compose(taus[0], sigma_m(BitMatrix(5, 5, (31, 30, 28, 24, 16)))))
        lin = sigma_m(BitMatrix(5, 5, (3, 2, 4, 8, 16)))
        for tau in taus:
            assert perm_rank(tau) > perm_rank(lin)
            assert double_coset_member(tau, lin) is None
            assert double_coset_member(lin, tau) is None


class TestSearchR4:
    """The double-coset search against the sweep oracle at r=4: census
    hits, random misses, tau^{-1} against tau, constructed hits, GA, and
    exact counts."""

    def test_census_taus_against_their_representative(self, r4_prefix_min_kernel):
        rep = r4_prefix_min_kernel[0]
        rep_inv = invert_perm(rep)
        for tau in r4_prefix_min_kernel:
            assert _check_member(tau, rep) or _check_member(tau, rep_inv)

    def test_random_pairs_miss(self):
        local = random.Random(41)
        taus = [random_zero_fixing(4, local) for _ in range(12)]
        hits = [_check_member(t, u) for t in taus for u in taus[:3] if t is not u]
        assert not any(hits)

    def test_inverse_against_tau(self, r4_prefix_min_kernel):
        local = random.Random(42)
        taus = [random_zero_fixing(4, local) for _ in range(10)]
        taus += local.sample(r4_prefix_min_kernel, 10)
        hits = sum(_check_member(invert_perm(t), t) for t in taus)
        assert 10 <= hits < len(taus)

    def test_constructed_hits(self):
        local = random.Random(43)
        mats = list(gl_enumerate(4))
        for _ in range(10):
            tau = random_zero_fixing(4, local)
            tau_p = compose(compose(sigma_m(local.choice(mats)), tau), sigma_m(local.choice(mats)))
            assert _check_member(tau_p, tau)

    def test_affine_hits_and_misses(self):
        local = random.Random(44)
        mats = list(gl_enumerate(4))
        for _ in range(3):
            tau = random_zero_fixing(4, local)
            a_t = AffineTransform(local.randrange(16), local.choice(mats))
            b_t = AffineTransform(local.randrange(16), local.choice(mats))
            tau_p = compose(compose(b_t.as_perm(), tau), a_t.as_perm())
            assert _check_member(tau_p, tau, "GA")
            assert not _check_member(random_zero_fixing(4, local), tau, "GA")

    def test_counts(self, r4_prefix_min_kernel):
        local = random.Random(45)
        taus = [random_zero_fixing(4, local) for _ in range(4)]
        taus += local.sample(r4_prefix_min_kernel, 4) + [identity_perm(4)]
        for tau in taus:
            for right in (tau, invert_perm(tau)):
                assert count_linear_products(tau, right) == sweep_count(tau, right)

    def test_two_sided_products_inverses_and_misses(self):
        # 20 seeded pairs against one tau each: sigma_B tau sigma_A^-1 with
        # A != B (a hit), tau^-1, the product's inverse, and a random miss
        local = random.Random(48)
        mats = list(gl_enumerate(4))
        pairs = []
        for _ in range(5):
            tau = random_zero_fixing(4, local)
            a_mat, b_mat = local.sample(mats, 2)
            prod = compose(compose(sigma_m(b_mat), tau), invert_perm(sigma_m(a_mat)))
            pairs += [(prod, tau), (invert_perm(tau), tau), (invert_perm(prod), tau)]
            pairs.append((random_zero_fixing(4, local), tau))
        hits = [_check_member(t, u) for t, u in pairs]
        assert all(hits[0::4]) and not any(hits[3::4])
        assert hits[1::4] == hits[2::4]
        for t, u in pairs:
            for right in (u, invert_perm(u)):
                assert count_linear_products(t, right) == sweep_count(t, right)


def _assert_sweep_solutions(left, right):
    """The search yields the point map of every A that the sweep marks for
    left o sigma_A o right, each once: its sorted copies equal the sweep's."""
    found = sorted(tuple(m) for m in _linear_solutions(left.images, invert_perm(right).images, left.r))
    swept = sorted(map(tuple, sigma_table(left.r)[sweep(left, right)[1]].tolist()))
    assert found == swept
    return len(found)


class TestSolutionSets:
    """The solution sets of the N0 and N1 problems (right = tau^{-1} and
    right = tau), map by map against the sweep, not only by count."""

    def test_r3_catalog(self, r3_taus):
        counts = [_assert_sweep_solutions(t, right) for t in r3_taus for right in (invert_perm(t), t)]
        assert min(counts[0::2]) >= 1 and max(counts[1::2]) > 1

    def test_r4_with_conjugates_and_inverses(self, r4_prefix_min_kernel):
        local = random.Random(46)
        mats = list(gl_enumerate(4))
        taus = [random_zero_fixing(4, local) for _ in range(4)] + local.sample(r4_prefix_min_kernel, 2)
        for tau in list(taus):
            a_mat, b_mat = local.sample(mats, 2)
            conj = compose(compose(sigma_m(a_mat), tau), sigma_m(invert(a_mat)))
            prod = compose(compose(sigma_m(b_mat), tau), sigma_m(invert(a_mat)))
            taus += [invert_perm(tau), conj, invert_perm(conj), prod]
        counts = [_assert_sweep_solutions(t, right) for t in taus for right in (invert_perm(t), t)]
        assert max(counts) > 1 and 0 in counts


def _additive(images) -> bool:
    """Oracle: f(x ^ y) = f(x) ^ f(y) for every pair of points, one at a time."""
    n = len(images)
    return all(images[x ^ y] == images[x] ^ images[y] for x in range(n) for y in range(n))


class TestSearchBeyondTheSweep:
    """The search at r=5, where no sweep runs: each A it yields is checked
    point by point, and a planted solution must be among them."""

    def test_r5_solutions_make_linear_products(self):
        local = random.Random(47)
        # three random taus, and a point transitive one whose many solutions
        # leave the spectra little to prune
        taus = [random_zero_fixing(5, local) for _ in range(3)]
        taus.append(PointPerm(5, (0, 2, 1, 3, 16, 22, 17, 7, 8, 30, 13, 11, 24, 10, 29, 15,
                                  4, 6, 21, 23, 20, 18, 5, 19, 12, 26, 25, 31, 28, 14, 9, 27)))
        for tau in taus:
            assert is_linear(tau) is None
            c_mat, d_mat = random_gl(5, local), random_gl(5, local)
            found = []
            # A = I solves the first; tau o sigma_A o (sigma_D tau^-1 sigma_C)
            # is sigma_C at A = D^-1, which the third must find
            for left, right in (
                (tau, invert_perm(tau)),
                (tau, tau),
                (tau, compose(compose(sigma_m(d_mat), invert_perm(tau)), sigma_m(c_mat))),
            ):
                maps = [tuple(m) for m in _linear_solutions(left.images, invert_perm(right).images, 5)]
                assert len(set(maps)) == len(maps)
                for amap in maps:
                    assert sorted(amap) == list(range(32)) and _additive(amap)
                    assert _additive([left.images[amap[right.images[x]]] for x in range(32)])
                found.append(maps)
            assert identity_perm(5).images in found[0]
            assert sigma_m(invert(d_mat)).images in found[2]

    @pytest.mark.parametrize("r", [4, 5])
    def test_counts_constant_under_gl_moves_of_left(self, r):
        # sigma_B o left o sigma_A o sigma_X o right is linear iff
        # left o sigma_{AX} o right is, so the count does not move
        local = random.Random(60 + r)
        for _ in range(2):
            tau = random_zero_fixing(r, local)
            for right in (invert_perm(tau), tau):
                expect = count_linear_products(tau, right)
                left = tau
                for _ in range(3):
                    a_mat, b_mat = random_gl(r, local), random_gl(r, local)
                    left = compose(compose(sigma_m(b_mat), left), sigma_m(a_mat))
                    assert count_linear_products(left, right) == expect
            assert count_linear_products(tau, invert_perm(tau)) >= 1


def _difference_table(images) -> list[list[int]]:
    """Oracle: D_f[x][a] = #{y : f(x ^ y) ^ f(y) = a}, one pair at a time."""
    n = len(images)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[x][images[x ^ y] ^ images[y]] += 1
    return table


class TestPointSpectra:
    """point_spectra against a pure-Python difference table, and the two
    laws that the search and the classifier rely on."""

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_rows_and_columns_of_the_table(self, r):
        # tau's spectra are the rows of its table, with c_tau(x) = D[x][tau(x)];
        # the spectra of tau^-1 are its columns, with D[tau^-1(u)][u]
        local = random.Random(46 + r)
        for _ in range(3):
            tau = random_zero_fixing(r, local)
            inv = invert_perm(tau).images
            table = _difference_table(tau.images)
            rows = [[table[x][tau(x)]] + sorted(table[x]) for x in range(1 << r)]
            cols = [[table[inv[u]][u]] + sorted(row[u] for row in table) for u in range(1 << r)]
            assert point_spectra(tau.images).tolist() == rows
            assert point_spectra([tau.images, inv]).tolist() == [rows, cols]

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_batch_keys_are_spectrum_keys(self, monkeypatch, r):
        # one batch of rows and their inverses encodes every row as
        # spectrum_keys does, byte for byte; entered keys are not recomputed
        local = random.Random(56 + r)
        rows = np.array([random_zero_fixing(r, local).images for _ in range(5)], dtype=np.int8)
        rows = np.concatenate([rows, inverse_rows(rows)])
        batch = spectra_bytes(rows)
        algebra_module._spectra.clear()
        assert [tuple(keys) for keys in batch] == [spectrum_keys(tuple(row))[0] for row in rows.tolist()]
        assert all(type(key) is bytes and len(key) == (1 << r) + 1 for keys in batch for key in keys)

        algebra_module._spectra.clear()
        computed = []
        monkeypatch.setattr(algebra_module, "point_spectra", lambda images: computed.append(images))
        pairs = [(tuple(row), keys) for row, keys in zip(rows.tolist(), batch)]
        assert [spectrum_keys(*pair)[1] for pair in pairs[:2]] == [tuple(sorted(keys)) for keys in batch[:2]]
        for images, keys in pairs:
            assert spectrum_keys(images, keys)[1] == tuple(sorted(keys))
            assert spectrum_keys(images) == (tuple(keys), tuple(sorted(keys)))
        assert computed == []

    @pytest.mark.parametrize("r, zero_fixing", [(3, True), (4, True), (5, True), (3, False)])
    def test_constant_on_double_cosets(self, r, zero_fixing):
        # g = sigma_B tau sigma_A^-1 gives A x the spectrum of x, so the
        # multisets of spectra of tau and g are equal
        local = random.Random(50 + r)
        for _ in range(6):
            if zero_fixing:
                tau = random_zero_fixing(r, local)
            else:
                tau = PointPerm(r, tuple(local.sample(range(1 << r), 1 << r)))
            a_mat, b_mat = random_gl(r, local), random_gl(r, local)
            g = compose(compose(sigma_m(b_mat), tau), invert_perm(sigma_m(a_mat)))
            spectra_f, spectra_g = point_spectra([tau.images, g.images]).tolist()
            assert [spectra_g[a_mat.apply(x)] for x in range(1 << r)] == spectra_f


class TestGlEnumerate:
    @pytest.mark.parametrize("r,count", [(2, 6), (3, 168), (4, 20160)])
    def test_counts(self, r, count):
        mats = list(gl_enumerate(r))
        assert len(mats) == count == gl_order(r)
        assert len(set(m.row_bits for m in mats)) == count

    def test_all_invertible(self):
        assert all(rank(m) == 3 for m in gl_enumerate(3))

    def test_enumeration_order_is_sorted(self):
        rows = [m.row_bits for m in gl_enumerate(3)]
        assert rows == sorted(rows)
        assert rows[0] == (1, 2, 4)  # identity comes first

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            list(gl_enumerate(7))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_cached_rows_match_filtered_product(self, r):
        expect = [rows for rows in product(range(1 << r), repeat=r) if span_dim(rows) == r]
        assert gl_rows_cached(r) == tuple(expect)

    def test_r5_stream_prefix(self):
        stream = gl_enumerate(5)
        first = next(stream)
        assert first == identity_matrix(5)
        assert gl_order(5) == 9999360


class TestIsLinear:
    def test_identity(self):
        assert is_linear(identity_perm(3)) == identity_matrix(3)

    def test_sigma_m_roundtrip(self):
        rng = random.Random(3)
        mats = list(gl_enumerate(3))
        for _ in range(20):
            m = rng.choice(mats)
            assert is_linear(sigma_m(m)) == m

    def test_additivity_violation(self):
        # swap two non-basis points of the identity map: basis images stay
        # intact but additivity breaks at a witness point
        images = list(range(8))
        images[3], images[5] = images[5], images[3]
        assert is_linear(PointPerm(3, tuple(images))) is None

    def test_zero_not_fixed(self):
        images = (1, 0, 2, 3, 4, 5, 6, 7)
        with pytest.raises(ZeroNotFixed):
            is_linear(PointPerm(3, images))

    def test_table_budget(self):
        # the 4^r additivity table is refused before it is built
        with pytest.raises(BudgetExceeded):
            is_linear(identity_perm(13))

    def test_exhaustive_additivity_equivalence_r2(self):
        # over all 6 zero-fixing permutations of F^2: linear iff additive
        from itertools import permutations

        for rest in permutations((1, 2, 3)):
            tau = PointPerm(2, (0,) + rest)
            additive = all(
                tau(a ^ b) == tau(a) ^ tau(b) for a in range(4) for b in range(4)
            )
            assert (is_linear(tau) is not None) == additive


class TestCompose:
    def test_identity_neutral(self, rng):
        tau = random_zero_fixing(3, rng)
        assert compose(tau, identity_perm(3)).images == tau.images
        assert compose(identity_perm(3), tau).images == tau.images

    def test_inverse(self, rng):
        tau = random_zero_fixing(3, rng)
        assert compose(tau, invert_perm(tau)).images == identity_perm(3).images

    def test_sigma_product_pointwise(self):
        rng = random.Random(4)
        mats = list(gl_enumerate(3))
        for _ in range(10):
            a, b = rng.choice(mats), rng.choice(mats)
            lhs = compose(sigma_m(a), sigma_m(b))
            ab = a @ b
            for point in range(8):
                assert lhs(point) == ab.apply(point)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(identity_perm(3), identity_perm(4))


class TestPointMaps:
    """The one kernel that applies matrices to every point, against BitMatrix.apply."""

    @pytest.mark.parametrize("r", range(13))
    def test_matches_apply(self, r):
        rng = random.Random(300 + r)
        mats = [identity_matrix(r), random_gl(r, rng) if r else identity_matrix(0)]
        mats.append(BitMatrix(r, r, tuple(rng.randrange(1 << r) for _ in range(r))))  # maybe singular
        maps = algebra_module.point_maps([m.row_bits for m in mats], r)
        assert maps.shape == (3, 1 << r)
        assert maps.tolist() == [[m.apply(b) for b in range(1 << r)] for m in mats]
        a = rng.randrange(1 << r)
        assert sigma_am(a, mats[1]).images == tuple(a ^ mats[1].apply(b) for b in range(1 << r))

    @pytest.mark.parametrize("r", [0, 3, 12])
    def test_no_matrices(self, r):
        assert algebra_module.point_maps([], r).shape == (0, 1 << r)

    @pytest.mark.parametrize("a", [8, 9, -1])
    def test_translation_out_of_range(self, a):
        ident = identity_matrix(3)
        for call in (lambda: sigma_am(a, ident), lambda: AffineTransform(a, ident).as_perm()):
            with pytest.raises(DimensionMismatch, match=rf"^a translation of F\^3 lies in \[0, 8\), got {a}$"):
                call()


def random_rows(r: int, count: int, rng: random.Random) -> np.ndarray:
    """`count` random permutations of the 2^r points, as int8 image rows."""
    n = 1 << r
    return np.array([rng.sample(range(n), n) for _ in range(count)], dtype=np.int8).reshape(count, n)


def non_involution(r: int, rng: random.Random) -> BitMatrix:
    """A random M in GL(r,2) with M M != I, so that sigma_M^-1 != sigma_M."""
    while (m := random_gl(r, rng)) @ m == identity_matrix(r):
        pass
    return m


class TestRowPermutations:
    """The row inverse and the row conjugation against PointPerm products."""

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_inverse_rows_match_invert_perm(self, r, rng):
        for count in (0, 1, 9):
            rows = random_rows(r, count, rng)
            inv = inverse_rows(rows)
            assert inv.dtype == rows.dtype and inv.shape == rows.shape
            assert inv.tolist() == [list(invert_perm(PointPerm(r, tuple(row))).images) for row in rows.tolist()]

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_conjugate_rows_match_compose(self, r, rng):
        # sigma_M tau sigma_M^-1 for one M at a time, on batches of every size
        for count in (0, 1, 9):
            rows = random_rows(r, count, rng)
            for _ in range(3):
                m = non_involution(r, rng)
                sigma, sigma_inv = sigma_m(m), sigma_m(invert(m))
                got = conjugate_rows(rows, np.array(sigma.images))
                assert got.dtype == rows.dtype and got.shape == rows.shape
                taus = [PointPerm(r, tuple(row)) for row in rows.tolist()]
                assert got.tolist() == [list(compose(compose(sigma, tau), sigma_inv).images) for tau in taus]

    @pytest.mark.parametrize("r", [3, 4])
    def test_conjugate_rows_by_a_stack_of_point_maps(self, r, rng):
        # every row by every point map: shape rows.shape[:-1] + sigma.shape
        rows = random_rows(r, 5, rng)
        mats = [non_involution(r, rng) for _ in range(4)]
        sigmas = np.array([sigma_m(m).images for m in mats], dtype=np.int16)
        got = conjugate_rows(rows, sigmas)
        assert got.dtype == rows.dtype and got.shape == (5, 4, 1 << r)
        for row, conj_row in zip(rows.tolist(), got.tolist()):
            tau = PointPerm(r, tuple(row))
            assert conj_row == [list(compose(compose(sigma_m(m), tau), sigma_m(invert(m))).images) for m in mats]


    @pytest.mark.parametrize("r", [3, 4])
    def test_packed_codes_order_like_the_rows(self, r, rng):
        # seeded rows, some repeated and some that differ only in their last
        # two images; at r=4 an image of 8 or more at point 0 sets the top bit
        rows = random_rows(r, 300, rng)
        swapped = rows[:50].copy()
        swapped[:, [-2, -1]] = swapped[:, [-1, -2]]
        rows = np.concatenate([rows, rows[:20], swapped])
        codes = pack_rows(rows)
        assert codes.dtype == np.uint64 and codes.shape == (len(rows),)
        assert np.array_equal(np.argsort(codes, kind="stable"), np.lexsort(rows.T[::-1]))
        assert len(np.unique(codes)) == len(np.unique(rows, axis=0))
        assert np.array_equal(unpack_codes(codes, 1 << r), rows)
        # a stack of rows packs row by row
        assert np.array_equal(pack_rows(rows[:60].reshape(3, 20, -1)), codes[:60].reshape(3, 20))


class TestDoubleCoset:
    def test_self_witness_is_identity(self, rng):
        tau = random_zero_fixing(3, rng)
        witness = double_coset_member(tau, tau)
        assert witness == (identity_matrix(3), identity_matrix(3))

    def test_member_by_construction(self):
        rng = random.Random(5)
        mats = list(gl_enumerate(3))
        for _ in range(5):
            tau = random_zero_fixing(3, rng)
            m, n = rng.choice(mats), rng.choice(mats)
            tau_p = compose(compose(sigma_m(m), tau), sigma_m(n))
            witness = double_coset_member(tau_p, tau)
            assert witness is not None
            a_mat, b_mat = witness
            # verify: tau' = sigma_B o tau o sigma_A^{-1}
            rebuilt = compose(compose(sigma_m(b_mat), tau), invert_perm(sigma_m(a_mat)))
            assert rebuilt.images == tau_p.images

    def test_inverse_always_member_at_r3(self, rng):
        # every zero-fixing tau at r=3 lies in one double coset with its inverse
        for _ in range(10):
            tau = random_zero_fixing(3, rng)
            assert double_coset_member(invert_perm(tau), tau) is not None

    def test_symmetric_relation(self, rng):
        for _ in range(10):
            tau = random_zero_fixing(3, rng)
            tau_p = random_zero_fixing(3, rng)
            fwd = double_coset_member(tau_p, tau) is not None
            bwd = double_coset_member(tau, tau_p) is not None
            assert fwd == bwd

    def test_invariance_under_translation_of_the_coset(self, rng):
        mats = list(gl_enumerate(3))
        local = random.Random(6)
        tau = random_zero_fixing(3, rng)
        tau_p = random_zero_fixing(3, rng)
        base = double_coset_member(tau_p, tau) is not None
        for _ in range(5):
            m, n = local.choice(mats), local.choice(mats)
            moved = compose(compose(sigma_m(m), tau), sigma_m(n))
            assert (double_coset_member(tau_p, moved) is not None) == base

    def test_ga_variant_accepts_affine_pairs(self):
        rng = random.Random(7)
        mats = list(gl_enumerate(3))
        tau = random_zero_fixing(3, rng)
        a_t = AffineTransform(5, rng.choice(mats))
        b_t = AffineTransform(3, rng.choice(mats))
        tau_p = compose(compose(b_t.as_perm(), tau), a_t.as_perm())
        witness = double_coset_member(tau_p, tau, group="GA")
        assert witness is not None
        wa, wb = witness
        rebuilt = compose(compose(wb.as_perm(), tau), invert_perm(wa.as_perm()))
        assert rebuilt.images == tau_p.images

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            double_coset_member(identity_perm(6), identity_perm(6))
        with pytest.raises(BudgetExceeded):
            count_linear_products(identity_perm(6), identity_perm(6))

    def test_input_guards(self):
        for search in (double_coset_member, count_linear_products):
            with pytest.raises(DimensionMismatch):
                search(identity_perm(3), identity_perm(4))
        with pytest.raises(ValueError, match="unknown group 'AGL'"):
            double_coset_member(identity_perm(3), identity_perm(3), group="AGL")


class TestAffineTransform:
    def test_action(self):
        t = AffineTransform(0b101, identity_matrix(3))
        assert t.apply(0) == 0b101
        assert t.apply(0b101) == 0

    def test_compose_matches_pointwise(self):
        rng = random.Random(8)
        mats = list(gl_enumerate(3))
        for _ in range(10):
            t1 = AffineTransform(rng.randrange(8), rng.choice(mats))
            t2 = AffineTransform(rng.randrange(8), rng.choice(mats))
            composed = t1.compose(t2)
            for b in range(8):
                assert composed.apply(b) == t1.apply(t2.apply(b))
