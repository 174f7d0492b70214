import copy
import dataclasses
import functools
import hashlib
import pickle
import random
import signal
from collections import Counter
from itertools import islice, permutations, product
from types import SimpleNamespace

import numpy as np
import pytest

from aut_oracle import closure, closure_automorphism_perms
from enum_oracle import all_pairs_regular_idx
from perfcode import regular_groups
from perfcode.algebra import gl_enumerate, gl_order, gl_rows_cached, unpack_codes
from perfcode.algebra import invert as mat_invert
from perfcode import (
    BitMatrix,
    BudgetExceeded,
    DimensionMismatch,
    GroupAutomorphism,
    InconsistentInput,
    NotAnAutomorphism,
    PointPerm,
    RegularSubgroup,
    automorphisms,
    catalog_taus,
    classify,
    enumerate_regular_subgroups,
    identity_matrix,
    identity_perm,
    induced_tau,
    invert_perm,
    is_linear,
    point_transitive,
    sigma_m,
    verify_regular,
)


def translations(r: int) -> RegularSubgroup:
    ident = identity_matrix(r)
    return RegularSubgroup(r=r, mats=tuple(ident for _ in range(1 << r)))


def group_table_is_a_group(group: RegularSubgroup) -> bool:
    """Oracle: the 2^r labeled affine maps form a group under composition."""
    n = 1 << group.r
    mul = group.mult_table()
    # closure and Latin-square property
    for a in range(n):
        if sorted(mul[a]) != list(range(n)):
            return False
        if mul[0][a] != a or mul[a][0] != a:
            return False
    # inverses: some b with a*b = 0
    for a in range(n):
        if not any(mul[a][b] == 0 for b in range(n)):
            return False
    # associativity by direct check of the affine composition law
    for a in range(n):
        for b in range(n):
            for c in range(0, n, 3):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False
    return True


def verify_regular_pairs(group: RegularSubgroup):
    """Oracle: M_0 = I first, then pair by pair that M_a maps b to a point
    it maps no earlier b' to and the closure law M_{a + M_a b} = M_a M_b,
    with BitMatrix.apply and @."""
    n = 1 << group.r
    if group.mats[0] != identity_matrix(group.r):
        return regular_groups.ClosureViolation(0, 0)
    for a in range(n):
        ma = group.mats[a]
        images = [ma.apply(b) for b in range(n)]
        for b in range(n):
            if images[b] in images[:b] or group.mats[a ^ images[b]] != ma @ group.mats[b]:
                return regular_groups.ClosureViolation(a, b)
    return None


def broken_product(group: RegularSubgroup, images) -> tuple[int, int] | None:
    """Oracle: the first pair (a, b) in row-major order whose product g_a g_b
    = g_{a + M_a b} the label map `images` breaks, with BitMatrix.apply."""
    n, mats = 1 << group.r, group.mats
    for a in range(n):
        for b in range(n):
            ia = images[a]
            if images[a ^ mats[a].apply(b)] != ia ^ mats[ia].apply(images[b]):
                return a, b
    return None


def product_group(group: RegularSubgroup, k: int) -> RegularSubgroup:
    """G x F^k as a regular subgroup of GA(r + k, 2): the label a + 2^r c
    carries diag(M_a, I_k)."""
    r = group.r
    mats = [BitMatrix(r + k, r + k, m.row_bits + tuple(1 << (r + i) for i in range(k))) for m in group.mats]
    return RegularSubgroup(r + k, tuple(mats[a % (1 << r)] for a in range(1 << (r + k))))


def zero_matrices() -> RegularSubgroup:
    """M_0 = I and M_a = 0 for a != 0: every product law holds, but g_1 maps
    every point to 1, so verify_regular reports (1, 1)."""
    return RegularSubgroup(3, (identity_matrix(3),) + (BitMatrix(3, 3, (0, 0, 0)),) * 7)


def not_a_group() -> RegularSubgroup:
    """M_0 = I and M_a = M for a != 0, M's rows (3, 2, 4): no power of label 2
    is the identity, and verify_regular reports (1, 2)."""
    m = BitMatrix(3, 3, (3, 2, 4))
    return RegularSubgroup(3, (identity_matrix(3),) + (m,) * 7)


class TestVerifyRegular:
    def test_translations_ok(self):
        assert verify_regular(translations(3)) is None

    def test_matches_the_pair_oracle_on_groups_and_perturbations(self):
        # every r=3 group and 60 r=4 groups, each with one matrix replaced by a
        # random (possibly singular) one: equal first violations
        rng = random.Random(44)
        groups = list(enumerate_regular_subgroups(3)) + list(islice(enumerate_regular_subgroups(4), 60))
        seen = Counter()
        for group in groups:
            assert verify_regular(group) is None is verify_regular_pairs(group)
            r = group.r
            for _ in range(3):
                mats = list(group.mats)
                mats[rng.randrange(1 << r)] = BitMatrix(r, r, tuple(rng.randrange(1 << r) for _ in range(r)))
                bad = RegularSubgroup(r, tuple(mats))
                violation = verify_regular(bad)
                assert violation == verify_regular_pairs(bad)
                seen[violation] += 1
        assert seen[regular_groups.ClosureViolation(0, 0)] > 0 and len(seen) > 10
        # every 3 x 3 matrix, singular ones included, as M_1 and as M_6 of
        # one group: repeated images and broken products compete in row 1
        group, seen = groups[R3_CLASS_REPRESENTATIVES[-1]], Counter()
        for k in (1, 6):
            for rows in product(range(8), repeat=3):
                mats = list(group.mats)
                mats[k] = BitMatrix(3, 3, rows)
                bad = RegularSubgroup(3, tuple(mats))
                violation = verify_regular(bad)
                assert violation == verify_regular_pairs(bad)
                seen[violation and (violation.a, violation.b)] += 1
        assert set(seen) == {None, (1, 1), (1, 2), (1, 3)}
        # one matrix of the r = 9 product group replaced by a random one
        group = product_group(group, 6)
        for _ in range(10):
            mats = list(group.mats)
            mats[rng.randrange(512)] = BitMatrix(9, 9, tuple(rng.randrange(512) for _ in range(9)))
            bad = RegularSubgroup(9, tuple(mats))
            assert verify_regular(bad) == verify_regular_pairs(bad) is not None

    def test_not_a_group(self):
        group = not_a_group()
        assert verify_regular(group) == regular_groups.ClosureViolation(1, 2) == verify_regular_pairs(group)

    def test_singular_matrices(self):
        group = zero_matrices()
        assert verify_regular(group) == regular_groups.ClosureViolation(1, 1) == verify_regular_pairs(group)
        # M_a = I on U = {0, 1, 2, 3} and off it the projection onto U along
        # e_2, which maps 4 to 0 = M_a 0: every product law holds again
        ident, proj = identity_matrix(3), BitMatrix(3, 3, (1, 2, 0))
        group = RegularSubgroup(3, (ident,) * 4 + (proj,) * 4)
        assert verify_regular(group) == regular_groups.ClosureViolation(4, 4) == verify_regular_pairs(group)

    def test_beyond_eight_bits(self):
        # r = 9: labels need more than eight bits
        base = list(enumerate_regular_subgroups(3))[R3_CLASS_REPRESENTATIVES[-1]]
        group = product_group(base, 6)
        maps = {m: [m.apply(x) for x in range(512)] for m in set(group.mats)}
        assert group.mult_table() == [[a ^ y for y in maps[group.mats[a]]] for a in range(512)]
        assert verify_regular(group) is None
        mats = list(group.mats)
        mats[300] = next(m for m in maps if m != mats[300])  # no group any more
        bad = RegularSubgroup(9, tuple(mats))
        assert verify_regular(bad) == verify_regular_pairs(bad) is not None

    def test_mis_sized_matrices(self):
        for group in (
            RegularSubgroup(3, (identity_matrix(3),) * 4),
            RegularSubgroup(3, (identity_matrix(2),) * 8),
            RegularSubgroup(3, (identity_matrix(4),) * 8),
            RegularSubgroup(3, (BitMatrix(3, 4, (1, 2, 4)),) * 8),
        ):
            with pytest.raises(DimensionMismatch, match="needs 8 matrices of size 3 x 3"):
                verify_regular(group)

    def test_perturbed_group_fails(self):
        group = translations(3)
        swapped = BitMatrix(3, 3, (0b010, 0b001, 0b100))
        mats = list(group.mats)
        mats[5] = swapped
        violation = verify_regular(RegularSubgroup(r=3, mats=tuple(mats)))
        assert violation is not None
        mats = list(group.mats)
        mats[0] = swapped  # M_0 is not I
        assert verify_regular(RegularSubgroup(r=3, mats=tuple(mats))) == regular_groups.ClosureViolation(0, 0)


class TestEnumeration:
    def test_r3_census(self):
        groups = list(enumerate_regular_subgroups(3))
        assert len(groups) == 232  # measured; frozen as a determinism guard
        assert any(
            all(m == identity_matrix(3) for m in g.mats) for g in groups
        )

    def test_all_pass_verify_and_group_axioms(self):
        for group in enumerate_regular_subgroups(3):
            assert verify_regular(group) is None
            assert group_table_is_a_group(group)

    def test_r4_prefix_digest(self):
        # the DFS order at the paper's size, where the 4,096 x 4,096 product
        # table drives it: the point -> unipotent-index tuples of the first
        # R4_PREFIX groups, as int16 bytes
        groups = list(islice(regular_groups._enumerate_regular_idx(4, None), R4_PREFIX))
        digest = hashlib.sha256(np.array(groups, dtype=np.int16).tobytes()).hexdigest()
        assert digest == "5b3f66fcfb38281c3bdd11267c60de0cf1c2bfff60e9132a26d5effbbffb5f7a"

    @pytest.mark.parametrize("r, count", [(3, None), (4, 600)])
    def test_stream_matches_the_all_pairs_oracle(self, r, count):
        # the generator closure and the translation pre-filter against the
        # all-pairs closure over every unipotent: the same groups, in order
        got = list(islice(regular_groups._enumerate_regular_idx(r, None), count))
        assert got == list(islice(all_pairs_regular_idx(r), count))
        assert len(got) == (232 if count is None else count)

    def test_deterministic_stream(self):
        first = [g.mats for g in enumerate_regular_subgroups(3)]
        second = [g.mats for g in enumerate_regular_subgroups(3)]
        assert first == second

    @pytest.mark.parametrize("r, count", [(3, None), (4, 200)])
    def test_groups_share_the_tables_matrices(self, r, count):
        # each yielded matrix is the tables' own object, never a copy, so
        # keeping every group of the stream costs no matrices of its own
        shared = {id(m) for m in regular_groups._tables(r).uni}
        for group in islice(enumerate_regular_subgroups(r), count):
            assert all(id(m) in shared for m in group.mats)

    def test_budget_gives_partial_prefix(self):
        full = [g.mats for g in enumerate_regular_subgroups(3)]
        got = []
        with pytest.raises(BudgetExceeded):
            for g in enumerate_regular_subgroups(3, budget_seconds=0.0):
                got.append(g.mats)
        assert got == full[: len(got)]

    def test_nan_budget_is_refused(self):
        # monotonic() + nan is never passed: NaN would silently mean no budget
        with pytest.raises(ValueError, match="nan"):
            next(enumerate_regular_subgroups(3, float("nan")))

    def test_budget_counts_the_table_build(self, monkeypatch):
        # a fresh process builds the tables inside the budget: a build that
        # takes 1 s uses up a 0.5 s budget before the first group
        now = [0.0]
        build = regular_groups._Tables

        def slow_build(r):
            now[0] += 1.0
            return build(r)

        monkeypatch.setattr(regular_groups, "time", SimpleNamespace(monotonic=lambda: now[0]))
        monkeypatch.setattr(regular_groups, "_Tables", slow_build)
        monkeypatch.setattr(regular_groups, "_tables", functools.cache(regular_groups._tables.__wrapped__))
        catalog = catalog_taus(3, budget_seconds=0.5)
        assert (len(catalog), catalog.complete, catalog.images.dtype, catalog.images.shape) == (0, False, np.int8, (0, 8))
        regular_groups._tables.cache_clear()
        with pytest.raises(BudgetExceeded):
            next(enumerate_regular_subgroups(3, 0.5))
        assert now[0] == 2.0  # one build per walk

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_regular_subgroups(2))
        with pytest.raises(ValueError):
            list(enumerate_regular_subgroups(5))

    @pytest.mark.parametrize("r", [1, 2, 5, 6])
    def test_one_gate_for_the_census_sizes(self, r):
        # the tables refuse the size, so no stream can take it for a spent budget
        message = rf"^the census supports r in \{{3, 4\}}, got {r}$"
        for run in (lambda: regular_groups._tables(r), lambda: next(enumerate_regular_subgroups(r, 60.0)),
                    lambda: catalog_taus(r), lambda: catalog_taus(r, budget_seconds=60.0)):
            with pytest.raises(ValueError, match=message):
                run()


class TestAutomorphisms:
    def test_translation_group_has_gl_many(self):
        auts = automorphisms(translations(3))
        assert len(auts) == 168
        assert any(a.perm.images == identity_perm(3).images for a in auts)

    def test_order_32_over_budget(self):
        with pytest.raises(BudgetExceeded):
            automorphisms(translations(5))

    def test_a_table_that_is_no_group_is_refused(self):
        # label 2's powers never reach 0; the alarm turns a hang into a failure
        def expire(signum, frame):
            raise TimeoutError("automorphisms() still running after 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            with pytest.raises(InconsistentInput, match="not a group"):
                automorphisms(not_a_group())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_singular_table_is_refused(self):
        with pytest.raises(InconsistentInput, match=r"break at \(1, 1\): not a group"):
            automorphisms(zero_matrices())
        with pytest.raises(BudgetExceeded):  # the size comes first
            automorphisms(RegularSubgroup(5, (BitMatrix(5, 5, (0,) * 5),) * 32))

    def test_perturbed_groups_are_refused(self):
        # one matrix of an r=3 group replaced by a random one: a list of
        # maps exactly when the table is still a group
        rng = random.Random(5)
        groups = list(enumerate_regular_subgroups(3))
        refused = 0
        for _ in range(200):
            mats = list(rng.choice(groups).mats)
            mats[rng.randrange(8)] = BitMatrix(3, 3, tuple(rng.randrange(8) for _ in range(3)))
            group = RegularSubgroup(3, tuple(mats))
            if verify_regular(group) is None:
                assert all(induced_tau(group, aut).induced for aut in automorphisms(group))
            else:
                refused += 1
                with pytest.raises(InconsistentInput, match="not a group"):
                    automorphisms(group)
        assert refused > 150

    def test_search_beyond_sixteen_labels(self):
        # more labels than the 16 nibbles of a pack_rows code: Aut(Z_32) is
        # x -> u x for the 16 odd u
        n = 32
        mul = [[(x + y) % n for y in range(n)] for x in range(n)]
        rows = regular_groups._automorphism_perms(np.array(mul)).tolist()
        assert rows == sorted([u * x % n for x in range(n)] for u in range(1, n, 2))

    @pytest.mark.parametrize("r, order", [(1, 1), (2, 6), (3, 168), (4, 20160)])
    def test_translation_automorphisms_are_exactly_linear_maps(self, r, order):
        # the smallest and the largest search, in ascending row order
        images = [a.perm.images for a in automorphisms(translations(r))]
        assert len(images) == order == gl_order(r)
        assert images == sorted(images)
        assert set(images) == {sigma_m(m).images for m in gl_enumerate(r)}

    def test_objects_are_the_search_rows_in_order(self):
        # the batch-built objects of the first 165 r=4 groups, two of them
        # with 20,160 automorphisms, against the rows they come from
        for group in islice(enumerate_regular_subgroups(4), R4_PREFIX):
            auts = automorphisms(group)
            rows = regular_groups._automorphism_perms(regular_groups._group_table(group))
            assert type(auts) is list and all(type(a) is GroupAutomorphism for a in auts)
            assert [a.perm.images for a in auts] == list(map(tuple, rows.tolist()))
            assert all(a.perm.r == 4 and not a.perm.induced for a in auts)

    def test_slots_frozen_equality_and_copies(self):
        aut = GroupAutomorphism(PointPerm(2, (0, 2, 1, 3), induced=True))
        with pytest.raises(dataclasses.FrozenInstanceError):
            aut.perm = identity_perm(2)
        assert not hasattr(aut, "__dict__")
        # the perm's provenance flag takes no part in equality or the hash
        plain = GroupAutomorphism(PointPerm(2, (0, 2, 1, 3)))
        assert aut == plain and hash(aut) == hash(plain)
        assert dataclasses.replace(aut, perm=identity_perm(2)) == GroupAutomorphism(identity_perm(2))
        for copy_of in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            got = copy_of(aut)
            assert got == aut and got.perm is not aut.perm and got.perm.induced

    def test_product_preservation_oracle(self):
        rng = random.Random(42)
        groups = list(enumerate_regular_subgroups(3))
        for group in rng.sample(groups, 10):
            mul = group.mult_table()
            for aut in automorphisms(group)[:20]:
                img = aut.perm.images
                assert all(
                    img[mul[a][b]] == mul[img[a]][img[b]]
                    for a in range(8)
                    for b in range(8)
                )


def is_unipotent(m: BitMatrix) -> bool:
    """Oracle: (M + I)^r = 0, with the product of BitMatrix."""
    r = m.rows
    nil = BitMatrix(r, r, tuple(row ^ (1 << i) for i, row in enumerate(m.row_bits)))
    power = nil
    for _ in range(r - 1):
        power = power @ nil
    return not any(power.row_bits)


def apply_all(m: BitMatrix) -> tuple[int, ...]:
    """Oracle: the point map b -> M b, with BitMatrix.apply."""
    return tuple(m.apply(b) for b in range(1 << m.rows))


class TestTables:
    """The enumeration tables against BitMatrix products and BitMatrix.apply."""

    @pytest.mark.parametrize("r", [3, 4])
    def test_unipotents_and_their_point_maps(self, r):
        tab = regular_groups._tables(r)
        expected = [rows for rows in gl_rows_cached(r) if is_unipotent(BitMatrix(r, r, rows))]
        assert [m.row_bits for m in tab.uni] == expected
        assert tab.uni[0] == identity_matrix(r)  # the enumeration's start
        for m, app in zip(tab.uni, tab.app_l):
            assert app == apply_all(m)
        assert tab.app.tolist() == [list(app) for app in tab.app_l]

    @pytest.mark.parametrize("r, samples", [(3, None), (4, 20_000)])
    def test_products(self, r, samples):
        tab = regular_groups._tables(r)
        index = {m.row_bits: k for k, m in enumerate(tab.uni)}
        nu = len(tab.uni)
        if samples is None:
            pairs = [(a, b) for a in range(nu) for b in range(nu)]
        else:
            rng = random.Random(2024)
            pairs = [(rng.randrange(nu), rng.randrange(nu)) for _ in range(samples)]
        hits = 0
        for a, b in pairs:
            prod = tab.uni[a] @ tab.uni[b]
            assert tab.mul_l[a][b] == index.get(prod.row_bits, -1)
            hits += tab.mul_l[a][b] >= 0
        assert 0 < hits < len(pairs)  # both branches are exercised

    @pytest.mark.parametrize(
        "r, digest",
        [
            (3, "f2c67574159f8c6eeb2459c6d5b1c06bd568622c4231d4b2af896918b38eeaf0"),
            (4, "ea08ce7538b6118adb8ca5e5af6ba99d76eef5fa3734a52673c4ba55b2444b1f"),
        ],
    )
    def test_product_table_digest(self, r, digest):
        # every entry, where test_products samples r=4
        mul = regular_groups._tables(r).mul
        assert hashlib.sha256(mul.astype("<i2").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("r", [3, 4])
    def test_product_lookups_are_views_of_the_one_table(self, r):
        # mul_l reads mul in place: no per-entry copy of the product table
        tab = regular_groups._tables(r)
        assert len(tab.mul_l) == len(tab.mul)
        for a, row in enumerate(tab.mul_l):
            assert np.shares_memory(np.asarray(row), tab.mul[a])

    @pytest.mark.parametrize("r, samples", [(3, None), (4, 2_000)])
    def test_gl_point_maps(self, r, samples):
        # row k of the table is sigma_M of the k-th matrix of gl_enumerate,
        # the identity first
        tab = regular_groups._tables(r)
        mats = list(gl_enumerate(r))
        assert mats[0] == identity_matrix(r)
        assert tab.gl.shape == (len(mats), 1 << r) == (gl_order(r), 1 << r)
        picked = range(len(mats)) if samples is None else random.Random(26).sample(range(len(mats)), samples)
        for k in picked:
            assert tuple(tab.gl[k].tolist()) == apply_all(mats[k])


R4_PREFIX = 165  # reaches group 164, the first whose taus have kernel dimension 22
# the first group of each of the 8 GL(3,2)-conjugacy classes, in DFS order
R3_CLASS_REPRESENTATIVES = [0, 1, 2, 19, 20, 22, 26, 46]


def mult_tables(r: int, count: int | None = None) -> list[list[list[int]]]:
    """Multiplication tables of the first `count` regular subgroups (all if None)."""
    tab = regular_groups._tables(r)
    stream = islice(regular_groups._enumerate_regular_idx(r, None), count)
    return [regular_groups._mult_table(tab.app[m]).tolist() for m in stream]


@pytest.fixture(scope="module")
def r3_tables():
    return mult_tables(3)


@pytest.fixture(scope="module")
def r4_prefix_tables():
    return mult_tables(4, R4_PREFIX)


def count_searches(monkeypatch) -> list[int]:
    """Record each call of the automorphism search; returns the record."""
    search, calls = regular_groups._automorphism_perms, []

    def counted(mul):
        calls.append(len(mul))
        return search(mul)

    monkeypatch.setattr(regular_groups, "_automorphism_perms", counted)
    return calls


class TestAutomorphismOracle:
    """The level-by-level search against the closure DFS of tests/aut_oracle.py:
    the same automorphisms, in the same order, which is ascending row order."""

    def test_every_r3_group(self, r3_tables):
        assert len(r3_tables) == 232
        for mul in r3_tables:
            got = regular_groups._automorphism_perms(np.array(mul))
            assert list(map(tuple, got.tolist())) == closure_automorphism_perms(mul, 8)
            assert (np.lexsort(got.T[::-1]) == np.arange(len(got))).all()

    def test_r4_prefix(self, r4_prefix_tables):
        sizes = []
        for mul in r4_prefix_tables:
            got = regular_groups._automorphism_perms(np.array(mul))
            assert list(map(tuple, got.tolist())) == closure_automorphism_perms(mul, 16)
            assert (np.lexsort(got.T[::-1]) == np.arange(len(got))).all()
            sizes.append(len(got))
        assert sizes.count(20160) == 2  # the prefix holds two translation groups

    def test_levels_are_a_minimal_generating_set(self, r3_tables, r4_prefix_tables):
        # Burnside's basis theorem: a minimal generating set of a 2-group G
        # has log2(|G| / |Phi|) elements, Phi the subgroup of the squares
        for mul in r3_tables + r4_prefix_tables:
            n = len(mul)
            phi = closure(mul, [mul[x][x] for x in range(n)])
            assert 1 << sum(1 for _ in regular_groups._levels(mul)) == n // len(phi)

    def test_census_matches_automorphisms_of_each_group(self):
        # the walk the catalog and the series share yields, group by group,
        # the automorphisms of the public per-group search, in the same order
        census = [unpack_codes(codes, 8) for codes in regular_groups._census_codes(3, None)]
        groups = list(enumerate_regular_subgroups(3))
        assert len(census) == len(groups) == 232
        for auts, group in zip(census, groups):
            assert [tuple(row) for row in auts.tolist()] == [a.perm.images for a in automorphisms(group)]

    def test_one_search_per_conjugacy_class(self, monkeypatch):
        searches = count_searches(monkeypatch)
        walk, classes = regular_groups._conjugacy_class, []

        def record_class(tab, mats):
            klass = walk(tab, mats)
            classes.append((mats, dict(klass)))  # the census deletes the searched group's entry
            return klass

        monkeypatch.setattr(regular_groups, "_conjugacy_class", record_class)
        searched = []
        for gid, _ in enumerate(regular_groups._census_codes(3, None)):
            if len(searches) > len(searched):
                searched.append(gid)
        assert len(searches) == 8
        assert sum(len(klass) for _, klass in classes) == 232

        # the oracle: orbits under conjugation by every M of GL(3,2), by
        # BitMatrix products; each class is searched at its first group
        groups = [tuple(m.row_bits for m in g.mats) for g in enumerate_regular_subgroups(3)]
        position = {g: gid for gid, g in enumerate(groups)}
        matrices = {rows for g in groups for rows in g}
        orbits = {g: set() for g in groups}
        by_point_map = {}
        for m in gl_enumerate(3):
            m_inv, pts = mat_invert(m), sigma_m(m).images
            by_point_map[pts] = m
            conj_of = {rows: (m @ BitMatrix(3, 3, rows) @ m_inv).row_bits for rows in matrices}
            for g in groups:
                conj = [None] * 8
                for a, rows in enumerate(g):
                    conj[pts[a]] = conj_of[rows]
                orbits[g].add(tuple(conj))
        assert searched == sorted({min(map(position.get, orbit)) for orbit in orbits.values()})
        assert searched == R3_CLASS_REPRESENTATIVES

        # each member is a conjugate of the searched group, and its sigma_M
        # carries the searched group to it point by point
        uni = [m.row_bits for m in regular_groups._tables(3).uni]
        for gid, (mats, klass) in zip(searched, classes):
            rep = groups[gid]
            assert rep == tuple(uni[k] for k in mats.tolist())
            members = {tuple(uni[k] for k in np.frombuffer(key, dtype=np.int16).tolist()): key for key in klass}
            assert set(members) == orbits[rep]
            for member, key in members.items():
                sigma = tuple(klass[key].tolist())
                m = by_point_map[sigma]
                m_inv = mat_invert(m)
                for a in range(8):
                    assert member[sigma[a]] == (m @ BitMatrix(3, 3, rep[a]) @ m_inv).row_bits

    def test_r4_prefix_matches_the_search(self, monkeypatch):
        # the first 600 r=4 groups of the census, searched or carried, equal
        # their own search row for row and in order
        searches = count_searches(monkeypatch)
        census = [unpack_codes(codes, 16) for codes in islice(regular_groups._census_codes(4, None), 600)]
        assert len(searches) < 600
        monkeypatch.undo()
        for auts, group in zip(census, islice(enumerate_regular_subgroups(4), 600)):
            assert [tuple(row) for row in auts.tolist()] == [a.perm.images for a in automorphisms(group)]

    def test_r3_catalog_carried_one_batch_per_class(self, monkeypatch, r3_catalog):
        # each of the 8 classes is carried in one batch, its searched group
        # included: the catalog keeps its images, group ids and aut ids
        conjugate, batches = regular_groups.conjugate_rows, []

        def record_batch(rows, sigmas):
            batches.append(len(sigmas))
            return conjugate(rows, sigmas)

        monkeypatch.setattr(regular_groups, "conjugate_rows", record_batch)
        catalog = catalog_taus(3)
        assert len(batches) == 8 and sum(batches) == 232
        assert catalog.complete
        for column in ("images", "group_ids", "aut_ids"):
            assert np.array_equal(getattr(catalog, column), getattr(r3_catalog, column)), column

    def test_r3_catalog_rows_and_provenance(self, r3_catalog, r3_tables):
        first_seen = {}
        for gid, mul in enumerate(r3_tables):
            for aid, images in enumerate(closure_automorphism_perms(mul, 8)):
                first_seen.setdefault(images, (gid, aid))
        assert len(r3_catalog) == 1372
        assert [
            (r3_catalog.perm(i).images, r3_catalog.provenance(i)) for i in range(len(r3_catalog))
        ] == list(first_seen.items())


def isomorphism_type(mul: list[list[int]]) -> tuple[bool, tuple[int, ...]]:
    """Commutativity, and the number of elements of order 1, 2, 4, 8, 16."""
    n = len(mul)
    counts = Counter()
    for a in range(n):
        x, order = a, 1
        while x != 0:
            x, order = mul[x][a], order + 1
        counts[order] += 1
    commutative = all(mul[a][b] == mul[b][a] for a in range(n) for b in range(a))
    return commutative, tuple(counts[1 << k] for k in range(5))


# |Aut(G)| of the groups of order 8, and of the abelian types in the r=4 prefix
KNOWN_AUT_ORDER = {
    (True, (1, 7, 0, 0, 0)): ("Z2^3", 168),
    (True, (1, 3, 4, 0, 0)): ("Z4xZ2", 8),
    (False, (1, 5, 2, 0, 0)): ("D4", 8),
    (False, (1, 1, 6, 0, 0)): ("Q8", 24),
    (True, (1, 15, 0, 0, 0)): ("Z2^4", 20160),
    (True, (1, 7, 8, 0, 0)): ("Z4xZ2^2", 192),
    (True, (1, 3, 12, 0, 0)): ("Z4xZ4", 96),
}


class TestKnownAutomorphismCounts:
    """|Aut(G)| against the known order for the group's isomorphism type."""

    def test_every_r3_group(self, r3_tables):
        seen = Counter()
        for mul in r3_tables:
            name, order = KNOWN_AUT_ORDER[isomorphism_type(mul)]
            assert len(regular_groups._automorphism_perms(np.array(mul))) == order, name
            seen[name] += 1
        assert seen == {"Z2^3": 8, "Z4xZ2": 84, "D4": 126, "Q8": 14}

    def test_abelian_groups_of_the_r4_prefix(self, r4_prefix_tables):
        seen = Counter()
        for mul in r4_prefix_tables:
            kind = isomorphism_type(mul)
            if kind[0]:
                name, order = KNOWN_AUT_ORDER[kind]
                assert len(regular_groups._automorphism_perms(np.array(mul))) == order, name
                seen[name] += 1
        assert set(seen) == {"Z2^4", "Z4xZ2^2", "Z4xZ4"}


class TestInducedTau:
    def test_translations_give_linear(self):
        group = translations(3)
        for aut in automorphisms(group)[:10]:
            tau = induced_tau(group, aut)
            assert tau.induced
            assert is_linear(tau) is not None

    def test_identity_automorphism(self):
        group = translations(3)
        tau = induced_tau(group, GroupAutomorphism(identity_perm(3)))
        assert tau.images == identity_perm(3).images

    def test_rejects_non_automorphism(self):
        group = next(iter(enumerate_regular_subgroups(3)))
        images = list(range(8))
        images[1], images[2] = images[2], images[1]
        bad = GroupAutomorphism(PointPerm(3, tuple(images)))
        mul = group.mult_table()
        preserves = all(
            images[mul[a][b]] == mul[images[a]][images[b]]
            for a in range(8)
            for b in range(8)
        )
        if not preserves:
            with pytest.raises(NotAnAutomorphism):
                induced_tau(group, bad)

    def test_matches_the_pair_oracle_on_random_label_maps(self):
        # automorphisms, zero-fixing label maps and maps that move 0, on 40
        # r=3 groups and the r=9 product of one: equal first broken pairs
        rng = random.Random(45)
        groups = rng.sample(list(enumerate_regular_subgroups(3)), 40)
        broken = Counter()
        for group in groups:
            maps = [a.perm.images for a in rng.sample(automorphisms(group), 2)]
            maps += [tuple([0] + rng.sample(range(1, 8), 7)) for _ in range(4)]
            maps += [tuple(rng.sample(range(8), 8)) for _ in range(2)]
            for images in maps:
                first = broken_product(group, images)
                broken[first is None] += 1
                aut = GroupAutomorphism(PointPerm(3, images))
                if first is None:
                    assert induced_tau(group, aut).images == images
                else:
                    with pytest.raises(NotAnAutomorphism) as caught:
                        induced_tau(group, aut)
                    assert str(caught.value) == f"map breaks the product at {first}"
        assert broken[True] >= 80 and broken[False] >= 160
        big = product_group(groups[0], 6)
        images = list(range(512))
        images[300], images[301] = 301, 300
        assert induced_tau(big, GroupAutomorphism(identity_perm(9))).images == identity_perm(9).images
        with pytest.raises(NotAnAutomorphism) as caught:
            induced_tau(big, GroupAutomorphism(PointPerm(9, tuple(images))))
        assert str(caught.value) == f"map breaks the product at {broken_product(big, images)}"

    def test_automorphism_of_another_r(self):
        with pytest.raises(DimensionMismatch):
            induced_tau(translations(3), GroupAutomorphism(identity_perm(4)))

    def test_a_table_that_is_no_group_is_refused(self):
        for group in (zero_matrices(), not_a_group()):
            with pytest.raises(InconsistentInput, match="not a group"):
                induced_tau(group, GroupAutomorphism(identity_perm(3)))

    def test_composition_homomorphism(self):
        rng = random.Random(43)
        groups = list(enumerate_regular_subgroups(3))
        group = groups[rng.randrange(len(groups))]
        auts = automorphisms(group)
        from perfcode import compose

        for _ in range(5):
            t1, t2 = rng.choice(auts), rng.choice(auts)
            composed = GroupAutomorphism(compose(t1.perm, t2.perm))
            lhs = induced_tau(group, composed)
            rhs = compose(induced_tau(group, t1), induced_tau(group, t2))
            assert lhs.images == rhs.images


class TestCatalog:
    def test_r3_contains_identity_and_is_deduplicated(self, r3_catalog):
        images = {tuple(int(x) for x in r3_catalog.images[i]) for i in range(len(r3_catalog))}
        assert len(images) == len(r3_catalog) == 1372  # measured census
        assert identity_perm(3).images in images

    def test_r3_all_point_transitive_sample(self, r3_catalog, rng):
        for _ in range(15):
            i = rng.randrange(len(r3_catalog))
            ok, _ = point_transitive(r3_catalog.perm(i))
            assert ok

    def test_provenance_reproduces_tau(self, r3_catalog, rng):
        # iterating a catalog gives its rows as indexing does
        assert list(islice(r3_catalog, 3)) == [r3_catalog[i] for i in range(3)]
        groups = list(enumerate_regular_subgroups(3))
        for _ in range(5):
            i = rng.randrange(len(r3_catalog))
            tau, (gid, aid) = r3_catalog[i]
            group = groups[gid]
            aut = automorphisms(group)[aid]
            assert induced_tau(group, aut).images == tau.images

    def test_r4_prefix_matches_first_seen_dedup(self, monkeypatch):
        # at r=4 the packed codes fill all 64 bits; dedup must still keep
        # exactly the distinct taus, each with its first (group, automorphism)
        groups = list(islice(enumerate_regular_subgroups(4), 12))
        first_seen = {}
        for gid, group in enumerate(groups):
            for aid, aut in enumerate(automorphisms(group)):
                first_seen.setdefault(aut.perm.images, (gid, aid))
        assert any(images[15] >= 8 for images in first_seen)  # sets the top bit

        # the enumeration stops after the prefix as a budget stops it
        full = regular_groups._enumerate_regular_idx

        def prefix(r, deadline):
            yield from islice(full(r, deadline), len(groups))
            raise BudgetExceeded("the prefix ends here")

        monkeypatch.setattr(regular_groups, "_enumerate_regular_idx", prefix)
        catalog = catalog_taus(4)
        assert not catalog.complete
        assert [(catalog.perm(i).images, catalog.provenance(i)) for i in range(len(catalog))] == list(
            first_seen.items()
        )

    def test_budget_returns_partial_flag(self):
        catalog = catalog_taus(3, budget_seconds=0.0)
        assert not catalog.complete

    def test_nan_budget_is_refused(self):
        with pytest.raises(ValueError, match="nan"):
            catalog_taus(3, budget_seconds=float("nan"))

    def test_deadline_passed_in_the_last_search_keeps_the_catalog_complete(self, monkeypatch):
        # the clock passes the deadline as the last group is handed its
        # automorphisms, carried by conjugation rather than searched; the
        # subgroup search then meets only a dead end and no further group,
        # so every group is in and the catalog is complete
        now = [0.0]
        monkeypatch.setattr(regular_groups, "time", SimpleNamespace(monotonic=lambda: now[0]))
        searches = count_searches(monkeypatch)
        census, handed = regular_groups._census_codes, []

        def hand_over_then_tick(r, budget_seconds):
            for codes in census(r, budget_seconds):
                handed.append(len(codes))
                if len(handed) == 232:
                    now[0] = 100.0
                yield codes

        monkeypatch.setattr(regular_groups, "_census_codes", hand_over_then_tick)
        catalog = catalog_taus(3, budget_seconds=10.0)
        assert (len(searches), len(handed)) == (8, 232)
        assert now[0] == 100.0  # the clock passed as the 232nd group was handed over
        assert len(catalog) == 1372
        assert catalog.complete

    def test_a_group_missing_from_the_enumeration_is_caught(self, monkeypatch):
        # a complete census proves the enumeration closed under conjugation:
        # with group 100 skipped, its class still holds a conjugate that the
        # enumeration never reached
        full = regular_groups._enumerate_regular_idx

        def skip_group_100(r, deadline):
            for gid, mats in enumerate(full(r, deadline)):
                if gid != 100:
                    yield mats

        monkeypatch.setattr(regular_groups, "_enumerate_regular_idx", skip_group_100)
        with pytest.raises(InconsistentInput, match="missed 1 of the conjugates"):
            catalog_taus(3)

    def test_entries_tagged_induced(self, r3_catalog):
        tau, _ = r3_catalog[0]
        assert tau.induced


class TestIsomorphismsBruteForce:
    """Iso(G1, G2) of the r=3 class representatives by brute force: every
    zero-fixing bijection phi of the 8 labels, kept when phi(m1[a][b]) =
    m2[phi(a)][phi(b)] for all a, b.  An isomorphism g_a -> h_phi(a) induces
    the point map tau = phi, as an automorphism does.  The representatives
    are the groups the census searches (`test_one_search_per_conjugacy_class`)."""

    @pytest.fixture(scope="class")
    def isomorphisms(self, r3_tables):
        phis = np.array([(0, *rest) for rest in permutations(range(1, 8))])  # ascending
        out = {}
        for g1 in R3_CLASS_REPRESENTATIVES:
            for g2 in R3_CLASS_REPRESENTATIVES:
                m1, m2 = np.array(r3_tables[g1]), np.array(r3_tables[g2])
                keep = (phis[:, m1] == m2[phis[:, :, None], phis[:, None, :]]).all(axis=(1, 2))
                out[g1, g2] = phis[keep]
        return out

    def test_automorphisms_are_the_search_rows(self, isomorphisms, r3_tables):
        for g in R3_CLASS_REPRESENTATIVES:
            assert np.array_equal(isomorphisms[g, g], regular_groups._automorphism_perms(np.array(r3_tables[g])))

    def test_isomorphic_pairs_of_distinct_classes(self, isomorphisms):
        pairs = {pair: len(rows) for pair, rows in isomorphisms.items() if pair[0] != pair[1] and len(rows)}
        triangle = {(a, b): 8 for a in (2, 19, 22) for b in (2, 19, 22) if a != b}
        assert pairs == {(0, 26): 168, (26, 0): 168, (1, 46): 8, (46, 1): 8, **triangle}

    def test_induced_taus_and_their_classes(self, isomorphisms):
        cross = {tuple(row) for (g1, g2), rows in isomorphisms.items() if g1 != g2 for row in rows.tolist()}
        own = {tuple(row) for g in R3_CLASS_REPRESENTATIVES for row in isomorphisms[g, g].tolist()}
        assert (len(cross), len(cross - own), len(own), len(cross | own)) == (339, 315, 334, 649)

        def columns(taus):
            """(rank, kernel dim, aut_order, point transitive, size) per class."""
            classes = {}
            for e in classify(PointPerm(3, tau) for tau in sorted(taus)):
                classes.setdefault(e.class_id, []).append(e)
            return sorted(
                (e.rank, e.kernel_dim, e.aut_order, e.point_transitive, len(members))
                for members in classes.values()
                for e in members[:1]
            )

        assert columns(cross) == [(12, 9, 3_072, True, 319), (13, 8, 1_536, True, 20)]
        assert [row[:4] for row in columns(cross | own)] == [
            (11, 11, 322_560, True), (12, 9, 3_072, True), (13, 8, 1_536, True), (14, 8, 2_688, True),
        ]
