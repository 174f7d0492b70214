import functools
import importlib
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from collections.abc import Sequence
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from perfcode import (
    BudgetExceeded,
    ExcludedLength,
    InconsistentInput,
    MixedDimensions,
    PointPerm,
    classify,
    compose,
    gl_enumerate,
    identity_perm,
    intersect,
    invert_perm,
    is_linear,
    apply_point_perm_to_code,
    extended_hamming,
    composed_series,
    sigma_m,
    sqs_isomorphic,
    tau_product,
    transitivity_report,
)
from perfcode._bits import mul_rows
from perfcode import algebra as algebra_module
from perfcode.algebra import (
    count_linear_products,
    double_coset_member,
    gl_generators,
    gl_order,
    identity_matrix,
    point_spectra,
    unpack_codes,
)
from perfcode.algebra import invert as mat_invert
from perfcode.classify import (
    SERIES_BASE_TAUS,
    _edge_images,
    _orbit_roots,
    classify_catalog,
    perm_intersection_dim,
    perm_kernel_dim,
    perm_rank,
    tau_id_string,
)
from perfcode.codes import base_dim, kernel_dims
from perfcode.io import CSV_COLUMNS, emit_catalog_csv, emit_catalog_json
from perfcode.regular_groups import TauCatalog, _census_codes
from perfcode import sqs as sqs_module
from classify_oracle import _invariant_triple, apply_move, classify_oracle, orbit_moves, orbit_roots_oracle
from conftest import random_gl, random_zero_fixing

# the module, which the package's `classify` function shadows as an attribute
classify_module = importlib.import_module("perfcode.classify")


def _cycle_type(images, points) -> tuple[int, ...]:
    """The sorted cycle lengths of a permutation on `points`."""
    lengths, seen = [], set()
    for x in points:
        k = 0
        while x not in seen:
            seen.add(x)
            x, k = images[x], k + 1
        if k:
            lengths.append(k)
    return tuple(sorted(lengths))


def _square_roots(lengths) -> int:
    """#{u in Sym : u^2 = p} for p of the given cycle lengths.  Of the c
    cycles of one length m, a pair can be the square of one 2m-cycle, in m
    ways; an odd m-cycle alone is also the square of one m-cycle.  So odd m
    gives sum_k C(c, 2k) (2k-1)!! m^k and even m gives (c-1)!! m^(c/2), or 0
    for odd c."""
    def pairings(j):  # the (j - 1)!! ways to pair up j cycles
        return math.prod(range(j - 1, 0, -2))

    count = 1
    for m, c in Counter(lengths).items():
        if m % 2:
            count *= sum(math.comb(c, 2 * k) * pairings(2 * k) * m**k for k in range(c // 2 + 1))
        else:
            count *= 0 if c % 2 else pairings(c) * m ** (c // 2)
    return count


@functools.cache
def _burnside_fixed(r: int) -> tuple[int, int]:
    """The fixed points of (GL x GL) x| <xi> on zero-fixing taus, summed
    over the elements (A, B) and over the elements (A, B) xi, from the
    cycle types of sigma_M on the 2^r - 1 nonzero points.  (A, B) fixes tau
    iff tau sigma_A tau^-1 = sigma_B: |C(sigma_A)| taus when the types agree.
    (A, B) xi fixes tau iff tau sigma_A tau = sigma_B, iff u = tau sigma_A is
    a square root of sigma_B sigma_A, which runs over GL once for each A."""
    types = Counter(_cycle_type(sigma_m(g).images, range(1, 1 << r)) for g in gl_enumerate(r))
    plain = sum(n * n * math.prod(k**c * math.factorial(c) for k, c in Counter(t).items()) for t, n in types.items())
    swapped = gl_order(r) * sum(n * _square_roots(t) for t, n in types.items())
    return plain, swapped


class TestClassify:
    def test_gl_conjugates_form_one_class(self, rng):
        mats = list(gl_enumerate(3))
        local = random.Random(51)
        tau = random_zero_fixing(3, rng)
        taus = [tau] + [
            compose(compose(sigma_m(local.choice(mats)), tau), sigma_m(local.choice(mats)))
            for _ in range(8)
        ]
        entries = classify(taus)
        assert len({e.class_id for e in entries}) == 1

    def test_determinism_under_shuffle(self, rng):
        taus = [random_zero_fixing(3, rng) for _ in range(12)]
        entries_a = classify(taus)
        shuffled = taus[:]
        random.Random(52).shuffle(shuffled)
        entries_b = classify(shuffled)
        assert entries_a == entries_b

    def test_same_class_shares_invariants(self, rng):
        taus = [random_zero_fixing(3, rng) for _ in range(15)]
        entries = classify(taus)
        by_class = {}
        for e in entries:
            by_class.setdefault(e.class_id, []).append(e)
        for members in by_class.values():
            assert len({(e.rank, e.kernel_dim, e.intersection_dim, e.aut_order) for e in members}) == 1

    def test_classes_match_pairwise_isomorphism(self, rng):
        taus = [random_zero_fixing(3, rng) for _ in range(8)]
        entries = classify(taus)
        id_of = {e.tau_id: e.class_id for e in entries}
        for a in taus:
            for b in taus:
                same = id_of[tau_id_string(a)] == id_of[tau_id_string(b)]
                lin_a, lin_b = is_linear(a) is not None, is_linear(b) is not None
                if lin_a != lin_b:
                    assert not same
                    continue
                assert same == (sqs_isomorphic(a, b) is not None)

    def test_every_zero_fixing_r3_tau(self):
        # all 5,040 zero-fixing r=3 taus fall into the 4 classes of the
        # induced catalog (criterion 1), counted two ways
        taus = [(0, *rest) for rest in permutations(range(1, 8))]
        entries = classify(PointPerm(3, tau) for tau in taus)
        class_of = {e.tau_id: e for e in entries}
        members = {}
        for tau in taus:
            members.setdefault(class_of[tau_id_string(PointPerm(3, tau))].class_id, set()).add(tau)
        columns = sorted(
            (e.rank, len(members[e.class_id]), e.aut_order, e.point_transitive)
            for e in {e.class_id: e for e in entries}.values()
        )
        assert columns == [
            (11, 168, 322_560, True),
            (12, 1_176, 3_072, True),
            (13, 2_352, 1_536, True),
            (14, 1_344, 2_688, True),
        ]

        # a plain union-find over tau -> sigma_g tau, tau sigma_g and tau^-1,
        # with no spectra and no search, gives the same classes member for member
        parent = {tau: tau for tau in taus}

        def find(tau):
            while parent[tau] != tau:
                parent[tau] = tau = parent[parent[tau]]
            return tau

        sigmas = [sigma_m(g).images for g in gl_generators(3)]
        for tau in taus:
            inverse = [0] * 8
            for x, y in enumerate(tau):
                inverse[y] = x
            moved = [tuple(inverse)]
            moved += [tuple(s[y] for y in tau) for s in sigmas]
            moved += [tuple(tau[y] for y in s) for s in sigmas]
            for other in moved:
                parent[find(other)] = find(tau)
        components = {}
        for tau in taus:
            components.setdefault(find(tau), set()).add(tau)
        assert sorted(map(sorted, components.values())) == sorted(map(sorted, members.values()))

        # orbit-stabiliser: the structured maps (sigma_A + a | sigma_B + b) xi^t
        # on the two copies of F^3 number 2 |GL(3,2)|^2 2^(2r), each non-linear
        # class is one orbit of them, and Aut(SQS_tau) is its stabiliser
        for _, size, aut_order, _ in columns[1:]:
            assert size * aut_order == 2 * gl_order(3) ** 2 * 2 ** 6 == 3_612_672
        assert columns[0][1] == gl_order(3) == 168

    @pytest.mark.parametrize("r, classes", [(2, 1), (3, 4), (4, 1962)])
    def test_burnside_counts_the_classes(self, r, classes):
        # G = (GL x GL) x| <xi> acts on zero-fixing taus, (A, B) by tau ->
        # sigma_B tau sigma_A^-1 and (A, B) xi by tau -> sigma_B tau^-1 sigma_A^-1.
        # Its orbits are the classes, counted by the Cauchy-Frobenius lemma
        # from cycle types and square roots alone, with no classification
        plain, swapped = _burnside_fixed(r)
        assert divmod(plain + swapped, 2 * gl_order(r) ** 2) == (classes, 0)

    @pytest.mark.parametrize("r, pair_orbits, transitive", [(2, 1, 1), (3, 4, 4), (4, 3374, 550)])
    def test_burnside_counts_the_point_transitive_classes(self, r, pair_orbits, transitive):
        # a class is point transitive iff its GL x GL orbit is closed under
        # inversion, and is two GL x GL orbits otherwise: with b classes and
        # a GL x GL orbits, 2b - a of the classes are point transitive
        plain, swapped = _burnside_fixed(r)
        (a, rest), b = divmod(plain, gl_order(r) ** 2), (plain + swapped) // (2 * gl_order(r) ** 2)
        assert (a, rest, 2 * b - a) == (pair_orbits, 0, transitive)

    @pytest.mark.parametrize("m", [3, 7])
    def test_square_roots_match_brute_force(self, m):
        # the closed form against every element of Sym(m), m = 2^r - 1 at r = 2, 3
        sym = np.array(list(permutations(range(m))))
        roots = Counter(map(tuple, np.take_along_axis(sym, sym, axis=1).tolist()))
        for p in sym.tolist():
            assert _square_roots(_cycle_type(p, range(m))) == roots[tuple(p)]

    def test_mixed_dimensions_rejected(self, rng):
        with pytest.raises(MixedDimensions):
            classify([identity_perm(3), identity_perm(4)])

    def test_search_budget(self):
        with pytest.raises(BudgetExceeded):
            classify([identity_perm(6)])

    def test_class_witness_links_intersection_codes(self, rng):
        # same class implies GL-equivalent intersection codes tau(H) cap H
        from perfcode import double_coset_member

        mats = list(gl_enumerate(3))
        local = random.Random(53)
        tau = random_zero_fixing(3, rng)
        moved = compose(compose(sigma_m(local.choice(mats)), tau), sigma_m(local.choice(mats)))
        witness = double_coset_member(moved, tau)
        assert witness is not None
        _, b_mat = witness
        h = extended_hamming(3)
        inter_tau = intersect(apply_point_perm_to_code(tau, h), h)
        inter_moved = intersect(apply_point_perm_to_code(moved, h), h)
        mapped = apply_point_perm_to_code(sigma_m(b_mat), inter_tau)
        assert set(mapped.words()) == set(inter_moved.words())


class TestInvariantFormulas:
    def test_linear_values(self):
        tau = identity_perm(3)
        assert perm_rank(tau) == 11
        assert perm_kernel_dim(tau) == 11
        assert perm_intersection_dim(tau) == 4

    def test_intersection_dim_matches_code_computation(self, rng):
        # zero-fixing taus, their translates and unconstrained permutations
        for r in range(2, 6):
            h = extended_hamming(r)
            n = 1 << r
            for _ in range(10):
                tau = random_zero_fixing(r, rng)
                shift = rng.randrange(1, n)
                translate = PointPerm(r, tuple(v ^ shift for v in tau.images))
                free = PointPerm(r, tuple(rng.sample(range(n), n)))
                for perm in (tau, translate, free):
                    expected = intersect(apply_point_perm_to_code(perm, h), h).dim
                    assert perm_intersection_dim(perm) == expected


class TestKernelFilter:
    def test_r3_catalog_filter_keeps_exactly_that_kernel(self, r3_catalog, r3_taus):
        kernels = [perm_kernel_dim(tau) for tau in r3_taus]
        assert set(kernels) == {8, 9, 11}
        for k in sorted(set(kernels)) + [7, 10, 12]:
            entries = classify_catalog(r3_catalog, kernel_dim=k)
            want = sorted(tau_id_string(t) for t, kt in zip(r3_taus, kernels) if kt == k)
            assert sorted(e.tau_id for e in entries) == want
            assert all(e.kernel_dim == k for e in entries)


class TestClassificationSequence:
    """`classify_catalog` returns a read-only sequence that builds its entries
    on demand from columns; it behaves as the list of those entries."""

    def test_indexing_slicing_and_iteration(self, r3_catalog):
        entries = classify_catalog(r3_catalog)
        listed = list(entries)
        assert isinstance(entries, Sequence) and len(entries) == len(listed) == 1372
        assert [entries[i] for i in range(len(entries))] == listed
        assert list(entries) == listed  # a second pass gives the same entries
        assert entries[0] == listed[0] and entries[-1] == listed[-1]
        assert entries[-1372] == listed[0]
        for i in (1372, -1373):
            with pytest.raises(IndexError):
                entries[i]
        for cut in (slice(5, 9), slice(None, None, -97), slice(1300, None, 7), slice(10, 3), slice(2000, None),
                    slice(0, 0)):
            assert entries[cut] == listed[cut]
            assert isinstance(entries[cut], list)

    def test_equality_both_ways(self, r3_catalog):
        entries = classify_catalog(r3_catalog)
        listed = list(entries)
        assert entries == listed and listed == entries and entries == tuple(listed)
        assert not (entries != listed) and not (listed != entries)
        changed = listed[:]
        changed[700] = replace(changed[700], provenance="user")
        for other in (listed[:-1], listed + listed[:1], changed, []):
            assert entries != other and other != entries
            assert not (entries == other) and not (other == entries)
        order = np.random.default_rng(19).permutation(len(r3_catalog))
        shuffled = TauCatalog(3, r3_catalog.images[order], r3_catalog.group_ids[order],
                              r3_catalog.aut_ids[order], complete=True)
        assert classify_catalog(shuffled) == entries
        assert entries != 1372

    def test_empty_result(self, r3_catalog):
        entries = classify_catalog(r3_catalog, kernel_dim=0)
        assert len(entries) == 0 and not entries
        assert list(entries) == [] and entries[:] == [] and entries[3:9] == []
        assert entries == [] and [] == entries
        for i in (0, -1):
            with pytest.raises(IndexError):
                entries[i]
        # no taus: no entries, and the emitters write an empty list and the header
        assert classify([]) == []
        assert emit_catalog_json(classify([])) == "[]\n"
        assert emit_catalog_csv(classify([])) == ",".join(CSV_COLUMNS) + "\n"


class TestTransitivityReport:
    def test_induced_tau_is_neighbor_transitive(self, r3_catalog):
        tau, _ = r3_catalog[0]
        report = transitivity_report(tau)
        assert report.coordinate_transitive
        assert report.transitive == "verified-by-theorem"
        assert report.neighbor_transitive

    def test_linear_tau_is_coordinate_transitive(self):
        report = transitivity_report(identity_perm(3))
        assert report.coordinate_transitive

    def test_user_tau_stays_unverified(self, rng):
        tau = random_zero_fixing(3, rng)
        report = transitivity_report(tau)
        assert report.coordinate_transitive  # every r=3 tau is
        assert report.transitive == "unverified"
        assert not report.neighbor_transitive


class TestSeries:
    def test_excluded_length(self):
        with pytest.raises(ExcludedLength):
            composed_series(5)

    def test_r6_report(self):
        tau, report, entry = composed_series(6)
        assert tau.r == 6 and tau.induced
        assert entry.kernel_dim == 114 == (1 << 7) - 14
        assert entry.non_mollard
        assert entry.point_transitive
        assert report.neighbor_transitive

    def test_r7_composed(self):
        tau, report, entry = composed_series(7)
        assert tau.r == 7
        assert entry.kernel_dim == (1 << 8) - 2 * 7 - 2
        assert report.neighbor_transitive

    def test_base_cases(self):
        tau3, _, entry3 = composed_series(3)
        assert entry3.kernel_dim == 8 and entry3.aut_order is not None
        assert tau3.images == (0, 6, 2, 5, 4, 3, 1, 7)
        tau4, _, entry4 = composed_series(4)
        assert entry4.kernel_dim == 22
        assert tau4.images == (0, 4, 8, 14, 1, 5, 9, 15, 2, 6, 10, 12, 11, 13, 3, 7)

    @pytest.mark.parametrize("r", [3, 4])
    def test_base_taus_come_first_in_the_census(self, r):
        # the pinned base is the first induced, minimal-kernel, point-transitive
        # tau in enumeration order
        for auts in (unpack_codes(codes, 1 << r) for codes in _census_codes(r, None)):
            for images in auts[kernel_dims(auts) == base_dim(r)].tolist():
                tau = PointPerm(r, tuple(images), induced=True)
                if double_coset_member(invert_perm(tau), tau) is not None:
                    assert tau.images == SERIES_BASE_TAUS[r]
                    return
        pytest.fail(f"no minimal-kernel point-transitive tau at r={r}")

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            composed_series(13)

    @pytest.mark.parametrize(
        "r, columns",
        [
            (3, (13, 8, 2, 1536)),
            (4, (28, 22, 9, 2048)),
            (6, (124, 114, 53, None)),
            (7, (251, 240, 116, None)),
            (12, (8184, 8166, 4077, None)),
        ],
    )
    def test_pinned_columns(self, r, columns):
        # (rank, kernel dim, intersection dim, aut_order)
        _, _, entry = composed_series(r)
        assert (entry.rank, entry.kernel_dim, entry.intersection_dim, entry.aut_order) == columns

    def test_a_wrong_witness_is_refused(self, monkeypatch):
        base = classify_module._series_base

        def wrong(r):
            tau, (a, b) = base(r)
            return tau, (a, b @ gl_generators(r)[0])

        monkeypatch.setattr(classify_module, "_series_base", wrong)
        with pytest.raises(InconsistentInput, match="block-diagonal witness failed to verify"):
            composed_series(6)

    def test_witness_check_survives_optimize(self):
        # the block-diagonal witness is certified by an explicit raise, so a
        # wrong witness is refused under `python -O` too
        script = textwrap.dedent(
            """
            import importlib
            from perfcode.errors import InconsistentInput

            series = importlib.import_module("perfcode.classify")
            base = series._series_base

            def wrong(r):
                tau, (a, b) = base(r)
                return tau, (a, b @ series.gl_generators(r)[0])

            series._series_base = wrong
            try:
                series.composed_series(6)
            except InconsistentInput:
                print("refused")
            else:
                print("returned")
            """
        )
        src = os.path.dirname(os.path.dirname(sys.modules["perfcode"].__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["refused"]


def _sorted_rows(images: np.ndarray) -> np.ndarray:
    return images[np.lexsort(images.T[::-1])]


def _conjugate(tau: PointPerm, m) -> PointPerm:
    return compose(compose(sigma_m(m), tau), sigma_m(mat_invert(m)))


def _with_conjugates(taus, r: int, rng: random.Random):
    """Each tau, its inverse, its conjugates by the GL generators and by two
    random matrices, and one conjugate of the inverse, shuffled."""
    out = []
    for tau in taus:
        mats = [*gl_generators(r), random_gl(r, rng), random_gl(r, rng)]
        out += [tau, invert_perm(tau), _conjugate(invert_perm(tau), mats[0])]
        out += [_conjugate(tau, m) for m in mats]
    rng.shuffle(out)
    return out


def _products_batch(rng: random.Random) -> list[PointPerm]:
    """6 random r=4 taus, then sigma_B tau sigma_A^-1 and its inverse for
    the first 3: 12 taus in 9 orbits."""
    taus = [random_zero_fixing(4, rng) for _ in range(6)]
    for tau in taus[:3]:
        a_mat, b_mat = random_gl(4, rng), random_gl(4, rng)
        prod = compose(compose(sigma_m(b_mat), tau), sigma_m(mat_invert(a_mat)))
        taus += [prod, invert_perm(prod)]
    return taus


class TestOrbitClassification:
    """Orbit-at-a-time classification against the per-tau path of
    tests/classify_oracle.py, and the orbits and witnesses it relies on."""

    def test_r3_catalog_matches_oracle(self, r3_catalog, r3_taus):
        pairs = map(r3_catalog.provenance, range(len(r3_catalog)))
        provenance = {tau_id_string(tau): f"g{g}:a{a}" for tau, (g, a) in zip(r3_taus, pairs)}
        assert len(provenance) == len(r3_taus)
        entries = classify_catalog(r3_catalog)
        # every row keeps its own (group, automorphism) pair through the sort
        assert [e.provenance for e in entries] == [provenance[e.tau_id] for e in entries]
        as_user = [replace(e, provenance="user") for e in entries]
        assert as_user == classify_oracle(r3_taus)
        taus = list(r3_taus)
        random.Random(54).shuffle(taus)
        assert classify(taus) == as_user

    def test_r4_prefix_matches_oracle(self, r4_prefix_min_kernel):
        taus = r4_prefix_min_kernel
        assert classify(taus) == classify_oracle(taus)

    def test_r4_random_with_conjugates_matches_oracle(self, rng):
        taus = _with_conjugates([random_zero_fixing(4, rng) for _ in range(5)], 4, rng)
        entries = classify(taus)
        assert entries == classify_oracle(taus)
        assert len({e.class_id for e in entries}) == 5

    def test_r5_with_conjugates_matches_oracle(self, rng):
        taus = _with_conjugates([random_zero_fixing(5, rng) for _ in range(2)], 5, rng)
        taus += taus[:2]  # equal rows join one orbit
        assert classify(taus) == classify_oracle(taus)

    def test_r5_taus_keep_the_void_key(self):
        # 32 images do not fit one packed code: r=5 rows are keyed by their
        # bytes, which order like the rows, and classify as the oracle does
        rng = random.Random(5)
        taus = _with_conjugates([random_zero_fixing(5, rng) for _ in range(3)], 5, rng)
        taus += taus[:2]
        rows = np.array([t.images for t in taus], dtype=np.int8)
        keys = classify_module._row_keys(rows)
        assert keys.dtype.kind == "V"
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))
        entries = classify(taus)
        assert entries == classify_oracle(taus)
        assert len({e.class_id for e in entries}) == 3
        # so are r=0 rows, whose one image fills no packed code
        taus = [PointPerm(0, (0,))]
        (entry,) = entries = classify(taus)
        assert entries == classify_oracle(taus)
        assert (entry.rank, entry.kernel_dim, entry.intersection_dim, entry.aut_order) == (0, 0, 0, 2)
        assert entry.point_transitive and entry.class_id == 0

    @pytest.mark.parametrize("r", [4, 5])
    def test_two_sided_products_match_oracle(self, r, rng):
        # sigma_B tau sigma_A^-1 with A != B, and its inverse, lie in other
        # orbits than tau: only the bucket tests can merge them
        taus = []
        for _ in range(4):
            tau = random_zero_fixing(r, rng)
            taus.append(tau)
            for _ in range(2):
                a_mat, b_mat = random_gl(r, rng), random_gl(r, rng)
                assert a_mat != b_mat
                prod = compose(compose(sigma_m(b_mat), tau), sigma_m(mat_invert(a_mat)))
                taus += [prod, invert_perm(prod)]
        rng.shuffle(taus)
        entries = classify(taus)
        assert entries == classify_oracle(taus)
        assert len({e.class_id for e in entries}) == 4
        rows = _sorted_rows(np.array([t.images for t in taus], dtype=np.int8))
        assert len(set(_orbit_roots(rows, r).tolist())) > 4

    def test_one_count_per_class(self, monkeypatch, rng, r3_taus):
        # aut_order and point transitivity of a class come from the counts of
        # the formula, made for the class representative: N1 always, N0 only
        # when N1 = 0 (not point transitive), and no tau^-1-against-tau search
        n1_counted, n0_counted, searched = [], [], []

        def counted(left, right):
            if right == left:
                n1_counted.append(tau_id_string(left))
            elif right == invert_perm(left):
                n0_counted.append(tau_id_string(left))
            return count_linear_products(left, right)

        def searched_dcm(tau_p, tau, group="GL"):
            if tau_p == invert_perm(tau):
                searched.append(tau_id_string(tau))
            return double_coset_member(tau_p, tau, group)

        monkeypatch.setattr(sqs_module, "count_linear_products", counted)
        monkeypatch.setattr(sqs_module, "double_coset_member", searched_dcm)
        # the seeded r=4 batch is not point transitive; every r=3 tau is, and
        # a linear representative is decided without a count
        batches = [_with_conjugates([random_zero_fixing(4, rng) for _ in range(5)], 4, rng),
                   random.Random(21).sample(r3_taus, 24)]
        for taus in batches:
            n1_counted.clear()
            n0_counted.clear()
            by_id = {tau_id_string(t): t for t in taus}
            reps = {}
            for e in classify(taus):
                reps.setdefault(e.class_id, e)
            reps = [e for e in reps.values() if is_linear(by_id[e.tau_id]) is None]
            assert sorted(n1_counted) == sorted(e.tau_id for e in reps)
            assert sorted(n0_counted) == sorted(e.tau_id for e in reps if not e.point_transitive)
        assert len(reps) > 1 and n0_counted == [] and searched == []

    def test_spectra_computed_once_per_orbit(self, monkeypatch, rng):
        # the bucket key, the bucket tests and the class statistics share the
        # spectra of each orbit's least member and of its inverse
        taus = _products_batch(rng)
        rows = _sorted_rows(np.array([t.images for t in taus], dtype=np.int8))
        least = sorted(set(_orbit_roots(rows, 4).tolist()))
        assert len(least) == 9
        expected = []
        for p in least:
            perm = PointPerm(4, tuple(rows[p].tolist()))
            expected += [perm.images, invert_perm(perm).images]

        computed = []

        def counted(images):
            batch = np.asarray(images)
            computed.extend(map(tuple, batch.reshape(-1, batch.shape[-1]).tolist()))
            return point_spectra(images)

        algebra_module._spectra.clear()
        with monkeypatch.context() as patch:
            # count through every perfcode module that holds the name, so an
            # import of point_spectra outside algebra cannot bypass the count
            for module in list(sys.modules.values()):
                held = getattr(module, "point_spectra", None)
                if module.__name__.startswith("perfcode") and held is point_spectra:
                    patch.setattr(module, "point_spectra", counted)
            entries = classify(taus)
        assert entries == classify_oracle(taus)
        assert len({e.class_id for e in entries}) == 6
        assert sorted(computed) == sorted(expected)

    def test_class_columns_computed_once_per_class(self, monkeypatch, rng):
        # orbits get their rank and spectra; the kernel dimension, like the
        # other class columns, is computed once, for each class's founder
        taus = _products_batch(rng)
        expected = classify_oracle(taus)
        computed = []

        def counted(perm):
            computed.append(tau_id_string(perm))
            return perm_kernel_dim(perm)

        monkeypatch.setattr(classify_module, "perm_kernel_dim", counted)
        entries = classify(taus)
        assert entries == expected
        reps = {}
        for e in entries:
            reps.setdefault(e.class_id, e.tau_id)
        assert len(reps) == 6
        assert sorted(computed) == sorted(reps.values())

    @pytest.mark.parametrize("r, order", [(3, 168), (4, 20160)])
    def test_generators_generate_gl(self, r, order):
        gens = [m.row_bits for m in gl_generators(r)]
        seen = {identity_matrix(r).row_bits}
        frontier = list(seen)
        while frontier:
            frontier = [g for g in {mul_rows(x, h) for x in frontier for h in gens} if g not in seen]
            seen.update(frontier)
        assert len(seen) == order == gl_order(r)

    def test_edges_hold_point_by_point(self, r3_catalog, rng):
        # each transform of _edge_images moves every row as the identity, a
        # conjugation by a GL generator, or inversion does, point by point
        extra = _with_conjugates([random_zero_fixing(4, rng) for _ in range(3)], 4, rng)
        for r, images in (
            (3, r3_catalog.images),
            (4, np.array([t.images for t in extra], dtype=np.int8)),
        ):
            rows = _sorted_rows(images)
            perms = [PointPerm(r, tuple(row)) for row in rows.tolist()]
            moves = [lambda t: t, *(lambda t, m=m: _conjugate(t, m) for m in gl_generators(r)), invert_perm]
            yielded = [moved.tolist() for moved in _edge_images(rows, r)]
            assert len(yielded) == len(moves)
            for move, moved in zip(moves, yielded):
                assert moved == [list(move(perm).images) for perm in perms]
            if r == 3:  # the catalog is closed under conjugation and inversion
                assert all(sorted(moved) == rows.tolist() for moved in yielded)

    def test_orbit_roots_match_the_oracle(self, r3_catalog, rng):
        # repeated rows; the two copies of the last tau have no other row one
        # move away, so only the identity transform joins them
        r4 = _with_conjugates([random_zero_fixing(4, rng) for _ in range(4)], 4, rng)
        r4 += r4[::3] + [random_zero_fixing(4, rng)] * 2
        r5 = _with_conjugates([random_zero_fixing(5, rng) for _ in range(2)], 5, rng)
        for r, images, orbits in (
            (3, r3_catalog.images, 15),
            (4, np.array([t.images for t in r4], dtype=np.int8), None),
            (5, np.array([t.images for t in r5], dtype=np.int8), None),
            (4, np.array([r4[0].images], dtype=np.int8), 1),
            (4, np.zeros((0, 16), dtype=np.int8), 0),
        ):
            rows = _sorted_rows(images)
            root = _orbit_roots(rows, r)
            expected = orbit_roots_oracle(PointPerm(r, tuple(row)) for row in rows.tolist())
            assert root.tolist() == expected
            if orbits is not None:
                assert len(set(expected)) == orbits
            assert len(set(expected)) < len(rows) or len(rows) < 2

    def test_conjugation_path_is_witness(self, r3_catalog, r4_prefix_min_kernel):
        for r, images in (
            (3, r3_catalog.images),
            (4, np.array([t.images for t in r4_prefix_min_kernel], dtype=np.int8)),
        ):
            rows = _sorted_rows(images)
            root = _orbit_roots(rows, r)
            perms = [PointPerm(r, tuple(row)) for row in rows.tolist()]
            index = {p.images: i for i, p in reversed(list(enumerate(perms)))}
            # the oracle's moves as undirected steps (q, move, +1 forward or -1 back)
            steps = [[] for _ in perms]
            for move in orbit_moves(r):
                for p, perm in enumerate(perms):
                    q = index.get(apply_move(perm, move).images)
                    if q is not None:
                        steps[p].append((q, move, +1))
                        steps[q].append((p, move, -1))
            # breadth first from each orbit's least member: row p = sigma_P
            # rep^(+-1) sigma_P^-1, kept as path[p] = (P, inverted)
            path = {int(p): (identity_matrix(r), False) for p in np.flatnonzero(root == np.arange(len(rows)))}
            frontier = list(path)
            while frontier:
                nxt = []
                for p in frontier:
                    mat, inverted = path[p]
                    for q, move, way in steps[p]:
                        if q in path:
                            continue
                        if move is None:
                            path[q] = (mat, not inverted)
                        else:
                            path[q] = ((move if way > 0 else mat_invert(move)) @ mat, inverted)
                        nxt.append(q)
                frontier = nxt
            assert sorted(path) == list(range(len(rows)))
            local = random.Random(55)
            for q in local.sample(range(len(rows)), 40):
                mat, inverted = path[q]
                rep = PointPerm(r, tuple(rows[root[q]].tolist()))
                if inverted:
                    rep = invert_perm(rep)
                # member = sigma_B rep sigma_A^-1 with A = B = P, rebuilt point by point
                member = rows[q].tolist()
                a_inv = mat_invert(mat)
                assert all(member[x] == mat.apply(rep.images[a_inv.apply(x)]) for x in range(1 << r))
                assert root[q] <= q

    def test_invariants_constant_on_r3_orbits(self, r3_catalog):
        rows = _sorted_rows(r3_catalog.images)
        root = _orbit_roots(rows, 3)
        assert len(set(root.tolist())) == 15
        by_orbit = {}
        for least, row in zip(root.tolist(), rows.tolist()):
            by_orbit.setdefault(least, set()).add(_invariant_triple(PointPerm(3, tuple(row))))
        assert all(len(triples) == 1 for triples in by_orbit.values())
