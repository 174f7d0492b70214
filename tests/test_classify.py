import importlib
import os
import random
import subprocess
import sys
import textwrap
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest

from perfcode import (
    BudgetExceeded,
    ExcludedLength,
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
from perfcode.regular_groups import TauCatalog, automorphism_census
from perfcode import sqs as sqs_module
from classify_oracle import _invariant_triple, apply_move, classify_oracle, orbit_moves, orbit_roots_oracle
from conftest import random_gl, random_zero_fixing

# the module, which the package's `classify` function shadows as an attribute
classify_module = importlib.import_module("perfcode.classify")


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

    def test_mixed_dimensions_rejected(self, rng):
        with pytest.raises(MixedDimensions):
            classify([identity_perm(3), identity_perm(4)])

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
        for auts in automorphism_census(r):
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

    def test_representative_keys_given_again_before_each_test(self, monkeypatch):
        # 40 classes outgrow the 32 results spectrum_keys keeps, so a bucket
        # test needs its representative's keys given again, not recomputed
        local = random.Random(28)
        taus = [random_zero_fixing(4, local) for _ in range(40)]
        computed = []

        def counted(images):
            batch = np.asarray(images)
            computed.extend(map(tuple, batch.reshape(-1, batch.shape[-1]).tolist()))
            return point_spectra(images)

        algebra_module._spectra.clear()
        monkeypatch.setattr(algebra_module, "point_spectra", counted)
        entries = classify(taus)
        assert len({e.class_id for e in entries}) == 40
        assert sorted(computed) == sorted(t.images for tau in taus for t in (tau, invert_perm(tau)))

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
