import random

import pytest

from perfcode import (
    BudgetExceeded,
    ExcludedLength,
    MixedDimensions,
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
from perfcode.classify import (
    perm_intersection_dim,
    perm_kernel_dim,
    perm_rank,
    tau_id_string,
)
from conftest import random_zero_fixing


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
        h = extended_hamming(3)
        for _ in range(10):
            tau = random_zero_fixing(3, rng)
            expected = intersect(apply_point_perm_to_code(tau, h), h).dim
            assert perm_intersection_dim(tau) == expected


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
        tau4, _, entry4 = composed_series(4)
        assert entry4.kernel_dim == 22

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            composed_series(13)
