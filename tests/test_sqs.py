import hashlib
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from perfcode import (
    AffineInput,
    BudgetExceeded,
    InconsistentInput,
    SQS,
    apply_structured,
    aut_order,
    build_s_tau,
    compose,
    count_automorphisms,
    explicit_materialize,
    extended_hamming,
    gl_enumerate,
    gl_order,
    identity_matrix,
    identity_perm,
    invert,
    invert_perm,
    is_linear,
    symmetric_difference_dichotomy,
    point_transitive,
    sigma_m,
    SqsIsomorphism,
    sqs_from_tau,
    sqs_isomorphic,
    validate_sqs,
    weight4_supports,
    xi_swap,
)
from perfcode import ExplicitCode, PointPerm
from perfcode.sqs import Violation
from perfcode import algebra as algebra_module
from perfcode import sqs as sqs_module
from perfcode.algebra import point_spectra
from conftest import random_gl, random_zero_fixing
from pair_invariant_oracle import pair_invariant_loop
from sqs_aut_oracle import SqsIndex, count_automorphisms_queue
from sweep_oracle import sweep_member
from validate_oracle import validate_sqs_loop

# symmetric_difference_dichotomy over the non-linear taus of the complete
# r=3 catalog: see TestSymdiffDichotomy.test_r3_catalog_reports_are_pinned
DICHOTOMY_R3_SHA256 = "edb86a58a1583b9c668da6458bf89a2347e48cd6989a98765fe0baa457770b79"


def scan_closure(quads, known: set[int]) -> set[int]:
    """The points known once every quadruple with three known points has
    added its fourth, found by scanning every quadruple until none adds one."""
    known = set(known)
    while True:
        new = {p for quad in quads if len(known & set(quad)) == 3 for p in quad} - known
        if not new:
            return known
        known |= new


def random_nonlinear(r, rng):
    while True:
        tau = random_zero_fixing(r, rng)
        if is_linear(tau) is None:
            return tau


class TestGeneration:
    def test_r3_counts(self, rng):
        q = sqs_from_tau(random_zero_fixing(3, rng))
        assert q.order == 16
        assert len(q.quadruples) == 140 == 16 * 15 * 14 // 24
        assert validate_sqs(q) is None

    def test_r4_counts(self, rng):
        q = sqs_from_tau(random_zero_fixing(4, rng))
        assert q.order == 32
        assert len(q.quadruples) == 1240 == 32 * 31 * 30 // 24
        assert validate_sqs(q) is None

    def test_equals_weight4_supports(self, rng):
        for _ in range(5):
            tau = random_zero_fixing(3, rng)
            explicit = explicit_materialize(build_s_tau(tau))
            supports = weight4_supports(explicit)
            generated = {frozenset(q) for q in sqs_from_tau(tau).quadruples}
            assert generated == supports

    def test_r5_spot_check(self, rng):
        q = sqs_from_tau(random_zero_fixing(5, rng))
        assert q.order == 64
        assert len(q.quadruples) == 64 * 63 * 62 // 24
        assert validate_sqs(q) is None

    def test_whole_r3_catalog_validates(self, r3_catalog):
        for i in range(len(r3_catalog)):
            assert validate_sqs(sqs_from_tau(r3_catalog.perm(i))) is None


class TestValidate:
    def test_affine_sqs_from_hamming_supports(self):
        explicit = ExplicitCode(16, tuple(extended_hamming(4).words()))
        quads = frozenset(tuple(sorted(s)) for s in weight4_supports(explicit))
        assert validate_sqs(SQS(order=16, quadruples=quads)) is None

    def test_deleted_quadruple_detected(self, rng):
        q = sqs_from_tau(random_zero_fixing(3, rng))
        removed = min(q.quadruples)
        broken = SQS(order=q.order, quadruples=q.quadruples - {removed})
        violation = validate_sqs(broken)
        assert violation is not None
        assert violation.count == 0
        assert set(violation.triple) <= set(removed)

    @staticmethod
    def _edits(q: SQS, local: random.Random):
        """Systems made from q: itself, one block dropped, a block added
        that repeats a triple, and each kind of malformed quadruple."""
        quads = sorted(q.quadruples)
        v = q.order
        dropped = local.choice(quads)
        a, b, c, _ = local.choice(quads)
        extra = tuple(sorted((a, b, c, local.choice(sorted(set(range(v)) - {a, b, c})))))
        yield q.quadruples
        yield q.quadruples - {dropped}
        yield q.quadruples - {local.choice(quads), local.choice(quads)}
        yield q.quadruples | {extra}
        yield (q.quadruples - {dropped}) | {extra}
        for bad in [(a, b, c), (a, b), (a, a, b, c), (a, b, c, c), (a, b, c, v), (-1, a, b, c), (a, b, c, extra[3], 0)]:
            yield q.quadruples | {bad}
            yield (q.quadruples - {dropped}) | {bad, (b, b, c, 1)}

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_the_loop(self, r):
        # the packed triple count returns the loop's first Violation: the
        # first malformed quadruple in iteration order, else the least triple
        # not covered once
        local = random.Random(47 + r)
        for _ in range(12):
            q = sqs_from_tau(random_zero_fixing(r, local))
            for quads in self._edits(q, local):
                system = SQS(order=q.order, quadruples=frozenset(quads))
                got = validate_sqs(system)
                assert got == validate_sqs_loop(system)
                assert got is None or all(type(p) is int for p in got.triple)

    @pytest.mark.parametrize("v", range(0, 10))
    def test_empty_and_partial_systems_match_the_loop(self, v):
        local = random.Random(60 + v)
        quads = [tuple(sorted(local.sample(range(v), 4))) for _ in range(v)] if v >= 4 else []
        for system in (SQS(order=v, quadruples=frozenset()), SQS(order=v, quadruples=frozenset(quads))):
            assert validate_sqs(system) == validate_sqs_loop(system)

    def test_last_triple_missed(self):
        # (12, 13, 14, 15) holds the last four triples, so the gap is after
        # every key: the successor of the last triple covered, (11, 14, 15)
        q = sqs_from_tau(identity_perm(3))
        broken = SQS(order=16, quadruples=q.quadruples - {(12, 13, 14, 15)})
        assert validate_sqs(broken) == validate_sqs_loop(broken) == Violation(triple=(12, 13, 14), count=0)


class TestSymdiffDichotomy:
    def test_dichotomy_for_nonlinear(self, rng):
        tau = random_nonlinear(3, rng)
        report = symmetric_difference_dichotomy(tau)
        assert report.ok
        assert report.part1_counterexamples == ()
        assert report.part2_missing == ()
        assert len(report.part2_witnesses) == 64

    def test_part2_witnesses_verify(self, rng):
        tau = random_nonlinear(3, rng)
        report = symmetric_difference_dichotomy(tau)
        system = {frozenset(q) for q in sqs_from_tau(tau).quadruples}
        for (q1, q2) in report.part2_witnesses.values():
            assert frozenset(q1) in system and frozenset(q2) in system
            assert frozenset(q1) ^ frozenset(q2) not in system

    def test_affine_input_rejected(self):
        with pytest.raises(AffineInput):
            symmetric_difference_dichotomy(identity_perm(3))

    def test_r3_catalog_reports_are_pinned(self, r3_catalog):
        # every report of the non-linear r=3 catalog, witnesses and their
        # order included, in catalog order
        digest = hashlib.sha256()
        checked = 0
        for i in range(len(r3_catalog)):
            tau = r3_catalog.perm(i)
            if is_linear(tau) is not None:
                continue
            rep = symmetric_difference_dichotomy(tau)
            digest.update(repr((
                rep.part1_counterexamples, rep.part2_missing, sorted(rep.part2_witnesses.items())
            )).encode())
            checked += 1
        assert checked == 1204
        assert digest.hexdigest() == DICHOTOMY_R3_SHA256

    def test_dichotomy_at_r4(self):
        tau = random_nonlinear(4, random.Random(40))
        report = symmetric_difference_dichotomy(tau)
        assert report.part1_counterexamples == ()
        assert report.part2_missing == ()
        assert len(report.part2_witnesses) == 256
        system = {frozenset(q) for q in sqs_from_tau(tau).quadruples}
        for q1, q2 in report.part2_witnesses.values():
            assert frozenset(q1) in system and frozenset(q2) in system
            assert frozenset(q1) ^ frozenset(q2) not in system


class TestStructuredAction:
    def test_identity_spec(self, rng):
        tau = random_zero_fixing(3, rng)
        q = sqs_from_tau(tau)
        ident = identity_matrix(3)
        assert apply_structured((0, ident, 0, ident, 0), q).quadruples == q.quadruples

    def test_translations_are_automorphisms(self, rng):
        tau = random_zero_fixing(3, rng)
        q = sqs_from_tau(tau)
        ident = identity_matrix(3)
        local = random.Random(31)
        for _ in range(5):
            a, b = local.randrange(8), local.randrange(8)
            assert apply_structured((a, ident, b, ident, 0), q).quadruples == q.quadruples

    def test_linear_parts_move_tau(self, rng):
        mats = list(gl_enumerate(3))
        local = random.Random(32)
        for _ in range(5):
            tau = random_zero_fixing(3, rng)
            a_mat, b_mat = local.choice(mats), local.choice(mats)
            image = apply_structured((0, a_mat, 0, b_mat, 0), sqs_from_tau(tau))
            from perfcode import invert

            target = compose(compose(sigma_m(b_mat), tau), sigma_m(invert(a_mat)))
            assert image.quadruples == sqs_from_tau(target).quadruples

    def test_xi_then_linear_parts(self, rng):
        mats = list(gl_enumerate(3))
        local = random.Random(33)
        tau = random_zero_fixing(3, rng)
        a_mat, b_mat = local.choice(mats), local.choice(mats)
        image = apply_structured((0, a_mat, 0, b_mat, 1), sqs_from_tau(tau))
        from perfcode import invert

        target = compose(compose(sigma_m(b_mat), invert_perm(tau)), sigma_m(invert(a_mat)))
        assert image.quadruples == sqs_from_tau(target).quadruples


class TestXiSwap:
    def test_identity_tau_fixed(self):
        q = sqs_from_tau(identity_perm(3))
        assert xi_swap(q).quadruples == q.quadruples

    def test_involution(self, rng):
        q = sqs_from_tau(random_zero_fixing(3, rng))
        assert xi_swap(xi_swap(q)).quadruples == q.quadruples

    def test_maps_to_inverse(self, rng):
        for _ in range(5):
            tau = random_zero_fixing(3, rng)
            assert (
                xi_swap(sqs_from_tau(tau)).quadruples
                == sqs_from_tau(invert_perm(tau)).quadruples
            )


class TestIsomorphism:
    def test_self_isomorphic_with_identity_witness(self, rng):
        tau = random_nonlinear(3, rng)
        witness = sqs_isomorphic(tau, tau)
        assert witness is not None
        assert witness.a_mat == identity_matrix(3)
        assert witness.b_mat == identity_matrix(3)
        assert witness.t == 0

    def test_inverse_is_isomorphic_and_witness_verifies(self, rng):
        tau = random_nonlinear(3, rng)
        witness = sqs_isomorphic(tau, invert_perm(tau))
        assert witness is not None
        image = apply_structured(
            (0, witness.a_mat, 0, witness.b_mat, witness.t), sqs_from_tau(tau)
        )
        assert image.quadruples == sqs_from_tau(invert_perm(tau)).quadruples

    def test_witness_always_verifies(self, rng):
        mats = list(gl_enumerate(3))
        local = random.Random(34)
        for _ in range(5):
            tau = random_nonlinear(3, rng)
            moved = compose(compose(sigma_m(local.choice(mats)), tau), sigma_m(local.choice(mats)))
            witness = sqs_isomorphic(tau, moved)
            assert witness is not None
            image = apply_structured(
                (0, witness.a_mat, 0, witness.b_mat, witness.t), sqs_from_tau(tau)
            )
            assert image.quadruples == sqs_from_tau(moved).quadruples

    def test_inverse_double_coset_gives_the_swap_witness(self):
        # tau^-1 is not in GL tau GL, so tau' = sigma_B tau^-1 sigma_A^-1 is
        # reached only through the side swap: t = 1
        local = random.Random(37)
        taus = []
        while len(taus) < 3:
            tau = random_zero_fixing(4, local)
            if not point_transitive(tau)[0]:
                taus.append(tau)
        for tau in taus:
            a_mat, b_mat = random_gl(4, local), random_gl(4, local)
            moved = compose(compose(sigma_m(b_mat), invert_perm(tau)), sigma_m(invert(a_mat)))
            witness = sqs_isomorphic(tau, moved)
            assert witness is not None and witness.t == 1
            image = apply_structured((0, witness.a_mat, 0, witness.b_mat, 1), sqs_from_tau(tau))
            assert image == sqs_from_tau(moved)

    def test_mixed_linearity_never_isomorphic(self, rng):
        tau = random_nonlinear(3, rng)
        assert sqs_isomorphic(tau, identity_perm(3)) is None
        assert sqs_isomorphic(identity_perm(3), tau) is None

    def test_both_linear_always_isomorphic(self):
        rng = random.Random(35)
        mats = list(gl_enumerate(3))
        a, b = rng.choice(mats), rng.choice(mats)
        witness = sqs_isomorphic(sigma_m(a), sigma_m(b))
        assert witness is not None and witness.t == 0

    @pytest.mark.parametrize("r", [3, 4])
    def test_linear_pairs_get_the_affine_witness(self, r):
        # the search alone decides linear pairs: A = I and B = lin' lin^{-1}
        mats = list(gl_enumerate(r))
        local = random.Random(36 + r)
        for _ in range(200):
            a, b = local.choice(mats), local.choice(mats)
            expect = SqsIsomorphism(identity_matrix(r), b @ invert(a), 0)
            assert sqs_isomorphic(sigma_m(a), sigma_m(b)) == expect

    def test_mixed_linearity_never_isomorphic_at_r4(self, rng):
        mats = list(gl_enumerate(4))
        for _ in range(20):
            tau, lin = random_nonlinear(4, rng), sigma_m(rng.choice(mats))
            assert sqs_isomorphic(tau, lin) is None
            assert sqs_isomorphic(lin, tau) is None
            assert sqs_isomorphic(invert_perm(tau), lin) is None

    def test_budget_guard(self, rng):
        # the search's own size guard: no system is built at any r
        tau = random_nonlinear(6, rng)
        with pytest.raises(BudgetExceeded):
            sqs_isomorphic(tau, tau)
        with pytest.raises(BudgetExceeded):
            sqs_isomorphic(identity_perm(6), tau)

    def test_equivalence_relation(self, rng):
        taus = [random_nonlinear(3, rng) for _ in range(6)]
        rel = {
            (i, j): sqs_isomorphic(taus[i], taus[j]) is not None
            for i in range(6)
            for j in range(6)
        }
        for i in range(6):
            assert rel[(i, i)]
            for j in range(6):
                assert rel[(i, j)] == rel[(j, i)]
                for k in range(6):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]


class TestPointTransitive:
    def test_identity(self):
        ok, witness = point_transitive(identity_perm(3))
        assert ok and witness is None

    def test_every_r3_tau(self, rng):
        for _ in range(10):
            ok, _ = point_transitive(random_zero_fixing(3, rng))
            assert ok

    def test_invariant_under_inverse_and_cosets(self, rng):
        mats = list(gl_enumerate(4))
        local = random.Random(36)
        for _ in range(3):
            tau = random_zero_fixing(4, rng)
            base, _ = point_transitive(tau)
            assert point_transitive(invert_perm(tau))[0] == base
            moved = compose(compose(sigma_m(local.choice(mats)), tau), sigma_m(local.choice(mats)))
            assert point_transitive(moved)[0] == base

    def test_spectra_gap_is_a_miss(self):
        # tau and tau^-1 have different multisets of point spectra, so the
        # search returns before it starts; the sweep of GL(4,2) agrees
        tau = random_zero_fixing(4, random.Random(0))
        inv = invert_perm(tau)
        spectra = [sorted(map(tuple, s)) for s in point_spectra([tau.images, inv.images]).tolist()]
        assert spectra[0] != spectra[1]
        assert point_transitive(tau) == (False, None)
        assert sweep_member(inv, tau) is None


class TestPairInvariant:
    """The array-built pair invariant of the automorphism counter against
    the per-pair loop it replaced."""

    @staticmethod
    def _check(q: SQS):
        quads = sorted(q.quadruples)
        rows = np.array(quads, dtype=np.int64).reshape(-1, 4)
        pair_inv, point_inv = sqs_module._pair_invariant(rows, q.order)
        assert (pair_inv, point_inv) == pair_invariant_loop(quads, q.order)
        return point_inv

    def test_r3_catalog_systems(self, r3_taus):
        local = random.Random(45)
        for tau in local.sample(r3_taus, 20) + [identity_perm(3)]:
            self._check(sqs_from_tau(tau))

    def test_r4_affine_system(self):
        point_inv = self._check(sqs_from_tau(identity_perm(4)))
        assert set(point_inv) == {point_inv[0]}

    def test_r5_identity_system(self):
        # v = 64: the masks of quadruples through point 63 have bit 63 set
        q = sqs_from_tau(identity_perm(5))
        assert any(63 in quad for quad in q.quadruples)
        self._check(q)

    def test_ragged_quadruple_set(self):
        # not an SQS: pairs lie in different numbers of quadruples, and some
        # quadruples share three points, so their symmetric difference is a pair
        local = random.Random(46)
        quads = set(local.sample(sorted(sqs_from_tau(identity_perm(3)).quadruples), 90))
        quads |= {(0, 1, 2, 9), (0, 1, 2, 10), (0, 1, 3, 11), (0, 1, 9, 10), (5, 9, 10, 15)}
        self._check(SQS(order=16, quadruples=frozenset(quads)))
        pair_quads = SqsIndex(quads, 16).pair_quads
        counts = {len(through) for through in pair_quads.values()}
        assert len(counts) > 2

    def test_empty_system(self):
        self._check(SQS(order=8, quadruples=frozenset()))

    def test_order_above_64(self):
        with pytest.raises(BudgetExceeded):
            count_automorphisms(SQS(order=65, quadruples=frozenset({(0, 1, 2, 64)})))


class TestCountAgainstQueueSearch:
    """The fixed-base count against the queue-propagation search it replaced,
    and against every permutation on small packings."""

    def test_r3_catalog_and_random_systems(self, r3_taus):
        local = random.Random(48)
        taus = local.sample(r3_taus, 30) + [random_zero_fixing(3, local) for _ in range(10)]
        for tau in taus:
            q = sqs_from_tau(tau)
            assert count_automorphisms(q) == count_automorphisms_queue(q.quadruples, 16)

    def test_relabelled_systems(self, r3_taus):
        local = random.Random(49)
        for tau in local.sample(r3_taus, 10):
            relabel = list(range(16))
            local.shuffle(relabel)
            quads = frozenset(
                tuple(sorted(relabel[p] for p in quad)) for quad in sqs_from_tau(tau).quadruples
            )
            assert count_automorphisms(SQS(order=16, quadruples=quads)) == count_automorphisms_queue(quads, 16)

    def test_affine_order_16(self):
        q = sqs_from_tau(identity_perm(3))
        assert count_automorphisms(q) == count_automorphisms_queue(q.quadruples, 16) == 322560

    @pytest.mark.parametrize("quads", [
        # forcing 3 or 4 through 0, 1, 2 finds the other already used
        [(0, 1, 2, 3), (0, 1, 2, 4)],
        # 0, 1, 3 complete to 5, not 4: the identity would map 3 to 5
        [(0, 1, 2, 4), (0, 1, 3, 4), (0, 1, 3, 5), (0, 1, 4, 5)],
    ])
    def test_identity_failing_its_schedule_is_inconsistent(self, quads):
        # a triple in two quadruples; the queue search fails the identity too
        with pytest.raises(InconsistentInput):
            count_automorphisms(SQS(order=8, quadruples=frozenset(quads)))
        with pytest.raises(ValueError):
            count_automorphisms_queue(frozenset(quads), 8)

    def test_packings_against_every_permutation(self):
        # every triple in at most one quadruple, so forcing stays sound; the
        # count equals that of the permutations of 6 to 8 points that map
        # the quadruple set onto itself
        local = random.Random(50)
        for _ in range(24):
            v = local.choice([6, 7, 8])
            quads, triples = [], set()
            for _ in range(local.randrange(1, 12)):
                quad = tuple(sorted(local.sample(range(v), 4)))
                if not triples & set(combinations(quad, 3)):
                    quads.append(quad)
                    triples |= set(combinations(quad, 3))
            rows = np.array(sorted(quads))
            images = np.sort(np.array(list(permutations(range(v))))[:, rows], axis=2)
            keys = ((images[..., 0] * v + images[..., 1]) * v + images[..., 2]) * v + images[..., 3]
            own = np.sort(((rows[:, 0] * v + rows[:, 1]) * v + rows[:, 2]) * v + rows[:, 3])
            expected = int((np.sort(keys, axis=1) == own).all(axis=1).sum())
            assert count_automorphisms(SQS(order=v, quadruples=frozenset(quads))) == expected


class TestAutOrder:
    def test_linear_r3_closed_form(self):
        assert aut_order(identity_perm(3)) == 16 * gl_order(4) == 322560

    def test_matches_backtracking_oracle(self, rng):
        for _ in range(6):
            tau = random_nonlinear(3, rng)
            assert aut_order(tau) == count_automorphisms(sqs_from_tau(tau))

    def test_oracle_on_affine_system(self):
        assert count_automorphisms(sqs_from_tau(identity_perm(3))) == 322560

    def test_oracle_on_r4_affine_system(self):
        assert count_automorphisms(sqs_from_tau(identity_perm(4))) == 32 * gl_order(5) == 319_979_520

    def test_oracle_ignores_the_point_labels(self, r3_catalog):
        # the counter sees only the quadruple set: relabelling the points of
        # SQS_tau at random must leave the count at aut_order(tau)
        local = random.Random(38)
        for i in local.sample(range(len(r3_catalog)), 40):
            tau = r3_catalog.perm(i)
            relabel = list(range(16))
            local.shuffle(relabel)
            quads = frozenset(
                tuple(sorted(relabel[p] for p in quad)) for quad in sqs_from_tau(tau).quadruples
            )
            assert count_automorphisms(SQS(order=16, quadruples=quads)) == aut_order(tau)

    def test_constant_on_isomorphism_classes(self, rng):
        mats = list(gl_enumerate(3))
        local = random.Random(37)
        tau = random_nonlinear(3, rng)
        base = aut_order(tau)
        for _ in range(4):
            moved = compose(compose(sigma_m(local.choice(mats)), tau), sigma_m(local.choice(mats)))
            assert aut_order(moved) == base
        assert aut_order(invert_perm(tau)) == base

    def test_schedule_forces_what_a_scan_of_every_quadruple_reaches(self, r3_taus):
        # at every base level the forced points are exactly the closure a scan
        # of every quadruple with three known points reaches; every step reads
        # known points only, and every quadruple is forced through or checked once
        local = random.Random(39)
        taus = local.sample(r3_taus, 4) + [random_nonlinear(3, local) for _ in range(2)]
        for tau in taus + [identity_perm(3), identity_perm(4), random_nonlinear(4, local)]:
            q = sqs_from_tau(tau)
            quads = sorted(q.quadruples)
            base, steps = sqs_module._forcing_schedule(quads, q.order)
            known: set[int] = set()
            met = []  # the quadruples the steps complete or check, in order
            for p, level in zip(base, steps):
                assert p == min(set(range(q.order)) - known)
                closure = scan_closure(quads, known | {p})
                forced = [d for *_, d, check in level if not check]
                assert sorted(forced) == sorted(closure - known - {p})
                known.add(p)
                for a, b, c, d, check in level:
                    assert {a, b, c} <= known and (d in known) == check
                    known.add(d)
                    met.append(tuple(sorted((a, b, c, d))))
                assert known == closure
            assert known == set(range(q.order))
            assert sorted(met) == quads
            if tau.r == 3 or is_linear(tau) is not None:  # seconds on a random r=4 system
                assert count_automorphisms(q) == aut_order(tau)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_spectra_computed_once_per_permutation(self, monkeypatch, r):
        # the N1 and N0 counts share the point spectra of tau and tau^-1:
        # one computation of each, however many counts are made
        local = random.Random(40 + r)
        for tau in [random_nonlinear(r, local) for _ in range(3)]:
            expected = aut_order(tau)
            computed = []

            def counted(images):
                computed.append(tuple(images))
                return point_spectra(images)

            algebra_module._spectra.clear()
            with monkeypatch.context() as patch:
                patch.setattr(algebra_module, "point_spectra", counted)
                assert aut_order(tau) == expected
            assert sorted(computed) == sorted([tau.images, invert_perm(tau).images])

    def test_second_count_is_zero_or_the_first(self, r3_taus):
        # N1 = #{A : tau sigma_A tau linear} is 0 or N0, and N0 exactly when
        # tau^{-1} lies in GL tau GL; aut_order counts N0 only when N1 = 0
        from perfcode import count_linear_products

        local = random.Random(38)
        taus = [t for t in r3_taus if is_linear(t) is None]
        taus += [random_zero_fixing(4, local) for _ in range(20)]
        for tau in taus:
            n0 = count_linear_products(tau, invert_perm(tau))
            n1 = count_linear_products(tau, tau)
            assert n1 == (n0 if point_transitive(tau)[0] else 0)
            assert aut_order(tau) == (1 << (2 * tau.r)) * (n0 + n1)

    def test_paired_result_matches_its_parts(self, r3_taus, r4_prefix_min_kernel):
        # the counts give what aut_order and point_transitive's search give
        from perfcode.sqs import aut_order_and_transitivity

        local = random.Random(37)
        # a point transitive non-linear r=5 tau
        tau5 = PointPerm(5, (0, 2, 1, 3, 16, 22, 17, 7, 8, 30, 13, 11, 24, 10, 29, 15,
                             4, 6, 21, 23, 20, 18, 5, 19, 12, 26, 25, 31, 28, 14, 9, 27))
        taus = [identity_perm(r) for r in (3, 4, 5)] + [sigma_m(random_gl(r, local)) for r in (3, 4, 5)]
        taus += r3_taus + local.sample(r4_prefix_min_kernel, 4)
        taus += [random_zero_fixing(4, local) for _ in range(20)]
        taus += [random_zero_fixing(5, local) for _ in range(4)] + [tau5]
        results = [aut_order_and_transitivity(t) for t in taus]
        assert results == [(aut_order(t), point_transitive(t)[0]) for t in taus]
        assert results[-1][1] and not all(transitive for _, transitive in results[-21:-1])

    def test_counted_maps_are_automorphisms(self, rng):
        # every structured map counted by the formula fixes the system
        from perfcode import count_linear_products, invert

        tau = random_nonlinear(3, rng)
        q = sqs_from_tau(tau)
        mats = list(gl_enumerate(3))
        count_checked = 0
        for a_mat in mats:
            for t, mid in ((0, invert_perm(tau)), (1, tau)):
                cand = compose(compose(tau, sigma_m(a_mat)), mid)
                b_mat = is_linear(cand)
                if b_mat is None:
                    continue
                image = apply_structured((0, a_mat, 0, b_mat, t), q)
                # structured parts act as (sigma_{A}|sigma_{B}) xi^t with
                # tau' = tau, so the image must equal the system itself
                assert image.quadruples == q.quadruples
                count_checked += 1
        assert count_checked * 64 == aut_order(tau)
