from itertools import combinations

import pytest

from semsize import (
    SchemaError,
    SizeLimitExceeded,
    automorphisms,
    enumerate_partitions,
    make_principal,
    mask_of,
    min_cover,
    proved_cover_bound,
    recompute_cover,
    semigroup_from_spec,
    stirling2,
    sweep_partitions,
    trivial_filter,
)
from semsize.masks import elements, is_subset, popcount
from semsize.partitions import Partition, _canonical_labels
from semsize.semigroups import quotient_pairs, translate_set


class TestEnumeratePartitions:
    def test_stirling_counts(self):
        domain = mask_of([0, 1, 2, 3])
        assert sum(1 for _ in enumerate_partitions(domain, 2)) == 7
        assert stirling2(4, 2) == 7
        for m, n in [(3, 2), (5, 2), (5, 3), (6, 3), (6, 4)]:
            domain = (1 << m) - 1
            got = sum(1 for _ in enumerate_partitions(domain, n))
            assert got == stirling2(m, n), (m, n)

    def test_single_cell(self):
        parts = list(enumerate_partitions(mask_of([1, 3, 4]), 1))
        assert parts == [Partition(mask_of([1, 3, 4]), (0, 0, 0), 1)]

    def test_labelings_are_canonical_and_surjective(self):
        for part in enumerate_partitions(mask_of([0, 1, 2, 4, 5]), 3):
            assert part.labels == _canonical_labels(part.labels)
            assert set(part.labels) == {0, 1, 2}
            cells = part.cell_masks()
            assert all(cells)
            acc = 0
            for c in cells:
                assert acc & c == 0
                acc |= c
            assert acc == part.domain

    def test_symmetry_reduction_on_z4(self, z4):
        autos = automorphisms(z4)
        assert len(autos) == 2
        full = list(enumerate_partitions(z4.full_mask, 2))
        reduced = list(enumerate_partitions(z4.full_mask, 2, symmetry=autos))
        assert len(reduced) <= len(full) == 7
        # every orbit has exactly one representative
        pos = {e: i for i, e in enumerate(range(4))}
        seen = set()
        for part in full:
            orbit = set()
            for perm in autos:
                moved = tuple(part.labels[pos[perm[e]]] for e in range(4))
                orbit.add(_canonical_labels(moved))
            rep = min(orbit)
            seen.add(rep)
        assert {p.labels for p in reduced} == seen

    def test_symmetry_must_fix_domain(self, z4):
        with pytest.raises(ValueError):
            list(
                enumerate_partitions(
                    mask_of([0, 1]), 2, symmetry=[(0, 3, 2, 1)]
                )
            )


class TestMinCover:
    def test_translate_examples(self, z4):
        z3 = semigroup_from_spec("cyclic:3")
        cert = min_cover(z3, trivial_filter(z3), mask_of([1, 2]), "translate", z3.full_mask)
        assert cert.size == 1
        cert = min_cover(z4, trivial_filter(z4), mask_of([0, 1]), "translate", z4.full_mask)
        assert cert.size == 2
        cert = min_cover(z4, trivial_filter(z4), z4.full_mask, "translate", z4.full_mask)
        assert cert.size == 1 and cert.witness_F == mask_of([z4.identity])

    def test_certificate_recomputes(self, z4):
        tau = trivial_filter(z4)
        for A in range(1, 16):
            cert = min_cover(z4, tau, A, "translate", z4.full_mask)
            covered = recompute_cover(z4, tau, A, cert)
            assert covered == cert.covered
            assert is_subset(cert.target, covered)

    def test_exactness_against_brute_force(self, z6):
        tau = trivial_filter(z6)
        pool = elements(z6.full_mask)
        for A in (mask_of([0]), mask_of([0, 1]), mask_of([1, 3]), mask_of([0, 1, 2])):
            cert = min_cover(z6, tau, A, "translate", z6.full_mask)
            pairs = quotient_pairs(z6, A)
            transforms = [translate_set(z6, f, pairs) for f in pool]
            for k in range(1, cert.size):
                for combo in combinations(range(len(pool)), k):
                    covered = 0
                    for i in combo:
                        covered |= transforms[i]
                    assert covered != z6.full_mask

    def test_monotone_in_pool(self, z6):
        tau = make_principal(z6, mask_of([0, 2, 4]))
        A = mask_of([0, 2])
        small_pool = mask_of([0, 2, 4])
        big_pool = z6.full_mask
        a = min_cover(z6, tau, A, "translate", small_pool)
        b = min_cover(z6, tau, A, "translate", big_pool)
        assert b.size <= a.size

    def test_infeasible_is_a_verdict(self, rz3):
        tau = trivial_filter(rz3)
        cert = min_cover(rz3, tau, mask_of([1]), "quotient", mask_of([0]))
        assert not cert.feasible and cert.size is None

    def test_pool_of_27_needs_no_limit(self):
        t3 = semigroup_from_spec("fulltransformation:3")
        tau = trivial_filter(t3)
        cert = min_cover(t3, tau, 1, "quotient", t3.full_mask)
        assert cert.size == 1
        assert recompute_cover(t3, tau, 1, cert) == cert.covered
        # a singleton's difference set is {e}: every translate is needed
        z24 = semigroup_from_spec("cyclic:24")
        cert = min_cover(z24, trivial_filter(z24), mask_of([0]), "translate", z24.full_mask)
        assert cert.size == 24 and cert.witness_F == z24.full_mask


class TestSweeps:
    def test_z4_two_cells_matches_the_bound(self, z4):
        rec = sweep_partitions(z4, trivial_filter(z4), 2, "translate")
        assert rec.worst_min_F == 2
        assert rec.proved_bound == proved_cover_bound(2) == 2
        assert rec.conjecture_bound == 2  # absolute sweep: linear conjecture
        assert not rec.exceeds_conjecture
        assert rec.partitions_checked == 7

    def test_z3_two_cells(self):
        z3 = semigroup_from_spec("cyclic:3")
        rec = sweep_partitions(z3, trivial_filter(z3), 2, "translate")
        assert rec.partitions_checked == 3
        assert rec.worst_min_F <= 2

    def test_single_cell_needs_identity_only(self, z6):
        for base in (z6.full_mask, mask_of([0, 2, 4])):
            rec = sweep_partitions(z6, make_principal(z6, base), 1, "translate")
            assert rec.worst_min_F == 1

    def test_quotient_and_translate_agree_on_inverse_closed_pools(self, z6):
        for base in (mask_of([0, 3]), mask_of([0, 2, 4]), z6.full_mask):
            tau = make_principal(z6, base)
            if popcount(base) < 2:
                continue
            q = sweep_partitions(z6, tau, 2, "quotient")
            t = sweep_partitions(z6, tau, 2, "translate")
            assert q.worst_min_F == t.worst_min_F

    def test_delta_sweep_z4(self, z4):
        rec = sweep_partitions(z4, trivial_filter(z4), 2, "delta")
        assert rec.mode == "delta"
        assert rec.worst_min_F == 2
        assert rec.conjecture_bound == 2  # n! at n = 2
        assert rec.alt_bound == 16  # 2^(2^n)
        assert rec.proved_bound is None

    def test_delta_sweep_z6_relative(self, z6):
        # no a-priori worst value here: the sweep itself is the oracle, and
        # the record carries the factorial comparison point
        tau = make_principal(z6, mask_of([0, 2, 4]))
        rec = sweep_partitions(z6, tau, 2, "delta")
        assert rec.conjecture_bound == 2
        assert rec.worst_min_F >= 1
        assert rec.exceeds_conjecture == (rec.worst_min_F > 2)

    def test_widened_sweep_runs_and_respects_bound(self, z4):
        tau = make_principal(z4, mask_of([0, 2]))
        rec = sweep_partitions(z4, tau, 2, "translate", widen_U=True)
        narrow = sweep_partitions(z4, tau, 2, "translate")
        assert rec.widened and rec.partitions_checked > narrow.partitions_checked
        assert rec.worst_min_F <= rec.proved_bound

    def test_symmetry_members_of_an_orbit_agree(self, z4):
        # compute best-over-cells for every partition and check constancy
        # along automorphism orbits
        tau = trivial_filter(z4)
        autos = automorphisms(z4)
        best = {}
        for part in enumerate_partitions(z4.full_mask, 2):
            sizes = [
                min_cover(z4, tau, cell, "translate", z4.full_mask).size
                for cell in part.cell_masks()
            ]
            best[part.labels] = min(s for s in sizes if s is not None)
        for labels, value in best.items():
            for perm in autos:
                moved = _canonical_labels(
                    tuple(labels[perm[e]] for e in range(4))
                )
                assert best[moved] == value

    def test_symmetric_sweep_equals_full_sweep(self, z4):
        tau = trivial_filter(z4)
        full = sweep_partitions(z4, tau, 2, "translate")
        sym = sweep_partitions(
            z4, tau, 2, "translate", symmetry=automorphisms(z4)
        )
        assert full.worst_min_F == sym.worst_min_F

    def test_sweep_order_limit(self):
        s4 = semigroup_from_spec("symmetric:4")
        with pytest.raises(SizeLimitExceeded):
            sweep_partitions(s4, trivial_filter(s4), 2, "translate")

    def test_sweep_is_deterministic(self, z6):
        tau = make_principal(z6, mask_of([0, 2, 4]))
        a = sweep_partitions(z6, tau, 2, "translate")
        b = sweep_partitions(z6, tau, 2, "translate")
        assert a == b

    def test_checkpoint_resume_matches_fresh_run(self, z4):
        tau = trivial_filter(z4)
        fresh = sweep_partitions(z4, tau, 2, "translate")
        snapshots = {}

        def progress(done, total, state):
            snapshots[done] = state

        sweep_partitions(z4, tau, 2, "translate", progress=progress)
        cut = 3
        resumed = sweep_partitions(
            z4, tau, 2, "translate", start_index=cut, state=snapshots[cut]
        )
        assert resumed.worst_min_F == fresh.worst_min_F
        assert resumed.argmax_partition == fresh.argmax_partition

    def test_resume_with_infeasible_partitions(self, z4):
        # the pool {1} misses the base: the first three partitions in sweep
        # order have no cover, so the argmax comes after them
        tau, pool = trivial_filter(z4), mask_of([1])
        snapshots = {}

        def progress(done, total, state):
            snapshots[done] = state

        fresh = sweep_partitions(z4, tau, 2, "translate", pool, progress=progress)
        assert fresh.infeasible_partitions == 3
        for cut, state in snapshots.items():
            resumed = sweep_partitions(
                z4, tau, 2, "translate", pool, start_index=cut, state=state
            )
            assert resumed == fresh
        # an argmax is feasible, so at most 3 of the first 4 are infeasible
        with pytest.raises(SchemaError, match="'infeasible'"):
            sweep_partitions(
                z4, tau, 2, "translate", pool, start_index=4,
                state=dict(snapshots[4], infeasible=4),
            )
