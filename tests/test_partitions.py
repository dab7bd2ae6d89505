from itertools import combinations, product

import pytest

from conftest import brute_cover_exceeds

import semsize.partitions
from semsize import (
    BoundViolation,
    SizeLimitExceeded,
    automorphisms,
    check_hypothesis,
    delta_tau,
    enumerate_partitions,
    finite_cover_bound,
    is_tau_large,
    make_principal,
    mask_of,
    min_cover,
    semigroup_from_spec,
    stirling2,
    subgroups,
    sweep_partitions,
    trivial_filter,
)
from semsize.catalog import default_catalog, family_catalog, order_le_catalog
from semsize.classify import prethick_value
from semsize.errors import InputError
from semsize.masks import bits, elements, is_subset, least_cover, popcount
from semsize.partitions import MODES, Partition, cover_exceeds, sweep_order_limit
from semsize.semigroups import is_subgroup, left_quotient, product_set, translate_set


def _balanced_first(parts):
    """The partitions ordered as the sweep breaks argmax ties: least spread
    of cell sizes first, then by label string."""
    def key(p):
        sizes = sorted(p.labels.count(c) for c in range(p.cells))
        return (sizes[-1] - sizes[0], p.labels)

    return sorted(parts, key=key)


def _canonical_labels(labels):
    """The label string relabeled in order of first occurrence."""
    remap = {}
    return tuple(remap.setdefault(lab, len(remap)) for lab in labels)


class TestEnumeratePartitions:
    def test_stirling_counts(self):
        domain = mask_of([0, 1, 2, 3])
        assert sum(1 for _ in enumerate_partitions(domain, 2)) == 7
        assert stirling2(4, 2) == 7
        for m in range(10):
            for n in range(1, 6):
                domain = (1 << m) - 1
                got = sum(1 for _ in enumerate_partitions(domain, n))
                assert got == stirling2(m, n), (m, n)

    @pytest.mark.parametrize("m", range(10))
    def test_labelings_are_every_canonical_string_in_order(self, m):
        # reference: every string of m labels below n that starts with 0
        # (for m = 0, the empty string), kept when it uses all n labels and
        # is already relabel-canonical; product lists them in order
        domain = (1 << m) - 1
        for n in range(1, 6):
            strings = product(*([range(1)] + [range(n)] * (m - 1))[:m])
            want = [
                s for s in strings
                if len(set(s)) == n and _canonical_labels(s) == s
            ]
            swept = [
                (tuple(labels), list(cells))
                for labels, cells in semsize.partitions._labelings(domain, n)
            ]
            parts = list(enumerate_partitions(domain, n))
            assert [p.labels for p in parts] == [s for s, _ in swept] == want
            assert all(a < b for a, b in zip(want, want[1:]))
            # on a domain of positions 0..m-1 the cells the sweep reads are
            # the partition's cell masks
            assert [p.cell_masks() for p in parts] == [c for _, c in swept]

    def test_stirling_equals_the_recursion(self):
        def recursion(m, n):
            if n == 0:
                return 1 if m == 0 else 0
            if m == 0:
                return 0
            return n * recursion(m - 1, n) + recursion(m - 1, n - 1)

        for m in range(13):
            for n in range(6):
                assert stirling2(m, n) == recursion(m, n), (m, n)
        assert stirling2(0, -1) == stirling2(3, -1) == 0

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

    @pytest.mark.parametrize(
        "spec, cells, orbits",
        [
            ("cyclic:12", 2, 623),
            ("quaternion8", 3, 70),
            ("product:cyclic:2,cyclic:2,cyclic:2", 3, 22),
            ("product:leftzero:6,cyclic:2", 2, 43),
        ],
    )
    def test_symmetry_keeps_the_least_string_of_each_orbit(self, spec, cells, orbits):
        # reference: the least canonical image of each label string over
        # every automorphism, one orbit at a time
        S = semigroup_from_spec(spec)
        autos = automorphisms(S)
        least = set()
        seen = set()
        for part in enumerate_partitions(S.full_mask, cells):
            if part.labels in seen:
                continue
            orbit = {
                _canonical_labels(tuple(part.labels[perm[e]] for e in range(S.order)))
                for perm in autos
            }
            seen |= orbit
            least.add(min(orbit))
        reduced = [p.labels for p in enumerate_partitions(S.full_mask, cells, autos)]
        assert reduced == sorted(least)
        assert len(reduced) == orbits

    def test_symmetry_must_fix_domain(self, z4):
        with pytest.raises(ValueError):
            list(
                enumerate_partitions(
                    mask_of([0, 1]), 2, symmetry=[(0, 3, 2, 1)]
                )
            )


def _pairs(S, A):
    """A*A^-1 on a group, from the set arithmetic, with each inverse read
    off the table as the y with a*y = e."""
    inverses = mask_of(S.table[a].index(S.identity) for a in bits(A))
    return product_set(S, A, inverses)


def _delta(S, base, A):
    """{x : x*a in A for some a in A & base}, read straight off the table."""
    return mask_of(
        x for x in range(S.order)
        if any((A >> S.table[x][a]) & 1 for a in bits(A & base))
    )


def _covered(S, d, F):
    """The union of the translates f*d over the points of F, built here
    from the set arithmetic rather than from `min_cover`."""
    out = 0
    for f in bits(F):
        out |= translate_set(S, f, d)
    return out


class TestMinCover:
    def test_translate_examples(self, z4):
        z3 = semigroup_from_spec("cyclic:3")
        F = min_cover(z3, trivial_filter(z3), mask_of([1, 2]), "translate", z3.full_mask)
        assert popcount(F) == 1
        F = min_cover(z4, trivial_filter(z4), mask_of([0, 1]), "translate", z4.full_mask)
        assert popcount(F) == 2
        F = min_cover(z4, trivial_filter(z4), z4.full_mask, "translate", z4.full_mask)
        assert F == mask_of([z4.identity])

    def test_witness_covers_the_base(self, z4):
        tau = trivial_filter(z4)
        for A in range(1, 16):
            F = min_cover(z4, tau, A, "translate", z4.full_mask)
            assert is_subset(F, z4.full_mask)
            assert is_subset(tau.base, _covered(z4, _pairs(z4, A), F))

    def test_exactness_against_brute_force(self, z6):
        tau = trivial_filter(z6)
        pool = elements(z6.full_mask)
        for A in (mask_of([0]), mask_of([0, 1]), mask_of([1, 3]), mask_of([0, 1, 2])):
            F = min_cover(z6, tau, A, "translate", z6.full_mask)
            pairs = _pairs(z6, A)
            assert is_subset(tau.base, _covered(z6, pairs, F))
            transforms = [translate_set(z6, f, pairs) for f in pool]
            for k in range(1, popcount(F)):
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
        assert popcount(b) <= popcount(a)

    def test_infeasible_is_a_verdict(self):
        # x*1 = 0 for every x, so delta({1}) is empty and covers nothing
        null3 = semigroup_from_spec("null:3")
        tau = trivial_filter(null3)
        assert min_cover(null3, tau, mask_of([1]), "delta", null3.full_mask) is None

    def test_pool_of_27_needs_no_limit(self):
        t3 = semigroup_from_spec("fulltransformation:3")
        tau = trivial_filter(t3)
        F = min_cover(t3, tau, mask_of([0]), "delta", t3.full_mask)
        assert popcount(F) == 3
        assert _covered(t3, _delta(t3, tau.base, mask_of([0])), F) == t3.full_mask
        # a singleton's difference set is {e}: every translate is needed
        z24 = semigroup_from_spec("cyclic:24")
        F = min_cover(z24, trivial_filter(z24), mask_of([0]), "translate", z24.full_mask)
        assert F == z24.full_mask

    def test_quotient_cover_is_the_large_witness_of_the_difference_set(self):
        # one kernel: with pool U0 the quotient cover of A is the least F
        # with F^-1 delta(A) >= U0, which `is_tau_large` finds for delta(A)
        triples = large = 0
        for entry in default_catalog():
            S = entry.semigroup
            if S.order > 4:
                continue
            for base in entry.bases:
                tau = make_principal(S, base)
                for A in range(1, S.full_mask + 1):
                    verdict = is_tau_large(S, tau, delta_tau(S, tau, A))
                    F = min_cover(S, tau, A, "quotient", base)
                    assert F == verdict.witness, (S.name, base, A)
                    assert (F is None) == (not verdict.value)
                    triples += 1
                    large += verdict.value
        assert (triples, large) == (6510, 3923)

    def test_quotient_mode_off_groups(self):
        # reference: f^-1 delta(A) = {x : f*x in delta(A)} from the raw table
        def reference(S, base, A, V):
            d = _delta(S, base, A)
            cands = [
                (f, mask_of(x for x in range(S.order) if (d >> S.table[f][x]) & 1))
                for f in bits(V)
            ]
            return least_cover(base, cands)

        specs = [f"{fam}:{k}" for fam in ("rightzero", "leftzero", "null")
                 for k in range(1, 5)]
        checked = 0
        for entry in order_le_catalog(3) + family_catalog(specs):
            S = entry.semigroup
            for base in entry.bases:
                tau = make_principal(S, base)
                for V in {base, S.full_mask}:
                    for A in range(1, S.full_mask + 1):
                        got = min_cover(S, tau, A, "quotient", V)
                        assert got == reference(S, base, A, V), (S.name, base, V, A)
                        checked += 1
        assert checked == 12030


class TestSweeps:
    def test_z4_two_cells_matches_the_bound(self, z4):
        rec = sweep_partitions(z4, trivial_filter(z4), 2, "translate")
        assert rec.worst_min_F == 2
        assert rec.proved_bound == finite_cover_bound(4, 2) == 2
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

    def test_every_mode_matches_its_per_mode_cover(self):
        # the reference builds each mode's cover here: f*(A*A^-1),
        # f^-1(A*A^-1) as a left quotient, and f*delta(A) with delta read
        # off the table
        def reference(S, base, A, mode, V):
            if mode == "delta":
                d = _delta(S, base, A)
                cands = [(f, translate_set(S, f, d)) for f in bits(V)]
            else:
                step = left_quotient if mode == "quotient" else translate_set
                pairs = _pairs(S, A)
                cands = [(f, step(S, f, pairs)) for f in bits(V)]
            return least_cover(base, cands)

        swept = 0
        for entry in default_catalog():
            S = entry.semigroup
            if not S.is_group or S.order > 6:
                continue
            for base in entry.bases:
                if popcount(base) < 2:
                    continue
                tau = make_principal(S, base)
                parts = _balanced_first(list(enumerate_partitions(base, 2)))
                for V in (base, S.full_mask):
                    for mode in MODES:
                        worst, argmax, infeasible = -1, None, 0
                        for part in parts:
                            covers = [
                                reference(S, base, A, mode, V)
                                for A in part.cell_masks()
                            ]
                            sizes = [popcount(F) for F in covers if F is not None]
                            if not sizes:
                                infeasible += 1
                            elif min(sizes) > worst:
                                worst, argmax = min(sizes), part
                        case = (S.name, elements(base), elements(V), mode)
                        if argmax is None:
                            with pytest.raises(SizeLimitExceeded):
                                sweep_partitions(S, tau, 2, mode, V)
                            continue
                        rec = sweep_partitions(S, tau, 2, mode, V)
                        got = (rec.worst_min_F, rec.argmax_partition,
                               rec.infeasible_partitions)
                        assert got == (worst, argmax, infeasible), case
                        swept += 1
        assert swept == 952

    def test_one_cell_sweep_is_min_cover_of_the_base(self):
        # the sweep's single cell is the base itself: the two definitions of
        # a mode's cover must agree, pools without the identity included
        cases = []
        for entry in default_catalog():
            S = entry.semigroup
            if not S.is_group or S.order > 6:
                continue
            pools = [S.full_mask & ~(1 << S.identity)] if S.order > 1 else []
            for base in entry.bases:
                cases += [(S, base, V) for V in [base, S.full_mask] + pools]
        z6 = semigroup_from_spec("cyclic:6")
        cases.append((z6, mask_of([0, 2]), mask_of([2])))
        for S, base, V in cases:
            tau = make_principal(S, base)
            for mode in MODES:
                F = min_cover(S, tau, base, mode, V)
                if F is None:
                    with pytest.raises(SizeLimitExceeded):
                        sweep_partitions(S, tau, 1, mode, V)
                    continue
                rec = sweep_partitions(S, tau, 1, mode, V)
                assert rec.worst_min_F == popcount(F), (S.name, base, V, mode)
        # 2^-1 + delta({0,2}) = 4 + {0,2,4} covers the base from the pool {2}
        tau = make_principal(z6, mask_of([0, 2]))
        assert popcount(min_cover(z6, tau, tau.base, "quotient", mask_of([2]))) == 1

    def test_pool_past_the_order_is_an_input_error(self, z4):
        tau = trivial_filter(z4)
        with pytest.raises(InputError):
            sweep_partitions(z4, tau, 2, "translate", 0b110001)
        with pytest.raises(InputError):
            min_cover(z4, tau, mask_of([0, 1]), "translate", 0b100000)

    def test_delta_sweep_z4(self, z4):
        rec = sweep_partitions(z4, trivial_filter(z4), 2, "delta")
        assert rec.mode == "delta"
        assert rec.worst_min_F == 2
        assert rec.alt_bound == 16  # 2^(2^n)
        assert rec.proved_bound == finite_cover_bound(4, 2) == 2

    def test_delta_sweep_z6_relative(self, z6):
        # the base {0,2,4} is a subgroup of order 3: a 2-element cell A has
        # A*A^-1 = {0,2,4}, so one translate covers it
        tau = make_principal(z6, mask_of([0, 2, 4]))
        rec = sweep_partitions(z6, tau, 2, "delta")
        assert rec.proved_bound == finite_cover_bound(3, 2) == 1
        assert rec.worst_min_F == 1

    def test_delta_sweep_on_a_semigroup_has_no_proved_bound(self, rz3):
        rec = sweep_partitions(rz3, trivial_filter(rz3), 2, "delta", rz3.full_mask)
        assert rec.proved_bound is None and rec.worst_min_F >= 1

    @pytest.mark.parametrize("mode", ["translate", "quotient"])
    def test_group_modes_sweep_a_semigroup(self, rz3, mode):
        # f*x = x, so delta(A) = S for non-empty A, and f^-1 S = f*S = S:
        # one f covers every cell.  Translate and delta compute one cover.
        tau = trivial_filter(rz3)
        rec = sweep_partitions(rz3, tau, 2, mode)
        delta = sweep_partitions(rz3, tau, 2, "delta")
        assert (rec.worst_min_F, rec.proved_bound) == (1, None)
        if mode == "translate":
            assert rec == delta._replace(mode="translate", alt_bound=None)
        # the base {0} has no 2-cell partition
        with pytest.raises(InputError):
            sweep_partitions(rz3, make_principal(rz3, mask_of([0])), 2, mode)

    def test_quotient_sweeps_of_subsemigroup_bases_are_feasible(self):
        # a base with U0*U0 <= U0 is prethick, and every partition of it has
        # a cell A with delta(A) large (T3_5 (iii) with T3_7), so these
        # quotient sweeps find no infeasible partition, and the sweep
        # asserts as much
        swept = 0
        for entry in default_catalog():
            S = entry.semigroup
            if S.order > 8:
                continue
            for base in entry.bases:
                tau = make_principal(S, base)
                if not check_hypothesis(tau, "semigroup_filter"):
                    continue
                assert prethick_value(S, tau, base)
                for n in (2, 3):
                    if n > popcount(base):
                        continue
                    rec = sweep_partitions(S, tau, n, "quotient")
                    assert rec.infeasible_partitions == 0
                    swept += 1
        assert swept == 916

    def test_an_infeasible_admitted_quotient_sweep_is_a_violation(self, monkeypatch):
        # the full base of rightzero:3 is closed under the product; off
        # groups no bound is proved, so only the feasibility rule can fire,
        # and it fires in quotient mode only
        monkeypatch.setattr(semsize.partitions, "_cover", lambda *args: None)
        rz3 = semigroup_from_spec("rightzero:3")
        tau = trivial_filter(rz3)
        with pytest.raises(BoundViolation, match="large difference set"):
            sweep_partitions(rz3, tau, 2, "quotient")
        for mode in ("translate", "delta"):
            with pytest.raises(SizeLimitExceeded):
                sweep_partitions(rz3, tau, 2, mode)
        # a pool without the base carries no such statement
        with pytest.raises(SizeLimitExceeded):
            sweep_partitions(rz3, tau, 2, "quotient", mask_of([0]))
        # in leftzero:3 (x*y = x) the base {0, 1} is closed under the
        # product but no left ideal (S*{0, 1} = S): the filter is not left
        # inverse invariant, and U0*U0 <= U0 alone admits the rule
        lz3 = semigroup_from_spec("leftzero:3")
        tau = make_principal(lz3, mask_of([0, 1]))
        assert not check_hypothesis(tau, "left_inverse_invariant")
        with pytest.raises(BoundViolation, match="large difference set"):
            sweep_partitions(lz3, tau, 2, "quotient")

    def test_finite_cover_bound(self):
        assert [finite_cover_bound(8, n) for n in range(1, 9)] == [
            1, 2, 2, 4, 4, 4, 4, 8
        ]
        assert finite_cover_bound(11, 6) == 5 and finite_cover_bound(12, 5) == 4
        for m in range(1, 25):
            for n in range(1, m + 1):
                assert finite_cover_bound(m, n) <= n

    @pytest.mark.parametrize("mode", MODES)
    def test_worst_above_the_finite_bound_is_a_violation(self, monkeypatch, mode):
        # the Z6 sweeps reach worst 2 == finite_cover_bound(6, 2); held to one
        # less, every mode must raise where the base is a subgroup in V
        z6 = semigroup_from_spec("cyclic:6")
        tau = trivial_filter(z6)
        assert sweep_partitions(z6, tau, 2, mode).worst_min_F == 2
        monkeypatch.setattr(
            semsize.partitions, "finite_cover_bound", lambda m, n: 1
        )
        with pytest.raises(BoundViolation):
            sweep_partitions(z6, tau, 2, mode)
        # {0,1} is no subgroup: no bound is proved, so none is asserted
        tau = make_principal(z6, mask_of([0, 1]))
        assert sweep_partitions(z6, tau, 2, mode, z6.full_mask).proved_bound is None

    def test_packing_certificate_bounds_every_least_cover(self):
        # for a cell A of a subgroup H (order m) with |A| >= ceil(m/n), a
        # maximal F <= H with pairwise disjoint f*A has F*A*A^-1 >= H and
        # |F| <= m // |A| <= finite_cover_bound(m, n); least_cover can only
        # do better
        checked = 0
        specs = ["cyclic:%d" % k for k in range(1, 9)] + [
            "symmetric:3", "dihedral:4", "quaternion8",
            "product:cyclic:2,cyclic:2,cyclic:2",
        ]
        for spec in specs:
            S = semigroup_from_spec(spec)
            for H in subgroups(S):
                m, tau = popcount(H), make_principal(S, H)
                for A in range(1, H + 1):
                    if A & ~H:
                        continue
                    F, used = 0, 0
                    for f in bits(H):
                        fA = translate_set(S, f, A)
                        if not fA & used:
                            F, used = F | 1 << f, used | fA
                    pairs = _pairs(S, A)
                    covered = 0
                    for f in bits(F):
                        covered |= translate_set(S, f, pairs)
                    assert is_subset(H, covered), (spec, H, A)
                    least = min_cover(S, tau, A, "translate", H)
                    assert popcount(least) <= popcount(F) <= m // popcount(A)
                    for n in range(1, m + 1):
                        if popcount(A) >= -(-m // n):
                            assert popcount(F) <= finite_cover_bound(m, n)
                    checked += 1
        assert checked == 1622

    def test_symmetry_members_of_an_orbit_agree(self, z4):
        # compute best-over-cells for every partition and check constancy
        # along automorphism orbits
        tau = trivial_filter(z4)
        autos = automorphisms(z4)
        best = {}
        for part in enumerate_partitions(z4.full_mask, 2):
            sizes = [
                popcount(min_cover(z4, tau, cell, "translate", z4.full_mask))
                for cell in part.cell_masks()
            ]
            best[part.labels] = min(sizes)
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

    def test_each_difference_set_is_covered_once_per_sweep(self, monkeypatch):
        # Z12 at 2 cells: 2047 partitions, 2414 cells searched without the
        # memo, but only 31 distinct difference sets
        calls = []
        real = semsize.partitions._cover

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(semsize.partitions, "_cover", counted)
        z12 = semigroup_from_spec("cyclic:12")
        rec = sweep_partitions(z12, trivial_filter(z12), 2, "translate")
        assert (rec.partitions_checked, len(calls)) == (2047, 31)

    def test_memo_sweep_equals_a_sweep_that_covers_every_cell(self):
        # reference: every cell of every partition gets its own least cover
        def reference(S, tau, n, mode, V):
            parts = _balanced_first(list(enumerate_partitions(tau.base, n)))
            worst, argmax, infeasible = -1, None, 0
            for part in parts:
                covers = [
                    min_cover(S, tau, A, mode, V) for A in part.cell_masks()
                ]
                sizes = [popcount(F) for F in covers if F is not None]
                if not sizes:
                    infeasible += 1
                elif min(sizes) > worst:
                    worst, argmax = min(sizes), part
            return worst, argmax, infeasible, len(parts)

        cases = [(spec, n, mode) for spec in ("cyclic:6", "symmetric:3", "dihedral:4")
                 for n in (2, 3) for mode in MODES]
        cases += [("leftzero:4", n, "delta") for n in (2, 3)]
        swept = 0
        for spec, n, mode in cases:
            S = semigroup_from_spec(spec)
            tau = trivial_filter(S)
            # the pool {0, 1} leaves some partitions without a cover, and on
            # leftzero:4 every one
            for V in (S.full_mask, mask_of([0, 1])):
                want = reference(S, tau, n, mode, V)
                if want[1] is None:
                    with pytest.raises(SizeLimitExceeded):
                        sweep_partitions(S, tau, n, mode, V)
                    continue
                rec = sweep_partitions(S, tau, n, mode, V)
                got = (rec.worst_min_F, rec.argmax_partition,
                       rec.infeasible_partitions, rec.partitions_checked)
                assert got == want, (spec, n, mode, elements(V))
                swept += 1
        assert swept == 38

    def test_sweep_counts_infeasible_partitions(self, z4):
        # the pool {1} misses the base: the first three partitions in sweep
        # order have no cover, so the argmax comes after them
        tau, pool = trivial_filter(z4), mask_of([1])
        rec = sweep_partitions(z4, tau, 2, "translate", pool)
        assert rec.infeasible_partitions == 3
        assert rec.proved_bound is None


class TestCoverDecision:
    def test_the_decision_is_the_sweep_at_every_width(self):
        # the decision holds exactly when the quotient sweep of the same
        # cells, with the base as its pool, has an infeasible partition or a
        # worst cover above w
        cases = 0
        for entry in default_catalog():
            S = entry.semigroup
            if S.order > 6:
                continue
            for base in entry.bases:
                tau = make_principal(S, base)
                m = popcount(base)
                for n in (2, 3):
                    if n > m:
                        continue
                    try:
                        rec = sweep_partitions(S, tau, n, "quotient")
                        worst, infeasible = rec.worst_min_F, rec.infeasible_partitions
                    except SizeLimitExceeded:  # no partition is feasible
                        worst, infeasible = None, 1
                    for w in range(1, m + 1):
                        want = bool(infeasible) or worst > w
                        assert cover_exceeds(S, tau, n, w) == want, (
                            S.name, elements(base), n, w,
                        )
                        cases += 1
        assert cases == 3778

    def test_the_decision_is_the_translate_sweep_on_subgroup_bases(self):
        # T3_2 states its bound for translates; on a subgroup base the least
        # quotient and translate covers have the same size
        cases = 0
        for entry in default_catalog():
            S = entry.semigroup
            for base in entry.bases:
                if not is_subgroup(S, base):
                    continue
                tau, m = make_principal(S, base), popcount(base)
                for n in (2, 3):
                    if n > m or S.order > sweep_order_limit(n):
                        continue
                    rec = sweep_partitions(S, tau, n, "translate")
                    for w in range(1, m + 1):
                        want = bool(rec.infeasible_partitions) or rec.worst_min_F > w
                        assert cover_exceeds(S, tau, n, w) == want, (
                            S.name, elements(base), n, w,
                        )
                        cases += 1
        assert cases == 285

    def test_the_decision_matches_the_frozenset_oracle(self):
        cases = 0
        for entry in order_le_catalog(3):
            S = entry.semigroup
            for base in entry.bases:
                if popcount(base) < 2:
                    continue
                tau = make_principal(S, base)
                for w in range(1, popcount(base) + 1):
                    want = brute_cover_exceeds(S, elements(base), 2, w)
                    assert cover_exceeds(S, tau, 2, w) == want, (
                        S.name, elements(base), w,
                    )
                    cases += 1
        assert cases == 1033

    def test_z11_at_six_cells_needs_four(self):
        # below the proved bound finite_cover_bound(11, 6) = 5, and past the
        # sweep's order limit for 6 cells
        z11 = semigroup_from_spec("cyclic:11")
        tau = trivial_filter(z11)
        exceeds = [cover_exceeds(z11, tau, 6, w) for w in range(1, 12)]
        assert exceeds == [True] * 3 + [False] * 8

    def test_a_pool_without_the_cover_and_a_small_base(self, null3, z4):
        # in null:3 every product is 0, outside the base {1, 2}: no cell has
        # a difference set, so every 2-partition exceeds every width
        tau = make_principal(null3, mask_of([1, 2]))
        assert all(cover_exceeds(null3, tau, 2, w) for w in range(3))
        tau = trivial_filter(z4)
        assert not cover_exceeds(z4, tau, 2, 4)
        with pytest.raises(InputError, match="base too small"):
            cover_exceeds(z4, tau, 5, 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_cell_is_an_input_error(self, z4, n):
        with pytest.raises(InputError, match="need at least one cell"):
            cover_exceeds(z4, trivial_filter(z4), n, 1)

    def test_a_negative_width_is_an_input_error(self, z4):
        with pytest.raises(InputError, match="non-negative"):
            cover_exceeds(z4, trivial_filter(z4), 2, -1)
