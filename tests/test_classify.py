from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SetOracle, filter_on

from semsize import (
    SizeLimitExceeded,
    classify_all,
    delta_tau,
    enumerate_semigroups,
    is_tau_extrathick,
    is_tau_large,
    is_tau_prethick,
    is_tau_small,
    is_tau_thick,
    literal_oracle,
    make_principal,
    mask_of,
    semigroup_from_spec,
    set_quotient,
    trace_set,
    trivial_filter,
)
import semsize.classify as classify
from semsize.classify import large_value, thick_value
from semsize.masks import bits, elements, is_subset, popcount
from semsize.semigroups import right_translate


class TestLarge:
    def test_nonempty_sets_are_large_in_groups(self, z4):
        tau = trivial_filter(z4)
        for A in range(1, 16):
            assert is_tau_large(z4, tau, A).value
        assert not is_tau_large(z4, tau, 0).value

    def test_right_zero_proper_subsets_not_large(self, rz3):
        tau = trivial_filter(rz3)
        assert not is_tau_large(rz3, tau, mask_of([0, 1])).value
        assert is_tau_large(rz3, tau, rz3.full_mask).value

    def test_z6_relative_examples(self, z6):
        tau = filter_on(z6, [0, 2, 4])
        v = is_tau_large(z6, tau, mask_of([2]))
        assert v.value and v.witness == mask_of([0, 2, 4])
        assert not is_tau_large(z6, tau, mask_of([1])).value

    def test_witness_replays_and_is_minimal(self, z6):
        tau = filter_on(z6, [0, 2, 4])
        for A in range(64):
            v = is_tau_large(z6, tau, A)
            if not v.value:
                assert v.witness is None
                continue
            F = v.witness
            assert is_subset(F, tau.base)
            assert is_subset(tau.base, set_quotient(z6, F, A))
            # brute force: no smaller F covers, and F is the least of its size
            covers = {
                k: [
                    mask_of(c) for c in combinations(elements(tau.base), k)
                    if is_subset(tau.base, set_quotient(z6, mask_of(c), A))
                ]
                for k in range(1, popcount(F) + 1)
            }
            assert all(not covers[k] for k in range(1, popcount(F)))
            assert F == min(covers[popcount(F)])


class TestThick:
    def test_full_set_thick_for_every_base(self, z6):
        for base in range(1, 64):
            assert is_tau_thick(z6, make_principal(z6, base), z6.full_mask).value

    def test_proper_subsets_never_thick_absolutely_in_groups(self, z4):
        tau = trivial_filter(z4)
        for A in range(16):
            assert is_tau_thick(z4, tau, A).value == (A == 15)

    def test_right_zero_singleton_thick(self, rz3):
        v = is_tau_thick(rz3, trivial_filter(rz3), mask_of([1]))
        assert v.value and v.witness == mask_of([1])

    def test_witness_element_comes_from_the_base(self, z6):
        # the defining quantifier draws x from a filter member, so {2,5} is
        # NOT thick for base {0,3}: neither x=0 nor x=3 works
        tau = filter_on(z6, [0, 3])
        v = is_tau_thick(z6, tau, mask_of([2, 5]))
        assert not v.value
        oracle = SetOracle(z6, [0, 3])
        assert not oracle.thick({2, 5})

    def test_thick_set_with_base_witness(self, z6):
        tau = filter_on(z6, [0, 3])
        v = is_tau_thick(z6, tau, mask_of([0, 3]))
        assert v.value and v.witness in (mask_of([0]), mask_of([3]))


class TestExtrathick:
    def test_subgroup_base_closed(self, z6):
        assert is_tau_extrathick(z6, filter_on(z6, [0, 2, 4]), mask_of([0, 2, 4])).value
        assert is_tau_extrathick(z6, filter_on(z6, [0, 3]), mask_of([0, 3])).value
        assert not is_tau_extrathick(z6, filter_on(z6, [0, 3]), mask_of([3])).value


class TestPrethick:
    def test_nonempty_prethick_in_finite_group(self, z4):
        tau = trivial_filter(z4)
        for A in range(1, 16):
            assert is_tau_prethick(z4, tau, A).value

    def test_base_03_examples_match_the_definitions(self, z6):
        # follows the thick computation above: quotients of {2,5} by {0,3}
        # stay {2,5}, which is not thick for this base
        tau = filter_on(z6, [0, 3])
        assert not is_tau_prethick(z6, tau, mask_of([2, 5])).value
        oracle = SetOracle(z6, [0, 3])
        assert not oracle.prethick({2, 5})

    def test_null_semigroup_vs_literal(self, null3):
        tau = trivial_filter(null3)
        got = is_tau_prethick(null3, tau, mask_of([1])).value
        assert got == literal_oracle("prethick", null3, tau, mask_of([1]))
        assert got is False

    def test_witness_replays(self, z6):
        tau = filter_on(z6, [0, 2, 4])
        for A in range(64):
            v = is_tau_prethick(z6, tau, A)
            if v.value:
                assert thick_value(z6, tau, set_quotient(z6, v.witness, A))


class TestSmall:
    def test_empty_set_small(self, z6):
        for base in (1, mask_of([0, 3]), z6.full_mask):
            assert is_tau_small(z6, make_principal(z6, base), 0).value

    def test_whole_group_not_small(self, z4):
        v = is_tau_small(z4, trivial_filter(z4), z4.full_mask)
        assert not v.value and v.witness is not None

    def test_right_zero_2_example(self):
        rz2 = semigroup_from_spec("rightzero:2")
        tau = trivial_filter(rz2)
        v = is_tau_small(rz2, tau, mask_of([0]))
        assert not v.value
        # the witness is a large set whose trimming is no longer large
        L = v.witness
        assert large_value(rz2, tau, L)
        assert not large_value(rz2, tau, L & ~mask_of([0]))

    def test_order_27_needs_no_size_limit(self):
        # the closed form decides small at any order; in T_3 the constant
        # maps (indices 0, 13, 26) form the one minimal right translate S*c
        t3 = semigroup_from_spec("fulltransformation:3")
        tau = trivial_filter(t3)
        constants = mask_of([0, 13, 26])
        assert is_tau_small(t3, tau, t3.full_mask & ~constants).value
        A = mask_of([13])
        v = is_tau_small(t3, tau, A)
        assert not v.value
        L = v.witness
        assert large_value(t3, tau, L)
        assert not large_value(t3, tau, L & ~A)
        for y in elements(L):
            assert not large_value(t3, tau, L & ~(1 << y))


def _replays(S, tau, A, large_F, prethick_F):
    return (
        is_subset(large_F, tau.base)
        and is_subset(tau.base, set_quotient(S, large_F, A))
        and is_subset(prethick_F, tau.base)
        and thick_value(S, tau, set_quotient(S, prethick_F, A))
    )


class TestExactWitnesses:
    # past 12 base points the witness search used to fall back to a greedy
    # prefix of the base; these pin the exact least minimum covers there

    def test_order_27_witnesses_are_one_element(self):
        t3 = semigroup_from_spec("fulltransformation:3")
        tau = trivial_filter(t3)
        A = mask_of([1, 13])
        large_F = is_tau_large(t3, tau, A).witness
        prethick_F = is_tau_prethick(t3, tau, A).witness
        assert large_F == prethick_F == mask_of([13])
        assert _replays(t3, tau, A, large_F, prethick_F)

    def test_cyclic_24_witnesses_have_12_elements_and_replay(self):
        z24 = semigroup_from_spec("cyclic:24")
        tau = trivial_filter(z24)
        A = mask_of([0, 15, 21])
        large_F = is_tau_large(z24, tau, A).witness
        prethick_F = is_tau_prethick(z24, tau, A).witness
        assert popcount(large_F) == popcount(prethick_F) == 12
        assert _replays(z24, tau, A, large_F, prethick_F)

    def test_prethick_is_large_when_u0_is_the_only_translate(self):
        # on a group with the full base every translate is U0 itself, so
        # prethick is large, with the same least cover of U0 as witness
        z24 = semigroup_from_spec("cyclic:24")
        tau = trivial_filter(z24)
        A = mask_of([0, 15, 21])
        verdicts = {v.predicate: v for v in classify_all(z24, tau, A)}
        assert verdicts["prethick"] == verdicts["large"]._replace(predicate="prethick")

    def test_classify_all_searches_u0_once(self, monkeypatch):
        # large and prethick ask for the same least cover of U0 here
        calls = []
        search = classify.least_cover
        monkeypatch.setattr(
            classify, "least_cover", lambda *a: calls.append(a) or search(*a)
        )
        classify._least_witness.cache_clear()
        z24 = semigroup_from_spec("cyclic:24")
        classify_all(z24, trivial_filter(z24), mask_of([0, 15, 21]))
        assert len(calls) == 1

    def test_prethick_from_minimal_translates_is_the_per_x_minimum(self):
        # reference: the least (size, mask) F <= U0 with U0*x <= F^-1 A for
        # some x in U0, by brute force over every x.  The order-3 tables
        # include bases whose translates nest, so some targets are dropped
        cases = [
            (semigroup_from_spec("cyclic:6"), mask_of([0, 1])),
            (semigroup_from_spec("rightzero:4"), mask_of([0, 1, 3])),
        ] + [
            (S, base)
            for S in enumerate_semigroups(3)
            for base in range(1, S.full_mask)
        ]
        for S, base in cases:
            tau = make_principal(S, base)
            translates = [right_translate(S, base, x) for x in bits(base)]
            for A in range(S.full_mask + 1):
                want = None
                for k in range(1, popcount(base) + 1):
                    fits = [
                        mask_of(c) for c in combinations(elements(base), k)
                        if any(
                            is_subset(E, set_quotient(S, mask_of(c), A))
                            for E in translates
                        )
                    ]
                    if fits:
                        want = min(fits)
                        break
                assert is_tau_prethick(S, tau, A).witness == want, (S.name, A)


class TestTraceAndDelta:
    def test_trace_examples(self, z4, rz3):
        assert trace_set(z4, z4.full_mask, 2) == z4.full_mask
        assert trace_set(z4, mask_of([0]), 1) == mask_of([3])
        for g in range(3):
            assert trace_set(rz3, mask_of([g]), g) == rz3.full_mask

    def test_delta_examples(self, z6, z4):
        tau = trivial_filter(z6)
        assert delta_tau(z6, tau, mask_of([0, 3])) == mask_of([0, 3])
        assert delta_tau(z6, tau, 0) == 0
        assert delta_tau(z6, tau, z6.full_mask) == z6.full_mask
        assert delta_tau(z4, trivial_filter(z4), mask_of([0, 1])) == mask_of(
            [0, 1, 3]
        )


# ---------------------------------------------------------------------------
# cross-cutting properties


def _instances_order_le_2():
    out = []
    for order in (1, 2):
        out.extend(enumerate_semigroups(order))
    return out


def test_reduced_predicates_agree_with_literal_oracle_small():
    # the full order<=3 sweep is acceptance criterion 1; this is the fast slice
    for S in _instances_order_le_2():
        for base in range(1, S.full_mask + 1):
            tau = make_principal(S, base)
            for A in range(S.full_mask + 1):
                verdicts = {v.predicate: v.value for v in classify_all(S, tau, A, False)}
                for predicate, value in verdicts.items():
                    assert value == literal_oracle(predicate, S, tau, A), (
                        S.name,
                        base,
                        A,
                        predicate,
                    )


def test_reduced_predicates_agree_with_literal_oracle_order_4_and_5():
    # group structure and zero patterns the order<=3 catalog cannot show
    specs = (
        "cyclic:4", "cyclic:5", "rightzero:4", "leftzero:4",
        "null:4", "null:5", "fulltransformation:2", "dihedral:2",
    )
    from semsize.literal import LiteralContext

    for spec in specs:
        S = semigroup_from_spec(spec)
        for base in range(1, S.full_mask + 1):
            tau = make_principal(S, base)
            ctx = LiteralContext(S, tau)
            for A in range(S.full_mask + 1):
                for v in classify_all(S, tau, A, with_witness=False):
                    assert v.value == getattr(ctx, v.predicate)(A), (
                        spec, base, A, v.predicate,
                    )


def test_literal_oracle_guards():
    t3 = semigroup_from_spec("fulltransformation:3")
    with pytest.raises(SizeLimitExceeded):
        literal_oracle("large", t3, trivial_filter(t3), 0)
    z4 = semigroup_from_spec("cyclic:4")
    with pytest.raises(ValueError):
        literal_oracle("huge", z4, trivial_filter(z4), 0)


def test_absolute_duality_on_order_2():
    for S in _instances_order_le_2():
        tau = trivial_filter(S)
        for A in range(S.full_mask + 1):
            assert thick_value(S, tau, A) == (
                not large_value(S, tau, S.full_mask & ~A)
            )


@st.composite
def z6_filter_and_sets(draw):
    base = draw(st.integers(min_value=1, max_value=63))
    A = draw(st.integers(min_value=0, max_value=63))
    extra = draw(st.integers(min_value=0, max_value=63))
    return base, A, A | extra


@given(z6_filter_and_sets())
@settings(max_examples=120, deadline=None)
def test_monotone_in_the_subset(z6_data):
    z6 = semigroup_from_spec("cyclic:6")
    base, A, bigger = z6_data
    tau = make_principal(z6, base)
    if large_value(z6, tau, A):
        assert large_value(z6, tau, bigger)
    if thick_value(z6, tau, A):
        assert thick_value(z6, tau, bigger)
    if is_tau_prethick(z6, tau, A, False).value:
        assert is_tau_prethick(z6, tau, bigger, False).value
    if not is_tau_small(z6, tau, A, False).value:
        assert not is_tau_small(z6, tau, bigger, False).value


def test_every_witness_replays_on_the_order_2_catalog():
    # large/prethick witnesses re-cover the base; thick witnesses translate
    # into the set; failed-small witnesses name a large set that breaks
    for S in _instances_order_le_2():
        for base in range(1, S.full_mask + 1):
            tau = make_principal(S, base)
            for A in range(S.full_mask + 1):
                v = is_tau_large(S, tau, A)
                if v.value:
                    assert is_subset(v.witness, base)
                    assert is_subset(base, set_quotient(S, v.witness, A))
                v = is_tau_thick(S, tau, A)
                if v.value:
                    (x,) = elements(v.witness)
                    assert x in elements(base)
                    assert is_subset(right_translate(S, base, x), A)
                v = is_tau_prethick(S, tau, A)
                if v.value:
                    assert is_subset(v.witness, base)
                    assert thick_value(S, tau, set_quotient(S, v.witness, A))
                v = is_tau_small(S, tau, A)
                if not v.value:
                    L = v.witness
                    assert large_value(S, tau, L)
                    assert not large_value(S, tau, L & ~A)
                    for y in elements(L):
                        assert not large_value(S, tau, L & ~(1 << y))


def _translate_reference(S, base, A):
    """(large, thick, prethick, small) of A from the right translates
    base*u, each computed here by one right_translate call."""
    translates = [right_translate(S, base, u) for u in elements(base)]
    minimal = [
        E for E in translates
        if not any(R != E and is_subset(R, E) for R in translates)
    ]
    quotient = set_quotient(S, base, A)
    return (
        all(E & A for E in translates),
        any(is_subset(E, A) for E in translates),
        any(is_subset(E, quotient) for E in translates),
        not any(E & A for E in minimal),
    )


def test_sweep_tables_match_the_per_call_predicates(z6, rz3, null3):
    # the theorem checkers consume the batched tables; pin them and the
    # one-at-a-time implementations to a reference that computes the right
    # translates itself
    from semsize.classify import SizeTables, prethick_value, small_value

    # Z12 under its subgroup H = {0, 4, 8}: H*u = H for u in H, so the one
    # minimal translate is the proper subgroup itself; under {0, 4} the two
    # translates {0, 4} and {4, 8} are both minimal
    z12 = semigroup_from_spec("cyclic:12")
    H, pair = mask_of([0, 4, 8]), mask_of([0, 4])
    assert make_principal(z12, H).minimal_translates == (H,)
    assert make_principal(z12, pair).minimal_translates == (pair, pair << 4)
    cases = [
        (S, base)
        for S in (z6, rz3, null3)
        for base in (1, mask_of([0, 2]) & S.full_mask or 1, S.full_mask)
    ] + [(z12, H), (z12, pair)]
    for S, base in cases:
        tau = make_principal(S, base)
        tb = SizeTables(S, tau)
        # one entry per subset of the reach, read at A's points there
        assert len(tb.large) == 1 << tau.reach.bit_count()
        for A in range(S.full_mask + 1):
            want = _translate_reference(S, base, A)
            P = tau.to_reach(A)
            assert (tb.large[P], tb.thick[P], tb.prethick[P], tb.small[P]) == want
            assert (
                large_value(S, tau, A),
                thick_value(S, tau, A),
                prethick_value(S, tau, A),
                small_value(S, tau, A),
            ) == want


def test_tables_refuse_domains_above_the_table_limit(monkeypatch):
    # each table has one entry per subset of its domain (the reach for
    # SizeTables): up to TABLE_ORDER_LIMIT points it is built, past it both
    # builders refuse before any table is listed
    from semsize.classify import TABLE_ORDER_LIMIT, SizeTables, delta_table

    assert TABLE_ORDER_LIMIT == 12
    z12, z13 = semigroup_from_spec("cyclic:12"), semigroup_from_spec("cyclic:13")
    tau = trivial_filter(z12)
    assert len(SizeTables(z12, tau).large) == 1 << 12
    assert len(delta_table(z12, tau, z12.full_mask)) == 1 << 12

    def fail(images):
        raise AssertionError("a table was listed")

    monkeypatch.setattr(classify, "union_table", fail)
    tau = trivial_filter(z13)
    limit = "table over 13 points is above the table limit 12"
    with pytest.raises(SizeLimitExceeded, match=limit):
        SizeTables(z13, tau)
    with pytest.raises(SizeLimitExceeded, match=limit):
        delta_table(z13, tau, z13.full_mask)


def test_small_table_matches_the_definition_at_orders_6_to_12():
    # above the literal oracle's reach: A is small iff every large L keeps
    # a large L - A, read off the batched large table
    from semsize import default_catalog
    from semsize.classify import SizeTables

    checked = 0
    for entry in default_catalog():
        S = entry.semigroup
        if not 6 <= S.order <= 12:
            continue
        for base in entry.bases:
            tau = make_principal(S, base)
            tb = SizeTables(S, tau)
            # the tables read at each subset's points in the reach
            reach = [tau.to_reach(A) for A in range(S.full_mask + 1)]
            large = [tb.large[P] for P in reach]
            larges = [L for L in range(S.full_mask + 1) if large[L]]
            for A in range(S.full_mask + 1):
                assert tb.small[reach[A]] == all(large[L & ~A] for L in larges), (
                    S.name, base, A,
                )
            checked += 1
    assert checked == 352


def test_trace_theorem_forms_on_order_2_catalog():
    # biconditionals behind the ultrafilter characterizations
    for S in _instances_order_le_2():
        for base in range(1, S.full_mask + 1):
            tau = make_principal(S, base)
            U0 = tau.base
            for A in range(S.full_mask + 1):
                assert large_value(S, tau, A) == all(
                    trace_set(S, A, g) & U0 for g in elements(U0)
                )
                assert thick_value(S, tau, A) == any(
                    is_subset(U0, trace_set(S, A, g)) for g in elements(U0)
                )


def test_delta_table_is_delta_tau_of_every_subset():
    # every order<=3 instance at every base, and each default family at its
    # full base and at its first proper default base
    from semsize.catalog import (
        DEFAULT_FAMILY_SPECS,
        family_catalog,
        order_le_catalog,
    )
    from semsize.classify import delta_table

    pairs = [(e.semigroup, b) for e in order_le_catalog(3) for b in e.bases]
    for spec in DEFAULT_FAMILY_SPECS:
        entry = family_catalog([spec])[0]
        S = entry.semigroup
        proper = next(b for b in entry.bases if b != S.full_mask)
        pairs += [(S, S.full_mask), (S, proper)]
    for S, base in pairs:
        tau = make_principal(S, base)
        d = delta_table(S, tau, S.full_mask)
        assert len(d) == S.full_mask + 1
        assert d == [delta_tau(S, tau, A) for A in range(S.full_mask + 1)], (
            S.name, base,
        )
        # over the base the table is indexed by positions within the base
        points = elements(base)
        d = delta_table(S, tau, base)
        assert len(d) == 1 << len(points)
        for P in range(len(d)):
            A = mask_of(points[i] for i in bits(P))
            assert d[P] == delta_tau(S, tau, A), (S.name, base, A)
