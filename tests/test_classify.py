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
from semsize.classify import large_value, thick_value
from semsize.masks import elements, is_subset, masks_by_popcount, popcount
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
            for smaller in masks_by_popcount(tau.base):
                if popcount(smaller) >= popcount(F):
                    break
                assert not (
                    smaller and is_subset(tau.base, set_quotient(z6, smaller, A))
                )


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


def test_sweep_tables_match_the_per_call_predicates(z6, rz3, null3):
    # the theorem checkers consume the batched tables; pin them to the
    # one-at-a-time implementations
    from semsize.classify import SizeTables, prethick_value, small_value

    for S in (z6, rz3, null3):
        for base in (1, mask_of([0, 2]) & S.full_mask or 1, S.full_mask):
            tau = make_principal(S, base)
            tb = SizeTables(S, tau)
            for A in range(S.full_mask + 1):
                assert tb.large[A] == large_value(S, tau, A)
                assert tb.thick[A] == thick_value(S, tau, A)
                assert tb.prethick[A] == prethick_value(S, tau, A)
            small = tb.small
            for A in range(S.full_mask + 1):
                assert small[A] == small_value(S, tau, A)


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
            tb = SizeTables(S, make_principal(S, base))
            large = tb.large
            larges = [L for L in range(S.full_mask + 1) if large[L]]
            for A in range(S.full_mask + 1):
                assert tb.small[A] == all(large[L & ~A] for L in larges), (
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
