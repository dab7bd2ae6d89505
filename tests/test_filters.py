import pytest

from conftest import filter_on, powerset

from semsize import (
    EmptyBase,
    check_hypothesis,
    default_catalog,
    enumerate_semigroups,
    hypothesis_forces_full_base,
    left_quotient,
    make_principal,
    mask_of,
    order_le_catalog,
    semigroup_from_spec,
    trace_set,
    translate_set,
    trivial_filter,
    ultrafilter_product,
)
from semsize.masks import elements, transpose


# --- literal quantifier forms, evaluated over every filter member -----------


def members(S, base):
    univ = frozenset(range(S.order))
    return [U for U in powerset(univ) if base <= U]


def raw_quotient(S, g, U):
    return frozenset(x for x in range(S.order) if S.table[g][x] in U)


def raw_translate(S, g, U):
    return frozenset(S.table[g][x] for x in U)


def literal_hypothesis(S, base_set, kind, g=None):
    base = frozenset(base_set)
    taus = members(S, base)
    member_set = set(taus)
    if kind == "semigroup_filter":
        return all(S.table[a][b] in base for a in base for b in base)
    if kind == "left_invariant":
        return all(
            raw_translate(S, g_, U) in member_set
            for U in taus
            for g_ in range(S.order)
        )
    if kind == "left_inverse_invariant":
        return all(
            raw_quotient(S, g_, U) in member_set
            for U in taus
            for g_ in range(S.order)
        )
    if kind == "extrathick_members":
        return all(
            frozenset(x for x in range(S.order) if S.table[x][g_] in U)
            in member_set
            for U in taus
            for g_ in base
        )
    if kind == "shiftable_at":
        return all(raw_quotient(S, g, U) in member_set for U in taus)
    if kind == "neighborhood_shift":
        return all(
            frozenset(
                g_ for g_ in range(S.order) if raw_quotient(S, g_, U) in member_set
            )
            in member_set
            for U in taus
        )
    raise ValueError(kind)


def assert_shiftable_is_literal(S, tau):
    """The bits of tau.shiftable are the g that pass the literal
    shiftable_at quantifier over every filter member."""
    base_set = frozenset(elements(tau.base))
    want = [
        g for g in range(S.order)
        if literal_hypothesis(S, base_set, "shiftable_at", g)
    ]
    assert elements(tau.shiftable) == want, (S.name, tau.base)


# --- principal filters -------------------------------------------------------


class TestPrincipalFilter:
    def test_trivial_filter_is_the_absolute_theory(self, z6):
        tau = trivial_filter(z6)
        assert tau.is_trivial
        assert list(tau.members()) == [z6.full_mask]

    def test_member_count_is_two_to_the_free_positions(self, z6):
        tau = filter_on(z6, [0, 2, 4])
        got = list(tau.members())
        assert len(got) == 8
        assert all(U & tau.base == tau.base for U in got)
        assert mask_of([0, 2]) not in got

    def test_equal_on_the_same_semigroup_and_base(self, z6):
        # the filter is an lru_cache key of the witness search
        tau = filter_on(z6, [0, 2, 4])
        again = filter_on(semigroup_from_spec("cyclic:6"), [0, 2, 4])
        assert tau == again and hash(tau) == hash(again)
        assert tau.shiftable == again.shiftable == mask_of([0, 2, 4])
        assert tau != filter_on(z6, [0, 2])
        assert tau != trivial_filter(z6)

    def test_empty_base_rejected(self, z6):
        with pytest.raises(EmptyBase):
            make_principal(z6, 0)

    def test_shiftable_on_z6(self, z6):
        # g + U0 <= U0: every g on the full base, the subgroup's own points
        # on {0, 2, 4}, and only 0 on {5}
        assert trivial_filter(z6).shiftable == z6.full_mask
        assert filter_on(z6, [0, 2, 4]).shiftable == mask_of([0, 2, 4])
        assert filter_on(z6, [5]).shiftable == mask_of([0])


class TestUltrafilterProduct:
    def test_full_set_always_member(self, z4):
        for p in range(4):
            for q in range(4):
                assert ultrafilter_product(z4, p, q, z4.full_mask)

    def test_z4_examples(self, z4):
        assert ultrafilter_product(z4, 1, 2, mask_of([3]))
        assert not ultrafilter_product(z4, 1, 2, mask_of([0]))

    def test_exhaustive_order_2(self):
        # both evaluation orders agree everywhere; the call raises otherwise
        for S in enumerate_semigroups(2):
            for p in range(2):
                for q in range(2):
                    for A in range(4):
                        got = ultrafilter_product(S, p, q, A)
                        assert got == bool((A >> S.table[p][q]) & 1)


class TestHypotheses:
    def test_spec_examples_on_z6(self, z6):
        tau = filter_on(z6, [0, 2, 4])
        assert check_hypothesis(tau, "semigroup_filter")
        assert not check_hypothesis(tau, "left_invariant")
        assert check_hypothesis(tau, "neighborhood_shift")
        assert not check_hypothesis(tau, "left_inverse_invariant")
        assert tau.shiftable >> 2 & 1
        assert not tau.shiftable >> 1 & 1

    def test_full_base_satisfies_everything(self, rz3, z4):
        for S in (rz3, z4):
            tau = trivial_filter(S)
            for kind in (
                "semigroup_filter",
                "left_invariant",
                "left_inverse_invariant",
                "extrathick_members",
                "neighborhood_shift",
            ):
                assert check_hypothesis(tau, kind), kind
            assert tau.shiftable == S.full_mask

    def test_unknown_kind_is_refused(self, z4):
        with pytest.raises(ValueError):
            check_hypothesis(trivial_filter(z4), "shiftable_at")
        # the order-1 semigroup too, where every kind admits only the full base
        for S in (z4, semigroup_from_spec("cyclic:1")):
            with pytest.raises(ValueError):
                hypothesis_forces_full_base(S, "shiftable_at")

    def test_reduced_equals_literal_on_small_catalog(self):
        kinds = (
            "semigroup_filter",
            "left_invariant",
            "left_inverse_invariant",
            "extrathick_members",
            "neighborhood_shift",
        )
        for order in (1, 2, 3):
            for S in enumerate_semigroups(order):
                for base in range(1, S.full_mask + 1):
                    tau = make_principal(S, base)
                    base_set = frozenset(elements(base))
                    for kind in kinds:
                        assert check_hypothesis(tau, kind) == literal_hypothesis(
                            S, base_set, kind
                        ), (S.name, base, kind)
                    assert_shiftable_is_literal(S, tau)

    def test_reduced_equals_literal_up_to_order_5(self, z4):
        instances = [
            z4,
            semigroup_from_spec("cyclic:5"),
            semigroup_from_spec("rightzero:4"),
            semigroup_from_spec("leftzero:4"),
            semigroup_from_spec("null:5"),
            semigroup_from_spec("fulltransformation:2"),
        ]
        kinds = (
            "semigroup_filter",
            "left_invariant",
            "left_inverse_invariant",
            "extrathick_members",
            "neighborhood_shift",
        )
        for S in instances:
            for base in range(1, S.full_mask + 1):
                tau = make_principal(S, base)
                base_set = frozenset(elements(base))
                for kind in kinds:
                    assert check_hypothesis(tau, kind) == literal_hypothesis(
                        S, base_set, kind
                    ), (S.name, base, kind)
                assert_shiftable_is_literal(S, tau)

    def test_semigroup_filter_means_closed_points(self, z6):
        for base in range(1, 64):
            tau = make_principal(z6, base)
            if check_hypothesis(tau, "semigroup_filter"):
                pts = tau.base
                for a in elements(pts):
                    for b in elements(pts):
                        assert (pts >> z6.table[a][b]) & 1

    def test_left_invariance_forced_on_groups(self, z4, rz3):
        # on a finite group only the full base is left invariant
        assert hypothesis_forces_full_base(z4, "left_invariant")
        s3 = semigroup_from_spec("symmetric:3")
        assert hypothesis_forces_full_base(s3, "left_invariant")
        # right-zero semigroups admit every base
        assert not hypothesis_forces_full_base(rz3, "left_invariant")
        for base in range(1, 8):
            assert check_hypothesis(
                make_principal(rz3, base), "left_invariant"
            )


def swept_forces_full_base(S, kind):
    """Reference: no proper base among all 2^n - 2 satisfies the kind."""
    return not any(
        check_hypothesis(make_principal(S, base), kind)
        for base in range(1, S.full_mask)
    )


_KINDS = ("semigroup_filter", "left_invariant", "left_inverse_invariant",
          "extrathick_members", "neighborhood_shift")

# (U0*U0 <= U0, left invariant, left inverse invariant) forced, on
# semigroups where the three closed forms part ways
_SPLIT_VERDICTS = {
    "product:leftzero:2,cyclic:3": (False, True, True),  # a left group
    "product:rightzero:2,leftzero:2": (False, True, False),
    "fulltransformation:2": (False, True, False),
    "product:fulltransformation:2,cyclic:2": (False, True, False),
    "product:null:2,cyclic:2": (False, False, False),
}


def test_forced_full_base_matches_the_base_sweep():
    semigroups = [entry.semigroup for entry in default_catalog()] + [
        semigroup_from_spec(spec)
        for spec in (
            "product:cyclic:2,rightzero:2",
            "product:null:2,leftzero:2",
            "product:rightzero:2,cyclic:3",
            "product:leftzero:2,null:3",
            "product:cyclic:2,cyclic:3",
            *_SPLIT_VERDICTS,
        )
    ]
    forced = 0
    for S in semigroups:
        for kind in _KINDS:
            value = hypothesis_forces_full_base(S, kind)
            assert value == swept_forces_full_base(S, kind), (S.name, kind)
            forced += value
    # both answers occur, so the comparison is not vacuous
    assert 0 < forced < len(semigroups) * len(_KINDS)
    for spec, verdicts in _SPLIT_VERDICTS.items():
        S = semigroup_from_spec(spec)
        assert tuple(hypothesis_forces_full_base(S, kind) for kind in _KINDS[:3]) == (
            verdicts
        ), spec


def test_forced_full_base_builds_no_proper_filter(monkeypatch):
    # every kind but left invariance is decided in closed form, without
    # trying a proper base
    import semsize.filters as filters

    built, cls = [], filters.PrincipalFilter

    def recording(S, base):
        built.append((S, base))
        return cls(S, base)

    monkeypatch.setattr(filters, "PrincipalFilter", recording)
    for entry in default_catalog():
        for kind in _KINDS:
            if kind != "left_invariant":
                hypothesis_forces_full_base(entry.semigroup, kind)
    assert [(S.name, base) for S, base in built if base != S.full_mask] == []


_IMAGES = {
    "quot": left_quotient,
    "trace": lambda S, g, A: trace_set(S, A, g),
    "row": translate_set,
}


@pytest.mark.parametrize("kind", _IMAGES)
def test_reach_slices_are_the_set_arithmetic_restricted_to_the_reach(kind):
    # every order<=3 instance, base and g: the slices, transposed, list the
    # image of each subset of R under the set arithmetic, restricted to R
    checked = 0
    for entry in order_le_catalog(3):
        S = entry.semigroup
        for base in entry.bases:
            tau = make_principal(S, base)
            subsets = range(tau.positions + 1)
            for g in range(S.order):
                got = transpose(tau.reach_slices(kind, g), len(subsets))
                image = (_IMAGES[kind](S, g, tau.from_reach(P)) for P in subsets)
                want = [tau.to_reach(A) for A in image]
                assert got == want, (S.name, base, g)
                checked += 1
    assert checked == 2422
