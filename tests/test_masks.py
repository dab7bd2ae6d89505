from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from semsize.masks import (
    bits,
    complement,
    elements,
    is_subset,
    least_cover,
    mask_of,
    minimal,
    popcount,
    submasks,
    supersets,
    union_table,
)


def test_round_trip():
    assert elements(mask_of([0, 2, 5])) == [0, 2, 5]
    assert mask_of([]) == 0
    assert list(bits(0)) == []


def test_subset_and_complement():
    assert is_subset(0b0101, 0b1101)
    assert not is_subset(0b0101, 0b1001)
    assert complement(0b0101, 4) == 0b1010


def test_submasks_excludes_nothing_and_is_sorted():
    subs = list(submasks(0b1011))
    assert len(subs) == 8
    assert subs == sorted(subs)
    assert subs[0] == 0 and subs[-1] == 0b1011


def test_supersets_within_full():
    sups = list(supersets(0b010, 0b111))
    assert set(sups) == {0b010, 0b011, 0b110, 0b111}


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


@given(
    st.integers(min_value=0, max_value=(1 << 12) - 1),
    st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=(1 << 12) - 1),
        max_size=10,
    ),
)
def test_least_cover_matches_brute_force(target, covers):
    # fewest candidates first, then the least element mask; None when
    # nothing covers
    cands = sorted(covers.items())
    want = None
    for k in range(len(cands) + 1):
        fits = [
            mask_of(e for e, _ in c)
            for c in combinations(cands, k)
            if is_subset(target, _union(m for _, m in c))
        ]
        if fits:
            want = min(fits)
            break
    assert least_cover(target, cands) == want


@given(st.sets(st.integers(min_value=0, max_value=11)))
def test_popcount_matches_cardinality(elems):
    assert popcount(mask_of(elems)) == len(elems)


@given(
    st.sets(st.integers(min_value=0, max_value=9)),
    st.sets(st.integers(min_value=0, max_value=9)),
)
def test_subset_agrees_with_sets(a, b):
    assert is_subset(mask_of(a), mask_of(b)) == (a <= b)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), max_size=10))
def test_union_table_is_the_union_at_each_mask(images):
    t = union_table(images)
    assert len(t) == 1 << len(images)
    for m in range(len(t)):
        assert t[m] == _union(images[i] for i in bits(m))


@given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=12))
def test_minimal_keeps_the_members_with_no_proper_subset(family):
    want = sorted(
        {m for m in family if not any(k != m and is_subset(k, m) for k in family)}
    )
    assert minimal(family) == want
    assert minimal(iter(family)) == want
