from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from semsize.masks import (
    all_subsets,
    bits,
    complement,
    compose,
    coordinates,
    elements,
    is_subset,
    least_cover,
    mask_of,
    meets,
    minimal,
    minimal_layers,
    point_slices,
    popcount,
    submasks,
    subsets_of,
    supersets,
    supersets_of,
    transpose,
    window_count,
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


@given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=12))
def test_minimal_keeps_the_members_with_no_proper_subset(family):
    want = sorted(
        {m for m in family if not any(k != m and is_subset(k, m) for k in family)}
    )
    assert minimal(family) == want
    assert minimal(iter(family)) == want


# ---------------------------------------------------------------------------
# bit tables over the positions R = (1 << r) - 1, r <= 6, against lists of
# the 2^r subsets


def _table(family):
    """The bit table of a family of subsets."""
    out = 0
    for P in family:
        out |= 1 << P
    return out


@st.composite
def _positions(draw):
    r = draw(st.integers(min_value=0, max_value=6))
    return (1 << r) - 1


@given(_positions(), st.data())
def test_subset_tables_match_the_listed_subsets(R, data):
    X = data.draw(st.integers(min_value=0, max_value=R))
    subsets = range(R + 1)
    assert all_subsets(R) == _table(subsets)
    assert subsets_of(X) == _table(P for P in subsets if is_subset(P, X))
    assert meets(X, R) == _table(P for P in subsets if P & X)
    assert supersets_of(X, R) == _table(P for P in subsets if is_subset(X, P))
    assert coordinates(R) == tuple(
        _table(P for P in subsets if P >> i & 1) for i in bits(R)
    )


@given(_positions(), st.data())
def test_window_count_matches_the_listed_entries(R, data):
    table = data.draw(st.integers(min_value=0, max_value=all_subsets(R)))
    start = data.draw(st.integers(min_value=0, max_value=R + 1))
    size = data.draw(st.integers(min_value=0, max_value=R + 1 - start))
    entries = [table >> P & 1 for P in range(R + 1)]
    assert window_count(table, start, size) == sum(entries[start : start + size])


@given(st.integers(min_value=0, max_value=(1 << 10) - 1), st.integers(0, 3))
def test_point_slices_hold_the_subsets_through_each_point(domain, extra):
    # the subsets of the domain by positions: P holds x iff x is the point
    # at one of P's positions, and no P holds a point off the domain
    width = domain.bit_length() + extra
    points = elements(domain)
    slices = point_slices(domain, width)
    assert len(slices) == width
    subsets = [mask_of(points[i] for i in bits(P)) for P in range(1 << len(points))]
    for x in range(width):
        assert slices[x] == _table(P for P, A in enumerate(subsets) if A >> x & 1)


@given(_positions(), st.data())
def test_transpose_lists_the_image_of_each_subset(R, data):
    # slice q of a map is {P : q in f(P)}; the transpose lists f(P)
    width = data.draw(st.integers(min_value=1, max_value=8))
    f = data.draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=R + 1, max_size=R + 1)
    )
    slices = [_table(P for P in range(R + 1) if f[P] >> q & 1) for q in range(width)]
    assert transpose(slices, R + 1) == f


@given(_positions(), st.data())
def test_compose_reads_any_table_at_the_image_of_each_subset(R, data):
    # any table, up-closed or not, and any map, given by its slices
    table = data.draw(st.integers(min_value=0, max_value=all_subsets(R)))
    point = st.integers(min_value=0, max_value=R)
    f = data.draw(st.lists(point, min_size=R + 1, max_size=R + 1))
    slices = [_table(P for P in range(R + 1) if f[P] >> q & 1) for q in bits(R)]
    layers = minimal_layers(table, R)
    assert len(layers) <= R.bit_length() + 1
    assert compose(layers, slices, R) == _table(
        P for P in range(R + 1) if table >> f[P] & 1
    )


@given(_positions(), st.data())
def test_an_up_closed_table_is_one_layer_of_its_minimal_members(R, data):
    family = data.draw(st.lists(st.integers(min_value=0, max_value=R), max_size=4))
    table = _table(P for P in range(R + 1) if any(is_subset(E, P) for E in family))
    want = (tuple(minimal(family)),) if family else ()
    assert minimal_layers(table, R) == want
