"""Subsets of {0, ..., width-1} as plain int bit vectors.

Every predicate in the package is a boolean-algebra computation, so subsets
are kept as ints throughout; the owning semigroup knows the width.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def elements(mask: int) -> List[int]:
    return list(bits(mask))


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


def is_subset(a: int, b: int) -> bool:
    return a | b == b


def complement(mask: int, width: int) -> int:
    return ((1 << width) - 1) ^ mask


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask` (including 0 and mask), in increasing int order.

    (sub - mask) & mask is ((sub | ~mask) + 1) & mask: adding one with every
    bit outside mask set carries straight past those bits, so it counts up
    through the submasks in order.
    """
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def supersets(base: int, full: int) -> Iterator[int]:
    """All masks M with base <= M <= full, ascending in the free positions."""
    free = full & ~base
    for extra in submasks(free):
        yield base | extra


def minimal(family: Iterable[int]) -> List[int]:
    """The inclusion-minimal members of a family of masks, ascending."""
    kept: List[int] = []
    for m in sorted(set(family), key=popcount):
        if not any(is_subset(k, m) for k in kept):
            kept.append(m)
    return sorted(kept)


# ---------------------------------------------------------------------------
# bit tables: a family of subsets P of the positions R = (1 << r) - 1 as one
# int, whose bit P is set iff P is in the family


def all_subsets(R: int) -> int:
    """The subsets of R = (1 << r) - 1: the bits below 2^r."""
    return (2 << R) - 1


def subsets_of(X: int) -> int:
    """The subsets of X: each position of X doubles the table."""
    s = 1
    while X:
        low = X & -X
        s |= s << low
        X ^= low
    return s


def meets(K: int, R: int) -> int:
    """The subsets of R that meet K."""
    return all_subsets(R) ^ subsets_of(R & ~K)


def supersets_of(E: int, R: int) -> int:
    """The subsets of R that hold E."""
    return subsets_of(R & ~E) << E


def window_count(table: int, start: int, size: int) -> int:
    """The number of entries of the table in [start, start + size)."""
    return (table >> start & ((1 << size) - 1)).bit_count()


@cache
def coordinates(R: int) -> Tuple[int, ...]:
    """The subsets of R through each of its positions, `supersets_of({i})`:
    the bit slices of the identity map."""
    return tuple(supersets_of(1 << i, R) for i in bits(R))


def point_slices(domain: int, width: int) -> Tuple[int, ...]:
    """t[x] for each x below width: the subsets of the domain, by positions
    within it, that hold x (`coordinates`), and 0 for x off the domain."""
    t = [0] * width
    for x, through in zip(bits(domain), coordinates((1 << domain.bit_count()) - 1)):
        t[x] = through
    return tuple(t)


def transpose(slices: Sequence[int], size: int) -> List[int]:
    """d[P] = the mask of the q with P in slices[q], for every P below size:
    the image of each subset under a map given by its bit slices.  Written
    out in binary with q descending, column P of the slices is d[P]."""
    rows = [format(s, "b").zfill(size) for s in reversed(slices)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


@lru_cache(maxsize=2)
def minimal_layers(table: int, R: int) -> Tuple[Tuple[int, ...], ...]:
    """The minimal members of up-closed families U1, U2, ... over R whose
    symmetric difference is the table; one layer when it is up-closed.

    U1 is the up-closure of the table, and the rest are the layers of what
    U1 adds to it: each layer's minimal members are larger than the last's,
    so there are at most r + 1 layers.  Shifting a table by 1 << i moves
    each P without i to P | {i}, in the subsets through i, so `above` is
    the family one step above; the minimal members of an up-closed family
    are those not above it.

    The last two answers are kept: an instance's claims read the layers of
    its large and thick tables again and again.
    """
    through = coordinates(R)
    layers = []
    while table:
        up = table
        while True:
            above = 0
            for i, through_i in enumerate(through):
                above |= up << (1 << i) & through_i
            if not above & ~up:
                break
            up |= above
        layers.append(tuple(bits(up & ~above)))
        table ^= up
    return tuple(layers)


def compose(layers: Sequence[Sequence[int]], slices: Sequence[int], R: int) -> int:
    """{P : f(P) is in the table} for the table of `minimal_layers` and a
    map f given by its bit slices, slice q = {P : q in f(P)}.

    f(P) lies in an up-closed family iff it holds one of its minimal
    members Q, that is iff P is in slice q for every q in Q.
    """
    full, out = all_subsets(R), 0
    for layer in layers:
        up = 0
        for Q in layer:
            P = full
            while Q:
                low = Q & -Q
                P &= slices[low.bit_length() - 1]
                Q ^= low
            up |= P
        out ^= up
    return out


def least_cover(target: int, cands: Sequence[Tuple[int, int]]) -> Optional[int]:
    """The least mask F among the fewest candidates whose covered sets hold
    `target`, or None when no cover exists.

    cands lists (element, covered) pairs in ascending element order.  Depth
    k of the iterative deepening decides them from the highest element down,
    excluding first, so its first cover is the least mask of size k.  It
    cuts a branch when the remaining candidates, or k of the widest of them,
    cannot cover what is left, and before a candidate that adds nothing.
    """
    parts = [covered & target for _, covered in cands]
    reach, widest = [0], [0]  # union and widest popcount of parts[:i]
    for m in parts:
        reach.append(reach[-1] | m)
        widest.append(max(widest[-1], m.bit_count()))

    def search(i: int, need: int, k: int, F: int) -> Optional[int]:
        if not need:
            return F
        if need & ~reach[i] or need.bit_count() > k * widest[i]:
            return None
        i -= 1
        out = search(i, need, k, F)
        if out is None and parts[i] & need:
            out = search(i, need & ~parts[i], k - 1, F | 1 << cands[i][0])
        return out

    found = (search(len(cands), target, k, 0) for k in range(len(cands) + 1))
    return next((F for F in found if F is not None), None)
