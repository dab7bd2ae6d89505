"""Subsets of {0, ..., width-1} as plain int bit vectors.

Every predicate in the package is a boolean-algebra computation, so subsets
are kept as ints throughout; the owning semigroup knows the width.
"""

from __future__ import annotations

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


def union_table(images: Sequence[int]) -> List[int]:
    """t[mask]: the union of images[i] over the bits i of mask, for every
    mask below 2**len(images); each image doubles the table."""
    t = [0]
    for img in images:
        t += [m | img for m in t]
    return t


def union_at(tables: Iterable[Tuple[int, List[int]]], size: int) -> List[int]:
    """d[P]: the union of t[P] over the pairs (bit, t) whose bit is in P,
    for every P below size."""
    d = [0] * size
    for bit, t in tables:
        for P in range(bit, size):
            if P & bit:
                d[P] |= t[P]
    return d


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
