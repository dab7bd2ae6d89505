"""Subsets of {0, ..., width-1} as plain int bit vectors.

Every predicate in the package is a boolean-algebra computation, so subsets
are kept as ints throughout; the owning semigroup knows the width.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List


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


def masks_by_popcount(mask: int) -> List[int]:
    """Submasks of `mask` sorted by (popcount, value)."""
    return sorted(submasks(mask), key=lambda m: (m.bit_count(), m))
