"""Instance catalogs the theorem suite and searches run over.

The default catalog keeps full sweeps under a minute: every labeled
semigroup of order <= LABELED_ORDER_LIMIT (3), the named groups Z4..Z12 /
S3 / D4 / Q8, and the right-zero / left-zero / null families of orders 4
to 6; Z2, Z3 and those families' tables of orders 2 and 3 are labeled
ones, so each Cayley table occurs once.  Bases are exhaustive for order
<= 6 and restricted to subgroups for larger groups.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .errors import UnknownFamily
from .semigroups import (
    LABELED_ORDER_LIMIT,
    FinSemigroup,
    enumerate_semigroups,
    semigroup_from_spec,
    subgroups,
)

ALL_BASES_ORDER_LIMIT = 6


class CatalogEntry(NamedTuple):
    semigroup: FinSemigroup
    bases: Tuple[int, ...]


def _default_bases(S: FinSemigroup) -> Tuple[int, ...]:
    if S.order <= ALL_BASES_ORDER_LIMIT:
        return tuple(range(1, S.full_mask + 1))
    if S.is_group:
        return tuple(subgroups(S))
    return (S.full_mask,)


def entry_for(S: FinSemigroup, bases: Optional[Tuple[int, ...]] = None) -> CatalogEntry:
    return CatalogEntry(S, bases if bases is not None else _default_bases(S))


DEFAULT_FAMILY_SPECS = (
    ["cyclic:%d" % n for n in range(4, 13)]
    + ["symmetric:3", "dihedral:4", "quaternion8"]
    + ["rightzero:%d" % n for n in range(4, 7)]
    + ["leftzero:%d" % n for n in range(4, 7)]
    + ["null:%d" % n for n in range(4, 7)]
)


def order_le_catalog(max_order: int) -> List[CatalogEntry]:
    """Every labeled semigroup of order <= max_order, all bases; past
    LABELED_ORDER_LIMIT `enumerate_semigroups` raises SizeLimitExceeded."""
    entries: List[CatalogEntry] = []
    for order in range(1, max_order + 1):
        for S in enumerate_semigroups(order):
            entries.append(entry_for(S))
    return entries


def family_catalog(specs) -> List[CatalogEntry]:
    return [entry_for(semigroup_from_spec(spec)) for spec in specs]


def default_catalog() -> List[CatalogEntry]:
    labeled = order_le_catalog(LABELED_ORDER_LIMIT)
    return labeled + family_catalog(DEFAULT_FAMILY_SPECS)


def build_catalog(
    spec: str, base_override: Optional[Tuple[int, ...]] = None
) -> List[CatalogEntry]:
    """Parse a catalog spec string.

    Forms: "default", "order<=N" (1 <= N <= LABELED_ORDER_LIMIT), or a
    ';'-separated list of family specs such as "cyclic:6;rightzero:3".
    base_override, when given, replaces every entry's base list.
    """
    text = spec.strip()
    if not text:
        raise UnknownFamily("empty catalog spec")
    if text == "default":
        entries = default_catalog()
    elif text.startswith("order<="):
        try:
            n = int(text[len("order<=") :])
        except ValueError:
            n = 0
        if n < 1:
            raise UnknownFamily(f"bad catalog spec {spec!r}")
        entries = order_le_catalog(n)
    else:
        specs = [p for p in text.split(";") if p]
        if not specs:
            raise UnknownFamily(f"bad catalog spec {spec!r}")
        entries = family_catalog(specs)
    if base_override is not None:
        entries = [
            CatalogEntry(e.semigroup, tuple(b for b in base_override
                                            if 0 < b <= e.semigroup.full_mask))
            for e in entries
        ]
        entries = [e for e in entries if e.bases]
    return entries


__all__ = [
    "CatalogEntry",
    "entry_for",
    "order_le_catalog",
    "family_catalog",
    "default_catalog",
    "build_catalog",
    "DEFAULT_FAMILY_SPECS",
    "ALL_BASES_ORDER_LIMIT",
]
