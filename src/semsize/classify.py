"""Size predicates relative to a principal filter, reduced to base-level tests.

Every predicate here is the fast, reduced decision; `literal.py` carries the
definition-level quantifier sweeps used for differential testing.  For the
trivial filter {S} these specialize to the classical absolute notions
(syndetic, thick, piecewise syndetic, small).

Reductions used (U0 = filter base; each one is verified against the literal
oracle by the test suite rather than trusted):

* large:      some finite F <= U0 has F^-1 A >= U0;  F = U0 is extremal.
* thick:      some x in U0 has U0*x <= A.
* extrathick: U0*U0 <= A.
* prethick:   U0^-1 A is thick.
* small:      removing A from any large set leaves a large set.  A is large
              iff it meets every right translate U0*u (u in U0), so the
              large sets are the transversals of those translates, and A
              is small iff it misses every inclusion-minimal one.

The large and prethick witnesses are exact at every order: the cover search
`masks.least_cover` returns the least mask among the fewest F <= U0.

The per-subset predicates answer one subset at any order; they and
`SizeTables` read the right translates U0*x off the filter.  The exhaustive
sweeps read bit tables, each one int with a bit per subset of a domain:
`SizeTables`, over the base's reach R = U0 | U0^2 | U0^3
(`PrincipalFilter.reach`), built with big-int operations from the minimal
translates; and `delta_slices`, the bit slices of the difference set over
the subsets of a domain (R for T3_7, the base for a partition sweep),
built straight from the Cayley table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

from .errors import SizeLimitExceeded
from .filters import PrincipalFilter
from .masks import (
    all_subsets,
    bits,
    compose,
    is_subset,
    least_cover,
    meets,
    point_slices,
    popcount,
    subsets_of,
    supersets_of,
)
from .semigroups import (
    FinSemigroup,
    left_quotient,
    right_translate,
    set_quotient,
    trace_set,
)

PREDICATES = ("large", "thick", "extrathick", "prethick", "small")

# every table below has one entry per subset of its domain; a default
# instance's reach has at most 12 points, as a subgroup base is its own reach
TABLE_ORDER_LIMIT = 12


def _check_table(points: int) -> None:
    """Refuse a table over more than TABLE_ORDER_LIMIT points, before it is built."""
    if points > TABLE_ORDER_LIMIT:
        raise SizeLimitExceeded(
            f"table over {points} points is above the table limit {TABLE_ORDER_LIMIT}"
        )


class SizeVerdict(NamedTuple):
    """Decision for one predicate, with a replayable witness when natural.

    witness is a subset mask: a least minimum-size covering F for
    large/prethick (exact, never greedy), the singleton {x} for thick, and
    for a failed small verdict a minimal large set L whose trimming L - A
    is not large; None otherwise.
    """

    predicate: str
    relative: bool
    value: bool
    witness: Optional[int] = None


def delta_tau(S: FinSemigroup, tau: PrincipalFilter, A: int) -> int:
    """{x : x^-1 A meets A inside every filter member} (reduces to the base).

    x^-1 A meets A & U0 at a exactly when x*a is in A, so this is the union
    of the traces of A at the points of A & U0; on a group, with A inside
    U0, it is A*A^-1.
    """
    out = 0
    for a in bits(A & tau.base):
        out |= trace_set(S, A, a)
    return out


def delta_slices(S: FinSemigroup, tau: PrincipalFilter, domain: int) -> Tuple[int, ...]:
    """Slice x, for each x of S: the subsets A of the domain, by positions
    within it, with x in delta_tau(S, tau, A).

    x is in delta(A) iff x*a is in A for some a in A & U0, so slice x is
    the union, over the base points a of the domain, of the subsets through
    both a and x*a (`masks.point_slices`).  A domain of more than
    TABLE_ORDER_LIMIT points is refused.
    """
    _check_table(domain.bit_count())
    through, slices = point_slices(domain, S.order), [0] * S.order
    for a in bits(domain & tau.base):
        for x, row in enumerate(S.table):
            slices[x] |= through[a] & through[row[a]]
    return tuple(slices)


# ---------------------------------------------------------------------------
# boolean forms for one subset (`SizeTables` serves the catalog sweeps;
# the verdict wrappers below add witnesses)


def large_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    return all(E & A for E in tau.minimal_translates)


def _thick_point(S: FinSemigroup, tau: PrincipalFilter, A: int) -> Optional[int]:
    """Some x in U0 with U0*x <= A (the least), or None when A is not thick."""
    for x, E in tau.translates:
        if is_subset(E, A):
            return x
    return None


def thick_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    return _thick_point(S, tau, A) is not None


def extrathick_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    # U0*U0 is the union of the translates U0*x
    return all(is_subset(E, A) for _, E in tau.translates)


def prethick_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    return thick_value(S, tau, set_quotient(S, tau.base, A))


def small_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    return not any(E & A for E in tau.minimal_translates)


def _small_counterwitness(S: FinSemigroup, tau: PrincipalFilter, A: int) -> int:
    """A minimal large L with L - A not large, for a set A that is not small.

    (S - E) | {x} is large for x in a minimal translate E, since every other
    translate leaves E or equals it; trimmed, it meets E only at x, in A.
    """
    E = next(E for E in tau.minimal_translates if E & A)
    hit = E & A
    x = hit & -hit  # the least point of A in E
    L = (S.full_mask & ~E) | x
    for y in bits(L & ~x):
        if large_value(S, tau, L & ~(1 << y)):
            L &= ~(1 << y)
    return L


# ---------------------------------------------------------------------------
# witness search


@lru_cache(maxsize=1)
def _least_witness(
    S: FinSemigroup, tau: PrincipalFilter, A: int, targets: Tuple[int, ...]
) -> int:
    """The least (popcount, mask) F <= U0 whose F^-1 A holds some target.

    The last answer is kept: on a base that is its own only minimal
    translate, large and prethick ask for the same cover of U0, and
    `classify_all` then searches it once.
    """
    cands = [(f, left_quotient(S, f, A)) for f in bits(tau.base)]
    covers = (least_cover(E, cands) for E in targets)
    return min((popcount(F), F) for F in covers if F is not None)[1]


def is_tau_large(
    S: FinSemigroup, tau: PrincipalFilter, A: int, with_witness: bool = True
) -> SizeVerdict:
    value = large_value(S, tau, A)
    witness = None
    if value and with_witness:
        witness = _least_witness(S, tau, A, (tau.base,))
    return SizeVerdict("large", not tau.is_trivial, value, witness)


def is_tau_thick(
    S: FinSemigroup, tau: PrincipalFilter, A: int, with_witness: bool = True
) -> SizeVerdict:
    x = _thick_point(S, tau, A)
    witness = 1 << x if x is not None and with_witness else None
    return SizeVerdict("thick", not tau.is_trivial, x is not None, witness)


def is_tau_extrathick(
    S: FinSemigroup, tau: PrincipalFilter, A: int, with_witness: bool = True
) -> SizeVerdict:
    value = extrathick_value(S, tau, A)
    return SizeVerdict("extrathick", not tau.is_trivial, value, None)


def is_tau_prethick(
    S: FinSemigroup, tau: PrincipalFilter, A: int, with_witness: bool = True
) -> SizeVerdict:
    value = prethick_value(S, tau, A)
    witness = None
    if value and with_witness:
        # F^-1 A is thick iff it holds a translate U0*x, and a cover of a
        # translate covers every minimal one inside it
        witness = _least_witness(S, tau, A, tau.minimal_translates)
    return SizeVerdict("prethick", not tau.is_trivial, value, witness)


def is_tau_small(
    S: FinSemigroup, tau: PrincipalFilter, A: int, with_witness: bool = True
) -> SizeVerdict:
    value = small_value(S, tau, A)
    witness = None
    if not value and with_witness:
        witness = _small_counterwitness(S, tau, A)
    return SizeVerdict("small", not tau.is_trivial, value, witness)


def classify_all(
    S: FinSemigroup, tau: PrincipalFilter, A: int, with_witness: bool = True
) -> List[SizeVerdict]:
    return [
        is_tau_large(S, tau, A, with_witness),
        is_tau_thick(S, tau, A, with_witness),
        is_tau_extrathick(S, tau, A, with_witness),
        is_tau_prethick(S, tau, A, with_witness),
        is_tau_small(S, tau, A, with_witness),
    ]


# ---------------------------------------------------------------------------
# batched tables for exhaustive sweeps


class SizeTables:
    """Per-(semigroup, base) predicate tables over the subsets of the base's
    reach R (`PrincipalFilter.reach`): each table is one int whose bit P is
    the verdict on the subset of R at the positions P.

    Large, thick and small read a set only through its points in U0*U0, and
    prethick through those in U0*U0*U0, so the entry at tau.to_reach(A) is
    the verdict on every subset A of S.  A is large iff it meets every
    minimal right translate E, thick iff it holds one, and small iff it
    misses all of them.  A is prethick iff q(P) = U0^-1 A holds some E,
    and x is in q(P) iff A meets U0*x, which lies in R for x in U0*U0: so
    q(P) is given by its bit slices `meets(U0*x)`.  A reach of more than
    TABLE_ORDER_LIMIT points is refused.
    """

    __slots__ = ("large", "thick", "prethick", "small")

    def __init__(self, S: FinSemigroup, tau: PrincipalFilter):
        _check_table(len(tau.reach_points))
        R, U0 = tau.positions, tau.base
        minimal = tuple(tau.to_reach(E) for E in tau.minimal_translates)
        self.large, self.thick, M = all_subsets(R), 0, 0
        for E in minimal:
            self.large &= meets(E, R)
            self.thick |= supersets_of(E, R)
            M |= E
        # only the slices at points of U0*U0 are read, at the minimal translates
        q = [
            meets(tau.to_reach(right_translate(S, U0, x)), R) for x in tau.reach_points
        ]
        self.prethick = compose((minimal,), q, R)
        self.small = subsets_of(R & ~M)


__all__ = [
    "SizeVerdict",
    "SizeTables",
    "PREDICATES",
    "delta_tau",
    "delta_slices",
    "large_value",
    "thick_value",
    "extrathick_value",
    "prethick_value",
    "small_value",
    "is_tau_large",
    "is_tau_thick",
    "is_tau_extrathick",
    "is_tau_prethick",
    "is_tau_small",
    "classify_all",
]
