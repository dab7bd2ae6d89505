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
sweeps read tables with one entry per subset of a domain: `SizeTables`, over
the base's reach R = U0 | U0^2 | U0^3 (`PrincipalFilter.reach`), whose four
tables come from one `masks.union_table` of the quotients U0^-1 {b}, and
`delta_table`, the union of the traces at each base point over the subsets
of a domain (the base, for a partition sweep).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

from .errors import SizeLimitExceeded
from .filters import PrincipalFilter
from .masks import bits, is_subset, least_cover, popcount, union_at, union_table
from .semigroups import (
    FinSemigroup,
    left_quotient,
    set_quotient,
    trace_set,
)

PREDICATES = ("large", "thick", "extrathick", "prethick", "small")

# every table below has one entry per subset of its domain; a default
# instance's reach has at most 12 points, as a subgroup base is its own reach
TABLE_ORDER_LIMIT = 12


def _check_table(points: int) -> None:
    """Refuse a table over more than TABLE_ORDER_LIMIT points, before any list."""
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


def delta_table(S: FinSemigroup, tau: PrincipalFilter, domain: int) -> List[int]:
    """d[P] = delta_tau(S, tau, A) for every subset A of the domain, where
    the mask P holds the positions of A's points within the domain.

    delta(A) is the union of the traces of A at the base points in A, and
    the trace of A at g is t[P] for t = `union_table` of the preimages
    S.trace[g][e] of the domain's points e (at most TABLE_ORDER_LIMIT of them).
    """
    points = list(bits(domain))
    _check_table(len(points))
    traces = (
        (1 << i, union_table([S.trace[g][e] for e in points]))
        for i, g in enumerate(points)
        if tau.base >> g & 1
    )
    return union_at(traces, 1 << len(points))


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
    reach R (`PrincipalFilter.reach`), indexed by positions within R.

    Large, thick and small read a set only through its points in U0*U0, and
    prethick through those in U0*U0*U0, so the entry at tau.to_reach(A) is
    the verdict on every subset A of S.  All four are read off q =
    `union_table` of the quotients U0^-1 {b} restricted to R, so q[P] is
    U0^-1 A on R, and the inclusion-minimal right translates: A is large
    iff q[P] holds U0, thick iff P holds a minimal translate, prethick iff
    q[P] is thick, and small iff P misses every minimal translate.  A reach
    of more than TABLE_ORDER_LIMIT points is refused.
    """

    __slots__ = ("large", "thick", "prethick", "small", "__weakref__")

    def __init__(self, S: FinSemigroup, tau: PrincipalFilter):
        _check_table(len(tau.reach_points))
        quotients = [set_quotient(S, tau.base, 1 << b) for b in tau.reach_points]
        q = union_table([tau.to_reach(Q) for Q in quotients])
        U0 = tau.to_reach(tau.base)
        minimal = [tau.to_reach(E) for E in tau.minimal_translates]
        M = 0
        for E in minimal:
            M |= E
        subsets = range(len(q))
        self.large = [not U0 & ~qP for qP in q]
        self.thick = [any(not E & ~P for E in minimal) for P in subsets]
        self.prethick = [self.thick[qP] for qP in q]
        self.small = [not P & M for P in subsets]


__all__ = [
    "SizeVerdict",
    "SizeTables",
    "PREDICATES",
    "delta_tau",
    "delta_table",
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
