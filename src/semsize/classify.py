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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .filters import PrincipalFilter
from .masks import bits, is_subset, masks_by_popcount, popcount
from .semigroups import (
    FinSemigroup,
    left_quotient,
    product_set,
    right_translate,
    set_quotient,
    trace_set,
)

EXACT_WITNESS_LIMIT = 12

PREDICATES = ("large", "thick", "extrathick", "prethick", "small")


@dataclass(frozen=True)
class SizeVerdict:
    """Decision for one predicate, with a replayable witness when natural.

    witness is a subset mask: the covering F for large/prethick, the
    singleton {x} for thick, and for a failed small verdict a minimal large
    set L whose trimming L - A is not large; None otherwise.
    """

    predicate: str
    relative: bool
    value: bool
    witness: Optional[int] = None


def delta_tau(S: FinSemigroup, tau: PrincipalFilter, A: int) -> int:
    """{x : x^-1 A meets A inside every filter member} (reduces to the base)."""
    U0 = tau.base
    out = 0
    for x in range(S.order):
        if left_quotient(S, x, A) & A & U0:
            out |= 1 << x
    return out


# ---------------------------------------------------------------------------
# fast boolean forms (used by the sweeps; verdict wrappers add witnesses)


def large_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    U0 = tau.base
    return is_subset(U0, set_quotient(S, U0, A))


def _thick_point(S: FinSemigroup, tau: PrincipalFilter, A: int) -> Optional[int]:
    """Some x in U0 with U0*x <= A (the least), or None when A is not thick."""
    U0 = tau.base
    for x in bits(U0):
        if is_subset(right_translate(S, U0, x), A):
            return x
    return None


def thick_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    return _thick_point(S, tau, A) is not None


def extrathick_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    U0 = tau.base
    return is_subset(product_set(S, U0, U0), A)


def prethick_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    return thick_value(S, tau, set_quotient(S, tau.base, A))


def small_value(S: FinSemigroup, tau: PrincipalFilter, A: int) -> bool:
    return _small_counterwitness(S, tau, A) is None


def _minimal_translates(S: FinSemigroup, U0: int) -> List[int]:
    """The inclusion-minimal right translates U0*u (u in U0), ascending."""
    translates = {right_translate(S, U0, u) for u in bits(U0)}
    return sorted(
        E for E in translates
        if not any(R != E and is_subset(R, E) for R in translates)
    )


def _small_counterwitness(
    S: FinSemigroup, tau: PrincipalFilter, A: int
) -> Optional[int]:
    """A minimal large L with L - A not large, or None when A is small.

    (S - E) | {x} is large for x in a minimal translate E, since every other
    translate leaves E or equals it; trimmed, it meets E only at x, in A.
    """
    for E in _minimal_translates(S, tau.base):
        hit = E & A
        if hit:
            x = hit & -hit  # the least point of A in E
            L = (S.full_mask & ~E) | x
            for y in bits(L & ~x):
                if large_value(S, tau, L & ~(1 << y)):
                    L &= ~(1 << y)
            return L
    return None


# ---------------------------------------------------------------------------
# witness search


def _min_cover_from_base(
    S: FinSemigroup, tau: PrincipalFilter, accept
) -> Optional[int]:
    """Smallest F <= U0 with accept(F); exact up to |U0| <= EXACT_WITNESS_LIMIT.

    Exact search scans submasks in (cardinality, value) order, so the result
    is the lexicographically least mask among minimum-cardinality witnesses.
    Beyond the limit a greedy pass over single elements is used.
    """
    U0 = tau.base
    if popcount(U0) <= EXACT_WITNESS_LIMIT:
        for F in masks_by_popcount(U0):
            if F and accept(F):
                return F
        return None
    F = 0
    for f in bits(U0):
        F |= 1 << f
        if accept(F):
            return F
    return None


def is_tau_large(
    S: FinSemigroup, tau: PrincipalFilter, A: int, with_witness: bool = True
) -> SizeVerdict:
    value = large_value(S, tau, A)
    witness = None
    if value and with_witness:
        witness = _min_cover_from_base(
            S, tau, lambda F: is_subset(tau.base, set_quotient(S, F, A))
        )
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
        witness = _min_cover_from_base(
            S, tau, lambda F: thick_value(S, tau, set_quotient(S, F, A))
        )
    return SizeVerdict("prethick", not tau.is_trivial, value, witness)


def is_tau_small(
    S: FinSemigroup, tau: PrincipalFilter, A: int, with_witness: bool = True
) -> SizeVerdict:
    counter = _small_counterwitness(S, tau, A)
    value = counter is None
    witness = counter if (not value and with_witness) else None
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
    """Per-(semigroup, base) predicate tables over every subset mask.

    large/thick/prethick are O(2^n) to fill; the small table, built only on
    demand, marks the subsets that miss every minimal right translate.
    """

    __slots__ = ("S", "tau", "quot", "large", "thick", "prethick", "_small")

    def __init__(self, S: FinSemigroup, tau: PrincipalFilter):
        self.S = S
        self.tau = tau
        n = S.order
        U0 = tau.base
        # quot[b] = U0^-1 {b}; unions of these give U0^-1 A incrementally
        quot = [set_quotient(S, U0, 1 << b) for b in range(n)]
        self.quot = quot
        translates = sorted({right_translate(S, U0, x) for x in bits(U0)})
        size = S.full_mask + 1
        large = [False] * size
        thick = [False] * size
        prethick = [False] * size
        qmask = [0] * size
        for A in range(size):
            if A:
                low = A & -A
                b = low.bit_length() - 1
                qmask[A] = qmask[A ^ low] | quot[b]
            q = qmask[A]
            large[A] = is_subset(U0, q)
            thick[A] = any(is_subset(t, A) for t in translates)
            prethick[A] = any(is_subset(t, q) for t in translates)
        self.large = large
        self.thick = thick
        self.prethick = prethick
        self._small = None

    @property
    def small(self) -> List[bool]:
        if self._small is None:
            M = 0
            for E in _minimal_translates(self.S, self.tau.base):
                M |= E
            self._small = [not A & M for A in range(self.S.full_mask + 1)]
        return self._small


__all__ = [
    "SizeVerdict",
    "SizeTables",
    "PREDICATES",
    "trace_set",
    "delta_tau",
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
