"""Definition-level evaluation of the relative size predicates.

This module quantifies literally: over every filter member U >= U0, every
finite F <= U, and every member V >= U0, with no extremal-instantiation
shortcuts.  It reads the raw Cayley table with its own loops and calls none
of the set arithmetic of `semigroups`, so a bug in the fast path cannot hide
here.  Intended for differential testing on small orders.
"""

from __future__ import annotations

from typing import Dict

from .errors import SizeLimitExceeded
from .filters import PrincipalFilter
from .masks import bits, is_subset, submasks, supersets
from .semigroups import FinSemigroup

LITERAL_ORDER_LIMIT = 5

LITERAL_PREDICATES = ("large", "thick", "extrathick", "prethick", "small")


class LiteralContext:
    """Shared quantifier machinery for one (semigroup, filter) pair."""

    def __init__(self, S: FinSemigroup, tau: PrincipalFilter):
        if S.order > LITERAL_ORDER_LIMIT:
            raise SizeLimitExceeded(
                f"literal sweep limited to order <= {LITERAL_ORDER_LIMIT}"
            )
        self.S = S
        self.base = tau.base
        self.full = S.full_mask
        self._thick_table: Dict[int, bool] = {}
        self._large_table: Dict[int, bool] = {}

    def in_filter(self, U: int) -> bool:
        return is_subset(self.base, U)

    def _left_quotients(self, A: int) -> list:
        """lq[f] = {x : f*x in A}, from the raw table."""
        S = self.S
        out = []
        for f in range(S.order):
            row = S.table[f]
            m = 0
            for x in range(S.order):
                if (A >> row[x]) & 1:
                    m |= 1 << x
            out.append(m)
        return out

    def large(self, A: int) -> bool:
        """for every U in tau there is a finite F <= U with F^-1 A in tau"""
        cached = self._large_table.get(A)
        if cached is not None:
            return cached
        lq = self._left_quotients(A)
        value = True
        for U in supersets(self.base, self.full):
            hit = False
            for F in submasks(U):
                union = 0
                for f in bits(F):
                    union |= lq[f]
                if self.in_filter(union):
                    hit = True
                    break
            if not hit:
                value = False
                break
        self._large_table[A] = value
        return value

    def thick(self, A: int) -> bool:
        """some U in tau has: all finite F <= U, all V in tau, some x in V
        with F*x <= A"""
        cached = self._thick_table.get(A)
        if cached is not None:
            return cached
        lq = self._left_quotients(A)
        value = False
        for U in supersets(self.base, self.full):
            ok_for_U = True
            for F in submasks(U):
                # {x : F*x <= A} is the intersection of the f-quotients
                good = self.full
                for f in bits(F):
                    good &= lq[f]
                for V in supersets(self.base, self.full):
                    if not V & good:
                        ok_for_U = False
                        break
                if not ok_for_U:
                    break
            if ok_for_U:
                value = True
                break
        self._thick_table[A] = value
        return value

    def extrathick(self, A: int) -> bool:
        """the trace of A at every ultrafilter above tau is a filter member"""
        S = self.S
        for g in bits(self.base):
            trace = 0
            for x in range(S.order):
                if (A >> S.table[x][g]) & 1:
                    trace |= 1 << x
            if not self.in_filter(trace):
                return False
        return True

    def prethick(self, A: int) -> bool:
        """for every U in tau some finite F <= U has F^-1 A thick"""
        lq = self._left_quotients(A)
        for U in supersets(self.base, self.full):
            hit = False
            for F in submasks(U):
                union = 0
                for f in bits(F):
                    union |= lq[f]
                if self.thick(union):
                    hit = True
                    break
            if not hit:
                return False
        return True

    def small(self, A: int) -> bool:
        """removing A from any large set leaves a large set"""
        for L in range(self.full + 1):
            if self.large(L) and not self.large(L & ~A):
                return False
        return True


def literal_oracle(
    predicate: str, S: FinSemigroup, tau: PrincipalFilter, A: int
) -> bool:
    ctx = LiteralContext(S, tau)
    fn = getattr(ctx, predicate, None)
    if predicate not in LITERAL_PREDICATES or fn is None:
        raise ValueError(f"unknown predicate {predicate!r}")
    return fn(A)


__all__ = ["LiteralContext", "literal_oracle", "LITERAL_PREDICATES"]
