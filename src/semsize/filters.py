"""Principal filters on a finite semigroup and the hypothesis predicates.

On a finite set every filter is principal, so a filter is stored by its base
U0 (the intersection of all members); ``U in tau`` is the superset test.
The ultrafilters containing tau are exactly the principal ultrafilters at
points of U0, which is what `tau_bar` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import EmptyBase, NotAGroup, ProductLawViolation
from .masks import is_subset, supersets
from .semigroups import (
    FinSemigroup,
    is_subgroup,
    left_quotient,
    product_set,
    trace_set,
    translate_set,
)


@dataclass(frozen=True)
class PrincipalFilter:
    semigroup: FinSemigroup
    base: int

    def contains(self, U: int) -> bool:
        return is_subset(self.base, U)

    @property
    def is_trivial(self) -> bool:
        """True for tau = {S}, the absolute (non-relative) theory."""
        return self.base == self.semigroup.full_mask

    def members(self) -> Iterator[int]:
        return supersets(self.base, self.semigroup.full_mask)


@dataclass(frozen=True)
class UltraSet:
    """The finite reduction of the closed set of ultrafilters above a filter."""

    points: int


def make_principal(S: FinSemigroup, base: int) -> PrincipalFilter:
    if base == 0:
        raise EmptyBase("a filter never contains the empty set")
    if base & ~S.full_mask:
        raise EmptyBase(f"base {bin(base)} has bits outside order {S.order}")
    return PrincipalFilter(S, base)


def trivial_filter(S: FinSemigroup) -> PrincipalFilter:
    return PrincipalFilter(S, S.full_mask)


def tau_bar(tau: PrincipalFilter) -> UltraSet:
    """A principal ultrafilter at g contains tau iff g is in the base."""
    return UltraSet(points=tau.base)


def ultrafilter_product(S: FinSemigroup, p: int, q: int, A: int) -> bool:
    """Membership of A in the product of the principal ultrafilters at p, q.

    Computes both sides of the product rule (direct product membership and
    the trace-set route) and insists they agree.
    """
    direct = bool((A >> S.table[p][q]) & 1)
    # A_q = {x : x*q in A}; membership of p in it
    via_trace = bool((1 << p) & trace_set(S, A, q))
    if direct != via_trace:
        raise ProductLawViolation(
            f"product rule mismatch at p={p} q={q} A={bin(A)}"
        )
    return direct


HYPOTHESIS_KINDS = (
    "semigroup_filter",
    "left_invariant",
    "left_inverse_invariant",
    "extrathick_members",
    "shiftable_at",
    "neighborhood_shift",
    "left_topological_group",
)


def check_hypothesis(tau: PrincipalFilter, kind: str, g: int | None = None) -> bool:
    """Decide a theorem hypothesis via the principal reduction.

    Each reduction collapses the quantifier over filter members onto the
    base by monotonicity; the literal quantifier forms are kept as the
    definitional oracle in the test suite.
    """
    S = tau.semigroup
    U0 = tau.base
    # neighborhood_shift asks g*U0 <= U0 for every g in U0, i.e. U0*U0 <= U0
    if kind in ("semigroup_filter", "extrathick_members", "neighborhood_shift"):
        return is_subset(product_set(S, U0, U0), U0)
    if kind == "left_invariant":
        return all(
            is_subset(U0, translate_set(S, g_, U0)) for g_ in range(S.order)
        )
    if kind == "left_inverse_invariant":
        return all(
            is_subset(U0, left_quotient(S, g_, U0)) for g_ in range(S.order)
        )
    if kind == "shiftable_at":
        if g is None:
            raise ValueError("shiftable_at needs the element g")
        return is_subset(U0, left_quotient(S, g, U0))
    if kind == "left_topological_group":
        if not S.is_group:
            raise NotAGroup("left topological detection is group-only")
        return is_subgroup(S, U0)
    raise ValueError(f"unknown hypothesis kind {kind!r}")


@lru_cache(maxsize=None)
def _forces_full_base(S: FinSemigroup, kind: str) -> bool:
    full = S.full_mask
    for base in range(1, full):
        if check_hypothesis(PrincipalFilter(S, base), kind):
            return False
    return True


def hypothesis_forces_full_base(S: FinSemigroup, kind: str) -> bool:
    """True when only base = S satisfies `kind` on this semigroup.

    Used by the theorem checkers to flag instances whose relative hypothesis
    collapsed onto the absolute theory instead of passing them off as
    silently vacuous.
    """
    if kind == "shiftable_at":
        raise ValueError("shiftable_at is a per-element hypothesis")
    return _forces_full_base(S, kind)


__all__ = [
    "PrincipalFilter",
    "UltraSet",
    "make_principal",
    "trivial_filter",
    "tau_bar",
    "ultrafilter_product",
    "check_hypothesis",
    "hypothesis_forces_full_base",
    "HYPOTHESIS_KINDS",
]
