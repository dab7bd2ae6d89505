"""Principal filters on a finite semigroup and the hypothesis predicates.

On a finite set every filter is principal, so a filter is stored by its base
U0 (the intersection of all members); ``U in tau`` is the superset test, and
the ultrafilters containing tau are the principal ultrafilters at the points
of U0.  What the base alone determines is computed once per filter, on first
read: the g with g*U0 <= U0, the right translates U0*x, the union of the
minimal left ideals of U0, and the reach R = U0 | U0^2 | U0^3 with the image
lists of the semigroup restricted to it.

Every size predicate reads a set A only near the base: large, thick and
small read it through the right translates U0*x (x in U0), which lie in
U0^2, and prethick through U0^-1 A on those translates, that is at the
points f*u*x (f, u, x in U0) of U0^3.  So a table over the subsets of R,
indexed by positions within R (`to_reach`), decides every subset of S.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, List, Tuple

from .errors import EmptyBase, ProductLawViolation
from .masks import bits, is_subset, mask_of, minimal, supersets
from .semigroups import (
    FinSemigroup,
    minimal_left_ideals,
    product_set,
    right_translate,
    trace_set,
    translate_set,
)


class PrincipalFilter:
    """The supersets of `base` in `semigroup`; equal when both are equal."""

    def __init__(self, semigroup: FinSemigroup, base: int):
        self.semigroup = semigroup
        self.base = base

    def __eq__(self, other) -> bool:
        return isinstance(other, PrincipalFilter) and (
            (self.semigroup, self.base) == (other.semigroup, other.base)
        )

    def __hash__(self) -> int:
        return hash((self.semigroup, self.base))

    @property
    def is_trivial(self) -> bool:
        """True for tau = {S}, the absolute (non-relative) theory."""
        return self.base == self.semigroup.full_mask

    def members(self) -> Iterator[int]:
        return supersets(self.base, self.semigroup.full_mask)

    @cached_property
    def shiftable(self) -> int:
        """The mask of g with g*U0 <= U0, i.e. U0 <= g^-1 U0."""
        S, U0 = self.semigroup, self.base
        return mask_of(
            g for g in range(S.order) if is_subset(translate_set(S, g, U0), U0)
        )

    @cached_property
    def translates(self) -> Tuple[Tuple[int, int], ...]:
        """The pairs (x, U0*x) for x in U0, ascending in x."""
        S, U0 = self.semigroup, self.base
        return tuple((x, right_translate(S, U0, x)) for x in bits(U0))

    @cached_property
    def minimal_translates(self) -> Tuple[int, ...]:
        """The inclusion-minimal right translates U0*x, ascending."""
        return tuple(minimal(E for _, E in self.translates))

    @cached_property
    def reach(self) -> int:
        """R = U0 | U0*U0 | U0*U0*U0."""
        S, U0 = self.semigroup, self.base
        U2 = product_set(S, U0, U0)
        return U0 | U2 | product_set(S, U0, U2)

    @cached_property
    def reach_points(self) -> Tuple[int, ...]:
        """The points of R, ascending: the point at position i of R."""
        return tuple(bits(self.reach))

    @cached_property
    def _reach_place(self) -> Tuple[int, ...]:
        """1 << (the position of x in R) for each x of S, 0 off R."""
        place = [0] * self.semigroup.order
        for i, x in enumerate(self.reach_points):
            place[x] = 1 << i
        return tuple(place)

    def to_reach(self, A: int) -> int:
        """The positions within R of the points of A in R; ascending masks
        stay ascending."""
        place, out = self._reach_place, 0
        while A:  # `masks.bits` inlined: this runs per point of each image list
            low = A & -A
            out |= place[low.bit_length() - 1]
            A ^= low
        return out

    def from_reach(self, P: int) -> int:
        """The subset of R at the positions P."""
        points = self.reach_points
        return mask_of(points[i] for i in bits(P))

    @cached_property
    def _reach_images(self) -> Dict[Tuple[str, int], List[int]]:
        """What `reach_images` has computed, by (kind, g)."""
        return {}

    def reach_images(self, kind: str, g: int) -> List[int]:
        """The image list S.<kind>[g] (`quot`, `trace` or `row`) over R: for
        each point of R, its image restricted to R, in R's positions.
        Computed once per (kind, g)."""
        key = (kind, g)
        cache = self._reach_images
        if key not in cache:
            images = getattr(self.semigroup, kind)[g]
            cache[key] = [self.to_reach(images[x]) for x in self.reach_points]
        return cache[key]

    @cached_property
    def minimal_ideal_union(self) -> int:
        """The union of `minimal_left_ideals(S, U0)`; U0 must be closed."""
        M = 0
        for L in minimal_left_ideals(self.semigroup, self.base):
            M |= L
        return M


def make_principal(S: FinSemigroup, base: int) -> PrincipalFilter:
    if base == 0:
        raise EmptyBase("a filter never contains the empty set")
    if base & ~S.full_mask:
        raise EmptyBase(f"base {bin(base)} has bits outside order {S.order}")
    return PrincipalFilter(S, base)


def trivial_filter(S: FinSemigroup) -> PrincipalFilter:
    return PrincipalFilter(S, S.full_mask)


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


def check_hypothesis(tau: PrincipalFilter, kind: str) -> bool:
    """Decide a theorem hypothesis via the principal reduction.

    Each reduction collapses the quantifier over filter members onto the
    base by monotonicity; the literal quantifier forms are kept as the
    definitional oracle in the test suite.  All but left invariance read
    the shiftable g: U0*U0 <= U0, extrathick members and the neighborhood
    shift each say every g in U0 is shiftable, and left inverse invariance
    says every g in S is.
    """
    if kind in ("semigroup_filter", "extrathick_members", "neighborhood_shift"):
        return is_subset(tau.base, tau.shiftable)
    if kind == "left_inverse_invariant":
        return tau.shiftable == tau.semigroup.full_mask
    if kind == "left_invariant":
        S, U0 = tau.semigroup, tau.base
        return all(is_subset(U0, translate_set(S, g, U0)) for g in range(S.order))
    raise ValueError(f"unknown hypothesis kind {kind!r}")


def hypothesis_forces_full_base(S: FinSemigroup, kind: str) -> bool:
    """True when only base = S satisfies `kind` on this semigroup.

    Used by the theorem checkers to flag instances whose relative hypothesis
    collapsed onto the absolute theory instead of passing them off as
    silently vacuous.

    Only S satisfies a kind iff no proper candidate does: the idempotent
    singletons {e} and the principal left ideals {x} | S*x.  A proper
    subsemigroup (U0*U0 <= U0) contains some {e}, itself a subsemigroup; a
    proper left ideal contains the left ideal {x} | S*x; a proper
    left-invariant U0 contains {x} | S*x, the orbit of x under the
    permutations of U0 the left translations generate, so it is
    left-invariant too.
    """
    full = S.full_mask
    candidates = {1 << e for e in range(S.order) if S.table[e][e] == e}
    candidates |= {(1 << x) | right_translate(S, full, x) for x in range(S.order)}
    candidates.discard(full)
    return not any(check_hypothesis(PrincipalFilter(S, P), kind) for P in candidates)


__all__ = [
    "PrincipalFilter",
    "make_principal",
    "trivial_filter",
    "ultrafilter_product",
    "check_hypothesis",
    "hypothesis_forces_full_base",
]
