"""Principal filters on a finite semigroup and the hypothesis predicates.

On a finite set every filter is principal, so a filter is stored by its base
U0 (the intersection of all members); ``U in tau`` is the superset test, and
the ultrafilters containing tau are the principal ultrafilters at the points
of U0.  What the base alone determines is computed once per filter, on first
read: the g with g*U0 <= U0, the right translates U0*x, the union of the
minimal left ideals of U0, and the reach R = U0 | U0^2 | U0^3 with, at each
point, the subsets of R through it (`through`).  The bit slices of a map
over R are lookups in `through` at products read off the Cayley table
(`reach_slices`), so they are not kept.

Every size predicate reads a set A only near the base: large, thick and
small read it through the right translates U0*x (x in U0), which lie in
U0^2, and prethick through U0^-1 A on those translates, that is at the
points f*u*x (f, u, x in U0) of U0^3.  So a table over the subsets of R,
indexed by positions within R (`to_reach`), decides every subset of S.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Tuple

from .errors import EmptyBase, ProductLawViolation
from .masks import bits, is_subset, mask_of, minimal, point_slices, supersets
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
        for x in bits(A):
            out |= place[x]
        return out

    def from_reach(self, P: int) -> int:
        """The subset of R at the positions P."""
        points = self.reach_points
        return mask_of(points[i] for i in bits(P))

    @cached_property
    def positions(self) -> int:
        """The mask of the positions of R, (1 << |R|) - 1."""
        return (1 << len(self.reach_points)) - 1

    @cached_property
    def through(self) -> Tuple[int, ...]:
        """through[x]: the subsets of R, by positions, that hold x; 0 off R."""
        return point_slices(self.reach, self.semigroup.order)

    def reach_slices(self, kind: str, g: int) -> Tuple[int, ...]:
        """The bit slices over R of the image of A under g: slice i is the
        set of subsets A of R, by positions, whose image holds the point x_i
        at position i.  The image is g^-1 A (`quot`), the trace {x : x*g in
        A} (`trace`) or g*A (`row`), restricted to R: x_i is in the first two
        iff g*x_i or x_i*g is in A, and in g*A iff some y of A has g*y = x_i.
        """
        table, through = self.semigroup.table, self.through
        if kind == "quot":
            return tuple(through[table[g][x]] for x in self.reach_points)
        if kind == "trace":
            return tuple(through[table[x][g]] for x in self.reach_points)
        slices = dict.fromkeys(self.reach_points, 0)
        for y in self.reach_points:
            gy = table[g][y]
            if gy in slices:
                slices[gy] |= through[y]
        return tuple(slices.values())

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


# the kinds that say U0*U0 <= U0 (see check_hypothesis)
_CLOSED_BASE_KINDS = ("semigroup_filter", "extrathick_members", "neighborhood_shift")


def check_hypothesis(tau: PrincipalFilter, kind: str) -> bool:
    """Decide a theorem hypothesis via the principal reduction.

    Each reduction collapses the quantifier over filter members onto the
    base by monotonicity; the literal quantifier forms are kept as the
    definitional oracle in the test suite.  All but left invariance read
    the shiftable g: U0*U0 <= U0, extrathick members and the neighborhood
    shift each say every g in U0 is shiftable, and left inverse invariance
    says every g in S is.
    """
    if kind in _CLOSED_BASE_KINDS:
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
    silently vacuous.  Each kind has a closed form:

    * U0*U0 <= U0 (the three closed-base kinds): iff S has one element.  A
      finite semigroup has an idempotent e, and {e} is closed.
    * left inverse invariance, S*U0 <= U0: iff S is left simple, S*x = S
      for every x.  Each S*x is a left ideal, and a left ideal U0 holds S*x
      for each x in U0.
    * left invariance, U0 <= g*U0 for every g: iff no minimal left ideal
      L != S is left invariant.  A left invariant U0 has g*U0 = U0, since
      |g*U0| <= |U0|, so it is a left ideal and holds some L, and each g is
      one-to-one on U0 and maps L into L, so g*L = L.
    """
    full = S.full_mask
    if kind in _CLOSED_BASE_KINDS:
        return S.order == 1
    if kind == "left_inverse_invariant":
        return all(right_translate(S, full, x) == full for x in range(S.order))
    if kind == "left_invariant":
        return not any(
            L != full and check_hypothesis(PrincipalFilter(S, L), kind)
            for L in minimal_left_ideals(S)
        )
    raise ValueError(f"unknown hypothesis kind {kind!r}")


__all__ = [
    "PrincipalFilter",
    "make_principal",
    "trivial_filter",
    "ultrafilter_product",
    "check_hypothesis",
    "hypothesis_forces_full_base",
]
