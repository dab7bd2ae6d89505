"""Shared fixtures and independent oracles for the test suite.

Oracles here work on frozensets of ints with raw element loops, on purpose:
they share no representation or helper code with the package's bitmask fast
paths, so agreement between the two is evidence, not tautology.
"""

from itertools import combinations, product

import pytest

from semsize import make_principal, mask_of, semigroup_from_spec


def powerset(items):
    items = sorted(items)
    return [
        frozenset(c) for r in range(len(items) + 1) for c in combinations(items, r)
    ]


def independent_assoc_ok(order, table):
    """Associativity re-implemented differently from the package's scan."""
    rng = range(order)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a, b, c in product(rng, rng, rng)
    )


def brute_minimal_left_ideals(S, within=None):
    """All inclusion-minimal non-empty L <= W with W*L <= L, by full scan."""
    W = sorted(range(S.order)) if within is None else sorted(within)
    ideals = []
    for L in powerset(W):
        if not L:
            continue
        if all(S.table[w][x] in L for w in W for x in L):
            ideals.append(L)
    minimal = [L for L in ideals if not any(M < L for M in ideals)]
    return sorted(minimal, key=lambda L: sorted(L))


class SetOracle:
    """Literal-quantifier evaluation over sets of ints (no order limit).

    Used for spot checks above the package literal oracle's order cap.
    """

    def __init__(self, S, base):
        self.S = S
        self.mul = lambda a, b: S.table[a][b]
        self.universe = frozenset(range(S.order))
        self.base = frozenset(base)
        self.members = [U for U in powerset(self.universe) if self.base <= U]
        self._thick = {}
        self._large = {}

    @property
    def _member_set(self):
        return set(self.members)

    def quotient(self, F, A):
        return frozenset(
            x for x in self.universe if any(self.mul(f, x) in A for f in F)
        )

    def _good_sets(self, A):
        """good[F] = {x : F*x <= A}, precomputed so the quantifier sweeps
        below stay literal but do not recompute the inner conjunction."""
        return {
            F: frozenset(
                x for x in self.universe if all(self.mul(f, x) in A for f in F)
            )
            for F in powerset(self.universe)
        }

    def large(self, A):
        A = frozenset(A)
        if A not in self._large:
            self._large[A] = all(
                any(self.quotient(F, A) in self._member_set for F in powerset(U))
                for U in self.members
            )
        return self._large[A]

    def thick(self, A):
        A = frozenset(A)
        if A in self._thick:
            return self._thick[A]
        good = self._good_sets(A)
        value = any(
            all(good[F] & V for F in powerset(U) for V in self.members)
            for U in self.members
        )
        self._thick[A] = value
        return value

    def extrathick(self, A):
        A = frozenset(A)
        return all(
            frozenset(x for x in self.universe if self.mul(x, g) in A)
            in self._member_set
            for g in self.base
        )

    def prethick(self, A):
        A = frozenset(A)
        return all(
            any(self.thick(self.quotient(F, A)) for F in powerset(U))
            for U in self.members
        )

    def small(self, A):
        A = frozenset(A)
        return all(
            self.large(L - A) for L in powerset(self.universe) if self.large(L)
        )


@pytest.fixture(scope="session")
def z4():
    return semigroup_from_spec("cyclic:4")


@pytest.fixture(scope="session")
def z6():
    return semigroup_from_spec("cyclic:6")


@pytest.fixture(scope="session")
def rz3():
    return semigroup_from_spec("rightzero:3")


@pytest.fixture(scope="session")
def null3():
    return semigroup_from_spec("null:3")


def filter_on(S, elems):
    return make_principal(S, mask_of(elems))
