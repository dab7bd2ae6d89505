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


def brute_cover_exceeds(S, base, n, w, mode):
    """Whether some n-cell partition of the base has no cell A that at most
    w points f of the base cover, by listing every partition and pool.

    delta(A) holds the x with x*a in A for some a in A (a cell lies in
    U0); in quotient mode f covers the u in U0 with f*u in delta(A), in
    translate mode the u = f*x for x in delta(A)."""
    mul = S.table
    U0 = sorted(base)

    def delta(A):
        return {x for x in range(S.order) if any(mul[x][a] in A for a in A)}

    def covers(F, d):
        if mode == "quotient":
            return all(any(mul[f][u] in d for f in F) for u in U0)
        return all(any(mul[f][x] == u for f in F for x in d) for u in U0)

    def needs_more(A):
        d = delta(A)
        pools = (F for k in range(w + 1) for F in combinations(U0, k))
        return not any(covers(F, d) for F in pools)

    partitions = {
        frozenset(
            frozenset(x for x, c in zip(U0, labels) if c == cell) for cell in range(n)
        )
        for labels in product(range(n), repeat=len(U0))
        if len(set(labels)) == n
    }
    return any(all(needs_more(A) for A in cells) for cells in partitions)


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


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces multiprocessing.Pool with one that starts no process: it
    runs each task here when its result is read, and counts the tasks run.
    Returns the pools made, each with the size asked for."""
    import multiprocessing

    pools = []

    class FakePool:
        def __init__(self, processes):
            self.processes, self.tasks = processes, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            for task in tasks:
                self.tasks += 1
                yield fn(task)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return pools


def filter_on(S, elems):
    return make_principal(S, mask_of(elems))
