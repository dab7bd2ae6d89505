"""Finite semigroups as validated Cayley tables over indices 0..n-1.

The table is row-major: ``table[i][j]`` is the product ``i * j``.  Instances
are immutable after construction.  A semigroup pickles as (table, name), so
it is cheap to send to a worker.  Every operation below is a pure function
of its inputs.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    AssociativityError,
    DimensionError,
    NotAGroup,
    NotASubsemigroup,
    SizeLimitExceeded,
    UnknownFamily,
)
from .masks import bits, is_subset, minimal

# The largest order a family or product builds, and the one limit on a
# family's size: the table holds order^2 entries, so a 20-digit order would
# allocate until the process is killed, while on a 2-core Xeon host
# cyclic:256 builds in 0.01 s and fulltransformation:4, exactly at the limit,
# in 0.05 s, each at a 15.2 MB peak RSS against 15.0 MB for the import alone.
FAMILY_ORDER_LIMIT = 256

# 6!, the automorphism count of leftzero:6 and rightzero:6; a structure with
# more (n! for leftzero:n) would hold its whole list in memory
AUTOMORPHISM_COUNT_LIMIT = 720

# The largest order `enumerate_semigroups` lists every labeled table of: there
# are 1, 8 and 113 at orders 1 to 3, but 3492 at order 4 (OEIS A023814)
LABELED_ORDER_LIMIT = 3


def associativity_witness(order: int, table: Sequence[Sequence[int]]):
    """First triple (a, b, c) with (a*b)*c != a*(b*c), or None."""
    rng = range(order)
    for a in rng:
        ta = table[a]
        for b in rng:
            ab = ta[b]
            tab = table[ab]
            tb = table[b]
            for c in rng:
                if tab[c] != ta[tb[c]]:
                    return (a, b, c)
    return None


class FinSemigroup:
    """A finite semigroup: its Cayley table and cached structural flags."""

    __slots__ = (
        "order",
        "table",
        "name",
        "identity",
        "is_group",
        "full_mask",
    )

    def __init__(self, table: Sequence[Sequence[int]], name: str = ""):
        # Callers that have not validated should use build_from_table.
        self.table: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in table
        )
        self.order = len(self.table)
        self.name = name
        self.full_mask = (1 << self.order) - 1
        self.identity = self._find_identity()
        # an e in every row is a right inverse for every x, and in a monoid
        # x*y == y*z == e gives x == z: each right inverse is two-sided
        e = self.identity
        self.is_group = e is not None and all(e in row for row in self.table)

    def __reduce__(self):
        return (FinSemigroup, (self.table, self.name))

    def _find_identity(self) -> Optional[int]:
        n = self.order
        for e in range(n):
            row = self.table[e]
            if all(row[x] == x and self.table[x][e] == x for x in range(n)):
                return e
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, FinSemigroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FinSemigroup({self.name or 'order %d' % self.order})"


def build_from_table(
    order: int, table: Sequence[Sequence[int]], name: str = ""
) -> FinSemigroup:
    """Validate shape, entry range and associativity, then construct.

    The table and its rows must be lists or tuples, and the order and every
    entry ints proper: a bool is not one."""
    if type(order) is not int or order < 1:
        raise DimensionError(f"'order' must be an integer >= 1, got {order!r}")
    if not isinstance(table, (list, tuple)) or len(table) != order:
        raise DimensionError(f"'table' must be a list of {order} rows")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or len(row) != order:
            raise DimensionError(f"table[{i}] must be a list of {order} entries")
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < order:
                raise DimensionError(
                    f"table[{i}][{j}] = {v!r} is not an integer in [0,{order})"
                )
    witness = associativity_witness(order, table)
    if witness is not None:
        raise AssociativityError(witness)
    return FinSemigroup(table, name=name)


# ---------------------------------------------------------------------------
# set arithmetic


# A forward operation maps a set's points through the table with `masks.bits`
# inlined, which halves the cost of this, the innermost step of all set
# arithmetic; a point past the order raises IndexError at the lookup.  A
# backward operation scans a row or a column, so it checks for one first.


def left_quotient(S: FinSemigroup, a: int, B: int) -> int:
    """{x : a*x in B}."""
    if B >> S.order:
        raise IndexError(f"{bin(B)} has a point past the order {S.order}")
    out, bit = 0, 1
    for v in S.table[a]:
        if B >> v & 1:
            out |= bit
        bit <<= 1
    return out


def trace_set(S: FinSemigroup, A: int, g: int) -> int:
    """{x : x*g in A} - the trace of A at the principal ultrafilter of g."""
    if A >> S.order:
        raise IndexError(f"{bin(A)} has a point past the order {S.order}")
    out, bit = 0, 1
    for row in S.table:
        if A >> row[g] & 1:
            out |= bit
        bit <<= 1
    return out


def set_quotient(S: FinSemigroup, A: int, B: int) -> int:
    """Union of left_quotient(a, B) over a in A; empty A gives empty."""
    out = 0
    for a in bits(A):
        out |= left_quotient(S, a, B)
    return out


def translate_set(S: FinSemigroup, a: int, B: int) -> int:
    """{a*b : b in B}."""
    row = S.table[a]
    out = 0
    while B:
        low = B & -B
        out |= 1 << row[low.bit_length() - 1]
        B ^= low
    return out


def right_translate(S: FinSemigroup, B: int, x: int) -> int:
    """{b*x : b in B}."""
    t = S.table
    out = 0
    while B:
        low = B & -B
        out |= 1 << t[low.bit_length() - 1][x]
        B ^= low
    return out


def product_set(S: FinSemigroup, A: int, B: int) -> int:
    """{a*b : a in A, b in B}."""
    out = 0
    for a in bits(A):
        out |= translate_set(S, a, B)
    return out


# ---------------------------------------------------------------------------
# ideal structure


def minimal_left_ideals(S: FinSemigroup, within: Optional[int] = None) -> List[int]:
    """All minimal non-empty L <= within with within*L <= L.

    `within` must be closed under the table (default: all of S).
    """
    W = S.full_mask if within is None else within
    if not subset_is_closed(S, W):
        raise NotASubsemigroup(f"within mask {bin(W)} is not closed under the table")
    # {x} | W*x is a left ideal of W: W*(W*x) <= W*x because W is closed
    return minimal((1 << x) | right_translate(S, W, x) for x in bits(W))


# ---------------------------------------------------------------------------
# symmetries


def automorphisms(S: FinSemigroup) -> List[Tuple[int, ...]]:
    """All table-preserving permutations, in lexicographic order.

    Each product a*b = c goes in the bucket of max(a, b, c).  Elements get
    their images in index order, and bucket k is checked once, when k gets
    its image: a, b and c all have theirs by then.  Each product is thus
    checked exactly once, and a complete assignment preserves the table.
    Images are tried in increasing order, so the permutations come sorted.
    Raises SizeLimitExceeded as soon as more than AUTOMORPHISM_COUNT_LIMIT
    are found.
    """
    n = S.order
    t = S.table
    buckets: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            c = t[a][b]
            buckets[max(a, b, c)].append((a, b, c))
    img = [0] * n
    used = [False] * n
    found: List[Tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == n:
            if len(found) == AUTOMORPHISM_COUNT_LIMIT:
                raise SizeLimitExceeded(
                    f"more than {AUTOMORPHISM_COUNT_LIMIT} automorphisms"
                )
            found.append(tuple(img))
            return
        for v in range(n):
            if used[v]:
                continue
            img[k] = v
            if all(t[img[a]][img[b]] == img[c] for a, b, c in buckets[k]):
                used[v] = True
                extend(k + 1)
                used[v] = False

    extend(0)
    return found


def canonical_form(S: FinSemigroup) -> Tuple[Tuple[int, ...], List[Tuple[int, ...]]]:
    """The least row-major flattened table of a relabeling of S, and every
    relabeling that gives it, in lexicographic order.

    A relabeling s renames x as s[x], so its table has s[x*y] at (s[x],
    s[y]).  Two semigroups are isomorphic iff their least tables agree, and
    the relabelings that reach it are one of them composed with each
    automorphism of S.  All order! relabelings are tried.
    """
    n, t = S.order, S.table
    best: Optional[Tuple[int, ...]] = None
    reaching: List[Tuple[int, ...]] = []
    for s in itertools.permutations(range(n)):
        inverse = sorted(range(n), key=s.__getitem__)
        flat = tuple(s[t[x][y]] for x in inverse for y in inverse)
        if best is None or flat < best:
            best, reaching = flat, [s]
        elif flat == best:
            reaching.append(s)
    return best, reaching


# ---------------------------------------------------------------------------
# exhaustive instance catalog


def enumerate_semigroups(order: int) -> Iterator[FinSemigroup]:
    """Every labeled associative table on {0..order-1}, order <=
    LABELED_ORDER_LIMIT, in the lexicographic order of the row-major
    flattened tables.

    The cells are assigned in row-major order and each takes its values in
    increasing order, so the tables come out in that order.  A branch is cut
    as soon as a triple whose four products are all assigned fails
    associativity.  That triple reads the cell (a, b) just assigned, so it
    is some (a, y, z) or (x, y, b); every triple is checked when its last
    product is assigned, and a complete table is associative.
    """
    if not 1 <= order <= LABELED_ORDER_LIMIT:
        raise SizeLimitExceeded(
            f"exhaustive enumeration supports order <= {LABELED_ORDER_LIMIT} only"
        )
    n = order
    cells = n * n
    t: List[Optional[int]] = [None] * cells
    checks = [
        [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
         if x == k // n or z == k % n]
        for k in range(cells)
    ]

    def extend(k: int) -> Iterator[List[List[Optional[int]]]]:
        if k == cells:
            yield [t[i * n : (i + 1) * n] for i in range(n)]
            return
        for v in range(n):
            t[k] = v
            for x, y, z in checks[k]:
                xy, yz = t[x * n + y], t[y * n + z]
                if xy is None or yz is None:
                    continue
                left, right = t[xy * n + z], t[x * n + yz]
                if left is not None and right is not None and left != right:
                    break
            else:
                yield from extend(k + 1)
        t[k] = None

    for count, table in enumerate(extend(0)):
        yield FinSemigroup(table, name=f"n{order}-{count}")


# ---------------------------------------------------------------------------
# named families


def _check_order(factors: Iterable[int], shown: object) -> None:
    """Refuse a family whose order, the product of `factors`, is above
    FAMILY_ORDER_LIMIT, before any element is listed.  The product stops
    past the limit, so n! and n^n are never computed for a huge n."""
    order = 1
    for f in factors:
        order *= f
        if order > FAMILY_ORDER_LIMIT:
            raise SizeLimitExceeded(
                f"order {shown} is above the family limit {FAMILY_ORDER_LIMIT}"
            )


def _from_rule(order: int, mul: Callable[[int, int], int], name: str) -> FinSemigroup:
    """The semigroup on 0..order-1 whose product x*y is mul(x, y)."""
    _check_order([order], order)
    return FinSemigroup([[mul(x, y) for y in range(order)] for x in range(order)], name)


def _composition(maps: Sequence[Tuple[int, ...]], name: str) -> FinSemigroup:
    """maps under composition: entry (a, b) is the index of maps[a] after maps[b]."""
    index = {f: i for i, f in enumerate(maps)}
    return FinSemigroup(
        [[index[tuple(f[i] for i in g)] for g in maps] for f in maps], name
    )


def _cyclic(n: int) -> FinSemigroup:
    return _from_rule(n, lambda x, y: (x + y) % n, f"cyclic:{n}")


def _dihedral(n: int) -> FinSemigroup:
    # order 2n; element i + n*j is rotation^i * flip^j
    def mul(x, y):
        a, s = x % n, x // n
        b, t = y % n, y // n
        rot = (a + (b if s == 0 else -b)) % n
        return rot + n * (s ^ t)

    return _from_rule(2 * n, mul, f"dihedral:{n}")


def _symmetric(n: int) -> FinSemigroup:
    _check_order(range(2, n + 1), f"{n}!")
    return _composition(sorted(itertools.permutations(range(n))), f"symmetric:{n}")


def _quaternion8() -> FinSemigroup:
    # 0..7 = +1, +i, +j, +k, -1, -i, -j, -k
    def mul(x, y):
        ax, sx = x % 4, x // 4
        ay, sy = y % 4, y // 4
        sign = sx ^ sy
        if ax == 0:
            axis = ay
        elif ay == 0:
            axis = ax
        elif ax == ay:
            axis, sign = 0, sign ^ 1
        else:
            axis = ({1, 2, 3} - {ax, ay}).pop()
            # cyclic i->j->k is positive, the reverse flips sign
            if (ax, ay) not in ((1, 2), (2, 3), (3, 1)):
                sign ^= 1
        return axis + 4 * sign

    return _from_rule(8, mul, "quaternion8")


def _right_zero(n: int) -> FinSemigroup:
    return _from_rule(n, lambda x, y: y, f"rightzero:{n}")


def _left_zero(n: int) -> FinSemigroup:
    return _from_rule(n, lambda x, y: x, f"leftzero:{n}")


def _null(n: int) -> FinSemigroup:
    return _from_rule(n, lambda x, y: 0, f"null:{n}")


def _full_transformation(n: int) -> FinSemigroup:
    _check_order((n for _ in range(n)), f"{n}^{n}")
    maps = sorted(itertools.product(range(n), repeat=n))
    return _composition(maps, f"fulltransformation:{n}")


def direct_product(factors: Sequence[FinSemigroup], name: str = "") -> FinSemigroup:
    """Componentwise product; tuples are numbered in mixed radix, with the
    first factor most significant."""
    if not factors:
        raise UnknownFamily("direct product needs at least one factor")

    def mul(x: int, y: int) -> int:
        out, scale = 0, 1
        for f in reversed(factors):
            x, a = divmod(x, f.order)
            y, b = divmod(y, f.order)
            out += f.table[a][b] * scale
            scale *= f.order
        return out

    return _from_rule(math.prod(f.order for f in factors), mul, name or "product")


_FAMILY_BUILDERS = {
    "cyclic": (_cyclic, 1),
    "dihedral": (_dihedral, 1),
    "symmetric": (_symmetric, 1),
    "quaternion8": (_quaternion8, 0),
    "rightzero": (_right_zero, 1),
    "leftzero": (_left_zero, 1),
    "null": (_null, 1),
    "fulltransformation": (_full_transformation, 1),
}


def build_family(name: str, *params: int) -> FinSemigroup:
    """Construct a named structure; see FAMILY_NAMES for the catalog."""
    key = name.lower().replace("_", "").replace("-", "")
    if key not in _FAMILY_BUILDERS:
        raise UnknownFamily(f"unknown family {name!r}")
    builder, arity = _FAMILY_BUILDERS[key]
    if len(params) != arity:
        raise UnknownFamily(
            f"family {name!r} takes {arity} parameter(s), got {len(params)}"
        )
    for p in params:
        if p < 1:
            raise UnknownFamily(f"family parameter must be >= 1, got {p}")
    return builder(*params)


FAMILY_NAMES = tuple(sorted(_FAMILY_BUILDERS)) + ("product",)


def semigroup_from_spec(spec: str) -> FinSemigroup:
    """Parse grammar like "cyclic:4", "rightzero:3", "product:cyclic:2,cyclic:3"."""
    text = spec.strip()
    if not text:
        raise UnknownFamily("empty family spec")
    if text.lower().startswith("product:"):
        body = text[len("product:") :]
        parts = [p for p in body.split(",") if p]
        if not parts:
            raise UnknownFamily(f"product spec needs factors: {spec!r}")
        factors = [semigroup_from_spec(p) for p in parts]
        label = "product:" + ",".join(f.name for f in factors)
        return direct_product(factors, name=label)
    head, _, tail = text.partition(":")
    if not tail:
        return build_family(head)
    try:
        params = [int(tok) for tok in tail.split(":")]
    except ValueError:
        raise UnknownFamily(f"bad family parameters in {spec!r}") from None
    return build_family(head, *params)


def serialize_table(S: FinSemigroup) -> dict:
    """Canonical Cayley-table JSON payload (see schemas/cayley_table.schema.json)."""
    return {
        "name": S.name,
        "order": S.order,
        "table": [list(row) for row in S.table],
    }


def is_subgroup(S: FinSemigroup, mask: int) -> bool:
    """mask is a subgroup of the group S: a non-empty closed subset of a
    finite group holds the powers of each element, hence e and inverses."""
    return S.is_group and mask != 0 and subset_is_closed(S, mask)


def subgroups(S: FinSemigroup) -> List[int]:
    """All subgroup masks of a group, ascending.

    Each is the subgroup generated by some H | {g} with H a smaller
    subgroup, starting from {e}: a subgroup is reached by adding its points
    one at a time.  Each subgroup found keeps the generators that reached
    it, and the right closure of {e} under those and g is the subgroup they
    generate, as in a finite group each inverse is a power.  Every point h*g
    of the coset H*g gives the same subgroup, as g = h^-1 * (h*g), so one g
    per coset is tried.
    """
    if not S.is_group:
        raise NotAGroup("subgroup enumeration needs a group")
    e = 1 << S.identity
    generators = {e: 0}
    todo = [e]
    while todo:
        H = todo.pop()
        rest = S.full_mask & ~H
        while rest:
            g = (rest & -rest).bit_length() - 1
            rest &= ~right_translate(S, H, g)
            X = generators[H] | 1 << g
            K = new = e
            while new:
                new = product_set(S, new, X) & ~K
                K |= new
            if K not in generators:
                generators[K] = X
                todo.append(K)
    return sorted(generators)


def subset_is_closed(S: FinSemigroup, mask: int) -> bool:
    return all(is_subset(translate_set(S, a, mask), mask) for a in bits(mask))


__all__ = [
    "FinSemigroup",
    "associativity_witness",
    "build_from_table",
    "build_family",
    "semigroup_from_spec",
    "direct_product",
    "serialize_table",
    "enumerate_semigroups",
    "left_quotient",
    "trace_set",
    "set_quotient",
    "translate_set",
    "right_translate",
    "product_set",
    "minimal_left_ideals",
    "automorphisms",
    "canonical_form",
    "is_subgroup",
    "subgroups",
    "subset_is_closed",
    "FAMILY_NAMES",
    "FAMILY_ORDER_LIMIT",
    "LABELED_ORDER_LIMIT",
]
