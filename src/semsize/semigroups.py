"""Finite semigroups as validated Cayley tables over indices 0..n-1.

The table is row-major: ``table[i][j]`` is the product ``i * j``.  Instances
are immutable after construction and safe to share across workers; every
operation below is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import (
    AssociativityError,
    DimensionError,
    NotAGroup,
    NotASubsemigroup,
    SizeLimitExceeded,
    UnknownFamily,
)
from .masks import bits, is_subset, mask_of

AUTOMORPHISM_ORDER_LIMIT = 12


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
    """A finite semigroup with cached structural flags and preimage tables."""

    __slots__ = (
        "order",
        "table",
        "name",
        "identity",
        "is_group",
        "inverses",
        "full_mask",
        "left_pre",
        "col_pre",
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
        self.inverses = self._find_inverses()
        self.is_group = self.identity is not None and self.inverses is not None
        # left_pre[a][b] = mask {x : a*x == b}; col_pre[g][b] = mask {x : x*g == b}
        n = self.order
        left = [[0] * n for _ in range(n)]
        col = [[0] * n for _ in range(n)]
        for a in range(n):
            row = self.table[a]
            for x in range(n):
                left[a][row[x]] |= 1 << x
                col[x][row[x]] |= 1 << a
        self.left_pre = tuple(tuple(r) for r in left)
        self.col_pre = tuple(tuple(r) for r in col)

    def _find_identity(self) -> Optional[int]:
        n = self.order
        for e in range(n):
            row = self.table[e]
            if all(row[x] == x and self.table[x][e] == x for x in range(n)):
                return e
        return None

    def _find_inverses(self) -> Optional[Tuple[int, ...]]:
        e = self.identity
        if e is None:
            return None
        inv = []
        for x in range(self.order):
            for y in range(self.order):
                if self.table[x][y] == e and self.table[y][x] == e:
                    inv.append(y)
                    break
            else:
                return None
        return tuple(inv)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        if self.inverses is None:
            raise NotAGroup(f"{self.name or 'semigroup'} has no inverse table")
        return self.inverses[a]

    def __eq__(self, other) -> bool:
        return isinstance(other, FinSemigroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FinSemigroup({self.name or 'order %d' % self.order})"


def build_from_table(
    order: int, table: Sequence[Sequence[int]], name: str = ""
) -> FinSemigroup:
    """Validate shape, entry range and associativity, then construct."""
    if order < 1:
        raise DimensionError(f"order must be >= 1, got {order}")
    if len(table) != order:
        raise DimensionError(f"expected {order} rows, got {len(table)}")
    for i, row in enumerate(table):
        if len(row) != order:
            raise DimensionError(f"row {i} has {len(row)} entries, expected {order}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < order:
                raise DimensionError(
                    f"table[{i}][{j}] = {v!r} out of range [0,{order})"
                )
    witness = associativity_witness(order, table)
    if witness is not None:
        raise AssociativityError(witness)
    return FinSemigroup(table, name=name)


# ---------------------------------------------------------------------------
# set arithmetic


def left_quotient(S: FinSemigroup, a: int, B: int) -> int:
    """{x : a*x in B}."""
    pre = S.left_pre[a]
    out = 0
    for b in bits(B):
        out |= pre[b]
    return out


def trace_set(S: FinSemigroup, A: int, g: int) -> int:
    """{x : x*g in A} - the trace of A at the principal ultrafilter of g."""
    pre = S.col_pre[g]
    out = 0
    for b in bits(A):
        out |= pre[b]
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
    for b in bits(B):
        out |= 1 << row[b]
    return out


def right_translate(S: FinSemigroup, B: int, x: int) -> int:
    """{b*x : b in B}."""
    t = S.table
    out = 0
    for b in bits(B):
        out |= 1 << t[b][x]
    return out


def product_set(S: FinSemigroup, A: int, B: int) -> int:
    """{a*b : a in A, b in B}."""
    out = 0
    for a in bits(A):
        out |= translate_set(S, a, B)
    return out


def inverse_set(S: FinSemigroup, A: int) -> int:
    if S.inverses is None:
        raise NotAGroup("inverse_set needs a group")
    out = 0
    for a in bits(A):
        out |= 1 << S.inverses[a]
    return out


def quotient_pairs(S: FinSemigroup, A: int) -> int:
    """A * A^-1 = {a * b^-1 : a, b in A} on a group."""
    return product_set(S, A, inverse_set(S, A))


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
    principals = sorted(
        {(1 << x) | right_translate(S, W, x) for x in bits(W)},
        key=lambda m: (m.bit_count(), m),
    )
    minimal: List[int] = []
    for L in principals:
        if not any(is_subset(M, L) for M in minimal):
            minimal.append(L)
    return sorted(minimal)


# ---------------------------------------------------------------------------
# symmetries


def automorphisms(S: FinSemigroup) -> List[Tuple[int, ...]]:
    """All table-preserving permutations, found by pruned backtracking."""
    n = S.order
    if n > AUTOMORPHISM_ORDER_LIMIT:
        raise SizeLimitExceeded(
            f"automorphism search limited to order <= {AUTOMORPHISM_ORDER_LIMIT}"
        )
    t = S.table
    img = [-1] * n
    used = [False] * n
    found: List[Tuple[int, ...]] = []

    def consistent(k: int) -> bool:
        # check pairs involving k whose product is already assigned
        for i in range(k + 1):
            for a, b in ((i, k), (k, i)):
                c = t[a][b]
                if c <= k and t[img[a]][img[b]] != img[c]:
                    return False
        return True

    def preserves_all() -> bool:
        for a in range(n):
            for b in range(n):
                if t[img[a]][img[b]] != img[t[a][b]]:
                    return False
        return True

    def extend(k: int) -> None:
        if k == n:
            if preserves_all():
                found.append(tuple(img))
            return
        for v in range(n):
            if used[v]:
                continue
            img[k] = v
            used[v] = True
            if consistent(k):
                extend(k + 1)
            used[v] = False
        img[k] = -1

    extend(0)
    return sorted(found)


# ---------------------------------------------------------------------------
# exhaustive instance catalog


def enumerate_semigroups(order: int) -> Iterator[FinSemigroup]:
    """Every labeled associative table on {0..order-1}, order <= 3."""
    if order not in (1, 2, 3):
        raise SizeLimitExceeded("exhaustive enumeration supports order <= 3 only")
    count = 0
    for flat in itertools.product(range(order), repeat=order * order):
        table = tuple(flat[i * order : (i + 1) * order] for i in range(order))
        if associativity_witness(order, table) is None:
            yield FinSemigroup(table, name=f"n{order}-{count}")
            count += 1


# ---------------------------------------------------------------------------
# named families


def _cyclic(n: int) -> FinSemigroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FinSemigroup(table, name=f"cyclic:{n}")


def _dihedral(n: int) -> FinSemigroup:
    # order 2n; element i + n*j is rotation^i * flip^j
    def mul(x, y):
        a, s = x % n, x // n
        b, t = y % n, y // n
        rot = (a + (b if s == 0 else -b)) % n
        return rot + n * (s ^ t)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return FinSemigroup(table, name=f"dihedral:{n}")


def _symmetric(n: int) -> FinSemigroup:
    if n > 4:
        raise SizeLimitExceeded("symmetric group family limited to n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
    ]
    return FinSemigroup(table, name=f"symmetric:{n}")


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

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FinSemigroup(table, name="quaternion8")


def _right_zero(n: int) -> FinSemigroup:
    table = [[j for j in range(n)] for _ in range(n)]
    return FinSemigroup(table, name=f"rightzero:{n}")


def _left_zero(n: int) -> FinSemigroup:
    table = [[i for _ in range(n)] for i in range(n)]
    return FinSemigroup(table, name=f"leftzero:{n}")


def _null(n: int) -> FinSemigroup:
    table = [[0 for _ in range(n)] for _ in range(n)]
    return FinSemigroup(table, name=f"null:{n}")


def _full_transformation(n: int) -> FinSemigroup:
    if n > 3:
        raise SizeLimitExceeded("full transformation family limited to n <= 3")
    maps = sorted(itertools.product(range(n), repeat=n))
    index = {f: i for i, f in enumerate(maps)}
    table = [
        [index[tuple(f[g[i]] for i in range(n))] for g in maps] for f in maps
    ]
    return FinSemigroup(table, name=f"fulltransformation:{n}")


def direct_product(factors: Sequence[FinSemigroup], name: str = "") -> FinSemigroup:
    if not factors:
        raise UnknownFamily("direct product needs at least one factor")
    total = 1
    for f in factors:
        total *= f.order

    def decode(x: int) -> List[int]:
        out = []
        for f in reversed(factors):
            x, r = divmod(x, f.order)
            out.append(r)
        return out[::-1]

    def encode(parts: Sequence[int]) -> int:
        x = 0
        for f, p in zip(factors, parts):
            x = x * f.order + p
        return x

    table = []
    for x in range(total):
        xs = decode(x)
        row = []
        for y in range(total):
            ys = decode(y)
            row.append(encode([f.table[a][b] for f, a, b in zip(factors, xs, ys)]))
        table.append(row)
    return FinSemigroup(table, name=name or "product")


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
    """mask is a subgroup of the group S."""
    if not S.is_group or mask == 0:
        return False
    return is_subset(inverse_set(S, mask), mask) and subset_is_closed(S, mask)


def subgroups(S: FinSemigroup) -> List[int]:
    """All subgroup masks of a group, ascending."""
    if not S.is_group:
        raise NotAGroup("subgroup enumeration needs a group")
    found = []
    for m in range(1, S.full_mask + 1):
        if (m >> S.identity) & 1 and is_subgroup(S, m):
            found.append(m)
    return found


def subset_is_closed(S: FinSemigroup, mask: int) -> bool:
    for a in bits(mask):
        row = S.table[a]
        for b in bits(mask):
            if not (mask >> row[b]) & 1:
                return False
    return True


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
    "inverse_set",
    "quotient_pairs",
    "minimal_left_ideals",
    "automorphisms",
    "is_subgroup",
    "subgroups",
    "subset_is_closed",
    "FAMILY_NAMES",
    "mask_of",
]
