"""Exact least-cover witnesses and partition sweeps against covering bounds.

The sweep asks, for an n-cell partition of the filter base U0, how small a
pool F must be before some cell A covers U0 with translates or quotients
of its difference set delta(A) (`classify.delta_tau`; A*A^-1 on a group),
in the form its mode names (see `min_cover`).  Every mode runs on every
semigroup.  The sweep streams the partitions once: cells are masks of
base positions, their difference sets come from the `classify.delta_slices`
over the base's subsets, transposed once into a list, and the argmax is
kept as the sweep goes.

When the base is a subgroup H of order m inside the pool, the worst cover
is at most finite_cover_bound(m, n) = m // ceil(m/n) <= n, by the packing
argument of Ruzsa's covering lemma: some cell A has |A| >= ceil(m/n); a
maximal F <= H with the f*A pairwise disjoint has |F| <= m/|A|, and every
x*A meets some f*A, so F*A*A^-1 >= H.  The sweep asserts that bound.

When the filter is left inverse invariant and U0 prethick, every finite
partition of U0 has a cell A whose delta(A) is large (T3_5 (iii) with
T3_7): some F <= U0 has F^-1 delta(A) >= U0.  A quotient sweep whose pool
holds U0 asserts that every partition has such a cell.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .classify import delta_slices, delta_tau, prethick_value
from .errors import BoundViolation, InputError, SizeLimitExceeded
from .filters import PrincipalFilter, check_hypothesis
from .masks import bits, elements, is_subset, least_cover, mask_of, popcount, transpose
from .semigroups import FinSemigroup, is_subgroup, left_quotient, translate_set

SWEEP_ORDER_LIMIT = {1: 12, 2: 12, 3: 8}
MODES = ("quotient", "translate", "delta")


class Partition(NamedTuple):
    """An n-cell labeling of the elements of a domain mask.

    labels[i] is the cell of the i-th smallest element of the domain; every
    cell id below `cells` occurs (empty cells are not represented).
    """

    domain: int
    labels: Tuple[int, ...]
    cells: int

    def cell_masks(self) -> List[int]:
        out = [0] * self.cells
        for e, lab in zip(elements(self.domain), self.labels):
            out[lab] |= 1 << e
        return out

    def label_string(self) -> str:
        return "".join(str(l) for l in self.labels)


class BoundRecord(NamedTuple):
    group: str
    order: int
    base: int
    cells: int
    mode: str
    pool: int
    worst_min_F: int
    proved_bound: Optional[int]
    alt_bound: Optional[int]
    argmax_partition: Partition
    partitions_checked: int
    infeasible_partitions: int


def finite_cover_bound(m: int, n: int) -> int:
    """The most translates some cell of an n-cell partition of a subgroup of
    order m needs: m // ceil(m/n), at most n (see the module docstring)."""
    return m // -(-m // n)


def sweep_order_limit(n: int) -> int:
    """The largest order whose n-cell partitions `sweep_partitions` accepts."""
    return SWEEP_ORDER_LIMIT.get(n, 8)


def _check_mode(S: FinSemigroup, mode: str, V: int) -> None:
    """Raise unless `mode` is a cover mode and V a non-empty pool of
    elements of S."""
    if mode not in MODES:
        raise ValueError(f"unknown cover mode {mode!r}")
    if V == 0:
        raise InputError("witness pool must be non-empty")
    if V & ~S.full_mask:
        raise InputError(f"witness pool has elements past the order {S.order}")


def min_cover(
    S: FinSemigroup,
    tau: PrincipalFilter,
    A: int,
    mode: str,
    V: int,
) -> Optional[int]:
    """The least minimum-cardinality F <= V whose translates or quotients
    of delta(A) cover the base, or None when no F <= V does.

    delta(A) is the difference set `delta_tau(S, tau, A)`, which is A*A^-1
    on a group when A lies inside the base.  Each f in V contributes
    quotient: f^-1 delta(A) = {x : f*x in delta(A)} (`left_quotient`), so
    with V = U0 the cover is the `is_tau_large` witness of delta(A);
    translate and delta: f*delta(A), the cover F*A*A^-1 on a group.
    Every mode runs on every semigroup; an empty pool, or one with
    elements past the order, raises InputError.  The witness is a mask
    over V, and the search (`least_cover`) is exact at every pool size.
    """
    _check_mode(S, mode, V)
    return _cover(S, tau, delta_tau(S, tau, A), mode, V)


def _cover(S, tau, d, mode, V) -> Optional[int]:
    """`min_cover` of a set whose difference set is d, with the mode and
    pool already checked."""
    step = left_quotient if mode == "quotient" else translate_set
    return least_cover(tau.base, [(f, step(S, f, d)) for f in bits(V)])


# ---------------------------------------------------------------------------
# partition enumeration


def _rgs(m: int, n: int) -> Iterator[Tuple[int, ...]]:
    """Restricted growth strings of length m using exactly n labels."""
    if m < n or n < 1:
        return
    labels = [0] * m

    def rec(i: int, used: int):
        if i == m:
            if used == n:
                yield tuple(labels)
            return
        # cannot finish if remaining slots cannot introduce the missing labels
        if used + (m - i) < n:
            return
        for lab in range(used):
            labels[i] = lab
            yield from rec(i + 1, used)
        if used < n:
            labels[i] = used
            yield from rec(i + 1, used + 1)

    yield from rec(0, 0)


def _is_orbit_min(labels: Tuple[int, ...], moves: Sequence[Tuple[int, ...]]) -> bool:
    """Whether no image labels[move[i]] relabels to a smaller string than
    `labels`.  Each image is relabeled only up to its first difference from
    `labels`, and the test stops at the first smaller image."""
    for move in moves:
        remap: dict = {}
        for i, p in enumerate(move):
            lab = remap.setdefault(labels[p], len(remap))
            if lab != labels[i]:
                if lab < labels[i]:
                    return False
                break
    return True


def _fixes(perm: Sequence[int], mask: int) -> bool:
    return mask_of(perm[e] for e in bits(mask)) == mask


def enumerate_partitions(
    domain: int,
    n: int,
    symmetry: Optional[Sequence[Tuple[int, ...]]] = None,
) -> Iterator[Partition]:
    """Surjective n-cell labelings of the domain, one per relabeling class.

    With `symmetry` only the lexicographically least label string of each
    orbit is produced.  It must be a group of permutations of the ambient
    elements that fix the domain setwise (ValueError otherwise), closed
    under composition: `sweep_partitions` passes the automorphisms of S that
    fix its base (the domain) and its pool, a subgroup of `automorphisms(S)`.
    Each permutation becomes a tuple of domain positions once; a string is
    dropped at the first permutation whose image relabels to a smaller one.
    """
    m = popcount(domain)
    if n < 1:
        raise InputError("need at least one cell")
    moves: List[Tuple[int, ...]] = []
    if symmetry:
        if not all(_fixes(perm, domain) for perm in symmetry):
            raise ValueError("symmetry permutation does not fix the domain")
        domain_elems = elements(domain)
        pos = {e: i for i, e in enumerate(domain_elems)}
        moves = [tuple(pos[perm[e]] for e in domain_elems) for perm in symmetry]
    for labels in _rgs(m, n):
        # labels are already relabel-canonical; (pi . P)(x) = P(pi^-1 x),
        # but sweeping the whole group makes the direction immaterial
        if _is_orbit_min(labels, moves):
            yield Partition(domain, labels, n)


def stirling2(m: int, n: int) -> int:
    """Partition count S(m, n), from the rows S(i, 0..n) for i = 0..m."""
    row = [1] + [0] * n
    for _ in range(m):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
    return row[n] if n >= 0 else 0


# ---------------------------------------------------------------------------
# sweeps


def sweep_partitions(
    S: FinSemigroup,
    tau: PrincipalFilter,
    n: int,
    mode: str,
    V: Optional[int] = None,
    symmetry: Optional[Sequence[Tuple[int, ...]]] = None,
) -> BoundRecord:
    """Worst minimal cover size over all n-partitions of the base.

    The pool V defaults to the base.  `symmetry` is a group of automorphisms
    of S, typically `automorphisms(S)`: the sweep keeps those that fix the
    base and the pool, and checks one partition per orbit of the rest.

    Each cell is covered as `min_cover` covers it in `mode`, and the mode
    and pool are checked as there, once, before any partition is
    enumerated.  The sweep is one pass over `enumerate_partitions`: it
    reads each cell as a mask of base positions from the labels, and its
    difference set from the `delta_slices` over the base's subsets,
    `masks.transpose`d once into a list indexed by cell.  Cells
    with the same difference set have the same least cover, so the sweep
    searches each difference set once and keeps its size until it returns.
    Of the partitions with the worst cover, the argmax is the one whose
    cell sizes differ least, then the one with the least label string.

    When the base is a subgroup contained in V, the record carries
    finite_cover_bound(|base|, n) as its proved bound, and an infeasible
    partition or a worst cover above it raises BoundViolation.  Otherwise
    the proved bound is None.  A quotient sweep whose V holds the base of
    a left inverse invariant filter with a prethick base also raises
    BoundViolation on an infeasible partition (see the module docstring).
    Any other sweep without a feasible partition raises SizeLimitExceeded.
    """
    limit = sweep_order_limit(n)
    if S.order > limit:
        raise SizeLimitExceeded(
            f"sweep limited to order <= {limit} for {n} cells"
        )
    V = tau.base if V is None else V
    _check_mode(S, mode, V)
    proved = is_subset(tau.base, V) and is_subgroup(S, tau.base)
    if symmetry:
        symmetry = [p for p in symmetry if _fixes(p, tau.base) and _fixes(p, V)]
    if popcount(tau.base) < n:
        raise InputError(f"no {n}-cell partitions of the base (base too small)")

    # delta[P] is the difference set of the cell at base positions P, and
    # covers keeps the size of each difference set's least cover (None when
    # it has none), since a cell enters its cover only through it
    delta = transpose(delta_slices(S, tau, tau.base), 1 << popcount(tau.base))
    covers: dict = {}
    worst, infeasible, argmax, argkey, checked = -1, 0, None, None, 0
    parts = enumerate_partitions(tau.base, n, symmetry or None)
    for checked, part in enumerate(parts, 1):
        cells = [0] * n
        for i, lab in enumerate(part.labels):
            cells[lab] |= 1 << i
        best: Optional[int] = None
        for cell in cells:
            d = delta[cell]
            if d not in covers:
                F = _cover(S, tau, d, mode, V)
                covers[d] = None if F is None else popcount(F)
            size = covers[d]
            if size is not None and (best is None or size < best):
                best = size
                if best == 1:
                    break
        if best is None:
            infeasible += 1
        elif best >= worst:
            sizes = [popcount(cell) for cell in cells]
            key = (max(sizes) - min(sizes), part.labels)
            if best > worst or key < argkey:
                worst, argmax, argkey = best, part, key
    bound = finite_cover_bound(popcount(tau.base), n) if proved else None
    if proved and (infeasible or worst > bound):
        raise BoundViolation(
            f"{S.name}: worst_min_F {worst} (infeasible={infeasible}) breaks the "
            f"proved bound {bound} at n={n}; implementation bug"
        )
    if (
        infeasible
        and mode == "quotient"
        and is_subset(tau.base, V)
        and check_hypothesis(tau, "left_inverse_invariant")
        and prethick_value(S, tau, tau.base)
    ):
        raise BoundViolation(
            f"{S.name}: {infeasible} partitions of a prethick base have no cell "
            f"with a large difference set at n={n}; implementation bug"
        )
    if argmax is None:
        raise SizeLimitExceeded(
            "no feasible partition at these settings; nothing to record"
        )
    return BoundRecord(
        group=S.name or f"order{S.order}",
        order=S.order,
        base=tau.base,
        cells=n,
        mode=mode,
        pool=V,
        worst_min_F=worst,
        proved_bound=bound,
        alt_bound=(1 << (1 << n)) if mode == "delta" else None,
        argmax_partition=argmax,
        partitions_checked=checked,
        infeasible_partitions=infeasible,
    )


__all__ = [
    "Partition",
    "BoundRecord",
    "MODES",
    "finite_cover_bound",
    "min_cover",
    "enumerate_partitions",
    "stirling2",
    "sweep_partitions",
]
