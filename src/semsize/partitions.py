"""Exact least-cover witnesses, partition sweeps, and the cover decision.

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

When U0*U0 <= U0, U0 is prethick and every finite partition of U0 has a
cell A whose delta(A) is large (T3_5 (iii) with T3_7, which hold for such
bases): some F <= U0 has F^-1 delta(A) >= U0.  A quotient sweep whose pool
holds U0 asserts that every partition has such a cell.

`cover_exceeds` decides whether some n-cell partition has no cell that w
members of the base cover by quotients, without listing partitions.  Over
the subsets P of the base's positions, with D[x] the slice of delta at x, a
point f of U0 hits u in U0 at the cells of hit[f][u] = D[f*u].  F covers the
cells of cov_F, the AND over u of the OR over f in F of hit[f][u], and C_w,
the OR of cov_F over |F| = w (w or fewer, since cov_F grows with F), holds
the cells that need at most w.  delta is monotone and so are both steps,
so G_w, the cells outside C_w (those needing more than w, or without any
cover), is down-closed.  Some n-partition has all its cells in G_w iff the
base is a union of at most n members of G_w: such a union minus what each
member shares with the ones before it is at most n disjoint members, which
a base of at least n points splits into exactly n non-empty ones, all in
G_w as it is down-closed.  The base is B | (R - B) for some union B of at
most n - 1 members, and B may be taken as a union of maximal members, since
growing B only shrinks R - B.  So for n = 2 the test is whether G_w meets
its own table read at R ^ P, and for larger n the same test of the unions
of n - 1 maximal members against G_w read there.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .classify import TABLE_ORDER_LIMIT, delta_slices, delta_tau
from .errors import BoundViolation, InputError, SizeLimitExceeded
from .filters import PrincipalFilter, check_hypothesis
from .masks import (
    all_subsets,
    bits,
    coordinates,
    elements,
    is_subset,
    least_cover,
    mask_of,
    popcount,
    transpose,
)
from .semigroups import FinSemigroup, is_subgroup, left_quotient, translate_set

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


def _points(base: int, n: int) -> int:
    """|base|; fewer than one cell, or than n points, raises InputError."""
    if n < 1:
        raise InputError("need at least one cell")
    if popcount(base) < n:
        raise InputError(f"no {n}-cell partitions of the base (base too small)")
    return popcount(base)


def _labelings(
    domain: int,
    n: int,
    symmetry: Optional[Sequence[Tuple[int, ...]]] = None,
) -> Iterator[Tuple[List[int], List[int]]]:
    """The restricted growth strings of length |domain| with exactly n
    labels, in increasing lexicographic order, each with its n cells as
    masks of domain positions.  Both lists are updated in place from one
    string to the next, so a consumer that keeps one must copy it.

    Each step raises the rightmost label that can still go up (below both
    n - 1 and the count of labels before it) and refills the suffix with
    its least completion: zeros, then the labels still missing (Knuth's
    Algorithm H, TAOCP 7.2.1.5).  top[j] is the count of labels before j.
    With `symmetry` (see `enumerate_partitions`) a string is skipped
    unless it is the least of its orbit.
    """
    moves: List[Tuple[int, ...]] = []
    if symmetry:
        if not all(_fixes(perm, domain) for perm in symmetry):
            raise ValueError("symmetry permutation does not fix the domain")
        domain_elems = elements(domain)
        pos = {e: i for i, e in enumerate(domain_elems)}
        # a move that fixes every position can drop no string
        images = (tuple(pos[perm[e]] for e in domain_elems) for perm in symmetry)
        moves = [mv for mv in dict.fromkeys(images) if mv != tuple(range(len(pos)))]
    if popcount(domain) < n:
        return
    m, last = _points(domain, n), n - 1
    # the first string keeps label 0 at position 0 and refills the rest
    labels, top, cells = [0] * m, [0] * m, [0] * n
    cells[0] = (1 << m) - 1
    i, u = 0, 1
    while True:
        z = m - n + u
        for j in range(i + 1, m):
            top[j] = u
            if j < z:
                lab = 0
            else:
                lab = u
                u += 1
            old = labels[j]
            if lab != old:
                labels[j] = lab
                cells[old] ^= 1 << j
                cells[lab] |= 1 << j
        # labels are already relabel-canonical; (pi . P)(x) = P(pi^-1 x),
        # but sweeping the whole group makes the direction immaterial
        if not moves or _is_orbit_min(labels, moves):
            yield labels, cells
        i = m - 1
        while i and (labels[i] >= top[i] or labels[i] == last):
            i -= 1
        if not i:
            return
        old = labels[i]
        labels[i] = lab = old + 1
        cells[old] ^= 1 << i
        cells[lab] |= 1 << i
        u = max(top[i], lab + 1)


def _is_orbit_min(labels: Sequence[int], moves: Sequence[Tuple[int, ...]]) -> bool:
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
    """Surjective n-cell labelings of the domain, one per relabeling class,
    in increasing lexicographic order of their label strings.

    With `symmetry` only the lexicographically least label string of each
    orbit is produced.  It must be a group of permutations of the ambient
    elements that fix the domain setwise (ValueError otherwise), closed
    under composition: `sweep_partitions` passes the automorphisms of S that
    fix its base (the domain) and its pool, a subgroup of `automorphisms(S)`.
    Each permutation becomes a tuple of domain positions once; a string is
    dropped at the first permutation whose image relabels to a smaller one.
    """
    for labels, _ in _labelings(domain, n, symmetry):
        yield Partition(domain, tuple(labels), n)


def stirling2(m: int, n: int) -> int:
    """Partition count S(m, n), from the rows S(i, 0..n) for i = 0..m."""
    row = [1] + [0] * n
    for _ in range(m):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
    return row[n] if n >= 0 else 0


SWEEP_PARTITION_LIMIT = stirling2(TABLE_ORDER_LIMIT, 2)  # 2 cells at the table limit


def sweep_fits(base: int, n: int) -> bool:
    """Whether `sweep_partitions` lists the n-cell partitions of the base: at
    most TABLE_ORDER_LIMIT points and 1 to SWEEP_PARTITION_LIMIT partitions."""
    m = popcount(base)
    return m <= TABLE_ORDER_LIMIT and 0 < stirling2(m, n) <= SWEEP_PARTITION_LIMIT


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

    Fewer than one cell or than n base points, then the mode and pool as
    `min_cover` checks them, raise InputError; a base that `sweep_fits`
    refuses then raises SizeLimitExceeded.  Each cell is covered as
    `min_cover` covers it in `mode`, in one pass over the enumerator behind
    `enumerate_partitions`, which keeps each cell as a mask of base
    positions; the sweep reads a cell's difference set from the
    `delta_slices` over the base's subsets, `masks.transpose`d once into a
    list indexed by cell, and builds a `Partition` only for a new argmax.  Cells
    with the same difference set have the same least cover, so the sweep
    searches each difference set once and keeps its size until it returns.
    Of the partitions with the worst cover, the argmax is the one whose
    cell sizes differ least, then the one with the least label string.

    When the base is a subgroup contained in V, the record carries
    finite_cover_bound(|base|, n) as its proved bound, and an infeasible
    partition or a worst cover above it raises BoundViolation.  Otherwise
    the proved bound is None.  A quotient sweep whose V holds a base with
    U0*U0 <= U0 also raises BoundViolation on an infeasible partition (see
    the module docstring).
    Any other sweep without a feasible partition raises SizeLimitExceeded.
    """
    m = _points(tau.base, n)
    V = tau.base if V is None else V
    _check_mode(S, mode, V)
    if not sweep_fits(tau.base, n):
        raise SizeLimitExceeded(
            f"sweep limited to {TABLE_ORDER_LIMIT} points and {SWEEP_PARTITION_LIMIT} "
            f"partitions; the base has {m} and {stirling2(m, n)} with {n} cells"
        )
    pooled = is_subset(tau.base, V)
    proved = pooled and is_subgroup(S, tau.base)
    if symmetry:
        symmetry = [p for p in symmetry if _fixes(p, tau.base) and _fixes(p, V)]

    # delta[P] is the difference set of the cell at base positions P, and
    # covers keeps the size of each difference set's least cover (None when
    # it has none), since a cell enters its cover only through it
    delta = transpose(delta_slices(S, tau, tau.base), 1 << m)
    covers: dict = {}
    worst, infeasible, argmax, spread, checked = -1, 0, None, 0, 0
    for checked, (labels, cells) in enumerate(_labelings(tau.base, n, symmetry), 1):
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
            gap = max(sizes) - min(sizes)
            # the label strings increase, so a tie keeps the earlier argmax
            if best > worst or gap < spread:
                worst, spread = best, gap
                argmax = Partition(tau.base, tuple(labels), n)
    bound = finite_cover_bound(m, n) if proved else None
    if proved and (infeasible or worst > bound):
        raise BoundViolation(
            f"{S.name}: worst_min_F {worst} (infeasible={infeasible}) breaks the "
            f"proved bound {bound} at n={n}; implementation bug"
        )
    closed = mode == "quotient" and pooled and check_hypothesis(tau, "semigroup_filter")
    if infeasible and closed:
        raise BoundViolation(
            f"{S.name}: {infeasible} partitions of a subsemigroup base have no cell "
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



# ---------------------------------------------------------------------------
# the cover decision


def cover_exceeds(S: FinSemigroup, tau: PrincipalFilter, n: int, w: int) -> bool:
    """Whether some n-cell partition of the base has no cell that at most w
    members of the base cover as `min_cover` covers it in quotient mode: the
    quotient sweep with the default pool has an infeasible partition or a
    worst cover above w.

    Decided from bit tables over the base's subsets, without listing
    partitions (see the module docstring).  Fewer than one cell, a negative
    w, or a base of fewer than n points raises InputError, and a base past
    TABLE_ORDER_LIMIT points raises SizeLimitExceeded (`delta_slices`).
    """
    m = _points(tau.base, n)
    if w < 0:
        raise InputError(f"cover width must be non-negative, got {w}")
    R = (1 << m) - 1
    U0, D, full = elements(tau.base), delta_slices(S, tau, tau.base), all_subsets(R)
    hits = [[D[S.table[f][u]] for u in U0] for f in U0]
    covered = 0
    for F in combinations(hits, min(w, len(hits))):
        cov = full
        for j in range(len(U0)):
            hit = 0
            for h in F:
                hit |= h[j]
            cov &= hit
        covered |= cov
    spare, through = full ^ covered, coordinates(R)
    # the unions of at most n - 1 members, grown one maximal member at a
    # time; each table is down-closed
    unions = 1 if n == 1 else spare
    if n > 2:
        above = 0
        for i, through_i in enumerate(through):
            above |= (spare & through_i) >> (1 << i)
        maximal = list(bits(spare & ~above))
        for _ in range(n - 2):
            grown = 0
            for M in maximal:
                table = unions
                for i in bits(M):
                    table |= table << (1 << i) & through[i]
                grown |= table
            unions = grown
    # bit P of the reversed table is the bit R ^ P of spare
    mirrored = int(format(spare, f"0{1 << m}b")[::-1], 2)
    return bool(unions & mirrored)


__all__ = [
    "Partition",
    "BoundRecord",
    "MODES",
    "finite_cover_bound",
    "min_cover",
    "enumerate_partitions",
    "stirling2",
    "sweep_fits",
    "sweep_partitions",
    "cover_exceeds",
]
