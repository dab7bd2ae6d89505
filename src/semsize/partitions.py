"""Exact minimal-witness covers and partition sweeps against covering bounds.

The sweep machinery asks, for an n-cell partition of a filter member, how
small a translate/quotient pool F must be before some cell A satisfies
F . transform(A) >= U0.  Worst cases over all partitions are compared with
the proved double-exponential bound and with the conjectured linear /
factorial bounds, which are recorded as evidence rather than asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

from .classify import delta_tau
from .errors import BoundViolation, InputError, NotAGroup, SizeLimitExceeded
from .filters import PrincipalFilter
from .masks import elements, is_subset, mask_of, popcount, supersets
from .semigroups import (
    FinSemigroup,
    is_subgroup,
    left_quotient,
    quotient_pairs,
    translate_set,
)

COVER_POOL_LIMIT = 16
SWEEP_ORDER_LIMIT = {1: 12, 2: 12, 3: 8}
WIDEN_ORDER_LIMIT = 6
MODES = ("quotient", "translate", "delta")


@dataclass(frozen=True)
class Partition:
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


@dataclass(frozen=True)
class CoverCertificate:
    cell_id: Optional[int]
    witness_F: Optional[int]
    mode: str
    target: int
    covered: int

    @property
    def feasible(self) -> bool:
        return self.witness_F is not None

    @property
    def size(self) -> Optional[int]:
        return None if self.witness_F is None else popcount(self.witness_F)


@dataclass(frozen=True)
class BoundRecord:
    group: str
    order: int
    base: int
    cells: int
    mode: str
    pool: int
    worst_min_F: int
    proved_bound: Optional[int]
    conjecture_bound: int
    alt_bound: Optional[int]
    argmax_partition: Partition
    partitions_checked: int
    widened: bool
    infeasible_partitions: int

    @property
    def exceeds_conjecture(self) -> bool:
        return self.worst_min_F > self.conjecture_bound


def proved_cover_bound(n: int) -> int:
    return 1 << ((1 << (n - 1)) - 1)


def _transform_masks(
    S: FinSemigroup, tau: PrincipalFilter, A: int, mode: str, pool: Sequence[int]
) -> List[int]:
    if mode == "quotient":
        return [left_quotient(S, f, A) for f in pool]
    if mode == "translate":
        if not S.is_group:
            raise NotAGroup("translate covering needs A*A^-1, hence a group")
        pairs = quotient_pairs(S, A) if A else 0
        return [translate_set(S, f, pairs) for f in pool]
    if mode == "delta":
        d = delta_tau(S, tau, A)
        return [translate_set(S, f, d) for f in pool]
    raise ValueError(f"unknown cover mode {mode!r}")


def min_cover(
    S: FinSemigroup,
    tau: PrincipalFilter,
    A: int,
    mode: str,
    V: int,
    cell_id: Optional[int] = None,
) -> CoverCertificate:
    """Minimum-cardinality F <= V whose mode-transform of A covers the base.

    quotient: union of f^-1 A;  translate: union of f*(A*A^-1);
    delta: union of f*delta(A).  Infeasibility comes back as a certificate
    with witness_F None so sweeps can aggregate it.  Ties at the minimum
    cardinality break to the lexicographically least mask.
    """
    if V == 0:
        raise ValueError("witness pool V must be non-empty")
    pool = elements(V)
    if len(pool) > COVER_POOL_LIMIT:
        raise SizeLimitExceeded(
            f"exact cover search limited to |V| <= {COVER_POOL_LIMIT}"
        )
    target = tau.base
    masks = _transform_masks(S, tau, A, mode, pool)
    reach = 0
    for m in masks:
        reach |= m
    if not is_subset(target, reach):
        return CoverCertificate(cell_id, None, mode, target, reach)
    for k in range(1, len(pool) + 1):
        best: Optional[Tuple[int, int]] = None  # (witness mask, covered)
        for combo in combinations(range(len(pool)), k):
            covered = 0
            for i in combo:
                covered |= masks[i]
            if is_subset(target, covered):
                w = mask_of(pool[i] for i in combo)
                if best is None or w < best[0]:
                    best = (w, covered)
        if best is not None:
            return CoverCertificate(cell_id, best[0], mode, target, best[1])
    raise AssertionError("unreachable: full pool covers but no subset did")


def recompute_cover(
    S: FinSemigroup, tau: PrincipalFilter, A: int, cert: CoverCertificate
) -> int:
    """Re-derive the covered mask from (mode, witness, cell) for validation."""
    if cert.witness_F is None:
        return 0
    masks = _transform_masks(S, tau, A, cert.mode, elements(cert.witness_F))
    covered = 0
    for m in masks:
        covered |= m
    return covered


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


def _canonical_labels(labels: Sequence[int]) -> Tuple[int, ...]:
    remap = {}
    out = []
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return tuple(out)


def _close_permutation_group(
    perms: Sequence[Tuple[int, ...]], cap: int = 4000
) -> List[Tuple[int, ...]]:
    n = len(perms[0])
    group = {tuple(range(n))}
    frontier = [tuple(p) for p in perms]
    while frontier:
        p = frontier.pop()
        if p in group:
            continue
        group.add(p)
        if len(group) > cap:
            raise SizeLimitExceeded("symmetry group closure exceeded cap")
        for q in list(group):
            frontier.append(tuple(p[q[i]] for i in range(n)))
            frontier.append(tuple(q[p[i]] for i in range(n)))
    return sorted(group)


def _orbit_min(
    part: Tuple[int, ...], domain_elems: Sequence[int], pos: dict, group
) -> Tuple[int, ...]:
    best = part
    for perm in group:
        moved = tuple(part[pos[perm[e]]] for e in domain_elems)
        cand = _canonical_labels(moved)
        if cand < best:
            best = cand
    return best


def enumerate_partitions(
    domain: int,
    n: int,
    symmetry: Optional[Sequence[Tuple[int, ...]]] = None,
) -> Iterator[Partition]:
    """Surjective n-cell labelings of the domain, one per relabeling class.

    With `symmetry` (permutations of the ambient elements that fix the
    domain setwise) only the lexicographically least label string of each
    orbit is produced.
    """
    m = popcount(domain)
    if n < 1:
        raise InputError("need at least one cell")
    domain_elems = elements(domain)
    group = None
    if symmetry:
        for perm in symmetry:
            if mask_of(perm[e] for e in domain_elems) != domain:
                raise ValueError("symmetry permutation does not fix the domain")
        group = _close_permutation_group(symmetry)
        pos = {e: i for i, e in enumerate(domain_elems)}
    for labels in _rgs(m, n):
        if group is not None:
            # labels are already relabel-canonical; (pi . P)(x) = P(pi^-1 x),
            # but sweeping the whole group makes the direction immaterial
            if _orbit_min(labels, domain_elems, pos, group) != labels:
                continue
        yield Partition(domain, labels, n)


def stirling2(m: int, n: int) -> int:
    """Partition count S(m, n), for cross-checking enumeration."""
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    return n * stirling2(m - 1, n) + stirling2(m - 1, n - 1)


# ---------------------------------------------------------------------------
# sweeps


def _balanced_first(parts: List[Partition]) -> List[Partition]:
    # near-balanced partitions empirically carry the worst cases; surface
    # them early so long sweeps report progress meaningfully
    def key(p: Partition):
        sizes = sorted(popcount(c) for c in p.cell_masks())
        return (sizes[-1] - sizes[0], p.labels)

    return sorted(parts, key=key)


def _conjecture_bound(mode: str, n: int, absolute: bool) -> int:
    if mode in ("translate", "quotient"):
        return n if absolute else math.factorial(n)
    return math.factorial(n)


def sweep_partitions(
    S: FinSemigroup,
    tau: PrincipalFilter,
    n: int,
    mode: str,
    V: Optional[int] = None,
    widen_U: bool = False,
    symmetry: Optional[Sequence[Tuple[int, ...]]] = None,
    progress=None,
    start_index: int = 0,
    state: Optional[dict] = None,
) -> BoundRecord:
    """Worst minimal cover size over all n-partitions of each swept domain.

    Default domain is the base only; widen_U additionally sweeps every
    filter member (order <= 6).  `progress` is an optional callback
    (index, total, state) used for cooperative checkpointing; start_index
    and state resume a previous sweep deterministically.
    """
    limit = SWEEP_ORDER_LIMIT.get(n, 8)
    if S.order > limit:
        raise SizeLimitExceeded(
            f"sweep limited to order <= {limit} for {n} cells"
        )
    if mode not in MODES:
        raise ValueError(f"unknown cover mode {mode!r}")
    pool = tau.base if V is None else V
    if widen_U and S.order > WIDEN_ORDER_LIMIT:
        raise SizeLimitExceeded(
            f"widened sweeps limited to order <= {WIDEN_ORDER_LIMIT}"
        )
    domains = list(supersets(tau.base, S.full_mask)) if widen_U else [tau.base]
    parts: List[Partition] = []
    for U in domains:
        if popcount(U) < n:
            continue
        syms_U = None
        if symmetry:
            elems_U = elements(U)
            syms_U = [
                p for p in symmetry if mask_of(p[e] for e in elems_U) == U
            ] or None
        parts.extend(enumerate_partitions(U, n, syms_U))
    parts = _balanced_first(parts)

    worst = -1
    argmax: Optional[Partition] = None
    infeasible = 0
    if state:
        worst = state["worst"]
        infeasible = state["infeasible"]
        if state["argmax"] is not None:
            argmax = Partition(
                state["argmax"]["domain"],
                tuple(state["argmax"]["labels"]),
                n,
            )
    for idx in range(start_index, len(parts)):
        part = parts[idx]
        best: Optional[int] = None
        for cell_id, cell in enumerate(part.cell_masks()):
            # the corollary form quotients the difference set, so a quotient
            # sweep covers A*A^-1 rather than the raw cell
            cover_set = quotient_pairs(S, cell) if mode == "quotient" else cell
            cert = min_cover(S, tau, cover_set, mode, pool, cell_id)
            if cert.size is not None and (best is None or cert.size < best):
                best = cert.size
                if best == 1:
                    break
        if best is None:
            infeasible += 1
        elif best > worst:
            worst = best
            argmax = part
        if progress is not None:
            progress(
                idx + 1,
                len(parts),
                {
                    "worst": worst,
                    "infeasible": infeasible,
                    "argmax": None
                    if argmax is None
                    else {"domain": argmax.domain, "labels": list(argmax.labels)},
                },
            )
    if not parts:
        raise InputError(
            f"no {n}-cell partitions of the swept domains (base too small)"
        )
    if argmax is None:
        if mode == "translate" and S.is_group and is_subgroup(S, tau.base):
            raise BoundViolation(
                f"{S.name}: every partition infeasible under a proved bound; "
                "implementation bug"
            )
        raise SizeLimitExceeded(
            "no feasible partition at these settings; nothing to record"
        )

    absolute = tau.is_trivial
    bound = proved_cover_bound(n) if mode in ("translate", "quotient") else None
    record = BoundRecord(
        group=S.name or f"order{S.order}",
        order=S.order,
        base=tau.base,
        cells=n,
        mode=mode,
        pool=pool,
        worst_min_F=worst,
        proved_bound=bound,
        conjecture_bound=_conjecture_bound(mode, n, absolute),
        alt_bound=(1 << (1 << n)) if mode == "delta" else None,
        argmax_partition=argmax,
        partitions_checked=len(parts),
        widened=widen_U,
        infeasible_partitions=infeasible,
    )
    if (
        mode == "translate"
        and S.is_group
        and is_subgroup(S, tau.base)
        and is_subset(tau.base, pool)
        and (infeasible or worst > record.proved_bound)
    ):
        raise BoundViolation(
            f"{S.name}: worst_min_F {worst} (infeasible={infeasible}) breaks the "
            f"proved bound {record.proved_bound} at n={n}; implementation bug"
        )
    return record


def worst_case_table(
    S: FinSemigroup,
    tau: PrincipalFilter,
    n: int,
    mode: str = "translate",
    V: Optional[int] = None,
    **kwargs,
) -> BoundRecord:
    return sweep_partitions(S, tau, n, mode, V, **kwargs)


def delta_worst_case(
    S: FinSemigroup,
    tau: PrincipalFilter,
    n: int,
    V: Optional[int] = None,
    **kwargs,
) -> BoundRecord:
    return sweep_partitions(S, tau, n, "delta", V, **kwargs)


__all__ = [
    "Partition",
    "CoverCertificate",
    "BoundRecord",
    "MODES",
    "proved_cover_bound",
    "min_cover",
    "recompute_cover",
    "enumerate_partitions",
    "stirling2",
    "sweep_partitions",
    "worst_case_table",
    "delta_worst_case",
]
