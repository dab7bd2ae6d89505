"""Executable checkers for the covering/size theorems, run over catalogs.

Proved statements act as oracles for the implementation: a counterexample
means the code (or a hypothesis reduction) is wrong, halts the sweep and is
reported with enough material to replay it in isolation.  Hypothesis-dropped
variants live in `hunt_counterexample`, where a hit is a finding, not a
failure.

Every theorem and hunt is one `Spec` in `THEOREMS` or `HUNTS`, and one driver
serves `verify`, `hunt_counterexample` (one spec each) and `replay`.  One pass
over the catalog runs every requested spec on each instance, whose
`SizeTables` are built at most once and dropped before the next.  What the
base alone determines (the shiftable g, the right translates, the union of
the minimal left ideals, the reach and its image lists) is read off the
instance's one `PrincipalFilter`, which computes each at most once and is
dropped with the tables.  The fields of a spec:

* ``claim(S, tau, tb, cfg)``: the per-subset loop over the instance's
  `SizeTables` ``tb``; returns the number of assertions made and the detail
  (plain JSON values) of the first failure, or None;
* ``hypothesis``: the `check_hypothesis` kind a filter must satisfy, or None;
  with ``negate`` only filters that fail it are admitted (a dropped hypothesis);
* ``groups``: True admits only groups, False only non-groups, None both;
* ``admit(S, tau, cfg)``: any further admission test (size limits, cells);
* ``annotate_forced``: see the degeneracy rule below; ``tables``: False when
  the claim reads no `SizeTables` (it then gets None, and none are built);
  a spec that reads them skips instances whose reach exceeds
  `classify.TABLE_ORDER_LIMIT` points, past which `SizeTables` refuses;
* ``finding``: a hunt's counterexample text; ``notes``: fixed report notes.

A claim reads tables over the subsets of the base's reach R = U0 | U0^2 |
U0^3 (`PrincipalFilter.reach`), indexed by positions within R, each a
`union_table` of one image list restricted to R (`reach_images`): the
`SizeTables`, for the trace statements the traces at each base point, for
T2_4 and C2_5 the products g*b and the preimages {x : g*x == b} at each
shiftable g, for T2_6 the preimages at each base point, and for T3_7 the
union of the traces.  No claim moves a subset through a set-arithmetic call.
An equivalence over every subset is one `_agree` of two tables, an
implication one `_implies`.  A statement that follows from one already
checked, like T3_5 (iii) from (i), is counted, not swept, and T2_4 and
C2_5, one claim under two texts, share one scan of an instance.

The reports stay those of a sweep over all 2^order subsets A of S.  Every
table entry is A's verdict for each A with the same points in R, since each
claim reads A only there, up to monotonicity in T2_4/C2_5 (see
`_shift_scan`).  So the least failing A lies inside R and is
`from_reach` of the least failing entry, and a count of subsets is a
weighted count of entries: 2^(order - |R|) each in all (`_all`), and
`_below` for those up to a failure.

Degeneracy accounting: an admissible instance is degenerate when it asserted
nothing (empty inner domain) or when its hypothesis admits no base other
than the full set, so the run only exercised the absolute theory.  Only
`verify` counts these forced bases; a hunt's hypothesis is dropped or
negated, so it has none.  The lone exception is the prethick/not-small
equivalence on groups (``annotate_forced``), whose hypothesis always
collapses onto the absolute case; those instances are annotated instead of
discounted, otherwise the check could never be effective.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from .catalog import CatalogEntry
from .classify import TABLE_ORDER_LIMIT, SizeTables
from .errors import BoundViolation, InputError
from .filters import (
    PrincipalFilter,
    check_hypothesis,
    hypothesis_forces_full_base,
)
from .masks import bits, elements, mask_of, popcount, union_at, union_table
from .partitions import stirling2, sweep_order_limit, sweep_partitions
from .semigroups import FinSemigroup, is_subgroup


# T3_5 (iii) holds by (i) at every order; its partitions are counted as
# assertions only up to this order, which the reports are defined by
REGULARITY_ORDER_LIMIT = 6


class VerifyConfig:
    # T3_6 admission; small is polynomial, so this bounds no cost, but
    # T3_6's report and the benchmark's traced layer run are defined by it
    small_order_limit = 8

    def __init__(self, cells: int = 2, workers: int = 1):
        if cells < 1:
            raise InputError("need at least one cell")
        if workers < 0:
            raise InputError(f"worker count {workers} is negative")
        self.cells = cells            # partition sweep width for T3_2
        self.workers = workers        # 0 and 1 both run serially


class TheoremReport(NamedTuple):
    theorem_id: str
    catalog_label: str
    instances_checked: int
    degenerate_count: int
    effective_count: int
    skipped_count: int
    forced_absolute_count: int
    assertions: int
    counterexample: Optional[dict]
    vacuity_warning: bool
    notes: Tuple[str, ...]
    search: bool = False
    found: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.theorem_id,
            "catalog": self.catalog_label,
            "instances_checked": self.instances_checked,
            "degenerate_count": self.degenerate_count,
            "effective_count": self.effective_count,
            "skipped_count": self.skipped_count,
            "forced_absolute_count": self.forced_absolute_count,
            "assertions": self.assertions,
            "counterexample": self.counterexample,
            "vacuity_warning": self.vacuity_warning,
            "notes": list(self.notes),
        }
        if self.search:
            out["search"] = True
            out["found"] = self.found
        return out


class Spec(NamedTuple):
    """One theorem or hunt; the fields are described in the module docstring."""

    claim: Callable[..., Tuple[int, Optional[dict]]]
    hypothesis: Optional[str] = None
    negate: bool = False
    groups: Optional[bool] = None
    admit: Optional[Callable[..., bool]] = None
    annotate_forced: bool = False
    tables: bool = True
    finding: Optional[str] = None
    notes: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# claim bodies


def _below(tau, flags, P):
    """The number of subsets A of S below from_reach(P), as ints, with
    flags[to_reach(A)] set.

    Such an A first differs from from_reach(P) at a point e of it, at
    position i of R, that A lacks: above e it agrees with from_reach(P), and
    below e it is free on the i positions of R in the range [hi, hi + 2^i)
    and on the e - i other points."""
    count = 0
    for i, e in enumerate(tau.reach_points):
        if P >> i & 1:
            hi = P >> (i + 1) << (i + 1)
            count += sum(flags[hi : hi + (1 << i)]) << e - i
    return count


def _all(tau, flags):
    """The number of subsets A of S with flags[to_reach(A)] set."""
    return sum(flags) << tau.semigroup.order - len(tau.reach_points)


def _agree(tau, lhs, rhs, lname, rname):
    """(assertions, detail) for the claim lhs[A] == rhs[A] on every subset A
    of S: (first mismatch + 1, the subset and both sides there), or
    (2^order, None).  The first mismatch is from_reach of the first
    mismatching entry, since both sides read A only through its reach."""
    if lhs != rhs:
        P = next(P for P, (l, r) in enumerate(zip(lhs, rhs)) if l != r)
        A = tau.from_reach(P)
        return A + 1, {"subset": elements(A), lname: lhs[P], rname: rhs[P]}
    return 1 << tau.semigroup.order, None


def _implies(tau, premise, conclusion, claim):
    """(assertions, detail) for the claim premise[A] => conclusion[A] on
    every subset A of S: one assertion per A with premise[A] up to the first
    failure, whose detail names the subset and the claim."""
    premise = list(premise)
    pairs = enumerate(zip(premise, conclusion))
    P = next((P for P, (p, c) in pairs if p and not c), None)
    if P is None:
        return _all(tau, premise), None
    detail = {"subset": elements(tau.from_reach(P)), "claim": claim}
    return _below(tau, premise, P) + 1, detail


def _trace_tables(tau):
    """(g, t) for each g in U0, one at a time: t[P] = {x : x*g in A} on R
    for every subset A of R."""
    for g in bits(tau.base):
        yield g, union_table(tau.reach_images("trace", g))


def _trace_large(S, tau, tb, cfg):
    """T2_1: L is large iff every trace of L at a base point meets U0."""
    U0 = tau.to_reach(tau.base)
    rhs = [True] * len(tb.large)
    for _, t in _trace_tables(tau):
        rhs = [r and bool(x & U0) for r, x in zip(rhs, t)]
    return _agree(tau, tb.large, rhs, "large", "trace_condition")


def _trace_thick(S, tau, tb, cfg):
    """T2_2: T is thick iff some trace of T at a base point contains U0."""
    U0 = tau.to_reach(tau.base)
    rhs = [False] * len(tb.thick)
    for _, t in _trace_tables(tau):
        rhs = [r or not U0 & ~x for r, x in zip(rhs, t)]
    return _agree(tau, tb.thick, rhs, "thick", "trace_condition")


def _thick_meets_large(S, tau, tb, cfg):
    """T2_3: T is thick iff T & U0 meets every large set."""
    U0 = tau.to_reach(tau.base)
    R = len(tb.large) - 1
    # T meets L & U0 for every large L  <=>  the complement of T & U0 is not
    # large (up-closure of the large family); the literal sweep equivalence
    # is property-tested at small orders
    rhs = [not tb.large[R & ~(T & U0)] for T in range(R + 1)]
    return _agree(tau, tb.thick, rhs, "thick", "meets_every_large")


def _shift_scan(tau, tb):
    """(assertions, failure) for T2_4 / C2_5: at every shiftable g (g*U0 <=
    U0), g*L stays large and g^-1 T thick; failure is None, or g, the
    failing subset and whether it is thick that failed.

    Per g, one `union_table` of the products {g*b} and one of the preimages
    {x : g*x == b}, over R, give gA[P] = g*A and gqA[P] = g^-1 A on R for
    every subset A of R.  thick reads g^-1 A at g*U0^2 <= U0^2, inside R,
    but g*A can meet U0^2 at images of points off R.  A failure there is
    one at A & R all the same: A & R is large when A is, and g*(A & R) <=
    g*A is not large when g*A is not.
    """
    large, thick = tb.large, tb.thick
    count = 0
    for g in bits(tau.shiftable):
        gA = union_table(tau.reach_images("row", g))
        gqA = union_table(tau.reach_images("quot", g))
        for P in range(len(large)):
            if large[P] and not large[gA[P]]:
                thick_failed, passed = False, 0
            elif thick[P] and not thick[gqA[P]]:
                thick_failed, passed = True, large[P]
            else:
                continue
            count += _below(tau, large, P) + _below(tau, thick, P) + passed + 1
            return count, (g, tau.from_reach(P), thick_failed)
        count += _all(tau, large) + _all(tau, thick)
    return count, None


# the `_shift_scan` of each live SizeTables, dropped with them
_SHIFT_SCANS: WeakKeyDictionary[SizeTables, tuple] = WeakKeyDictionary()


def _shift_invariance(large_claim, thick_claim, S, tau, tb, cfg):
    """T2_4 / C2_5, the `_shift_scan` under the claim texts.

    Under left inverse invariance (C2_5) every g is shiftable, so the two
    statements differ only in their hypothesis and claim texts, and the
    second to run on an instance reads the first one's scan.
    """
    if tb not in _SHIFT_SCANS:
        _SHIFT_SCANS[tb] = _shift_scan(tau, tb)
    count, failure = _SHIFT_SCANS[tb]
    if failure is None:
        return count, None
    g, A, thick_failed = failure
    claim = thick_claim if thick_failed else large_claim
    return count, {"g": g, "subset": elements(A), "claim": claim}


def _quotient_stable(family, S, tau, tb, cfg, **labels):
    """T2_6: g^-1 T stays in the family (tb.thick, or tb.large) for g in U0.

    Per g, one `union_table` of the preimages {x : g*x == b} over R gives
    g^-1 T on R, and stays[P] whether it is in the family."""
    members = getattr(tb, family)
    stays = [
        (g, [members[gT] for gT in union_table(tau.reach_images("quot", g))])
        for g in bits(tau.base)
    ]
    for P, member in enumerate(members):
        if not member:
            continue
        for j, (g, stay) in enumerate(stays):
            if not stay[P]:
                count = _below(tau, members, P) * len(stays) + j + 1
                return count, {"subset": elements(tau.from_reach(P)), "g": g, **labels}
    return _all(tau, members) * len(stays), None


def _minimal_ideal_traces(S, tau, tb, cfg):
    """T3_1: g lies in a minimal left ideal iff every trace at g is large."""
    M = tau.minimal_ideal_union
    count = 0
    for g, t in _trace_tables(tau):
        bit = tau.to_reach(1 << g)
        through_g = (P for P in range(len(t)) if P & bit)
        bad = next((P for P in through_g if not tb.large[t[P]]), None)
        count += 1
        in_minimal = bool((M >> g) & 1)
        if in_minimal != (bad is None):
            return count, {
                "g": g,
                "in_minimal_ideal": in_minimal,
                "traces_all_large": bad is None,
                "failing_set": None if bad is None else elements(tau.from_reach(bad)),
            }
    return count, None


def _meets_minimal_is_prethick(S, tau, tb, cfg):
    """C3_1: a set meeting a minimal left ideal is prethick."""
    M = tau.to_reach(tau.minimal_ideal_union)
    meets = (bool(P & M) for P in range(len(tb.prethick)))
    return _implies(tau, meets, tb.prethick, "set meeting a minimal ideal is prethick")


def _cover_sweep_fits(S, tau, cfg) -> bool:
    return (
        is_subgroup(S, tau.base)
        and S.order <= sweep_order_limit(cfg.cells)
        and popcount(tau.base) >= cfg.cells
    )


def _cover_bound(S, tau, tb, cfg):
    """T3_2: every cells-partition of a subgroup base of order m has a cell
    covered by at most m // ceil(m/cells) translates of its difference set;
    the sweep raises BoundViolation where none is."""
    try:
        record = sweep_partitions(S, tau, cfg.cells, "translate", V=tau.base)
    except BoundViolation as exc:
        return 0, {"cells": cfg.cells, "violation": str(exc)}
    return record.partitions_checked, None


def _prethick_regularity(S, tau, tb, cfg):
    """T3_5: (i) A is prethick iff it meets a minimal left ideal; (iii) every
    finite partition of a prethick set has a prethick cell.

    (iii) follows from (i): a prethick A meets the union M of the minimal
    left ideals, the cell holding a point of A & M meets M, and (i), checked
    on every subset first, makes that cell prethick.  So (iii) is not swept;
    up to REGULARITY_ORDER_LIMIT it counts one assertion per 2- and 3-cell
    partition of each prethick set, S(|A|, 2) + S(|A|, 3).  A prethick P
    on R stands for the sets P | N, for N any k of the points off R.
    """
    M = tau.to_reach(tau.minimal_ideal_union)
    meets = [bool(P & M) for P in range(len(tb.prethick))]
    count, detail = _agree(tau, tb.prethick, meets, "prethick", "meets_minimal")
    if detail is not None:
        return count, {"part": "i", **detail}
    if S.order <= REGULARITY_ORDER_LIMIT:
        r = len(tau.reach_points)
        off = S.order - r
        parts = [stirling2(k, 2) + stirling2(k, 3) for k in range(S.order + 1)]
        by_size = [
            sum(comb(off, k) * parts[j + k] for k in range(off + 1))
            for j in range(r + 1)
        ]
        count += sum(by_size[P.bit_count()] for P, p in enumerate(tb.prethick) if p)
    return count, None


def _prethick_not_small(S, tau, tb, cfg):
    """T3_6: A is prethick iff A is not small."""
    not_small = [not small for small in tb.small]
    return _agree(tau, tb.prethick, not_small, "prethick", "not_small")


def _prethick_delta_large(S, tau, tb, cfg):
    """T3_7: the difference set of a prethick set is large.

    delta(A) is the union of the traces of A at the base points in A (see
    `classify.delta_table`), here over R."""
    traces = ((tau.to_reach(1 << g), t) for g, t in _trace_tables(tau))
    delta_large = (tb.large[d] for d in union_at(traces, len(tb.large)))
    claim = "difference set of prethick is large"
    return _implies(tau, tb.prethick, delta_large, claim)


# ---------------------------------------------------------------------------
# the spec table


THEOREMS: Dict[str, Spec] = {
    "T2_1": Spec(_trace_large),
    "T2_2": Spec(_trace_thick),
    "T2_3": Spec(_thick_meets_large, hypothesis="extrathick_members"),
    "T2_4": Spec(
        partial(
            _shift_invariance,
            "translate of large is large",
            "quotient of thick is thick",
        )
    ),
    "C2_5": Spec(
        partial(
            _shift_invariance,
            "large family left invariant",
            "thick family left inverse invariant",
        ),
        hypothesis="left_inverse_invariant",
    ),
    "T2_6": Spec(
        partial(_quotient_stable, "thick", claim="quotient of thick is thick"),
        hypothesis="neighborhood_shift",
    ),
    "T3_1": Spec(_minimal_ideal_traces, hypothesis="semigroup_filter"),
    "C3_1": Spec(_meets_minimal_is_prethick, hypothesis="semigroup_filter"),
    "T3_2": Spec(_cover_bound, groups=True, admit=_cover_sweep_fits, tables=False),
    "T3_5": Spec(
        _prethick_regularity,
        hypothesis="left_inverse_invariant",
        notes=(
            "closure membership statement degenerates onto the minimal-ideal "
            "membership statement at finite scale",
        ),
    ),
    "T3_6": Spec(
        _prethick_not_small,
        hypothesis="left_invariant",
        groups=True,
        admit=lambda S, tau, cfg: S.order <= cfg.small_order_limit,
        annotate_forced=True,
        notes=(
            "left invariance admits only the full base on a finite group; "
            "instances exercise the absolute theory and are annotated, not "
            "discounted",
        ),
    ),
    "T3_7": Spec(_prethick_delta_large, hypothesis="left_inverse_invariant"),
}
THEOREM_IDS = tuple(THEOREMS)  # what "verify --theorem all" runs, in order
THEOREMS["C3_2"] = THEOREMS["T3_2"]  # corollary alias for the same sweep

# hypothesis dropped or negated, or conclusion strengthened
HUNTS: Dict[str, Spec] = {
    "T2_6_large": THEOREMS["T2_6"]._replace(
        claim=partial(_quotient_stable, "large"),
        finding="quotient of a large set stopped being large",
        notes=(
            "shift stability of large sets under the neighborhood-shift "
            "hypothesis (the thick conclusion with large in its place)",
        ),
    ),
    "T2_3_no_extrathick": THEOREMS["T2_3"]._replace(
        negate=True,
        finding="equivalence breaks without the extrathick hypothesis",
        notes=("thick = meets-every-large with the extrathick hypothesis dropped",),
    ),
    "T3_6_semigroup": THEOREMS["T3_6"]._replace(
        groups=False,
        finding="prethick/not-small equivalence fails off groups",
        notes=(
            "prethick iff not small on non-group semigroups with a left "
            "invariant filter",
        ),
    ),
}

HUNT_VARIANTS = {name: spec.notes[0] for name, spec in HUNTS.items()}
_SPECS = {"verify": THEOREMS, "hunt": HUNTS}


# ---------------------------------------------------------------------------
# driver


def _check(
    spec: Spec, S: FinSemigroup, tau: PrincipalFilter, tables: Callable, cfg
) -> Optional[Tuple[int, Optional[dict]]]:
    """(assertions, detail) for an admitted instance, else None; `tables()`
    returns the instance's SizeTables."""
    if spec.groups is not None and S.is_group != spec.groups:
        return None
    if spec.tables and len(tau.reach_points) > TABLE_ORDER_LIMIT:
        return None
    kind = spec.hypothesis
    if kind is not None and check_hypothesis(tau, kind) == spec.negate:
        return None
    if spec.admit is not None and not spec.admit(S, tau, cfg):
        return None
    assertions, detail = spec.claim(S, tau, tables() if spec.tables else None, cfg)
    if detail is not None and spec.finding is not None:
        detail["finding"] = spec.finding
    return assertions, detail


def _run(
    kind: str, ids: Sequence[str], pairs: Sequence[Tuple[FinSemigroup, int]], cfg
) -> List[Tuple[Counter, Optional[dict]]]:
    """Per id, from one pass: counts up to and including its first
    counterexample, and that counterexample or None.
    An instance's `SizeTables` are built for the first spec that reads them."""
    specs = [_SPECS[kind][tid] for tid in ids]
    counts = [Counter() for _ in ids]
    found: List[Optional[dict]] = [None] * len(ids)
    for S, base in pairs:
        tau = PrincipalFilter(S, base)
        tables = cache(partial(SizeTables, S, tau))
        for i, spec in enumerate(specs):
            if found[i] is not None:
                continue  # this id stopped at its counterexample
            result = _check(spec, S, tau, tables, cfg)
            if result is None:
                counts[i]["skipped"] += 1
                continue
            assertions, detail = result
            forced = (
                kind == "verify"
                and spec.hypothesis is not None
                and tau.is_trivial
                and hypothesis_forces_full_base(S, spec.hypothesis)
            )
            counts[i]["checked"] += 1
            counts[i]["assertions"] += assertions
            counts[i]["forced"] += forced
            if assertions == 0 or (forced and not spec.annotate_forced):
                counts[i]["degenerate"] += 1
            else:
                counts[i]["effective"] += 1
            if detail is not None:
                found[i] = {
                    "semigroup": S.name,
                    "order": S.order,
                    "table": [list(row) for row in S.table],
                    "base": elements(base),
                    "detail": detail,
                    "theorem": ids[i],
                }
    return list(zip(counts, found))


def _drive(
    kind: str,
    ids: Sequence[str],
    catalog: Sequence[CatalogEntry],
    catalog_label: str,
    cfg: Optional[VerifyConfig],
) -> List[TheoremReport]:
    """One report per id from one pass over the catalog.  With workers, one
    pool runs every id on each catalog semigroup as a task of its own, and
    tasks are merged per id in catalog order up to that id's first
    counterexample."""
    cfg = cfg or VerifyConfig()
    specs = _SPECS[kind]
    unknown = [tid for tid in ids if tid not in specs]
    if unknown:
        known = ", ".join(sorted(specs))
        raise InputError(f"unknown {kind} id {unknown[0]!r}; known: {known}")
    tasks = [(kind, ids, [(e.semigroup, b) for b in e.bases], cfg) for e in catalog]
    if cfg.workers > 1 and len(tasks) > 1:
        import multiprocessing

        # specs hold closures, which do not pickle: workers look theirs up by
        # id; the cost of a semigroup varies widely, so each task is handed
        # out on its own as a worker frees up
        with multiprocessing.Pool(min(cfg.workers, len(tasks))) as pool:
            parts = pool.starmap(_run, tasks, chunksize=1)
    else:
        parts = [_run(kind, ids, [p for task in tasks for p in task[2]], cfg)]
    reports = []
    for i, tid in enumerate(ids):
        counts: Counter = Counter()
        counterexample = None
        for part in parts:
            part_counts, counterexample = part[i]
            counts.update(part_counts)
            if counterexample is not None:
                break  # later tasks lie after this counterexample
        notes = specs[tid].notes
        if kind == "hunt":
            notes += ("found" if counterexample else "exhausted the catalog",)
        reports.append(
            TheoremReport(
                theorem_id=tid,
                catalog_label=catalog_label,
                instances_checked=counts["checked"],
                degenerate_count=counts["degenerate"],
                effective_count=counts["effective"],
                skipped_count=counts["skipped"],
                forced_absolute_count=counts["forced"],
                assertions=counts["assertions"],
                counterexample=counterexample,
                vacuity_warning=counts["effective"] == 0,
                notes=notes,
                search=kind == "hunt",
                found=counterexample is not None,
            )
        )
    return reports


def verify(
    theorem_id: str,
    catalog: Sequence[CatalogEntry],
    catalog_label: str = "custom",
    cfg: Optional[VerifyConfig] = None,
) -> TheoremReport:
    return _drive("verify", [theorem_id], catalog, catalog_label, cfg)[0]


def hunt_counterexample(
    variant: str,
    catalog: Sequence[CatalogEntry],
    catalog_label: str = "custom",
    cfg: Optional[VerifyConfig] = None,
) -> TheoremReport:
    return _drive("hunt", [variant], catalog, catalog_label, cfg)[0]


def replay(counterexample: dict, cfg: Optional[VerifyConfig] = None) -> bool:
    """Re-run the named spec on the stored instance; True if it fails again."""
    theorem_id = counterexample["theorem"]
    spec = THEOREMS.get(theorem_id) or HUNTS[theorem_id]
    S = FinSemigroup(counterexample["table"], name=counterexample["semigroup"])
    tau = PrincipalFilter(S, mask_of(counterexample["base"]))
    result = _check(spec, S, tau, lambda: SizeTables(S, tau), cfg or VerifyConfig())
    return result is not None and result[1] is not None


__all__ = [
    "THEOREM_IDS",
    "HUNT_VARIANTS",
    "VerifyConfig",
    "TheoremReport",
    "verify",
    "hunt_counterexample",
    "replay",
]
