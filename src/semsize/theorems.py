"""Executable checkers for the covering/size theorems, run over catalogs.

Proved statements act as oracles for the implementation: a counterexample
means the code (or a hypothesis reduction) is wrong, halts the sweep and is
reported with enough material to replay it in isolation.  Hypothesis-dropped
variants live in `hunt_counterexample`, where a hit is a finding, not a
failure.

Every theorem and hunt is one `Spec` in `THEOREMS` or `HUNTS`, and one driver
serves `verify`, `hunt_counterexample` (one spec each) and `replay`.  One pass
(`_run`) over the catalog decides every requested spec once per instance
class (see below).  A spec stops at its first counterexample, and a pass
stops once every spec it runs has.  What the base alone determines (the
shiftable g, the right translates, the union of the minimal left ideals, the
reach and the subsets through its points) is read off a decided instance's
one `PrincipalFilter`, which computes each at most once; it and the
instance's `SizeTables`, built at most once, are dropped before the next.
The fields of a spec:

* ``claim(S, tau, tb, cfg)``: the claim over every subset, read off the
  instance's `SizeTables` ``tb``; returns the number of assertions made and
  the detail (plain JSON values) of the first failure, or None;
* ``hypothesis``: the `check_hypothesis` kind a filter must satisfy, or None;
* ``admit(S, tau, cfg)``: any other admission test (groups, sizes, cells);
* ``tables``: False when the claim reads no `SizeTables` (it then gets None,
  and none are built); a spec that reads them skips instances whose reach
  exceeds `classify.TABLE_ORDER_LIMIT` points, past which `SizeTables` refuses;
* ``finding``: a hunt's counterexample text; ``notes``: fixed report notes.

A claim reads tables over the subsets of the base's reach R = U0 | U0^2 |
U0^3 (`PrincipalFilter.reach`), indexed by positions within R: each is one
int with a bit per subset, and a claim is a few big-int operations on them.
A table read at the image of every subset under a map (g*A and g^-1 A at
each shiftable g for T2_4 and C2_5, g^-1 A at each base point for T2_6,
the traces at each base point for the trace statements, and the
difference set for T3_7) is `masks.compose`d with the bit slices of the
map, which `PrincipalFilter.reach_slices` and `classify.delta_slices` read
straight off the Cayley table.  No claim lists the subsets of R or moves a
subset through a set-arithmetic call.  An equivalence over every subset is
one `_agree` of two tables, an implication one `_implies`.  A statement
that follows from one already checked, like T3_5 (iii) from (i), is
proved, not counted, and T2_4 and C2_5, one claim under two texts, share
one scan of an instance.

The reports stay those of a sweep over all 2^order subsets A of S.  Every
table entry is A's verdict for each A with the same points in R, since each
claim reads A only there, up to monotonicity in T2_4/C2_5 (see
`_shift_scan`).  So the least failing A lies inside R and is `from_reach`
of the lowest failing bit, and a count of subsets is a weighted popcount:
2^(order - |R|) per entry in all (`_all`), and window popcounts in
`_below` for those up to a failure.

Instances are decided once per isomorphism class of (table, base).  No
statement names a label: a relabeling s of S, with s(U0) for U0, maps each
set a claim reads and each subset it counts to its image.  So the admission,
the assertions and whether a claim fails are the same on isomorphic
instances.  `_plan` marks the first instance of each class, the only one
decided; the pass reads its results on the rest, but never a failure, which
stops its spec there.  Only labeled tables, of order <= `LABELED_ORDER_LIMIT`,
are keyed: a family's table repeats no other catalog entry's up to
relabeling, and the key tries order! relabelings.  With workers, a pool only
decides those first instances, a task per catalog semigroup; the pass
discards what it decides past the last counterexample, and leaving the pool
stops the tasks still running.

Degeneracy accounting: an admissible instance is degenerate when it asserted
nothing (empty inner domain) or when its hypothesis admits no base other
than the full set, so the run only exercised the absolute theory
(`hypothesis_forces_full_base`).  Only `verify` counts these forced bases,
so a hunt reports none, whatever its hypothesis.
"""

from __future__ import annotations

from collections import ChainMap
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import CatalogEntry
from .classify import TABLE_ORDER_LIMIT, SizeTables, delta_slices
from .errors import InputError
from .filters import PrincipalFilter, check_hypothesis, hypothesis_forces_full_base
from .masks import (
    all_subsets,
    bits,
    compose,
    coordinates,
    elements,
    mask_of,
    meets,
    minimal_layers,
    popcount,
    window_count,
)
from .partitions import cover_exceeds, finite_cover_bound, stirling2
from .semigroups import LABELED_ORDER_LIMIT, FinSemigroup, build_from_table
from .semigroups import canonical_form, is_subgroup


class VerifyConfig:
    # T3_6 admission; small is polynomial, so this bounds no cost, but
    # T3_6's report and the benchmark's traced layer run are defined by it
    small_order_limit = 8

    def __init__(self, cells: int = 2, workers: int = 1):
        if cells < 1:
            raise InputError("need at least one cell")
        if workers < 0:
            raise InputError(f"worker count {workers} is negative")
        self.cells = cells            # partition width for T3_2
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
        """The report's fields, with theorem_id and catalog_label as theorem
        and catalog, and search and found only on a hunt's report."""
        out = self._asdict()
        out["theorem"], out["catalog"] = out.pop("theorem_id"), out.pop("catalog_label")
        out["notes"] = list(self.notes)
        if not self.search:
            del out["search"], out["found"]
        return out


class Spec(NamedTuple):
    """One theorem or hunt; the fields are described in the module docstring."""

    claim: Callable[..., Tuple[int, Optional[dict]]]
    hypothesis: Optional[str] = None
    admit: Optional[Callable[..., bool]] = None
    tables: bool = True
    finding: Optional[str] = None
    notes: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# claim bodies


def _lowest(table: int) -> int:
    """The least entry of a nonempty table."""
    return (table & -table).bit_length() - 1


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
            count += window_count(flags, hi, 1 << i) << e - i
    return count


def _all(tau, flags):
    """The number of subsets A of S with flags[to_reach(A)] set."""
    return flags.bit_count() << tau.semigroup.order - len(tau.reach_points)


def _agree(tau, lhs, rhs, lname, rname):
    """(assertions, detail) for the claim lhs[A] == rhs[A] on every subset A
    of S: (first mismatch + 1, the subset and both sides there), or
    (2^order, None).  The first mismatch is from_reach of the first
    mismatching entry, since both sides read A only through its reach."""
    if lhs != rhs:
        P = _lowest(lhs ^ rhs)
        A = tau.from_reach(P)
        detail = {"subset": elements(A), lname: bool(lhs >> P & 1)}
        return A + 1, {**detail, rname: bool(rhs >> P & 1)}
    return 1 << tau.semigroup.order, None


def _implies(tau, premise, conclusion, claim):
    """(assertions, detail) for the claim premise[A] => conclusion[A] on
    every subset A of S: one assertion per A with premise[A] up to the first
    failure, whose detail names the subset and the claim."""
    failed = premise & ~conclusion
    if not failed:
        return _all(tau, premise), None
    P = _lowest(failed)
    detail = {"subset": elements(tau.from_reach(P)), "claim": claim}
    return _below(tau, premise, P) + 1, detail


def _trace_large(S, tau, tb, cfg):
    """T2_1: L is large iff every trace of L at a base point meets U0."""
    meets_U0 = (tuple(1 << u for u in bits(tau.to_reach(tau.base))),)
    rhs = all_subsets(tau.positions)
    for g in bits(tau.base):
        rhs &= compose(meets_U0, tau.reach_slices("trace", g), tau.positions)
    return _agree(tau, tb.large, rhs, "large", "trace_condition")


def _trace_thick(S, tau, tb, cfg):
    """T2_2: T is thick iff some trace of T at a base point contains U0."""
    holds_U0 = ((tau.to_reach(tau.base),),)
    rhs = 0
    for g in bits(tau.base):
        rhs |= compose(holds_U0, tau.reach_slices("trace", g), tau.positions)
    return _agree(tau, tb.thick, rhs, "thick", "trace_condition")


def _thick_meets_large(S, tau, tb, cfg):
    """T2_3: T is thick iff T & U0 meets every large set."""
    U0, R = tau.to_reach(tau.base), tau.positions
    # T meets L & U0 for every large L  <=>  the complement of T & U0 is not
    # large (up-closure of the large family); the literal sweep equivalence
    # is property-tested at small orders.  A position q of R off U0 is in
    # R - (T & U0) for every T, and one in U0 for the T without q.
    full = all_subsets(R)
    misses = [full ^ t if U0 >> q & 1 else full for q, t in enumerate(coordinates(R))]
    rhs = full ^ compose(minimal_layers(tb.large, R), misses, R)
    return _agree(tau, tb.thick, rhs, "thick", "meets_every_large")


def _shift_scan(tau, tb):
    """(assertions, failure) for T2_4 / C2_5: at every shiftable g (g*U0 <=
    U0), g*L stays large and g^-1 T thick; failure is None, or g, the
    failing subset and whether it is thick that failed.

    Per g, the large table read at g*A is `compose`d with the slices of
    the products {g*b} over R, and the thick table read at g^-1 A with
    those of the preimages {x : g*x == b}.  thick reads g^-1 A at g*U0^2 <=
    U0^2, inside R, but g*A can meet U0^2 at images of points off R.  A
    failure there is one at A & R all the same: A & R is large when A is,
    and g*(A & R) <= g*A is not large when g*A is not.
    """
    large, thick, R = tb.large, tb.thick, tau.positions
    large_layers, thick_layers = minimal_layers(large, R), minimal_layers(thick, R)
    count = 0
    for g in bits(tau.shiftable):
        translates = tau.reach_slices("translate", g)
        large_failed = large & ~compose(large_layers, translates, R)
        quotients = tau.reach_slices("quotient", g)
        thick_failed = thick & ~compose(thick_layers, quotients, R)
        if large_failed | thick_failed:
            P = _lowest(large_failed | thick_failed)
            thick_only = not large_failed >> P & 1
            passed = thick_only and large >> P & 1
            count += _below(tau, large, P) + _below(tau, thick, P) + passed + 1
            return count, (g, tau.from_reach(P), thick_only)
        count += _all(tau, large) + _all(tau, thick)
    return count, None


@lru_cache(maxsize=1)
def _last_shift_scan(tau, tb):
    """The `_shift_scan` of the last instance asked for; `_run` clears it."""
    return _shift_scan(tau, tb)


def _shift_invariance(large_claim, thick_claim, S, tau, tb, cfg):
    """T2_4 / C2_5, the `_shift_scan` under the claim texts.

    Under left inverse invariance (C2_5) every g is shiftable, so the two
    statements differ only in their hypothesis and claim texts.  They run
    one after the other on an instance, so the second reads the first one's
    scan (`_last_shift_scan`).
    """
    count, failure = _last_shift_scan(tau, tb)
    if failure is None:
        return count, None
    g, A, thick_failed = failure
    claim = thick_claim if thick_failed else large_claim
    return count, {"g": g, "subset": elements(A), "claim": claim}


def _quotient_stable(family, S, tau, tb, cfg, **labels):
    """T2_6: g^-1 T stays in the family (tb.thick, or tb.large) for g in U0.

    Per g, the family read at g^-1 T is `compose`d with the slices of the
    preimages {x : g*x == b} over R; failed holds the members that leave."""
    members, R = getattr(tb, family), tau.positions
    layers = minimal_layers(members, R)
    failed = [
        (g, members & ~compose(layers, tau.reach_slices("quotient", g), R))
        for g in bits(tau.base)
    ]
    anywhere = 0
    for _, f in failed:
        anywhere |= f
    if not anywhere:
        return _all(tau, members) * len(failed), None
    P = _lowest(anywhere)
    j, g = next((j, g) for j, (g, f) in enumerate(failed) if f >> P & 1)
    count = _below(tau, members, P) * len(failed) + j + 1
    return count, {"subset": elements(tau.from_reach(P)), "g": g, **labels}


def _minimal_ideal_traces(S, tau, tb, cfg):
    """T3_1: g lies in a minimal left ideal iff every trace at g is large."""
    M, R = tau.minimal_ideal_union, tau.positions
    layers = minimal_layers(tb.large, R)
    count = 0
    for g in bits(tau.base):
        traces = tau.reach_slices("trace", g)
        failed = tau.through[g] & ~compose(layers, traces, R)
        count += 1
        in_minimal = bool((M >> g) & 1)
        if in_minimal != (not failed):
            bad = tau.from_reach(_lowest(failed)) if failed else None
            return count, {
                "g": g,
                "in_minimal_ideal": in_minimal,
                "traces_all_large": not failed,
                "failing_set": None if bad is None else elements(bad),
            }
    return count, None


def _meets_minimal_is_prethick(S, tau, tb, cfg):
    """C3_1: a set meeting a minimal left ideal is prethick."""
    meets_M = meets(tau.to_reach(tau.minimal_ideal_union), tau.positions)
    claim = "set meeting a minimal ideal is prethick"
    return _implies(tau, meets_M, tb.prethick, claim)


def _cover_tables_fit(S, tau, cfg) -> bool:
    """A subgroup base with at least cells points, and no more than the
    cover decision's tables over its subsets allow."""
    return (
        is_subgroup(S, tau.base)
        and cfg.cells <= popcount(tau.base) <= TABLE_ORDER_LIMIT
    )


def _cover_bound(S, tau, tb, cfg):
    """T3_2: every cells-partition of a subgroup base of order m has a cell
    covered by at most m // ceil(m/cells) translates of its difference set.

    `partitions.cover_exceeds` decides it for quotients from bit tables over
    the base's subsets, with no partition listed, and the claim counts one
    assertion per partition, stirling2(m, cells): the count a sweep checks.
    Inside a subgroup H, f^-1 delta(A) = f^-1 * delta(A), so F -> F^-1 maps
    each quotient cover to a translate cover of the same size: the least
    covers, and so the decision, agree."""
    m, n = popcount(tau.base), cfg.cells
    bound = finite_cover_bound(m, n)
    if cover_exceeds(S, tau, n, bound):
        violation = (
            f"{S.name}: some {n}-cell partition has no cell within the proved "
            f"bound {bound}; implementation bug"
        )
        return 0, {"cells": n, "violation": violation}
    return stirling2(m, n), None


def _prethick_regularity(S, tau, tb, cfg):
    """T3_5: (i) A is prethick iff it meets a minimal left ideal; (iii) every
    finite partition of a prethick set has a prethick cell.

    Both hold for every base with U0*U0 <= U0, where each minimal left ideal
    L of U0 is U0*y for every y in L.  A is prethick iff some x in U0 has,
    for every u in U0, an f with f*u*x in A.  If A meets L at y, take x = y:
    u*y is in L = U0*(u*y), so f*u*y = y for some f.  Conversely, the left
    ideal U0*x holds a minimal L = U0*(u*x), and f*u*x is in L & A.

    (iii) follows from (i): a prethick A meets the union M of the minimal
    left ideals, the cell holding a point of A & M meets M, and (i), checked
    on every subset first, makes that cell prethick.  So (iii) is neither
    swept nor counted: the assertions are those of (i), one per subset.
    """
    meets_M = meets(tau.to_reach(tau.minimal_ideal_union), tau.positions)
    count, detail = _agree(tau, tb.prethick, meets_M, "prethick", "meets_minimal")
    return count, None if detail is None else {"part": "i", **detail}


def _prethick_not_small(S, tau, tb, cfg):
    """T3_6: A is prethick iff A is not small.  Under U0*U0 <= U0 the minimal
    right translates U0*x, which a small set misses, are the minimal left
    ideals of U0, which a prethick set meets (`_prethick_regularity`)."""
    not_small = all_subsets(tau.positions) ^ tb.small
    return _agree(tau, tb.prethick, not_small, "prethick", "not_small")


def _prethick_delta_large(S, tau, tb, cfg):
    """T3_7: the difference set of a prethick set is large; its slices over
    R are `classify.delta_slices` at the points of R.

    Under U0*U0 <= U0 a prethick A meets a minimal left ideal L of U0 at
    some y (`_prethick_regularity`), and delta(A) holds {x : x*y in A}.
    Each u in U0 has u*y in L = U0*(u*y), so some v has v*u*y = y: v*u is
    in delta(A) & U0*u, and delta(A), meeting every U0*u, is large."""
    R, delta = tau.positions, delta_slices(S, tau, tau.reach)
    delta_large = compose(
        minimal_layers(tb.large, R), [delta[x] for x in tau.reach_points], R
    )
    claim = "difference set of prethick is large"
    return _implies(tau, tb.prethick, delta_large, claim)


# ---------------------------------------------------------------------------
# the spec table

# left inverse invariance (LII), the paper's hypothesis of T3_5 and T3_7
_LII_NOTE = "the paper assumes left inverse invariance; checked under U0*U0 <= U0"


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
    "T3_2": Spec(_cover_bound, admit=_cover_tables_fit, tables=False),
    "T3_5": Spec(
        _prethick_regularity,
        hypothesis="semigroup_filter",
        notes=(
            "closure membership statement degenerates onto the minimal-ideal "
            "membership statement at finite scale",
            _LII_NOTE,
        ),
    ),
    "T3_6": Spec(
        _prethick_not_small,
        hypothesis="semigroup_filter",
        admit=lambda S, tau, cfg: S.order <= cfg.small_order_limit,
        notes=(
            "the paper assumes a left invariant filter on a group; checked "
            "under U0*U0 <= U0",
        ),
    ),
    "T3_7": Spec(
        _prethick_delta_large, hypothesis="semigroup_filter", notes=(_LII_NOTE,)
    ),
}
THEOREM_IDS = tuple(THEOREMS)  # what "verify --theorem all" runs, in order
THEOREMS["C3_2"] = THEOREMS["T3_2"]  # corollary alias for the same decision

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
        hypothesis=None,
        admit=lambda S, tau, cfg: not check_hypothesis(tau, "extrathick_members"),
        finding="equivalence breaks without the extrathick hypothesis",
        notes=("thick = meets-every-large with the extrathick hypothesis dropped",),
    ),
    "T3_6_semigroup": THEOREMS["T3_6"]._replace(
        hypothesis="left_invariant",
        admit=lambda S, tau, cfg: not S.is_group and S.order <= cfg.small_order_limit,
        finding="prethick/not-small equivalence fails off groups",
        notes=(
            "prethick iff not small on non-group semigroups with a left "
            "invariant filter",
        ),
    ),
}

HUNT_VARIANTS = {name: spec.notes[0] for name, spec in HUNTS.items()}
_SPECS = {"verify": THEOREMS, "hunt": HUNTS, "replay": ChainMap(THEOREMS, HUNTS)}


# ---------------------------------------------------------------------------
# driver


def _check(
    spec: Spec, S: FinSemigroup, tau: PrincipalFilter, tables: Callable, cfg
) -> Optional[Tuple[int, Optional[dict]]]:
    """(assertions, detail) for an admitted instance, else None; `tables()`
    returns the instance's SizeTables.  The limit, read off the reach, is last."""
    kind = spec.hypothesis
    if kind is not None and not check_hypothesis(tau, kind):
        return None
    if spec.admit is not None and not spec.admit(S, tau, cfg):
        return None
    if spec.tables and len(tau.reach_points) > TABLE_ORDER_LIMIT:
        return None
    assertions, detail = spec.claim(S, tau, tables() if spec.tables else None, cfg)
    if detail is not None and spec.finding is not None:
        detail["finding"] = spec.finding
    return assertions, detail


def _class_key(S: FinSemigroup, base: int, forms: dict) -> tuple:
    """(S, base) up to relabeling: the least relabeled table of S, and the
    least image of the base under the relabelings that reach it, the same on
    an orbit of Aut(S).  `forms` keeps each semigroup's `canonical_form`."""
    if S not in forms:
        forms[S] = canonical_form(S)
    table, relabelings = forms[S]
    return table, min(sum(1 << s[u] for u in bits(base)) for s in relabelings)


def _plan(pairs: Iterable[Tuple[FinSemigroup, int]]) -> Iterable[tuple]:
    """Each (S, base, key, first): its `_class_key` (None past LABELED_ORDER_LIMIT)
    and whether it is the first instance of its class, which a pass decides."""
    forms, seen = {}, set()
    for S, base in pairs:
        key = _class_key(S, base, forms) if S.order <= LABELED_ORDER_LIMIT else None
        yield S, base, key, key is None or key not in seen
        seen.add(key)


def _decide(kind: str, ids, cfg, S: FinSemigroup, base: int, running) -> dict:
    """{i: `_check` of ids[i] on the instance (S, base)} for each i in running."""
    tau, built = PrincipalFilter(S, base), []

    def tables():  # a closure: `functools.cache` takes 20 times as long to set up
        if not built:
            built.append(SizeTables(S, tau))
        return built[0]

    return {i: _check(_SPECS[kind][ids[i]], S, tau, tables, cfg) for i in running}


def _decide_every(kind: str, ids, cfg, pairs) -> List[dict]:
    """`_decide` of every id on each pair: a pool task."""
    return [_decide(kind, ids, cfg, S, base, range(len(ids))) for S, base in pairs]


def _run(
    kind: str, ids: Sequence[str], plan: Iterable[tuple], decide: Callable
) -> List[Tuple[List[int], Optional[dict]]]:
    """Per id, from one pass over the plan: its counts up to and including
    its first counterexample, in `TheoremReport` field order (checked,
    degenerate, effective, skipped, forced, assertions), and that
    counterexample or None.  Each instance runs only the ids still without
    one, and the pass ends once none is left.  Their results, skips (None)
    or (assertions, detail), are `decide(S, base, running)` on the first
    instance of a class and read off it on the rest."""
    specs = [_SPECS[kind][tid] for tid in ids]
    counts = [[0] * 6 for _ in ids]
    found: List[Optional[dict]] = [None] * len(ids)
    running = list(range(len(ids)))
    memo: Dict[Optional[tuple], dict] = {}  # None, the unkeyed, is never read
    for S, base, key, first in plan:
        if first:
            memo[key] = decide(S, base, running)
        results = memo[key]
        for i in running:
            spec, c, result = specs[i], counts[i], results[i]
            if result is None:
                c[3] += 1
                continue
            assertions, detail = result
            forced = (
                kind == "verify"
                and spec.hypothesis is not None
                and base == S.full_mask
                and hypothesis_forces_full_base(S, spec.hypothesis)
            )
            c[0] += 1
            c[1 if assertions == 0 or forced else 2] += 1
            c[4] += forced
            c[5] += assertions
            if detail is not None:
                found[i] = {
                    "semigroup": S.name,
                    "order": S.order,
                    "table": [list(row) for row in S.table],
                    "base": elements(base),
                    "detail": detail,
                    "theorem": ids[i],
                }
        running = [i for i in running if found[i] is None]
        if not running:
            break
    _last_shift_scan.cache_clear()  # no instance's tables outlive the pass
    return list(zip(counts, found))


def _drive(
    kind: str,
    ids: Sequence[str],
    catalog: Sequence[CatalogEntry],
    catalog_label: str,
    cfg: Optional[VerifyConfig],
) -> List[TheoremReport]:
    """One report per id from one `_run` over the catalog, which decides
    each first instance as it reaches it or, with workers, reads the pool's."""
    cfg = cfg or VerifyConfig()
    specs = _SPECS[kind]
    unknown = [tid for tid in ids if tid not in specs]
    if unknown:
        known = ", ".join(sorted(specs))
        raise InputError(f"unknown {kind} id {unknown[0]!r}; known: {known}")
    plan, tasks = _plan((e.semigroup, b) for e in catalog for b in e.bases), []
    if cfg.workers > 1 and len(catalog) > 1:
        plan = list(plan)
        firsts = [(S, base) for S, base, _, first in plan if first]
        tasks = [list(task) for _, task in groupby(firsts, lambda pair: pair[0])]
    if tasks:  # a plan without instances starts no pool
        import multiprocessing

        # specs hold closures, which do not pickle: workers look them up by id
        with multiprocessing.Pool(min(cfg.workers, len(tasks))) as pool:
            parts = pool.imap(partial(_decide_every, kind, ids, cfg), tasks)
            decided = (results for part in parts for results in part)
            merged = _run(kind, ids, plan, lambda *instance: next(decided))
    else:
        merged = _run(kind, ids, plan, partial(_decide, kind, ids, cfg))
    reports = []
    for tid, (counts, counterexample) in zip(ids, merged):
        notes = specs[tid].notes
        if kind == "hunt":
            notes += ("found" if counterexample else "exhausted the catalog",)
        reports.append(
            TheoremReport(
                tid,
                catalog_label,
                *counts,
                counterexample=counterexample,
                vacuity_warning=counts[2] == 0,
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
    """Re-run the named spec on the stored instance, validated as a table
    file is, by default at the cells a T3_2 failure stores; True if it fails
    again."""
    ce = counterexample
    cells = ce["detail"].get("cells")
    cfg = cfg or (VerifyConfig() if cells is None else VerifyConfig(cells))
    S = build_from_table(ce["order"], ce["table"], ce["semigroup"])
    entry = CatalogEntry(S, (mask_of(ce["base"]),))
    (report,) = _drive("replay", [ce["theorem"]], [entry], "replay", cfg)
    return report.counterexample is not None


__all__ = [
    "THEOREM_IDS",
    "HUNT_VARIANTS",
    "VerifyConfig",
    "TheoremReport",
    "verify",
    "hunt_counterexample",
    "replay",
]
