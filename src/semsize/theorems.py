"""Executable checkers for the covering/size theorems, run over catalogs.

Proved statements act as oracles for the implementation: a counterexample
means the code (or a hypothesis reduction) is wrong, halts the sweep and is
reported with enough material to replay it in isolation.  Hypothesis-dropped
variants live in `hunt_counterexample`, where a hit is a finding, not a
failure.

Every theorem and hunt is one `Spec` in `THEOREMS` or `HUNTS`, and one driver
serves `verify`, `hunt_counterexample` and `replay`.  The fields of a spec:

* ``claim(S, tau, tb, cfg)``: the per-subset loop over the instance's
  `SizeTables` ``tb``; returns the number of assertions made and the detail
  (plain JSON values) of the first failure, or None;
* ``hypothesis``: the `check_hypothesis` kind a filter must satisfy, or None;
  with ``negate`` only filters that fail it are admitted (a dropped hypothesis);
* ``groups``: True admits only groups, False only non-groups, None both;
* ``admit(S, tau, cfg)``: any further admission test (size limits, cells);
* ``annotate_forced``: see the degeneracy rule below; ``tables``: False when
  the claim reads no `SizeTables` (it then gets None, and none are built);
* ``finding``: a hunt's counterexample text; ``notes``: fixed report notes.

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

import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from .catalog import CatalogEntry
from .classify import SizeTables, delta_tau
from .errors import BoundViolation, InputError
from .filters import (
    PrincipalFilter,
    check_hypothesis,
    hypothesis_forces_full_base,
)
from .masks import bits, elements, is_subset, mask_of, popcount
from .partitions import SWEEP_ORDER_LIMIT, enumerate_partitions, sweep_partitions
from .semigroups import (
    FinSemigroup,
    is_subgroup,
    left_quotient,
    minimal_left_ideals,
    trace_set,
    translate_set,
)


@dataclass
class VerifyConfig:
    regularity_order_limit: int = 6   # partition-regularity subset sweeps
    # T3_6 admission; small is polynomial, so this bounds no cost, but
    # T3_6's report and the benchmark's traced layer run are defined by it
    small_order_limit: int = 8
    cells: int = 2                    # partition sweep width for T3_2
    workers: int = 0                  # 0 = take SEMSIZE_WORKERS, default 1

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        text = os.environ.get("SEMSIZE_WORKERS", "1")
        try:
            return max(1, int(text))
        except ValueError:
            raise InputError(f"SEMSIZE_WORKERS is not an integer: {text!r}") from None


@dataclass
class TheoremReport:
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
    elapsed: float
    search: bool = False
    found: bool = False

    def to_json_dict(self) -> dict:
        # elapsed is intentionally absent: reports must be byte-identical
        # across reruns of the same config
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


@dataclass(frozen=True)
class Spec:
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


@lru_cache(maxsize=None)
def _tables(S: FinSemigroup, base: int) -> SizeTables:
    return SizeTables(S, PrincipalFilter(S, base))


# ---------------------------------------------------------------------------
# claim bodies


def _trace_large(S, tau, tb, cfg):
    """T2_1: L is large iff every trace of L at a base point meets U0."""
    U0 = tau.base
    gs = elements(U0)
    for L in range(S.full_mask + 1):
        lhs = tb.large[L]
        rhs = all(trace_set(S, L, g) & U0 for g in gs)
        if lhs != rhs:
            return L + 1, {"subset": elements(L), "large": lhs, "trace_condition": rhs}
    return S.full_mask + 1, None


def _trace_thick(S, tau, tb, cfg):
    """T2_2: T is thick iff some trace of T at a base point contains U0."""
    U0 = tau.base
    gs = elements(U0)
    for T in range(S.full_mask + 1):
        lhs = tb.thick[T]
        rhs = any(is_subset(U0, trace_set(S, T, g)) for g in gs)
        if lhs != rhs:
            return T + 1, {"subset": elements(T), "thick": lhs, "trace_condition": rhs}
    return S.full_mask + 1, None


def _thick_meets_large(S, tau, tb, cfg):
    """T2_3: T is thick iff T & U0 meets every large set."""
    U0 = tau.base
    full = S.full_mask
    for T in range(full + 1):
        lhs = tb.thick[T]
        # T meets L & U0 for every large L  <=>  the complement of T & U0 is
        # not large (up-closure of the large family); the literal sweep
        # equivalence is property-tested at small orders
        rhs = not tb.large[full & ~(T & U0)]
        if lhs != rhs:
            return T + 1, {
                "subset": elements(T), "thick": lhs, "meets_every_large": rhs,
            }
    return full + 1, None


def _shift_invariance(large_claim, thick_claim, S, tau, tb, cfg):
    """T2_4 / C2_5: at every shiftable g, g*L stays large and g^-1 T thick.

    Under left inverse invariance (C2_5) every g is shiftable, so the two
    statements differ only in their hypothesis and claim texts.
    """
    large, thick = tb.large, tb.thick
    count = 0
    for g in range(S.order):
        if not check_hypothesis(tau, "shiftable_at", g=g):
            continue
        for A in range(S.full_mask + 1):
            if large[A]:
                count += 1
                if not large[translate_set(S, g, A)]:
                    return count, {"g": g, "subset": elements(A), "claim": large_claim}
            if thick[A]:
                count += 1
                if not thick[left_quotient(S, g, A)]:
                    return count, {"g": g, "subset": elements(A), "claim": thick_claim}
    return count, None


def _quotient_stable(family, S, tau, tb, cfg, **labels):
    """T2_6: g^-1 T stays in the family (tb.thick, or tb.large) for g in U0."""
    members = getattr(tb, family)
    gs = elements(tau.base)
    count = 0
    for T in range(S.full_mask + 1):
        if not members[T]:
            continue
        for g in gs:
            count += 1
            if not members[left_quotient(S, g, T)]:
                return count, {"subset": elements(T), "g": g, **labels}
    return count, None


def _minimal_ideal_union(S: FinSemigroup, within: int) -> int:
    M = 0
    for L in minimal_left_ideals(S, within):
        M |= L
    return M


def _minimal_ideal_traces(S, tau, tb, cfg):
    """T3_1: g lies in a minimal left ideal iff every trace at g is large."""
    U0 = tau.base
    M = _minimal_ideal_union(S, U0)
    count = 0
    for g in bits(U0):
        through_g = (A for A in range(S.full_mask + 1) if (A >> g) & 1)
        bad = next((A for A in through_g if not tb.large[trace_set(S, A, g)]), None)
        count += 1
        in_minimal = bool((M >> g) & 1)
        if in_minimal != (bad is None):
            return count, {
                "g": g,
                "in_minimal_ideal": in_minimal,
                "traces_all_large": bad is None,
                "failing_set": None if bad is None else elements(bad),
            }
    return count, None


def _meets_minimal_is_prethick(S, tau, tb, cfg):
    """C3_1: a set meeting a minimal left ideal is prethick."""
    M = _minimal_ideal_union(S, tau.base)
    count = 0
    for A in range(S.full_mask + 1):
        if not A & M:
            continue
        count += 1
        if not tb.prethick[A]:
            return count, {
                "subset": elements(A),
                "claim": "set meeting a minimal ideal is prethick",
            }
    return count, None


def _cover_sweep_fits(S, tau, cfg) -> bool:
    return (
        is_subgroup(S, tau.base)
        and S.order <= SWEEP_ORDER_LIMIT.get(cfg.cells, 8)
        and popcount(tau.base) >= cfg.cells
    )


def _cover_bound(S, tau, tb, cfg):
    """T3_2: every cells-partition of a subgroup base has a cover within the
    proved bound."""
    n = cfg.cells
    try:
        record = sweep_partitions(S, tau, n, "translate", V=tau.base)
    except BoundViolation as exc:
        return 0, {"cells": n, "violation": str(exc)}
    if record.worst_min_F > record.proved_bound:
        return record.partitions_checked, {
            "cells": n,
            "worst_min_F": record.worst_min_F,
            "proved_bound": record.proved_bound,
            "partition_labels": record.argmax_partition.label_string(),
        }
    return record.partitions_checked, None


def _prethick_regularity(S, tau, tb, cfg):
    """T3_5: (i) prethick iff meets a minimal ideal; (iii) every partition of
    a prethick set has a prethick cell (up to regularity_order_limit)."""
    prethick = tb.prethick
    M = _minimal_ideal_union(S, tau.base)
    full = S.full_mask
    for A in range(full + 1):
        meets = bool(A & M)
        if prethick[A] != meets:
            return A + 1, {
                "part": "i",
                "subset": elements(A),
                "prethick": prethick[A],
                "meets_minimal": meets,
            }
    count = full + 1
    if S.order > cfg.regularity_order_limit:
        return count, None
    for A in range(full + 1):
        if not prethick[A]:
            continue
        size = popcount(A)
        for cells in (2, 3) if size <= 8 else (2,):
            if size < cells:
                continue
            for part in enumerate_partitions(A, cells):
                count += 1
                if not any(prethick[c] for c in part.cell_masks()):
                    return count, {
                        "part": "iii",
                        "subset": elements(A),
                        "partition_labels": part.label_string(),
                    }
    return count, None


def _prethick_not_small(S, tau, tb, cfg):
    """T3_6: A is prethick iff A is not small."""
    prethick, small = tb.prethick, tb.small
    for A in range(S.full_mask + 1):
        if prethick[A] == small[A]:
            return A + 1, {
                "subset": elements(A),
                "prethick": prethick[A],
                "not_small": not small[A],
            }
    return S.full_mask + 1, None


def _prethick_delta_large(S, tau, tb, cfg):
    """T3_7: the difference set of a prethick set is large."""
    count = 0
    for A in range(S.full_mask + 1):
        if not tb.prethick[A]:
            continue
        count += 1
        if not tb.large[delta_tau(S, tau, A)]:
            return count, {
                "subset": elements(A),
                "claim": "difference set of prethick is large",
            }
    return count, None


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
    "T2_6_large": replace(
        THEOREMS["T2_6"],
        claim=partial(_quotient_stable, "large"),
        finding="quotient of a large set stopped being large",
        notes=(
            "shift stability of large sets under the neighborhood-shift "
            "hypothesis (the thick conclusion with large in its place)",
        ),
    ),
    "T2_3_no_extrathick": replace(
        THEOREMS["T2_3"],
        negate=True,
        finding="equivalence breaks without the extrathick hypothesis",
        notes=("thick = meets-every-large with the extrathick hypothesis dropped",),
    ),
    "T3_6_semigroup": replace(
        THEOREMS["T3_6"],
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
    spec: Spec,
    S: FinSemigroup,
    tau: PrincipalFilter,
    cfg: VerifyConfig,
    count_forced: bool,
) -> Optional[Tuple[int, bool, Optional[dict]]]:
    """(assertions, forced base, detail) for an admitted instance, else None."""
    if spec.groups is not None and S.is_group != spec.groups:
        return None
    kind = spec.hypothesis
    if kind is not None and check_hypothesis(tau, kind) == spec.negate:
        return None
    if spec.admit is not None and not spec.admit(S, tau, cfg):
        return None
    forced = (
        count_forced
        and kind is not None
        and tau.is_trivial
        and hypothesis_forces_full_base(S, kind)
    )
    tb = _tables(S, tau.base) if spec.tables else None
    assertions, detail = spec.claim(S, tau, tb, cfg)
    if detail is not None and spec.finding is not None:
        detail["finding"] = spec.finding
    return assertions, forced, detail


def _run(
    kind: str,
    theorem_id: str,
    pairs: Sequence[Tuple[FinSemigroup, int]],
    cfg: VerifyConfig,
) -> Tuple[Counter, Optional[dict]]:
    """Counts over the instances up to and including the first counterexample."""
    spec = _SPECS[kind][theorem_id]
    counts: Counter = Counter()
    for S, base in pairs:
        tau = PrincipalFilter(S, base)
        result = _check(spec, S, tau, cfg, count_forced=kind == "verify")
        if result is None:
            counts["skipped"] += 1
            continue
        assertions, forced, detail = result
        counts["checked"] += 1
        counts["assertions"] += assertions
        counts["forced"] += forced
        if assertions == 0 or (forced and not spec.annotate_forced):
            counts["degenerate"] += 1
        else:
            counts["effective"] += 1
        if detail is not None:
            return counts, {
                "semigroup": S.name,
                "order": S.order,
                "table": [list(row) for row in S.table],
                "base": elements(base),
                "detail": detail,
                "theorem": theorem_id,
            }
    return counts, None


def _run_chunk(args):
    # specs hold closures, which do not pickle: workers look theirs up by id
    kind, theorem_id, chunk, cfg = args
    pairs = [(FinSemigroup(t, name=nm), base) for t, nm, base in chunk]
    return _run(kind, theorem_id, pairs, cfg)


def _drive(
    kind: str,
    theorem_id: str,
    catalog: Sequence[CatalogEntry],
    catalog_label: str,
    cfg: Optional[VerifyConfig],
) -> TheoremReport:
    cfg = cfg or VerifyConfig()
    if theorem_id not in _SPECS[kind]:
        raise InputError(f"unknown {kind} id {theorem_id!r}")
    pairs = [(entry.semigroup, base) for entry in catalog for base in entry.bases]
    started = time.perf_counter()
    workers = cfg.resolved_workers()
    if workers > 1 and len(pairs) > workers:
        import multiprocessing

        step = (len(pairs) + workers - 1) // workers
        chunks = []
        for i in range(0, len(pairs), step):
            chunk = [(S.table, S.name, base) for S, base in pairs[i : i + step]]
            chunks.append((kind, theorem_id, chunk, cfg))
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_run_chunk, chunks)
    else:
        parts = [_run(kind, theorem_id, pairs, cfg)]
    counts: Counter = Counter()
    counterexample = None
    for part_counts, counterexample in parts:
        counts.update(part_counts)
        if counterexample is not None:
            break  # chunks are in catalog order; later work is discarded
    notes = _SPECS[kind][theorem_id].notes
    if kind == "hunt":
        notes += ("found" if counterexample else "exhausted the catalog",)
    return TheoremReport(
        theorem_id=theorem_id,
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
        elapsed=time.perf_counter() - started,
        search=kind == "hunt",
        found=counterexample is not None,
    )


def verify(
    theorem_id: str,
    catalog: Sequence[CatalogEntry],
    catalog_label: str = "custom",
    cfg: Optional[VerifyConfig] = None,
) -> TheoremReport:
    return _drive("verify", theorem_id, catalog, catalog_label, cfg)


def hunt_counterexample(
    variant: str,
    catalog: Sequence[CatalogEntry],
    catalog_label: str = "custom",
    cfg: Optional[VerifyConfig] = None,
) -> TheoremReport:
    return _drive("hunt", variant, catalog, catalog_label, cfg)


def replay(counterexample: dict, cfg: Optional[VerifyConfig] = None) -> bool:
    """Re-run the named spec on the stored instance; True if it fails again."""
    theorem_id = counterexample["theorem"]
    spec = THEOREMS.get(theorem_id) or HUNTS[theorem_id]
    S = FinSemigroup(counterexample["table"], name=counterexample["semigroup"])
    tau = PrincipalFilter(S, mask_of(counterexample["base"]))
    result = _check(spec, S, tau, cfg or VerifyConfig(), count_forced=False)
    return result is not None and result[2] is not None


__all__ = [
    "THEOREM_IDS",
    "HUNT_VARIANTS",
    "VerifyConfig",
    "TheoremReport",
    "verify",
    "hunt_counterexample",
    "replay",
]
