"""Claims over the base's reach against a full-table reference.

`FullTables` and the claim bodies below read tables with one entry per
subset of S, as the checkers did before their tables moved to the reach
R = U0 | U0^2 | U0^3.  They are the reference the reach tables must match,
count for count and detail for detail; the package keeps no full-table
path.  Each body has the name of the checker it stands for in
`semsize.theorems`, so `full_claim` finds it from a spec.
"""

from functools import partial

import pytest

import semsize.theorems as theorems
from semsize import elements, mask_of, semigroup_from_spec, verify
from semsize.catalog import default_catalog, entry_for
from semsize.classify import SizeTables
from semsize.filters import PrincipalFilter
from semsize.masks import bits
from semsize.semigroups import set_quotient
from semsize.theorems import HUNTS, THEOREMS, VerifyConfig

TABLES = ("large", "thick", "prethick", "small")


def union_table(images):
    """t[A]: the union of images[i] over the points i of A, for every subset
    A of S; each image doubles the table."""
    t = [0]
    for image in images:
        t += [m | image for m in t]
    return t


def preimages(products):
    """pre[b] = {x : products[x] == b} for every point b: over a row of the
    Cayley table the images of a left quotient, over a column those of a
    trace."""
    pre = [0] * len(products)
    for x, v in enumerate(products):
        pre[v] |= 1 << x
    return pre


class FullTables:
    """The four size tables over every subset mask of S."""

    def __init__(self, S, tau):
        U0 = tau.base
        q = union_table([set_quotient(S, U0, 1 << b) for b in range(S.order)])
        minimal = tau.minimal_translates
        M = 0
        for E in minimal:
            M |= E
        subsets = range(S.full_mask + 1)
        self.large = [not U0 & ~qA for qA in q]
        self.thick = [any(not E & ~A for E in minimal) for A in subsets]
        self.prethick = [self.thick[qA] for qA in q]
        self.small = [not A & M for A in subsets]


def lifted(tau, tb):
    """The full tables a reach `SizeTables` stands for: entry A of each is
    the reach table's bit at A's points in R."""
    full = FullTables.__new__(FullTables)
    reach = [tau.to_reach(A) for A in range(tau.semigroup.full_mask + 1)]
    for name in TABLES:
        table = getattr(tb, name)
        setattr(full, name, [bool(table >> P & 1) for P in reach])
    return full


# ---------------------------------------------------------------------------
# the claim bodies over full tables


def _agree(lhs, rhs, lname, rname):
    if lhs != rhs:
        A = next(A for A, (l, r) in enumerate(zip(lhs, rhs)) if l != r)
        return A + 1, {"subset": elements(A), lname: lhs[A], rname: rhs[A]}
    return len(lhs), None


def _implies(premise, conclusion, claim):
    count = 0
    for A, (p, c) in enumerate(zip(premise, conclusion)):
        if p:
            count += 1
            if not c:
                return count, {"subset": elements(A), "claim": claim}
    return count, None


def _trace_tables(S, U0):
    for g in bits(U0):
        yield g, union_table(preimages([row[g] for row in S.table]))


def _trace_large(S, tau, tb, cfg):
    U0 = tau.base
    rhs = [True] * (S.full_mask + 1)
    for _, t in _trace_tables(S, U0):
        rhs = [r and bool(x & U0) for r, x in zip(rhs, t)]
    return _agree(tb.large, rhs, "large", "trace_condition")


def _trace_thick(S, tau, tb, cfg):
    U0 = tau.base
    rhs = [False] * (S.full_mask + 1)
    for _, t in _trace_tables(S, U0):
        rhs = [r or not U0 & ~x for r, x in zip(rhs, t)]
    return _agree(tb.thick, rhs, "thick", "trace_condition")


def _thick_meets_large(S, tau, tb, cfg):
    full = S.full_mask
    rhs = [not tb.large[full & ~(T & tau.base)] for T in range(full + 1)]
    return _agree(tb.thick, rhs, "thick", "meets_every_large")


def _shift_invariance(large_claim, thick_claim, S, tau, tb, cfg):
    large, thick = tb.large, tb.thick
    count = 0
    for g in bits(tau.shiftable):
        gA = union_table([1 << v for v in S.table[g]])
        gqA = union_table(preimages(S.table[g]))
        for A in range(S.full_mask + 1):
            if large[A]:
                count += 1
                if not large[gA[A]]:
                    return count, {"g": g, "subset": elements(A), "claim": large_claim}
            if thick[A]:
                count += 1
                if not thick[gqA[A]]:
                    return count, {"g": g, "subset": elements(A), "claim": thick_claim}
    return count, None


def _quotient_stable(family, S, tau, tb, cfg, **labels):
    members = getattr(tb, family)
    stays = [
        (g, [members[gT] for gT in union_table(preimages(S.table[g]))])
        for g in bits(tau.base)
    ]
    count = 0
    for T in range(S.full_mask + 1):
        if not members[T]:
            continue
        for g, stay in stays:
            count += 1
            if not stay[T]:
                return count, {"subset": elements(T), "g": g, **labels}
    return count, None


def _minimal_ideal_traces(S, tau, tb, cfg):
    M = tau.minimal_ideal_union
    count = 0
    for g, t in _trace_tables(S, tau.base):
        through_g = (A for A in range(S.full_mask + 1) if (A >> g) & 1)
        bad = next((A for A in through_g if not tb.large[t[A]]), None)
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
    M = tau.minimal_ideal_union
    meets = (A & M for A in range(S.full_mask + 1))
    return _implies(meets, tb.prethick, "set meeting a minimal ideal is prethick")


def _prethick_regularity(S, tau, tb, cfg):
    M = tau.minimal_ideal_union
    meets = [bool(A & M) for A in range(S.full_mask + 1)]
    count, detail = _agree(tb.prethick, meets, "prethick", "meets_minimal")
    return count, None if detail is None else {"part": "i", **detail}


def _prethick_not_small(S, tau, tb, cfg):
    not_small = [not small for small in tb.small]
    return _agree(tb.prethick, not_small, "prethick", "not_small")


def _prethick_delta_large(S, tau, tb, cfg):
    # delta(A) is the union of the traces of A at its base points
    delta = [0] * (S.full_mask + 1)
    for g, t in _trace_tables(S, tau.base):
        for A in range(1 << g, S.full_mask + 1):
            if A >> g & 1:
                delta[A] |= t[A]
    delta_large = (tb.large[d] for d in delta)
    return _implies(tb.prethick, delta_large, "difference set of prethick is large")


def full_claim(spec):
    """The spec's claim with its body read from this module."""
    claim = spec.claim
    if isinstance(claim, partial):
        return partial(globals()[claim.func.__name__], *claim.args, **claim.keywords)
    return globals()[claim.__name__]


# ---------------------------------------------------------------------------
# tests


def test_every_claim_over_the_reach_matches_the_full_tables():
    # every (instance, spec) that reads tables on the default catalog, the
    # hunts included: the same admission, count and detail
    cfg = VerifyConfig()
    specs = [
        (spec, spec._replace(claim=full_claim(spec)))
        for spec in (*(THEOREMS[t] for t in theorems.THEOREM_IDS), *HUNTS.values())
        if spec.tables
    ]
    checks = entries = full_entries = 0
    for entry in default_catalog():
        S = entry.semigroup
        for base in entry.bases:
            tau = PrincipalFilter(S, base)
            tb, full = SizeTables(S, tau), FullTables(S, tau)
            # each table reads a subset only through its points in R
            lift = lifted(tau, tb)
            assert [getattr(lift, t) for t in TABLES] == [
                getattr(full, t) for t in TABLES
            ], (S.name, base)
            entries += 1 << len(tau.reach_points)
            full_entries += len(full.large)
            for spec, reference in specs:
                got = theorems._check(spec, S, tau, lambda: tb, cfg)
                want = theorems._check(reference, S, tau, lambda: full, cfg)
                assert got == want, (S.name, base, spec)
                checks += got is not None
    assert (entries, full_entries) == (23666, 71194)
    assert checks == 12653


_FLIP_CASES = [
    # (theorem, semigroup, base, the tables flipped): on each instance R is
    # the base, a proper subset of S, and every set the claim reads a table
    # at has the same points in R whether it is made from A or from A & R,
    # so a flipped table is still read only through R
    ("T2_1", "cyclic:6", [0, 2, 4], ("large",)),  # _agree
    ("C3_1", "cyclic:6", [0, 2, 4], ("prethick",)),  # _implies
    ("T2_4", "cyclic:6", [0, 2, 4], ("large", "thick")),  # _shift_invariance
    ("T2_6", "null:4", [0, 2, 3], ("thick",)),  # _quotient_stable
    ("C2_5", "null:4", [0, 2, 3], ("large", "thick")),
    ("T3_7", "null:4", [0, 2, 3], ("prethick", "large")),  # _implies
    ("T3_1", "cyclic:6", [0, 2, 4], ("large",)),  # _minimal_ideal_traces
    ("T3_1", "null:4", [0, 2, 3], ("large",)),
    ("T2_2", "cyclic:6", [0, 2, 4], ("thick",)),  # _agree
    ("T2_3", "null:4", [0, 2, 3], ("thick", "large")),
    ("T3_5", "null:4", [0, 2, 3], ("prethick",)),
    ("T3_5", "cyclic:6", [0, 2, 4], ("prethick",)),
    ("T3_6", "null:4", [0, 2, 3], ("prethick", "small")),
]


@pytest.mark.parametrize("tid, family, base, tables", _FLIP_CASES)
def test_a_flipped_reach_entry_counts_as_in_the_full_tables(
    tid, family, base, tables, monkeypatch
):
    # each entry of each named reach table flipped in turn: verify reports
    # the count and detail of the full-table claim on the full tables that
    # flipped entry stands for
    S = semigroup_from_spec(family)
    tau = PrincipalFilter(S, mask_of(base))
    assert tau.reach == tau.base != S.full_mask
    entry = entry_for(S, bases=(tau.base,))
    cfg = VerifyConfig(workers=1)
    reference = full_claim(THEOREMS[tid])
    failures = 0
    for table in tables:
        for P in range(1 << tau.base.bit_count()):

            class Flipped(SizeTables):
                def __init__(self, S, tau):
                    super().__init__(S, tau)
                    setattr(self, table, getattr(self, table) ^ 1 << P)

            monkeypatch.setattr(theorems, "SizeTables", Flipped)
            report = verify(tid, [entry], cfg=cfg)
            assert report.instances_checked == 1
            ce = report.counterexample
            got = report.assertions, ce and ce["detail"]
            assert got == reference(S, tau, lifted(tau, Flipped(S, tau)), cfg), (
                table, P,
            )
            failures += ce is not None
    # a flip that clears a premise or sets a conclusion breaks no claim
    assert failures == {
        ("T2_1", "cyclic:6"): 8,
        ("C3_1", "cyclic:6"): 7,
        ("T2_4", "cyclic:6"): 12,
        ("T2_6", "null:4"): 4,
        ("C2_5", "null:4"): 5,
        ("T3_7", "null:4"): 5,
        ("T3_1", "cyclic:6"): 4,
        ("T3_1", "null:4"): 2,
        ("T2_2", "cyclic:6"): 8,
        ("T2_3", "null:4"): 16,
        ("T3_5", "null:4"): 8,
        ("T3_5", "cyclic:6"): 8,
        ("T3_6", "null:4"): 16,
    }[tid, family]
