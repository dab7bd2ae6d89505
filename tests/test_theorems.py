import gc
import inspect
import pickle
from functools import cache, partial

import pytest

from conftest import brute_minimal_left_ideals, isomorphism_class

from semsize import (
    build_catalog,
    elements,
    hunt_counterexample,
    mask_of,
    order_le_catalog,
    replay,
    semigroup_from_spec,
    verify,
)
import semsize.theorems as theorems
from semsize.catalog import default_catalog, entry_for, family_catalog
from semsize.classify import SizeTables
from semsize.errors import AssociativityError, DimensionError, InputError
from semsize.filters import PrincipalFilter, check_hypothesis
from semsize.literal import LiteralContext
from semsize.masks import is_subset
from semsize.partitions import enumerate_partitions
from semsize.semigroups import (
    LABELED_ORDER_LIMIT,
    left_quotient,
    minimal_left_ideals,
    translate_set,
)
from semsize.theorems import HUNT_VARIANTS, THEOREM_IDS, VerifyConfig


def small_catalog():
    return order_le_catalog(2)


def _full(tau, table):
    """A reach table read at every subset of S: entry A is its bit at
    to_reach(A)."""
    reach = (tau.to_reach(A) for A in range(tau.semigroup.full_mask + 1))
    return [bool(table >> P & 1) for P in reach]


class TestVerify:
    def test_every_theorem_clean_on_order_2(self):
        catalog = small_catalog()
        for tid in THEOREM_IDS:
            report = verify(tid, catalog, catalog_label="order<=2")
            assert report.counterexample is None, (tid, report.counterexample)

    def test_t2_2_clean_on_order_3_subsets(self):
        report = verify("T2_2", order_le_catalog(3), catalog_label="order<=3")
        assert report.counterexample is None
        assert report.effective_count > 0
        assert not report.vacuity_warning

    def test_t3_1_on_z6_subgroup_base(self, z6):
        entry = entry_for(z6, bases=(mask_of([0, 2, 4]),))
        report = verify("T3_1", [entry], catalog_label="z6@024")
        assert report.counterexample is None
        assert report.instances_checked == 1
        assert report.effective_count == 1

    def test_t3_2_z4_two_cells(self, z4):
        report = verify("T3_2", [entry_for(z4)], catalog_label="z4")
        assert report.counterexample is None
        # bases 1={0}, {0,2}, Z4 are subgroups; {0} has no 2-partition
        assert report.instances_checked >= 2

    def test_t3_2_delta_tables_span_only_the_base(self, monkeypatch):
        # each decision reads delta slices with one bit per subset of its
        # base: 4 for the subgroup {0, 6} of Z12, not one per subset of Z12
        import semsize.partitions as partitions

        sizes = {}
        real = partitions.delta_slices

        def recorded(S, tau, domain):
            d = real(S, tau, domain)
            sizes[domain] = max(d).bit_length()
            return d

        monkeypatch.setattr(partitions, "delta_slices", recorded)
        report = verify(
            "T3_2", family_catalog(["cyclic:12"]), catalog_label="cyclic:12",
            cfg=VerifyConfig(workers=1),
        )
        assert report.counterexample is None
        assert sizes[mask_of([0, 6])] == 4
        assert all(n == 1 << base.bit_count() for base, n in sizes.items())

    def test_t3_7_exercised_on_proper_left_ideals(self, null3, rz3):
        for S in (null3, rz3):
            report = verify("T3_7", [entry_for(S)], catalog_label=S.name)
            assert report.counterexample is None
            assert report.effective_count > 0

    def test_degeneracy_accounting_for_c2_5(self, z4, rz3):
        groups_only = verify("C2_5", [entry_for(z4)], catalog_label="z4")
        # on a group the hypothesis admits only the full base
        assert groups_only.instances_checked == 1
        assert groups_only.degenerate_count == 1
        assert groups_only.forced_absolute_count == 1
        assert groups_only.vacuity_warning
        with_rz = verify("C2_5", [entry_for(rz3)], catalog_label="rz3")
        assert with_rz.effective_count > 0
        assert not with_rz.vacuity_warning

    def test_t3_6_effective_on_every_subgroup_base_of_a_group(self, z4):
        # U0*U0 <= U0 admits the subgroups {0}, {0, 2} and Z4, and the
        # proper ones make the full base of Z4 not forced; the paper's left
        # invariance would admit Z4 alone
        report = verify("T3_6", [entry_for(z4)], catalog_label="z4")
        assert report.counterexample is None
        assert report.instances_checked == report.effective_count == 3
        assert report.forced_absolute_count == 0
        assert "left invariant filter on a group" in report.notes[0]

    def test_vacuity_warning_when_nothing_applies(self, rz3):
        # T3_2 needs a subgroup base, and rightzero:3 is not a group
        report = verify("T3_2", [entry_for(rz3)], catalog_label="rz3")
        assert report.instances_checked == 0
        assert report.vacuity_warning

    def test_instances_split_into_degenerate_and_effective(self):
        catalog = small_catalog()
        for tid in THEOREM_IDS:
            report = verify(tid, catalog, catalog_label="order<=2")
            assert (
                report.degenerate_count + report.effective_count
                == report.instances_checked
            )

    def test_reports_are_deterministic(self):
        catalog = family_catalog(["cyclic:4", "rightzero:3"])
        a = verify("T2_4", catalog, catalog_label="x")
        b = verify("T2_4", catalog, catalog_label="x")
        assert a.to_json_dict() == b.to_json_dict()

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            verify("T9_9", small_catalog())

    def test_no_size_tables_outlive_the_run(self):
        # an instance's filter holds its reach and the subsets of it through
        # each point, its SizeTables the tables: neither may be kept past the
        # instance
        def live_tables():
            gc.collect()
            held = (SizeTables, PrincipalFilter)
            return [o for o in gc.get_objects() if isinstance(o, held)]

        # held, so no table built by the run can take the id of an old one
        before = live_tables()
        catalog = small_catalog()
        for tid in THEOREM_IDS:
            verify(tid, catalog, catalog_label="order<=2")
        old = {id(o) for o in before}
        assert [o for o in live_tables() if id(o) not in old] == []


class TestHunt:
    def test_dropping_extrathick_breaks_the_equivalence(self):
        report = hunt_counterexample(
            "T2_3_no_extrathick", small_catalog(), catalog_label="order<=2"
        )
        assert report.search and report.found
        ce = report.counterexample
        assert ce["detail"]["thick"] != ce["detail"]["meets_every_large"]
        # replaying the stored instance re-fails deterministically
        assert replay(ce)

    def test_replayed_detail_is_stable(self):
        report = hunt_counterexample(
            "T2_3_no_extrathick", small_catalog(), catalog_label="order<=2"
        )
        again = hunt_counterexample(
            "T2_3_no_extrathick", small_catalog(), catalog_label="order<=2"
        )
        assert report.counterexample == again.counterexample

    def test_large_variant_of_shift_stability_fails_finitely(self):
        # the thick conclusion survives shifting (T2_6) but the large variant
        # already breaks on a left-zero semigroup: L={0} is large under the
        # trivial filter, yet 1^-1 L = {x : 1*x in L} is empty
        report = hunt_counterexample(
            "T2_6_large", small_catalog(), catalog_label="order<=2"
        )
        assert report.search and report.found
        ce = report.counterexample
        assert replay(ce)
        S_table = ce["table"]
        g, L = ce["detail"]["g"], ce["detail"]["subset"]
        assert all(S_table[i][j] == S_table[i][0] for i in (0, 1) for j in (0, 1))
        assert not any(S_table[g][x] in L for x in (0, 1))

    def test_group_equivalence_on_semigroups(self):
        report = hunt_counterexample(
            "T3_6_semigroup", small_catalog(), catalog_label="order<=2"
        )
        assert report.search
        if report.found:
            assert replay(report.counterexample)

    @pytest.mark.parametrize("variant", sorted(HUNT_VARIANTS))
    def test_worker_count_does_not_change_the_hunt(self, variant):
        # two of the three variants stop on a counterexample early in the
        # catalog, so the pass must read no decision of a later task
        catalog = order_le_catalog(3)
        serial = hunt_counterexample(variant, catalog, cfg=VerifyConfig(workers=1))
        parallel = hunt_counterexample(variant, catalog, cfg=VerifyConfig(workers=2))
        assert parallel.to_json_dict() == serial.to_json_dict()

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            hunt_counterexample("T0_0_nope", small_catalog())


class TestCatalog:
    def test_build_catalog_specs(self):
        assert len(build_catalog("order<=2")) == 9
        entries = build_catalog("cyclic:6;rightzero:3")
        assert [e.semigroup.name for e in entries] == ["cyclic:6", "rightzero:3"]
        assert len(entries[0].bases) == 63

    def test_base_override(self):
        entries = build_catalog("cyclic:6", base_override=(mask_of([0, 2, 4]),))
        assert entries[0].bases == (mask_of([0, 2, 4]),)

    def test_subgroup_bases_for_large_groups(self):
        entries = build_catalog("cyclic:12")
        assert len(entries[0].bases) == 6  # one per divisor of 12

    def test_cells_and_workers_are_the_only_settings(self):
        params = inspect.signature(VerifyConfig).parameters
        assert list(params) == ["cells", "workers"]
        assert VerifyConfig().small_order_limit == 8
        with pytest.raises(TypeError):
            VerifyConfig(small_order_limit=9)
        with pytest.raises(ValueError, match="need at least one cell"):
            VerifyConfig(cells=0)

    def test_config_survives_a_pickle_round_trip(self):
        # a --workers pool hands the config to its workers
        cfg = pickle.loads(pickle.dumps(VerifyConfig(cells=3, workers=2)))
        assert (cfg.cells, cfg.workers, cfg.small_order_limit) == (3, 2, 8)


def test_full_transformation_monoid_is_clean():
    # non-group monoid with a proper kernel; not part of the default catalog
    ft2 = semigroup_from_spec("fulltransformation:2")
    for tid in THEOREM_IDS:
        report = verify(tid, [entry_for(ft2)], catalog_label="ft2")
        assert report.counterexample is None, (tid, report.counterexample)


def test_meets_every_large_matches_literal_sweep():
    # the checker's complement form versus the literal forall-L sweep
    for entry in order_le_catalog(3)[:40]:
        S = entry.semigroup
        for base in entry.bases:
            tau = PrincipalFilter(S, base)
            large = _full(tau, SizeTables(S, tau).large)
            U0 = base
            for T in range(S.full_mask + 1):
                complement_form = not large[S.full_mask & ~(T & U0)]
                literal = all(
                    (L & T & U0) != 0
                    for L in range(S.full_mask + 1)
                    if large[L]
                )
                assert complement_form == literal


def test_prethick_meets_minimal_and_not_small_agree_under_a_closed_base():
    # T3_5 (i) and T3_6 under U0*U0 <= U0, read off the literal quantifier
    # forms: on every closed base of order <= 3, A is prethick iff A meets
    # the union M of the minimal left ideals of U0 iff A is not small
    bases = 0
    for entry in order_le_catalog(3):
        S = entry.semigroup
        for base in entry.bases:
            U0 = elements(base)
            if any(S.table[a][b] not in U0 for a in U0 for b in U0):
                continue
            M = mask_of(set().union(*brute_minimal_left_ideals(S, U0)))
            ctx = LiteralContext(S, PrincipalFilter(S, base))
            for A in range(S.full_mask + 1):
                trio = (ctx.prethick(A), bool(A & M), not ctx.small(A))
                assert len(set(trio)) == 1, (S.name, U0, elements(A), trio)
            bases += 1
    assert bases == 599


def test_every_partition_of_a_prethick_set_has_a_prethick_cell():
    # T3_5 (iii) is proved from (i), neither swept nor counted; the sweep
    # runs here on the order<=3 catalog and the order <= 6 golden mixed
    # catalog: each 2- and 3-cell partition of a prethick set has a prethick
    # cell, and the 2^n subsets of (i) are the instance's assertions
    mixed = build_catalog(
        "fulltransformation:2;symmetric:3;cyclic:6;rightzero:4;null:4"
    )
    catalog = order_le_catalog(3) + [e for e in mixed if e.semigroup.order <= 6]
    cfg = VerifyConfig(workers=1)
    admitted = assertions = 0
    for entry in catalog:
        S = entry.semigroup
        for base in entry.bases:
            report = verify("T3_5", [entry_for(S, bases=(base,))], cfg=cfg)
            if not report.instances_checked:
                continue
            tau = PrincipalFilter(S, base)
            prethick = _full(tau, SizeTables(S, tau).prethick)
            for A in range(S.full_mask + 1):
                if not prethick[A]:
                    continue
                for cells in (2, 3):
                    for part in enumerate_partitions(A, cells):
                        assert any(prethick[c] for c in part.cell_masks()), (
                            S.name, base, part.label_string(),
                        )
            assert report.assertions == S.full_mask + 1
            admitted += 1
            assertions += report.assertions
    whole = verify("T3_5", catalog, cfg=cfg)
    assert (whole.instances_checked, whole.assertions) == (admitted, assertions)
    assert admitted == 599 + 42  # order<=3, then the mixed catalog


def test_t3_5_counts_one_assertion_per_subset_of_each_admitted_instance():
    # the (i) equivalence over all 2^order subsets of S is all T3_5 counts;
    # its admission is U0*U0 <= U0, and no order limit cuts the count
    want = sum(
        1 << entry.semigroup.order
        for entry in default_catalog()
        for base in entry.bases
        if check_hypothesis(PrincipalFilter(entry.semigroup, base), "semigroup_filter")
    )
    report = verify("T3_5", default_catalog(), cfg=VerifyConfig(workers=1))
    assert report.assertions == want == 58354


_M = 0b101101  # {0, 2, 3, 5} in cyclic:6
_FLIPPED_PAYLOADS = {
    # the counterexample detail each claim reported before it went through
    # _agree, with the named table flipped at _M on cyclic:6, full base
    "T2_1": ("large", {"subset": [0, 2, 3, 5], "large": False,
                       "trace_condition": True}),
    "T2_2": ("thick", {"subset": [0, 2, 3, 5], "thick": True,
                       "trace_condition": False}),
    "T2_3": ("thick", {"subset": [0, 2, 3, 5], "thick": True,
                       "meets_every_large": False}),
    "T3_5": ("prethick", {"part": "i", "subset": [0, 2, 3, 5],
                          "prethick": False, "meets_minimal": True}),
    "T3_6": ("prethick", {"subset": [0, 2, 3, 5], "prethick": False,
                          "not_small": True}),
}


def _verify_flipped(tid, table, mask, monkeypatch):
    """verify's report of tid on cyclic:6, full base, with the named
    `SizeTables` table flipped at mask."""

    class Flipped(SizeTables):
        def __init__(self, S, tau):
            super().__init__(S, tau)
            setattr(self, table, getattr(self, table) ^ 1 << mask)

    monkeypatch.setattr(theorems, "SizeTables", Flipped)
    z6 = semigroup_from_spec("cyclic:6")
    entry = entry_for(z6, bases=(z6.full_mask,))
    return verify(tid, [entry], cfg=VerifyConfig(workers=1))


@pytest.mark.parametrize("tid", sorted(_FLIPPED_PAYLOADS))
def test_a_flipped_table_entry_is_the_reported_counterexample(tid, monkeypatch):
    table, payload = _FLIPPED_PAYLOADS[tid]
    report = _verify_flipped(tid, table, _M, monkeypatch)
    assert report.assertions == _M + 1
    assert report.counterexample["detail"] == payload
    assert report.counterexample["detail"]["subset"] == elements(_M)


_FLIPPED_IMPLICATIONS = {
    # the (assertions, detail) each implication claim reported before it went
    # through _implies, with one table entry flipped on cyclic:6, full base:
    # one assertion per premise-true subset up to the first failure
    "C3_1": ("prethick", _M, 45, {
        "subset": [0, 2, 3, 5],
        "claim": "set meeting a minimal ideal is prethick"}),
    "T3_7": ("large", 63, 11, {
        "subset": [0, 1, 3], "claim": "difference set of prethick is large"}),
}


@pytest.mark.parametrize("tid", sorted(_FLIPPED_IMPLICATIONS))
def test_a_flipped_entry_stops_an_implication_claim(tid, monkeypatch):
    table, mask, assertions, payload = _FLIPPED_IMPLICATIONS[tid]
    report = _verify_flipped(tid, table, mask, monkeypatch)
    assert report.assertions == assertions
    assert report.counterexample["detail"] == payload


def test_specs_that_read_tables_skip_reaches_above_the_limit():
    # every table has one entry per subset of the base's reach R: above
    # TABLE_ORDER_LIMIT points an instance is skipped before its tables are
    # built, whatever its order
    class Built(Exception):
        pass

    def tables():
        raise Built

    spec, cfg = theorems.THEOREMS["T2_1"], VerifyConfig()
    assert theorems.TABLE_ORDER_LIMIT == 12
    z24 = semigroup_from_spec("cyclic:24")
    z24_full = PrincipalFilter(z24, z24.full_mask)
    assert z24_full.reach == z24.full_mask
    assert theorems._check(spec, z24, z24_full, tables, cfg) is None
    # the even residues: a subgroup of order 12, its own reach
    evens = PrincipalFilter(z24, mask_of(range(0, 24, 2)))
    assert evens.reach == evens.base
    with pytest.raises(Built):
        theorems._check(spec, z24, evens, tables, cfg)
    z12 = semigroup_from_spec("cyclic:12")
    with pytest.raises(Built):
        theorems._check(spec, z12, PrincipalFilter(z12, z12.full_mask), tables, cfg)


def _shift_reference(S, tau, tb, large_claim, thick_claim):
    """T2_4 / C2_5 with one translate_set or left_quotient call per (g,
    subset A of S), each table read at its argument's points in the reach:
    the claim's (count, detail) before it read whole-mask tables.  Like the
    claim, it shifts A & R, not A (see `_shift_scan`); on any table,
    a failure at A is then one at A & R."""
    R = tau.reach

    def large(A):
        return tb.large >> tau.to_reach(A) & 1

    def thick(A):
        return tb.thick >> tau.to_reach(A) & 1

    count = 0
    for g in range(S.order):
        if not is_subset(tau.base, left_quotient(S, g, tau.base)):
            continue  # g*U0 is not inside U0
        for A in range(S.full_mask + 1):
            if large(A):
                count += 1
                if not large(translate_set(S, g, A & R)):
                    return count, {"g": g, "subset": elements(A), "claim": large_claim}
            if thick(A):
                count += 1
                if not thick(left_quotient(S, g, A & R)):
                    return count, {"g": g, "subset": elements(A), "claim": thick_claim}
    return count, None


def test_shift_checks_match_a_per_call_reference():
    # every instance of order <= 3 and of cyclic:6, symmetric:3 and
    # rightzero:3, with one large and, separately, one thick entry flipped:
    # the claim stops at the same subset with the same count and detail
    catalog = order_le_catalog(3) + family_catalog(
        ["cyclic:6", "symmetric:3", "rightzero:3"]
    )
    claim = theorems._shift_invariance
    failures = 0
    totals = {"T2_4": 0, "C2_5": 0}
    for entry in catalog:
        S = entry.semigroup
        for base in entry.bases:
            tau = PrincipalFilter(S, base)
            count, detail = _shift_reference(S, tau, SizeTables(S, tau), "L", "T")
            assert detail is None
            totals["T2_4"] += count
            if check_hypothesis(tau, "left_inverse_invariant"):
                totals["C2_5"] += count
            # every entry of a reach of up to 3 points, every fifth above
            size = 1 << tau.reach.bit_count()
            for table in ("large", "thick"):
                for M in range(0, size, 1 if size <= 8 else 5):
                    tb = SizeTables(S, tau)
                    setattr(tb, table, getattr(tb, table) ^ 1 << M)
                    want = _shift_reference(S, tau, tb, "L", "T")
                    assert claim("L", "T", S, tau, tb, None) == want, (
                        S.name, base, table, M,
                    )
                    failures += want[1] is not None
    assert failures == 2339
    cfg = VerifyConfig(workers=1)
    for tid, total in totals.items():
        assert verify(tid, catalog, cfg=cfg).assertions == total


def _decided(catalog):
    """The instances a pass runs the specs on: the first of each isomorphism
    class of the labeled instances, those of order <= LABELED_ORDER_LIMIT,
    and every other instance.  The rest read their class's results."""
    seen, out = set(), []
    for S, base in _pairs(catalog):
        if S.order <= LABELED_ORDER_LIMIT:
            key = isomorphism_class(S, base)
            if key in seen:
                continue
            seen.add(key)
        out.append((S, base))
    return out


def _fits(S, base):
    """A spec that reads tables may admit the instance: its reach has at
    most TABLE_ORDER_LIMIT points."""
    reach = PrincipalFilter(S, base).reach
    return reach.bit_count() <= theorems.TABLE_ORDER_LIMIT


def test_minimal_left_ideals_run_once_per_admitted_instance(monkeypatch):
    # T3_1, C3_1 and T3_5 all read the union of the base's minimal left
    # ideals; a serial verify of every theorem computes it once per
    # instance it runs the specs on, the first time T3_1 (whose hypothesis
    # the other two imply) admits it: 447 of the 925 admitted instances
    import semsize.filters as filters

    admitted = sum(
        check_hypothesis(PrincipalFilter(S, base), "semigroup_filter")
        and _fits(S, base)
        for S, base in _decided(default_catalog())
    )
    calls = []

    def counted(S, within=None):
        calls.append(within)
        return minimal_left_ideals(S, within)

    monkeypatch.setattr(filters, "minimal_left_ideals", counted)
    reports = theorems._drive(
        "verify", THEOREM_IDS, default_catalog(), "default", VerifyConfig()
    )
    by_id = {r.theorem_id: r for r in reports}
    assert all(r.counterexample is None for r in reports)
    assert by_id["T3_1"].instances_checked == 925
    assert len(calls) == admitted == 447


def test_shift_scan_runs_once_per_admitted_instance(monkeypatch):
    # C2_5 is T2_4's claim under other texts: a serial verify of every
    # theorem scans each instance it runs the specs on and T2_4 admits
    # once, and C2_5 reads that scan: 160 classes of the 816 labeled
    # instances and the 536 family instances
    admitted = sum(_fits(S, base) for S, base in _decided(default_catalog()))
    scan, calls = theorems._shift_scan, []

    def counted(tau, tb):
        calls.append(tau)
        return scan(tau, tb)

    monkeypatch.setattr(theorems, "_shift_scan", counted)
    reports = theorems._drive(
        "verify", THEOREM_IDS, default_catalog(), "default", VerifyConfig()
    )
    by_id = {r.theorem_id: r for r in reports}
    assert all(r.counterexample is None for r in reports)
    assert by_id["C2_5"].instances_checked == 536
    assert by_id["T2_4"].instances_checked == 1352
    assert len(calls) == admitted == 696


def test_each_table_is_decomposed_once_per_instance():
    # T2_3, T2_4, T2_6, T3_1 and T3_7 each read the minimal layers of the
    # large or the thick table of an instance; a serial verify of every
    # theorem decomposes each of them once per instance it runs the specs
    # on, as every theorem run on those instances alone does
    from semsize.masks import minimal_layers

    cfg = VerifyConfig()
    minimal_layers.cache_clear()
    for S, base in _decided(default_catalog()):
        tau = PrincipalFilter(S, base)
        tables = cache(partial(SizeTables, S, tau))
        for tid in THEOREM_IDS:
            theorems._check(theorems.THEOREMS[tid], S, tau, tables, cfg)
    theorems._last_shift_scan.cache_clear()
    info = minimal_layers.cache_info()
    alone = (info.misses, info.hits + info.misses)
    minimal_layers.cache_clear()
    reports = theorems._drive(
        "verify", THEOREM_IDS, default_catalog(), "default", VerifyConfig()
    )
    assert all(r.counterexample is None for r in reports)
    info = minimal_layers.cache_info()
    assert (info.misses, info.hits + info.misses) == alone == (845, 3180)


def test_c2_5_scans_for_itself_once_t2_4_has_stopped(monkeypatch):
    # a scan faked to fail at the base {0}, which C2_5 never admits, stops
    # T2_4 at the first instance; C2_5 admits only the full bases, scans
    # each of them itself, and reports what it reports alone
    scan, calls = theorems._shift_scan, []

    def failing_at_zero(tau, tb):
        calls.append(tau.base)
        return (1, (0, 1, False)) if tau.base == 1 else scan(tau, tb)

    monkeypatch.setattr(theorems, "_shift_scan", failing_at_zero)
    catalog = family_catalog(["cyclic:4", "cyclic:6"])
    alone = verify("C2_5", catalog)
    assert calls == [0b1111, 0b111111]
    calls.clear()
    t2_4, c2_5 = theorems._drive("verify", ["T2_4", "C2_5"], catalog, "custom", None)
    assert t2_4.instances_checked == 1
    assert t2_4.counterexample["detail"] == {
        "g": 0, "subset": [0], "claim": "translate of large is large",
    }
    assert c2_5.to_json_dict() == alone.to_json_dict()
    assert calls == [1, 0b1111, 0b111111]


def _recording_filters(monkeypatch):
    """Every PrincipalFilter the driver builds, in build order."""
    built = []

    class Recorded(PrincipalFilter):
        def __init__(self, semigroup, base):
            super().__init__(semigroup, base)
            built.append(self)

    monkeypatch.setattr(theorems, "PrincipalFilter", Recorded)
    return built


def _pairs(catalog):
    return [(e.semigroup, b) for e in catalog for b in e.bases]


def test_a_hunt_stops_at_its_finding(monkeypatch):
    # the finding is the 10th instance, and one instance before it repeats
    # the class of an earlier one, so it builds no filter
    built = _recording_filters(monkeypatch)
    catalog = default_catalog()
    report = hunt_counterexample("T2_6_large", catalog)
    assert report.found and report.instances_checked == 9
    ce, last = report.counterexample, built[-1]
    assert (last.semigroup.name, elements(last.base)) == (ce["semigroup"], ce["base"])
    pairs = _pairs(catalog)
    at = pairs.index((last.semigroup, last.base))
    assert len(built) == at == 9 < len(pairs)


def _failing_on_class(S0, base0):
    """A claim that fails on every instance isomorphic to (S0, base0) and
    holds on the others: a fault a theorem could have, as it names no
    label."""
    target = isomorphism_class(S0, base0)

    def claim(S, tau, tb, cfg):
        failed = isomorphism_class(S, tau.base) == target
        return 1, ({"claim": "injected"} if failed else None)

    return claim


def test_verify_stops_after_the_last_failing_id(monkeypatch):
    # T2_1 fails on the class of the 5th instance, first met there, and
    # T2_2 on that of the 20th, first met at the 15th, {1} in n2-4: the
    # pass builds no filter past the 15th, nor for the 2 copies before it
    catalog = order_le_catalog(3)
    pairs = _pairs(catalog)
    for tid, at in (("T2_1", 4), ("T2_2", 19)):
        spec = theorems.THEOREMS[tid]._replace(claim=_failing_on_class(*pairs[at]))
        monkeypatch.setitem(theorems.THEOREMS, tid, spec)
    built = _recording_filters(monkeypatch)
    t2_1, t2_2 = theorems._drive("verify", ["T2_1", "T2_2"], catalog, "custom", None)
    assert (t2_1.instances_checked, t2_2.instances_checked) == (5, 15)
    assert t2_1.counterexample["base"] == elements(pairs[4][1])
    ce = t2_2.counterexample
    assert (ce["semigroup"], ce["base"]) == (pairs[14][0].name, [1]) == ("n2-4", [1])
    assert len(built) == 13 < len(pairs)


def test_the_class_results_last_one_pass(monkeypatch):
    # a pass keeps the results of its classes to itself: after a clean
    # pass, T2_1 made to fail on the class of {0} in n3-112 fails at its
    # first instance, {1} in n3-0 (the 27th), in the next pass
    catalog = order_le_catalog(3)
    (clean,) = theorems._drive("verify", ["T2_1"], catalog, "custom", None)
    assert clean.counterexample is None and clean.instances_checked == 816
    last = catalog[-1]
    claim = _failing_on_class(last.semigroup, last.bases[0])
    monkeypatch.setitem(
        theorems.THEOREMS, "T2_1", theorems.THEOREMS["T2_1"]._replace(claim=claim)
    )
    (failed,) = theorems._drive("verify", ["T2_1"], catalog, "custom", None)
    ce = failed.counterexample
    assert (ce["semigroup"], ce["base"], ce["detail"]) == (
        "n3-0", [1], {"claim": "injected"},
    )
    assert failed.instances_checked == 27


def test_one_failing_id_leaves_the_others_running(monkeypatch):
    catalog = order_le_catalog(3)
    pairs = _pairs(catalog)
    alone = verify("T2_2", catalog)
    spec = theorems.THEOREMS["T2_1"]._replace(claim=_failing_on_class(*pairs[0]))
    monkeypatch.setitem(theorems.THEOREMS, "T2_1", spec)
    built = _recording_filters(monkeypatch)
    t2_1, t2_2 = theorems._drive("verify", ["T2_1", "T2_2"], catalog, "custom", None)
    assert t2_1.instances_checked == 1 and t2_1.counterexample is not None
    assert t2_2.to_json_dict() == alone.to_json_dict()
    assert len(built) == len(_decided(catalog)) == 160 < len(pairs)


def test_only_admitted_instances_compute_the_reach(monkeypatch):
    # the hypothesis and spec.admit run before the table limit, which reads
    # the reach: the T3_6_semigroup hunt computes it on the instances it
    # runs on and admits, a spec with neither on every instance it runs on
    catalog = default_catalog()
    decided = _decided(catalog)
    admitted = sum(
        not S.is_group
        and S.order <= VerifyConfig.small_order_limit
        and check_hypothesis(PrincipalFilter(S, base), "left_invariant")
        for S, base in decided
    )
    built = _recording_filters(monkeypatch)
    report = hunt_counterexample("T3_6_semigroup", catalog)
    assert not report.found and report.instances_checked == 249
    assert len(built) == len(decided) == 696 < len(_pairs(catalog))
    assert sum("reach" in vars(tau) for tau in built) == admitted == 142
    built.clear()
    assert verify("T2_1", catalog).instances_checked == 1352
    assert sum("reach" in vars(tau) for tau in built) == len(decided) == 696


def test_a_parallel_hunt_stops_at_its_finding(fake_pool):
    # the tasks are read in catalog order, and no task after the one with
    # the finding runs: n2-2 is the 4th of the 143 semigroups
    catalog = default_catalog()
    serial = hunt_counterexample("T2_6_large", catalog, cfg=VerifyConfig(workers=1))
    parallel = hunt_counterexample("T2_6_large", catalog, cfg=VerifyConfig(workers=2))
    assert parallel.to_json_dict() == serial.to_json_dict()
    assert serial.counterexample["semigroup"] == "n2-2"
    (pool,) = fake_pool
    assert pool.tasks == 4 < len(catalog) == 143


def test_a_parallel_pass_without_instances_starts_no_pool(fake_pool):
    # neither semigroup has a base, so there is nothing for a worker to decide
    catalog = [entry_for(semigroup_from_spec(spec), bases=())
               for spec in ("cyclic:4", "cyclic:6")]
    serial, parallel = (verify("T2_1", catalog, cfg=VerifyConfig(workers=w))
                        for w in (1, 2))
    assert parallel.to_json_dict() == serial.to_json_dict()
    assert serial.instances_checked == 0 and fake_pool == []


@pytest.mark.parametrize("label, classes", [("order<=3", 160), ("default", 696)])
def test_a_parallel_pass_decides_the_serial_instances(
    monkeypatch, fake_pool, label, classes
):
    # the pool decides the first instance of each class, and the pass reads
    # its results on the rest, whichever semigroup's task would hold them
    catalog, check = build_catalog(label), theorems._check
    decided = {}
    for workers in (1, 2):
        calls = decided[workers] = set()

        def recorded(spec, S, tau, tables, cfg):
            calls.add((S, tau.base))
            return check(spec, S, tau, tables, cfg)

        monkeypatch.setattr(theorems, "_check", recorded)
        cfg = VerifyConfig(workers=workers)
        theorems._drive("verify", THEOREM_IDS, catalog, label, cfg)
    assert len(fake_pool) == 1
    assert decided[2] == decided[1] == set(_decided(catalog))
    assert len(decided[2]) == classes


def test_default_holds_each_table_once():
    # the families start at order 4: their tables of orders 2 and 3 are
    # labeled ones
    entries = default_catalog()
    assert len({e.semigroup for e in entries}) == len(entries) == 143
    labeled = {e.semigroup for e in order_le_catalog(3)}
    small = [
        f"{family}:{n}"
        for family in ("cyclic", "rightzero", "leftzero", "null")
        for n in (2, 3)
    ]
    assert all(e.semigroup in labeled for e in family_catalog(small))


@pytest.mark.parametrize(
    "cells, checked, skipped, assertions",
    [
        (3, 29, 1323, 130962),
        (4, 22, 1330, 804803),
        (5, 13, 1339, 1678943),
        (6, 11, 1341, 1529434),
    ],
)
def test_t3_2_admits_every_subgroup_base_its_tables_fit(
    monkeypatch, cells, checked, skipped, assertions
):
    # the subgroup bases of cells to 12 points, none decided by a sweep; at
    # 3 cells the 20 of the groups up to order 8 and the 9 of Z9 to Z12, and
    # past 3 cells the decision takes cells - 2 rounds of unions
    import semsize.partitions as partitions

    def no_sweep(*args, **kwargs):
        raise AssertionError("T3_2 swept the partitions")

    monkeypatch.setattr(partitions, "sweep_partitions", no_sweep)
    report = verify("T3_2", default_catalog(), cfg=VerifyConfig(cells=cells))
    assert report.counterexample is None
    assert (report.instances_checked, report.skipped_count) == (checked, skipped)
    assert report.assertions == assertions


def test_t3_2_reports_a_broken_bound(monkeypatch):
    # the 2-partitions of Z6 reach a worst cover of 2; held to 1, the first
    # subgroup base with a partition that needs 2 is the counterexample
    monkeypatch.setattr(theorems, "finite_cover_bound", lambda m, n: 1)
    report = verify("T3_2", family_catalog(["cyclic:6"]))
    ce = report.counterexample
    assert (ce["base"], report.instances_checked) == ([0, 3], 1)
    assert ce["detail"]["cells"] == 2
    assert "no cell within the proved bound 1" in ce["detail"]["violation"]
    assert replay(ce)


def test_replay_reads_the_cell_count_of_a_t3_2_failure(monkeypatch):
    # a cover decision faulted at 3 cells only: the failure found at 3
    # cells replays there, as its detail says, and not at the default 2
    exceeds = theorems.cover_exceeds
    monkeypatch.setattr(
        theorems, "cover_exceeds", lambda S, tau, n, w: n == 3 or exceeds(S, tau, n, w)
    )
    catalog = family_catalog(["cyclic:6"])
    ce = verify("T3_2", catalog, cfg=VerifyConfig(cells=3)).counterexample
    assert ce["detail"]["cells"] == 3
    assert replay(ce)
    assert not replay(ce, VerifyConfig(cells=2))


def _left_zero_finding():
    return hunt_counterexample("T2_6_large", small_catalog()).counterexample


def test_replay_of_an_unknown_id_names_the_known_ones():
    with pytest.raises(InputError, match=r"'T9_9'; known: C2_5, .*, T2_6_large,"):
        replay({**_left_zero_finding(), "theorem": "T9_9"})


@pytest.mark.parametrize(
    "table, error",
    [([[0, 1], [1]], DimensionError), ([[1, 1], [0, 0]], AssociativityError)],
)
def test_replay_validates_the_stored_table(table, error):
    # (0*0)*0 = 0 but 0*(0*0) = 1 in the second table
    with pytest.raises(error):
        replay({**_left_zero_finding(), "table": table})
