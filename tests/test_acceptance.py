"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

import time

import pytest

from conftest import brute_minimal_left_ideals

from semsize import (
    automorphisms,
    classify_all,
    default_catalog,
    enumerate_semigroups,
    finite_cover_bound,
    make_principal,
    minimal_left_ideals,
    semigroup_from_spec,
    subgroups,
    sweep_partitions,
    trivial_filter,
    ultrafilter_product,
    verify,
)
from semsize.catalog import entry_for
from semsize.classify import large_value, thick_value
from semsize.cli import main
from semsize.literal import LiteralContext
from semsize.masks import elements, popcount

ACCEPTANCE_THEOREMS = (
    "T2_1",
    "T2_2",
    "T2_3",
    "T2_4",
    "C2_5",
    "T2_6",
    "T3_1",
    "C3_1",
    "T3_5",
    "T3_6",
    "T3_7",
)

GROUP_SPECS = ["cyclic:%d" % n for n in range(2, 13)] + [
    "symmetric:3",
    "dihedral:4",
    "quaternion8",
]


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


def _announce(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_reduction_soundness():
    started = time.perf_counter()
    compared = 0
    for order in (1, 2, 3):
        for S in enumerate_semigroups(order):
            for base in range(1, S.full_mask + 1):
                tau = make_principal(S, base)
                ctx = LiteralContext(S, tau)
                for A in range(S.full_mask + 1):
                    for v in classify_all(S, tau, A, with_witness=False):
                        assert v.value == getattr(ctx, v.predicate)(A), (
                            S.name,
                            base,
                            A,
                            v.predicate,
                        )
                        compared += 1
    elapsed = time.perf_counter() - started
    assert compared == 32130
    assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f}s (budget 60s)"
    _announce(1, f"reduction soundness, {compared} comparisons, {elapsed:.1f}s")


def test_criterion_2_theorem_suite(catalog):
    for tid in ACCEPTANCE_THEOREMS:
        report = verify(tid, catalog, catalog_label="default")
        assert report.counterexample is None, (tid, report.counterexample)
        assert report.effective_count >= 1, f"{tid} ran vacuously"
        assert not report.vacuity_warning, tid
    # the difference-set theorem must see a semigroup with a proper left ideal
    for spec in ("null:3", "rightzero:3"):
        S = semigroup_from_spec(spec)
        assert minimal_left_ideals(S) != [S.full_mask]
        focused = verify("T3_7", [entry_for(S)], catalog_label=spec)
        assert focused.counterexample is None
        assert focused.effective_count >= 1
    _announce(2, "theorem suite clean and non-degenerate on the default catalog")


def test_criterion_3_partition_cover_bound():
    for spec in GROUP_SPECS:
        S = semigroup_from_spec(spec)
        for base in subgroups(S):
            m = popcount(base)
            if m >= 2:
                rec = sweep_partitions(S, make_principal(S, base), 2, "translate")
                assert rec.worst_min_F <= finite_cover_bound(m, 2) <= 2, (
                    spec, elements(base), rec.worst_min_F)
            if S.order <= 8 and m >= 3:
                rec = sweep_partitions(S, make_principal(S, base), 3, "translate")
                assert rec.worst_min_F <= finite_cover_bound(m, 3) <= 3, (
                    spec, elements(base), rec.worst_min_F)
    z12 = semigroup_from_spec("cyclic:12")
    started = time.perf_counter()
    rec = sweep_partitions(z12, trivial_filter(z12), 2, "translate")
    elapsed = time.perf_counter() - started
    assert rec.worst_min_F <= 2 and rec.partitions_checked == 2047
    assert elapsed < 10.0, f"Z12 sweep took {elapsed:.1f}s (budget 10s)"
    # a sweep cannot be stopped or resumed, so the slowest sweeps the order
    # limits accept are held to the same budget
    for spec, mode in (("quaternion8", "translate"), ("leftzero:8", "delta")):
        S = semigroup_from_spec(spec)
        started = time.perf_counter()
        slow = sweep_partitions(S, trivial_filter(S), 4, mode)
        took = time.perf_counter() - started
        assert slow.partitions_checked == 1701
        assert took < 10.0, f"{spec} 4-cell sweep took {took:.1f}s (budget 10s)"
    # the orbit reduction under the 720 automorphisms of this product
    S = semigroup_from_spec("product:leftzero:6,cyclic:2")
    started = time.perf_counter()
    orbits = sweep_partitions(
        S, trivial_filter(S), 2, "delta", symmetry=automorphisms(S)
    )
    took = time.perf_counter() - started
    assert orbits.partitions_checked == 43
    assert took < 10.0, f"{S.name} symmetric sweep took {took:.1f}s (budget 10s)"
    _announce(3, f"cover bound holds everywhere; Z12 sweep {elapsed:.2f}s")


def test_criterion_4_partition_cover_evidence_table():
    rows = []
    attained = []
    for spec in GROUP_SPECS:
        S = semigroup_from_spec(spec)
        for cells in (2, 3):
            if S.order > (12 if cells == 2 else 8) or S.order < cells:
                continue
            rec = sweep_partitions(S, trivial_filter(S), cells, "translate")
            bound = finite_cover_bound(S.order, cells)
            rows.append((spec, cells, rec.worst_min_F, bound))
            # the packing argument: some cell is covered by at most
            # m // ceil(m/n) <= n translates of its difference set
            assert rec.proved_bound == bound <= cells
            assert rec.worst_min_F <= bound, (spec, cells, rec.worst_min_F)
            if rec.worst_min_F == bound:
                attained.append((spec, cells))
    assert rows, "evidence table is empty"
    _announce(
        4,
        f"evidence table over {len(rows)} sweeps; all within m // ceil(m/n), "
        f"{len(attained)} attain it",
    )


def test_criterion_5_absolute_duality():
    checked = 0
    for order in (1, 2, 3):
        for S in enumerate_semigroups(order):
            tau = trivial_filter(S)
            for A in range(S.full_mask + 1):
                assert thick_value(S, tau, A) == (
                    not large_value(S, tau, S.full_mask & ~A)
                ), (S.name, A)
                checked += 1
    assert checked == 1 * 2 + 8 * 4 + 113 * 8
    _announce(5, f"thick/large duality on {checked} subsets")


def test_criterion_6_ultrafilter_product_law():
    checked = 0
    for order in (1, 2, 3):
        for S in enumerate_semigroups(order):
            for p in range(order):
                for q in range(order):
                    for A in range(S.full_mask + 1):
                        # raises ProductLawViolation on any disagreement
                        got = ultrafilter_product(S, p, q, A)
                        assert got == bool((A >> S.table[p][q]) & 1)
                        checked += 1
    _announce(6, f"product rule agreement on {checked} evaluations")


def test_criterion_7_minimal_ideal_oracle():
    specs = [
        "cyclic:2", "cyclic:3", "cyclic:4",
        "dihedral:1", "dihedral:2",
        "symmetric:2",
        "rightzero:2", "rightzero:3", "rightzero:4",
        "leftzero:2", "leftzero:3", "leftzero:4",
        "null:2", "null:3", "null:4",
        "fulltransformation:2",
        "product:cyclic:2,cyclic:2",
    ]
    for spec in specs:
        S = semigroup_from_spec(spec)
        assert S.order <= 4
        got = [frozenset(elements(m)) for m in minimal_left_ideals(S)]
        expected = [frozenset(L) for L in brute_minimal_left_ideals(S)]
        assert sorted(got, key=sorted) == expected, spec
    _announce(7, f"minimal left ideals match brute force on {len(specs)} instances")


def test_criterion_8_byte_identical_reports(tmp_path, capsys):
    commands = {
        "gen": ["gen", "--family", "product:cyclic:2,cyclic:3"],
        "classify": [
            "classify", "--instance", "cyclic:6", "--base", "0,2,4",
            "--subset", "1,2",
        ],
        "verify": ["verify", "--theorem", "T2_3", "--catalog", "cyclic:6;null:3"],
        "search": [
            "search", "--group", "dihedral:3", "--cells", "2",
            "--mode", "quotient",
        ],
        "hunt": ["hunt", "--variant", "T2_3_no_extrathick", "--catalog", "order<=2"],
    }
    for verb, argv in commands.items():
        outputs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{verb}-{run_id}.out"
            flag = "--out-json" if verb == "search" else "--out"
            assert main(argv + [flag, str(out)]) == 0, verb
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1], f"{verb} reports differ between runs"
    _announce(8, "all five verbs reproduce byte-identical reports")
