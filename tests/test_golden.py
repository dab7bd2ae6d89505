"""Byte-for-byte report fixtures for `verify`, `hunt`, `search` and `classify`.

The files under tests/golden/ were written by the CLI before the theorem
checkers were rewritten as a spec table; any change to a report line (counts,
counterexample payload, notes, key order) shows up here as a diff.  Two of the
hunt fixtures carry counterexample payloads, so the counterexample builder is
pinned too.  The default-catalog fixtures were written before the checkers
read whole-mask tables and T3_5 (iii) was counted from (i); the T3_5, T3_6
and T3_7 lines of the four verify fixtures were rewritten when those
statements moved to the hypothesis U0*U0 <= U0, and no other line changed
then.  The verify and T3_6_semigroup hunt fixtures of `default` were
rewritten when that catalog dropped the 8 family entries that repeat a
labeled table, from a run of the earlier code over the catalog without
them.  The T3_5 lines of the four verify fixtures were rewritten when T3_5
stopped counting the 2- and 3-cell partitions of its prethick sets up to
order 6, as (iii) is proved from (i) and never swept: its assertions became
2^order per admitted instance, and no other field or line changed.  The
search fixtures pin the JSON record and the appended CSV rows of
the partition sweep; their last six lines, every benchmark search the first
seven lack and a base with infeasible partitions, were written by the sweep
before it read its cells from the enumerator.  The classify fixture pins all
five verdicts, with their witnesses, on every subset of two small instances.  The families fixture
pins the Cayley table of every named family at several sizes, and of six
products, as written before the families shared one table constructor.
"""

import json
from pathlib import Path

import pytest

from conftest import isomorphism_class

import semsize.theorems as theorems
from semsize import FAMILY_NAMES, order_le_catalog, semigroup_from_spec, serialize_table
from semsize.cli import main
from semsize.masks import elements

GOLDEN = Path(__file__).parent / "golden"
MIXED = "fulltransformation:2;symmetric:3;cyclic:6;rightzero:4;null:4"

CASES = {
    "verify_all_order3.jsonl": ["verify", "--theorem", "all", "--catalog", "order<=3"],
    "verify_all_mixed.jsonl": ["verify", "--theorem", "all", "--catalog", MIXED],
    "verify_all_mixed_cells3.jsonl": [
        "verify", "--theorem", "all", "--catalog", MIXED, "--cells", "3",
    ],
    "hunt_T2_6_large_order3.jsonl": [
        "hunt", "--variant", "T2_6_large", "--catalog", "order<=3",
    ],
    "hunt_T2_3_no_extrathick_order3.jsonl": [
        "hunt", "--variant", "T2_3_no_extrathick", "--catalog", "order<=3",
    ],
    "hunt_T3_6_semigroup_order3.jsonl": [
        "hunt", "--variant", "T3_6_semigroup", "--catalog", "order<=3",
    ],
    "verify_all_default.jsonl": ["verify", "--theorem", "all", "--catalog", "default"],
    **{
        f"hunt_{variant}_default.jsonl": [
            "hunt", "--variant", variant, "--catalog", "default",
        ]
        for variant in ("T2_6_large", "T2_3_no_extrathick", "T3_6_semigroup")
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_parallel_verify_matches_golden(tmp_path, capsys):
    # each task pickles its semigroups as (table, name), all that a worker
    # needs to rebuild them
    name = "verify_all_order3.jsonl"
    out = tmp_path / name
    assert main(CASES[name] + ["--workers", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failing_theorem_stops_only_itself(workers, tmp_path, capsys, monkeypatch):
    # T2_1 is made to fail on every instance isomorphic to the first base of
    # the catalog's last semigroup, {0} in n3-112: a fault a theorem could
    # have, as it names no label.  The first of its six instances is {1} in
    # n3-0, the 27th instance; the pool forks, so its workers see the
    # patched table
    last = order_le_catalog(3)[-1]
    target = isomorphism_class(last.semigroup, last.bases[0])

    def fails_on_class(S, tau, tb, cfg):
        if isomorphism_class(S, tau.base) == target:
            return 1, {"claim": "injected"}
        return 1, None

    spec = theorems.THEOREMS["T2_1"]._replace(claim=fails_on_class)
    monkeypatch.setitem(theorems.THEOREMS, "T2_1", spec)
    name = "verify_all_order3.jsonl"
    out = tmp_path / name
    assert main(CASES[name] + ["--workers", workers, "--out", str(out)]) == 1
    capsys.readouterr()
    got = out.read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert got[1:] == want[1:]
    report, golden = json.loads(got[0]), json.loads(want[0])
    ce = report["counterexample"]
    assert report["theorem"] == "T2_1"
    assert (ce["semigroup"], ce["base"]) == ("n3-0", [1])
    assert ce["detail"] == {"claim": "injected"}
    assert (report["instances_checked"], golden["instances_checked"]) == (27, 816)


SEARCH_CASES = [
    ["--group", "cyclic:6", "--cells", "2", "--mode", "quotient"],
    ["--group", "cyclic:6", "--cells", "2", "--mode", "translate"],
    ["--group", "cyclic:6", "--cells", "2", "--mode", "delta"],
    ["--group", "dihedral:4", "--cells", "3"],
    ["--group", "cyclic:12", "--cells", "2", "--symmetry"],
    ["--group", "quaternion8", "--cells", "3", "--symmetry"],
    ["--group", "product:cyclic:2,cyclic:2,cyclic:2", "--cells", "3", "--symmetry"],
    ["--group", "cyclic:12", "--cells", "2", "--mode", "translate"],
    ["--group", "cyclic:12", "--cells", "2", "--mode", "quotient"],
    ["--group", "cyclic:12", "--cells", "2", "--mode", "delta"],
    ["--group", "cyclic:8", "--cells", "3"],
    ["--group", "product:cyclic:2,cyclic:4", "--cells", "3"],
    ["--group", "cyclic:6", "--base", "0,1,2", "--cells", "2", "--mode", "quotient"],
]


def test_search_records_match_golden(tmp_path, capsys):
    # every case appends one row to the same CSV, so the header is pinned once
    csv_path = tmp_path / "search.csv"
    records = b""
    for i, case in enumerate(SEARCH_CASES):
        out = tmp_path / f"search_{i}.jsonl"
        argv = ["search", *case, "--out-json", str(out), "--out-csv", str(csv_path)]
        assert main(argv) == 0
        records += out.read_bytes()
    capsys.readouterr()
    assert records == (GOLDEN / "search.jsonl").read_bytes()
    assert csv_path.read_bytes() == (GOLDEN / "search.csv").read_bytes()


CLASSIFY_CASES = [("cyclic:6", "0,2,4", 6), ("rightzero:4", "0,1", 4)]


def test_classify_every_subset_matches_golden(tmp_path, capsys):
    out = tmp_path / "classify.jsonl"
    lines = b""
    for spec, base, order in CLASSIFY_CASES:
        for A in range(1 << order):
            subset = ",".join(str(e) for e in elements(A))
            argv = ["classify", "--instance", spec, "--base", base,
                    "--subset", subset, "--out", str(out)]
            assert main(argv) == 0
            lines += out.read_bytes()
    capsys.readouterr()
    assert lines == (GOLDEN / "classify_subsets.jsonl").read_bytes()


def test_family_tables_match_golden():
    # each line's name is its own family spec
    want = (GOLDEN / "families.jsonl").read_bytes()
    names = [json.loads(line)["name"] for line in want.splitlines()]
    got = b"".join(
        json.dumps(
            serialize_table(semigroup_from_spec(name)),
            sort_keys=True, separators=(",", ":"),
        ).encode() + b"\n"
        for name in names
    )
    assert got == want
    assert {name.partition(":")[0] for name in names} == set(FAMILY_NAMES)
