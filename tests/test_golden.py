"""Byte-for-byte report fixtures for `verify`, `hunt`, `search` and `classify`.

The files under tests/golden/ were written by the CLI before the theorem
checkers were rewritten as a spec table; any change to a report line (counts,
counterexample payload, notes, key order) shows up here as a diff.  Two of the
hunt fixtures carry counterexample payloads, so the counterexample builder is
pinned too.  The search fixtures pin the JSON record and the appended CSV rows
of the partition sweep; the classify fixture pins all five verdicts, with
their witnesses, on every subset of two small instances.
"""

from pathlib import Path

import pytest

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


SEARCH_CASES = [
    ["--group", "cyclic:6", "--cells", "2", "--mode", "quotient"],
    ["--group", "cyclic:6", "--cells", "2", "--mode", "translate"],
    ["--group", "cyclic:6", "--cells", "2", "--mode", "delta"],
    ["--group", "dihedral:4", "--cells", "3"],
    ["--group", "cyclic:12", "--cells", "2", "--symmetry"],
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
