"""Byte-for-byte report fixtures for `verify` and `hunt`.

The files under tests/golden/ were written by the CLI before the theorem
checkers were rewritten as a spec table; any change to a report line (counts,
counterexample payload, notes, key order) shows up here as a diff.  Two of the
hunt fixtures carry counterexample payloads, so the counterexample builder is
pinned too.
"""

from pathlib import Path

import pytest

from semsize.cli import main

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
