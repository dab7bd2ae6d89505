import argparse
import csv
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semsize
from semsize import (
    SchemaError,
    automorphisms,
    hunt_counterexample,
    mask_of,
    order_le_catalog,
    semigroup_from_spec,
    sweep_partitions,
    trivial_filter,
)
from semsize.cli import build_parser, main, parse_instance
from semsize.theorems import VerifyConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_round_trip_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "rz3.json"
        code, _, _ = run(capsys, "gen", "--family", "rightzero:3", "--out", str(out))
        assert code == 0
        first = out.read_bytes()
        S = parse_instance(str(out))
        assert S.order == 3 and S.table[2][1] == 1
        # serializing the parsed instance reproduces the file
        code, _, _ = run(capsys, "gen", "--family", "rightzero:3", "--out", str(out))
        assert out.read_bytes() == first

    def test_payload_shape(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "cyclic:3")
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "cyclic:3"
        assert payload["table"][1][2] == 0


class TestClassify:
    def test_z6_relative_large(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--instance",
            "cyclic:6",
            "--base",
            "0,2,4",
            "--subset",
            "2",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 5
        by_predicate = {r["predicate"]: r for r in records}
        assert by_predicate["large"]["value"] is True
        assert by_predicate["large"]["witness"] == [0, 2, 4]
        assert by_predicate["large"]["relative"] is True

    def test_single_predicate_and_empty_subset(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--instance",
            "cyclic:4",
            "--subset",
            "",
            "--predicate",
            "small",
        )
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["value"] is True and record["relative"] is False

    def test_order_27_decides_all_five_predicates(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--instance",
            "fulltransformation:3",
            "--subset",
            "0,5",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["predicate"] for r in records] == [
            "large", "thick", "extrathick", "prethick", "small",
        ]
        # the constant map 0 is in every right translate, so {0} is a
        # minimal large set that removing {0, 5} empties
        assert records[-1]["value"] is False and records[-1]["witness"] == [0]

    def test_order_256_decides_all_five_predicates(self, capsys):
        # T4 sits at the family limit; its four constant maps 0, 85, 170 and
        # 255 are its minimal ideal, which S*x equals at the constant x = 0
        code, out, _ = run(
            capsys,
            "classify",
            "--instance",
            "fulltransformation:4",
            "--subset",
            "0,85,170,255",
        )
        assert code == 0
        verdicts = {
            r["predicate"]: (r["value"], r["witness"])
            for r in map(json.loads, out.splitlines())
        }
        assert verdicts == {
            "large": (True, [0]),
            "thick": (True, [0]),
            "extrathick": (False, None),
            "prethick": (True, [0]),
            "small": (False, [0]),
        }

    def test_base_naming_no_element_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "classify", "--instance", "cyclic:4", "--base", ",",
            "--subset", "1",
        )
        assert (code, out, err) == (2, "", "semsize: base spec names no elements\n")

    @pytest.mark.parametrize("subset", ["full", "all"])
    def test_subset_full_and_all_name_every_element(self, capsys, subset):
        code, out, _ = run(
            capsys, "classify", "--instance", "cyclic:4", "--subset", subset,
            "--predicate", "large",
        )
        assert code == 0
        assert json.loads(out)["subset"] == [0, 1, 2, 3]


class TestVerify:
    def test_exit_zero_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        code, _, _ = run(
            capsys,
            "verify",
            "--theorem",
            "T2_2",
            "--catalog",
            "order<=2",
            "--out",
            str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["theorem"] == "T2_2"
        assert report["counterexample"] is None

    def test_every_proper_subgroup_base_of_order_24_is_checked(self, capsys):
        # the tables span the base's reach, which a subgroup base is itself:
        # of the 8 subgroups of Z24 and the 30 of S4 only the two full bases
        # exceed the table limit
        code, out, _ = run(
            capsys, "verify", "--theorem", "all", "--catalog", "cyclic:24;symmetric:4"
        )
        assert code == 0
        reports = {r["theorem"]: r for r in map(json.loads, out.splitlines())}
        for tid in ("T2_1", "T2_2", "T2_3", "T2_4", "T2_6", "T3_1", "C3_1",
                    "T3_5", "T3_7"):
            report = reports[tid]
            assert (report["instances_checked"], report["skipped_count"]) == (36, 2)
            assert report["effective_count"] == 36
            assert report["counterexample"] is None
        # left inverse invariance admits only the full base of a group, and
        # T3_6 no order above 8
        for tid in ("C2_5", "T3_6"):
            assert reports[tid]["instances_checked"] == 0
        # T3_2 admits the subgroup bases of 2 to 12 points, whose subsets its
        # tables span: 6 of Z24 and 28 of S4
        assert reports["T3_2"]["instances_checked"] == 34
        assert reports["T3_2"]["counterexample"] is None

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["verify", "--theorem", "T2_4", "--catalog", "cyclic:4;rightzero:3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_the_report(self, tmp_path, capsys):
        serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        argv = ["verify", "--theorem", "T2_2", "--catalog", "order<=2"]
        assert main(argv + ["--workers", "1", "--out", str(serial)]) == 0
        assert main(argv + ["--workers", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_full_order_3_catalog(self, tmp_path, capsys):
        out = tmp_path / "t22.jsonl"
        code, _, _ = run(
            capsys,
            "verify",
            "--theorem",
            "T2_2",
            "--catalog",
            "order<=3",
            "--out",
            str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["counterexample"] is None
        assert report["instances_checked"] == 1 + 8 * 3 + 113 * 7

    def test_base_restriction(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code, _, _ = run(
            capsys,
            "verify",
            "--theorem",
            "T3_1",
            "--catalog",
            "cyclic:6",
            "--base",
            "0,2,4",
            "--out",
            str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["instances_checked"] == 1


class TestSearch:
    def test_z4_translate_two_cells(self, tmp_path, capsys):
        csv_path = tmp_path / "bounds.csv"
        code, out, _ = run(
            capsys,
            "search",
            "--group",
            "cyclic:4",
            "--cells",
            "2",
            "--mode",
            "translate",
            "--out-csv",
            str(csv_path),
        )
        assert code == 0
        record = json.loads(out)
        assert record["worst_min_F"] == 2
        assert record["proved_bound"] == 2
        header, row = csv_path.read_text().splitlines()
        assert header.startswith("group,order,base,cells,mode")
        assert row.startswith("cyclic:4,4,")
        assert ",2," in row

    def test_csv_header_goes_into_an_existing_empty_file(self, tmp_path, capsys):
        csv_path = tmp_path / "bounds.csv"
        csv_path.write_text("")
        argv = ["search", "--group", "cyclic:4", "--cells", "2",
                "--out-csv", str(csv_path)]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        header, first, second = csv_path.read_text().splitlines()
        assert header.startswith("group,order,base,cells,mode")
        assert header.endswith(",argmax_domain,argmax_labels")
        assert first == second and first.startswith("cyclic:4,4,")

    def test_csv_labels_take_one_character_each(self, tmp_path, capsys):
        # at 11 cells of Z12 the labels run to 10, written as "a"
        csv_path = tmp_path / "bounds.csv"
        code, out, _ = run(
            capsys, "search", "--group", "cyclic:12", "--cells", "11",
            "--out-csv", str(csv_path),
        )
        assert code == 0
        with open(csv_path, newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        labels = json.loads(out)["argmax_partition"]["labels"]
        assert len(row["argmax_labels"]) == 12 and max(labels) == 10
        assert [int(c, 16) for c in row["argmax_labels"]] == labels

    @pytest.mark.parametrize("mode", ["translate", "quotient"])
    def test_group_modes_on_a_semigroup_exit_0(self, capsys, mode):
        argv = ["search", "--group", "rightzero:3", "--cells", "2"]
        code, out, err = run(capsys, *argv, "--mode", mode)
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert (record["worst_min_F"], record["proved_bound"]) == (1, None)
        if mode == "translate":
            # translate and delta compute one cover
            _, delta, _ = run(capsys, *argv, "--mode", "delta")
            assert record == {**json.loads(delta), "mode": "translate",
                              "alt_bound": None}

    def test_infeasible_admitted_quotient_sweep_exits_1(self, capsys, monkeypatch):
        # the full base of rightzero:3 is closed under the product, so some
        # cell of every partition must be covered
        import semsize.partitions

        monkeypatch.setattr(semsize.partitions, "_cover", lambda *args: None)
        code, out, err = run(
            capsys, "search", "--group", "rightzero:3", "--cells", "2",
            "--mode", "quotient",
        )
        assert (code, out) == (1, "")
        assert "large difference set" in err

    def test_delta_mode_on_a_semigroup_records_no_proved_bound(self, capsys):
        code, out, _ = run(
            capsys, "search", "--group", "rightzero:3", "--cells", "2",
            "--mode", "delta",
        )
        assert code == 0
        record = json.loads(out)
        assert record["proved_bound"] is None
        assert "conjecture_bound" not in record and "widened" not in record

    def test_removed_widen_option_exits_2(self, capsys):
        code, out, _ = run(
            capsys, "search", "--group", "cyclic:4", "--base", "0,2",
            "--cells", "2", "--widen-U",
        )
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "option", [["--checkpoint", "x"], ["--time-budget", "1"]],
        ids=["checkpoint", "time-budget"],
    )
    def test_removed_resume_options_exit_2(self, capsys, option):
        code, out, err = run(
            capsys, "search", "--group", "cyclic:6", "--cells", "2", *option
        )
        assert code == 2 and out == "" and "unrecognized arguments" in err

    def test_symmetry_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--group",
            "cyclic:4",
            "--cells",
            "2",
            "--symmetry",
        )
        assert code == 0
        assert json.loads(out)["worst_min_F"] == 2

    def test_library_symmetry_call_equals_the_cli_record(self, capsys):
        # the sweep itself drops the automorphisms that move the pool {1}
        z4 = semigroup_from_spec("cyclic:4")
        rec = sweep_partitions(
            z4, trivial_filter(z4), 2, "translate", V=mask_of([1]),
            symmetry=automorphisms(z4),
        )
        code, out, _ = run(
            capsys, "search", "--group", "cyclic:4", "--cells", "2",
            "--witness-pool", "1", "--symmetry",
        )
        assert code == 0
        record = json.loads(out)
        assert record["partitions_checked"] == rec.partitions_checked == 7
        assert record["infeasible_partitions"] == rec.infeasible_partitions == 3
        assert record["worst_min_F"] == rec.worst_min_F

    def test_a_subgroup_base_of_a_larger_group_sweeps(self, capsys):
        # the even residues of Z24: 12 points, so 2047 partitions at 2 cells,
        # or 623 orbits under the automorphisms that fix them
        argv = ["search", "--group", "cyclic:24", "--cells", "2",
                "--base", ",".join(str(e) for e in range(0, 24, 2))]
        for flags, checked in (([], 2047), (["--symmetry"], 623)):
            code, out, err = run(capsys, *argv, *flags)
            assert (code, err) == (0, "")
            record = json.loads(out)
            assert (record["worst_min_F"], record["proved_bound"]) == (2, 2)
            assert record["partitions_checked"] == checked

    def test_search_has_exactly_its_options(self):
        verbs = next(a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
        options = [s for a in verbs.choices["search"]._actions
                   for s in a.option_strings]
        assert options == [
            "-h", "--help", "--group", "--base", "--cells", "--mode",
            "--witness-pool", "--symmetry", "--out-json", "--out-csv",
        ]

    def test_only_symmetry_reaches_the_automorphisms(self, capsys, monkeypatch):
        # a two-point base of Z256 sweeps one partition without listing
        # the automorphisms of the whole group
        import semsize.cli as cli

        def fail(S):
            raise AssertionError("automorphisms computed")

        monkeypatch.setattr(cli, "automorphisms", fail)
        code, out, err = run(
            capsys, "search", "--group", "cyclic:256", "--base", "0,128",
            "--cells", "2",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["partitions_checked"] == 1


class TestHunt:
    def test_found_finding_still_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "hunt.jsonl"
        code, _, _ = run(
            capsys,
            "hunt",
            "--variant",
            "T2_3_no_extrathick",
            "--catalog",
            "order<=2",
            "--out",
            str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["search"] is True and report["found"] is True

    @pytest.mark.parametrize(
        "catalog, code, message",
        [
            ("null:2;nosuch:3", 2, "unknown family 'nosuch'"),
            ("null:2;cyclic:300", 3, "order 300 is above the family limit 256"),
            ("order<=4", 3, "exhaustive enumeration supports order <= 3 only"),
        ],
    )
    def test_a_finding_never_hides_a_bad_catalog_spec(
        self, capsys, catalog, code, message
    ):
        # null:2 holds a finding, and so does the order-2 head of order<=4,
        # but every spec is checked and every family built before the hunt
        # starts
        hunt = ["hunt", "--variant", "T2_3_no_extrathick", "--catalog"]
        got, out, _ = run(capsys, *hunt, "null:2")
        assert got == 0 and json.loads(out)["found"] is True
        got, out, err = run(capsys, *hunt, catalog)
        assert (got, out) == (code, "") and message in err


class TestFilterJson:
    def test_base_accepted_from_filter_json(self, tmp_path, capsys):
        filt = tmp_path / "tau.json"
        filt.write_text(json.dumps({"base": [0, 2, 4]}))
        code, out, _ = run(
            capsys,
            "classify",
            "--instance",
            "cyclic:6",
            "--base",
            str(filt),
            "--subset",
            "2",
            "--predicate",
            "large",
        )
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["value"] is True and record["base"] == [0, 2, 4]

    def test_bad_filter_json_positions(self, tmp_path, capsys):
        filt = tmp_path / "tau.json"
        filt.write_text(json.dumps({"base": [0, 9]}))
        code, _, err = run(
            capsys, "classify", "--instance", "cyclic:6",
            "--base", str(filt), "--subset", "2",
        )
        assert code == 2 and "base[1]" in err

    def test_boolean_base_element_is_input_error(self, tmp_path, capsys):
        # JSON true is not the integer 1: the filter schema says "integer"
        filt = tmp_path / "tau.json"
        filt.write_text(json.dumps({"base": [True]}))
        code, _, err = run(
            capsys, "classify", "--instance", "cyclic:2",
            "--base", str(filt), "--subset", "1",
        )
        assert code == 2 and "base[0] = True" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "not valid JSON"),
            ("[0]", "filter JSON needs a 'base' field"),
            ('{"bases": [0]}', "filter JSON needs a 'base' field"),
            ('{"base": []}', "'base' must be a non-empty list"),
            ('{"base": 0}', "'base' must be a non-empty list"),
        ],
        ids=[
            "invalid-json", "not-an-object", "no-base", "empty-base",
            "base-not-a-list",
        ],
    )
    def test_bad_filter_json_is_input_error(self, tmp_path, capsys, text, message):
        filt = tmp_path / "tau.json"
        filt.write_text(text)
        code, out, err = run(
            capsys, "classify", "--instance", "cyclic:6",
            "--base", str(filt), "--subset", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"semsize: {filt}: {message}")


class TestExitCodes:
    def test_unknown_family_is_input_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "bogus:4")
        assert code == 2 and "bogus" in err

    def test_counterexample_on_proved_theorem_exits_one(self, capsys, monkeypatch):
        # drive the failure class by injecting a spec whose claim always trips
        import semsize.theorems as theorems

        broken = theorems.Spec(lambda S, tau, tb, cfg: (1, {"claim": "forced"}))
        monkeypatch.setitem(theorems.THEOREMS, "T2_1", broken)
        code, out, _ = run(
            capsys, "verify", "--theorem", "T2_1", "--catalog", "cyclic:2"
        )
        assert code == 1
        report = json.loads(out)
        assert report["counterexample"]["detail"]["claim"] == "forced"

    def test_oversize_family_is_limit_error(self, capsys):
        for spec in ("symmetric:6", "fulltransformation:5"):
            code, _, err = run(capsys, "gen", "--family", spec)
            assert code == 3 and "above the family limit 256" in err

    @pytest.mark.parametrize(
        "spec, order",
        [
            ("cyclic:257", 257),
            ("cyclic:99999999999999999999", 99999999999999999999),
            ("dihedral:129", 258),
            ("product:cyclic:16,cyclic:16,cyclic:16", 4096),
            ("symmetric:99999999999999999999", "99999999999999999999!"),
            (
                "fulltransformation:99999999999999999999",
                "99999999999999999999^99999999999999999999",
            ),
        ],
    )
    def test_family_order_above_the_limit_is_a_limit_error(self, spec, order, capsys):
        # the order is checked before the table is allocated: unchecked, the
        # 20-digit order allocates until the process is killed; n! and n^n
        # are named, not computed
        code, out, err = run(capsys, "gen", "--family", spec)
        assert code == 3 and out == ""
        assert f"order {order} is above the family limit 256" in err

    def test_family_order_at_the_limit_builds(self):
        assert semigroup_from_spec("cyclic:256").order == 256
        assert semigroup_from_spec("product:cyclic:16,cyclic:16").order == 256

    def test_schema_error_names_the_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "order": 2, "table": [[0, 9], [0, 1]]}))
        code, _, err = run(capsys, "classify", "--instance", str(bad), "--subset", "0")
        assert code == 2
        assert "table[0][1]" in err

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"name": "b", "order": 2, "table": [[False, True], [True, False]]},
             "table[0][0] = False"),
            ({"name": "b", "order": 2, "table": [[0, 1], [1, False]]},
             "table[1][1] = False"),
            ({"name": "b", "order": True, "table": [[0]]}, "'order'"),
        ],
    )
    def test_boolean_is_not_an_integer(self, payload, where, tmp_path, capsys):
        # the Cayley-table schema says "integer", which excludes JSON booleans
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, "classify", "--instance", str(bad), "--subset", "1")
        assert code == 2 and where in err

    def test_nonassociative_table_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nonassoc.json"
        bad.write_text(
            json.dumps({"name": "x", "order": 2, "table": [[0, 0], [1, 0]]})
        )
        code, _, err = run(capsys, "classify", "--instance", str(bad), "--subset", "0")
        assert code == 2
        assert "associative" in err

    def test_nonassociative_instance_names_the_file(self, tmp_path, capsys):
        # as a bad table shape does: the diagnostic starts with the path
        bad = tmp_path / "nonassoc.json"
        bad.write_text(
            json.dumps({"name": "x", "order": 2, "table": [[0, 0], [1, 0]]})
        )
        code, out, err = run(
            capsys, "classify", "--instance", str(bad), "--subset", "0"
        )
        assert code == 2 and out == ""
        assert err == f"semsize: {bad}: not associative: (1*0)*1 != 1*(0*1)\n"

    def test_json_diagnostics(self, capsys):
        code, _, err = run(capsys, "--json", "gen", "--family", "bogus:1")
        assert code == 2
        payload = json.loads(err)
        assert payload["kind"] == "input"

    def test_bad_flags(self, capsys):
        assert main(["verify"]) == 2
        capsys.readouterr()

    def test_verify_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "T9_9")
        assert code == 2

    @pytest.mark.parametrize("base", ["-1", "0,-1", "0,x"])
    @pytest.mark.parametrize(
        "verb",
        [["verify", "--theorem", "T2_1"], ["hunt", "--variant", "T2_6_large"]],
        ids=["verify", "hunt"],
    )
    def test_bad_catalog_base_override_is_input_error(self, capsys, verb, base):
        # the override is parsed before any semigroup is known, so only a
        # negative element or a non-integer token can be refused there
        code, _, err = run(capsys, *verb, "--catalog", "cyclic:2", f"--base={base}")
        assert code == 2
        assert len(err.splitlines()) == 1 and "catalog base override" in err

    @pytest.mark.parametrize(
        "verb",
        [["verify", "--theorem", "T2_1"], ["hunt", "--variant", "T2_6_large"]],
        ids=["verify", "hunt"],
    )
    def test_empty_catalog_base_override_is_input_error(self, capsys, verb):
        # "," names no element, as it does for classify --base
        code, out, err = run(capsys, *verb, "--catalog", "cyclic:4", "--base", ",")
        assert (code, out) == (2, "")
        assert "base spec names no elements" in err

    def test_negative_worker_count_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--theorem", "T2_1", "--catalog", "cyclic:4",
            "--workers", "-3",
        )
        assert (code, out) == (2, "")
        assert "worker count -3 is negative" in err

    def test_hunt_ignores_the_environment(self, capsys, monkeypatch, fake_pool):
        # no environment variable sets the worker count of a run
        for value in ("-3", "2"):
            monkeypatch.setenv("SEMSIZE_WORKERS", value)
            code, _, _ = run(
                capsys, "hunt", "--variant", "T2_6_large", "--catalog", "order<=2"
            )
            assert code == 0
        assert fake_pool == []

    def test_the_pool_is_sized_to_its_tasks(self, capsys, fake_pool):
        # one task per catalog semigroup with an instance to decide: two,
        # however many workers are asked
        code, _, _ = run(
            capsys, "verify", "--theorem", "all", "--catalog", "cyclic:2;cyclic:3",
            "--workers", "64",
        )
        assert code == 0
        assert [pool.processes for pool in fake_pool] == [2]

    @pytest.mark.parametrize(
        "theorem, catalog", [("T2_1", "cyclic:4"), ("T3_2", "rightzero:3")]
    )
    def test_zero_cells_is_input_error_on_verify(self, capsys, theorem, catalog):
        # refused up front, not only where T3_2 admits an instance
        code, out, err = run(
            capsys, "verify", "--theorem", theorem, "--catalog", catalog,
            "--cells", "0",
        )
        assert (code, out, err) == (2, "", "semsize: need at least one cell\n")

    @pytest.mark.parametrize("spec", [";", " ; "])
    @pytest.mark.parametrize(
        "verb",
        [["verify", "--theorem", "T2_1"], ["hunt", "--variant", "T2_6_large"]],
        ids=["verify", "hunt"],
    )
    def test_catalog_naming_no_family_is_input_error(self, capsys, verb, spec):
        code, out, err = run(capsys, *verb, "--catalog", spec)
        assert (code, out) == (2, "")
        assert err == f"semsize: bad catalog spec {spec!r}\n"

    def test_catalog_base_override_drops_the_entries_it_cannot_fit(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "T2_1",
            "--catalog", "cyclic:2;cyclic:6", "--base", "0,4",
        )
        assert code == 0
        assert json.loads(out)["instances_checked"] == 1

    def test_sweep_order_limit_comes_before_the_automorphisms(
        self, capsys, monkeypatch
    ):
        # an order the sweep refuses gets no automorphism search
        import semsize.cli as cli

        def fail(S):
            raise AssertionError("automorphisms computed")

        monkeypatch.setattr(cli, "automorphisms", fail)
        code, out, err = run(
            capsys, "search", "--group", "cyclic:13", "--cells", "2", "--symmetry",
        )
        assert (code, out) == (3, "")
        assert err == "semsize: table over 13 points is above the table limit 12\n"

    def test_too_many_automorphisms_is_a_limit_error(self, capsys):
        # leftzero:9 has 9! automorphisms; the search stops past 720
        start = time.perf_counter()
        code, _, _ = run(
            capsys, "search", "--group", "leftzero:9", "--cells", "2",
            "--mode", "delta", "--symmetry",
        )
        assert code == 3
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "not valid JSON"),
            ("[]", "top level must be an object"),
            ('{"name": "x", "order": 1}', "missing field 'table'"),
            ('{"name": 1, "order": 1, "table": [[0]]}',
             "field 'name' must be a string"),
        ],
        ids=["invalid-json", "not-an-object", "missing-field", "name-not-a-string"],
    )
    def test_bad_instance_json_is_input_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "table.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
            parse_instance(str(path))
        code, out, err = run(
            capsys, "classify", "--instance", str(path), "--subset", "0"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"semsize: {path}: {message}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cyclic:12", "--cells", "0"], "need at least one cell"),
            (["cyclic:12", "--cells", "-1"], "need at least one cell"),
            (["cyclic:12", "--cells", "13"],
             "no 13-cell partitions of the base (base too small)"),
            (["cyclic:13", "--base", "0", "--cells", "2"],
             "no 2-cell partitions of the base (base too small)"),
        ],
        ids=["zero-cells", "negative-cells", "cells-past-the-base", "one-point-base"],
    )
    def test_bad_cells_are_input_errors_at_any_order(
        self, capsys, monkeypatch, argv, message
    ):
        # checked before the sweep limit, and before any automorphism search
        import semsize.cli as cli

        def fail(S):
            raise AssertionError("automorphisms computed")

        monkeypatch.setattr(cli, "automorphisms", fail)
        for flags in ([], ["--symmetry"]):
            code, out, err = run(capsys, "search", "--group", *argv, *flags)
            assert (code, out, err) == (2, "", f"semsize: {message}\n")

    def test_zero_cells_is_input_error(self, capsys):
        code, out, err = run(capsys, "search", "--group", "cyclic:4", "--cells", "0")
        assert (code, out, err) == (2, "", "semsize: need at least one cell\n")

    def test_more_cells_than_base_points_is_input_error(self, capsys):
        code, out, err = run(capsys, "search", "--group", "cyclic:4", "--cells", "5")
        assert (code, out) == (2, "")
        assert err == "semsize: no 5-cell partitions of the base (base too small)\n"

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_order_catalog_below_one_is_input_error(self, capsys, bound):
        code, out, err = run(
            capsys, "verify", "--theorem", "T2_1", "--catalog", f"order<={bound}"
        )
        assert (code, out) == (2, "")
        assert err == f"semsize: bad catalog spec 'order<={bound}'\n"

    @pytest.mark.parametrize("element", ["9", "-1"])
    def test_witness_pool_element_out_of_range_names_the_flag(self, capsys, element):
        code, out, err = run(
            capsys, "search", "--group", "cyclic:4", "--cells", "2",
            f"--witness-pool={element}",
        )
        assert (code, out) == (2, "")
        assert err == f"semsize: witness pool element {element} out of range [0,4)\n"

    def test_restricted_pool_with_no_feasible_partition_is_a_limit(self, capsys):
        # the pool {0} misses the base, so the proved bound does not apply
        code, _, err = run(
            capsys, "search", "--group", "cyclic:2", "--cells", "2",
            "--witness-pool", "0",
        )
        assert code == 3 and "no feasible partition" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--instance", "{tmp}/no/such/table.json", "--subset", "1"],
            ["classify", "--instance", "cyclic:4", "--subset", "1",
             "--out", "{tmp}/no/such/dir/x.json"],
            ["search", "--group", "cyclic:6", "--cells", "2",
             "--out-json", "{tmp}/no/such/dir/x.json"],
            ["search", "--group", "cyclic:6", "--cells", "2",
             "--out-csv", "{tmp}/no/such/dir/x.csv"],
        ],
        ids=[
            "unreadable-instance",
            "unwritable-out",
            "unwritable-search-json",
            "unwritable-search-csv",
        ],
    )
    def test_file_error_is_input_error(self, tmp_path, capsys, argv):
        # exit 1 is reserved for counterexamples; a path that cannot be read
        # or written is the caller's input
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1 and str(tmp_path) in err

    @pytest.mark.parametrize("verb", ["verify", "hunt"])
    def test_a_parallel_run_opens_one_pool(self, capsys, monkeypatch, verb):
        # hunt has no worker flag; the library call still takes a config
        import multiprocessing

        opened = []
        real_pool = multiprocessing.Pool

        def counting_pool(*args, **kwargs):
            opened.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
        if verb == "verify":
            code, _, _ = run(
                capsys, "verify", "--theorem", "all", "--catalog", "order<=2",
                "--workers", "2",
            )
            assert code == 0
        else:
            report = hunt_counterexample(
                "T3_6_semigroup", order_le_catalog(2), cfg=VerifyConfig(workers=2)
            )
            assert not report.found
        assert opened == [(2,)]

    def test_internal_value_error_is_not_an_input_error(self, capsys, monkeypatch):
        import semsize.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "classify_all", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["classify", "--instance", "cyclic:2", "--subset", "0"])


def test_readme_commands_exit_0(tmp_path, capsys, monkeypatch):
    # every command of the README's "Command line" block runs as shown
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("semsize ")]
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


_SEARCH = """
import runpy, sys
sys.argv = ["semsize", "search", "--group", "{group}", "--cells", "{cells}"]
try:
    runpy.run_module("semsize", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def _loaded(code, modules):
    """The names among `modules` in sys.modules after `code` runs in a new
    interpreter, as the probe prints them."""
    probe = code + f"\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "code",
    ["import semsize.cli", _SEARCH.format(group="cyclic:4", cells=2)],
    ids=["import", "search"],
)
def test_startup_loads_no_dataclasses_inspect_or_csv(code):
    # each search process pays for what the package imports; dataclasses
    # pulls in inspect, and csv is needed only for --out-csv
    assert _loaded(code, ("csv", "dataclasses", "inspect")) == "[]"


def test_search_loads_no_theorems_catalog_or_literal():
    # the package resolves its names on first use and the CLI imports the
    # theorem checkers and the catalog only for verify and hunt
    code = _SEARCH.format(group="cyclic:8", cells=3)
    modules = ("semsize.theorems", "semsize.catalog", "semsize.literal")
    assert _loaded(code, modules) == "[]"


def test_import_semsize_loads_no_module():
    names = tuple(
        "semsize." + info.name for info in pkgutil.iter_modules(semsize.__path__)
    )
    assert _loaded("import semsize", names) == "[]"
