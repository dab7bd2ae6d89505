import json

import pytest

from semsize.cli import main, parse_instance


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

    def test_time_budget_checkpoint_and_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.ckpt"
        argv = [
            "search",
            "--group",
            "cyclic:6",
            "--cells",
            "2",
            "--mode",
            "translate",
            "--checkpoint",
            str(ckpt),
        ]
        code = main(argv + ["--time-budget", "0.0"])
        capsys.readouterr()
        assert code == 3
        assert ckpt.exists()
        saved = json.loads(ckpt.read_text())
        assert saved["completed"] >= 1
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert not ckpt.exists()
        resumed = json.loads(out)
        code, fresh_out, _ = run(
            capsys,
            "search",
            "--group",
            "cyclic:6",
            "--cells",
            "2",
            "--mode",
            "translate",
        )
        assert json.loads(fresh_out) == resumed

    def test_widen_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--group",
            "cyclic:4",
            "--base",
            "0,2",
            "--cells",
            "2",
            "--widen-U",
        )
        assert code == 0
        record = json.loads(out)
        assert record["widened"] is True
        assert record["partitions_checked"] == 14

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
        code, _, _ = run(capsys, "gen", "--family", "symmetric:5")
        assert code == 3

    def test_schema_error_names_the_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "order": 2, "table": [[0, 9], [0, 1]]}))
        code, _, err = run(capsys, "classify", "--instance", str(bad), "--subset", "0")
        assert code == 2
        assert "table[0][1]" in err

    def test_nonassociative_table_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nonassoc.json"
        bad.write_text(
            json.dumps({"name": "x", "order": 2, "table": [[0, 0], [1, 0]]})
        )
        code, _, err = run(capsys, "classify", "--instance", str(bad), "--subset", "0")
        assert code == 2
        assert "associative" in err

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

    def test_zero_cells_is_input_error(self, capsys):
        code, _, err = run(capsys, "search", "--group", "cyclic:4", "--cells", "0")
        assert code == 2 and "at least one cell" in err

    def test_more_cells_than_base_points_is_input_error(self, capsys):
        code, _, err = run(capsys, "search", "--group", "cyclic:4", "--cells", "5")
        assert code == 2 and "no 5-cell partitions" in err

    def test_unparsable_checkpoint_is_input_error(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.ckpt"
        ckpt.write_text("{not json")
        code, _, err = run(
            capsys, "search", "--group", "cyclic:4", "--cells", "2",
            "--checkpoint", str(ckpt),
        )
        assert code == 2 and "not a checkpoint" in err

    def test_checkpoint_without_an_object_is_input_error(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.ckpt"
        ckpt.write_text("[]")
        code, _, err = run(
            capsys, "search", "--group", "cyclic:4", "--cells", "2",
            "--checkpoint", str(ckpt),
        )
        assert code == 2 and "not a checkpoint" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [("completed", "3", "'completed'"), ("state", [], "'state'")],
    )
    def test_malformed_matching_checkpoint_is_input_error(
        self, tmp_path, capsys, field, value, message
    ):
        ckpt = tmp_path / "sweep.ckpt"
        argv = ["search", "--group", "cyclic:6", "--cells", "2",
                "--checkpoint", str(ckpt)]
        assert main(argv + ["--time-budget", "0.0"]) == 3
        capsys.readouterr()
        saved = json.loads(ckpt.read_text())
        saved[field] = value
        ckpt.write_text(json.dumps(saved))
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err

    def test_internal_value_error_is_not_an_input_error(self, capsys, monkeypatch):
        import semsize.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "classify_all", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["classify", "--instance", "cyclic:2", "--subset", "0"])
