"""The benchmark harness still runs against the package.

`perfbench/child.py` calls the public API by name; these runs fail here when
a name or signature it uses goes away.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _child(*argv):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return subprocess.run(
        [sys.executable, "child.py", *argv],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_layers_run():
    proc = _child("layers", "1")
    assert proc.returncode == 0, proc.stderr
    assert "partitions.min_cover_ns" in json.loads(proc.stdout)


def test_delta_search_op_meets_the_proved_bound():
    op = {"verb": "search", "group": "cyclic:6", "cells": 2, "mode": "delta"}
    proc = _child("op", json.dumps(op), "0")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[0])
    assert (record["worst_min_F"], record["proved_bound"]) == (2, 2)


def _workloads():
    """perfbench/workloads.py, imported without writing bytecode there."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _checked_op(wl, op):
    """The op's report records, run as the benchmark runs it and passed
    through the benchmark's own check."""
    proc = _child("op", json.dumps(op), "0")
    report = "\n".join(proc.stdout.splitlines()[:-1])  # drop the span line
    problem, records = wl.check_op(op, proc.returncode, report)
    assert problem is None, (problem, proc.stderr)
    return records


def test_symmetry_search_op_passes_the_benchmark_check():
    # the benchmark's check pins the orbit count (623 for Z12 at 2 cells)
    wl = _workloads()
    op = next(op for op in wl.SEARCHES if op.get("symmetry"))
    records = _checked_op(wl, op)
    assert records[0]["partitions_checked"] == wl.PARTITIONS_Z12_2_SYMMETRY == 623


@pytest.mark.parametrize("mode", ["translate", "quotient", "delta"])
def test_two_cell_mode_op_passes_the_benchmark_check(mode):
    # the Z12 two-cell sweep in each cover mode, as the benchmark runs it
    wl = _workloads()
    op = next(op for op in wl.SEARCHES if op["group"] == "cyclic:12"
              and op["mode"] == mode and not op.get("symmetry"))
    records = _checked_op(wl, op)
    assert records[0]["partitions_checked"] == wl.PARTITIONS_Z12_2 == 2047
    assert records[0]["infeasible_partitions"] == 0


def test_three_cell_ops_pass_the_benchmark_check():
    # the five order-8 three-cell sweeps, as the benchmark runs them
    wl = _workloads()
    ops = [op for op in wl.SEARCHES if op["cells"] == 3]
    assert [op["group"] for op in ops] == list(wl.ORDER8_GROUPS)
    for op in ops:
        records = _checked_op(wl, op)
        assert records[0]["partitions_checked"] == wl.PARTITIONS_ORDER8_3 == 966


def test_verify_all_op_passes_the_benchmark_check():
    # twelve reports on the default catalog, none with a counterexample
    wl = _workloads()
    records = _checked_op(wl, wl.VERIFY_ALL)
    assert len(records) == len(wl.THEOREM_IDS) == 12


@pytest.mark.parametrize(
    "variant, found",
    [("T2_6_large", True), ("T2_3_no_extrathick", True),
     ("T3_6_semigroup", False)],
)
def test_hunt_op_passes_the_benchmark_check(variant, found):
    wl = _workloads()
    op = next(op for op in wl.HUNTS if op["variant"] == variant)
    assert _checked_op(wl, op)[0]["found"] is found
