"""The benchmark harness still runs against the package.

`perfbench/child.py` calls the public API by name; these runs fail here when
a name or signature it uses goes away.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
