"""Workload definitions and output checks shared by run.py and child.py.

An operation is one CLI invocation (a dict with the verb and its options) or
one classify query.  The checks read meaning, not bytes: a report field added
later is ignored, a verdict or count that changes is a failure.
"""

from __future__ import annotations

import json
import random

THEOREM_IDS = (
    "T2_1", "T2_2", "T2_3", "T2_4", "C2_5", "T2_6",
    "T3_1", "C3_1", "T3_2", "T3_5", "T3_6", "T3_7",
)

# hunt variant -> the `found` flag it must report on the default catalog
HUNT_FOUND = {
    "T2_6_large": True,
    "T2_3_no_extrathick": True,
    "T3_6_semigroup": False,
}

ORDER8_GROUPS = (
    "dihedral:4",
    "quaternion8",
    "cyclic:8",
    "product:cyclic:2,cyclic:4",
    "product:cyclic:2,cyclic:2,cyclic:2",
)

# Expected partition counts: Stirling numbers S(12, 2) and S(8, 3), and the
# number of orbits of 2-partitions of Z12 under its four automorphisms.
PARTITIONS_Z12_2 = 2047
PARTITIONS_ORDER8_3 = 966
PARTITIONS_Z12_2_SYMMETRY = 623

VERIFY_ALL = {"verb": "verify", "theorem": "all", "catalog": "default"}
HUNTS = tuple(
    {"verb": "hunt", "variant": v, "catalog": "default"} for v in HUNT_FOUND
)
SEARCHES = tuple(
    [{"verb": "search", "group": "cyclic:12", "cells": 2, "mode": m}
     for m in ("translate", "quotient", "delta")]
    + [{"verb": "search", "group": g, "cells": 3, "mode": "translate"}
       for g in ORDER8_GROUPS]
    + [{"verb": "search", "group": "cyclic:12", "cells": 2,
        "mode": "translate", "symmetry": True}]
)
# Run by the traced layer run only: as a timed workload it could not be made
# steady on two shared cores, nor could the classify query batch
# (see perfbench/README.md).
VERIFY_PARALLEL = dict(VERIFY_ALL, workers=2)

# The operations of one pass of each workload.
CLI_OPS = {
    "verify_catalog": (VERIFY_ALL,) + HUNTS,
    "sweep_bounds": SEARCHES,
}
WORKLOADS = ("verify_catalog", "sweep_bounds")

# the order classify_all returns its verdicts in
PREDICATES = ("large", "thick", "extrathick", "prethick", "small")
QUERY_BATCH = 1200
LITERAL_ORDER_LIMIT = 5


def argv(op: dict) -> list:
    """The semsize command line for an operation."""
    out = [op["verb"]]
    for key, value in op.items():
        if key == "verb":
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            out.append(flag)
        else:
            out += [flag, str(value)]
    return out


def op_name(op: dict) -> str:
    if op["verb"] == "verify":
        return "verify" + ("_parallel" if op.get("workers") else "")
    if op["verb"] == "hunt":
        return "hunt." + op["variant"]
    name = f"search.{op['group']}.{op['cells']}.{op['mode']}"
    return name + (".symmetry" if op.get("symmetry") else "")


def expected_partitions(op: dict) -> int:
    if op.get("symmetry"):
        return PARTITIONS_Z12_2_SYMMETRY
    return PARTITIONS_Z12_2 if op["cells"] == 2 else PARTITIONS_ORDER8_3


def check_op(op: dict, returncode: int, stdout: str):
    """Return (problem or None, parsed report records) for one operation."""
    if returncode != 0:
        return f"exit code {returncode}", []
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return f"output is not JSON lines ({exc})", []
    verb = op["verb"]
    if verb == "verify":
        ids = tuple(r.get("theorem") for r in records)
        if ids != THEOREM_IDS:
            return f"expected reports for {THEOREM_IDS}, got {ids}", records
        for r in records:
            if r.get("counterexample") is not None:
                return f"{r['theorem']}: counterexample reported", records
            if r.get("vacuity_warning") is not False:
                return f"{r['theorem']}: vacuity warning", records
        return None, records
    if len(records) != 1:
        return f"expected one record, got {len(records)}", records
    r = records[0]
    if verb == "hunt":
        want = HUNT_FOUND[op["variant"]]
        if r.get("found") is not want:
            return f"{op['variant']}: found={r.get('found')!r}, expected {want}", records
        return None, records
    # translate and quotient sweeps carry the proved bound; delta sweeps only
    # the alternative bound 2^(2^n)
    bound = r.get("proved_bound")
    if bound is None:
        bound = r.get("alt_bound")
    if not isinstance(bound, int) or r.get("worst_min_F", bound + 1) > bound:
        return f"worst_min_F {r.get('worst_min_F')} above bound {bound}", records
    if r.get("infeasible_partitions") != 0:
        return f"{r.get('infeasible_partitions')} infeasible partitions", records
    if r.get("partitions_checked") != expected_partitions(op):
        return (f"{r.get('partitions_checked')} partitions, expected "
                f"{expected_partitions(op)}"), records
    return None, records


# ---------------------------------------------------------------------------
# classify query batches


def instances_by_order(catalog) -> dict:
    """order -> [(semigroup, base), ...] over a catalog, in catalog order."""
    pool: dict = {}
    for entry in catalog:
        for base in entry.bases:
            pool.setdefault(entry.semigroup.order, []).append((entry.semigroup, base))
    return pool


def query_batch(pool: dict, seed: int, count: int) -> list:
    """Seeded queries as (order, instance index, subset mask).

    Each query draws its order uniformly over the orders in the pool, then an
    instance of that order and a uniform subset.  Orders are drawn in shuffled
    rounds, so every batch holds each order equally often.
    """
    rng = random.Random(f"{seed}:queries")
    orders = sorted(pool)
    out = []
    while len(out) < count:
        rnd = list(orders)
        rng.shuffle(rnd)
        for order in rnd:
            idx = rng.randrange(len(pool[order]))
            out.append((order, idx, rng.getrandbits(order)))
    return out[:count]
