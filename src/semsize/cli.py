"""Command-line surface: gen, classify, verify, search, hunt.

Exit codes: 0 success / no counterexample; 1 counterexample on a proved
statement or a broken proved bound; 2 input error; 3 size or time limit
exceeded.  Diagnostics go to stderr, as JSON when --json is set.  Report
files are byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from . import catalog as catalog_mod
from .classify import classify_all
from .errors import (
    BoundViolation,
    EmptyBase,
    SchemaError,
    SemsizeError,
    SizeLimitExceeded,
    TimeBudgetExceeded,
)
from .filters import make_principal
from .masks import elements, mask_of
from .partitions import MODES, BoundRecord, sweep_partitions
from .semigroups import (
    FinSemigroup,
    build_from_table,
    semigroup_from_spec,
    serialize_table,
    automorphisms,
)
from .theorems import (
    HUNT_VARIANTS,
    THEOREM_IDS,
    THEOREMS,
    VerifyConfig,
    hunt_counterexample,
    verify,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write_lines(path: Optional[str], lines: List[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _diag(args, message: str, **extra) -> None:
    if getattr(args, "json", False):
        sys.stderr.write(_dump({"error": message, **extra}) + "\n")
    else:
        sys.stderr.write(f"semsize: {message}\n")


# ---------------------------------------------------------------------------
# instance and argument parsing


def parse_instance(source: str) -> FinSemigroup:
    """A family spec string, or a path to Cayley-table JSON."""
    looks_like_file = source.endswith(".json") or os.path.exists(source)
    if not looks_like_file:
        return semigroup_from_spec(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source}: not valid JSON ({exc})") from exc
    return instance_from_payload(payload, where=source)


def instance_from_payload(payload: dict, where: str = "<payload>") -> FinSemigroup:
    if not isinstance(payload, dict):
        raise SchemaError(f"{where}: top level must be an object")
    for key in ("name", "order", "table"):
        if key not in payload:
            raise SchemaError(f"{where}: missing field {key!r}")
    name = payload["name"]
    order = payload["order"]
    table = payload["table"]
    if not isinstance(name, str):
        raise SchemaError(f"{where}: field 'name' must be a string")
    if not isinstance(order, int) or order < 1:
        raise SchemaError(f"{where}: field 'order' must be a positive integer")
    if not isinstance(table, list) or len(table) != order:
        raise SchemaError(f"{where}: field 'table' must have {order} rows")
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != order:
            raise SchemaError(f"{where}: table[{i}] must have {order} entries")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < order:
                raise SchemaError(
                    f"{where}: table[{i}][{j}] = {v!r} out of range [0,{order})"
                )
    return build_from_table(order, table, name=name)


def _parse_base(text: str, S: FinSemigroup) -> int:
    if text in ("full", "all", ""):
        return S.full_mask
    if text.endswith(".json") or os.path.exists(text):
        return _base_from_json(text, S)
    try:
        elems = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise SchemaError(f"bad base spec {text!r}") from None
    if not elems:
        raise EmptyBase("base spec names no elements")
    for e in elems:
        if not 0 <= e < S.order:
            raise SchemaError(f"base element {e} out of range [0,{S.order})")
    return mask_of(elems)


def _base_from_json(path: str, S: FinSemigroup) -> int:
    """Filter JSON: {"base": [int, ...]} against the owning semigroup."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "base" not in payload:
        raise SchemaError(f"{path}: filter JSON needs a 'base' field")
    base = payload["base"]
    if not isinstance(base, list) or not base:
        raise SchemaError(f"{path}: 'base' must be a non-empty list")
    for i, e in enumerate(base):
        if not isinstance(e, int) or not 0 <= e < S.order:
            raise SchemaError(
                f"{path}: base[{i}] = {e!r} out of range [0,{S.order})"
            )
    return mask_of(base)


def _parse_subset(text: str, S: FinSemigroup) -> int:
    if text == "":
        return 0
    if text in ("full", "all"):
        return S.full_mask
    try:
        elems = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise SchemaError(f"bad subset spec {text!r}") from None
    for e in elems:
        if not 0 <= e < S.order:
            raise SchemaError(f"subset element {e} out of range [0,{S.order})")
    return mask_of(elems)


# ---------------------------------------------------------------------------
# verbs


def _cmd_gen(args) -> int:
    S = semigroup_from_spec(args.family)
    payload = serialize_table(S)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    S = parse_instance(args.instance)
    base = _parse_base(args.base, S)
    tau = make_principal(S, base)
    A = _parse_subset(args.subset, S)
    verdicts = classify_all(S, tau, A, with_witness=True)
    wanted = None if args.predicate == "all" else args.predicate
    lines = []
    for v in verdicts:
        if wanted is not None and v.predicate != wanted:
            continue
        lines.append(
            _dump(
                {
                    "predicate": v.predicate,
                    "relative": v.relative,
                    "value": v.value,
                    "witness": None if v.witness is None else elements(v.witness),
                    "subset": elements(A),
                    "base": elements(base),
                    "semigroup": S.name,
                }
            )
        )
    _write_lines(args.out, lines)
    return EXIT_OK


def _build_catalog(args):
    override = None
    if getattr(args, "base", None):
        # one mask applied to every instance; entries it cannot fit are dropped
        try:
            parts = [int(tok) for tok in args.base.split(",") if tok != ""]
        except ValueError:
            raise SchemaError(
                f"catalog base override must be an element list, got {args.base!r}"
            ) from None
        override = (mask_of(parts),)
    return catalog_mod.build_catalog(args.catalog, base_override=override)


def _cmd_verify(args) -> int:
    ids = list(THEOREM_IDS) if args.theorem == "all" else [args.theorem]
    for tid in ids:
        if tid not in THEOREMS:
            raise SchemaError(f"unknown theorem id {tid!r}")
    entries = _build_catalog(args)
    cfg = VerifyConfig(cells=args.cells, workers=args.workers)
    lines = []
    bad = False
    for tid in ids:
        report = verify(tid, entries, catalog_label=args.catalog, cfg=cfg)
        lines.append(_dump(report.to_json_dict()))
        if report.counterexample is not None:
            bad = True
    _write_lines(args.out, lines)
    return EXIT_COUNTEREXAMPLE if bad else EXIT_OK


def _cmd_hunt(args) -> int:
    if args.variant not in HUNT_VARIANTS:
        raise SchemaError(
            f"unknown hunt variant {args.variant!r}; "
            f"known: {', '.join(sorted(HUNT_VARIANTS))}"
        )
    entries = _build_catalog(args)
    report = hunt_counterexample(
        args.variant, entries, catalog_label=args.catalog
    )
    _write_lines(args.out, [_dump(report.to_json_dict())])
    return EXIT_OK


_CSV_COLUMNS = [
    "group",
    "order",
    "base",
    "cells",
    "mode",
    "pool",
    "worst_min_F",
    "proved_bound",
    "conjecture_bound",
    "alt_bound",
    "exceeds_conjecture",
    "partitions_checked",
    "infeasible_partitions",
    "widened",
    "argmax_domain",
    "argmax_labels",
]


def _record_row(rec: BoundRecord) -> List:
    return [
        rec.group,
        rec.order,
        ",".join(str(e) for e in elements(rec.base)),
        rec.cells,
        rec.mode,
        ",".join(str(e) for e in elements(rec.pool)),
        rec.worst_min_F,
        "" if rec.proved_bound is None else rec.proved_bound,
        rec.conjecture_bound,
        "" if rec.alt_bound is None else rec.alt_bound,
        int(rec.exceeds_conjecture),
        rec.partitions_checked,
        rec.infeasible_partitions,
        int(rec.widened),
        ",".join(str(e) for e in elements(rec.argmax_partition.domain)),
        rec.argmax_partition.label_string(),
    ]


def _record_json(rec: BoundRecord) -> dict:
    return {
        "group": rec.group,
        "order": rec.order,
        "base": elements(rec.base),
        "cells": rec.cells,
        "mode": rec.mode,
        "pool": elements(rec.pool),
        "worst_min_F": rec.worst_min_F,
        "proved_bound": rec.proved_bound,
        "conjecture_bound": rec.conjecture_bound,
        "alt_bound": rec.alt_bound,
        "exceeds_conjecture": rec.exceeds_conjecture,
        "partitions_checked": rec.partitions_checked,
        "infeasible_partitions": rec.infeasible_partitions,
        "widened": rec.widened,
        "argmax_partition": {
            "domain": elements(rec.argmax_partition.domain),
            "labels": list(rec.argmax_partition.labels),
            "cells": rec.argmax_partition.cells,
        },
    }


def _checkpoint_key(args) -> str:
    blob = _dump(
        {
            "group": args.group,
            "base": args.base,
            "cells": args.cells,
            "mode": args.mode,
            "pool": args.witness_pool,
            "widen": args.widen_U,
            "symmetry": args.symmetry,
        }
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _cmd_search(args) -> int:
    S = parse_instance(args.group)
    base = _parse_base(args.base, S)
    tau = make_principal(S, base)
    pool = base if args.witness_pool is None else _parse_subset(args.witness_pool, S)
    if pool == 0:
        raise SchemaError("witness pool must be non-empty")
    if args.mode not in MODES:
        raise SchemaError(f"unknown mode {args.mode!r}")
    symmetry = None
    if args.symmetry:
        fixes = []
        for perm in automorphisms(S):
            if mask_of(perm[e] for e in elements(base)) != base:
                continue
            if mask_of(perm[e] for e in elements(pool)) != pool:
                continue
            fixes.append(perm)
        symmetry = fixes or None

    start_index = 0
    state = None
    key = _checkpoint_key(args)
    if args.checkpoint and os.path.exists(args.checkpoint):
        with open(args.checkpoint, "r", encoding="utf-8") as fh:
            try:
                saved = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(
                    f"{args.checkpoint}: not a checkpoint ({exc})"
                ) from exc
        if not isinstance(saved, dict):
            raise SchemaError(f"{args.checkpoint}: not a checkpoint (no JSON object)")
        if saved.get("key") == key:
            start_index, state = saved.get("completed"), saved.get("state")
            if not isinstance(start_index, int) or not isinstance(state, dict):
                raise SchemaError(
                    f"{args.checkpoint}: needs an integer 'completed' and an "
                    "object 'state'"
                )

    deadline = None if args.time_budget is None else time.monotonic() + args.time_budget
    holder = {}

    def progress(done, total, snapshot):
        holder["done"] = done
        holder["total"] = total
        holder["state"] = snapshot
        if deadline is not None and time.monotonic() > deadline and done < total:
            if args.checkpoint:
                with open(args.checkpoint, "w", encoding="utf-8") as fh:
                    json.dump(
                        {"key": key, "completed": done, "state": snapshot}, fh
                    )
            raise TimeBudgetExceeded(
                f"stopped after {done}/{total} partitions; checkpoint saved"
            )

    record = sweep_partitions(
        S,
        tau,
        args.cells,
        args.mode,
        V=pool,
        widen_U=args.widen_U,
        symmetry=symmetry,
        progress=progress,
        start_index=start_index,
        state=state,
    )
    if args.checkpoint and os.path.exists(args.checkpoint):
        os.remove(args.checkpoint)

    _write_lines(args.out_json, [_dump(_record_json(record))])
    if args.out_csv:
        fresh = not os.path.exists(args.out_csv)
        with open(args.out_csv, "a", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if fresh:
                writer.writerow(_CSV_COLUMNS)
            writer.writerow(_record_row(record))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semsize",
        description="Decide size predicates on finite semigroups, verify the "
        "covering theorems over instance catalogs, and sweep partitions "
        "against the covering bounds.",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-parsable errors on stderr"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="emit a family instance as Cayley-table JSON")
    p.add_argument("--family", required=True, help='e.g. "cyclic:4", "rightzero:3"')
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("classify", help="decide all size predicates for one subset")
    p.add_argument("--instance", required=True, help="family spec or JSON path")
    p.add_argument("--base", default="full", help='filter base, e.g. "0,2,4"')
    p.add_argument("--subset", required=True, help='subset, e.g. "1,3" (may be "")')
    p.add_argument(
        "--predicate",
        default="all",
        choices=["all", "large", "thick", "extrathick", "prethick", "small"],
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run a theorem checker over a catalog")
    p.add_argument("--theorem", required=True, help="a theorem id or 'all'")
    p.add_argument(
        "--catalog",
        default="default",
        help='"default", "order<=3", or family specs joined with ";"',
    )
    p.add_argument("--base", default=None, help="restrict every instance to one base")
    p.add_argument("--cells", type=int, default=2, help="partition width for T3_2")
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="partition sweep against the covering bounds")
    p.add_argument("--group", required=True, help="family spec or JSON path")
    p.add_argument("--base", default="full")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--mode", default="translate", choices=list(MODES))
    p.add_argument(
        "--witness-pool", default=None, help="pool V as elements (default: the base)"
    )
    p.add_argument(
        "--widen-U",
        action="store_true",
        help="sweep partitions of every filter member, not just the base",
    )
    p.add_argument("--symmetry", action="store_true", help="orbit-reduce partitions")
    p.add_argument("--time-budget", type=float, default=None, help="seconds")
    p.add_argument("--checkpoint", default=None, help="resume file for long sweeps")
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("hunt", help="search for counterexamples to theorem variants")
    p.add_argument(
        "--variant", required=True, help=", ".join(sorted(HUNT_VARIANTS))
    )
    p.add_argument("--catalog", default="default")
    p.add_argument("--base", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_hunt)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BoundViolation as exc:
        _diag(args, str(exc), kind="bound_violation")
        return EXIT_COUNTEREXAMPLE
    except (SizeLimitExceeded, TimeBudgetExceeded) as exc:
        _diag(args, str(exc), kind="limit")
        return EXIT_LIMIT
    except SemsizeError as exc:
        _diag(args, str(exc), kind="input")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
