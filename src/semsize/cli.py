"""Command-line surface: gen, classify, verify, search, hunt.

Exit codes: 0 success / no counterexample; 1 counterexample on a proved
statement or a broken proved bound; 2 input error; 3 size limit exceeded.
Diagnostics go to stderr, as JSON when --json is set.  Report files are
byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from . import catalog as catalog_mod
from .classify import PREDICATES, classify_all
from .errors import (
    AssociativityError,
    BoundViolation,
    DimensionError,
    EmptyBase,
    SchemaError,
    SemsizeError,
    SizeLimitExceeded,
)
from .filters import make_principal
from .masks import elements, mask_of
from .partitions import MODES, BoundRecord, sweep_order_limit, sweep_partitions
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
    VerifyConfig,
    _drive,
    hunt_counterexample,
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
    if not isinstance(name, str):
        raise SchemaError(f"{where}: field 'name' must be a string")
    try:
        return build_from_table(payload["order"], payload["table"], name=name)
    except DimensionError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    except AssociativityError as exc:
        raise AssociativityError(exc.triple, f"{where}: {exc}") from exc


def _parse_elements(text: str, what: str, order: Optional[int] = None) -> List[int]:
    """The elements of a comma-separated list; SchemaError on a token that is
    not an integer, a negative element or, given the order, one past it."""
    try:
        elems = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise SchemaError(f"bad {what} spec {text!r}") from None
    for e in elems:
        if order is not None and not 0 <= e < order:
            raise SchemaError(f"{what} element {e} out of range [0,{order})")
        if e < 0:
            raise SchemaError(f"{what} element {e} is negative")
    return elems


def _parse_base(text: str, S: FinSemigroup) -> int:
    if text in ("full", "all", ""):
        return S.full_mask
    if text.endswith(".json") or os.path.exists(text):
        return _base_from_json(text, S)
    elems = _parse_elements(text, "base", S.order)
    if not elems:
        raise EmptyBase("base spec names no elements")
    return mask_of(elems)


def _base_from_json(path: str, S: FinSemigroup) -> int:
    """Filter JSON: {"base": [int, ...]} against the owning semigroup."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "base" not in payload:
        raise SchemaError(f"{path}: filter JSON needs a 'base' field")
    base = payload["base"]
    if not isinstance(base, list) or not base:
        raise SchemaError(f"{path}: 'base' must be a non-empty list")
    for i, e in enumerate(base):
        if type(e) is not int or not 0 <= e < S.order:
            raise SchemaError(
                f"{path}: base[{i}] = {e!r} out of range [0,{S.order})"
            )
    return mask_of(base)


def _parse_subset(text: str, S: FinSemigroup, what: str) -> int:
    if text == "":
        return 0
    if text in ("full", "all"):
        return S.full_mask
    return mask_of(_parse_elements(text, what, S.order))


# ---------------------------------------------------------------------------
# verbs


def _cmd_gen(args) -> int:
    S = semigroup_from_spec(args.family)
    _write_lines(args.out, [json.dumps(serialize_table(S), indent=2, sort_keys=True)])
    return EXIT_OK


def _cmd_classify(args) -> int:
    S = parse_instance(args.instance)
    base = _parse_base(args.base, S)
    tau = make_principal(S, base)
    A = _parse_subset(args.subset, S, "subset")
    records = (
        {
            "predicate": v.predicate,
            "relative": v.relative,
            "value": v.value,
            "witness": None if v.witness is None else elements(v.witness),
            "subset": elements(A),
            "base": elements(base),
            "semigroup": S.name,
        }
        for v in classify_all(S, tau, A, with_witness=True)
        if args.predicate in ("all", v.predicate)
    )
    _write_lines(args.out, [_dump(r) for r in records])
    return EXIT_OK


def _build_catalog(args):
    override = None
    if getattr(args, "base", None):
        # one mask applied to every instance; entries it cannot fit are dropped
        elems = _parse_elements(args.base, "catalog base override")
        if not elems:
            raise EmptyBase("base spec names no elements")
        override = (mask_of(elems),)
    return catalog_mod.build_catalog(args.catalog, base_override=override)


def _cmd_verify(args) -> int:
    ids = list(THEOREM_IDS) if args.theorem == "all" else [args.theorem]
    entries = _build_catalog(args)
    cfg = VerifyConfig(cells=args.cells, workers=args.workers)
    reports = _drive("verify", ids, entries, args.catalog, cfg)
    _write_lines(args.out, [_dump(r.to_json_dict()) for r in reports])
    bad = any(r.counterexample is not None for r in reports)
    return EXIT_COUNTEREXAMPLE if bad else EXIT_OK


def _cmd_hunt(args) -> int:
    entries = _build_catalog(args)
    report = hunt_counterexample(args.variant, entries, catalog_label=args.catalog)
    _write_lines(args.out, [_dump(report.to_json_dict())])
    return EXIT_OK


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
        "alt_bound": rec.alt_bound,
        "partitions_checked": rec.partitions_checked,
        "infeasible_partitions": rec.infeasible_partitions,
        "argmax_partition": {
            "domain": elements(rec.argmax_partition.domain),
            "labels": list(rec.argmax_partition.labels),
            "cells": rec.argmax_partition.cells,
        },
    }


def _record_row(rec: BoundRecord) -> dict:
    """The CSV row of a record: its JSON fields in order, with the argmax as
    its domain and label string, lists comma-joined and None as an empty
    cell."""
    row = _record_json(rec)
    row["argmax_domain"] = row.pop("argmax_partition")["domain"]
    row["argmax_labels"] = rec.argmax_partition.label_string()
    for key, value in row.items():
        if isinstance(value, list):
            row[key] = ",".join(str(e) for e in value)
        elif value is None:
            row[key] = ""
    return row


def _cmd_search(args) -> int:
    S = parse_instance(args.group)
    base = _parse_base(args.base, S)
    tau = make_principal(S, base)
    pool = base
    if args.witness_pool is not None:
        pool = _parse_subset(args.witness_pool, S, "witness pool")

    # the sweep keeps the automorphisms that fix its base and pool; past its
    # order limit it refuses before reading them, so none are computed then
    symmetry = None
    if args.symmetry and S.order <= sweep_order_limit(args.cells):
        symmetry = automorphisms(S)
    record = sweep_partitions(S, tau, args.cells, args.mode, V=pool, symmetry=symmetry)

    _write_lines(args.out_json, [_dump(_record_json(record))])
    if args.out_csv:
        import csv

        row = _record_row(record)
        with open(args.out_csv, "a", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if fh.tell() == 0:
                writer.writerow(row.keys())
            writer.writerow(row.values())
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
        choices=("all",) + PREDICATES,
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
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--symmetry", action="store_true", help="orbit-reduce partitions")
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
    except SizeLimitExceeded as exc:
        _diag(args, str(exc), kind="limit")
        return EXIT_LIMIT
    except (SemsizeError, OSError) as exc:
        # an unreadable or unwritable path is the caller's input, not a finding
        _diag(args, str(exc), kind="input")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
