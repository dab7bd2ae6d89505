"""Work run.py starts in fresh interpreters, one process per repetition.

    python3 perfbench/child.py setup WORKLOAD
    python3 perfbench/child.py op OP_JSON TRACE
    python3 perfbench/child.py queries SEED COUNT
    python3 perfbench/child.py layers SEED

`setup` builds a workload's inputs and exits.  `op` runs one CLI operation
through the library API with a span around each public call and prints the
report lines the CLI would print, then a line of span totals (empty when
TRACE is 0).  `queries` runs a seeded classify batch with a span per
predicate and prints the span totals and the verdicts.  `layers` times the
public functions of each module in isolation.

Spans are recorded only here, around the calls into semsize; nothing inside
the package is instrumented.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager, nullcontext

import workloads as wl


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def totals(self) -> dict:
        out: dict = {}
        for name, start, end, _parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


class NullTracer(Tracer):
    """Tracing off: the same calls with no span recorded."""

    def span(self, name):
        return nullcontext()


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def setup_inputs(workload: str):
    """Import the package and build what the workload's first call needs."""
    import semsize

    if workload == "sweep_bounds":
        out = []
        for op in wl.SEARCHES:
            S = semsize.semigroup_from_spec(op["group"])
            out.append((S, semsize.make_principal(S, S.full_mask)))
        return out
    return semsize.default_catalog()


def run_queries(seed: int, count: int) -> dict:
    """classify_all(S, tau, A, with_witness=True), one predicate per span."""
    import semsize

    pool = wl.instances_by_order(semsize.default_catalog())
    predicates = [("classify." + p, getattr(semsize, "is_tau_" + p))
                  for p in wl.PREDICATES]
    tracer = Tracer()
    verdicts = []
    for order, idx, A in wl.query_batch(pool, seed, count):
        S, base = pool[order][idx]
        tau = semsize.make_principal(S, base)
        result = []
        for name, fn in predicates:
            with tracer.span(name):
                result.append(fn(S, tau, A, True))
        verdicts.append("".join("1" if v.value else "0" for v in result))
    return {"verdicts": verdicts, "spans": tracer.totals()}


def run_op(op: dict, trace: bool) -> None:
    import semsize

    tracer = Tracer() if trace else NullTracer()
    counts = {}
    lines = []
    verb = op["verb"]
    if verb in ("verify", "hunt"):
        with tracer.span("catalog.build_catalog"):
            entries = semsize.build_catalog(op["catalog"])
        if verb == "verify":
            cfg = semsize.VerifyConfig(cells=2, workers=op.get("workers", 0))
            for tid in semsize.THEOREM_IDS:
                with tracer.span("theorems.verify." + tid):
                    report = semsize.verify(tid, entries, op["catalog"], cfg)
                lines.append(_dump(report.to_json_dict()))
        else:
            with tracer.span("theorems.hunt." + op["variant"]):
                report = semsize.hunt_counterexample(
                    op["variant"], entries, op["catalog"])
            lines.append(_dump(report.to_json_dict()))
    else:
        with tracer.span("semigroups.semigroup_from_spec"):
            S = semsize.semigroup_from_spec(op["group"])
        tau = semsize.make_principal(S, S.full_mask)
        symmetry = None
        if op.get("symmetry"):
            with tracer.span("semigroups.automorphisms"):
                symmetry = semsize.automorphisms(S)
            counts["semigroups.automorphisms_found"] = len(symmetry)
        with tracer.span("partitions.sweep_partitions." + op["mode"]):
            rec = semsize.sweep_partitions(
                S, tau, op["cells"], op["mode"], V=S.full_mask,
                symmetry=symmetry or None)
        lines.append(_dump({
            "worst_min_F": rec.worst_min_F,
            "proved_bound": rec.proved_bound,
            "alt_bound": rec.alt_bound,
            "infeasible_partitions": rec.infeasible_partitions,
            "partitions_checked": rec.partitions_checked,
        }))
    # time inside the library: the top-level spans, which cover every call
    api_s = sum(end - start for _n, start, end, parent in tracer.spans
                if parent is None)
    for line in lines:
        print(line)
    print(_dump({"totals": tracer.totals(), "counts": counts, "api_s": api_s}))


def _mean_ns(fn, args, rounds):
    """Mean ns per call of fn(*a) over the sample, repeated `rounds` times."""
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(rounds):
        for a in args:
            fn(*a)
    return (clock() - t0) / (rounds * len(args))


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def run_layers(seed: int) -> dict:
    """Per-module timings; every call below is a public semsize function."""
    import statistics

    import semsize

    m = {}
    m["catalog.build_s"], catalog = _timed(semsize.default_catalog)
    semigroups = [e.semigroup for e in catalog]
    pairs = [(e.semigroup, b) for e in catalog for b in e.bases]
    m["catalog.semigroups"] = len(semigroups)
    m["catalog.instances"] = len(pairs)

    m["semigroups.construct_s"] = statistics.median(
        _timed(lambda: [semsize.FinSemigroup(S.table, name=S.name)
                        for S in semigroups])[0]
        for _ in range(5))

    # per-call set arithmetic over a seeded sample of mixed orders
    rng = random.Random(f"{seed}:layers")
    sample = []
    for _ in range(300):
        S = rng.choice(semigroups)
        sample.append((S, rng.randrange(S.order), rng.getrandbits(S.order),
                       rng.getrandbits(S.order)))
    rounds = 40
    m["semigroups.left_quotient_ns"] = _mean_ns(
        semsize.left_quotient, [(S, a, B) for S, a, B, _ in sample], rounds)
    m["semigroups.set_quotient_ns"] = _mean_ns(
        semsize.set_quotient, [(S, A, B) for S, _, B, A in sample], rounds)
    m["semigroups.translate_set_ns"] = _mean_ns(
        semsize.translate_set, [(S, a, B) for S, a, B, _ in sample], rounds)
    m["semigroups.right_translate_ns"] = _mean_ns(
        semsize.right_translate, [(S, B, a) for S, a, B, _ in sample], rounds)
    m["semigroups.product_set_ns"] = _mean_ns(
        semsize.product_set, [(S, A, B) for S, _, B, A in sample], rounds)
    m["classify.trace_set_ns"] = _mean_ns(
        semsize.trace_set, [(S, B, a) for S, a, B, _ in sample], rounds)
    m["masks.bits_ns"] = _mean_ns(
        lambda B: list(semsize.bits(B)), [(B,) for _, _, B, _ in sample], rounds)

    m["semigroups.minimal_left_ideals_s"], _ = _timed(
        lambda: [semsize.minimal_left_ideals(S) for S in semigroups])

    # cold caches: nothing in this process has asked for them yet
    kinds = ("semigroup_filter", "left_invariant", "left_inverse_invariant",
             "extrathick_members", "neighborhood_shift")
    m["filters.forces_full_base_s"], _ = _timed(
        lambda: [semsize.hypothesis_forces_full_base(S, k)
                 for S in semigroups for k in kinds])
    filters = [semsize.make_principal(S, b) for S, b in pairs]
    m["filters.check_hypothesis_s"], _ = _timed(
        lambda: [semsize.check_hypothesis(tau, k)
                 for tau in filters for k in kinds])

    m["classify.size_tables_s"], tables = _timed(
        lambda: [semsize.SizeTables(tau.semigroup, tau) for tau in filters])
    # the instances T3_6 and the T3_6_semigroup hunt admit
    limit = semsize.VerifyConfig().small_order_limit
    admitted = [tb for tb, tau in zip(tables, filters)
                if tau.semigroup.order <= limit
                and semsize.check_hypothesis(tau, "left_invariant")]
    m["classify.small_table_s"], _ = _timed(
        lambda: [tb.small for tb in admitted])

    full12, full8 = (1 << 12) - 1, (1 << 8) - 1
    m["partitions.enumerate_s"], parts = _timed(
        lambda: (list(semsize.enumerate_partitions(full12, 2))
                 + list(semsize.enumerate_partitions(full8, 3))))
    m["partitions.partitions"] = len(parts)
    z12 = semsize.semigroup_from_spec("cyclic:12")
    tau12 = semsize.make_principal(z12, full12)
    cells = [(z12, tau12, cell, "translate", full12)
             for p in rng.sample(parts[:wl.PARTITIONS_Z12_2], 100)
             for cell in p.cell_masks()]
    m["partitions.min_cover_ns"] = _mean_ns(semsize.min_cover, cells, 3)
    return m


def main(argv) -> int:
    mode = argv[1]
    if mode == "setup":
        setup_inputs(argv[2])
    elif mode == "queries":
        print(_dump(run_queries(int(argv[2]), int(argv[3]))))
    elif mode == "op":
        run_op(json.loads(argv[2]), argv[3] == "1")
    elif mode == "layers":
        print(_dump(run_layers(int(argv[2]))))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
