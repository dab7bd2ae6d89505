"""semsize benchmark: end-to-end runs of the CLI and library, and a traced layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
./src.  Every operation runs in a fresh interpreter started by this process,
one at a time (closed loop, one client), so module-level caches in the
package start cold on every repetition.  An operation is one CLI invocation
or, in the traced run, one classify query.  Wall time, CPU time and peak RSS
come from os.wait4 for each child, which also covers the pool workers a
child reaps.  Every output is checked; an unexpected exit code or a failed
check counts the operation as failed.  Timings are taken relative to a
reference run (perfbench/reference.py) made next to each operation, and
reported as seconds at a fixed reference speed.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/README.md).  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.py")
PY = sys.executable

# seconds one reference run takes on the host the timings are scaled to;
# the shared two-core Xeon these figures come from ran it in 0.13 to 0.25 s
REF_S = 0.2
SETUPS_PER_PASS = 1
MIN_PASSES = 3
# every child is killed once the run has taken this long, so that a hung
# child fails its operation instead of the run
RUN_LIMIT_S = 170
STARTED = time.monotonic()


def child_env() -> dict:
    env = dict(os.environ)
    # SEMSIZE_WORKERS silently turns verify and hunt parallel; the parallel
    # workload asks for its workers on the command line instead
    env.pop("SEMSIZE_WORKERS", None)
    # children cache bytecode, so that only the warm-up compiles it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


@dataclass
class Proc:
    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


def run_proc(args) -> Proc:
    """Run one child to completion; resources come from wait4 on that child."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, start_new_session=True)
    chunks = {p.stdout: [], p.stderr: []}
    deadline = STARTED + RUN_LIMIT_S
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                os.killpg(p.pid, signal.SIGKILL)
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    p.stdout.close()
    p.stderr.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        returncode=p.returncode,
        stdout=b"".join(chunks[p.stdout]).decode(),
        stderr=b"".join(chunks[p.stderr]).decode(),
        wall=wall,
        cpu=ru.ru_utime + ru.ru_stime,
        rss_mb=ru.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def cli_args(op: dict) -> list:
    return [PY, "-m", "semsize"] + wl.argv(op)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def record(self, what: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problem}")

    def record_exit(self, what: str, proc: Proc) -> None:
        """A child whose only output to check is its exit code."""
        self.record(what, None if proc.returncode == 0 else proc.stderr[-300:])


def checked_op(op: dict, proc: Proc, tally: Tally) -> list:
    problem, records = wl.check_op(op, proc.returncode, proc.stdout)
    if problem is not None and proc.stderr:
        problem += " | stderr: " + proc.stderr.strip()[-300:]
    tally.record(wl.op_name(op), problem)
    for r in records:
        key = r.get("theorem") or wl.op_name(op)
        for count in ("instances_checked", "assertions", "partitions_checked"):
            if count in r:
                tally.counters[f"{key}.{count}"] = r[count]
    return records


# ---------------------------------------------------------------------------
# timed runs (--trace 0)
#
# The host is shared, and its speed drifts by a third within seconds, for
# the reference loop as much as for the package.  So every step of a pass
# (one set-up or one CLI invocation) runs between two reference runs, and
# its time is divided by their mean.  Per step that ratio is averaged over
# the passes, less the highest and lowest tenth, and scaled by REF_S into
# seconds at the speed of a host on which one reference run takes REF_S.
# The ratios spread evenly rather than around a peak, and the trimmed mean
# of a dozen of them repeats about twice as closely as their median.


def trimmed_mean(values: list) -> float:
    ordered = sorted(values)
    cut = max(1, len(ordered) // 10)
    return statistics.mean(ordered[cut:-cut])


def reference(tally: Tally) -> Proc:
    proc = run_proc([PY, REFERENCE])
    tally.record_exit("reference", proc)
    return proc


def warm_up(workload: str, tally: Tally) -> None:
    """Import every module once, so that bytecode compilation is not timed."""
    op = wl.HUNTS[1]  # the shortest CLI call; it imports the CLI and every module
    checked_op(op, run_proc(cli_args(op)), tally)
    tally.record_exit("warm-up", run_proc([PY, CHILD, "setup", workload]))


def timed_run(workload: str, seed: int, seconds: int, tally: Tally):
    """Return (metrics, the same averages unscaled, in seconds)."""
    warm_up(workload, tally)
    ops = wl.CLI_OPS[workload]
    wall = {wl.op_name(op): [] for op in ops}  # per step: wall / reference wall
    cpu = {name: [] for name in wall}          # per step: CPU / reference CPU
    raw = {name: [] for name in wall}          # per step: wall in seconds
    setups, raw_setups, refs, rss = [], [], [], []
    before = reference(tally)

    def step(args):
        nonlocal before
        proc = run_proc(args)
        after = reference(tally)
        refs.append(after.wall)
        ref_wall = (before.wall + after.wall) / 2
        ref_cpu = (before.cpu + after.cpu) / 2
        before = after
        return proc, proc.wall / ref_wall, proc.cpu / ref_cpu

    start = time.monotonic()
    while True:
        for _ in range(SETUPS_PER_PASS):
            proc, ratio, _ = step([PY, CHILD, "setup", workload])
            tally.record_exit("setup", proc)
            setups.append(ratio)
            raw_setups.append(proc.wall)
        order = list(ops)
        random.Random(f"{seed}:{len(rss)}").shuffle(order)
        pass_rss = 0.0
        for op in order:
            proc, wall_ratio, cpu_ratio = step(cli_args(op))
            checked_op(op, proc, tally)
            name = wl.op_name(op)
            wall[name].append(wall_ratio)
            cpu[name].append(cpu_ratio)
            raw[name].append(proc.wall)
            pass_rss = max(pass_rss, proc.rss_mb)
        rss.append(pass_rss)
        passes = len(rss)
        elapsed = time.monotonic() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    tally.counters["passes"] = passes
    tally.counters["op_samples"] = sum(len(v) for v in wall.values())
    metrics = {
        "wall_s": REF_S * sum(trimmed_mean(v) for v in wall.values()),
        "cpu_s": REF_S * sum(trimmed_mean(v) for v in cpu.values()),
        "setup_s": REF_S * trimmed_mean(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    unscaled = {
        "reference_s": trimmed_mean(refs),
        "wall_s": sum(trimmed_mean(v) for v in raw.values()),
        "setup_s": trimmed_mean(raw_setups),
    }
    return metrics, unscaled


# ---------------------------------------------------------------------------
# traced layer run (--trace 1)


def library_op(op: dict, trace: bool, tally: Tally):
    """Run a CLI operation through the library in a fresh interpreter.

    Returns (wall seconds, report records, the child's trace line: span
    totals by name, counts and the time spent inside the library).
    """
    proc = run_proc([PY, CHILD, "op", json.dumps(op), "1" if trace else "0"])
    lines = proc.stdout.splitlines()
    info = {"totals": {}, "counts": {}, "api_s": 0.0}
    if proc.returncode == 0 and lines:
        info = json.loads(lines.pop())
    proc.stdout = "\n".join(lines)
    return proc.wall, checked_op(op, proc, tally), info


def traced_queries(seed: int, tally: Tally) -> dict:
    """A seeded classify batch with a span per predicate; returns span totals.

    Each query is one operation.  Queries of order <= LITERAL_ORDER_LIMIT are
    re-decided here by semsize.literal, outside the child's timing.
    """
    proc = run_proc([PY, CHILD, "queries", str(seed), str(wl.QUERY_BATCH)])
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tally.record("queries", f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {}
    sys.path.insert(0, SRC)
    import semsize

    pool = wl.instances_by_order(semsize.default_catalog())
    verdicts = out["verdicts"]
    for i, (order, idx, A) in enumerate(wl.query_batch(pool, seed, wl.QUERY_BATCH)):
        got = verdicts[i] if i < len(verdicts) else None
        problem = None
        if got is None or len(got) != len(wl.PREDICATES):
            problem = f"verdicts {got!r}"
        elif order <= wl.LITERAL_ORDER_LIMIT:
            S, base = pool[order][idx]
            tau = semsize.make_principal(S, base)
            want = "".join("1" if semsize.literal_oracle(p, S, tau, A) else "0"
                           for p in wl.PREDICATES)
            if got != want:
                problem = f"{S.name} base={base} A={A}: {got} != literal {want}"
        tally.record("query", problem)
    return out["spans"]


def traced_run(workload: str, seed: int, tally: Tally) -> dict:
    warm_up(workload, tally)
    m = {}
    own_ops = wl.CLI_OPS[workload]
    cli_set = wl.CLI_OPS["verify_catalog"] + wl.CLI_OPS["sweep_bounds"]
    cli_overhead = []
    traced_wall = 0.0
    for op in cli_set + (wl.VERIFY_PARALLEL,):
        wall, records, info = library_op(op, True, tally)
        spans = info["totals"]
        m.update(info["counts"])
        if op in own_ops:
            traced_wall += wall
        if op in cli_set:
            proc = run_proc(cli_args(op))
            checked_op(op, proc, tally)
            if op is not wl.VERIFY_ALL:
                cli_overhead.append(proc.wall - info["api_s"])
        if op["verb"] == "verify":
            prefix = "theorems.parallel." if op.get("workers") else "theorems."
            for tid in wl.THEOREM_IDS:
                if "theorems.verify." + tid in spans:
                    m[f"{prefix}{tid}_s"] = spans["theorems.verify." + tid]
            if not op.get("workers"):
                for r in records:
                    tid = r["theorem"]
                    m[f"theorems.{tid}.assertions"] = r["assertions"]
                    m[f"theorems.{tid}.skipped"] = r["skipped_count"]
                    m[f"theorems.{tid}.effective_ratio"] = (
                        r["effective_count"] / r["instances_checked"]
                        if r["instances_checked"] else 0.0)
        elif op["verb"] == "hunt":
            key = "theorems.hunt." + op["variant"]
            if key in spans:
                m[key + "_s"] = spans[key]
        else:
            m["partitions.infeasible"] = m.get("partitions.infeasible", 0) + sum(
                r["infeasible_partitions"] for r in records)
            if "semigroups.automorphisms" in spans:
                m["semigroups.automorphisms_s"] = spans["semigroups.automorphisms"]
            key = "partitions.sweep_partitions." + op["mode"]
            if op["group"] == "cyclic:12" and not op.get("symmetry") and key in spans:
                m[f"partitions.sweep.{op['mode']}_s"] = spans[key]
    # per invocation, over the hunts and searches: short calls, where the
    # noise of a 3-second verify does not swamp it
    m["cli.overhead_s"] = statistics.median(cli_overhead)
    # tracing overhead: the workload's own calls with spans over the same
    # calls with tracing off
    m["trace.overhead_ratio"] = traced_wall / sum(
        library_op(op, False, tally)[0] for op in own_ops)

    spans = traced_queries(seed, tally)
    for pred in wl.PREDICATES:
        if "classify." + pred in spans:
            m[f"classify.{pred}_s"] = spans["classify." + pred]

    proc = run_proc([PY, CHILD, "layers", str(seed)])
    tally.record_exit("layers", proc)
    if proc.returncode == 0:
        m.update(json.loads(proc.stdout.splitlines()[-1]))
    return m


# ---------------------------------------------------------------------------


def environment(args) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "semsize")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_before": os.getloadavg(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "semsize", "__init__.py")):
        print(f"perfbench: no semsize package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    env = environment(args)
    tally = Tally()
    if args.trace:
        metrics, unscaled = traced_run(args.workload, args.seed, tally), None
    else:
        metrics, unscaled = timed_run(args.workload, args.seed, args.seconds, tally)
    env["loadavg_after"] = os.getloadavg()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [d["name"] for d in wanted if d["name"] not in metrics]

    print("environment " + json.dumps(env))
    if unscaled:
        print("unscaled " + json.dumps(unscaled))
    print("counters " + json.dumps(tally.counters, sort_keys=True))
    for problem in tally.problems:
        print("FAILED " + problem)
    if missing:
        print("NOT MEASURED " + ", ".join(missing))
    print(f"error_rate {tally.failed}/{tally.attempted}")
    result = {}
    for d in wanted:
        if d["name"] in metrics:
            value = metrics[d["name"]]
            result[d["name"]] = {"value": value, "unit": units[d["name"]]}
            print(f"{d['name']:<40} {value:>16.6f} {units[d['name']]}")
    print(json.dumps({
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
