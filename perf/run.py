"""The repo's one tracked benchmark.

One workload, one pass (what the driver runs)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` runs the first third of the same operation
sequence twice, plain and with spans recorded, and reports the
per-layer ledger.  The last line of standard output is one JSON object.

Every workload, both passes, each in a fresh subprocess::

    python3 perf/run.py [--seed N] [--repeat K] [--quick] [--out FILE]

prints every metric by name with its unit and writes one result JSON
(``--repeat`` runs K seeds, the form ``perf/compare.py`` reads).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))  # run from a bare checkout

from repro.tpch import TPCHGenerator  # noqa: E402

from fixtures import (  # noqa: E402
    DEFAULT_SEED,
    DELETE,
    INSERT,
    OUT_DIR,
    PROBE,
    SCAN,
    WRITES,
)
from harness import Ledger, median, percentile, ratio  # noqa: E402
from tracing import FsyncCounter, Tracer  # noqa: E402
from workloads import WORKLOADS, wire_cost  # noqa: E402

SETUPS = 3  # set-ups per end-to-end run; setup_s is their median
QUICK = 0.05


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------
def settle() -> None:
    gc.collect()
    gc.freeze()


def end_to_end(outcome, setup_times, children: bool, as_measured=False):
    """The end-to-end metrics of one untraced pass.  The two timed ones
    are taken to reference machine speed unless *as_measured*; set-up
    and memory always are as measured."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    factor = 1.0 if as_measured else outcome.machine_factor
    return {
        "setup_s": median(setup_times),
        "insert_p50_ms": median(outcome.times(INSERT, "lineitem"))
        * 1e3 / factor,
        "maintained_rows_per_s": throughput(outcome, as_measured),
        "peak_rss_mb": rss / 1024.0,
    }


def throughput(outcome, as_measured=False) -> float:
    """Base rows applied per wall second.  A closed loop's rate is
    multiplied by the run's machine factor — what it would have read on
    the reference machine (see :class:`harness.Calibrator`); an open
    loop's rate is its offered load and stays as measured."""
    rate = ratio(outcome.write_rows(), outcome.wall)
    if as_measured or outcome.open_loop:
        return rate
    return rate * outcome.machine_factor


def read_side(outcome) -> dict:
    """Read and delete latencies of a pass (per-layer: they do not
    repeat within a quarter on this machine, see README.md)."""
    reads = outcome.times(PROBE)
    return {
        "delete_p50_ms": median(outcome.times(DELETE, "lineitem")) * 1e3,
        "read_p50_us": median(reads) * 1e6,
        "read_p95_us": percentile(reads, 0.95) * 1e6,
        "scan_p50_ms": median(outcome.times(SCAN)) * 1e3,
    }


def run_end_to_end(workload, seed, seconds, setups):
    size = workload.size(seconds)
    setup_times = []
    state = None
    for _ in range(setups):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.unfreeze()
        started = time.perf_counter()
        state = workload.build(seed, size)
        settle()
        setup_times.append(time.perf_counter() - started)
    try:
        outcome = workload.run(state, None, time.perf_counter() + seconds)
        problems = workload.verify(state)
    finally:
        workload.teardown(state)
    children = workload.has_workers
    metrics = end_to_end(outcome, setup_times, children)
    diagnostics = {
        "machine_factor": outcome.machine_factor,
        "as_measured": end_to_end(outcome, setup_times, children, True),
        **read_side(outcome),
        "setup_s_all": setup_times,
        "timed_region_s": outcome.wall,
        "truncated": outcome.truncated,
        "samples": {
            kind: len(outcome.times(kind)) for kind in (INSERT, DELETE, PROBE, SCAN)
        },
        "write_p99_ms": percentile(
            outcome.times(INSERT) + outcome.times(DELETE), 0.99
        ) * 1e3,
        **state.extra.get("recovery", {}),
    }
    return metrics, outcome, problems, diagnostics


def one_pass(workload, seed, size, fsyncs, tracer):
    """Build, (trace,) run; returns state, outcome and fsync count."""
    state = workload.build(seed, size)
    try:
        if tracer is not None:
            workload.trace(state, tracer)
        settle()
        before = fsyncs.count
        # the list is a third of a full run; the deadline is a backstop
        outcome = workload.run(state, tracer, time.perf_counter() + 120.0)
    except BaseException:
        workload.teardown(state)
        raise
    return state, outcome, fsyncs.count - before


def first_call_ms(warmup, steady) -> float:
    """First change of each (table, operation) shape during warm-up,
    minus that shape's steady median: plan compilation and index
    provisioning."""
    total = 0.0
    seen = set()
    for op, seconds in warmup.samples:
        shape = (op.target, op.kind, op.lane)
        if op.kind in WRITES and shape not in seen:
            seen.add(shape)
            usual = median(steady.times(op.kind, op.target, op.lane))
            total += max(0.0, seconds - usual)
    return total * 1e3


def run_traced(workload, seed, seconds, spec):
    size = workload.size(seconds / 3.0)
    with FsyncCounter() as fsyncs:
        state, plain, plain_fsyncs = one_pass(workload, seed, size, fsyncs, None)
        plain_counts = state.observers[0].counts()
        workload.teardown(state)
        gc.unfreeze()
        tracer = Tracer()
        state, traced, traced_fsyncs = one_pass(
            workload, seed, size, fsyncs, tracer
        )
    try:
        ledger = Ledger(tracer)
        problems = workload.verify(state)
        counts = state.observers[0].counts()
        if (plain_counts, plain_fsyncs, plain.attempted) != (
            counts, traced_fsyncs, traced.attempted
        ):
            problems.append(
                f"counts differ between the plain and the traced pass: "
                f"{plain_counts} / {plain_fsyncs} vs {counts} / {traced_fsyncs}"
            )
        writes = traced.times(INSERT) + traced.times(DELETE)
        caches = workload.plan_caches(state)
        started = time.perf_counter()
        TPCHGenerator(scale_factor=workload.scale, seed=seed).build()
        build_s = time.perf_counter() - started
        # a layer the workload bypasses reads 0
        metrics = {metric["name"]: 0.0 for metric in spec["per_layer"]}
        metrics.update(ledger.metrics())
        metrics.update(wire_cost(state.ops))
        metrics.update(
            {
                "tpch.build_s": build_s,
                "core.view.materialize_s": state.materialize_s,
                "planner.first_call_ms": first_call_ms(state.warmup, plain),
                "planner.cache.hit_rate": ratio(
                    sum(c.hits for c in caches),
                    sum(c.hits + c.misses for c in caches),
                ),
                "core.maintain.primary_rows_per_op": ratio(
                    counts["primary_rows"], counts["writes"]
                ),
                "core.maintain.secondary_rows_per_op": ratio(
                    counts["secondary_rows"], counts["writes"]
                ),
                **read_side(plain),
                "trace.machine_factor": traced.machine_factor,
                "warehouse.write_p99_ms": percentile(writes, 0.99) * 1e3,
                "warehouse.max_stall_ms": max(writes, default=0.0) * 1e3,
                "runtime.wal.fsyncs_per_change": ratio(
                    traced_fsyncs, counts["writes"]
                ),
                "runtime.wal.bytes_per_row": ratio(
                    counts["wal_bytes"], counts["wal_rows"]
                ),
                "runtime.snapshots.rows_copied_per_change": ratio(
                    counts["rows_copied"], counts["writes"]
                ),
                "runtime.snapshots.published": counts["published"],
                # both at reference speed: the passes run a while apart
                # on a machine whose speed drifts
                "trace.overhead_ratio": ratio(
                    throughput(plain), throughput(traced)
                ),
            }
        )
        metrics.update(
            workload.layer_extras(state, traced, plain, seed, metrics)
        )
        completeness = ledger.completeness()
        metrics["trace.ledger_coverage"] = completeness["coverage"]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.json"))
    finally:
        workload.teardown(state)
    diagnostics = {
        "completeness": completeness,
        "counts": counts,
        "fsyncs": traced_fsyncs,
        "plain_region_s": plain.wall,
        "traced_region_s": traced.wall,
        "spans": len(tracer.spans),
    }
    return metrics, traced, problems, diagnostics


def run_one(args) -> int:
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    if args.trace:
        section = "per_layer"
        metrics, outcome, problems, diagnostics = run_traced(
            workload, args.seed, args.seconds, spec
        )
    else:
        section = "end_to_end"
        metrics, outcome, problems, diagnostics = run_end_to_end(
            workload, args.seed, args.seconds, args.setups
        )
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics and BENCHMARK.json disagree: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    failed = outcome.failed
    if problems:
        # a failed output check fails every operation of the workload
        failed = outcome.attempted
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    report(args, result, diagnostics)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "diagnostics": diagnostics,
                    **result,
                },
                handle,
                indent=1,
            )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, result, diagnostics) -> None:
    print(
        f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: ops_attempted={result['attempted']} "
        f"ops_failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<46} {metric['value']:>14.4f} {metric['unit']}")
    completeness = diagnostics.get("completeness")
    if completeness and completeness["rows"]:
        print(
            f"  ledger: named spans cover {completeness['coverage']:.1%} of "
            f"the median change ({completeness['root_ms_p50']:.3f} ms)"
        )
        for row in completeness["rows"]:
            print(
                f"    {row['span']:<30} {row['calls_per_change']:>7.2f} calls"
                f" {row['self_ms_per_change']:>10.4f} ms self / change"
            )


# ---------------------------------------------------------------------------
# every workload, both passes, fresh subprocess each
# ---------------------------------------------------------------------------
def run_all(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"] * (QUICK if args.quick else 1.0)
    selected = [args.workload] if args.workload else list(WORKLOADS)
    os.makedirs(OUT_DIR, exist_ok=True)
    runs = []
    status = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for name in selected:
            for trace in (0, 1):
                out = os.path.join(OUT_DIR, f"run-{name}-{trace}.json")
                code = subprocess.run(
                    [
                        sys.executable, os.path.abspath(__file__),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--setups", str(1 if args.quick else SETUPS),
                        "--out", out,
                    ],
                ).returncode
                status = status or code
                if os.path.exists(out):
                    with open(out) as handle:
                        runs.append(json.load(handle))
                    os.remove(out)
    path = args.out or os.path.join(OUT_DIR, f"result-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(
            {"claim": None, "quick": args.quick, "runs": runs}, handle, indent=1
        )
    print(f"wrote {path}")
    return status


def child_pids():
    """Processes whose parent is this one, ended but unreaped included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended while we were listing
        # after the parenthesised command name: state, then parent pid
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Tear-down closes and joins the shard workers; what is left is
    multiprocessing's resource tracker, which the first spawned worker
    brings up and which otherwise ends only *after* this process has,
    plus any worker a failed run did not get to close.  The tracker is
    asked to stop the way multiprocessing's own tests do; whatever is
    still there after that is killed (the tracker ignores SIGTERM, and
    nothing is registered with it: the workers talk over pipes)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already ended and reaped


def terminated(signum, frame):
    sys.exit(128 + signum)  # unwind, so every ``finally`` runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setups", type=int, default=SETUPS)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.trace is not None and (not args.workload or args.seconds is None):
        parser.error("--trace needs --workload and --seconds")
    signal.signal(signal.SIGTERM, terminated)
    try:
        return run_all(args) if args.trace is None else run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
