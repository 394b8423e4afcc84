"""Smoke test of the benchmark itself (``--quick`` sizing).

    PYTHONPATH=src python -m pytest perf -q

Not part of tier-1 (``testpaths`` is ``tests/``).  Timings are not
judged here — only that every metric is emitted, that traces are well
formed and that the exact counts are functions of the seed.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from fixtures import DEFAULT_SEED, OUT_DIR
from tracing import Span, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"] * 0.05
COUNTED = "warehouse_durable_small"  # every exact count is non-zero here
EXACT = (
    "runtime.snapshots.rows_copied_per_change",
    "runtime.wal.bytes_per_row",
    "runtime.wal.fsyncs_per_change",
    "core.maintain.primary_rows_per_op",
    "core.maintain.secondary_rows_per_op",
)


def check_spans(spans):
    """Structural invariants of a trace: self times are not negative
    and every child lies inside its parent."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    problems = []
    slack = 1e-6
    for span in spans:
        if selfs[span.id] < -slack:
            problems.append(f"{span.name}: negative self time")
        if span.parent is not None:
            parent = by_id.get(span.parent)
            if parent is None:
                problems.append(f"{span.name}: unknown parent")
            elif (
                span.start < parent.start - slack
                or span.end > parent.end + slack
            ):
                problems.append(f"{span.name}: outside {parent.name}")
    return problems


def run(job):
    workload, trace, seed = job
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace),
            "--setups", "1",
        ],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    jobs = [(w, t, DEFAULT_SEED) for w in WORKLOADS for t in (0, 1)]
    jobs += [(COUNTED, 1, DEFAULT_SEED), (COUNTED, 1, DEFAULT_SEED + 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(range(len(jobs)), zip(jobs, pool.map(run, jobs))))


def test_every_metric_is_emitted_with_its_unit(results):
    for job, result in list(results.values())[: 2 * len(WORKLOADS)]:
        section = SPEC["per_layer" if job[1] else "end_to_end"]
        assert result["correct"] and result["failed"] == 0, job
        assert result["attempted"] >= 1
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in section}, job
        if not job[1]:
            assert all(m["value"] > 0 for m in result["metrics"].values()), job


def test_spans_nest(results):
    for workload in WORKLOADS:
        with open(os.path.join(OUT_DIR, f"trace-{workload}.json")) as handle:
            raw = json.load(handle)
        spans = []
        for record in raw:
            span = Span(
                record["id"], record["name"], record["start"],
                record["parent"], record["cid"], {},
            )
            span.end = record["end"]
            spans.append(span)
        assert spans and not check_spans(spans), workload
        selfs = self_times(spans)
        by_root = {}
        for span in spans:
            by_root.setdefault(span.cid, []).append(span)
        for root in spans:
            if root.name == "change" and workload != "serving_mixed":
                total = sum(selfs[s.id] for s in by_root[root.cid])
                assert total <= root.duration + 1e-6, workload


def session_members(session):
    """Processes (unreaped ones included) of one session, from /proc."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == session:  # state, ppid, pgrp, session
            found.append(int(entry))
    return found


def test_a_run_leaves_no_process_behind():
    """The workload with worker processes, in a session of its own: when
    it has exited, workers and multiprocessing's resource tracker have
    too."""
    proc = subprocess.Popen(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", "sharded_bulk", "--seed", str(DEFAULT_SEED),
            "--seconds", str(SECONDS), "--trace", "0", "--setups", "2",
        ],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert session_members(proc.pid) == []


def test_exact_counts_are_functions_of_the_seed(results):
    runs = [
        result
        for job, result in results.values()
        if job[0] == COUNTED and job[1] == 1
    ]
    first, again, other = (
        {name: run["metrics"][name]["value"] for name in EXACT}
        | {"ops_attempted": run["attempted"]}
        for run in runs
    )
    assert first == again
    assert all(value > 0 for value in first.values())
    assert any(first[name] != other[name] for name in EXACT)
