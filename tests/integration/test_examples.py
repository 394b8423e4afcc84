"""Smoke tests: every example script runs to completion."""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_quickstart_runs():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "check_consistency" in result.stdout


def test_xml_objects_runs():
    result = run_example("xml_objects.py")
    assert result.returncode == 0, result.stderr
    assert "<customer id=3 name='initech'>" in result.stdout
    assert "<line n=1 item='widget' qty=7/>" in result.stdout


def test_aggregation_dashboard_runs():
    result = run_example("aggregation_dashboard.py")
    assert result.returncode == 0, result.stderr
    assert "Dashboard after the batch" in result.stdout


def test_tpch_warehouse_runs():
    result = run_example("tpch_warehouse.py", "0.001")
    assert result.returncode == 0, result.stderr
    assert "Incremental speedup" in result.stdout


def test_bench_cli_table1():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.bench",
            "table1",
            "--scale",
            "0.001",
            "--batch-scale",
            "0.001",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "COLP" in result.stdout


def test_plan_explorer_runs():
    result = run_example("plan_explorer.py")
    assert result.returncode == 0, result.stderr
    assert "Q1: compute the primary delta" in result.stdout
    assert "foreign keys prove" in result.stdout  # orders no-op analysis


def test_multi_view_runs():
    result = run_example("multi_view.py")
    assert result.returncode == 0, result.stderr
    assert "every view equals its recompute" in result.stdout
    assert "committed atomically" in result.stdout


def test_telemetry_tour_runs(tmp_path):
    import json
    import os

    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.prom"
    env = dict(
        os.environ,
        REPRO_TRACE_FILE=str(trace),
        REPRO_METRICS_FILE=str(metrics),
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "telemetry_tour.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "maintain" in result.stdout  # span tree printed
    assert "== Maintenance dashboard ==" in result.stdout
    assert "repro_maintenance_passes_total" in result.stdout
    # env-driven artifacts: a JSON span tree per change + the exposition
    roots = [json.loads(line) for line in trace.read_text().splitlines()]
    assert roots and all(root["name"] == "change" for root in roots)
    assert all(span["name"] == "maintain" for root in roots for span in root["children"])
    assert "repro_maintenance_seconds" in metrics.read_text()
