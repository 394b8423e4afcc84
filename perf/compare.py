"""Compare two result files of ``perf/run.py --repeat K``.

    python3 perf/compare.py A.json B.json

One row per workload x end-to-end metric, judged by the bounds in
``BENCHMARK.json``: ``same``, ``worse``, ``better``, or ``unresolved``
when either side's run-to-run spread (interquartile range over median,
as ``statistics.quantiles(values, n=4)`` gives it) is wider than the
bound.  Every ratio is shown beside its base.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """workload -> metric -> values, from the untraced runs of a file."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values = defaultdict(lambda: defaultdict(list))
    for run in runs:
        if not run["trace"]:
            for name, metric in run["metrics"].items():
                values[run["workload"]][name].append(metric["value"])
    return values


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base, new, metric) -> str:
    bound = metric["bound"]
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    change = statistics.median(new) / statistics.median(base) - 1.0
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base, new = load(argv[0]), load(argv[1])
    print(
        f"{'workload':<24} {'metric':<22} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'spread':>13} {'bound':>6}  verdict"
    )
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = base[workload][metric["name"]]
            b = new[workload][metric["name"]]
            if not a or not b:
                continue
            result = verdict(a, b, metric)
            bad += result in ("worse", "unresolved")
            print(
                f"{workload:<24} {metric['name']:<22} "
                f"{statistics.median(a):>12.4f} {statistics.median(b):>12.4f} "
                f"{statistics.median(b) / statistics.median(a):>9.3f} "
                f"{spread(a):>6.1%}/{spread(b):>6.1%} "
                f"{metric['bound']:>6.0%}  {result} ({metric['unit']}, "
                f"n={len(a)}/{len(b)})"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
