"""``python -m repro.fuzz`` — the differential fuzzer CLI.

Examples::

    python -m repro.fuzz --budget 1000          # 1000 random cases
    python -m repro.fuzz --budget 4000 --seconds 60   # whichever first
    python -m repro.fuzz --seed 1234            # deterministic stream
    python -m repro.fuzz --replay tests/corpus  # re-check the corpus
    python -m repro.fuzz --configs compiled-view,serial-wal

Exit status 0 = every case agreed with the recompute oracle; 1 = a
mismatch was found (minimized and written into the corpus directory
unless ``--no-save``); 2 = bad usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional

from ..obs import Telemetry
from .corpus import iter_cases, replay_case
from .matrix import config_names, configs_by_name, default_matrix
from .runner import run_fuzz

FUZZ_METRIC_PREFIXES = ("repro_fuzz_", "repro_failpoint_")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzer: every maintenance strategy "
        "vs. a full-recompute oracle",
    )
    parser.add_argument(
        "--budget", type=int, default=200,
        help="maximum number of random cases (default 200)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="wall-clock budget; stops early when exceeded",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="master seed for a deterministic case stream",
    )
    parser.add_argument(
        "--configs", default=None, metavar="A,B,...",
        help="comma-separated subset of the oracle matrix "
        f"(default: all of {', '.join(config_names())})",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="restrict to the sharded configs and run them with N "
        "shards (CI matrix hook)",
    )
    parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="corpus directory (default tests/corpus)",
    )
    parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay one corpus file, or every case in a directory, "
        "instead of fuzzing",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="save the raw failing case without minimizing it",
    )
    parser.add_argument(
        "--shrink-budget", type=int, default=300,
        help="max replays the shrinker may spend (default 300)",
    )
    parser.add_argument(
        "--no-save", action="store_true",
        help="do not write the failing case into the corpus",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return parser


def _replay(path: str, configs, log) -> int:
    if os.path.isdir(path):
        paths = [p for p, _s, _m in iter_cases(path)]
    else:
        paths = [path]
    failed = 0
    for case_path in paths:
        result = replay_case(case_path, configs)
        status = "ok" if result.ok else "MISMATCH"
        log(f"{case_path}: {status}")
        if not result.ok:
            failed += 1
            log(result.summary())
    log(f"replayed {len(paths)} case(s), {failed} failing")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    log = (lambda _msg: None) if args.quiet else print
    try:
        configs = (
            configs_by_name(args.configs.split(","))
            if args.configs
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.shards is not None:
        if args.shards < 1:
            print("error: --shards must be >= 1", file=sys.stderr)
            return 2
        pool = configs if configs is not None else default_matrix()
        # fault rows choreograph their havoc around a fixed shard
        # count; the matrix hook is a clean-run equivalence sweep
        configs = [
            replace(c, shards=args.shards)
            for c in pool
            if c.shards and not c.faults
        ]
        if not configs:
            print(
                "error: --shards with --configs requires at least one "
                "sharded config in the selection",
                file=sys.stderr,
            )
            return 2

    if args.replay:
        return _replay(args.replay, configs, log)

    # Failure artifacts (damaged WAL copies from the oracle, flight-
    # recorder dumps on fuzz.mismatch) land in the same directory.
    artifact_dir = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR")
    telemetry = Telemetry(dump_dir=artifact_dir)
    outcome = run_fuzz(
        budget=args.budget,
        seconds=args.seconds,
        seed=args.seed,
        configs=configs,
        do_shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget,
        corpus_dir=args.corpus,
        save=not args.no_save,
        telemetry=telemetry,
        log=log,
    )

    metric_lines = [
        line
        for line in telemetry.metrics_text().splitlines()
        if line.startswith(FUZZ_METRIC_PREFIXES)
    ]
    if metric_lines:
        log("-- fuzz counters --")
        for line in metric_lines:
            log(line)

    if outcome.found:
        log(
            f"FAIL: mismatch (kinds: {', '.join(outcome.kinds)}) at seed "
            f"{outcome.case_seed} after {outcome.cases_run} case(s) in "
            f"{outcome.elapsed_seconds:.1f}s"
        )
        if outcome.corpus_path:
            log(
                "reproduce with: python -m repro.fuzz --replay "
                + outcome.corpus_path
            )
        return 1
    log(
        f"OK: {outcome.cases_run} case(s) agreed with the recompute "
        f"oracle in {outcome.elapsed_seconds:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
