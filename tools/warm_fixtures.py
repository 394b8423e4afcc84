#!/usr/bin/env python3
"""Warm the on-disk fixture cache CI jobs share.

Two warm-ups, both keyed so source changes invalidate them:

* **TPC-H instances** — the deterministic databases every benchmark and
  smoke job rebuilds from scratch.  ``repro.tpch.cached_instance``
  pickles ``(generator, database)`` — including the generator's
  post-build PRNG state, so refresh batches drawn from a cached
  instance are identical to a fresh build's — into
  ``REPRO_FIXTURE_DIR`` under a name embedding a digest of the
  generator sources and of the engine classes the pickle holds.
* **Compiled plans** — compile the physical maintenance plans of the
  stock views against the smallest instance.  Plans live in memory
  and cannot be persisted, so this is a fail-fast smoke: a
  planner regression surfaces here, in the cheap setup step, not ten
  minutes into a benchmark job.

Usage::

    REPRO_FIXTURE_DIR=.ci-fixtures python tools/warm_fixtures.py
    python tools/warm_fixtures.py --dir .ci-fixtures --scales 0.001,0.002
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List

# CI scales: benchmark smoke (0.001), evaluation (0.002), benchmark
# conftest default (0.004)
DEFAULT_SCALES = (0.001, 0.002, 0.004)
DEFAULT_SEED = 20070415


def warm(directory: str, scales: List[float], seed: int) -> int:
    from repro.tpch import cached_instance, oj_view, v2, v3
    from repro.warehouse import Warehouse

    os.makedirs(directory, exist_ok=True)
    for scale in scales:
        started = time.perf_counter()
        _generator, db = cached_instance(scale, seed, directory=directory)
        elapsed = time.perf_counter() - started
        print(
            f"tpch scale={scale:g} seed={seed}: "
            f"{len(db.tables['lineitem'].rows)} lineitems in {elapsed:.2f}s"
        )

    # compiled-plan smoke against the smallest instance: one real
    # refresh batch through every stock view compiles their plans
    generator, db = cached_instance(min(scales), seed, directory=directory)
    wh = Warehouse(db.copy())
    definitions = (oj_view(), v2(), v3())
    for definition in definitions:
        wh.create_view(definition.name, definition)
    wh.insert("lineitem", generator.lineitem_insert_batch(2, seed=777))
    wh.check_consistency()
    wh.close()
    print(f"compiled maintenance plans for {len(definitions)} stock view(s)")

    entries = sorted(
        name for name in os.listdir(directory) if name.endswith(".pkl")
    )
    total = sum(
        os.path.getsize(os.path.join(directory, name)) for name in entries
    )
    print(f"{len(entries)} fixture(s), {total / 1e6:.1f} MB in {directory}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        default=os.environ.get("REPRO_FIXTURE_DIR", ".ci-fixtures"),
        help="fixture cache directory (default: $REPRO_FIXTURE_DIR "
        "or .ci-fixtures)",
    )
    parser.add_argument(
        "--scales",
        default=",".join(f"{s:g}" for s in DEFAULT_SCALES),
        help="comma-separated TPC-H scale factors to warm",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    scales = [float(s) for s in args.scales.split(",") if s]
    return warm(args.dir, scales, args.seed)


if __name__ == "__main__":
    sys.exit(main())
