"""A1–A3 — ablations over the design choices DESIGN.md calls out.

* **A1 left-deep vs bushy ΔV^D** (Section 4.1): the bushy tree joins
  base tables (``R ⟗ S``) on every update; left-deep keeps intermediates
  proportional to the delta.
* **A2 secondary delta from view vs from base tables** (Section 5.2 vs
  5.3): the view-based route probes stored orphans; the base route
  reconstructs states with joins and anti-joins.
* **A3 foreign-key exploitation on/off** (Section 6): without FK
  reasoning, provably-unaffected terms are processed and provably-empty
  joins executed.

Each variant runs the same V3 lineitem insertion batch.
"""

from __future__ import annotations

import pytest

from repro.core import (
    MaintenanceOptions,
    SECONDARY_FROM_BASE,
    ViewMaintainer,
)

from conftest import BATCH_SCALE, clone_state

BATCH = max(10, int(6_000 * BATCH_SCALE))

VARIANTS = {
    "full": MaintenanceOptions(),
    "a1_bushy": MaintenanceOptions(left_deep=False),
    "a2_secondary_base": MaintenanceOptions(
        secondary_strategy=SECONDARY_FROM_BASE
    ),
    "a3_no_fk": MaintenanceOptions(use_foreign_keys=False),
}


def test_all_variants_stay_correct(v3_state, workbench):
    """Correctness guard outside the timed paths: every option variant
    must match the recompute oracle after an insert+delete round."""
    for variant, options in VARIANTS.items():
        db, view = clone_state(v3_state)
        maintainer = ViewMaintainer(db, view, options)
        maintainer.insert(
            "lineitem", workbench.generator.lineitem_insert_batch(20, seed=91)
        )
        maintainer.delete(
            "lineitem",
            workbench.generator.lineitem_delete_batch(db, 20, seed=92),
        )
        maintainer.check_consistency()


@pytest.mark.parametrize("variant", ["full", "a3_no_fk"])
def test_ablation_part_insert(variant, v3_state, workbench, benchmark):
    """FK exploitation turns a part insert into a padded append; without
    it the delta expression joins and the orphan terms are probed."""
    options = VARIANTS[variant]

    def setup():
        db, view = clone_state(v3_state)
        batch = workbench.generator.part_insert_batch(100, seed=57)
        return (ViewMaintainer(db, view, options), batch), {}

    def run(maintainer, batch):
        return maintainer.insert("part", batch)

    report = benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["variant"] = variant
    assert report.primary_rows == 100


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_ablation_insert(variant, v3_state, workbench, benchmark):
    options = VARIANTS[variant]
    batch = workbench.generator.lineitem_insert_batch(BATCH, seed=55)

    def setup():
        db, view = clone_state(v3_state)
        return (ViewMaintainer(db, view, options),), {}

    def run(maintainer):
        return maintainer.insert("lineitem", list(batch))

    report = benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["variant"] = variant
    assert report.base_rows == BATCH


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_ablation_delete(variant, v3_state, workbench, benchmark):
    options = VARIANTS[variant]

    def setup():
        db, view = clone_state(v3_state)
        doomed = workbench.generator.lineitem_delete_batch(db, BATCH, seed=56)
        return (ViewMaintainer(db, view, options), doomed), {}

    def run(maintainer, doomed):
        return maintainer.delete("lineitem", doomed)

    report = benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["variant"] = variant
    assert report.base_rows == BATCH
