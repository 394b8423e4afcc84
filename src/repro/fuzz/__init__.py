"""Differential fuzzing for the maintenance engine.

Random SPOJ views over random databases, replayed under every
maintenance strategy the repo implements (Section 5.2 view-side vs.
Section 5.3 base-table secondary deltas and the per-term auto choice,
foreign-key shortcuts on/off, inline vs. queued scheduling
with a write-ahead log) and cross-checked after every update against a
full recompute of each view — plus crash-injection runs that drop WAL
acknowledgements and force :meth:`Warehouse.recover` to converge.

Entry points:

* ``python -m repro.fuzz --budget 1000`` — the CLI (see ``--help``);
* :func:`run_fuzz` — the same loop as a library call;
* :func:`run_case` — replay one :class:`Scenario` under the matrix;
* :func:`shrink` — minimize a failing scenario;
* :mod:`repro.fuzz.corpus` — the checked-in regression corpus under
  ``tests/corpus/``, replayed by ``tests/fuzz/test_corpus_replay.py``.

``docs/FUZZING.md`` describes the oracle matrix and the reproduce/shrink
workflow in detail.
"""

from .corpus import (
    default_corpus_dir,
    iter_cases,
    load_case,
    replay_case,
    save_case,
)
from .generator import GeneratorProfile, Scenario, generate_scenario
from .matrix import OracleConfig, config_names, configs_by_name, default_matrix
from .oracle import (
    CaseResult,
    Mismatch,
    apply_op,
    consistency_mismatches,
    run_case,
    view_divergence,
)
from .runner import FuzzOutcome, make_still_fails, run_fuzz
from .shrinker import ShrinkReport, shrink

__all__ = [
    "CaseResult",
    "FuzzOutcome",
    "GeneratorProfile",
    "Mismatch",
    "OracleConfig",
    "Scenario",
    "ShrinkReport",
    "apply_op",
    "config_names",
    "configs_by_name",
    "consistency_mismatches",
    "default_corpus_dir",
    "default_matrix",
    "generate_scenario",
    "iter_cases",
    "load_case",
    "make_still_fails",
    "replay_case",
    "run_case",
    "run_fuzz",
    "save_case",
    "shrink",
    "view_divergence",
]
