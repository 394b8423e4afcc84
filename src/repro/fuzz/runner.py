"""The budgeted fuzz loop: generate → replay under the matrix → on the
first mismatch, shrink and serialize a regression case.

Used by ``python -m repro.fuzz`` and by the harness's own tests; the
loop is deterministic given ``seed`` (case *i* replays from the derived
seed ``"<seed>:<i>"``, printed in every report, so any finding is
reproducible with ``--seed``/``--index`` alone even before the corpus
file is written).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..obs import Telemetry
from ..runtime import FAILPOINTS
from .corpus import save_case
from .generator import GeneratorProfile, Scenario, generate_scenario
from .matrix import OracleConfig
from .oracle import CaseResult, run_case
from .shrinker import shrink

__all__ = ["FuzzOutcome", "run_fuzz", "make_still_fails"]


@dataclass
class FuzzOutcome:
    """What one :func:`run_fuzz` invocation did."""

    cases_run: int = 0
    found: bool = False
    case_seed: Optional[str] = None
    result: Optional[CaseResult] = None
    scenario: Optional[Scenario] = None  # minimized (or original) failure
    corpus_path: Optional[str] = None
    shrink_steps: int = 0
    elapsed_seconds: float = 0.0
    kinds: List[str] = field(default_factory=list)


def make_still_fails(
    original: CaseResult, configs: Optional[List[OracleConfig]]
) -> Callable[[Scenario], bool]:
    """The shrinker predicate: a candidate still fails when it reproduces
    at least one of the original (config, kind) mismatch pairs — so
    shrinking cannot wander off to a different bug."""
    wanted = {(m.config, m.kind) for m in original.mismatches}

    def still_fails(candidate: Scenario) -> bool:
        result = run_case(candidate, configs)
        return any((m.config, m.kind) in wanted for m in result.mismatches)

    return still_fails


def run_fuzz(
    budget: int = 200,
    seconds: Optional[float] = None,
    seed: Optional[int] = None,
    configs: Optional[List[OracleConfig]] = None,
    do_shrink: bool = True,
    shrink_budget: int = 300,
    corpus_dir: Optional[str] = None,
    save: bool = True,
    telemetry: Optional[Telemetry] = None,
    profile: Optional[GeneratorProfile] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzOutcome:
    """Run up to *budget* random cases (and at most *seconds* wall-clock,
    when given); stop at the first oracle mismatch, minimize it and
    serialize the result into the corpus."""
    telemetry = telemetry or Telemetry.disabled()
    log = log or (lambda _msg: None)
    master = seed if seed is not None else random.randrange(2**32)
    outcome = FuzzOutcome()
    deadline = None if seconds is None else time.monotonic() + seconds
    started = time.monotonic()
    log(f"fuzzing: budget={budget} seconds={seconds} seed={master}")

    for i in range(budget):
        if deadline is not None and time.monotonic() >= deadline:
            log(f"time budget exhausted after {outcome.cases_run} cases")
            break
        case_seed = f"{master}:{i}"
        scenario = generate_scenario(
            random.Random(case_seed), profile, seed=case_seed
        )
        result = run_case(scenario, configs)
        outcome.cases_run += 1
        if result.ok:
            telemetry.emit("fuzz.case", outcome="ok")
            if (i + 1) % 100 == 0:
                log(f"  {i + 1}/{budget} cases clean")
            continue

        telemetry.emit(
            "fuzz.case", outcome="mismatch", mismatch_kinds=result.kinds
        )
        outcome.found = True
        outcome.case_seed = case_seed
        outcome.result = result
        outcome.scenario = scenario
        outcome.kinds = result.kinds
        log(f"MISMATCH at case {i} (seed {case_seed}):")
        log(result.summary())

        if do_shrink:
            log(f"shrinking (budget {shrink_budget} replays)...")
            report = shrink(
                scenario,
                make_still_fails(result, configs),
                budget=shrink_budget,
            )
            outcome.scenario = report.scenario
            outcome.shrink_steps = report.accepted_steps
            telemetry.emit("fuzz.shrink", steps=report.accepted_steps)
            log(
                f"shrunk in {report.accepted_steps} accepted steps "
                f"({report.evaluations} replays): "
                f"{report.scenario.describe()}"
            )
            # re-run so the reported mismatch matches the minimized case
            outcome.result = run_case(report.scenario, configs)

        if save:
            outcome.corpus_path = save_case(
                outcome.scenario,
                reason=outcome.result.summary(),
                corpus_dir=corpus_dir,
                found=f"seed {case_seed}",
            )
            log(f"minimized case saved: {outcome.corpus_path}")
        break

    for name, fires in sorted(FAILPOINTS.hits.items()):
        telemetry.emit("failpoint.fired", name=name, fires=fires)
    outcome.elapsed_seconds = time.monotonic() - started
    return outcome
