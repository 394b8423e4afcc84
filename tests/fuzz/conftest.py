"""Shared by every fuzz test: no failpoint arm or hit count leaks from
one test into the next, scenarios are built one way, and a clean
full-matrix replay — the expensive part — runs once per session however
many tests read its result."""

import functools
import random

import pytest

from repro.fuzz import (
    CaseResult,
    Scenario,
    generate_scenario,
    replay_case,
    run_case,
)
from repro.runtime import FAILPOINTS


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


def _scenario(seed) -> Scenario:
    return generate_scenario(random.Random(seed), seed=str(seed))


@functools.lru_cache(maxsize=None)
def clean_case(seed) -> CaseResult:
    """Seed *seed* under the full matrix, unmutated code.  Never call
    this under a monkeypatch: the result would outlive it."""
    return run_case(_scenario(seed))


corpus_case = functools.lru_cache(maxsize=None)(replay_case)
