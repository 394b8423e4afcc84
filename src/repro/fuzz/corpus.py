"""The regression corpus: minimized failing cases as checked-in JSON.

Every case the fuzzer minimizes is serialized here (filename =
content hash, so re-finding a known case is idempotent) and replayed by
``tests/fuzz/test_corpus_replay.py`` on every CI run — once a bug is
found and fixed, its minimized trigger keeps guarding the fix forever.

A corpus file is one JSON object::

    {
      "version": 1,
      "found": "seed=1234 ...",     # provenance, free-form
      "reason": "...",              # mismatch summary at minimization time
      "scenario": { ... }           # Scenario.to_dict()
    }

Replaying checks the scenario against the *current* oracle matrix; a
corpus case passes when the full matrix reports no mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterator, List, Optional, Tuple

from .generator import Scenario
from .matrix import OracleConfig
from .oracle import CaseResult, run_case

__all__ = [
    "CORPUS_VERSION",
    "default_corpus_dir",
    "save_case",
    "load_case",
    "iter_cases",
    "replay_case",
]

CORPUS_VERSION = 1

# repo-root/tests/corpus, resolved relative to this file so it works from
# any CWD (CLI, pytest, CI)
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..")
)


def default_corpus_dir() -> str:
    return os.path.join(_REPO_ROOT, "tests", "corpus")


def save_case(
    scenario: Scenario,
    reason: str,
    corpus_dir: Optional[str] = None,
    found: Optional[str] = None,
) -> str:
    """Serialize a minimized failing *scenario*; returns the file path."""
    corpus_dir = corpus_dir or default_corpus_dir()
    os.makedirs(corpus_dir, exist_ok=True)
    payload = {
        "version": CORPUS_VERSION,
        "found": found or scenario.seed or "unknown",
        "reason": reason,
        "scenario": scenario.to_dict(),
    }
    body = json.dumps(payload, indent=1, sort_keys=True)
    digest = hashlib.sha1(
        json.dumps(payload["scenario"], sort_keys=True).encode()
    ).hexdigest()[:16]
    path = os.path.join(corpus_dir, f"case-{digest}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body + "\n")
    return path


def load_case(path: str) -> Tuple[Scenario, dict]:
    """Read one corpus file → (scenario, metadata)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version")
    if version != CORPUS_VERSION:
        raise ValueError(
            f"{path}: corpus version {version!r}, expected {CORPUS_VERSION}"
        )
    meta = {k: v for k, v in payload.items() if k != "scenario"}
    return Scenario.from_dict(payload["scenario"]), meta


def iter_cases(
    corpus_dir: Optional[str] = None,
) -> Iterator[Tuple[str, Scenario, dict]]:
    """All corpus files in deterministic (sorted) order."""
    corpus_dir = corpus_dir or default_corpus_dir()
    if not os.path.isdir(corpus_dir):
        return
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, name)
        scenario, meta = load_case(path)
        yield path, scenario, meta


def replay_case(
    path: str, configs: Optional[List[OracleConfig]] = None
) -> CaseResult:
    """Re-run one corpus case against the (current) oracle matrix."""
    scenario, _ = load_case(path)
    return run_case(scenario, configs)
