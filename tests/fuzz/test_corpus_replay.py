"""Replay every minimized corpus case under the full oracle matrix.

Each file in ``tests/corpus/`` is a scenario that once exposed (or, for
the seeded anchors, is known to expose under a deliberate mutation) a
divergence between a maintenance strategy and the recompute oracle.
Replaying them on every CI run keeps each fixed bug fixed.  The whole
parametrized set must stay well under a minute — corpus cases are
minimized, so replays are milliseconds each.
"""

import os

import pytest

from repro.fuzz import default_corpus_dir, load_case

from .conftest import corpus_case

CORPUS_DIR = default_corpus_dir()
CASE_FILES = sorted(
    name
    for name in (
        os.listdir(CORPUS_DIR) if os.path.isdir(CORPUS_DIR) else ()
    )
    if name.endswith(".json")
)


def test_corpus_is_not_empty():
    assert CASE_FILES, f"no corpus cases found under {CORPUS_DIR}"


@pytest.mark.parametrize("case_file", CASE_FILES)
def test_corpus_case_replays_clean(case_file):
    path = os.path.join(CORPUS_DIR, case_file)
    _scenario, meta = load_case(path)
    result = corpus_case(path)
    assert result.ok, (
        f"{case_file} (found: {meta.get('found')}) regressed:\n"
        f"{result.summary()}"
    )
