"""The fault tables cannot drift from the failpoints or from the docs:
every site declared in ``runtime/failpoints.py`` is armed by a fault row
of the default matrix, every fault row fires over the corpus plus ten
seeds, and ``docs/FUZZING.md`` names exactly the
configs and only the failpoints that exist."""

import os
import re
from collections import Counter

import pytest

from repro.fuzz import default_corpus_dir, iter_cases
from repro.fuzz.matrix import FAULTS, config_names, default_matrix
from repro.runtime import FAILPOINTS
from repro.runtime.failpoints import SITES

from .conftest import clean_case, corpus_case

#: Sites no fault row covers yet.  May only shrink; each entry needs a
#: one-line reason here and in the ROADMAP oracle item.
UNCOVERED = ()


def test_every_failpoint_is_covered_by_a_fault_row_that_fires():
    rows = {fault for config in default_matrix() for fault in config.faults}
    assert rows == set(FAULTS), "a declared fault row sits in no config"
    results = [corpus_case(path) for path, _s, _m in iter_cases(default_corpus_dir())]
    results += [clean_case(seed) for seed in range(10)]
    fired = Counter()
    for result in results:
        assert result.ok, result.summary()
        for counters in result.exercised.values():
            fired.update(counters)
    idle = sorted(fault.name for fault in rows if not fired[fault.name])
    assert not idle, f"fault rows that never fired: {idle}"
    # a row counts as fired when a site it arms fired, so a site is
    # covered exactly when some row arming it is not idle
    armed = {site for fault in rows for site in fault.sites}
    assert armed <= set(SITES)
    uncovered = sorted(set(SITES) - armed)
    print(f"uncovered failpoints: {uncovered or 'none'}")
    assert uncovered == sorted(UNCOVERED)


def test_arming_an_undeclared_site_is_an_error():
    with pytest.raises(ValueError, match="unknown failpoint 'wal.apend'"):
        FAILPOINTS.arm("wal.apend")
    assert FAILPOINTS.hit("not.a.site") is False  # hit() stays a bare miss


def test_fuzzing_doc_names_the_configs_and_failpoints_that_exist():
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "docs", "FUZZING.md"
    )
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    matrix = text.split("## The configuration matrix")[1].split("\n## ")[0]
    table = matrix.split("### Fault rows")[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)` \|", table, flags=re.M)
    assert sorted(documented) == sorted(config_names())
    fault_table = matrix.split("### Fault rows")[1]
    rows = re.findall(r"^\| `([a-z@.-]+)` \|", fault_table, flags=re.M)
    assert sorted(rows) == sorted(fault.name for fault in FAULTS)
    families = {site.split(".")[0] for site in SITES}
    mentioned = {
        token
        for token in re.findall(r"`([a-z]+(?:\.[a-z]+)+)`", text)
        if token.split(".")[0] in families
    }
    assert mentioned <= set(SITES), sorted(mentioned - set(SITES))
