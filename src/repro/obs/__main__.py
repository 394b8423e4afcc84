"""``python -m repro.obs reference`` — the metric and occurrence tables.

Prints the reference tables of docs/OBSERVABILITY.md (the block between
the ``GENERATED`` markers) as generated from :mod:`repro.obs.events`;
``tests/obs/test_contract.py`` fails when the doc and the table
disagree.  The endpoints themselves are served by
``Warehouse(db, obs_http_port=...)``.
"""

from __future__ import annotations

import sys


REFERENCE_BEGIN = "<!-- BEGIN GENERATED: python -m repro.obs reference -->"
REFERENCE_END = "<!-- END GENERATED -->"


def reference_markdown() -> str:
    """The metric-family and occurrence tables, as markdown."""
    from repro.obs.events import FAMILIES, OCCURRENCES

    def cell(text: str) -> str:
        return text.replace("|", "\\|")

    lines = ["| metric | type | labels | help |", "| --- | --- | --- | --- |"]
    for f in FAMILIES:
        labels = ", ".join(f.labels) or "—"
        lines.append(f"| `{f.name}` | {f.type} | {labels} | {cell(f.help)} |")
    lines += ["", "| occurrence | event severity | writes | meaning |"]
    lines.append("| --- | --- | --- | --- |")
    for kind, occurrence in OCCURRENCES.items():
        families = [effect.family for effect in occurrence.effects]
        families += occurrence.writes
        writes = ", ".join(f"`{f.name}`" for f in dict.fromkeys(families)) or "—"
        severity = occurrence.severity or "—"
        lines.append(f"| `{kind}` | {severity} | {writes} | {cell(occurrence.doc)} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["reference"]:
        print("usage: python -m repro.obs reference", file=sys.stderr)
        return 2
    print(reference_markdown())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
