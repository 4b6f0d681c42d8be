"""CRNN004 — metric-registry drift.

DESIGN §12 and ``docs/OPERATIONS.md`` each carry a full inventory
table of every ``crnn_*`` family the stack can export; operators build
dashboards and alerts from those tables.  A metric emitted but not
documented is invisible to operations; a documented-but-gone metric
leaves alerts silently dead.  This rule extracts every full
``crnn_*`` metric-name string literal from the source tree (docstrings
excluded — prose mentions are not emissions) and diffs it against the
names appearing in the two documents' Markdown tables, in both
directions.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional

from repro.analysis.core import Finding, SourceFile, iter_non_docstring_strings

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.core import Project

from repro.analysis.checkers import Checker

__all__ = [
    "MetricRegistryChecker",
    "extract_emitted_metrics",
    "parse_inventory",
]

RULE = "CRNN004"

#: A complete metric name: ``crnn_`` plus word chunks, no trailing
#: underscore — prefix literals like ``"crnn_serve_"`` are not names.
METRIC_NAME_RE = re.compile(r"crnn_[a-z0-9]+(?:_[a-z0-9]+)*")

#: Backticked metric reference inside a Markdown table row; the name
#: capture stops at ``{`` so label-set suffixes are ignored.
_DOC_METRIC_RE = re.compile(r"`(crnn_[a-z0-9_]+)")


def extract_emitted_metrics(
    files: list[SourceFile],
) -> dict[str, tuple[str, int]]:
    """Map every emitted ``crnn_*`` name to its first ``(path, line)``.

    A string literal counts as an emission when the *entire* literal is
    a well-formed metric name (docstrings excluded): registration
    calls, label lookups, scrape assertions.  Partial matches (prefix
    checks like ``"crnn_serve_"``) are ignored.
    """
    emitted: dict[str, tuple[str, int]] = {}
    for sf in files:
        if sf.tree is None:
            continue
        for node in iter_non_docstring_strings(sf.tree):
            if METRIC_NAME_RE.fullmatch(node.value):
                emitted.setdefault(node.value, (sf.rel, node.lineno))
    return emitted


def parse_inventory(text: str) -> dict[str, int]:
    """Extract metric names from a document's Markdown table rows.

    Only lines that are table rows (leading ``|``) contribute, so prose
    mentions of a metric do not count as inventory entries; names are
    taken from backticked tokens and label-set suffixes are stripped.
    Returns ``name -> first line number``.
    """
    names: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.lstrip().startswith("|"):
            continue
        for m in _DOC_METRIC_RE.finditer(line):
            name = m.group(1).rstrip("_")
            if METRIC_NAME_RE.fullmatch(name):
                names.setdefault(name, lineno)
    return names


class MetricRegistryChecker(Checker):
    """Diff emitted ``crnn_*`` names against the two doc inventories."""

    rule = RULE
    summary = (
        "every emitted crnn_* metric documented in DESIGN §12 and "
        "OPERATIONS, and vice versa"
    )

    def check_project(self, project: "Project") -> list[Finding]:
        """Run the bidirectional source↔docs diff once per tree."""
        cfg = project.config
        findings: list[Finding] = []
        emitted = extract_emitted_metrics(project.files)

        docs: dict[str, Optional[dict[str, int]]] = {}
        for rel in (cfg.design_path, cfg.operations_path):
            text = project.read_text(rel)
            if text is None:
                findings.append(
                    Finding(
                        RULE, rel, 1, "metric inventory document missing"
                    )
                )
                docs[rel] = None
            else:
                docs[rel] = parse_inventory(text)

        for rel, documented in docs.items():
            if documented is None:
                continue
            for name in sorted(set(emitted) - set(documented)):
                src, line = emitted[name]
                findings.append(
                    Finding(
                        RULE,
                        src,
                        line,
                        f"metric `{name}` is emitted but missing from the "
                        f"{rel} inventory table — document it (family, "
                        "type, labels, meaning)",
                    )
                )
            for name in sorted(set(documented) - set(emitted)):
                findings.append(
                    Finding(
                        RULE,
                        rel,
                        documented[name],
                        f"metric `{name}` is documented here but never "
                        "emitted in src/ — stale inventory row (renamed or "
                        "removed metric?)",
                    )
                )
        return findings
