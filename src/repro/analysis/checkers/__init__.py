"""Checker registry: one class per CRNN rule.

A checker is a stateless object with a ``rule`` id, a one-line
``summary``, and two hooks — ``check_file`` (once per in-scope
:class:`~repro.analysis.core.SourceFile`) and ``check_project`` (once
per tree, for cross-file invariants).  Both default to yielding
nothing, so a rule implements whichever granularity it needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.config import LintConfig
    from repro.analysis.core import Finding, Project, SourceFile

__all__ = ["Checker", "all_checkers"]


class Checker:
    """Base checker: a rule id plus file/project hooks (class docstring)."""

    #: Rule id, e.g. ``"CRNN001"``.
    rule: str = ""
    #: One-line human summary for ``--list-rules``.
    summary: str = ""

    def check_file(
        self, sf: "SourceFile", project: "Project"
    ) -> Iterable["Finding"]:
        """Yield findings for one in-scope file (default: none)."""
        return ()

    def check_project(self, project: "Project") -> Iterable["Finding"]:
        """Yield cross-file findings for the whole tree (default: none)."""
        return ()


def all_checkers(config: "LintConfig") -> list[Checker]:
    """Instantiate every registered rule, in rule-id order."""
    from repro.analysis.checkers.async_safety import AsyncSafetyChecker
    from repro.analysis.checkers.determinism import DeterminismChecker
    from repro.analysis.checkers.exceptions import ExceptionHygieneChecker
    from repro.analysis.checkers.metrics_registry import MetricRegistryChecker

    return [
        DeterminismChecker(),
        AsyncSafetyChecker(),
        MetricRegistryChecker(),
        ExceptionHygieneChecker(),
    ]
