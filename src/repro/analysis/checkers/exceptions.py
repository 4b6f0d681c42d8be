"""CRNN005 — exception hygiene.

Three patterns defeat the failure-classification story (DESIGN §10):

* **Bare ``except:``** — catches ``SystemExit``/``KeyboardInterrupt``
  and hides typed failures behind a silence the supervisor can never
  classify.
* **Silently swallowed broad handlers** — ``except Exception: pass``
  turns every bug into a no-op; if best-effort teardown genuinely must
  never raise, say so with a justified suppression.
* **Swallowed ``ShardWorkerError``** — the typed worker-failure signal
  must reach the supervisor's classification path (crash/hang/
  protocol/fault); a handler outside that path that catches it
  without re-raising breaks recovery accounting.  Handlers that
  re-raise (any ``raise`` in the handler body) are legal.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Iterable

from repro.analysis.core import Finding

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.core import Project, SourceFile

from repro.analysis.checkers import Checker

__all__ = ["ExceptionHygieneChecker"]

RULE = "CRNN005"

_BROAD = frozenset({"Exception", "BaseException"})


def _caught_names(type_node: ast.expr | None) -> set[str]:
    """The leaf exception-class names a handler's type clause mentions."""
    if type_node is None:
        return set()
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _only_silence(body: list[ast.stmt]) -> bool:
    """True when a handler body does nothing (pass/.../continue)."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a bare docstring/ellipsis expression
        return False
    return True


def _reraises(body: list[ast.stmt]) -> bool:
    """True when the handler body contains any ``raise``."""
    return any(isinstance(n, ast.Raise) for stmt in body for n in ast.walk(stmt))


class ExceptionHygieneChecker(Checker):
    """Flag bare/swallowing handlers and stray ShardWorkerError catches."""

    rule = RULE
    summary = (
        "no bare except, no silent broad swallows, no ShardWorkerError "
        "dropped outside the supervisor"
    )

    def check_file(
        self, sf: "SourceFile", project: "Project"
    ) -> Iterable[Finding]:
        """Scan every ``except`` handler in one module."""
        assert sf.tree is not None
        exempt = any(
            fnmatch(sf.rel, pat)
            for pat in project.config.supervisor_exempt_globs
        )
        findings: list[Finding] = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _caught_names(node.type)
            if node.type is None:
                findings.append(
                    Finding(
                        RULE,
                        sf.rel,
                        node.lineno,
                        "bare `except:` hides SystemExit/KeyboardInterrupt "
                        "and every typed failure; name the exception types",
                    )
                )
            elif names & _BROAD and _only_silence(node.body):
                caught = ", ".join(sorted(names & _BROAD))
                findings.append(
                    Finding(
                        RULE,
                        sf.rel,
                        node.lineno,
                        f"`except {caught}` silently swallows every failure; "
                        "narrow it to the intended exception types (or "
                        "justify with a suppression if teardown must never "
                        "raise)",
                    )
                )
            if (
                "ShardWorkerError" in names
                and not exempt
                and not _reraises(node.body)
            ):
                findings.append(
                    Finding(
                        RULE,
                        sf.rel,
                        node.lineno,
                        "`ShardWorkerError` caught and dropped outside the "
                        "supervisor's classification path; re-raise (or a "
                        "typed conversion) so recovery accounting stays "
                        "correct",
                    )
                )
        return findings
