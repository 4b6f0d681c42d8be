"""crnnlint framework core: findings, suppressions, checker protocol, driver.

The framework is deliberately small: a :class:`SourceFile` wraps one
parsed module (AST + per-line suppression pragmas), a :class:`Project`
wraps the whole tree, and a checker is any object with a ``rule`` id
that yields :class:`Finding` objects from either ``check_file`` (runs
once per in-scope file) or ``check_project`` (runs once with the whole
tree — the cross-file rule CRNN004 lives there).  The driver
:func:`run_lint` applies per-rule path scoping from
:class:`~repro.analysis.config.LintConfig`, filters suppressed
findings, and reports unjustified or unused suppressions as findings of
their own — the shipped tree must carry **zero** of either (DESIGN
§14).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.config import LintConfig

__all__ = [
    "Finding",
    "Project",
    "SourceFile",
    "Suppression",
    "iter_non_docstring_strings",
    "resolve_qualname",
    "run_lint",
]

#: Meta-rule ids emitted by the framework itself (not suppressible).
RULE_BAD_SUPPRESSION = "CRNN-SUP001"
RULE_UNUSED_SUPPRESSION = "CRNN-SUP002"
RULE_SYNTAX = "CRNN-SYNTAX"

#: ``# crnnlint: disable=CRNN001[,CRNN002] -- justification`` pragma.
#: The backtick lookbehind keeps doc/message text that *quotes* the
#: pragma syntax (as ``…`# crnnlint: …```) from registering as one.
_PRAGMA_RE = re.compile(
    r"(?<!`)#\s*crnnlint:\s*disable=([A-Za-z0-9,\- ]+?)\s*(?:--\s*(.*\S))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One lint violation, attached to a file and line."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        """``path:line: RULE message`` — the CLI output form."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class Suppression:
    """One ``# crnnlint: disable=...`` pragma on one source line."""

    line: int
    rules: frozenset[str]
    justification: str
    used: bool = field(default=False)


class SourceFile:
    """One parsed module: path, text, AST, suppressions, docstring map.

    Parameters
    ----------
    path:
        Absolute path of the module on disk.
    rel:
        Project-root-relative posix path (the scoping and reporting
        key, e.g. ``src/repro/core/monitor.py``).
    text:
        The module source (read by :meth:`load` normally; injectable
        for tests).
    """

    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            self.syntax_error = exc
        #: line number -> Suppression for every pragma in the file.
        self.suppressions: dict[int, Suppression] = {}
        for lineno, line in enumerate(self.lines, start=1):
            m = _PRAGMA_RE.search(line)
            if m is None:
                continue
            rules = frozenset(
                r.strip().upper() for r in m.group(1).split(",") if r.strip()
            )
            self.suppressions[lineno] = Suppression(
                line=lineno, rules=rules, justification=(m.group(2) or "").strip()
            )

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceFile":
        """Read and parse one module from disk."""
        return cls(path, rel, path.read_text(encoding="utf-8"))

    def suppresses(self, rule: str, line: int) -> bool:
        """True (and mark used) if ``rule`` is pragma-disabled on ``line``."""
        sup = self.suppressions.get(line)
        if sup is None or rule not in sup.rules:
            return False
        sup.used = True
        return True


class Project:
    """The whole tree under lint: root path, parsed files, config."""

    def __init__(self, root: Path, files: list[SourceFile], config: "LintConfig"):
        self.root = root
        self.files = files
        self.config = config
        self._by_rel = {sf.rel: sf for sf in files}

    def get(self, rel: str) -> Optional[SourceFile]:
        """Look one parsed file up by root-relative posix path."""
        return self._by_rel.get(rel)

    def read_text(self, rel: str) -> Optional[str]:
        """Read a non-Python project file (docs) relative to the root."""
        path = self.root / rel
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# Shared AST helpers (used by several checkers)
# ----------------------------------------------------------------------
def build_import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical dotted origins for one module.

    ``import time`` -> ``{"time": "time"}``; ``from time import time as
    t`` -> ``{"t": "time.time"}``; ``import os.path`` -> ``{"os":
    "os"}``.  Relative imports are mapped with a leading ``.`` so they
    never collide with stdlib names.
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origin = alias.name if alias.asname else alias.name.split(".", 1)[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{module}.{alias.name}" if module else alias.name
    return imports


def resolve_qualname(node: ast.expr, imports: dict[str, str]) -> Optional[str]:
    """Resolve a call target to a dotted path through the import map.

    ``time.time`` with ``import time`` resolves to ``"time.time"``;
    a bare name imported via ``from time import time`` resolves the
    same way.  Names with no import entry resolve to themselves (so
    builtins like ``open`` are matchable); attribute chains rooted in
    unresolvable expressions (``self.x.y()``) return ``None``.
    """
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = imports.get(cur.id, cur.id)
    parts.append(root)
    return ".".join(reversed(parts))


def docstring_nodes(tree: ast.Module) -> set[int]:
    """Ids of every docstring ``Constant`` node in the module."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def iter_non_docstring_strings(tree: ast.Module) -> Iterator[ast.Constant]:
    """Yield every string ``Constant`` that is not a docstring."""
    docs = docstring_nodes(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
        ):
            yield node


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _discover(root: Path, config: "LintConfig") -> list[SourceFile]:
    """Load every Python file the config scopes the lint to."""
    files: list[SourceFile] = []
    for pattern in config.source_globs:
        for path in sorted(root.glob(pattern)):
            if not path.is_file() or path.suffix != ".py":
                continue
            rel = path.relative_to(root).as_posix()
            if any(fnmatch(rel, ex) for ex in config.exclude_globs):
                continue
            files.append(SourceFile.load(path, rel))
    # De-duplicate overlapping globs while preserving sorted order.
    seen: set[str] = set()
    unique = []
    for sf in files:
        if sf.rel not in seen:
            seen.add(sf.rel)
            unique.append(sf)
    return unique


def _in_scope(rel: str, patterns: Iterable[str]) -> bool:
    """True when ``rel`` matches any scoping glob (``*`` crosses ``/``)."""
    return any(fnmatch(rel, pat) for pat in patterns)


def run_lint(
    root: Path,
    config: Optional["LintConfig"] = None,
    select: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Run every registered checker over the tree rooted at ``root``.

    Parameters
    ----------
    root:
        Project root; rule scoping globs and the cross-file rules'
        file locations are all resolved against it.
    config:
        Scoping/locations config; defaults to
        :func:`~repro.analysis.config.load_config` (pyproject-aware).
    select:
        Optional iterable of rule ids to run (default: all).

    Returns
    -------
    list[Finding]
        Unsuppressed findings plus suppression-hygiene findings,
        sorted by ``(path, line, rule)``.  Empty means the tree is
        clean.
    """
    from repro.analysis.checkers import all_checkers
    from repro.analysis.config import load_config

    if config is None:
        config = load_config(root)
    files = _discover(root, config)
    project = Project(root, files, config)
    wanted = {r.upper() for r in select} if select is not None else None

    raw: list[Finding] = []
    for sf in files:
        if sf.syntax_error is not None:
            raw.append(
                Finding(
                    RULE_SYNTAX,
                    sf.rel,
                    sf.syntax_error.lineno or 1,
                    f"syntax error: {sf.syntax_error.msg}",
                )
            )
    for checker in all_checkers(config):
        if wanted is not None and checker.rule not in wanted:
            continue
        scope = config.rule_paths.get(checker.rule)
        for sf in files:
            if sf.tree is None:
                continue
            if scope is not None and not _in_scope(sf.rel, scope):
                continue
            raw.extend(checker.check_file(sf, project))
        raw.extend(checker.check_project(project))

    findings: list[Finding] = []
    for f in raw:
        sf = project.get(f.path)
        if sf is not None and sf.suppresses(f.rule, f.line):
            continue
        findings.append(f)

    # Suppression hygiene: every pragma needs a justification, and —
    # unless the run was rule-filtered, when "unused" is meaningless —
    # must actually suppress something.
    for sf in files:
        for sup in sf.suppressions.values():
            if not sup.justification:
                findings.append(
                    Finding(
                        RULE_BAD_SUPPRESSION,
                        sf.rel,
                        sup.line,
                        "suppression without justification "
                        "(use `# crnnlint: disable=RULE -- why`)",
                    )
                )
            elif wanted is None and not sup.used:
                findings.append(
                    Finding(
                        RULE_UNUSED_SUPPRESSION,
                        sf.rel,
                        sup.line,
                        f"unused suppression for {', '.join(sorted(sup.rules))} "
                        "(nothing fires here; delete the pragma)",
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
