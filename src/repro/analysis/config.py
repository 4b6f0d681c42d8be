"""Lint configuration: per-rule path scoping + cross-file rule locations.

Defaults target this repository's layout; everything is overridable
from ``[tool.crnnlint]`` in ``pyproject.toml`` (and tests construct
:class:`LintConfig` directly to point the cross-file rules at fixture
trees).  Scoping globs use :func:`fnmatch.fnmatch` semantics where
``*`` crosses ``/`` — ``src/repro/core/*`` therefore covers the whole
subtree.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = ["LintConfig", "load_config"]

#: Modules whose iteration order and clock reads feed event emission or
#: tie-breaks — the bit-exact replay/parity surface (DESIGN §9–§13).
TICK_PATH_GLOBS = (
    "src/repro/core/*",
    "src/repro/grid/*",
    "src/repro/rnn/*",
    "src/repro/perf/kernels.py",
    "src/repro/shard/engine.py",
    "src/repro/shard/monitor.py",
)


@dataclass(frozen=True)
class LintConfig:
    """Everything :func:`~repro.analysis.core.run_lint` needs besides code.

    Parameters
    ----------
    source_globs:
        Root-relative globs selecting the Python files under lint.
    exclude_globs:
        Root-relative fnmatch patterns removed from the selection.
    rule_paths:
        Per-rule scoping: rule id -> fnmatch patterns a file must match
        for the rule's ``check_file`` to run there.  Rules absent from
        the map run everywhere.
    design_path / operations_path:
        The two documents whose inventory tables CRNN004 diffs the
        emitted ``crnn_*`` metric set against.
    supervisor_exempt_globs:
        Files allowed to catch-and-classify ``ShardWorkerError``
        without re-raising (CRNN005's classification-path exemption).
    """

    source_globs: tuple[str, ...] = ("src/repro/**/*.py",)
    exclude_globs: tuple[str, ...] = ()
    rule_paths: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "CRNN001": TICK_PATH_GLOBS,
            "CRNN002": ("src/repro/*",),
            "CRNN005": ("src/repro/*",),
        }
    )
    design_path: str = "DESIGN.md"
    operations_path: str = "docs/OPERATIONS.md"
    supervisor_exempt_globs: tuple[str, ...] = ("src/repro/shard/supervisor.py",)


def load_config(root: Path) -> LintConfig:
    """Build the lint config for ``root``, honoring ``[tool.crnnlint]``.

    Recognized pyproject keys (all optional): ``source-globs``,
    ``exclude-globs``, ``rule-paths`` (table of rule id -> list of
    globs, merged over the defaults), and CRNN004's document locations
    ``design-path`` / ``operations-path``.
    """
    config = LintConfig()
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError:
        return config
    section = data.get("tool", {}).get("crnnlint", {})
    if not isinstance(section, dict):
        return config

    updates: dict[str, object] = {}
    for toml_key, attr in (
        ("source-globs", "source_globs"),
        ("exclude-globs", "exclude_globs"),
    ):
        if toml_key in section:
            updates[attr] = tuple(str(g) for g in section[toml_key])
    for toml_key, attr in (
        ("design-path", "design_path"),
        ("operations-path", "operations_path"),
    ):
        if toml_key in section:
            updates[attr] = str(section[toml_key])
    if "rule-paths" in section and isinstance(section["rule-paths"], dict):
        merged = dict(config.rule_paths)
        for rule, globs in section["rule-paths"].items():
            merged[str(rule).upper()] = tuple(str(g) for g in globs)
        updates["rule_paths"] = merged
    return replace(config, **updates) if updates else config
