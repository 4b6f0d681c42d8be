"""CRNN003 — shard protocol exhaustiveness.

The coordinator↔worker op set is defined in four places that must
agree (DESIGN §10/§14): the single-source dispatch table
(:func:`repro.shard.engine.dispatch_op`), the journal's op
classification (``MUTATING_OPS`` / ``READONLY_OPS`` / ``LIFECYCLE_OPS``
in ``shard/journal.py``), the supervisor's per-op deadline/liveness
table (``OP_DEADLINE_SCALE`` in ``shard/supervisor.py``), and the
worker loop's lifecycle handling (``_worker_main`` in
``shard/executor.py``).  An op added to one surface but not the others
is precisely the drift that breaks crash recovery — an unjournaled
mutating op silently corrupts replay — so the mismatch is a lint
error, not a code-review hope.

Checked invariants:

1. the dispatch set equals ``MUTATING_OPS ∪ READONLY_OPS`` exactly;
2. the three journal classification sets are pairwise disjoint;
3. ``OP_DEADLINE_SCALE`` covers exactly the dispatchable + lifecycle
   ops (no missing entries, no stale leftovers);
4. the worker loop handles every ``LIFECYCLE_OPS`` entry, and names no
   op the other surfaces do not know.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Optional

from repro.analysis.core import Finding

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.core import Project, SourceFile

from repro.analysis.checkers import Checker

__all__ = ["ProtocolExhaustivenessChecker"]

RULE = "CRNN003"


def _op_comparisons(func: ast.AST) -> tuple[set[str], int]:
    """Collect ``op == "literal"`` comparison targets inside ``func``."""
    ops: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        if not (isinstance(node.left, ast.Name) and node.left.id == "op"):
            continue
        for op_node, comparator in zip(node.ops, node.comparators):
            if isinstance(op_node, (ast.Eq, ast.In)) and isinstance(
                comparator, (ast.Constant, ast.Tuple, ast.Set, ast.List)
            ):
                for value in (
                    [comparator]
                    if isinstance(comparator, ast.Constant)
                    else comparator.elts
                ):
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, str
                    ):
                        ops.add(value.value)
    lineno = getattr(func, "lineno", 1)
    return ops, lineno


def _find_function(tree: ast.Module, name: str) -> Optional[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    return None


def _module_set(tree: ast.Module, name: str) -> Optional[tuple[frozenset, int]]:
    """Evaluate a module-level ``NAME = frozenset({...})`` / set literal."""
    for node in tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set")
            and len(value.args) == 1
        ):
            value = value.args[0]
        try:
            literal = ast.literal_eval(value)
        except (ValueError, TypeError):
            return None
        return frozenset(literal), node.lineno
    return None


def _module_dict_keys(
    tree: ast.Module, name: str
) -> Optional[tuple[frozenset, int]]:
    """Collect the string keys of a module-level dict literal."""
    for node in tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        if not isinstance(node.value, ast.Dict):
            return None
        keys = {
            k.value
            for k in node.value.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        }
        return frozenset(keys), node.lineno
    return None


class ProtocolExhaustivenessChecker(Checker):
    """Cross-check the four shard-protocol op surfaces (module docstring)."""

    rule = RULE
    summary = (
        "dispatch table, journal op classification, supervisor deadline "
        "table, and worker lifecycle handling must agree"
    )

    def check_project(self, project: "Project") -> list[Finding]:
        """Run the four-surface cross-check once per tree."""
        cfg = project.config
        findings: list[Finding] = []

        def missing(rel: str, what: str) -> None:
            findings.append(
                Finding(RULE, rel, 1, f"cannot cross-check protocol: {what}")
            )

        def loaded(rel: str) -> Optional["SourceFile"]:
            sf = project.get(rel)
            if sf is None or sf.tree is None:
                missing(rel, "file missing or unparseable")
                return None
            return sf

        engine = loaded(cfg.engine_path)
        journal = loaded(cfg.journal_path)
        supervisor = loaded(cfg.supervisor_path)
        executor = loaded(cfg.executor_path)
        if engine is None or journal is None or supervisor is None or executor is None:
            return findings

        dispatch_fn = _find_function(engine.tree, "dispatch_op")
        if dispatch_fn is None:
            missing(engine.rel, "no `dispatch_op` function found")
            return findings
        dispatch, dispatch_line = _op_comparisons(dispatch_fn)

        sets = {}
        for set_name in ("MUTATING_OPS", "READONLY_OPS", "LIFECYCLE_OPS"):
            got = _module_set(journal.tree, set_name)
            if got is None:
                missing(journal.rel, f"no literal `{set_name}` set found")
                return findings
            sets[set_name] = got
        mutating, mutating_line = sets["MUTATING_OPS"]
        readonly, readonly_line = sets["READONLY_OPS"]
        lifecycle, _ = sets["LIFECYCLE_OPS"]

        deadline = _module_dict_keys(supervisor.tree, "OP_DEADLINE_SCALE")
        if deadline is None:
            missing(supervisor.rel, "no literal `OP_DEADLINE_SCALE` dict found")
            return findings
        deadline_ops, deadline_line = deadline

        worker_fn = _find_function(executor.tree, "_worker_main")
        if worker_fn is None:
            missing(executor.rel, "no `_worker_main` function found")
            return findings
        worker_ops, worker_line = _op_comparisons(worker_fn)

        fmt = lambda ops: ", ".join(sorted(ops))  # noqa: E731

        # 1. dispatch == MUTATING ∪ READONLY.
        classified = mutating | readonly
        unclassified = dispatch - classified
        if unclassified:
            findings.append(
                Finding(
                    RULE,
                    journal.rel,
                    mutating_line,
                    f"dispatchable op(s) not classified in MUTATING_OPS or "
                    f"READONLY_OPS: {fmt(unclassified)} — an unclassified "
                    "mutating op would be silently dropped from crash replay",
                )
            )
        undispatched = classified - dispatch
        if undispatched:
            findings.append(
                Finding(
                    RULE,
                    engine.rel,
                    dispatch_line,
                    f"op(s) classified in journal.py but absent from "
                    f"`dispatch_op`: {fmt(undispatched)}",
                )
            )

        # 2. classification sets are pairwise disjoint.
        for a_name, a, b_name, b, line in (
            ("MUTATING_OPS", mutating, "READONLY_OPS", readonly, readonly_line),
            ("MUTATING_OPS", mutating, "LIFECYCLE_OPS", lifecycle, mutating_line),
            ("READONLY_OPS", readonly, "LIFECYCLE_OPS", lifecycle, readonly_line),
        ):
            overlap = a & b
            if overlap:
                findings.append(
                    Finding(
                        RULE,
                        journal.rel,
                        line,
                        f"op(s) in both {a_name} and {b_name}: {fmt(overlap)}",
                    )
                )

        # 3. the deadline table covers exactly dispatch ∪ lifecycle.
        expected = dispatch | lifecycle
        undeadlined = expected - deadline_ops
        if undeadlined:
            findings.append(
                Finding(
                    RULE,
                    supervisor.rel,
                    deadline_line,
                    f"op(s) missing from OP_DEADLINE_SCALE: {fmt(undeadlined)} "
                    "— a hang during one could never be classified",
                )
            )
        stale = deadline_ops - expected
        if stale:
            findings.append(
                Finding(
                    RULE,
                    supervisor.rel,
                    deadline_line,
                    f"stale OP_DEADLINE_SCALE entr(ies) for unknown op(s): "
                    f"{fmt(stale)}",
                )
            )

        # 4. the worker loop handles every lifecycle op.
        unhandled = lifecycle - worker_ops
        if unhandled:
            findings.append(
                Finding(
                    RULE,
                    executor.rel,
                    worker_line,
                    f"lifecycle op(s) not handled in `_worker_main`: "
                    f"{fmt(unhandled)}",
                )
            )
        leftover = worker_ops - expected
        if leftover:
            findings.append(
                Finding(
                    RULE,
                    executor.rel,
                    worker_line,
                    f"`_worker_main` handles op(s) no other surface knows: "
                    f"{fmt(leftover)}",
                )
            )
        return findings
