"""`crnnlint` — project-invariant static analysis for the CRNN codebase.

The system's correctness story rests on invariants that runtime suites
(chaos, parity, soak) only catch minutes after a violation is authored:
bit-exact shard parity requires tick-path determinism, the serve layer
must never block its event loop, and every ``crnn_*`` metric must be
documented.  This package encodes those invariants as fast AST-level
checks so they fail ``make lint`` in seconds (DESIGN §14).

Rule catalog
------------
========  ==========================================================
CRNN001   Determinism: no wall-clock reads, unseeded global RNG, or
          unordered set/``dict.keys()`` iteration in tick-path modules.
CRNN002   Async safety: no blocking calls inside ``async def`` bodies.
CRNN004   Metric-registry drift: every emitted ``crnn_*`` metric is in
          the DESIGN §12 and OPERATIONS inventories, and vice versa.
CRNN005   Exception hygiene: no bare ``except:``, no silently
          swallowed broad handlers, no ``ShardWorkerError`` caught and
          dropped outside the supervisor's classification path.
========  ==========================================================

Findings can be suppressed per line with a *justified* pragma, e.g.
``risky_call()  `# crnnlint: disable=CRNN001 -- replay clock, not wall
time```.

A suppression without justification text (``-- <why>``) or one that
suppresses nothing is itself a lint error, so the shipped tree carries
zero unexplained escapes.

Entry points: ``tools/crnnlint.py`` (CLI), :func:`run_lint` (library),
``make lint`` / the CI ``lint`` job (gates).
"""

from repro.analysis.config import LintConfig, load_config
from repro.analysis.core import Finding, Project, SourceFile, run_lint

__all__ = [
    "Finding",
    "LintConfig",
    "Project",
    "SourceFile",
    "load_config",
    "run_lint",
]
