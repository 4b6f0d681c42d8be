"""CRNN001 — tick-path determinism.

The parity contract (DESIGN §9–§13) requires every tick-path module to
be a pure function of its input stream: shard replicas assert
bit-identical events, crash recovery replays the journal and must land
on identical state, and the kinetic literature (Rahmati et al.'s
kinetic RkNN, the INSQ certificate maintenance bugs) shows exactly how
silently unordered updates break continuous queries.  Three classes of
construct violate that inside ``core``/``grid``/``rnn``/
``shard/engine``/``shard/monitor``:

* **Wall-clock reads** — ``time.time()``, ``datetime.now()``,
  ``time.time_ns()``: replay happens at a different wall time, so any
  value derived from one diverges.  (``time.perf_counter`` /
  ``time.monotonic`` stay legal: they feed *measurements* such as the
  per-stripe tick wall-times, never event content or tie-breaks.)
* **Unseeded randomness** — module-level ``random.*`` (the global RNG,
  seeded differently per process), ``random.Random()`` with no seed,
  ``os.urandom``, ``uuid.uuid4``, ``secrets.*``.
* **Unordered iteration** — ``for x in {…}`` / ``set(…)`` /
  ``…​.keys()``: set order varies with ``PYTHONHASHSEED`` across worker
  processes, and ``.keys()`` order is insertion history — neither is a
  canonical order; wrap in ``sorted(…)`` or iterate a canonical list.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.core import Finding, build_import_map, resolve_qualname

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.core import Project, SourceFile

from repro.analysis.checkers import Checker

__all__ = ["DeterminismChecker"]

RULE = "CRNN001"

#: Wall-clock / entropy reads that can never be replayed bit-exactly.
FORBIDDEN_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy read",
    "uuid.uuid4": "random UUID",
    "uuid.uuid1": "clock/MAC-derived UUID",
}

#: Module-level ``random.*`` functions that consume the unseeded global
#: RNG (a per-process stream — shard replicas would diverge).
GLOBAL_RNG_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "triangular", "betavariate", "getrandbits", "randbytes",
    }
)


class DeterminismChecker(Checker):
    """Forbid nondeterministic constructs in tick-path modules."""

    rule = RULE
    summary = (
        "no wall-clock reads, unseeded global RNG, or unordered "
        "set/dict.keys() iteration in tick-path modules"
    )

    def check_file(
        self, sf: "SourceFile", project: "Project"
    ) -> Iterable[Finding]:
        """Scan one tick-path module (scoping handled by the driver)."""
        assert sf.tree is not None
        imports = build_import_map(sf.tree)
        findings: list[Finding] = []
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(sf, node, imports))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                findings.extend(self._check_iter(sf, node.iter, imports))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    findings.extend(self._check_iter(sf, gen.iter, imports))
        return findings

    def _check_call(
        self, sf: "SourceFile", node: ast.Call, imports: dict[str, str]
    ) -> Iterator[Finding]:
        qual = resolve_qualname(node.func, imports)
        if qual is None:
            return
        if qual in FORBIDDEN_CALLS:
            yield Finding(
                RULE,
                sf.rel,
                node.lineno,
                f"{FORBIDDEN_CALLS[qual]} `{qual}()` in a tick-path module; "
                "replayed ticks would diverge (pass times/ids in as data)",
            )
        elif qual.startswith("secrets."):
            yield Finding(
                RULE,
                sf.rel,
                node.lineno,
                f"entropy read `{qual}()` in a tick-path module",
            )
        elif qual.startswith("random."):
            fn = qual.split(".", 1)[1]
            if fn in GLOBAL_RNG_FNS:
                yield Finding(
                    RULE,
                    sf.rel,
                    node.lineno,
                    f"unseeded global RNG `{qual}()` in a tick-path module; "
                    "use a seeded `random.Random(seed)` instance",
                )
            elif fn == "Random" and not node.args and not node.keywords:
                yield Finding(
                    RULE,
                    sf.rel,
                    node.lineno,
                    "`random.Random()` without a seed in a tick-path module",
                )

    def _check_iter(
        self, sf: "SourceFile", it: ast.expr, imports: dict[str, str]
    ) -> Iterator[Finding]:
        """Flag iteration whose order is hash- or history-dependent."""
        if isinstance(it, (ast.Set, ast.SetComp)):
            yield Finding(
                RULE,
                sf.rel,
                it.lineno,
                "iteration over a set literal in a tick-path module; order "
                "is hash-seed dependent — wrap in sorted(...)",
            )
            return
        if not isinstance(it, ast.Call):
            return
        qual = resolve_qualname(it.func, imports)
        if qual in ("set", "frozenset"):
            yield Finding(
                RULE,
                sf.rel,
                it.lineno,
                f"iteration over bare `{qual}(...)` in a tick-path module; "
                "order is hash-seed dependent — wrap in sorted(...)",
            )
        elif (
            isinstance(it.func, ast.Attribute)
            and it.func.attr == "keys"
            and not it.args
        ):
            yield Finding(
                RULE,
                sf.rel,
                it.lineno,
                "iteration over `.keys()` in a tick-path module; key order "
                "is insertion history, not a canonical order — iterate "
                "sorted(...) (or the dict itself if order provably cannot "
                "reach events or tie-breaks)",
            )
