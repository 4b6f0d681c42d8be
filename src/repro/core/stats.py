"""Operation counters shared by the index structures and the monitor.

The paper evaluates CPU time, but the *reasons* one variant beats another
are operation counts: NN searches avoided by lazy-update, circle-table
entries avoided by partial-insert, cells visited by the filter step.
Every structure in the library increments a shared :class:`StatCounters`
so benchmarks and ablations can report both time and work.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

#: The exactness contract's counter set: deterministic for a given
#: update stream (no dependency on which kernel twin served a search,
#: on the shard count or executor, or on the machine).  The exactness
#: harness (``tests/test_exactness.py``) compares exactly this slice.
LOGICAL_COUNTERS = (
    "nn_searches",
    "constrained_nn_searches",
    "pie_case1",
    "pie_case2",
    "pie_case3",
    "result_changes",
    "containment_queries",
    "circ_lazy_radius_updates",
    "circ_nn_searches_triggered",
    "query_recomputations",
)


def logical_subset(counters: Mapping[str, int]) -> dict[str, int]:
    """The :data:`LOGICAL_COUNTERS` slice of a :meth:`StatCounters.snapshot` dict."""
    return {name: counters[name] for name in LOGICAL_COUNTERS}


@dataclass
class StatCounters:
    """Mutable bundle of operation counters."""

    cells_visited: int = 0
    heap_pops: int = 0
    nn_searches: int = 0
    constrained_nn_searches: int = 0
    containment_queries: int = 0
    fur_node_accesses: int = 0
    fur_bottom_up_updates: int = 0
    fur_topdown_reinserts: int = 0
    pie_case1: int = 0
    pie_case2: int = 0
    pie_case3: int = 0
    circ_lazy_radius_updates: int = 0
    circ_nn_searches_triggered: int = 0
    partial_insert_hash_hits: int = 0
    query_recomputations: int = 0
    result_changes: int = 0
    # Ingestion-guard counters (repro.robustness.guard): malformed
    # updates seen at the API boundary, by violation kind and by the
    # action the configured policy took.
    guard_nonfinite: int = 0
    guard_out_of_bounds: int = 0
    guard_id_conflicts: int = 0
    guard_unknown_deletes: int = 0
    guard_dropped: int = 0
    guard_clamped: int = 0
    # Invariant-auditor counters (repro.robustness.audit).
    audit_runs: int = 0
    audit_queries_checked: int = 0
    audit_divergences: int = 0
    audit_repairs: int = 0
    audit_escalations: int = 0
    # Checkpoint/recovery counters (repro.robustness.checkpoint).
    checkpoints_saved: int = 0
    checkpoints_restored: int = 0
    # Vectorized fast-path counters (repro.perf).  The logical work
    # counters above stay identical between the scalar and vector
    # kernel twins; these record which kernel served a request and how
    # the batched machinery behaved, so benchmarks can attribute speedups.
    # vector_containment_batches counts the batched circ phase's one
    # tick-wide containment sweep (one per process() batch whose circ
    # store has records); vector_containment_candidates counts its exact
    # `dist < radius` re-checks (prefilter and escape candidates of the
    # movers it visits).
    cells_materialized: int = 0
    csr_rebuilds: int = 0
    vector_nn_kernel_calls: int = 0
    vector_nn_kernel_fallbacks: int = 0
    vector_containment_batches: int = 0
    vector_containment_candidates: int = 0
    vector_pie_prefilter_hits: int = 0
    vector_pie_prefilter_skips: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, int]:
        """Current values as a plain dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Per-counter change since ``before`` (a previous snapshot)."""
        return {name: value - before.get(name, 0) for name, value in self.snapshot().items()}

    def __add__(self, other: "StatCounters") -> "StatCounters":
        merged = StatCounters()
        for f in fields(self):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged
