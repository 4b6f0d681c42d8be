"""Observability configuration (the ``MonitorConfig(observability=...)`` knob).

Kept import-free of the rest of the package so that
:mod:`repro.core.config` can embed it without dragging the tracer,
registry, or exporter machinery into every monitor construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Span-sink kinds accepted by :class:`ObsConfig.trace_sink`.
SINK_MEMORY = "memory"  # bounded in-process ring buffer (the default)
SINK_JSONL = "jsonl"  # one JSON object per finished span, appended to a file
SINK_NULL = "null"  # spans are timed and discarded (metrics only)

TRACE_SINKS = (SINK_MEMORY, SINK_JSONL, SINK_NULL)


@dataclass(frozen=True)
class ObsConfig:
    """Tuning knobs of a monitor's observability layer.

    The layer is opt-in: a monitor built without an ``ObsConfig`` keeps
    the null tracer and skips every per-event hook, so the hot paths pay
    only a handful of predictable branch checks per batch (measured
    overhead is documented in DESIGN.md §8).
    """

    #: Fraction of ``process()`` batches whose span tree is recorded.
    #: Sampling is deterministic (every ``1/sample_rate``-th trace), so
    #: two monitors fed the same stream record the same traces.
    sample_rate: float = 1.0
    #: Where finished spans go: ``"memory"`` (ring buffer),
    #: ``"jsonl"`` (``trace_path`` file), or ``"null"``.
    trace_sink: str = SINK_MEMORY
    #: Target file of the ``"jsonl"`` sink.
    trace_path: Optional[str] = None
    #: Capacity of the in-memory ring buffer (oldest spans are evicted
    #: and counted, never silently lost).
    ring_capacity: int = 4096
    #: Maintain per-query health counters (lazy-update deferrals,
    #: recompute causes, staleness) behind :meth:`CRNNMonitor.explain`.
    diagnostics: bool = True
    #: Directory the sharded monitor's flight recorder dumps into on a
    #: :class:`~repro.shard.supervisor.ShardWorkerError` (typically the
    #: supervision WAL directory).  ``None`` keeps the recorder
    #: in-memory only (:meth:`~repro.obs.flight.FlightRecorder.dump`
    #: then returns ``None``).
    flight_dir: Optional[str] = None
    #: Per-shard capacity of the flight recorder's event ring.
    flight_capacity: int = 256

    def __post_init__(self) -> None:
        if not (0.0 <= self.sample_rate <= 1.0):
            raise ValueError("sample_rate must be in [0, 1]")
        if self.trace_sink not in TRACE_SINKS:
            raise ValueError(
                f"trace_sink must be one of {TRACE_SINKS}, got {self.trace_sink!r}"
            )
        if self.trace_sink == SINK_JSONL and not self.trace_path:
            raise ValueError("trace_sink='jsonl' requires trace_path")
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        if self.flight_capacity < 1:
            raise ValueError("flight_capacity must be >= 1")
