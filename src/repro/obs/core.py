"""The :class:`Observability` facade a :class:`CRNNMonitor` owns.

One object bundles the three legs of the layer — tracer, metrics
registry, per-query health tracker — and adapts the monitor's existing
instrumentation (:class:`~repro.core.stats.StatCounters`,
:class:`~repro.perf.timers.PhaseTimers`) onto the registry via pull
collectors, so every historical counter shows up in the Prometheus
exposition and the JSON snapshot without a second write path.

A disabled facade (``ObsConfig`` absent) still exists — the monitor's
hot paths check one ``enabled`` attribute and the null tracer — but
allocates no sink, registers no hooks, and records nothing, keeping the
disabled overhead within the documented bound.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.config import SINK_JSONL, SINK_NULL, ObsConfig
from repro.obs.health import QueryHealthTracker
from repro.obs.metrics import (
    CollectedFamily,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.trace import (
    InMemorySink,
    JsonlSink,
    NullSink,
    NULL_TRACER,
    SpanSink,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import CRNNMonitor

__all__ = ["Observability", "SNAPSHOT_SCHEMA", "SNAPSHOT_VERSION"]

SNAPSHOT_SCHEMA = "crnn-obs"
SNAPSHOT_VERSION = 1

#: Batch-size histogram buckets (updates per ``process()`` call).
_BATCH_SIZE_BUCKETS = (1.0, 5.0, 25.0, 100.0, 500.0, 2_500.0, 10_000.0, 50_000.0)
_CHANGE_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0, 1_000.0)


def _build_sink(config: ObsConfig) -> SpanSink:
    if config.trace_sink == SINK_NULL:
        return NullSink()
    if config.trace_sink == SINK_JSONL:
        assert config.trace_path is not None  # enforced by ObsConfig
        return JsonlSink(config.trace_path)
    return InMemorySink(config.ring_capacity)


class Observability:
    """Tracer + metrics registry + per-query health for one monitor."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config
        self.enabled = config is not None
        self.registry = MetricsRegistry()
        self._monitor: Optional["CRNNMonitor"] = None
        if config is not None:
            self.sink: Optional[SpanSink] = _build_sink(config)
            self.tracer = Tracer(self.sink, sample_rate=config.sample_rate)
            self.health: Optional[QueryHealthTracker] = (
                QueryHealthTracker() if config.diagnostics else None
            )
            self._batch_seconds = self.registry.histogram(
                "crnn_batch_seconds", "process() wall time per batch"
            )
            self._batch_updates = self.registry.histogram(
                "crnn_batch_updates", "sanitized updates per batch",
                buckets=_BATCH_SIZE_BUCKETS,
            )
            self._batch_changes = self.registry.histogram(
                "crnn_batch_result_changes", "result-change events per batch",
                buckets=_CHANGE_BUCKETS,
            )
        else:
            self.sink = None
            self.tracer = NULL_TRACER
            self.health = None
            self._batch_seconds = None
            self._batch_updates = None
            self._batch_changes = None

    # ------------------------------------------------------------------
    # Monitor wiring
    # ------------------------------------------------------------------
    def attach(self, monitor: "CRNNMonitor") -> None:
        """Bind to ``monitor`` and re-home its counters/timers as
        registry collectors (pull-based: zero hot-path cost)."""
        self._monitor = monitor
        if not self.enabled:
            return
        self.registry.register_collector(self._collect_stats)
        self.registry.register_collector(self._collect_timers)
        self.registry.register_collector(self._collect_state)

    def _collect_stats(self) -> list[CollectedFamily]:
        assert self._monitor is not None
        stats = self._monitor.stats
        samples = [
            ({"op": f.name}, float(getattr(stats, f.name))) for f in fields(stats)
        ]
        return [
            CollectedFamily(
                "crnn_ops_total", "counter",
                "operation counters (StatCounters adapter)", samples,
            )
        ]

    def _collect_timers(self) -> list[CollectedFamily]:
        assert self._monitor is not None
        timers = self._monitor.timers
        return [
            CollectedFamily(
                "crnn_phase_seconds_total", "counter",
                "accumulated wall time per process() phase (PhaseTimers adapter)",
                [({"phase": name}, total) for name, total in sorted(timers.totals.items())],
            ),
            CollectedFamily(
                "crnn_phase_entries_total", "counter",
                "times each phase ran",
                [({"phase": name}, float(c)) for name, c in sorted(timers.counts.items())],
            ),
        ]

    def _collect_state(self) -> list[CollectedFamily]:
        assert self._monitor is not None
        monitor = self._monitor
        gauges = [
            CollectedFamily("crnn_objects", "gauge", "monitored objects",
                            [({}, float(monitor.object_count()))]),
            CollectedFamily("crnn_queries", "gauge", "registered queries",
                            [({}, float(monitor.query_count()))]),
            CollectedFamily("crnn_circ_records", "gauge", "live circ-region records",
                            [({}, float(len(monitor.circ)))]),
            CollectedFamily("crnn_pending_events", "gauge",
                            "result-change events awaiting drain_events()",
                            [({}, float(len(monitor._events)))]),
        ]
        sink = self.sink
        if isinstance(sink, InMemorySink):
            gauges.append(CollectedFamily(
                "crnn_trace_spans_total", "counter", "spans emitted to the ring buffer",
                [({}, float(sink.emitted))]))
            gauges.append(CollectedFamily(
                "crnn_trace_spans_dropped_total", "counter",
                "spans evicted from the ring buffer",
                [({}, float(sink.dropped))]))
        gauges.append(CollectedFamily(
            "crnn_traces_started_total", "counter",
            "root spans started (sampled or not)",
            [({}, float(self.tracer.traces_started))]))
        return gauges

    # ------------------------------------------------------------------
    # Hot-path hooks (called by the monitor only when enabled)
    # ------------------------------------------------------------------
    def observe_batch(self, seconds: float, updates: int, changes: int) -> None:
        """Record one processed batch: latency histogram, update/result-change totals."""
        self._batch_seconds.observe(seconds)
        self._batch_updates.observe(float(updates))
        self._batch_changes.observe(float(changes))
        if self.health is not None:
            self.health.on_batch()

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The full metric set in Prometheus text exposition format."""
        return render_prometheus(self.registry)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe snapshot: metrics plus per-query health."""
        cfg: dict[str, Any] = {}
        if self.config is not None:
            cfg = {
                "sample_rate": self.config.sample_rate,
                "trace_sink": self.config.trace_sink,
                "ring_capacity": self.config.ring_capacity,
                "diagnostics": self.config.diagnostics,
                "flight_dir": self.config.flight_dir,
                "flight_capacity": self.config.flight_capacity,
            }
        return {
            "schema": SNAPSHOT_SCHEMA,
            "version": SNAPSHOT_VERSION,
            "enabled": self.enabled,
            "config": cfg,
            "metrics": self.registry.snapshot(),
            "health": (
                {qid: h.to_dict() for qid, h in sorted(self.health.all().items())}
                if self.health is not None
                else None
            ),
        }

    def close(self) -> None:
        """Flush/close the span sink (JSONL files in particular)."""
        if self.sink is not None:
            self.sink.close()
