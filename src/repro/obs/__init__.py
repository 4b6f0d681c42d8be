"""Observability subsystem: tracing, metrics, exporters, diagnostics.

The layer threads structured telemetry through every other subsystem
while staying strictly opt-in — a monitor built without
``MonitorConfig(observability=ObsConfig(...))`` keeps the shared
:data:`~repro.obs.trace.NULL_TRACER` and pays only a few predictable
branch checks per batch (DESIGN.md §8; the ``observed`` subject of
``tests/test_exactness.py`` holds events, results and logical counters
identical with the layer on or off).

Modules:

* :mod:`repro.obs.trace` — span tree, tracer, ring-buffer/JSONL sinks;
* :mod:`repro.obs.metrics` — counters/gauges/histograms registry and the
  Prometheus text renderer;
* :mod:`repro.obs.core` — the :class:`Observability` facade a monitor
  owns (adapters re-homing ``StatCounters``/``PhaseTimers`` onto the
  registry);
* :mod:`repro.obs.export` — HTTP scrape endpoint, exposition-format
  parser, snapshot schema validation;
* :mod:`repro.obs.explain` — ``monitor.explain(qid)`` per-query health
  reports;
* :mod:`repro.obs.dist` — cross-process trace propagation and
  worker-delta aggregation for the sharded deployment (DESIGN §12);
* :mod:`repro.obs.flight` — the crash-safe coordinator-side flight
  recorder dumped on worker failures (``tools/flightdump.py`` renders);
* :mod:`repro.obs.console` — rate-limited live terminal summary;
* :mod:`repro.obs.logutil` — rate-limited logging used by
  :mod:`repro.robustness`.
"""

from repro.obs.config import ObsConfig
from repro.obs.console import ConsoleSummary
from repro.obs.core import Observability
from repro.obs.dist import (
    ShardObsMerger,
    TraceContext,
    WorkerObs,
    current_context,
    span_in_context,
)
from repro.obs.explain import QueryDiagnostics, SectorDiagnostics, explain_query
from repro.obs.export import (
    ObsHTTPServer,
    PrometheusParseError,
    SnapshotSchemaError,
    parse_prometheus_text,
    validate_snapshot,
)
from repro.obs.flight import FlightRecorder, load_dump, render_timeline
from repro.obs.health import QueryHealth, QueryHealthTracker
from repro.obs.logutil import RateLimitedLogger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.trace import (
    InMemorySink,
    JsonlSink,
    NullSink,
    NULL_TRACER,
    Span,
    Tracer,
    build_tree,
)

__all__ = [
    "ObsConfig",
    "Observability",
    "ConsoleSummary",
    "QueryDiagnostics",
    "SectorDiagnostics",
    "explain_query",
    "ShardObsMerger",
    "TraceContext",
    "WorkerObs",
    "current_context",
    "span_in_context",
    "FlightRecorder",
    "load_dump",
    "render_timeline",
    "ObsHTTPServer",
    "PrometheusParseError",
    "SnapshotSchemaError",
    "parse_prometheus_text",
    "validate_snapshot",
    "QueryHealth",
    "QueryHealthTracker",
    "RateLimitedLogger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "InMemorySink",
    "JsonlSink",
    "NullSink",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "build_tree",
]
