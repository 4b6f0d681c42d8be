"""Distributed observability: trace context, worker-side obs, merging.

PR 3's :mod:`repro.obs` sees one process.  This module carries it across
the two boundaries the system actually has:

* **process boundary** (coordinator → shard worker): every executor
  request carries a fixed header ``(trace_ctx, op, *args)``
  whose first slot holds the coordinator's :class:`TraceContext` in
  wire form (``None`` when nothing is being recorded); the worker
  *adopts* that context
  (:meth:`~repro.obs.trace.Tracer.adopt`) so its CPM/circ spans join the
  coordinator's trace instead of starting an invisible local one;
* **wire boundary** (serve client → server): the same two-int context
  rides an optional ``trace`` field on ``tick``/``batch`` frames, so a
  client-initiated tick yields one coherent trace spanning serve
  ingestion, scatter, per-worker work, gather, and fanout.

Workers run a :class:`WorkerObs` — a local bounded span ring plus a
baseline of the shard's :class:`~repro.core.stats.StatCounters` — and
piggyback *deltas* on op replies (no sockets, no threads, fully
deterministic).  The coordinator's :class:`ShardObsMerger` folds those
deltas into its registry under a ``shard`` label and keeps exact running
totals, so ``/metrics`` reports whole-system counters and
:meth:`ShardObsMerger.assert_parity` can prove the merged numbers equal
the workers' own counters.

Span-id spaces: each worker's tracer issues ids above
``(shard + 1) * WORKER_SPAN_STRIDE``, so spans merged from different
workers (and the coordinator's own, below the first stride) never
collide within a trace.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.obs.health import QueryHealthTracker
from repro.obs.trace import InMemorySink, Span, SpanSink, Tracer

__all__ = [
    "TraceContext",
    "current_context",
    "span_in_context",
    "WORKER_SPAN_STRIDE",
    "WorkerObs",
    "span_from_dict",
    "ShardObsMerger",
]

#: Per-worker span-id stride; worker ``k`` issues span ids in
#: ``((k+1) * stride, (k+2) * stride)`` while the coordinator keeps the
#: range below the first stride.  2^40 ids per process outlasts any
#: realistic run.
WORKER_SPAN_STRIDE = 1 << 40


@dataclass(frozen=True)
class TraceContext:
    """The portable part of a sampling decision: ``(trace, parent)``.

    A context only exists for *recorded* traces — an unsampled tick
    propagates no context at all (``current_context`` returns ``None``),
    which is what keeps remote spans from being recorded for traces the
    origin decided to drop.
    """

    #: Trace id assigned by the originating tracer.
    trace_id: int
    #: Span id of the remote parent (the span that was open when the
    #: context was captured), or ``None`` for a parentless adoption.
    parent_id: Optional[int] = None
    #: Always ``True`` in practice: unsampled work carries no context.
    sampled: bool = True

    def to_wire(self) -> list:
        """The JSON/pickle-safe two-element form ``[trace, parent]``."""
        return [self.trace_id, self.parent_id]

    @classmethod
    def from_wire(cls, raw: object) -> "TraceContext":
        """Parse :meth:`to_wire` output; raises ``ValueError`` if malformed."""
        if (
            not isinstance(raw, (list, tuple))
            or len(raw) != 2
            or not isinstance(raw[0], int)
            or isinstance(raw[0], bool)
            or not (
                raw[1] is None
                or (isinstance(raw[1], int) and not isinstance(raw[1], bool))
            )
        ):
            raise ValueError(f"malformed trace context {raw!r}")
        return cls(trace_id=raw[0], parent_id=raw[1])


def current_context(tracer: Tracer) -> Optional[TraceContext]:
    """The :class:`TraceContext` of ``tracer``'s innermost open span.

    Returns ``None`` when nothing is being recorded — tracing disabled,
    the current trace unsampled, or no span open — so callers propagate
    context exactly when the local trace is real.
    """
    span = tracer.current
    if span is None:
        return None
    return TraceContext(trace_id=span.trace_id, parent_id=span.span_id)


def span_in_context(tracer: Tracer, name: str, ctx: Optional[TraceContext], **attrs: Any):
    """Open a span under ``ctx`` when present, else a plain local span.

    With a context, the span *adopts* the remote trace (bypassing local
    sampling — the origin already sampled).  Without one, this is
    exactly ``tracer.span(name, **attrs)``: on a worker tracer built
    with ``sample_rate=0`` that suppresses the whole subtree, which is
    the correct behaviour for ops whose originating tick was unsampled.
    """
    if ctx is not None and ctx.sampled and tracer.enabled:
        return tracer.adopt(name, ctx.trace_id, ctx.parent_id, **attrs)
    return tracer.span(name, **attrs)


# ----------------------------------------------------------------------
# Worker-side observability
# ----------------------------------------------------------------------
class WorkerObs:
    """A shard worker's local observability kit.

    Deliberately socket-free and deterministic: a bounded in-memory span
    ring, a tracer that records *only* adopted (coordinator-sampled)
    traces, an optional per-query health tracker, and a counter baseline
    from which :meth:`delta` derives the piggyback payload appended to
    op replies.
    """

    def __init__(
        self,
        shard: int,
        ring_capacity: int = 4096,
        diagnostics: bool = True,
        max_delta_spans: int = 64,
    ):
        self.shard = shard
        self.sink = InMemorySink(ring_capacity)
        #: ``sample_rate=0`` so locally-rooted spans (ops whose tick was
        #: unsampled) suppress their subtree; only ``adopt()`` records.
        self.tracer = Tracer(
            self.sink,
            sample_rate=0.0,
            span_id_base=(shard + 1) * WORKER_SPAN_STRIDE,
        )
        self.health: Optional[QueryHealthTracker] = (
            QueryHealthTracker() if diagnostics else None
        )
        self.max_delta_spans = max_delta_spans
        self._baseline: dict[str, int] = {}
        self._drop_mark = 0

    def wire(self, engine) -> None:
        """Attach to a freshly built (or rehydrated) :class:`ShardEngine`.

        The engine's inner monitor was built with observability stripped
        (its ``obs`` facade is disabled, all hooks ``None``); rewire its
        tracer/health attachment points to this kit and reset the
        counter baseline so the next :meth:`delta` reports only work
        done *after* this point — on a crash restore that makes replayed
        work invisible to the merger, which already saw it.
        """
        inner = engine.inner
        inner.obs.tracer = self.tracer
        inner.grid.tracer = self.tracer
        if self.health is not None:
            inner.obs.health = self.health
            inner.circ.health = self.health
        self._baseline = inner.stats.snapshot()

    def op_span(self, ctx: Optional[TraceContext], op: str):
        """The ``worker.<op>`` span of one dispatched request."""
        return span_in_context(self.tracer, f"worker.{op}", ctx, shard=self.shard)

    def on_tick(self) -> None:
        """Advance the health tracker's batch clock (one per tick op)."""
        if self.health is not None:
            self.health.on_batch()

    def delta(self, stats) -> Optional[dict]:
        """Drain the piggyback payload since the previous call.

        Returns ``{"counters": {field: delta}, "spans": [...],
        "span_drops": n}`` with zero-delta counters omitted, or ``None``
        when there is nothing to report.  ``counters`` deltas are exact
        (every reply's delta sums to the shard's true counter values);
        spans are best-effort, capped at :attr:`max_delta_spans` per
        reply with overflow counted in ``span_drops``.
        """
        snap = stats.snapshot()
        base = self._baseline
        counters = {k: v - base.get(k, 0) for k, v in snap.items() if v != base.get(k, 0)}
        self._baseline = snap
        spans = self.sink.spans()
        self.sink.clear()
        drops = self.sink.dropped - self._drop_mark
        self._drop_mark = self.sink.dropped
        if len(spans) > self.max_delta_spans:
            drops += len(spans) - self.max_delta_spans
            spans = spans[-self.max_delta_spans :]
        if not counters and not spans and not drops:
            return None
        return {
            "counters": counters,
            "spans": [s.to_dict() for s in spans],
            "span_drops": drops,
        }


def span_from_dict(d: dict) -> Span:
    """Rebuild a :class:`~repro.obs.trace.Span` from its ``to_dict`` form.

    Start/end times are the *worker's* ``perf_counter`` readings and are
    not comparable to coordinator clocks; durations and the id topology
    are what the merged span carries meaningfully.
    """
    span = Span(
        d["trace_id"],
        d["span_id"],
        d.get("parent_id"),
        d["name"],
        dict(d["attrs"]) if d.get("attrs") else None,
    )
    span.start = float(d.get("start", 0.0))
    span.end = span.start + float(d.get("duration", 0.0))
    if d.get("error") is not None:
        span.error = d["error"]
    return span


# ----------------------------------------------------------------------
# Coordinator-side merging
# ----------------------------------------------------------------------
class ShardObsMerger:
    """Folds worker obs deltas into the coordinator's registry and sink.

    Counter deltas become ``crnn_shard_ops_total{shard, op}`` (``op`` is
    the :class:`~repro.core.stats.StatCounters` field name) plus exact
    per-shard running totals; worker spans are re-emitted into the
    coordinator's trace sink, where they interleave with coordinator
    spans of the same trace id (disjoint span-id ranges — see
    :data:`WORKER_SPAN_STRIDE`).
    """

    def __init__(self, registry, sink: Optional[SpanSink], shards: int):
        self.sink = sink
        self.shards = shards
        self.deltas_merged = 0
        self._m_ops = registry.counter(
            "crnn_shard_ops_total",
            "worker-side operation counters merged from shard op replies",
            labelnames=("shard", "op"),
        )
        self._m_spans = registry.counter(
            "crnn_worker_spans_total",
            "worker spans merged into the coordinator trace sink",
            labelnames=("shard",),
        )
        self._m_span_drops = registry.counter(
            "crnn_worker_span_drops_total",
            "worker spans dropped by ring overflow or the per-reply cap",
            labelnames=("shard",),
        )
        #: Exact per-shard counter totals (sum of merged deltas).
        self.totals: dict[int, dict[str, int]] = {
            k: defaultdict(int) for k in range(shards)
        }

    def merge(self, shard: int, delta: Optional[dict]) -> None:
        """Fold one op reply's piggyback delta (``None`` is a no-op)."""
        if delta is None:
            return
        self.deltas_merged += 1
        for name, value in delta.get("counters", {}).items():
            self.totals[shard][name] += value
            if value > 0:
                self._m_ops.labels(str(shard), name).inc(float(value))
        spans = delta.get("spans", ())
        if spans:
            if self.sink is not None:
                for d in spans:
                    self.sink.emit(span_from_dict(d))
            self._m_spans.labels(str(shard)).inc(float(len(spans)))
        drops = delta.get("span_drops", 0)
        if drops:
            self._m_span_drops.labels(str(shard)).inc(float(drops))

    def assert_parity(self, shard_stats, skip: Iterable[int] = ()) -> bool:
        """Assert merged totals equal each worker's own counters, exactly.

        ``shard_stats`` is the executor's per-shard
        :class:`~repro.core.stats.StatCounters` list (gathered over the
        same channel the deltas rode, so both sides reflect the same op
        history).  ``skip`` names shards excluded from the check —
        degraded stripes run in-process without a worker kit, so their
        deltas froze at the moment of degradation.
        """
        skip = set(skip)
        mismatches = []
        for shard, stats in enumerate(shard_stats):
            if shard in skip:
                continue
            merged = self.totals.get(shard, {})
            for name, value in stats.snapshot().items():
                if merged.get(name, 0) != value:
                    mismatches.append((shard, name, merged.get(name, 0), value))
        if mismatches:
            raise AssertionError(
                "worker metric merge diverged from shard counters "
                f"(shard, field, merged, actual): {mismatches[:10]}"
            )
        return True
