"""Tracing core: nesting, sinks, sampling, and scalar/vector kernel parity."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor
from repro.geometry.point import Point
from repro.obs.config import ObsConfig
from repro.obs.trace import (
    InMemorySink,
    JsonlSink,
    NullSink,
    Tracer,
    build_tree,
)

#: Span names whose *counts* are backed by kernel-independent logical
#: counters — the scalar and vector kernels must emit identical numbers
#: of these.  Grid-internal spans (``grid.bulk_move``,
#: ``grid.csr_rebuild``) are implementation detail and excluded on
#: purpose.
LOGICAL_SPANS = frozenset({
    "monitor.process",
    "monitor.grid_moves",
    "monitor.pies",
    "monitor.circs",
    "monitor.queries",
    "cpm.nn_search",
    "cpm.constrained_nn_search",
    "cpm.nn_search_batch",
    "circ.recompute_certificate",
})


def _run_workload(vector_kernels: bool = True, ticks: int = 6) -> CRNNMonitor:
    rng = random.Random(42)
    config = MonitorConfig(observability=ObsConfig(ring_capacity=100_000))
    monitor = CRNNMonitor(config)
    monitor.grid.vector_enabled = vector_kernels
    for oid in range(150):
        monitor.add_object(oid, Point(rng.uniform(0, 100), rng.uniform(0, 100)))
    for qid in range(1000, 1008):
        monitor.add_query(qid, Point(rng.uniform(0, 100), rng.uniform(0, 100)))
    monitor.drain_events()
    for _ in range(ticks):
        batch: list = [
            ObjectUpdate(rng.randrange(150),
                         Point(rng.uniform(0, 100), rng.uniform(0, 100)))
            for _ in range(25)
        ]
        batch.append(QueryUpdate(1000 + rng.randrange(8),
                                 Point(rng.uniform(0, 100), rng.uniform(0, 100))))
        monitor.process(batch)
    return monitor


class TestSpanBasics:
    def test_nesting_parent_ids(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("root", kind="test") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grand:
                    pass
            with tracer.span("sibling") as sib:
                pass
        spans = tracer.sink.spans()
        # Post-order emission: leaves before their parents.
        assert [s.name for s in spans] == ["grandchild", "child", "sibling", "root"]
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        assert sib.parent_id == root.span_id
        assert len({s.trace_id for s in spans}) == 1
        assert root.attrs == {"kind": "test"}
        assert all(s.duration >= 0.0 for s in spans)

    def test_attrs_via_set(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("work") as sp:
            sp.set("items", 7)
        assert tracer.sink.spans()[0].attrs["items"] == 7

    def test_error_recorded_and_propagated(self):
        tracer = Tracer(InMemorySink())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.sink.spans()
        assert span.error == "ValueError: nope"

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(NullSink(), enabled=False)
        with tracer.span("ignored") as sp:
            sp.set("k", 1)  # must not raise
        assert tracer.traces_started == 0

    def test_build_tree(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        (tree,) = build_tree(tracer.sink.spans())
        assert tree["name"] == "root"
        assert [c["name"] for c in tree["children"]] == ["a", "b"]


class TestRingBuffer:
    def test_overflow_evicts_oldest_and_counts_drops(self):
        sink = InMemorySink(capacity=5)
        tracer = Tracer(sink)
        for i in range(8):
            with tracer.span(f"s{i}"):
                pass
        assert len(sink) == 5
        assert sink.emitted == 8
        assert sink.dropped == 3
        assert [s.name for s in sink.spans()] == ["s3", "s4", "s5", "s6", "s7"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            InMemorySink(capacity=0)


class TestSampling:
    def test_half_rate_records_every_other_trace(self):
        sink = InMemorySink()
        tracer = Tracer(sink, sample_rate=0.5)
        for _ in range(10):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        assert tracer.traces_started == 10
        roots = [s for s in sink.spans() if s.name == "root"]
        children = [s for s in sink.spans() if s.name == "child"]
        assert len(roots) == 5
        assert len(children) == 5  # unsampled subtrees fully suppressed

    def test_zero_rate_records_nothing(self):
        sink = InMemorySink()
        tracer = Tracer(sink, sample_rate=0.0)
        for _ in range(4):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        assert len(sink) == 0
        assert tracer.traces_started == 4

    def test_unsampled_children_do_not_start_new_traces(self):
        sink = InMemorySink()
        tracer = Tracer(sink, sample_rate=0.0)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        # A buggy suppressor would have counted "child" as a new root.
        assert tracer.traces_started == 1

    def test_deterministic_across_tracers(self):
        def recorded(rate: float, n: int) -> list[int]:
            sink = InMemorySink()
            tracer = Tracer(sink, sample_rate=rate)
            for _ in range(n):
                with tracer.span("r"):
                    pass
            return [s.trace_id for s in sink.spans()]

        assert recorded(0.3, 20) == recorded(0.3, 20)


class TestJsonlSink:
    def test_writes_one_json_object_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer(sink)
        with tracer.span("outer", n=2):
            with tracer.span("inner"):
                pass
        tracer.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["parent_id"] == records[1]["span_id"]
        assert records[1]["attrs"] == {"n": 2}


class TestMonitorSpans:
    def test_process_emits_phase_tree(self):
        monitor = _run_workload(ticks=2)
        roots = [
            t for t in build_tree(monitor.obs.sink.spans())
            if t["name"] == "monitor.process"
        ]
        assert roots
        child_names = {c["name"] for c in roots[-1]["children"]}
        assert {"monitor.grid_moves", "monitor.pies", "monitor.circs",
                "monitor.queries"} <= child_names

    def test_logical_span_counts_identical_scalar_vs_vectorized(self):
        def counts(vector_kernels: bool) -> dict[str, int]:
            monitor = _run_workload(vector_kernels)
            out: dict[str, int] = {}
            for span in monitor.obs.sink.spans():
                if span.name in LOGICAL_SPANS:
                    out[span.name] = out.get(span.name, 0) + 1
            return out

        scalar = counts(False)
        fast = counts(True)
        assert scalar == fast
        assert scalar["monitor.process"] == 6
        # The pie phase asks through the batch entry: at most one span for
        # the re-searches and one for the certificates per tick.
        assert 1 <= scalar["cpm.nn_search_batch"] <= 12

    def test_disabled_monitor_emits_nothing(self):
        monitor = CRNNMonitor()  # observability=None
        assert not monitor.obs.enabled
        assert monitor.obs.sink is None
        monitor.add_object(1, Point(1.0, 1.0))
        monitor.add_query(10, Point(2.0, 2.0))
        monitor.process([ObjectUpdate(1, Point(3.0, 3.0))])
        assert monitor.obs.tracer.traces_started == 0
