"""Distributed observability: trace propagation, worker metric merging,
flight recorder (DESIGN §12).

Covers the cross-process pieces the single-process obs suites cannot:
the op-header context propagation, adopted worker spans, exactly-once
delta aggregation (including across chaos recovery), the wire ``trace``
field's backward compatibility with PR 7 peers, sharded ``explain``,
and the crash dump path through ``tools/flightdump.py``.
"""

from __future__ import annotations

import glob
import os
import random
import subprocess
import sys

import pytest

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point
from repro.obs.config import ObsConfig
from repro.obs.dist import (
    WORKER_SPAN_STRIDE,
    TraceContext,
    current_context,
    span_in_context,
)
from repro.obs.flight import FlightRecorder, load_dump, render_timeline
from repro.obs.trace import InMemorySink, Tracer
from repro.shard.chaos import ChaosSpec
from repro.shard.monitor import ShardedCRNNMonitor
from repro.shard.supervisor import SupervisionConfig

BOUNDS = 10_000.0
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _obs_monitor(shards=2, executor="process", sample_rate=1.0, **kwargs):
    cfg = MonitorConfig.lu_pi(
        observability=ObsConfig(sample_rate=sample_rate, ring_capacity=8192)
    )
    return ShardedCRNNMonitor(cfg, shards=shards, executor=executor, **kwargs)


def _workload(
    monitor, seed=5, n=60, ticks=6, per_tick=15, queries=6, bound=BOUNDS, batched=False
):
    """``n`` objects and ``queries`` queries in ``[0, bound]^2``, loaded by
    single calls or, with ``batched``, as one ``process()`` batch; then
    ``ticks`` batches of ``per_tick`` object moves."""
    rng = random.Random(seed)

    def point() -> Point:
        return Point(rng.uniform(0, bound), rng.uniform(0, bound))

    load = [ObjectUpdate(oid, point()) for oid in range(n)]
    load += [QueryUpdate(qid, point()) for qid in range(1000, 1000 + queries)]
    if batched:
        monitor.process(load)
    else:
        for u in load:
            if isinstance(u, ObjectUpdate):
                monitor.add_object(u.oid, u.pos)
            else:
                monitor.add_query(u.qid, u.pos)
    monitor.drain_events()
    for _ in range(ticks):
        monitor.process([ObjectUpdate(rng.randrange(n), point()) for _ in range(per_tick)])


# ----------------------------------------------------------------------
# Context plumbing units
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext(trace_id=77, parent_id=12)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_wire_round_trip_parentless(self):
        ctx = TraceContext(trace_id=3)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    @pytest.mark.parametrize(
        "raw", [None, 5, [], [1], [1, 2, 3], ["x", 2], [True, 2], [1, "y"], [1, False]]
    )
    def test_malformed_wire_rejected(self, raw):
        with pytest.raises(ValueError):
            TraceContext.from_wire(raw)


class TestAdoption:
    def test_unsampled_tracer_records_only_adopted(self):
        sink = InMemorySink(64)
        tracer = Tracer(sink, sample_rate=0.0, span_id_base=WORKER_SPAN_STRIDE)
        with tracer.span("local.root"):
            with tracer.span("local.child"):
                pass
        assert sink.spans() == []  # locally-rooted work is suppressed
        with tracer.adopt("worker.tick", trace_id=42, parent_id=7):
            with tracer.span("cpm.nn_search"):
                pass
        spans = sink.spans()
        assert {s.name for s in spans} == {"worker.tick", "cpm.nn_search"}
        assert all(s.trace_id == 42 for s in spans)
        root = next(s for s in spans if s.name == "worker.tick")
        assert root.parent_id == 7
        assert all(s.span_id >= WORKER_SPAN_STRIDE for s in spans)

    def test_span_in_context_falls_back_without_context(self):
        sink = InMemorySink(64)
        tracer = Tracer(sink, sample_rate=0.0)
        with span_in_context(tracer, "worker.tick", None):
            pass
        assert sink.spans() == []

    def test_current_context_tracks_innermost_span(self):
        sink = InMemorySink(64)
        tracer = Tracer(sink, sample_rate=1.0)
        assert current_context(tracer) is None
        with tracer.span("outer"):
            ctx = current_context(tracer)
            assert ctx is not None and ctx.sampled
        assert current_context(tracer) is None

    def test_unsampled_trace_propagates_no_context(self):
        tracer = Tracer(InMemorySink(64), sample_rate=0.0)
        with tracer.span("root"):
            assert current_context(tracer) is None


# ----------------------------------------------------------------------
# End-to-end propagation through the process executor
# ----------------------------------------------------------------------
class TestProcessExecutorTraces:
    def test_worker_spans_join_coordinator_trace(self):
        with _obs_monitor(sample_rate=1.0) as monitor:
            _workload(monitor, ticks=3)
            spans = monitor.obs.sink.spans()
            roots = [s for s in spans if s.name == "monitor.process"]
            assert len(roots) == 3
            last = roots[-1].trace_id
            names = {s.name for s in spans if s.trace_id == last}
            assert "shard.scatter" in names and "shard.gather" in names
            assert "worker.tick" in names
            worker_ids = {
                s.span_id for s in spans if s.trace_id == last and s.name.startswith("worker.")
            }
            assert worker_ids and all(i >= WORKER_SPAN_STRIDE for i in worker_ids)

    def test_unsampled_ticks_yield_no_worker_spans(self):
        with _obs_monitor(sample_rate=0.0) as monitor:
            _workload(monitor, ticks=4)
            assert [s for s in monitor.obs.sink.spans()] == []
            # ...but metric deltas still flow and still reconcile.
            assert monitor.verify_worker_metric_parity()

    def test_serial_executor_has_no_merger(self):
        with _obs_monitor(executor="serial") as monitor:
            _workload(monitor, ticks=2)
            with pytest.raises(RuntimeError):
                monitor.verify_worker_metric_parity()


    def test_client_trace_spans_serve_scatter_worker_gather_fanout(self):
        # A client-supplied trace context on a tick frame: serve
        # ingestion, the coordinator's scatter/gather, the worker
        # processes and the fanout all record under that one trace id.
        from repro.serve.client import ServeClient
        from repro.serve.server import ServeConfig, ServerThread

        trace_id = 0xC0FFEE
        cfg = MonitorConfig.lu_pi(observability=ObsConfig(sample_rate=1.0, ring_capacity=8192))
        thread = ServerThread(ServeConfig(backend="sharded", shards=2, monitor=cfg))
        try:
            host, port = thread.start()
            with ServeClient(host, port) as client:
                client.subscribe(None)
                rng = random.Random(23)
                for oid in range(60):
                    client.add_object(oid, rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS))
                for qid in range(500, 505):
                    client.add_query(qid, rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS))
                client.tick()
                for oid in range(0, 60, 3):
                    client.add_object(oid, rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS))
                client.tick(trace=(trace_id, 1))
            spans = thread.server.monitor.obs.sink.spans()
        finally:
            thread.stop()
        members = {s.name for s in spans if s.trace_id == trace_id}
        assert {"serve.tick", "shard.scatter", "shard.gather", "serve.fanout"} <= members
        assert any(name.startswith("worker.") for name in members), members


# ----------------------------------------------------------------------
# Worker metric aggregation
# ----------------------------------------------------------------------
class TestWorkerMetricMerge:
    def test_exact_parity_chaos_free(self):
        with _obs_monitor(shards=4) as monitor:
            _workload(monitor, n=120, ticks=8, per_tick=25)
            assert monitor.verify_worker_metric_parity()
            merged = monitor._shard_obs.totals
            gathered = [s.snapshot() for s in monitor.executor.shard_stats()]
            for shard, snap in enumerate(gathered):
                for field, value in snap.items():
                    assert merged[shard].get(field, 0) == value

    def test_merged_counters_surface_with_shard_label(self):
        with _obs_monitor() as monitor:
            _workload(monitor, ticks=3)
            text = monitor.obs.render_prometheus()
            # A logical op: physical ones (cells_visited, heap_pops) depend
            # on which kernel twin served the worker's registrations.
            assert 'crnn_shard_ops_total{op="nn_searches",shard="0"}' in text
            assert "crnn_worker_spans_total" in text
            from repro.obs.export import parse_prometheus_text

            parse_prometheus_text(text)  # strict-parses with the new families

    def test_parity_survives_chaos_recovery(self):
        with _obs_monitor(
            shards=2,
            supervision=SupervisionConfig(checkpoint_interval=4),
            chaos=ChaosSpec(seed=13, kill_every=5, kill_points=("mid_tick", "pre_reply", "post_reply")),
        ) as monitor:
            _workload(monitor, n=100, ticks=10, per_tick=20)
            assert monitor.supervision_report()["restarts_total"] > 0
            assert monitor.verify_worker_metric_parity()

    @pytest.mark.parametrize(
        "batched, bound",
        [(True, BOUNDS), (False, 1_000.0), (True, 1_000.0)],
        ids=["batched-load", "bounds-1000", "batched-load-bounds-1000"],
    )
    def test_parity_survives_chaos_recovery_on_other_feeds(self, batched, bound):
        # A batched load leaves the CSR fresh, so the restored worker
        # must rebuild it (or its replay runs the scalar twins); on the
        # smaller space a kill lands right after a checkpoint, whose
        # own ``checkpoints_saved`` increment must ride its reply.
        with _obs_monitor(
            shards=2,
            supervision=SupervisionConfig(checkpoint_interval=4),
            chaos=ChaosSpec(seed=13, kill_every=5, kill_points=("mid_tick", "pre_reply", "post_reply")),
        ) as monitor:
            _workload(monitor, n=100, ticks=10, per_tick=20, bound=bound, batched=batched)
            assert monitor.supervision_report()["restarts_total"] > 0
            assert monitor.verify_worker_metric_parity()

    def test_chaos_killed_trace_still_closes(self):
        with _obs_monitor(
            shards=2,
            sample_rate=1.0,
            supervision=SupervisionConfig(checkpoint_interval=4),
            chaos=ChaosSpec(seed=7, kill_every=4, kill_points=("mid_tick",)),
        ) as monitor:
            _workload(monitor, n=80, ticks=8, per_tick=20)
            assert monitor.supervision_report()["restarts_total"] > 0
            # Every sampled tick's root span reached the sink: the spans
            # a worker died holding are lost, but the coordinator's side
            # of the trace closes and emits regardless.
            roots = [
                s for s in monitor.obs.sink.spans() if s.name == "monitor.process"
            ]
            assert len(roots) == 8
            assert all(s.end >= s.start for s in roots)


# ----------------------------------------------------------------------
# Sharded explain
# ----------------------------------------------------------------------
class TestShardedExplain:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_explain_routes_to_owner(self, executor):
        with _obs_monitor(executor=executor) as monitor:
            _workload(monitor, ticks=3)
            diag = monitor.explain(1002)
            assert diag.qid == 1002
            assert diag.shard == monitor.shard_of(1002)
            assert diag.diagnostics_enabled
            assert len(diag.sectors) == 6
            assert diag.staleness_batches is not None
            diag.to_dict()

    def test_explain_unknown_query_raises(self):
        with _obs_monitor(executor="serial") as monitor:
            with pytest.raises(KeyError):
                monitor.explain(999_999)


# ----------------------------------------------------------------------
# Wire compatibility (PR 7 frames)
# ----------------------------------------------------------------------
class TestWireTraceField:
    def test_frames_without_trace_are_byte_identical(self):
        from repro.serve.protocol import Batch, Tick, to_wire

        assert to_wire(Tick(seq=4)) == {"v": 1, "type": "tick", "seq": 4}
        wire = to_wire(Batch(updates=(ObjectUpdate(1, Point(2.0, 3.0)),), seq=9))
        assert "trace" not in wire

    def test_v1_frames_without_trace_decode_identically(self):
        from repro.serve.protocol import parse_message

        msg = parse_message({"v": 1, "type": "tick", "seq": 2})
        assert msg.trace is None
        batch = parse_message(
            {"v": 1, "type": "batch", "kinds": "o", "ids": [5], "xs": [1.0], "ys": [2.0]}
        )
        assert batch.trace is None and len(batch.updates) == 1

    def test_trace_round_trips(self):
        from repro.serve.protocol import Batch, Tick, parse_message, to_wire

        tick = parse_message(to_wire(Tick(trace=(77, 5), seq=1)))
        assert tick.trace == (77, 5)
        batch = parse_message(
            to_wire(Batch(updates=(ObjectUpdate(1, Point(0.0, 0.0)),), trace=(8, None)))
        )
        assert batch.trace == (8, None)

    @pytest.mark.parametrize(
        "trace", [5, [1], [1, 2, 3], ["x", None], [True, 1], [1, "y"]]
    )
    def test_malformed_trace_rejected(self, trace):
        from repro.serve.protocol import ProtocolError, parse_message

        with pytest.raises(ProtocolError):
            parse_message({"v": 1, "type": "tick", "trace": trace})


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_in_memory_snapshot_and_ring_bound(self):
        rec = FlightRecorder(2, capacity=4)
        for i in range(10):
            rec.record_op(0, f"op{i}")
        rec.record_event(1, "respawn", "incarnation 2")
        snap = rec.snapshot(reason="test", shard=1, error="boom")
        assert snap["failed_shard"] == 1 and snap["reason"] == "test"
        assert len(snap["shards"]["0"]) == 4  # ring kept only the newest
        assert rec.dump(reason="test", shard=1, error="boom") is None  # no dir

    def test_chaos_kill_dumps_and_flightdump_renders(self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        cfg = MonitorConfig.lu_pi(
            observability=ObsConfig(
                sample_rate=0.0, flight_dir=flight_dir, flight_capacity=64
            )
        )
        with ShardedCRNNMonitor(
            cfg,
            shards=2,
            executor="process",
            supervision=SupervisionConfig(checkpoint_interval=4),
            chaos=ChaosSpec(seed=3, kill_every=5, kill_points=("mid_tick",)),
        ) as monitor:
            _workload(monitor, n=80, ticks=10, per_tick=20)
            assert monitor.supervision_report()["restarts_total"] > 0
        dumps = sorted(glob.glob(os.path.join(flight_dir, "flight-*.json")))
        assert dumps
        dump = load_dump(dumps[0])
        timeline = render_timeline(dump)
        assert "worker_" in timeline and "op " in timeline
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "flightdump.py"), dumps[0]],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "shard" in proc.stdout

    def test_load_dump_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"schema": "other", "version": 1, "shards": {}}')
        with pytest.raises(ValueError):
            load_dump(str(path))


# ----------------------------------------------------------------------
# Worker obs config derivation (the PR 3 silent-strip fix)
# ----------------------------------------------------------------------
class TestWorkerObsConfig:
    def test_disabled_obs_stays_stripped(self):
        from repro.shard.executor import _worker_obs_config

        cfg, on = _worker_obs_config(MonitorConfig.lu_pi())
        assert cfg.observability is None and not on

    def test_memory_sink_carries_through(self):
        from repro.obs.config import SINK_MEMORY
        from repro.shard.executor import _worker_obs_config

        base = MonitorConfig.lu_pi(
            observability=ObsConfig(sample_rate=0.5, ring_capacity=123)
        )
        cfg, on = _worker_obs_config(base)
        assert on
        assert cfg.observability.trace_sink == SINK_MEMORY
        assert cfg.observability.ring_capacity == 123
        assert cfg.observability.sample_rate == 0.5

    def test_jsonl_sink_downgrades_to_memory_with_warning(
        self, tmp_path, caplog, monkeypatch
    ):
        import logging

        from repro.obs.config import SINK_JSONL, SINK_MEMORY
        from repro.shard import executor
        from repro.shard.executor import _worker_obs_config

        # The module-level limiter's one-record burst may already be
        # spent by an earlier test in this process; own a fresh budget.
        monkeypatch.setattr(executor._log, "_counts", {})
        base = MonitorConfig.lu_pi(
            observability=ObsConfig(
                trace_sink=SINK_JSONL, trace_path=str(tmp_path / "t.jsonl")
            )
        )
        with caplog.at_level(logging.WARNING, logger="repro.shard.executor"):
            cfg, on = _worker_obs_config(base)
        assert on and cfg.observability.trace_sink == SINK_MEMORY
        assert cfg.observability.trace_path is None
        assert any("jsonl" in r.message for r in caplog.records)
