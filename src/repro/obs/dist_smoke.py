"""CI smoke for distributed observability (``make obs-dist-smoke``).

Drives the sharded deployment (K=4, one worker process per stripe) with
the full observability stack on and checks the four promises DESIGN §12
makes:

1. **Isolation** — a chaos-free run's drained events and logical
   counters are bit-identical to the same run with observability off:
   tracing workers and piggybacking metric deltas never changes what
   the system computes.
2. **Aggregation** — the coordinator's merged per-shard counter totals
   (accumulated from the deltas riding op replies) equal a fresh
   ``stats`` gather from every worker, field by field
   (:meth:`~repro.shard.monitor.ShardedCRNNMonitor.verify_worker_metric_parity`).
3. **One coherent trace** — a ``repro.serve`` round-trip with a
   client-supplied trace context yields a single trace id spanning
   serve ingestion (``serve.tick``), the coordinator's scatter/gather,
   at least one worker-process span, and the fanout.
4. **Flight recorder** — a chaos kill produces a crash dump in the
   flight directory that ``tools/flightdump.py`` can render.

Exit code 0 on success, 1 on the first failed check.

Usage::

    PYTHONPATH=src python -m repro.obs.dist_smoke          # 200 ticks
    PYTHONPATH=src python -m repro.obs.dist_smoke --quick  # CI-friendly
"""

from __future__ import annotations

import argparse
import glob
import os
import random
import sys
import tempfile

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate
from repro.core.stats import logical_subset
from repro.geometry.point import Point
from repro.obs.config import ObsConfig
from repro.obs.flight import load_dump, render_timeline
from repro.shard.monitor import ShardedCRNNMonitor

SHARDS = 4
BOUNDS = 10_000.0


def _fail(msg: str) -> int:
    print(f"[obs-dist-smoke] FAIL: {msg}", file=sys.stderr)
    return 1


def _stream(seed: int, n: int, ticks: int, per_tick: int):
    """The deterministic update stream both runs consume."""
    rng = random.Random(seed)
    inserts = [
        (oid, Point(rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS)))
        for oid in range(n)
    ]
    queries = [
        (qid, Point(rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS)))
        for qid in range(10_000, 10_000 + max(8, n // 25))
    ]
    batches = [
        [
            ObjectUpdate(
                rng.randrange(n),
                Point(rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS)),
            )
            for _ in range(per_tick)
        ]
        for _ in range(ticks)
    ]
    return inserts, queries, batches


def _run_stream(monitor, inserts, queries, batches):
    """Feed the stream; returns (all drained events, logical counters)."""
    for oid, pos in inserts:
        monitor.add_object(oid, pos)
    for qid, pos in queries:
        monitor.add_query(qid, pos)
    monitor.drain_events()
    events = []
    for batch in batches:
        monitor.process(batch)
        events.extend(monitor.drain_events())
    return events, logical_subset(monitor.aggregated_stats().snapshot())


def run(quick: bool = False) -> int:
    """The distributed-observability smoke checks; returns an exit code."""
    n, ticks, per_tick = (200, 30, 40) if quick else (600, 200, 60)
    stream = _stream(seed=11, n=n, ticks=ticks, per_tick=per_tick)

    # --- 1+2. obs-on/off parity and worker metric aggregation ----------
    base = MonitorConfig.lu_pi()
    with ShardedCRNNMonitor(base, shards=SHARDS, executor="process") as off_mon:
        off_events, off_counters = _run_stream(off_mon, *stream)
    obs_cfg = ObsConfig(sample_rate=0.25, ring_capacity=8192)
    from dataclasses import replace

    with ShardedCRNNMonitor(
        replace(base, observability=obs_cfg), shards=SHARDS, executor="process"
    ) as on_mon:
        on_events, on_counters = _run_stream(on_mon, *stream)
        try:
            on_mon.verify_worker_metric_parity()
        except (AssertionError, RuntimeError) as exc:
            return _fail(f"worker metric parity: {exc}")
        merged_series = sum(
            1
            for per_shard in on_mon._shard_obs.totals.values()
            for value in per_shard.values()
            if value
        )
        deltas = on_mon._shard_obs.deltas_merged
    if on_events != off_events:
        return _fail("drained events differ between obs-on and obs-off runs")
    if on_counters != off_counters:
        return _fail("logical counters differ between obs-on and obs-off runs")
    print(
        f"[obs-dist-smoke] parity: {ticks} ticks, {len(on_events)} events and "
        f"{len(on_counters)} logical counters bit-identical obs-on vs obs-off",
        file=sys.stderr,
    )
    print(
        f"[obs-dist-smoke] aggregation: {deltas} worker deltas merged across "
        f"{SHARDS} shards; {merged_series} non-zero per-shard counter series "
        "match worker ground truth exactly",
        file=sys.stderr,
    )

    # --- 3. one coherent trace through the serve frontend ---------------
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    serve_cfg = ServeConfig(
        backend="sharded",
        shards=SHARDS,
        monitor=replace(
            base, observability=ObsConfig(sample_rate=1.0, ring_capacity=8192)
        ),
    )
    trace_id = 0xC0FFEE
    thread = ServerThread(serve_cfg)
    try:
        host, port = thread.start()
        with ServeClient(host, port) as client:
            client.subscribe(None)
            rng = random.Random(23)
            for oid in range(60):
                client.add_object(oid, rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS))
            for qid in range(5):
                client.add_query(500 + qid, rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS))
            client.tick()
            for _ in range(3):
                for oid in range(0, 60, 3):
                    client.add_object(
                        oid, rng.uniform(0, BOUNDS), rng.uniform(0, BOUNDS)
                    )
                client.tick(trace=(trace_id, 1))
        spans = thread.server.monitor.obs.sink.spans()
    finally:
        thread.stop()
    members = {s.name for s in spans if s.trace_id == trace_id}
    need = {"serve.tick", "shard.scatter", "shard.gather", "serve.fanout"}
    missing = need - members
    if missing:
        return _fail(f"client trace {trace_id:#x} is missing spans: {sorted(missing)}")
    worker_spans = [m for m in members if m.startswith("worker.")]
    if not worker_spans:
        return _fail(f"client trace {trace_id:#x} has no worker-process spans")
    print(
        f"[obs-dist-smoke] trace: {len(members)} span names share trace id "
        f"{trace_id:#x}, including {sorted(worker_spans)}",
        file=sys.stderr,
    )

    # --- 4. chaos kill writes a renderable flight dump -------------------
    from repro.shard.chaos import ChaosSpec
    from repro.shard.supervisor import SupervisionConfig

    with tempfile.TemporaryDirectory(prefix="crnn-flight-") as flight_dir:
        chaos_cfg = replace(
            base,
            observability=ObsConfig(
                sample_rate=0.0, flight_dir=flight_dir, flight_capacity=128
            ),
        )
        inserts, queries, batches = _stream(
            seed=29, n=120, ticks=12, per_tick=30
        )
        with ShardedCRNNMonitor(
            chaos_cfg,
            shards=2,
            executor="process",
            supervision=SupervisionConfig(checkpoint_interval=4),
            chaos=ChaosSpec(seed=3, kill_every=6, kill_points=("mid_tick",)),
        ) as chaos_mon:
            _run_stream(chaos_mon, inserts, queries, batches)
            restarts = chaos_mon.supervision_report()["restarts_total"]
        dumps = sorted(glob.glob(os.path.join(flight_dir, "flight-*.json")))
        if restarts == 0:
            return _fail("chaos schedule injected no kills; nothing exercised")
        if not dumps:
            return _fail(f"{restarts} worker kills produced no flight dump")
        timeline = render_timeline(load_dump(dumps[0]))
        if "worker_" not in timeline:
            return _fail(f"flight dump lacks the failure event:\n{timeline}")
    print(
        f"[obs-dist-smoke] flight: {restarts} kills, {len(dumps)} dumps; "
        f"first renders to {len(timeline.splitlines())} timeline lines",
        file=sys.stderr,
    )

    print("[obs-dist-smoke] OK", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.obs.dist_smoke``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (CI-friendly)")
    args = parser.parse_args(argv)
    return run(quick=args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
