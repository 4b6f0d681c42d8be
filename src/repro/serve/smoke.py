"""CI smoke for the serving layer (``make serve-smoke``).

End-to-end checks over a real TCP loopback connection, one per promise
the layer makes:

1. **Wire parity** — a seeded mixed workload replayed through the
   server (batch frames + explicit ticks) produces a per-tick event
   stream and logical counters bit-identical to direct ``process()``
   calls, for both the serial backend and the sharded backend (K=2
   worker processes).
2. **Subscription fanout** — a firehose subscriber receives exactly the
   events each tick emitted, in order.
3. **Load shedding** — the ``reject`` policy answers a burst with a
   typed ``overloaded`` error and admits exactly ``max_pending``
   updates; the ``drop_oldest`` policy keeps the newest; the queue-depth
   gauge moves while updates wait.
4. **Lifecycle** — a drain shutdown writes a verified checkpoint that
   restores into a monitor with the same results.

Exit code 0 on success, 1 on the first failed check.

:func:`serve_stream` — the seeded mixed update stream these checks
replay — is also what ``tests/test_serve_parity.py`` drives, so the
smoke and the parity suite exercise the same shapes.

Usage::

    PYTHONPATH=src python -m repro.serve.smoke          # full checks
    PYTHONPATH=src python -m repro.serve.smoke --quick  # smaller workload
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor
from repro.core.stats import logical_subset
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread

#: Query ids live in their own range so streams read unambiguously.
QUERY_BASE = 1_000_000

#: Data space of the default :func:`serve_stream` (dense interactions).
STREAM_BOUNDS = Rect(0.0, 0.0, 1_000.0, 1_000.0)


def serve_stream(
    seed: int = 7,
    n: int = 250,
    queries: int = 12,
    ticks: int = 200,
    moves_per_tick: int = 25,
    bounds: Rect = STREAM_BOUNDS,
) -> tuple[list, list[list]]:
    """A deterministic mixed update stream for the wire-parity suites.

    Returns ``(initial_batch, tick_batches)``.  The initial batch
    inserts ``n`` objects and registers ``queries`` query points; each
    of the ``ticks`` subsequent batches is mostly short random-walk
    moves, with a sprinkling of object deletes, re-inserts of fresh
    ids, and query moves — every update kind the wire protocol carries,
    in one stream.  All ids referenced are alive at reference time, so
    the stream is valid under the ``strict`` ingestion guard.
    """
    rng = random.Random(seed)

    def rand_point() -> Point:
        return Point(
            rng.uniform(bounds.xmin, bounds.xmax), rng.uniform(bounds.ymin, bounds.ymax)
        )

    pos: dict[int, Point] = {}
    initial: list = []
    for oid in range(n):
        p = rand_point()
        pos[oid] = p
        initial.append(ObjectUpdate(oid, p))
    qpos: dict[int, Point] = {}
    for q in range(queries):
        qid = QUERY_BASE + q
        p = rand_point()
        qpos[qid] = p
        initial.append(QueryUpdate(qid, p))
    next_oid = n

    span = min(bounds.xmax - bounds.xmin, bounds.ymax - bounds.ymin)
    step = span * 0.02

    tick_batches: list[list] = []
    for _ in range(ticks):
        batch: list = []
        for _ in range(moves_per_tick):
            roll = rng.random()
            if roll < 0.02 and len(pos) > 10:
                # Delete a live object.
                oid = rng.choice(sorted(pos))
                del pos[oid]
                batch.append(ObjectUpdate(oid, None))
            elif roll < 0.04:
                # Insert a brand-new object id.
                p = rand_point()
                pos[next_oid] = p
                batch.append(ObjectUpdate(next_oid, p))
                next_oid += 1
            elif roll < 0.07 and qpos:
                # Move a query (forces a recomputation).
                qid = rng.choice(sorted(qpos))
                p = rand_point()
                qpos[qid] = p
                batch.append(QueryUpdate(qid, p))
            else:
                oid = rng.choice(sorted(pos))
                old = pos[oid]
                p = Point(
                    min(max(old.x + rng.uniform(-step, step), bounds.xmin), bounds.xmax),
                    min(max(old.y + rng.uniform(-step, step), bounds.ymin), bounds.ymax),
                )
                pos[oid] = p
                batch.append(ObjectUpdate(oid, p))
        tick_batches.append(batch)
    return initial, tick_batches


def _fail(msg: str) -> int:
    print(f"[serve-smoke] FAIL: {msg}", file=sys.stderr)
    return 1


def _direct_replay(config: MonitorConfig, initial, tick_batches):
    """Ground truth: the same stream through in-process calls."""
    monitor = CRNNMonitor(config)
    monitor.process(initial)
    monitor.drain_events()
    per_tick = []
    for batch in tick_batches:
        monitor.process(batch)
        per_tick.append(
            sorted((e.qid, e.oid, e.gained) for e in monitor.drain_events())
        )
    return per_tick, logical_subset(monitor.stats.snapshot()), monitor.results()


def _wire_replay(serve_config: ServeConfig, initial, tick_batches):
    """The same stream through TCP, collecting the subscriber's view."""
    with ServerThread(serve_config) as (host, port):
        with ServeClient(host, port) as client:
            client.subscribe(None)
            client.send_updates(initial)
            client.tick()
            client.take_events()  # initial registrations are not compared
            per_tick = []
            for batch in tick_batches:
                client.send_updates(batch)
                ack = client.tick()
                changes = []
                for ev in client.take_events():
                    changes.extend(ev.changes)
                assert len(changes) == ack.events, "fanout lost events"
                per_tick.append(sorted(changes))
            counters = logical_subset(
                {k: int(v) for k, v in client.stats().counters.items()}
            )
    return per_tick, counters


def check_parity(quick: bool) -> int:
    """Smoke check 1+2: wire parity and fanout, serial and sharded."""
    ticks = 20 if quick else 60
    initial, tick_batches = serve_stream(seed=11, n=150, queries=8, ticks=ticks,
                                         moves_per_tick=20)
    config = MonitorConfig.lu_pi(grid_cells=32, bounds=STREAM_BOUNDS)
    direct_events, direct_counters, _results = _direct_replay(
        config, initial, tick_batches
    )
    for backend, shards in (("serial", 1), ("sharded", 2)):
        wire_events, wire_counters = _wire_replay(
            ServeConfig(monitor=config, backend=backend, shards=shards),
            initial,
            tick_batches,
        )
        if wire_events != direct_events:
            return _fail(f"{backend}: event stream diverged from in-process replay")
        if wire_counters != direct_counters:
            return _fail(
                f"{backend}: logical counters diverged: "
                f"wire={wire_counters} direct={direct_counters}"
            )
    print(f"[serve-smoke] parity ok over {ticks} ticks (serial + sharded K=2 workers)")
    return 0


def check_shedding() -> int:
    """Smoke check 3: reject + drop_oldest policies and the depth gauge."""
    burst = [ObjectUpdate(i, Point(float(i % 97), float(i % 89))) for i in range(40)]
    # -- reject ---------------------------------------------------------
    with ServerThread(ServeConfig(max_pending=16, overload="reject")) as (host, port):
        with ServeClient(host, port) as client:
            client.send_updates(burst)
            ack = client.tick()
            errors = client.take_errors()
            if ack.applied != 16:
                return _fail(f"reject: applied {ack.applied}, wanted 16")
            if ack.shed != 24 or not errors or errors[0].code != "overloaded":
                return _fail(f"reject: shed={ack.shed}, errors={errors}")
    # -- drop_oldest ----------------------------------------------------
    with ServerThread(ServeConfig(max_pending=16, overload="drop_oldest")) as (
        host,
        port,
    ):
        with ServeClient(host, port) as client:
            client.send_updates(burst)
            depth = client.stats().serve.get("crnn_serve_queue_depth")
            if depth != 16.0:
                return _fail(f"drop_oldest: queue depth gauge reads {depth}, wanted 16")
            ack = client.tick()
            if ack.applied != 16 or ack.shed != 24:
                return _fail(f"drop_oldest: applied={ack.applied} shed={ack.shed}")
            if client.take_errors():
                return _fail("drop_oldest: unexpected error replies")
            # The newest 16 object ids survived the shedding.
            serve = client.stats().serve
            if serve.get("crnn_serve_shed_total{stage=ingest}") != 24.0:
                return _fail(f"drop_oldest: shed counter wrong: {serve}")
    print("[serve-smoke] shedding ok (reject + drop_oldest, gauge moved)")
    return 0


def check_lifecycle() -> int:
    """Smoke check 4: drain shutdown writes a restorable checkpoint."""
    from repro.robustness.checkpoint import from_json, restore

    path = os.path.join(tempfile.mkdtemp(prefix="serve-smoke-"), "checkpoint.json")
    initial, tick_batches = serve_stream(seed=23, n=80, queries=5, ticks=10,
                                         moves_per_tick=15)
    config = MonitorConfig.lu_pi(grid_cells=24, bounds=STREAM_BOUNDS)
    thread = ServerThread(ServeConfig(monitor=config, checkpoint_path=path))
    host, port = thread.start()
    with ServeClient(host, port) as client:
        client.send_updates(initial)
        client.tick()
        for batch in tick_batches:
            client.send_updates(batch)
            client.tick()
        wire_results = {
            qid: client.results(qid) for qid in range(QUERY_BASE, QUERY_BASE + 5)
        }
    thread.stop()  # draining shutdown -> checkpoint written
    if not os.path.exists(path):
        return _fail("shutdown did not write the configured checkpoint")
    with open(path, encoding="utf-8") as fh:
        restored = restore(from_json(fh.read()))
    for qid, rnn in wire_results.items():
        if tuple(sorted(restored.rnn(qid))) != rnn:
            return _fail(f"restored checkpoint diverges for q{qid}")
    os.unlink(path)
    print("[serve-smoke] lifecycle ok (drain shutdown -> verified checkpoint)")
    return 0


def run(quick: bool = False) -> int:
    """All smoke checks; returns a process exit code."""
    for check in (lambda: check_parity(quick), check_shedding, check_lifecycle):
        code = check()
        if code:
            return code
    print("[serve-smoke] all checks passed")
    return 0


def main(argv=None) -> int:
    """CLI entry point (``python -m repro.serve.smoke``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    args = parser.parse_args(argv)
    return run(quick=args.quick)


if __name__ == "__main__":
    sys.exit(main())
