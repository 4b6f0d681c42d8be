"""Backpressure and load-shedding behaviour of the serving layer.

Three scenario families, one per knob the server exposes:

* **Burst producer vs admission control** — a batch larger than
  ``max_pending`` under each overload policy (``reject`` answers with a
  typed, counted error; ``drop_oldest`` keeps the newest updates;
  ``block`` exerts TCP backpressure and loses nothing), with the
  queue-depth/peak gauges asserted to move.
* **Slow consumer vs fanout** — a subscriber that stops reading while a
  deterministic toggle workload emits a known event volume per tick
  (``drop_oldest`` sheds frames and flags the gap; ``reject``
  disconnects the laggard with ``slow_consumer``; ``block`` with a
  reading subscriber delivers everything, shedding nothing).
* **Soak** — a 30-second seeded producer/subscriber run against the
  auto-tick loop (``soak`` marker, excluded from tier-1).

The slow-consumer tests pin down in-flight buffering with the
``write_buffer_high``/``so_sndbuf``/``so_rcvbuf`` knobs so a
non-reading peer exerts backpressure after a few dozen KiB instead of
whatever the platform's TCP buffers feel like today.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import pytest

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.serve import protocol as proto
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.core.config import MonitorConfig
from repro.robustness.checkpoint import from_json, restore

from .test_exactness import QUERY_BASE, serve_stream

TOGGLE_BOUNDS = Rect(0.0, 0.0, 100_000.0, 1_000.0)


def toggle_config() -> MonitorConfig:
    return MonitorConfig.lu_pi(grid_cells=32, bounds=TOGGLE_BOUNDS)


def toggle_initial(q: int) -> list:
    """``q`` isolated (query, toggler, anchor) triples, 50 units apart.

    Toggler ``a_i`` starts 4 units from its query (the query is its
    nearest entity, so ``a_i`` is in the RNN set); anchor ``b_i`` sits
    20 units out and never changes sides.
    """
    out = []
    for i in range(q):
        x = 50.0 + i * 50.0
        out.append(QueryUpdate(QUERY_BASE + i, Point(x, 500.0)))
        out.append(ObjectUpdate(2 * i, Point(x, 504.0)))
        out.append(ObjectUpdate(2 * i + 1, Point(x, 520.0)))
    return out


def toggle_batch(q: int, tick: int) -> list:
    """Move every toggler across the bisector: exactly ``q`` deltas."""
    y = 516.0 if tick % 2 == 0 else 504.0
    return [ObjectUpdate(2 * i, Point(50.0 + i * 50.0, y)) for i in range(q)]


BURST = [ObjectUpdate(i, Point(float(3 + i % 90), float(3 + i % 80))) for i in range(40)]


# ----------------------------------------------------------------------
# Burst producer vs admission control
# ----------------------------------------------------------------------
class TestIngestPolicies:
    def test_reject_bounds_the_queue_and_counts_refusals(self):
        with ServerThread(ServeConfig(max_pending=16, overload="reject")) as (host, port):
            with ServeClient(host, port) as client:
                client.send_updates(BURST)
                serve = client.stats().serve  # barrier: burst admitted
                assert serve["crnn_serve_queue_depth"] == 16.0
                assert serve["crnn_serve_queue_depth_peak"] == 16.0
                ack = client.tick()
                assert (ack.applied, ack.shed) == (16, 24)
                errors = client.take_errors()
                assert len(errors) == 1
                assert errors[0].code == proto.E_OVERLOADED
                assert errors[0].count == 24
                serve = client.stats().serve
                assert serve["crnn_serve_queue_depth"] == 0.0
                assert serve["crnn_serve_rejected_total"] == 24.0

    def test_drop_oldest_keeps_the_newest_updates(self):
        thread = ServerThread(ServeConfig(max_pending=16, overload="drop_oldest"))
        host, port = thread.start()
        try:
            with ServeClient(host, port) as client:
                client.send_updates(BURST)
                serve = client.stats().serve  # barrier
                assert serve["crnn_serve_queue_depth"] == 16.0
                # White box: the survivors are exactly the newest 16.
                assert [u.oid for u in thread.server._pending] == list(range(24, 40))
                ack = client.tick()
                assert (ack.applied, ack.shed) == (16, 24)
                assert client.take_errors() == []  # silent policy
                serve = client.stats().serve
                assert serve["crnn_serve_shed_total{stage=ingest}"] == 24.0
        finally:
            thread.stop()

    def test_block_backpressures_and_loses_nothing(self):
        """A burst 3x the queue admits fully, paced by a second connection's ticks."""
        with ServerThread(ServeConfig(max_pending=10, overload="block")) as (host, port):
            with ServeClient(host, port) as producer, ServeClient(host, port) as ticker:
                producer.send_updates([
                    ObjectUpdate(i, Point(float(1 + i % 90), float(1 + i % 80)))
                    for i in range(30)
                ])
                applied, deadline = 0, time.monotonic() + 30.0
                while applied < 30 and time.monotonic() < deadline:
                    ack = ticker.tick()
                    assert ack.applied <= 10, "block policy exceeded max_pending"
                    assert ack.shed == 0
                    applied += ack.applied
                    time.sleep(0.01)
                assert applied == 30, "block policy dropped updates"
                serve = ticker.stats().serve
                assert serve["crnn_serve_updates_total"] == 30.0
                assert serve.get("crnn_serve_rejected_total", 0.0) == 0.0
                assert serve.get("crnn_serve_shed_total{stage=ingest}", 0.0) == 0.0
                assert serve["crnn_serve_queue_depth_peak"] <= 10.0
                # The blocked producer's connection is healthy again.
                assert producer.stats().counters["nn_searches"] >= 0

    def test_block_with_auto_tick_drains_itself(self):
        config = ServeConfig(max_pending=8, overload="block", tick_interval=0.02)
        with ServerThread(config) as (host, port):
            with ServeClient(host, port) as client:
                client.send_updates([
                    ObjectUpdate(i, Point(float(2 + i % 90), float(2 + i % 80)))
                    for i in range(100)
                ])
                # The stats round trip is ordered behind the batch frame,
                # so by the time it answers, admission has fully drained
                # through the auto-tick loop.
                serve = client.stats().serve
                assert serve["crnn_serve_updates_total"] == 100.0
                assert serve.get("crnn_serve_shed_total{stage=ingest}", 0.0) == 0.0
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    serve = client.stats().serve
                    if serve["crnn_serve_queue_depth"] == 0.0:
                        break
                    time.sleep(0.02)
                assert serve["crnn_serve_queue_depth"] == 0.0
                assert serve["crnn_serve_ticks_total"] >= 100 / 8


# ----------------------------------------------------------------------
# Slow consumer vs fanout
# ----------------------------------------------------------------------
Q = 40  # toggle pairs -> 40 result deltas (~900 wire bytes) per tick
SLOW_KNOBS = dict(
    monitor=None,  # replaced below; dataclass default needs the config
    subscriber_buffer=4,
    write_buffer_high=1024,
    so_sndbuf=8192,
)


def slow_config(**overrides) -> ServeConfig:
    kw = dict(SLOW_KNOBS)
    kw["monitor"] = toggle_config()
    kw.update(overrides)
    return ServeConfig(**kw)


def pump(producer: ServeClient, ticks: int, expect_events: bool = True) -> int:
    """Drive ``ticks`` toggle rounds; returns the total event count."""
    total = 0
    for t in range(ticks):
        producer.send_updates(toggle_batch(Q, t))
        ack = producer.tick()
        assert ack.shed == 0
        if expect_events:
            assert ack.events == Q, f"tick {t} emitted {ack.events} deltas"
        total += ack.events
    return total


class TestSlowConsumer:
    def test_drop_oldest_sheds_frames_and_flags_the_gap(self):
        thread = ServerThread(slow_config(fanout_policy="drop_oldest"))
        host, port = thread.start()
        try:
            producer = ServeClient(host, port)
            sub = ServeClient(host, port, so_rcvbuf=8192)
            sub.subscribe(None)
            producer.send_updates(toggle_initial(Q))
            producer.tick()
            pump(producer, 200)  # ~180 KiB of event frames at the sub
            shed = thread.server._m_shed.labels("fanout").value
            assert shed > 0, "slow consumer never overflowed its outbox"
            # The laggard catches up: it sees a gap flag, not a stall.
            sub.drain_socket(0.5)
            frames = sub.take_events()
            assert frames, "subscriber received nothing at all"
            assert any(ev.gap for ev in frames), "no gap flag after shedding"
            received = sum(len(ev.changes) for ev in frames)
            assert received < 201 * Q, "nothing was shed after all"
            # The connection survived and the server still answers.
            assert sub.stats().serve["crnn_serve_connections"] == 2.0
            sub.close()
            producer.close()
        finally:
            thread.stop()

    def test_reject_disconnects_the_slow_consumer(self):
        thread = ServerThread(slow_config(fanout_policy="reject"))
        host, port = thread.start()
        try:
            producer = ServeClient(host, port)
            sub = ServeClient(host, port, so_rcvbuf=8192)
            sub.subscribe(None)
            producer.send_updates(toggle_initial(Q))
            producer.tick()
            pump(producer, 200)
            assert thread.server._m_shed.labels("fanout").value > 0
            # Reading the backlog ends in the farewell + a closed socket.
            deadline = time.monotonic() + 10.0
            with pytest.raises(ConnectionError):
                while time.monotonic() < deadline:
                    sub.drain_socket(0.2)
            farewells = [
                e for e in sub.take_errors() if e.code == proto.E_SLOW_CONSUMER
            ]
            assert farewells, "no typed slow_consumer notice before the close"
            # The fanout counter only covers frames that entered the
            # outbox: everything the client read plus the
            # subscriber_buffer frames stranded there at disconnect —
            # never the overflow frame that triggered the reject.
            received = sum(len(ev.changes) for ev in sub.take_events())
            fanned = thread.server._m_fanout.value
            assert fanned == received + SLOW_KNOBS["subscriber_buffer"] * Q
            # The producer is unaffected; the server keeps ticking.
            assert producer.stats().serve["crnn_serve_connections"] == 1.0
            ack = producer.tick()
            assert ack.tick > 200
            sub.close()
            producer.close()
        finally:
            thread.stop()

    def test_block_with_reading_subscriber_sheds_nothing(self):
        thread = ServerThread(slow_config(fanout_policy="block"))
        host, port = thread.start()
        try:
            producer = ServeClient(host, port)
            sub = ServeClient(host, port, so_rcvbuf=8192)
            sub.subscribe(None)
            producer.send_updates(toggle_initial(Q))
            producer.tick()
            ticks = 60
            for t in range(ticks):
                producer.send_updates(toggle_batch(Q, t))
                assert producer.tick().shed == 0
                if t % 5 == 4:
                    sub.drain_socket(0.05)
            sub.drain_socket(0.5)
            frames = sub.take_events()
            assert not any(ev.gap for ev in frames), "block policy must not gap"
            received = sum(len(ev.changes) for ev in frames)
            fanned_out = thread.server._m_fanout.value
            assert received == fanned_out == (ticks + 1) * Q
            assert thread.server._m_shed.labels("fanout").value == 0
            # Frames are stamped with the tick that produced them: one
            # frame per tick, numbered contiguously.
            assert [ev.tick for ev in frames] == list(range(1, ticks + 2))
            sub.close()
            producer.close()
        finally:
            thread.stop()

    def test_block_fanout_releases_when_the_blocked_subscriber_dies(self):
        """A subscriber dying mid-`conn.space.wait()` must free the tick.

        Regression: the writer's error path used to only flag
        ``conn.closed``, so the reader's ``_close_connection`` became a
        no-op — the connection leaked from ``_conns``, the gauge never
        dropped, and the tick loop stayed parked on ``conn.space``
        forever, wedging every client.
        """
        thread = ServerThread(slow_config(fanout_policy="block"))
        host, port = thread.start()
        try:
            producer = ServeClient(host, port)
            sub = ServeClient(host, port, so_rcvbuf=8192)
            sub.subscribe(None)
            producer.send_updates(toggle_initial(Q))
            producer.tick()
            total_ticks = 60
            done = threading.Event()

            def drive() -> None:
                for t in range(total_ticks):
                    producer.send_updates(toggle_batch(Q, t))
                    producer.tick()
                done.set()

            worker = threading.Thread(target=drive, daemon=True)
            worker.start()
            # Wait until the fanout is wedged on the non-reading
            # subscriber: the tick counter stops advancing.  (Only
            # white-box metric reads here — the producer socket belongs
            # to the drive thread until it finishes.)
            wedged = False
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not done.is_set():
                before = thread.server._m_ticks.value
                time.sleep(0.3)
                if thread.server._m_ticks.value == before and not done.is_set():
                    wedged = True
                    break
            assert wedged, "fanout never blocked on the slow subscriber"
            sub.close()  # abrupt death while the tick loop is parked
            worker.join(timeout=30.0)
            assert done.is_set(), "tick loop never released after subscriber death"
            # The dead connection was fully torn down, not leaked.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and len(thread.server._conns) > 1:
                time.sleep(0.05)
            assert len(thread.server._conns) == 1
            assert thread.server._m_connections.value == 1.0
            ack = producer.tick()  # and the server still serves
            assert ack.shed == 0
            producer.close()
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_drain_shutdown_writes_a_restorable_checkpoint(tmp_path):
    """A draining stop with ``checkpoint_path`` set writes a verified
    checkpoint that restores to the results the wire reported."""
    path = tmp_path / "checkpoint.json"
    initial, tick_batches = serve_stream(seed=23, n=80, queries=5, ticks=10, moves_per_tick=15)
    config = MonitorConfig.lu_pi(grid_cells=24, bounds=Rect(0.0, 0.0, 1_000.0, 1_000.0))
    thread = ServerThread(ServeConfig(monitor=config, checkpoint_path=str(path)))
    host, port = thread.start()
    try:
        with ServeClient(host, port) as client:
            for batch in [initial, *tick_batches]:
                client.send_updates(batch)
                client.tick()
            wire = {qid: client.results(qid) for qid in range(QUERY_BASE, QUERY_BASE + 5)}
    finally:
        thread.stop()
    restored = restore(from_json(path.read_text(encoding="utf-8")))
    assert {qid: tuple(sorted(restored.rnn(qid))) for qid in wire} == wire


def test_client_turns_nagle_off():
    """Both connect paths set ``TCP_NODELAY``, so a send-then-tick round
    trip does not wait out the server's delayed ACK (~40 ms on loopback
    with Nagle on, well under a millisecond with it off)."""
    thread = ServerThread(ServeConfig(monitor=MonitorConfig.lu_pi(grid_cells=8)))
    host, port = thread.start()
    try:
        with ServeClient(host, port, so_rcvbuf=65536) as small:
            assert small._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        with ServeClient(host, port) as client:
            assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            trips = []
            for oid in range(30):
                start = time.perf_counter()
                client.add_object(oid, 10.0 + oid, 20.0 + oid)
                client.tick()
                trips.append(time.perf_counter() - start)
    finally:
        thread.stop()
    assert statistics.median(trips) < 0.010, trips


# ----------------------------------------------------------------------
# Soak (excluded from tier-1; run via `pytest -m soak`)
# ----------------------------------------------------------------------
SOAK_SECONDS = 30.0
SOAK_Q = 20


@pytest.mark.soak
def test_soak_auto_tick_producer_and_subscriber():
    """30 s of continuous production against the auto-tick loop.

    One producer fires toggle batches as fast as it can; one subscriber
    keeps reading.  At the end: zero protocol errors, zero shed at both
    stages, and the subscriber received every delta the server fanned
    out.
    """
    config = ServeConfig(
        monitor=toggle_config(), tick_interval=0.01, overload="block"
    )
    thread = ServerThread(config)
    host, port = thread.start()
    stop = threading.Event()
    sent_batches = [0]

    def produce():
        with ServeClient(host, port) as producer:
            producer.send_updates(toggle_initial(SOAK_Q))
            t = 0
            while not stop.is_set():
                producer.send_updates(toggle_batch(SOAK_Q, t))
                t += 1
                time.sleep(0.002)
            producer.stats()  # barrier: every batch sent is admitted
            sent_batches[0] = t

    try:
        sub = ServeClient(host, port, timeout=60.0)
        sub.subscribe(None)
        worker = threading.Thread(target=produce, daemon=True)
        worker.start()
        deadline = time.monotonic() + SOAK_SECONDS
        while time.monotonic() < deadline:
            sub.drain_socket(0.2)
        stop.set()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "producer thread wedged"
        # Let the auto-tick loop flush whatever is still queued.
        settle = time.monotonic() + 5.0
        while time.monotonic() < settle:
            if sub.stats().serve["crnn_serve_queue_depth"] == 0.0:
                break
            time.sleep(0.05)
        sub.drain_socket(0.5)
        serve = sub.stats().serve
        assert serve.get("crnn_serve_protocol_errors_total", 0.0) == 0.0
        assert serve.get("crnn_serve_rejected_total", 0.0) == 0.0
        assert serve.get("crnn_serve_shed_total{stage=ingest}", 0.0) == 0.0
        assert serve.get("crnn_serve_shed_total{stage=fanout}", 0.0) == 0.0
        assert serve["crnn_serve_ticks_total"] >= 100, "auto-tick barely ran"
        assert sent_batches[0] > 0
        received = sum(len(ev.changes) for ev in sub.take_events())
        assert received == serve["crnn_serve_fanout_events_total"]
        assert received > 0
        sub.close()
    finally:
        stop.set()
        thread.stop()
