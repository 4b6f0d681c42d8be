"""End-to-end wire-path parity: TCP replay == direct ``process()`` calls.

The acceptance criterion of ISSUE 7: a seeded 200-tick mixed workload
(moves, deletes, re-inserts, query churn) replayed through the TCP
server yields per-tick event streams and logical counters that are
*bit-identical* to handing the same batches to the monitor in process —
for both the serial backend (K=1) and the sharded backend (K=4).
"""

from __future__ import annotations

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import CRNNMonitor
from repro.core.stats import logical_subset
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.smoke import QUERY_BASE, STREAM_BOUNDS, serve_stream
from repro.shard.monitor import ShardedCRNNMonitor

#: The acceptance workload: 200 ticks of mixed updates.
SEED, N_OBJECTS, N_QUERIES, TICKS, MOVES = 7, 250, 12, 200, 25


def monitor_config() -> MonitorConfig:
    return MonitorConfig.lu_pi(grid_cells=32, bounds=STREAM_BOUNDS)


@pytest.fixture(scope="module")
def stream():
    return serve_stream(
        seed=SEED, n=N_OBJECTS, queries=N_QUERIES, ticks=TICKS, moves_per_tick=MOVES
    )


def replay_direct(monitor, initial, tick_batches):
    """Ground truth: the same batches through in-process calls."""
    monitor.process(initial)
    monitor.drain_events()
    per_tick = []
    for batch in tick_batches:
        monitor.process(batch)
        per_tick.append(sorted((e.qid, e.oid, e.gained) for e in monitor.drain_events()))
    if hasattr(monitor, "aggregated_stats"):
        counters = logical_subset(monitor.aggregated_stats().snapshot())
    else:
        counters = logical_subset(monitor.stats.snapshot())
    return per_tick, counters, monitor.results()


@pytest.fixture(scope="module")
def direct(stream):
    """The single-monitor ground-truth replay (shared by both backends)."""
    initial, tick_batches = stream
    return replay_direct(CRNNMonitor(monitor_config()), initial, tick_batches)


def replay_wire(serve_config: ServeConfig, initial, tick_batches, kill_worker_at=None):
    """The same batches through a live TCP server, firehose-subscribed;
    ahead of tick ``kill_worker_at`` shard 0's worker process is SIGKILLed."""
    thread = ServerThread(serve_config)
    with thread as (host, port):
        with ServeClient(host, port) as client:
            client.subscribe(None)
            client.send_updates(initial)
            first = client.tick()
            assert first.applied == len(initial)
            client.take_events()  # registration deltas precede tick 1
            per_tick = []
            for t, batch in enumerate(tick_batches):
                if t == kill_worker_at:
                    proc = thread.server.monitor.executor.supervisor.channels[0].proc
                    proc.kill()
                    proc.join(timeout=10.0)
                    assert not proc.is_alive()
                client.send_updates(batch)
                ack = client.tick()
                assert ack.shed == 0, "parity run must not shed"
                changes = [c for ev in client.take_events() for c in ev.changes]
                assert len(changes) == ack.events, "fanout lost or duplicated events"
                per_tick.append(sorted(changes))
            counters = logical_subset(
                {k: int(v) for k, v in client.stats().counters.items()}
            )
            results = {
                QUERY_BASE + q: client.results(QUERY_BASE + q)
                for q in range(N_QUERIES)
            }
    return per_tick, counters, results


@pytest.mark.parametrize(
    "backend, shards",
    [("serial", 1), ("sharded", 4)],
    ids=["serial-K1", "sharded-K4"],
)
def test_wire_parity_against_direct_backend(stream, backend, shards):
    """Wire replay == direct replay of the *same* backend, tick by tick."""
    initial, tick_batches = stream
    if backend == "serial":
        direct_monitor = CRNNMonitor(monitor_config())
    else:
        direct_monitor = ShardedCRNNMonitor(monitor_config(), shards=shards)
    want_events, want_counters, want_results = replay_direct(
        direct_monitor, initial, tick_batches
    )
    got_events, got_counters, got_results = replay_wire(
        ServeConfig(monitor=monitor_config(), backend=backend, shards=shards),
        initial,
        tick_batches,
    )
    assert got_counters == want_counters
    for t, (got, want) in enumerate(zip(got_events, want_events)):
        assert got == want, f"tick {t} diverged"
    for qid, want_rnn in want_results.items():
        assert got_results[qid] == tuple(sorted(want_rnn)), f"q{qid} final RNN"


@pytest.mark.parametrize(
    "shards, kill_worker_at",
    [(4, None), (2, 15)],
    ids=["K4", "K2-process-worker-killed"],
)
def test_sharded_wire_matches_single_monitor(stream, direct, shards, kill_worker_at):
    """The sharded wire path (worker processes) is also bit-identical to
    ONE plain monitor — even when a worker dies mid-run."""
    initial, tick_batches = stream
    want_events, want_counters, want_results = direct
    got_events, got_counters, got_results = replay_wire(
        ServeConfig(monitor=monitor_config(), backend="sharded", shards=shards),
        initial,
        tick_batches,
        kill_worker_at,
    )
    assert got_counters == want_counters
    assert got_events == want_events
    for qid, want_rnn in want_results.items():
        assert got_results[qid] == tuple(sorted(want_rnn))


def test_selective_subscription_sees_only_its_query(stream, direct):
    """A per-query subscriber receives exactly that query's deltas."""
    initial, tick_batches = stream
    want_events, _counters, _results = direct
    qid = QUERY_BASE + 3
    with ServerThread(ServeConfig(monitor=monitor_config())) as (host, port):
        with ServeClient(host, port) as client:
            client.subscribe(qid)
            client.send_updates(initial)
            client.tick()
            client.take_events()
            per_tick = []
            for batch in tick_batches:
                client.send_updates(batch)
                client.tick()
                per_tick.append(
                    sorted(c for ev in client.take_events() for c in ev.changes)
                )
    for t, want in enumerate(want_events):
        assert per_tick[t] == [c for c in want if c[0] == qid], f"tick {t}"


@pytest.mark.parametrize(
    "field", ["backend", "overload", "fanout_policy"]
)
def test_serve_config_rejects_bad_enums(field):
    """Every enum field refuses a typo at construction, on any backend."""
    with pytest.raises(ValueError, match=field):
        ServeConfig(monitor=monitor_config(), **{field: "proces"})


def test_unsubscribe_stops_the_stream(stream):
    """After unsubscribe, ticks deliver no event frames to this client."""
    initial, tick_batches = stream
    with ServerThread(ServeConfig(monitor=monitor_config())) as (host, port):
        with ServeClient(host, port) as client:
            client.subscribe(None)
            client.send_updates(initial)
            client.tick()
            client.take_events()
            client.unsubscribe(None)
            for batch in tick_batches[:20]:
                client.send_updates(batch)
                client.tick()
            assert client.take_events() == []
