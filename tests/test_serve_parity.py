"""End-to-end wire-path parity: TCP replay == direct ``process()`` calls.

A seeded 200-tick mixed workload (moves, deletes, re-inserts, query
churn) replayed through the TCP server holds the harness contract
against one plain monitor — per-tick events, results and logical
counters — on the serial backend, on the sharded backend at K=4, and
at K=2 with a worker process SIGKILLed mid-run; a second, single-query
subscriber must see exactly that query's deltas.
"""

from __future__ import annotations

import pytest

from repro.core.config import MonitorConfig
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread

from .test_exactness import QUERY_BASE, check, killed, served, wire


@pytest.mark.parametrize("backend, shards", [("serial", 1)], ids=["serial-K1"])
def test_wire_parity_against_direct_backend(backend, shards):
    check("lu+pi", served(), wire(backend, shards))


def test_selective_subscription_sees_only_its_query():
    """A per-query subscriber receives exactly that query's deltas, tick
    by tick, beside a firehose subscriber held to the harness contract."""
    check("lu+pi", served(), wire("serial", 1, watch=QUERY_BASE + 3))


@pytest.mark.parametrize(
    "shards, kill_worker_at", [(4, None), (2, 16)], ids=["K4", "K2-process-worker-killed"]
)
def test_sharded_wire_matches_single_monitor(shards, kill_worker_at):
    """The sharded wire path (worker processes) is bit-identical to ONE
    plain monitor — even when a worker dies mid-run."""
    check("lu+pi", served(), wire("sharded", shards), at=kill_worker_at, then=killed)


@pytest.mark.parametrize(
    "field", ["backend", "overload", "fanout_policy"]
)
def test_serve_config_rejects_bad_enums(field):
    """Every enum field refuses a typo at construction, on any backend."""
    with pytest.raises(ValueError, match=field):
        ServeConfig(monitor=MonitorConfig(), **{field: "proces"})


def test_unsubscribe_stops_the_stream():
    """After unsubscribe, ticks deliver no event frames to this client."""
    initial, *tick_batches = served().batches
    with ServerThread(ServeConfig(monitor=served().config("lu+pi"))) as (host, port):
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
