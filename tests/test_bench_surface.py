"""Tier-1 tripwire for the surface of ``repro`` that ``bench/`` freezes.

``bench/tracing.py`` resolves its :data:`POINTS` with bare ``getattr`` and
``bench/sut.py`` / ``bench/wire.py`` read counters and build monitors by
name; a rename under ``src/`` breaks them only inside the benchmark's
traced children, as failed operations, after the unit suite is green.
This file reads ``bench/`` and edits nothing there.
"""

from __future__ import annotations

import inspect
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import sut  # noqa: E402
from bench.tracing import POINTS, Tracer  # noqa: E402

from repro.core.config import MonitorConfig  # noqa: E402
from repro.core.stats import StatCounters  # noqa: E402


def test_every_trace_point_resolves_and_unpatches():
    assert len(POINTS) == 35
    from repro.core import monitor, update_pie

    original = update_pie._resolve_affected
    tracer = Tracer()
    tracer.install()  # AttributeError here = a POINTS name moved
    try:
        assert len(tracer.names) == 1 + len(POINTS)
        # A module function is patched in every namespace that imported it.
        assert update_pie._resolve_affected is not original
        assert monitor._resolve_affected is update_pie._resolve_affected
    finally:
        tracer.uninstall()
    assert update_pie._resolve_affected is original
    assert monitor._resolve_affected is original


def test_counters_the_layer_table_reads_exist():
    zero = StatCounters().snapshot()
    assert set(sut._COUNTER_LAYERS.values()) <= set(zero)
    # KeyError here = a field a ratio of the table divides by is gone.
    layers = sut.counter_layers(zero, ticks=1)
    assert set(sut._COUNTER_LAYERS) < set(layers)


def test_constructor_calls_of_the_bench_bind():
    from repro.serve.server import ServeConfig, ServerThread
    from repro.shard.monitor import ShardedCRNNMonitor
    from repro.shard.supervisor import SupervisionConfig

    # bench/sut.py make_sharded (bound, not called: no workers are spawned).
    inspect.signature(ShardedCRNNMonitor).bind(
        MonitorConfig.lu_pi(),
        shards=2,
        executor="process",
        supervision=SupervisionConfig(),
    )
    # bench/wire.py's traced pass.
    inspect.signature(ServerThread).bind(ServeConfig())
