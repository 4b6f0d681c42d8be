"""Sharded-vs-single-monitor parity, through the harness.

:class:`ShardedCRNNMonitor` must be **bit-identical** to a single
:class:`CRNNMonitor` fed the same stream — the contract of
:func:`tests.test_exactness.check`: same ``drain_events()`` sequence,
``results()``, ``monitoring_region()`` per query and logical counters —
for every shard count, in both executor modes, on clean and mild-fault
streams, with churn-sized and array-path-sized ticks.  Plus the
knife-edge streams: a query exactly on a stripe boundary, circ-regions
spanning three stripes, an object teleporting across ``K-1`` shards in
one tick; and the facade's own surface.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs.config import ObsConfig
from repro.robustness.audit import AuditPolicy, InvariantAuditor
from repro.shard import ShardedCRNNMonitor
from repro.shard.plan import StripePlan

from .conftest import TEST_BOUNDS, random_point
from .test_exactness import (
    Stream,
    adding_at,
    api_calls,
    check,
    churn_batches,
    free_points,
    golden,
    large_tick_batches,
    load_batch,
    mild,
    pinned,
    sharded,
)

GOLDEN_SEEDS = (11, 29)
SHARD_COUNTS = (1, 2, 4, 8)


def _config(**kwargs) -> MonitorConfig:
    kwargs.setdefault("grid_cells", 12)
    return MonitorConfig(variant="lu+pi", bounds=TEST_BOUNDS, **kwargs)


def _pair(shards: int, executor: str = "serial", **kwargs):
    cfg = _config(**kwargs)
    return CRNNMonitor(cfg), ShardedCRNNMonitor(cfg, shards=shards, executor=executor)


class TestGoldenParity:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_clean_stream_event_for_event(self, shards, seed):
        check("lu+pi", golden(seed), sharded(shards))

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("shards", (2, 4))
    def test_mild_fault_stream_event_for_event(self, shards, seed):
        check("lu+pi", mild(seed), sharded(shards))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_vectorized_stream_event_for_event(self, shards):
        # Ticks of hundreds of moves: the churn streams stay under every
        # array path's size threshold; this one runs them per shard.
        check("lu+pi", pinned("large"), sharded(shards))

    def test_serial_tick_enters_batch_kernel_at_most_twice_per_stripe(self):
        # A stripe's pie phase is one _resolve_affected call, so all its
        # re-searches share one multi-query kernel entry and all its
        # certificate searches a second — not one entry per search, which
        # is what resolving query by query would hand the kernel.
        batches = large_tick_batches(random.Random(7), 1500, 120, ticks=2, moves=1000)
        with ShardedCRNNMonitor(_config(grid_cells=32), shards=2) as monitor:
            pie_entries: list[tuple[int, int]] = []
            for engine in monitor.executor.engines:
                def counted(affected, resolve=engine.resolve_pies, stats=engine.inner.stats):
                    kernel, searches = stats.vector_nn_kernel_calls, stats.constrained_nn_searches
                    resolve(affected)
                    pie_entries.append((
                        stats.vector_nn_kernel_calls - kernel,
                        stats.constrained_nn_searches - searches,
                    ))
                engine.resolve_pies = counted
            for batch in batches:
                monitor.process(batch)
        # The load tick inserts every object before any query exists.
        assert pie_entries[:2] == [(0, 0)] * 2 and len(pie_entries) == 6
        for kernel_entries, searches in pie_entries[2:]:  # 2 stripes x 2 move ticks
            assert searches >= 10  # many searches, yet ...
            assert 1 <= kernel_entries <= 2

    def test_scalar_api_parity(self):
        # The single-object facade surface, one call per tick: inserts,
        # moves and deletes of objects and queries; the drop policy keeps
        # re-inserts and double deletes as counted no-ops on both sides.
        stream, adds = api_calls(17, 60, 12, 120)
        check("lu+pi", stream, sharded(4, api=adding_at(adds)))


class TestProcessExecutor:
    def test_process_pool_parity(self):
        check("lu+pi", golden(29), sharded(2, "process"))

    def test_process_pool_scalar_and_query_ops(self):
        # Single-object moves, query migrations and removals through
        # worker RPC: the scalar op's pie and circ tail on every replica.
        stream, adds = api_calls(7, 30, 3, 40)
        check("lu+pi", stream, sharded(2, "process", api=adding_at(adds)))

    def test_close_is_idempotent(self):
        _, monitor = _pair(2, executor="process")
        monitor.close()
        monitor.close()


def test_serial_and_process_executors_are_one_protocol():
    # Both executors hand the same requests to the same engine code,
    # so every shard's full counter set and each tick's tagged events
    # agree — physical counters included, not just LOGICAL_COUNTERS.
    batches = churn_batches(random.Random(61), timestamps=12)
    ticks: dict[str, list] = {"serial": [], "process": []}
    stats = {}
    for executor, tagged in ticks.items():
        with ShardedCRNNMonitor(_config(), shards=2, executor=executor) as monitor:
            tick = monitor.executor.tick

            def recording(batch, tick=tick, tagged=tagged):
                report = tick(batch)
                tagged.append(report.tagged)
                return report

            monitor.executor.tick = recording
            for batch in batches:
                monitor.process(batch)
            stats[executor] = [s.snapshot() for s in monitor.executor.shard_stats()]
    assert ticks["serial"] == ticks["process"]
    for snap in stats["process"]:
        snap["checkpoints_saved"] -= 1  # the supervisor's recovery base
    assert stats["serial"] == stats["process"]


class TestKnifeEdges:
    def test_query_exactly_on_stripe_boundary(self):
        # A query point sitting precisely on an interior stripe edge:
        # owned by the right-hand stripe (grid truncation), objects
        # crossing right over its cell column, and a later move of one
        # ulp left migrates it.
        edge_x = StripePlan(TEST_BOUNDS, 12, 4).boundaries()[1]
        rng = random.Random(23)
        band = Rect(edge_x - 50, 400.0, edge_x + 50, 600.0)
        batches = [load_batch(rng, 40, 0), [QueryUpdate(900, Point(edge_x, 500.0))]]
        for _ in range(4):
            batches.append([ObjectUpdate(oid, random_point(rng, band)) for oid in range(0, 40, 3)])
        batches.append([QueryUpdate(900, Point(edge_x - 1e-9, 500.0))])

        def owner(t, driver):
            if t in (1, len(batches) - 1):
                assert driver.monitor.shard_of(900) == (2 if t == 1 else 1)

        check("lu+pi", Stream("stripe-edge", batches), sharded(4), probe=owner)

    def test_circ_region_spanning_three_stripes(self):
        # K=8 on a 16-column grid: stripes are two columns (125 units)
        # wide.  A sparse population forces circ-region radii of several
        # hundred units, so candidate circles straddle >= 3 stripes; the
        # full-move-list circ protocol must keep every stripe's view
        # exact while every candidate churns through all of space.
        rng = random.Random(31)
        batches = [
            [ObjectUpdate(1, Point(60.0, 500.0)), ObjectUpdate(2, Point(500.0, 520.0)),
             ObjectUpdate(3, Point(940.0, 480.0))],
            [QueryUpdate(700, Point(500.0, 500.0))],
        ] + [[ObjectUpdate(oid, random_point(rng)) for oid in (1, 2, 3)] for _ in range(6)]

        def spans_three(t, driver):
            if t == 1:
                monitor = driver.monitor
                spanned = {
                    monitor.plan.owner_of(Point(x, 500.0))
                    for cr in monitor.monitoring_region(700).circs
                    for x in (cr.circle.center[0] - cr.circle.radius, cr.circle.center[0],
                              cr.circle.center[0] + cr.circle.radius)
                }
                assert len(spanned) >= 3, f"circs stay within {spanned}"

        stream = Stream("three-stripes", batches, grid_cells=16)
        check("lu+pi", stream, sharded(8), probe=spans_three)

    def test_object_teleporting_across_all_stripes_in_one_tick(self):
        # One batch moves an object from stripe 0 to stripe K-1 and a
        # duplicate report bounces it back: the guard collapses the
        # duplicate per its policy, and the halo metric charges both
        # endpoint stripes.
        rng = random.Random(41)
        batches = [
            load_batch(rng, 30, 0),
            [QueryUpdate(qid, Point(x, 500.0))
             for qid, x in ((800, 60.0), (801, 500.0), (802, 940.0))],
            [ObjectUpdate(0, Point(10.0, 500.0))],
            [ObjectUpdate(0, Point(995.0, 500.0)),  # stripe 0 -> stripe 7
             ObjectUpdate(0, Point(15.0, 505.0)),   # duplicate report, back
             ObjectUpdate(1, Point(12.0, 495.0))],
        ]
        check("lu+pi", Stream("teleport", batches, guard_policy="drop"), sharded(8))

    def test_halo_accounting_on_teleport(self):
        plan_probe = ShardedCRNNMonitor(_config(), shards=4)
        with plan_probe:
            plan_probe.add_object(1, Point(10.0, 10.0))
            report = plan_probe.executor.tick(
                plan_probe.guard.sanitize_batch([ObjectUpdate(1, Point(990.0, 10.0))])
            )
            assert report.halo == {0: 1, 3: 1}


class TestPerShardInvariants:
    def test_auditor_runs_clean_per_shard(self):
        # The invariant auditor, pointed at each shard engine's inner
        # monitor: every owned query's result must match the brute-force
        # oracle over the engine's full replica, and the deep structural
        # pass must find no registration the engine does not own.
        _, sharded = _pair(4)
        rng = random.Random(53)
        with sharded:
            for oid in range(80):
                sharded.add_object(oid, random_point(rng))
            for qid in range(300, 316):
                sharded.add_query(qid, random_point(rng))
            sharded.process([ObjectUpdate(oid, random_point(rng)) for oid in range(0, 80, 2)])
            for engine in sharded.executor.engines:
                auditor = InvariantAuditor(
                    engine.inner, AuditPolicy(sample_queries=100, deep_every=0)
                )
                report = auditor.audit(deep=True)
                assert report.clean, report
            sharded.validate()

    def test_validate_rejects_a_sibling_registration(self):
        # A replica's cells carry only its own engine's pie registrations:
        # one for a query the other stripe owns is a dead registration
        # there, with no "alive elsewhere" excuse.
        _, sharded = _pair(2)
        with sharded:
            sharded.add_object(1, Point(100.0, 100.0))
            sharded.add_query(10, Point(900.0, 100.0))
            assert sharded.shard_of(10) == 1
            sharded.validate()
            sharded.executor.engines[0].inner.grid.cell(0, 0).add_pie_query(10, 0)
            with pytest.raises(AssertionError, match="dead query"):
                sharded.validate()

    def test_validate_catches_mirror_divergence(self):
        _, sharded = _pair(2)
        with sharded:
            sharded.add_object(1, Point(100.0, 100.0))
            sharded.add_query(10, Point(110.0, 100.0))
            sharded.validate()
            sharded._results[10].discard(1)
            with pytest.raises(AssertionError):
                sharded.validate()


class TestFacadeSurface:
    def test_counts_and_summary(self):
        _, sharded = _pair(2)
        with sharded:
            sharded.add_object(1, Point(1.0, 1.0))
            sharded.add_object(2, Point(999.0, 999.0))
            sharded.add_query(10, Point(2.0, 2.0))
            assert sharded.object_count() == 2
            assert sharded.query_count() == 1
            summary = sharded.summary()
            assert summary["objects"] == 2.0
            assert summary["queries"] == 1.0
            assert summary["shards"] == 2.0
            # Both objects: each is nearer to the query than to the
            # other object, so both are reverse nearest neighbours.
            assert sharded.rnn(10) == frozenset({1, 2})
            with pytest.raises(KeyError):
                sharded.rnn(999)
            # An unknown query id is registered, as process() would.
            sharded.update_query(999, Point(5.0, 5.0))
            assert sharded.query_count() == 2
            assert sharded.rnn(999) == frozenset({1, 2})

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_imbalance_ratio_is_max_over_mean_of_last_tick(self, executor, monkeypatch):
        """The skew of the static split stays measured on every tick:
        gauge and summary equal max/mean of ``TickReport.shard_seconds``
        and read > 1 when one stripe owns every query."""
        rng = random.Random(5)
        cfg = _config(observability=ObsConfig())
        with ShardedCRNNMonitor(cfg, shards=2, executor=executor) as sharded:
            assert sharded.summary()["imbalance_ratio"] == 1.0
            reports = []
            tick = sharded.executor.tick

            def recording_tick(batch):
                reports.append(tick(batch))
                return reports[-1]

            monkeypatch.setattr(sharded.executor, "tick", recording_tick)

            def hot() -> Point:  # stripe 0 of the K=2 split of [0, 1000]
                return Point(rng.uniform(0.0, 490.0), rng.uniform(0.0, 1000.0))

            sharded.process(
                [ObjectUpdate(oid, hot()) for oid in range(300)]
                + [QueryUpdate(10_000 + i, hot()) for i in range(40)]
            )
            for _ in range(3):
                sharded.process([ObjectUpdate(oid, hot()) for oid in range(300)])
            seconds = reports[-1].shard_seconds
            want = max(seconds) / (sum(seconds) / len(seconds))
            assert want > 1.0
            assert sharded.summary()["imbalance_ratio"] == want
            gauge = sharded.obs.registry.get("crnn_shard_imbalance_ratio")
            assert gauge.value == want

    def test_requires_fur_variant(self):
        cfg = MonitorConfig(variant="uniform", bounds=TEST_BOUNDS)
        with pytest.raises(ValueError):
            ShardedCRNNMonitor(cfg, shards=2)
        with pytest.raises(ValueError):
            ShardedCRNNMonitor(_config(), shards=2, executor="threads")

    def test_exclude_survives_migration(self):
        mono, sharded = _pair(4)
        with sharded:
            for oid, p in ((1, Point(60.0, 500.0)), (2, Point(940.0, 500.0))):
                mono.add_object(oid, p)
                sharded.add_object(oid, p)
            # Bichromatic-style exclusion: object 1 never counts for q.
            r1 = mono.add_query(20, Point(55.0, 505.0), exclude=(1,))
            r2 = sharded.add_query(20, Point(55.0, 505.0), exclude=(1,))
            assert r1 == r2
            # Migrate across the space; the exclude set must ride along.
            mono.update_query(20, Point(945.0, 505.0))
            sharded.update_query(20, Point(945.0, 505.0))
            assert sharded.drain_events() == mono.drain_events()
            assert sharded.monitoring_region(20) == mono.monitoring_region(20)
            assert 1 not in sharded.rnn(20)
            sharded.validate()

# ----------------------------------------------------------------------
# Property-based differential test
# ----------------------------------------------------------------------
_action = st.one_of(
    st.tuples(st.just(ObjectUpdate), st.integers(0, 15), free_points),
    st.tuples(st.just(ObjectUpdate), st.integers(0, 15), st.none()),
    st.tuples(st.just(QueryUpdate), st.integers(1000, 1015), free_points),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shards=st.sampled_from(SHARD_COUNTS),
    script=st.lists(st.lists(_action, min_size=1, max_size=6), min_size=1, max_size=6),
)
def test_differential_hypothesis(shards, script):
    """Any action script, drop-guarded, holds the whole contract."""
    batches = [[kind(ident, pos) for kind, ident, pos in actions] for actions in script]
    check("lu+pi", Stream(None, batches, guard_policy="drop"), sharded(shards))
