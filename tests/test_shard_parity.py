"""Sharded-vs-single-monitor parity (the PR-4 tentpole contract).

:class:`ShardedCRNNMonitor` must be **bit-identical** to a single
:class:`CRNNMonitor` fed the same stream: same ``drain_events()``
sequence, same ``results()``, same ``monitoring_region()`` per query,
and the same logical counters (:data:`LOGICAL_COUNTERS`) — for every
shard count, in both executor modes, on clean streams and on the
resilience harness's mild-fault streams, with churn-sized and with
array-path-sized ticks.  Plus the knife-edges: queries exactly on
stripe boundaries, circ-regions spanning three stripes, and objects
teleporting across ``K-1`` shards in one tick.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate
from repro.core.monitor import CRNNMonitor
from repro.core.stats import LOGICAL_COUNTERS
from repro.geometry.point import Point
from repro.obs.config import ObsConfig
from repro.robustness.audit import AuditPolicy, InvariantAuditor
from repro.robustness.faults import FaultInjector, FaultSpec
from repro.shard import ShardedCRNNMonitor

from .conftest import TEST_BOUNDS, large_tick_batches
from .test_robustness_fuzz import _random_batches

GOLDEN_SEEDS = (11, 29)
SHARD_COUNTS = (1, 2, 4, 8)


def _config(**kwargs) -> MonitorConfig:
    kwargs.setdefault("grid_cells", 12)
    return MonitorConfig(variant="lu+pi", bounds=TEST_BOUNDS, **kwargs)


def _pair(shards: int, executor: str = "serial", **kwargs):
    cfg = _config(**kwargs)
    return CRNNMonitor(cfg), ShardedCRNNMonitor(cfg, shards=shards, executor=executor)


def _assert_lockstep(mono: CRNNMonitor, sharded: ShardedCRNNMonitor, context: str):
    assert sharded.drain_events() == mono.drain_events(), context
    assert sharded.results() == mono.results(), context
    for qid in sorted(mono.qt.ids()):
        assert sharded.monitoring_region(qid) == mono.monitoring_region(qid), (
            f"{context}: region of q{qid}"
        )


def _assert_logical_counters(mono: CRNNMonitor, sharded: ShardedCRNNMonitor, ctx: str):
    single = mono.stats.snapshot()
    agg = sharded.aggregated_stats().snapshot()
    for name in LOGICAL_COUNTERS:
        assert single[name] == agg[name], f"{ctx}: {name} {single[name]} != {agg[name]}"


def _drive(mono, sharded, batches, context):
    for t, batch in enumerate(batches):
        mono.process(batch)
        sharded.process(batch)
        _assert_lockstep(mono, sharded, f"{context} t={t}")
    _assert_logical_counters(mono, sharded, context)
    mono.validate()
    sharded.validate()


class TestGoldenParity:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_clean_stream_event_for_event(self, shards, seed):
        mono, sharded = _pair(shards)
        with sharded:
            _drive(
                mono, sharded,
                _random_batches(random.Random(seed), timestamps=12),
                f"K={shards} seed={seed}",
            )

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("shards", (2, 4))
    def test_mild_fault_stream_event_for_event(self, shards, seed):
        # The resilience mild fault mix through identically-guarded
        # monitors: drops, duplicates, reorders, stale replays.
        batches = list(
            FaultInjector(FaultSpec.mild(seed=seed)).stream(
                _random_batches(random.Random(seed), timestamps=12)
            )
        )
        mono, sharded = _pair(shards, guard_policy="drop")
        with sharded:
            _drive(mono, sharded, batches, f"mild K={shards} seed={seed}")
            assert sharded.guard.violation_counts() == mono.guard.violation_counts()

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_vectorized_stream_event_for_event(self, shards):
        # Ticks of hundreds of moves: the churn streams above stay under
        # every array path's size threshold (bulk grid moves, row-interval
        # kernels, chunked circ prefilter); this one runs them per shard.
        mono, sharded = _pair(shards)
        with sharded:
            _drive(
                mono, sharded,
                large_tick_batches(random.Random(404), 300, 10, ticks=3, moves=300),
                f"large ticks K={shards}",
            )

    def test_serial_tick_enters_batch_kernel_at_most_twice_per_stripe(self):
        # A stripe's pie phase is one _resolve_affected call, so all its
        # re-searches share one multi-query kernel entry and all its
        # certificate searches a second — not one entry per search, which
        # is what resolving query by query would hand the kernel.
        mono, sharded = _pair(2, grid_cells=32)
        batches = large_tick_batches(random.Random(7), 1500, 120, ticks=2, moves=1000)
        with sharded:
            pie_entries: list[tuple[int, int]] = []
            for engine in sharded.executor.engines:
                def counted(affected, resolve=engine.resolve_pies, stats=engine.inner.stats):
                    kernel, searches = stats.vector_nn_kernel_calls, stats.constrained_nn_searches
                    resolve(affected)
                    pie_entries.append((
                        stats.vector_nn_kernel_calls - kernel,
                        stats.constrained_nn_searches - searches,
                    ))
                engine.resolve_pies = counted
            _drive(mono, sharded, batches, "K=2 batch-kernel entries")
        # The load tick inserts every object before any query exists.
        assert pie_entries[:2] == [(0, 0)] * 2 and len(pie_entries) == 6
        for kernel_entries, searches in pie_entries[2:]:  # 2 stripes x 2 move ticks
            assert searches >= 10  # many searches, yet ...
            assert 1 <= kernel_entries <= 2

    def test_scalar_api_parity(self):
        # The non-batched facade surface: add/update/remove for both
        # objects and queries, one call at a time.  The drop policy
        # keeps double-deletes as counted no-ops on both sides.
        mono, sharded = _pair(4, guard_policy="drop")
        rng = random.Random(17)

        def pt():
            return Point(
                rng.uniform(TEST_BOUNDS.xmin, TEST_BOUNDS.xmax),
                rng.uniform(TEST_BOUNDS.ymin, TEST_BOUNDS.ymax),
            )

        with sharded:
            for oid in range(60):
                p = pt()
                mono.add_object(oid, p)
                sharded.add_object(oid, p)
            for qid in range(100, 112):
                p = pt()
                assert mono.add_query(qid, p) == sharded.add_query(qid, p)
            _assert_lockstep(mono, sharded, "after load")
            for step in range(120):
                r = rng.random()
                if r < 0.6:
                    oid, p = rng.randrange(60), pt()
                    mono.update_object(oid, p)
                    sharded.update_object(oid, p)
                elif r < 0.8:
                    qid, p = rng.randrange(100, 112), pt()
                    mono.update_query(qid, p)
                    sharded.update_query(qid, p)
                elif r < 0.9:
                    oid = rng.randrange(60, 80)
                    p = pt()
                    mono.add_object(oid, p)
                    sharded.add_object(oid, p)
                else:
                    oid = rng.randrange(80)
                    assert mono.remove_object(oid) == sharded.remove_object(oid)
                _assert_lockstep(mono, sharded, f"scalar step={step}")
            assert sharded.guard.violation_counts() == mono.guard.violation_counts()
            _assert_logical_counters(mono, sharded, "scalar api")
            mono.validate()
            sharded.validate()


class TestProcessExecutor:
    def test_process_pool_parity(self):
        mono, sharded = _pair(2, executor="process")
        with sharded:
            _drive(
                mono, sharded,
                _random_batches(random.Random(29), timestamps=8),
                "process",
            )

    def test_process_pool_scalar_and_query_ops(self):
        mono, sharded = _pair(2, executor="process")
        rng = random.Random(7)
        with sharded:
            for oid in range(30):
                p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                mono.add_object(oid, p)
                sharded.add_object(oid, p)
            for qid in (500, 501, 502):
                p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                assert mono.add_query(qid, p) == sharded.add_query(qid, p)
            # Cross-stripe query migration through worker RPC.
            mono.update_query(500, Point(990.0, 500.0))
            sharded.update_query(500, Point(990.0, 500.0))
            assert mono.remove_query(501) == sharded.remove_query(501)
            # Single-object moves with queries live: the scalar op's
            # pie and circ tail on every worker's replica.
            for oid in range(0, 30, 2):
                p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                mono.update_object(oid, p)
                sharded.update_object(oid, p)
            _assert_lockstep(mono, sharded, "process scalar ops")
            _assert_logical_counters(mono, sharded, "process scalar ops")
            sharded.validate()

    def test_close_is_idempotent(self):
        _, sharded = _pair(2, executor="process")
        sharded.close()
        sharded.close()


def test_serial_and_process_executors_are_one_protocol():
    # Both executors hand the same requests to the same engine code,
    # so every shard's full counter set and each tick's tagged events
    # agree — physical counters included, not just LOGICAL_COUNTERS.
    batches = list(_random_batches(random.Random(61), timestamps=12))
    ticks: dict[str, list] = {"serial": [], "process": []}
    stats = {}
    for executor, tagged in ticks.items():
        with ShardedCRNNMonitor(_config(), shards=2, executor=executor) as sharded:
            tick = sharded.executor.tick

            def recording(batch, tick=tick, tagged=tagged):
                report = tick(batch)
                tagged.append(report.tagged)
                return report

            sharded.executor.tick = recording
            for batch in batches:
                sharded.process(batch)
            stats[executor] = [s.snapshot() for s in sharded.executor.shard_stats()]
    assert ticks["serial"] == ticks["process"]
    for snap in stats["process"]:
        snap["checkpoints_saved"] -= 1  # the supervisor's recovery base
    assert stats["serial"] == stats["process"]


class TestKnifeEdges:
    def test_query_exactly_on_stripe_boundary(self):
        # A query point sitting precisely on an interior stripe edge:
        # owned by the right-hand stripe (grid truncation), results
        # identical to the single monitor, and a later move of exactly
        # one ulp left migrates it.
        mono, sharded = _pair(4)
        with sharded:
            edge_x = sharded.plan.boundaries()[1]
            rng = random.Random(23)
            for oid in range(40):
                p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                mono.add_object(oid, p)
                sharded.add_object(oid, p)
            q = Point(edge_x, 500.0)
            assert mono.add_query(900, q) == sharded.add_query(900, q)
            assert sharded.shard_of(900) == 2
            _assert_lockstep(mono, sharded, "boundary query")
            # Objects crossing right over the query's cell column.
            for tick in range(4):
                batch = [
                    ObjectUpdate(
                        oid,
                        Point(rng.uniform(edge_x - 50, edge_x + 50),
                              rng.uniform(400, 600)),
                    )
                    for oid in range(0, 40, 3)
                ]
                mono.process(batch)
                sharded.process(batch)
                _assert_lockstep(mono, sharded, f"boundary tick={tick}")
            nudged = Point(edge_x - 1e-9, 500.0)
            mono.update_query(900, nudged)
            sharded.update_query(900, nudged)
            assert sharded.shard_of(900) == 1
            _assert_lockstep(mono, sharded, "after ulp migration")
            _assert_logical_counters(mono, sharded, "boundary")
            sharded.validate()

    def test_circ_region_spanning_three_stripes(self):
        # K=8 on a 16-column grid: stripes are two columns (125 units)
        # wide.  A sparse population forces circ-region radii of several
        # hundred units, so candidate circles straddle >= 3 stripes; the
        # full-move-list circ protocol must keep every stripe's view
        # exact.
        mono, sharded = _pair(8, grid_cells=16)
        with sharded:
            positions = {
                1: Point(60.0, 500.0),     # stripe 0
                2: Point(500.0, 520.0),    # stripe 3/4 border area
                3: Point(940.0, 480.0),    # stripe 7
            }
            for oid, p in positions.items():
                mono.add_object(oid, p)
                sharded.add_object(oid, p)
            q = Point(500.0, 500.0)
            assert mono.add_query(700, q) == sharded.add_query(700, q)
            region = sharded.monitoring_region(700)
            spanned = {
                sharded.plan.owner_of(Point(x, 500.0))
                for cr in region.circs
                for x in (cr.circle.center[0] - cr.circle.radius,
                          cr.circle.center[0],
                          cr.circle.center[0] + cr.circle.radius)
            }
            assert len(spanned) >= 3, f"circs stay within {spanned}"
            # Churn every candidate through all three thirds of space.
            rng = random.Random(31)
            for tick in range(6):
                batch = [
                    ObjectUpdate(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
                    for oid in positions
                ]
                mono.process(batch)
                sharded.process(batch)
                _assert_lockstep(mono, sharded, f"3-stripe tick={tick}")
            _assert_logical_counters(mono, sharded, "3-stripe circ")
            sharded.validate()

    def test_object_teleporting_across_all_stripes_in_one_tick(self):
        # One batch moves an object from stripe 0 to stripe K-1 (and a
        # duplicate report bounces it back): the guard collapses
        # duplicates per its policy and the halo metric charges both
        # endpoint stripes.  Event streams stay identical.
        mono, sharded = _pair(8, guard_policy="drop")
        with sharded:
            rng = random.Random(41)
            for oid in range(30):
                p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                mono.add_object(oid, p)
                sharded.add_object(oid, p)
            for qid, x in ((800, 60.0), (801, 500.0), (802, 940.0)):
                p = Point(x, 500.0)
                assert mono.add_query(qid, p) == sharded.add_query(qid, p)
            mono.drain_events()
            sharded.drain_events()
            teleporter = Point(10.0, 500.0)
            mono.update_object(0, teleporter)
            sharded.update_object(0, teleporter)
            batch = [
                ObjectUpdate(0, Point(995.0, 500.0)),  # stripe 0 -> stripe 7
                ObjectUpdate(0, Point(15.0, 505.0)),   # duplicate report, back
                ObjectUpdate(1, Point(12.0, 495.0)),
            ]
            ev_mono = mono.process(batch)
            ev_shard = sharded.process(batch)
            assert ev_mono == ev_shard
            assert mono.results() == sharded.results()
            assert mono.guard.violation_counts() == sharded.guard.violation_counts()
            _assert_logical_counters(mono, sharded, "teleport")
            sharded.validate()

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
                sharded.add_object(
                    oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                )
            for qid in range(300, 316):
                sharded.add_query(
                    qid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
                )
            sharded.process(
                [
                    ObjectUpdate(oid, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
                    for oid in range(0, 80, 2)
                ]
            )
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
            _assert_lockstep(mono, sharded, "excluded migration")
            assert 1 not in sharded.rnn(20)
            sharded.validate()


# ----------------------------------------------------------------------
# Property-based differential test
# ----------------------------------------------------------------------
_coord = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
_action = st.tuples(
    st.sampled_from(("obj", "obj", "obj", "del", "query")),
    st.integers(min_value=0, max_value=15),
    _coord,
    _coord,
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
    """Any action script produces identical event streams and counters."""
    mono, sharded = _pair(shards, guard_policy="drop")
    with sharded:
        live: set[int] = set()
        for t, actions in enumerate(script):
            batch = []
            for kind, ident, x, y in actions:
                if kind == "obj":
                    batch.append(ObjectUpdate(ident, Point(x, y)))
                    live.add(ident)
                elif kind == "del":
                    batch.append(ObjectUpdate(ident, None))
                    live.discard(ident)
                else:
                    batch.append(QueryUpdate(1000 + ident, Point(x, y)))
            assert mono.process(batch) == sharded.process(batch), f"t={t}"
            assert mono.results() == sharded.results(), f"t={t}"
        _assert_logical_counters(mono, sharded, "hypothesis")
        mono.validate()
        sharded.validate()
