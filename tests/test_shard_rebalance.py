"""Live shard rebalancing (PR 9): plan math, load tracking, migration parity.

The headline contract: a live migration — quiesce at a tick boundary,
splice the fleet's exact state under a new weighted plan, resume — is
*logically invisible*.  ``drain_events`` and every logical counter stay
bit-identical to a never-rebalanced monitor, on both executors, with
chaos kills landing mid-migration (rolled back bit-exactly) and with
crash recovery interleaved.  The quick tier exercises every path at
small scale; ``pytest -m chaos`` runs the 200-tick acceptance matrix
(K ∈ {2, 4, 8}, both executors, plan changes forced every ≤ 20 ticks,
kills interleaved).
"""

from __future__ import annotations

import random

import pytest

from repro.core.monitor import CRNNMonitor
from repro.core.stats import LOGICAL_COUNTERS
from repro.geometry.point import Point
from repro.shard import ChaosSpec, ShardedCRNNMonitor, StripePlan, SupervisionConfig
from repro.shard.executor import RebalanceAborted
from repro.shard.journal import engine_snapshot, rehydrate_engine
from repro.shard.rebalance import (
    LoadTracker,
    RebalanceConfig,
    RebalanceController,
    splice_shard_snapshots,
)

from .conftest import TEST_BOUNDS
from .test_robustness_fuzz import _random_batches
from .test_shard_parity import _config


def _shifted_plan(plan: StripePlan, step: int) -> StripePlan | None:
    """A legal successor plan with boundary 1 moved by ``step`` columns."""
    starts = list(plan.starts)
    if len(starts) < 2:
        return None
    moved = starts[1] + step
    hi = starts[2] if len(starts) > 2 else plan.n
    if not (starts[0] < moved < hi):
        return None
    starts[1] = moved
    return StripePlan.from_starts(
        plan.bounds, plan.n, tuple(starts), version=plan.version + 1
    )


def _assert_logical_parity(mono: CRNNMonitor, sharded: ShardedCRNNMonitor, ctx: str):
    single = mono.stats.snapshot()
    agg = sharded.aggregated_stats().snapshot()
    for name in LOGICAL_COUNTERS:
        assert single[name] == agg[name], f"{ctx}: {name}"


def _lockstep_with_forced_rebalances(
    shards: int,
    executor: str,
    ticks: int,
    seed: int,
    every: int = 4,
    chaos=None,
    supervision=None,
    min_committed: int = 1,
):
    """Drive mono + sharded in lockstep, forcing a plan change every
    ``every`` ticks; asserts per-tick event parity and final
    logical-counter parity.  Returns the sharded monitor's outcome dict.
    """
    cfg = _config()
    mono = CRNNMonitor(cfg)
    sharded = ShardedCRNNMonitor(
        cfg, shards=shards, executor=executor,
        supervision=supervision, chaos=chaos,
    )
    with sharded:
        for t, batch in enumerate(
            _random_batches(random.Random(seed), timestamps=ticks)
        ):
            assert mono.process(batch) == sharded.process(batch), (
                f"K={shards} {executor} t={t}"
            )
            if (t + 1) % every == 0:
                step = 1 if (t // every) % 2 == 0 else -1
                candidate = _shifted_plan(sharded.plan, step)
                if candidate is not None:
                    sharded.rebalance_now(candidate)
        _assert_logical_parity(mono, sharded, f"K={shards} {executor}")
        assert mono.results() == sharded.results()
        mono.validate()
        sharded.validate()
        outcomes = dict(sharded.rebalance_outcomes)
    assert outcomes["committed"] >= min_committed, outcomes
    return outcomes


# ----------------------------------------------------------------------
# Weighted / versioned plan math
# ----------------------------------------------------------------------
class TestWeightedPlan:
    def test_weighted_split_tracks_load(self):
        # All load in the left quarter: stripe 0 should shrink to it.
        loads = [100.0] * 4 + [0.0] * 12
        plan = StripePlan.weighted(TEST_BOUNDS, 16, 2, loads, version=3)
        assert plan.version == 3
        assert plan.starts[1] <= 4

    def test_weighted_split_every_stripe_keeps_a_column(self):
        # Degenerate load (everything in one column) must still yield a
        # legal partition: K non-empty stripes.
        loads = [0.0] * 16
        loads[0] = 1000.0
        plan = StripePlan.weighted(TEST_BOUNDS, 16, 4, loads)
        assert list(plan.starts) == sorted(set(plan.starts))
        assert all(b - a >= 1 for a, b in zip(plan.starts, plan.starts[1:]))

    def test_weighted_uniform_load_matches_even_split(self):
        even = StripePlan(TEST_BOUNDS, 16, 4)
        weighted = StripePlan.weighted(TEST_BOUNDS, 16, 4, [1.0] * 16)
        assert weighted.starts == even.starts

    def test_args_round_trip_carries_version(self):
        plan = StripePlan.weighted(TEST_BOUNDS, 12, 3, [1.0] * 12, version=7)
        again = StripePlan.from_args(plan.to_args())
        assert again.starts == plan.starts
        assert again.version == 7

    def test_legacy_args_default_to_version_zero(self):
        plan = StripePlan.from_args((tuple(TEST_BOUNDS), 12, 3))
        assert plan.version == 0
        assert plan.starts == StripePlan(TEST_BOUNDS, 12, 3).starts

    def test_from_starts_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            StripePlan.from_starts(TEST_BOUNDS, 12, (0, 6, 6))
        with pytest.raises(ValueError):
            StripePlan.from_starts(TEST_BOUNDS, 12, (1, 6))


# ----------------------------------------------------------------------
# Load tracking and the trigger policy
# ----------------------------------------------------------------------
class TestLoadTracker:
    def test_ewma_folds_and_decays(self):
        tr = LoadTracker(4, alpha=0.5)
        tr.note_event(1)
        tr.note_event(1)
        tr.end_tick()
        assert tr.move_load[1] == 1.0  # 0 + 0.5 * (2 - 0)
        tr.end_tick()  # no traffic: decays toward zero
        assert tr.move_load[1] == 0.5

    def test_query_census_moves_and_drops(self):
        tr = LoadTracker(4)
        tr.note_query(9, 0)
        tr.note_query(9, 0)  # idempotent re-note
        assert tr.query_count == [1, 0, 0, 0]
        tr.note_query(9, 3)
        assert tr.query_count == [0, 0, 0, 1]
        tr.drop_query(9)
        tr.drop_query(9)  # double drop is harmless
        assert tr.query_count == [0, 0, 0, 0]

    def test_column_loads_zero_when_idle(self):
        tr = LoadTracker(3)
        assert tr.column_loads() == [0.0, 0.0, 0.0]
        tr.note_query(1, 2)
        loads = tr.column_loads()
        assert loads[2] > 0.0 and loads[0] == 0.0


class TestRebalanceController:
    def _ctl(self, **kw) -> RebalanceController:
        defaults = dict(
            imbalance_threshold=1.5, patience_ticks=2,
            warmup_ticks=2, cooldown_ticks=4,
        )
        defaults.update(kw)
        return RebalanceController(
            StripePlan(TEST_BOUNDS, 16, 2), RebalanceConfig(**defaults)
        )

    def test_warmup_then_patience_then_trigger(self):
        ctl = self._ctl()
        skewed = [1.0, 0.1]
        fired = [ctl.note_tick(skewed) for _ in range(6)]
        # Ticks 1-2 warmup, 3 builds patience... the streak accumulates
        # during warmup, so the first post-warmup tick may fire.
        assert any(fired)
        assert fired.index(True) >= 2
        assert ctl.imbalance_ratio > 1.5

    def test_one_slow_tick_never_triggers(self):
        ctl = self._ctl(patience_ticks=3, warmup_ticks=0)
        assert not ctl.note_tick([1.0, 0.1])
        assert not ctl.note_tick([1.0, 1.0])  # streak resets
        assert not ctl.note_tick([1.0, 0.1])
        assert not ctl.note_tick([1.0, 0.1])

    def test_cooldown_after_plan_change(self):
        ctl = self._ctl(warmup_ticks=0, patience_ticks=1, cooldown_ticks=5)
        assert ctl.note_tick([1.0, 0.1])
        ctl.note_plan_change(ctl.plan)
        for _ in range(5):
            assert not ctl.note_tick([1.0, 0.1])
        assert ctl.note_tick([1.0, 0.1])

    def test_observe_only_mode_never_triggers(self):
        ctl = self._ctl(enabled=False, warmup_ticks=0, patience_ticks=1)
        for _ in range(10):
            assert not ctl.note_tick([1.0, 0.1])
        assert ctl.imbalance_ratio > 1.5  # the gauge still works

    def test_propose_drops_sub_threshold_shifts(self):
        ctl = self._ctl(min_shift_columns=8)
        # Mild skew: the weighted split moves the boundary a little,
        # but not by 8 columns.
        for c in range(16):
            ctl.tracker.note_event(c, 1.0 + (0.2 if c < 8 else 0.0))
        ctl.tracker.end_tick()
        assert ctl.propose() is None

    def test_propose_bumps_version(self):
        ctl = self._ctl()
        for _ in range(3):
            ctl.tracker.note_query(100, 1)
            ctl.tracker.note_event(1, 50.0)
            ctl.tracker.end_tick()
        candidate = ctl.propose()
        assert candidate is not None
        assert candidate.version == ctl.plan.version + 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RebalanceConfig(imbalance_threshold=0.9)
        with pytest.raises(ValueError):
            RebalanceConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            RebalanceConfig(patience_ticks=0)


# ----------------------------------------------------------------------
# Snapshot splicing
# ----------------------------------------------------------------------
class TestSplice:
    def _fleet_snaps(self, seed: int = 41, shards: int = 2):
        cfg = _config()
        sharded = ShardedCRNNMonitor(cfg, shards=shards, executor="serial")
        for batch in _random_batches(random.Random(seed), timestamps=8):
            sharded.process(batch)
        snaps = [engine_snapshot(e) for e in sharded.executor.engines]
        return sharded, snaps

    def test_splice_regroups_queries_by_new_owner(self):
        sharded, snaps = self._fleet_snaps()
        new_plan = _shifted_plan(sharded.plan, 2)
        new_snaps, owners = splice_shard_snapshots(snaps, new_plan)
        assert len(new_snaps) == sharded.plan.shards
        for shard, snap in enumerate(new_snaps):
            for qid, x, y, _ in snap["queries"]:
                assert owners[qid] == shard
                assert new_plan.owner_of(Point(x, y)) == shard
        # Every query landed exactly once.
        total = sum(len(s["queries"]) for s in new_snaps)
        assert total == sum(len(s["queries"]) for s in snaps)

    def test_splice_keeps_objects_and_stats_in_place(self):
        sharded, snaps = self._fleet_snaps()
        new_plan = _shifted_plan(sharded.plan, 1)
        new_snaps, _ = splice_shard_snapshots(snaps, new_plan)
        for shard, (old, new) in enumerate(zip(snaps, new_snaps)):
            assert new["objects"] == old["objects"]
            assert new["stats"] == old["stats"]  # counters never migrate
            assert new["shard"] == shard

    def test_spliced_snapshots_rehydrate_to_valid_engines(self):
        sharded, snaps = self._fleet_snaps()
        new_plan = _shifted_plan(sharded.plan, 2)
        new_snaps, _ = splice_shard_snapshots(snaps, new_plan)
        for shard, snap in enumerate(new_snaps):
            engine = rehydrate_engine(
                sharded.config, new_plan, shard, snap
            )
            engine.validate()

    def test_splice_rejects_shard_count_change(self):
        _, snaps = self._fleet_snaps(shards=2)
        with pytest.raises(ValueError):
            splice_shard_snapshots(snaps, StripePlan(TEST_BOUNDS, 12, 3))


# ----------------------------------------------------------------------
# Forced-migration parity (quick tier)
# ----------------------------------------------------------------------
class TestForcedRebalanceParity:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    @pytest.mark.parametrize("shards", (2, 4))
    def test_lockstep_with_plan_changes(self, shards, executor):
        _lockstep_with_forced_rebalances(
            shards=shards, executor=executor, ticks=20, seed=907, every=4
        )

    def test_rebalance_now_restamps_stale_versions(self):
        cfg = _config()
        sharded = ShardedCRNNMonitor(cfg, shards=2, executor="serial")
        with sharded:
            for batch in _random_batches(random.Random(11), timestamps=4):
                sharded.process(batch)
            v0 = sharded.plan.version
            candidate = _shifted_plan(sharded.plan, 1)
            # Hand in a plan with a non-incremented version: the facade
            # must re-stamp it so stale-worker detection keeps working.
            unstamped = StripePlan.from_starts(
                candidate.bounds, candidate.n, candidate.starts, version=v0
            )
            assert sharded.rebalance_now(unstamped)
            assert sharded.plan.version == v0 + 1

    def test_rebalance_now_without_controller_needs_a_plan(self):
        sharded = ShardedCRNNMonitor(_config(), shards=2, executor="serial")
        with sharded:
            with pytest.raises(RuntimeError):
                sharded.rebalance_now()

    def test_metrics_and_summary_reflect_migrations(self):
        from repro.core.config import MonitorConfig
        from repro.obs.config import ObsConfig

        cfg = MonitorConfig.lu_pi(
            grid_cells=12, bounds=TEST_BOUNDS,
            observability=ObsConfig(),
        )
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor="serial",
            rebalance=RebalanceConfig(enabled=False),
        )
        with sharded:
            for batch in _random_batches(random.Random(5), timestamps=4):
                sharded.process(batch)
            assert sharded.rebalance_now(_shifted_plan(sharded.plan, 1))
            summary = sharded.summary()
            assert summary["plan_version"] == 1
            assert summary["rebalances_committed"] == 1
            snap = sharded.obs.registry.snapshot()
            assert snap["counters"][
                'crnn_shard_rebalances_total{outcome="committed"}'
            ] == 1.0
            assert snap["gauges"]["crnn_shard_plan_version"] == 1.0


# ----------------------------------------------------------------------
# Adaptive (controller-driven) migration
# ----------------------------------------------------------------------
def _clustered_batches(rng: random.Random, timestamps: int):
    """A skewed stream: everything in the left fifth of the space."""
    from repro.core.events import ObjectUpdate, QueryUpdate

    def pt():
        return Point(rng.uniform(0.0, 200.0), rng.uniform(0.0, 1000.0))

    batches = [[ObjectUpdate(oid, pt()) for oid in range(60)]
               + [QueryUpdate(10_000 + q, pt()) for q in range(8)]]
    for _ in range(timestamps - 1):
        batches.append(
            [ObjectUpdate(rng.randrange(60), pt()) for _ in range(20)]
        )
    return batches


class TestAdaptiveRebalance:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_skew_triggers_and_stays_in_parity(self, executor):
        cfg = _config()
        mono = CRNNMonitor(cfg)
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor=executor,
            rebalance=RebalanceConfig(
                imbalance_threshold=1.2, patience_ticks=2,
                warmup_ticks=2, cooldown_ticks=3,
            ),
        )
        with sharded:
            for t, batch in enumerate(_clustered_batches(random.Random(31), 16)):
                assert mono.process(batch) == sharded.process(batch), f"t={t}"
            _assert_logical_parity(mono, sharded, executor)
            mono.validate()
            sharded.validate()
            assert sharded.rebalance_outcomes["committed"] >= 1, (
                sharded.rebalance_outcomes
            )
            assert sharded.plan.version >= 1

    def test_observe_only_tracks_imbalance_without_migrating(self):
        cfg = _config()
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor="serial",
            rebalance=RebalanceConfig(
                enabled=False, imbalance_threshold=1.2,
                patience_ticks=1, warmup_ticks=0,
            ),
        )
        with sharded:
            for batch in _clustered_batches(random.Random(32), 10):
                sharded.process(batch)
            assert sharded.plan.version == 0
            assert sharded.rebalance_outcomes["committed"] == 0
            assert sharded.imbalance_ratio > 1.0


# ----------------------------------------------------------------------
# Migration under chaos: kills mid-migration roll back bit-exactly
# ----------------------------------------------------------------------
class TestMigrationChaos:
    def _run_with_kills(self, kill_points, seed=71, ticks=18, every=3):
        cfg = _config()
        chaos = ChaosSpec(
            seed=seed, kill_every=1, kill_points=kill_points, ops=("rebalance",)
        )
        supervision = SupervisionConfig(
            op_deadline=60.0, backoff_base=0.01, checkpoint_interval=6
        )
        mono = CRNNMonitor(cfg)
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor="process",
            supervision=supervision, chaos=chaos,
        )
        with sharded:
            for t, batch in enumerate(
                _random_batches(random.Random(seed + 1), timestamps=ticks)
            ):
                assert mono.process(batch) == sharded.process(batch), (
                    f"{kill_points} t={t}"
                )
                if (t + 1) % every == 0:
                    candidate = _shifted_plan(
                        sharded.plan, 1 if (t // every) % 2 == 0 else -1
                    )
                    if candidate is not None:
                        sharded.rebalance_now(candidate)
            _assert_logical_parity(mono, sharded, f"{kill_points}")
            assert mono.results() == sharded.results()
            mono.validate()
            sharded.validate()
            return dict(sharded.rebalance_outcomes)

    def test_kill_before_apply_completes_rolls_back(self):
        # Every rebalance request is kill-eligible; mid_tick kills the
        # worker on receipt, so the apply fails and the coordinator must
        # roll the whole fleet back to the old plan — bit-exactly, as
        # the continued lockstep proves.
        outcomes = self._run_with_kills(("mid_tick",))
        assert outcomes["rolled_back"] >= 1, outcomes

    def test_kill_pre_reply_rolls_back(self):
        outcomes = self._run_with_kills(("pre_reply",), seed=73)
        assert outcomes["rolled_back"] >= 1, outcomes

    def test_kill_after_reply_commits_and_recovers(self):
        # post_reply kills land *after* the worker adopted the new plan
        # and replied: the migration commits, and the crash surfaces on
        # the next op, recovering under the new plan.
        outcomes = self._run_with_kills(("post_reply",), seed=75)
        assert outcomes["committed"] >= 1, outcomes

    def test_rollback_reports_aborted_to_forced_callers(self):
        # Executor-level view: a kill during apply raises
        # RebalanceAborted after the fleet is restored.
        cfg = _config()
        chaos = ChaosSpec(
            seed=77, kill_every=1, kill_points=("mid_tick",), ops=("rebalance",)
        )
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor="process",
            supervision=SupervisionConfig(op_deadline=60.0, backoff_base=0.01),
            chaos=chaos,
        )
        with sharded:
            for batch in _random_batches(random.Random(78), timestamps=4):
                sharded.process(batch)
            sharded.drain_events()
            before = sharded.results()
            with pytest.raises(RebalanceAborted):
                sharded.executor.rebalance(_shifted_plan(sharded.plan, 1))
            assert sharded.plan.version == 0
            assert sharded.results() == before
            sharded.validate()


# ----------------------------------------------------------------------
# Checkpoints and plan versions
# ----------------------------------------------------------------------
class TestPlanVersionCheckpoint:
    def test_checkpoint_restores_across_plan_change(self):
        # Coordinator checkpoints are ground truth and plan-agnostic: a
        # snapshot taken *after* a migration restores under any plan
        # (fresh even split, any K, any executor) in event lockstep.
        cfg = _config()
        sharded = ShardedCRNNMonitor(cfg, shards=2, executor="serial")
        with sharded:
            for batch in _random_batches(random.Random(55), timestamps=6):
                sharded.process(batch)
            assert sharded.rebalance_now(_shifted_plan(sharded.plan, 2))
            snap = sharded.checkpoint()
            restored = ShardedCRNNMonitor.from_checkpoint(
                snap, shards=4, executor="serial"
            )
            with restored:
                assert restored.plan.version == 0  # fresh deployment
                assert restored.results() == sharded.results()
                for t, (a, b) in enumerate(zip(
                    _random_batches(random.Random(56), timestamps=6),
                    _random_batches(random.Random(56), timestamps=6),
                )):
                    assert sharded.process(a) == restored.process(b), f"t={t}"
                sharded.validate()
                restored.validate()

    def test_supervised_recovery_checkpoints_follow_the_plan(self):
        # After a committed migration the supervisor's recovery
        # baseline is the *spliced* state: a crash on the next tick must
        # rebuild under the new plan, still in lockstep.
        cfg = _config()
        chaos = ChaosSpec(seed=81, kill_every=3, kill_points=("mid_tick",))
        mono = CRNNMonitor(cfg)
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor="process",
            supervision=SupervisionConfig(
                op_deadline=60.0, backoff_base=0.01, checkpoint_interval=5
            ),
            chaos=chaos,
        )
        with sharded:
            for t, batch in enumerate(
                _random_batches(random.Random(82), timestamps=20)
            ):
                assert mono.process(batch) == sharded.process(batch), f"t={t}"
                if t == 7:
                    assert sharded.rebalance_now(_shifted_plan(sharded.plan, 1))
            _assert_logical_parity(mono, sharded, "recovery-after-migration")
            report = sharded.supervision_report()
            assert report["restarts_total"] >= 1
            assert sharded.plan.version == 1
            mono.validate()
            sharded.validate()


# ----------------------------------------------------------------------
# Stale-plan detection
# ----------------------------------------------------------------------
class TestStaleDetection:
    def test_stale_worker_is_respawned_under_current_plan(self):
        # Simulate a fleet that missed a plan bump (e.g. a lost
        # rebalance op): bump the coordinator's plan box without telling
        # the workers.  Every worker must refuse the next stamped op
        # with a ``stale`` reply, and the supervisor must respawn it
        # under the current plan and keep the stream in lockstep.
        cfg = _config()
        mono = CRNNMonitor(cfg)
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor="process",
            supervision=SupervisionConfig(
                op_deadline=60.0, backoff_base=0.01, checkpoint_interval=4
            ),
        )
        with sharded:
            batches = _random_batches(random.Random(91), timestamps=12)
            for t, batch in enumerate(batches):
                if t == 6:
                    ex = sharded.executor
                    plan = ex.plan
                    # Same geometry, bumped generation: only the stamp
                    # changes, so recovery converges immediately.
                    ex.plan = StripePlan.from_starts(
                        plan.bounds, plan.n, plan.starts,
                        version=plan.version + 1,
                    )
                assert mono.process(batch) == sharded.process(batch), f"t={t}"
            report = sharded.supervision_report()
            assert report["restarts_total"] >= 2  # both workers went stale
            _assert_logical_parity(mono, sharded, "stale-recovery")
            mono.validate()
            sharded.validate()


# ----------------------------------------------------------------------
# The 200-tick acceptance matrix (heavy; ``pytest -m chaos``)
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestRebalanceAcceptanceMatrix:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    @pytest.mark.parametrize("shards", (2, 4, 8))
    def test_200_ticks_forced_rebalances(self, shards, executor):
        _lockstep_with_forced_rebalances(
            shards=shards, executor=executor, ticks=200, seed=990 + shards,
            every=17, min_committed=3,
        )

    @pytest.mark.parametrize("shards", (2, 4, 8))
    def test_200_ticks_rebalances_with_chaos_kills(self, shards):
        chaos = ChaosSpec(seed=45, kill_every=8)
        supervision = SupervisionConfig(
            op_deadline=60.0, backoff_base=0.01, checkpoint_interval=20
        )
        _lockstep_with_forced_rebalances(
            shards=shards, executor="process", ticks=200, seed=880 + shards,
            every=13, chaos=chaos, supervision=supervision,
        )
