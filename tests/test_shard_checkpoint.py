"""Checkpoint/restore of the sharded facade (ISSUE-6 satellite c).

The coordinator checkpoint records *ground truth* — positions, query
registrations, results, aggregated counters — in the same format as the
single monitor's, so one snapshot restores under any shard count, any
executor, or even a plain :class:`CRNNMonitor`.  The contract: every
monitor rebuilt from the same snapshot continues in **event lockstep**
with the uninterrupted original, and the canonical rebuilds stay in
full logical-counter-delta lockstep with each other.
"""

from __future__ import annotations

import random

import pytest

from repro.core.monitor import CRNNMonitor
from repro.core.stats import LOGICAL_COUNTERS
from repro.robustness.checkpoint import (
    CheckpointError,
    from_json,
    restore,
    to_json,
)
from repro.shard import ShardedCRNNMonitor

from .test_robustness_fuzz import _random_batches
from .test_shard_parity import _config


def _build_deployment(seed: int, shards: int, executor: str):
    cfg = _config()
    sharded = ShardedCRNNMonitor(cfg, shards=shards, executor=executor)
    for batch in _random_batches(random.Random(seed), timestamps=8):
        sharded.process(batch)
    sharded.drain_events()
    return sharded


def _continue_in_lockstep(monitors, seed: int, ticks: int, context: str):
    """Feed identical batches to every monitor; assert event parity."""
    streams = [_random_batches(random.Random(seed), timestamps=ticks)
               for _ in monitors]
    for t, batches in enumerate(zip(*streams)):
        events = [m.process(batch) for m, batch in zip(monitors, batches)]
        for i, got in enumerate(events[1:], start=1):
            assert got == events[0], f"{context}: monitor {i} diverged at t={t}"


class TestSaveRestoreParity:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_restore_continues_in_event_lockstep(self, executor):
        # Save under K=2, restore under K=4 and under the *other*
        # executor: both restored deployments (and a restored single
        # monitor) must emit the same events as the uninterrupted
        # original from the restore point on.
        original = _build_deployment(seed=301, shards=2, executor=executor)
        other = "process" if executor == "serial" else "serial"
        with original:
            snap = original.checkpoint()
            restored_wide = ShardedCRNNMonitor.from_checkpoint(
                snap, shards=4, executor="serial"
            )
            restored_other = ShardedCRNNMonitor.from_checkpoint(
                snap, shards=2, executor=other
            )
            restored_single = restore(snap)
            with restored_wide, restored_other:
                assert restored_wide.results() == original.results()
                assert restored_other.results() == original.results()
                assert restored_single.results() == original.results()
                base_wide = restored_wide.aggregated_stats().snapshot()
                base_single = restored_single.stats.snapshot()
                _continue_in_lockstep(
                    [original, restored_wide, restored_other, restored_single],
                    seed=302, ticks=6,
                    context=executor,
                )
                # Canonical rebuilds are counter-twins of each other:
                # identical logical-counter deltas from the restore on.
                delta_wide = {
                    k: restored_wide.aggregated_stats().snapshot()[k] - base_wide[k]
                    for k in LOGICAL_COUNTERS
                }
                delta_single = {
                    k: restored_single.stats.snapshot()[k] - base_single[k]
                    for k in LOGICAL_COUNTERS
                }
                assert delta_wide == delta_single
                for m in (original, restored_wide, restored_other):
                    m.validate()
                restored_single.validate()

    def test_checkpoint_counters_recorded_and_incremented(self):
        original = _build_deployment(301, 2, "serial")
        with original:
            before = original.aggregated_stats().checkpoints_saved
            snap = original.checkpoint()
            assert original.aggregated_stats().checkpoints_saved == before + 1
            assert snap["stats"]["nn_searches"] > 0
        restored = ShardedCRNNMonitor.from_checkpoint(snap, shards=2)
        with restored:
            assert restored.aggregated_stats().checkpoints_restored == 1

    def test_json_round_trip(self):
        original = _build_deployment(303, 4, "serial")
        with original:
            snap = from_json(to_json(original.checkpoint()))
            restored = ShardedCRNNMonitor.from_checkpoint(snap, shards=4)
            with restored:
                assert restored.results() == original.results()
                assert restored.object_count() == original.object_count()
                assert restored.query_count() == original.query_count()

    def test_single_monitor_checkpoint_restores_sharded(self):
        # Cross-direction: a plain CRNNMonitor's snapshot boots a
        # sharded deployment (shared FORMAT), and they continue in
        # event lockstep.
        from repro.robustness.checkpoint import snapshot

        cfg = _config()
        mono = CRNNMonitor(cfg)
        for batch in _random_batches(random.Random(305), timestamps=8):
            mono.process(batch)
        mono.drain_events()
        sharded = ShardedCRNNMonitor.from_checkpoint(snapshot(mono), shards=4)
        with sharded:
            assert sharded.results() == mono.results()
            _continue_in_lockstep([mono, sharded], seed=306, ticks=6,
                                  context="mono->sharded")
            mono.validate()
            sharded.validate()

    def test_tampered_results_fail_verification(self):
        original = _build_deployment(307, 2, "serial")
        with original:
            snap = original.checkpoint()
        assert snap["results"], "workload produced no results to tamper with"
        snap["results"][0][1] = [987654]  # forge one query's RNN set
        with pytest.raises(CheckpointError, match="diverge"):
            ShardedCRNNMonitor.from_checkpoint(snap, shards=2)
        # verify=False skips the cross-check (operator override).
        restored = ShardedCRNNMonitor.from_checkpoint(snap, shards=2, verify=False)
        restored.close()

    def test_restore_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            ShardedCRNNMonitor.from_checkpoint({"format": "not-a-checkpoint"})
        with pytest.raises(CheckpointError):
            ShardedCRNNMonitor.from_checkpoint(
                {"format": "crnn-checkpoint", "version": 999}
            )
