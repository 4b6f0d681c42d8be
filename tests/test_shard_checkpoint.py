"""Checkpoint/restore of the sharded facade.

The coordinator checkpoint records *ground truth* — positions, query
registrations, results, aggregated counters — in the same format as the
single monitor's, so one snapshot restores under any shard count, any
executor, or even a plain :class:`CRNNMonitor`.  The contract: every
monitor rebuilt from the same snapshot continues with the uninterrupted
original's events and results (the harness's ``restored`` schedule).
"""

from __future__ import annotations

import random

import pytest

from repro.robustness.checkpoint import CheckpointError, from_json, to_json
from repro.shard import ShardedCRNNMonitor

from .test_exactness import check, churn_batches, golden, restored, sharded, single
from .test_shard_parity import _config


def _build_deployment(seed: int, shards: int, executor: str):
    deployment = ShardedCRNNMonitor(_config(), shards=shards, executor=executor)
    for batch in churn_batches(random.Random(seed), timestamps=8):
        deployment.process(batch)
    deployment.drain_events()
    return deployment


class TestSaveRestoreParity:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_restore_continues_in_event_lockstep(self, executor):
        # Save under K=2, restore under K=4, under the *other* executor
        # and as a single monitor.  The canonical rebuilds are counter
        # twins of each other: equal logical-counter deltas from the
        # restore on.
        other = "process" if executor == "serial" else "serial"
        stream, deltas = golden(29), []

        def delta(t, driver):
            if t == len(stream.batches) - 1:
                deltas.append({k: v - driver.base[k] for k, v in driver.logical().items()})

        for target in (restored(4), restored(2, other), restored()):
            check("lu+pi", stream, sharded(2, executor), at=6, then=target, probe=delta)
        assert len(deltas) == 3 and deltas[0] == deltas[1] == deltas[2], deltas

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
        # Cross-direction: a plain CRNNMonitor's snapshot boots a sharded
        # deployment (shared FORMAT).
        check("lu+pi", golden(29), single, at=6, then=restored(4))

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
