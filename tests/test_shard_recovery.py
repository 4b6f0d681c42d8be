"""Worker supervision and crash recovery (the PR-6 tentpole contract).

Layered from the inside out: the exact checkpoint/rehydration primitives
must continue **bit-identically** (same events, same full counter
state); worker failures must surface as typed
:class:`ShardWorkerError`\\ s carrying shard/op/kind; the supervisor must
recover crashes, hangs, and protocol violations invisibly — the
supervised monitor staying in lockstep with a single monitor while its
workers are killed under it — and must honor the respawn budget by
either raising or degrading to in-process execution (with the
``crnn_shard_degraded`` gauge visible on ``/metrics``).  Plus the
satellite guarantee: no worker process ever leaks, even when spawning
itself dies halfway through.
"""

from __future__ import annotations

import multiprocessing
import random
import time

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import CRNNMonitor
from repro.geometry.point import Point
from repro.obs.config import ObsConfig
from repro.robustness.checkpoint import (
    CheckpointError,
    restore_exact,
    snapshot_exact,
)
from repro.shard import (
    ChaosSpec,
    ShardedCRNNMonitor,
    ShardWorkerError,
    SupervisionConfig,
)
from repro.shard.engine import ShardEngine, dispatch_op
from repro.shard.journal import MUTATING_OPS, TickJournal, engine_snapshot, rehydrate_engine
from repro.shard.plan import StripePlan

from .conftest import TEST_BOUNDS
from .test_robustness_fuzz import _random_batches
from .test_shard_parity import (
    _assert_lockstep,
    _assert_logical_counters,
    _config,
)


def _live_shard_workers() -> list:
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("crnn-shard-")
    ]


def _supervised_pair(
    shards: int = 2,
    supervision: SupervisionConfig | None = None,
    chaos: ChaosSpec | None = None,
    **cfg_kwargs,
):
    cfg = _config(**cfg_kwargs)
    mono = CRNNMonitor(cfg)
    sharded = ShardedCRNNMonitor(
        cfg, shards=shards, executor="process",
        supervision=supervision, chaos=chaos,
    )
    return mono, sharded


def _drive_lockstep(mono, sharded, seed: int, timestamps: int, context: str):
    for t, batch in enumerate(
        _random_batches(random.Random(seed), timestamps=timestamps)
    ):
        assert mono.process(batch) == sharded.process(batch), f"{context} t={t}"
    _assert_lockstep(mono, sharded, context)
    _assert_logical_counters(mono, sharded, context)
    mono.validate()
    sharded.validate()


# ----------------------------------------------------------------------
# Exact checkpoint / rehydration primitives
# ----------------------------------------------------------------------
class TestExactCheckpoint:
    def _run_stream(self, monitor, rng, ticks):
        """Drive ``ticks`` random batches, returning (events, snapshots)."""
        out = []
        for batch in _random_batches(rng, timestamps=ticks):
            out.append(monitor.process(batch))
        return out

    def test_restore_exact_continues_bit_identically(self):
        # The core recovery claim at monitor granularity: checkpoint at
        # tick T, restore, and the twin monitors agree on every event
        # *and every counter* (lazy circ certificates included) from
        # T+1 on.
        cfg = _config()
        original = CRNNMonitor(cfg)
        self._run_stream(original, random.Random(101), 10)
        snap = snapshot_exact(original)
        restored = restore_exact(snap, verify=True)
        assert restored.stats.snapshot() == original.stats.snapshot(), (
            "restored counters must equal the checkpointed monitor's"
        )
        rng_a, rng_b = random.Random(202), random.Random(202)
        for t in range(8):
            batch_a = next(iter(_random_batches(rng_a, timestamps=1)))
            batch_b = next(iter(_random_batches(rng_b, timestamps=1)))
            assert original.process(batch_a) == restored.process(batch_b), f"t={t}"
            assert original.stats.snapshot() == restored.stats.snapshot(), f"t={t}"
        original.validate()
        restored.validate()

    def test_plain_restore_is_not_exact(self):
        # Contrast pin: the canonical rebuild's certificates are fresh,
        # so the *lazy* counters can legitimately differ — which is
        # exactly why exact mode exists.
        cfg = _config()
        original = CRNNMonitor(cfg)
        self._run_stream(original, random.Random(103), 10)
        snap = snapshot_exact(original)
        assert snap["exact"]["circ"], "stream never built a circ record"

    def test_restore_exact_rejects_missing_section(self):
        from repro.robustness.checkpoint import snapshot

        original = CRNNMonitor(_config())
        self._run_stream(original, random.Random(5), 3)
        with pytest.raises(CheckpointError, match="exact"):
            restore_exact(snapshot(original))

    def test_restore_exact_rejects_corrupt_certificate(self):
        original = CRNNMonitor(_config())
        self._run_stream(original, random.Random(7), 8)
        snap = snapshot_exact(original)
        # Corrupt an *RNN* record's candidate: RNN membership is ground
        # truth (cross-checked against the recorded results), so the
        # restore must fail loudly.
        idx = next(i for i, row in enumerate(snap["exact"]["circ"])
                   if row[4] is None)
        snap["exact"]["circ"][idx][2] += 100000
        with pytest.raises(CheckpointError, match="exact records"):
            restore_exact(snap)

    def test_engine_rehydration_matches_never_crashed_engine(self):
        # Shard granularity: two engines consume the same op stream; one
        # is checkpointed, discarded, and rehydrated mid-stream.  Tagged
        # events and full counters must stay identical through the end.
        cfg = _config(grid_cells=12)
        plan = StripePlan(TEST_BOUNDS, cfg.grid_cells, 2)
        witness = ShardEngine(cfg, plan, 0)
        subject = ShardEngine(cfg, plan, 0)
        rng = random.Random(11)
        ops: list[tuple] = []
        for qid in (400, 401, 402):
            ops.append(("add_query", qid,
                        Point(rng.uniform(0, 400), rng.uniform(0, 1000)),
                        frozenset(), 0))
        for batch in _random_batches(rng, timestamps=6):
            sanitized = [u for u in batch if getattr(u, "pos", None) is not None]
            ops.append(("tick", [u for u in sanitized if hasattr(u, "oid")]))
        for t, op in enumerate(ops):
            a = dispatch_op(witness, op[0], op[1:])
            b = dispatch_op(subject, op[0], op[1:])
            if op[0] == "tick":
                a, b = a[:4], b[:4]  # 5th element is wall-time, never equal
            assert a == b, f"pre-crash op {t} ({op[0]})"
        # Both engines serve the checkpoint op (the supervisor
        # checkpoints live workers on a cadence); only the subject is
        # then discarded and rehydrated from it.
        engine_snapshot(witness)
        snap = engine_snapshot(subject)
        subject = rehydrate_engine(cfg, plan, 0, snap)
        for batch in _random_batches(rng, timestamps=6):
            moves = [u for u in batch
                     if hasattr(u, "oid") and getattr(u, "pos", None) is not None]
            a = dispatch_op(witness, "tick", (moves,))[:4]
            b = dispatch_op(subject, "tick", (moves,))[:4]
            assert a == b, "post-rehydration tick diverged"
        assert (dispatch_op(witness, "stats", ())
                == dispatch_op(subject, "stats", ()))

    def test_rehydrate_rejects_foreign_shard(self):
        cfg = _config()
        plan = StripePlan(TEST_BOUNDS, cfg.grid_cells, 2)
        engine = ShardEngine(cfg, plan, 0)
        snap = engine_snapshot(engine)
        with pytest.raises(CheckpointError, match="shard"):
            rehydrate_engine(cfg, plan, 1, snap)

    def test_journal_bookkeeping(self):
        journal = TickJournal()
        assert len(journal) == 0
        journal.append(("tick", []))
        journal.append(("scalar", "insert", 1, Point(1.0, 1.0)))
        assert len(journal) == 2 and journal.appended_total == 2
        journal.clear()
        assert len(journal) == 0 and journal.appended_total == 2
        assert journal.truncations == 1
        assert "tick" in MUTATING_OPS and "results" not in MUTATING_OPS


# ----------------------------------------------------------------------
# Typed failure surfacing (fail-fast = a zero respawn budget)
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_worker_kill_raises_typed_crash(self):
        chaos = ChaosSpec(seed=1, kill_every=1, kill_points=("mid_tick",))
        mono, sharded = _supervised_pair(
            shards=2, supervision=SupervisionConfig(max_respawn_attempts=0), chaos=chaos
        )
        with sharded:
            sharded.add_object(1, Point(100.0, 100.0))
            with pytest.raises(ShardWorkerError) as exc_info:
                sharded.process([_move(1, 500.0, 500.0)])
            err = exc_info.value
            assert isinstance(err, RuntimeError)  # PR-4 compatibility
            assert err.kind == "crash"
            assert err.op == "tick"
            assert err.shard in (0, 1)
        del mono

    def test_worker_app_error_is_fault_not_crash(self):
        # An unknown op makes dispatch_op raise inside the worker: a
        # deterministic bug, reported as kind="fault" — and never
        # recovered although there is budget (replay would just repeat it).
        _, sharded = _supervised_pair(shards=2)
        with sharded:
            with pytest.raises(ShardWorkerError) as exc_info:
                sharded.executor._call(0, "no_such_op")
            assert exc_info.value.kind == "fault"
            assert exc_info.value.shard == 0
            assert "no_such_op" in exc_info.value.detail
            assert sharded.supervision_report()["restarts_total"] == 0

    def test_close_after_worker_death_is_clean(self):
        chaos = ChaosSpec(seed=2, kill_every=1, kill_points=("post_reply",))
        _, sharded = _supervised_pair(shards=2, chaos=chaos)
        sharded.add_object(1, Point(10.0, 10.0))
        # post_reply killed the workers after this tick's replies.
        sharded.process([_move(1, 20.0, 20.0)])
        sharded.close()
        sharded.close()
        assert _live_shard_workers() == []


# ----------------------------------------------------------------------
# Worker-leak guarantees (satellite a)
# ----------------------------------------------------------------------
class TestNoWorkerLeak:
    def test_spawn_failure_mid_init_reaps_earlier_workers(self, monkeypatch):
        import repro.shard.executor as executor_mod

        real_spawn = executor_mod._spawn_worker

        def flaky_spawn(ctx, cfg, plan_args, shard, chaos, incarnation):
            if shard == 2:
                raise RuntimeError("simulated spawn failure")
            return real_spawn(ctx, cfg, plan_args, shard, chaos, incarnation)

        monkeypatch.setattr(executor_mod, "_spawn_worker", flaky_spawn)
        with pytest.raises(RuntimeError, match="simulated spawn failure"):
            ShardedCRNNMonitor(_config(), shards=4, executor="process")
        deadline = time.monotonic() + 10.0
        while _live_shard_workers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_shard_workers() == [], (
            "workers spawned before the failure must be reaped"
        )

    def test_unreferenced_executor_reaps_on_gc(self):
        import gc

        sharded = ShardedCRNNMonitor(_config(), shards=2, executor="process")
        sharded.add_object(1, Point(5.0, 5.0))
        assert len(_live_shard_workers()) == 2
        del sharded
        gc.collect()
        deadline = time.monotonic() + 10.0
        while _live_shard_workers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_shard_workers() == [], (
            "the finalize guard must reap workers when the owner is GC'd"
        )


# ----------------------------------------------------------------------
# Recovery paths (supervision enabled)
# ----------------------------------------------------------------------
def _move(oid: int, x: float, y: float):
    from repro.core.events import ObjectUpdate

    return ObjectUpdate(oid, Point(x, y))


class TestRecovery:
    def test_hung_worker_recovers_within_deadline(self):
        # Chaos holds every 3rd tick reply for 2s against a 0.3s op
        # deadline: the supervisor must declare the hang, SIGKILL, and
        # rebuild — with the stream staying in lockstep throughout.
        supervision = SupervisionConfig(
            op_deadline=0.3, checkpoint_interval=50, backoff_base=0.01
        )
        chaos = ChaosSpec(seed=3, delay_every=3, delay_seconds=2.0)
        mono, sharded = _supervised_pair(
            shards=2, supervision=supervision, chaos=chaos
        )
        with sharded:
            _drive_lockstep(mono, sharded, seed=31, timestamps=8, context="hang")
            report = sharded.supervision_report()
            assert report["restarts_total"] > 0, "no hang was ever injected"
            # Detection is deadline-bounded; a few rebuild-and-replay
            # rounds later the shard must be live again.
            assert all(s < 30.0 for s in report["recovery_seconds"])

    def test_malformed_reply_recovers_as_protocol_violation(self):
        supervision = SupervisionConfig(
            op_deadline=10.0, checkpoint_interval=50, backoff_base=0.01
        )
        chaos = ChaosSpec(seed=4, malform_every=4)
        mono, sharded = _supervised_pair(
            shards=2, supervision=supervision, chaos=chaos
        )
        with sharded:
            _drive_lockstep(mono, sharded, seed=41, timestamps=10, context="malform")
            assert sharded.supervision_report()["restarts_total"] > 0

    def test_query_op_crash_recovers(self):
        # Kills on owner-side query ops (not ticks): the failed request
        # is the journal tail, so its replayed reply must be captured
        # and returned as if nothing happened.
        supervision = SupervisionConfig(
            op_deadline=10.0, checkpoint_interval=50, backoff_base=0.01
        )
        chaos = ChaosSpec(
            seed=5, kill_every=3, ops=("add_query", "update_query", "tick")
        )
        mono, sharded = _supervised_pair(
            shards=2, supervision=supervision, chaos=chaos
        )
        with sharded:
            _drive_lockstep(mono, sharded, seed=51, timestamps=10, context="query-op")
            assert sharded.supervision_report()["restarts_total"] > 0

    def test_budget_exhaustion_raises_by_default(self):
        supervision = SupervisionConfig(
            op_deadline=10.0, max_restarts=0, on_shard_failure="raise"
        )
        chaos = ChaosSpec(seed=6, kill_every=1, kill_points=("mid_tick",))
        _, sharded = _supervised_pair(
            shards=2, supervision=supervision, chaos=chaos
        )
        with sharded:
            sharded.add_object(1, Point(100.0, 100.0))
            with pytest.raises(ShardWorkerError) as exc_info:
                sharded.process([_move(1, 900.0, 900.0)])
            assert exc_info.value.kind == "crash"

    def test_budget_exhaustion_degrades_and_stays_exact(self):
        # One lifetime restart per shard, then permanent kills: every
        # stripe must fall back to in-process execution — and the
        # answers must not change.  The degradation is observable on
        # /metrics and in summary().
        cfg = _config(observability=ObsConfig(trace_sink="null"))
        mono = CRNNMonitor(_config())
        supervision = SupervisionConfig(
            op_deadline=10.0, max_restarts=1, backoff_base=0.01,
            checkpoint_interval=20, on_shard_failure="degrade",
        )
        chaos = ChaosSpec(seed=7, kill_every=2)
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor="process",
            supervision=supervision, chaos=chaos,
        )
        with sharded:
            _drive_lockstep(mono, sharded, seed=71, timestamps=12, context="degrade")
            report = sharded.supervision_report()
            assert report["degraded_shards"] == {0, 1}
            assert report["restarts_total"] == 2  # one lifetime budget each
            summary = sharded.summary()
            assert summary["shards_degraded"] == 2.0
            assert summary["shard_restarts"] == 2.0
            exposition = sharded.obs.render_prometheus()
            assert 'crnn_shard_degraded{shard="0"} 1' in exposition
            assert 'crnn_shard_degraded{shard="1"} 1' in exposition
            assert "crnn_shard_restarts_total" in exposition

    def test_recovery_metrics_exported(self):
        cfg = _config(observability=ObsConfig(trace_sink="null"))
        supervision = SupervisionConfig(
            op_deadline=10.0, checkpoint_interval=50, backoff_base=0.01
        )
        chaos = ChaosSpec(seed=8, kill_every=3)
        sharded = ShardedCRNNMonitor(
            cfg, shards=2, executor="process",
            supervision=supervision, chaos=chaos,
        )
        mono = CRNNMonitor(_config(observability=ObsConfig(trace_sink="null")))
        with sharded:
            _drive_lockstep(mono, sharded, seed=81, timestamps=9, context="metrics")
            exposition = sharded.obs.render_prometheus()
            assert "crnn_shard_restarts_total" in exposition
            assert "crnn_shard_recovery_seconds" in exposition
            # Healthy shards show an explicit 0 (pre-seeded gauge).
            assert 'crnn_shard_degraded{shard="0"} 0' in exposition

    def test_supervision_none_means_defaults(self):
        # The defaults: recovery base taken at start, requests journaled.
        mono, sharded = _supervised_pair(shards=2)
        with sharded:
            supervisor = sharded.executor.supervisor
            assert supervisor.config == SupervisionConfig()
            assert sorted(supervisor.checkpoints) == [0, 1]
            _drive_lockstep(mono, sharded, seed=91, timestamps=6, context="plain")
            report = sharded.supervision_report()
            assert report["restarts_total"] == 0 and min(report["journal_depths"]) > 0

    def test_serial_executor_rejects_supervision(self):
        with pytest.raises(ValueError, match="process executor only"):
            ShardedCRNNMonitor(
                _config(), shards=2, executor="serial",
                supervision=SupervisionConfig(),
            )
        with pytest.raises(ValueError, match="process executor only"):
            ShardedCRNNMonitor(
                _config(), shards=2, executor="serial", chaos=ChaosSpec(seed=1)
            )

    def test_supervision_config_validation(self):
        with pytest.raises(ValueError, match="on_shard_failure"):
            SupervisionConfig(on_shard_failure="retry-forever")
        with pytest.raises(ValueError, match="max_respawn_attempts"):
            SupervisionConfig(max_respawn_attempts=-1)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            SupervisionConfig(checkpoint_interval=0)
        with pytest.raises(ValueError, match="kill point"):
            ChaosSpec(kill_points=("before_breakfast",))
