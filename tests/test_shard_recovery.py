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

from repro.core.events import ObjectUpdate
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
from repro.shard.engine import (
    JOURNALED_OPS,
    LIFECYCLE_OPS,
    OPS,
    ShardEngine,
    dispatch_op,
)
from repro.shard.executor import ProcessExecutor
from repro.shard.journal import TickJournal, engine_snapshot, rehydrate_engine
from repro.shard.plan import StripePlan

from .conftest import TEST_BOUNDS
from .test_exactness import check, churn_batches, golden, restored_exactly, sharded, single
from .test_shard_parity import _config


def _live_shard_workers() -> list:
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("crnn-shard-")
    ]


def _supervised(shards: int = 2, supervision=None, chaos=None, **cfg_kwargs):
    return ShardedCRNNMonitor(
        _config(**cfg_kwargs), shards=shards, executor="process",
        supervision=supervision, chaos=chaos,
    )


# ----------------------------------------------------------------------
# Exact checkpoint / rehydration primitives
# ----------------------------------------------------------------------
class TestExactCheckpoint:
    @staticmethod
    def _ran(seed: int, ticks: int) -> CRNNMonitor:
        monitor = CRNNMonitor(_config())
        for batch in churn_batches(random.Random(seed), timestamps=ticks):
            monitor.process(batch)
        return monitor

    def test_restore_exact_continues_bit_identically(self):
        # The core recovery claim at monitor granularity: checkpoint at
        # tick T, restore, and the twin agrees on every event and every
        # counter (lazy circ certificates included) from T on with the
        # original, which runs on uninterrupted.
        stream, originals = golden(29), []

        def then(driver):
            originals.append(driver.monitor)
            rebuilt = restored_exactly(driver)
            assert rebuilt.monitor.stats.snapshot() == driver.monitor.stats.snapshot(), (
                "restored counters must equal the checkpointed monitor's"
            )
            return rebuilt

        def same_counters(t, driver):
            for original in originals:
                original.process(stream.batches[t])
                assert original.stats.snapshot() == driver.monitor.stats.snapshot(), f"t={t}"

        check("lu+pi", stream, single, at=6, then=then, probe=same_counters)
        assert originals

    def test_plain_restore_is_not_exact(self):
        # Contrast pin: the canonical rebuild's certificates are fresh,
        # so the *lazy* counters can legitimately differ — which is
        # exactly why exact mode exists.
        snap = snapshot_exact(self._ran(103, 10))
        assert snap["exact"]["circ"], "stream never built a circ record"

    def test_restore_exact_rejects_missing_section(self):
        from repro.robustness.checkpoint import snapshot

        with pytest.raises(CheckpointError, match="exact"):
            restore_exact(snapshot(self._ran(5, 3)))

    def test_restore_exact_rejects_corrupt_certificate(self):
        snap = snapshot_exact(self._ran(7, 8))
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
        for batch in churn_batches(rng, timestamps=6):
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
        for batch in churn_batches(rng, timestamps=6):
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
        assert "tick" in JOURNALED_OPS and "results" not in JOURNALED_OPS


# ----------------------------------------------------------------------
# Typed failure surfacing (fail-fast = a zero respawn budget)
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_worker_kill_raises_typed_crash(self):
        chaos = ChaosSpec(seed=1, kill_every=1, kill_points=("mid_tick",))
        sharded = _supervised(
            shards=2, supervision=SupervisionConfig(max_respawn_attempts=0), chaos=chaos
        )
        with sharded:
            sharded.add_object(1, Point(100.0, 100.0))
            with pytest.raises(ShardWorkerError) as exc_info:
                sharded.process([ObjectUpdate(1, Point(500.0, 500.0))])
            err = exc_info.value
            assert isinstance(err, RuntimeError)  # PR-4 compatibility
            assert err.kind == "crash"
            assert err.op == "tick"
            assert err.shard in (0, 1)

    def test_worker_app_error_is_fault_not_crash(self):
        # An unknown op makes dispatch_op raise inside the worker: a
        # deterministic bug, reported as kind="fault" — and never
        # recovered although there is budget (replay would just repeat it).
        with _supervised(shards=2) as sharded:
            with pytest.raises(ShardWorkerError) as exc_info:
                sharded.executor._call(0, "no_such_op")
            assert exc_info.value.kind == "fault"
            assert exc_info.value.shard == 0
            assert "no_such_op" in exc_info.value.detail
            assert sharded.supervision_report()["restarts_total"] == 0

    def test_close_after_worker_death_is_clean(self):
        chaos = ChaosSpec(seed=2, kill_every=1, kill_points=("post_reply",))
        sharded = _supervised(shards=2, chaos=chaos)
        sharded.add_object(1, Point(10.0, 10.0))
        # post_reply killed the workers after this tick's replies.
        sharded.process([ObjectUpdate(1, Point(20.0, 20.0))])
        sharded.close()
        sharded.close()
        assert _live_shard_workers() == []


# ----------------------------------------------------------------------
# The op table at run time: deadline classes and lifecycle handling
# ----------------------------------------------------------------------
class _RecordingConn:
    """A worker pipe that answers every request at once and records the
    timeout of each ``poll``."""

    def __init__(self):
        self.polls: list[float] = []

    def send(self, request):
        pass

    def poll(self, timeout):
        self.polls.append(timeout)
        return True

    def recv(self):
        return ("ok", None, None)


class _LiveProc:
    def is_alive(self):
        return True


class TestOpTable:
    def test_snapshot_ops_get_four_deadlines_every_other_op_one(self):
        from repro.shard.supervisor import ShardSupervisor, _WorkerChannel

        supervisor = ShardSupervisor(
            shards=1, spawn=None, local_factory=None,
            config=SupervisionConfig(op_deadline=0.5),
        )
        conn = _RecordingConn()
        supervisor.channels[0] = _WorkerChannel(_LiveProc(), conn, 0)
        ops = ("restore", "checkpoint", "tick", "update_query", "results")
        for op in ops:
            supervisor.request(0, (None, op))
        assert conn.polls == [2.0, 2.0, 0.5, 0.5, 0.5]

    def test_worker_serves_every_lifecycle_op(self):
        # Every lifecycle op answers "ok" from a real worker; an op in
        # neither the op table nor the lifecycle set answers "err".
        cfg = _config()
        executor = ProcessExecutor(cfg, StripePlan(TEST_BOUNDS, cfg.grid_cells, 1))
        conn = executor.supervisor.channels[0].conn

        def ask(op, *args):
            conn.send((None, op, *args))
            assert conn.poll(30.0), f"no reply to {op!r}"
            return conn.recv()

        try:
            stray = "no_such_op"
            assert stray not in OPS and stray not in LIFECYCLE_OPS
            assert ask(stray)[0] == "err"
            snap = None
            # arm, checkpoint, restore (from that checkpoint), then close.
            for op in [*sorted(LIFECYCLE_OPS - {"close"}), "close"]:
                status, payload, _ = ask(op, *((snap,) if op == "restore" else ()))
                assert status == "ok", f"{op}: {payload}"
                if op == "checkpoint":
                    snap = payload
        finally:
            executor.close()
        assert _live_shard_workers() == []

    def test_local_shard_ignores_lifecycle_ops_and_dispatches_the_rest(
        self, monkeypatch
    ):
        import repro.shard.supervisor as supervisor_mod

        seen: list[tuple] = []
        monkeypatch.setattr(
            supervisor_mod, "dispatch_op",
            lambda engine, op, args: seen.append((op, args)) or op,
        )
        local = supervisor_mod._LocalShard(engine=None)
        for op in sorted(LIFECYCLE_OPS):
            assert local.request((None, op, "arg")) is None
        assert seen == []
        for op in [*OPS, "no_such_op"]:
            assert local.request((None, op, "arg")) == op
        assert seen == [(op, ("arg",)) for op in [*OPS, "no_such_op"]]


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
class TestRecovery:
    @staticmethod
    def _recovers(seed: int, ticks: int, supervision, chaos, cfg=None, **checks) -> dict:
        """The supervised stream through the harness; returns the last
        tick's supervision report (and ``checks``' reads of the monitor)."""
        seen: dict = {}
        reads = dict(report=lambda m: m.supervision_report(), **checks)
        check("lu+pi", golden(seed, ticks), sharded(
            2, "process", supervision=supervision, chaos=chaos, observability=cfg,
        ), probe=lambda t, driver: seen.update(
            {name: read(driver.monitor) for name, read in reads.items()}
        ))
        return seen

    def test_hung_worker_recovers_within_deadline(self):
        # Chaos holds every 3rd tick reply for 2s against a 0.3s op
        # deadline: the supervisor must declare the hang, SIGKILL, and
        # rebuild — with the stream staying exact throughout.
        report = self._recovers(
            31, 8,
            SupervisionConfig(op_deadline=0.3, checkpoint_interval=50, backoff_base=0.01),
            ChaosSpec(seed=3, delay_every=3, delay_seconds=2.0),
        )["report"]
        assert report["restarts_total"] > 0, "no hang was ever injected"
        # Detection is deadline-bounded; a few rebuild-and-replay rounds
        # later the shard must be live again.
        assert all(s < 30.0 for s in report["recovery_seconds"])

    def test_malformed_reply_recovers_as_protocol_violation(self):
        supervision = SupervisionConfig(
            op_deadline=10.0, checkpoint_interval=50, backoff_base=0.01
        )
        report = self._recovers(41, 10, supervision, ChaosSpec(seed=4, malform_every=4))
        assert report["report"]["restarts_total"] > 0

    def test_query_op_crash_recovers(self):
        # Kills on owner-side query ops (not ticks): the failed request
        # is the journal tail, so its replayed reply must be captured
        # and returned as if nothing happened.
        supervision = SupervisionConfig(
            op_deadline=10.0, checkpoint_interval=50, backoff_base=0.01
        )
        chaos = ChaosSpec(seed=5, kill_every=3, ops=("add_query", "update_query", "tick"))
        assert self._recovers(51, 10, supervision, chaos)["report"]["restarts_total"] > 0

    def test_budget_exhaustion_raises_by_default(self):
        supervision = SupervisionConfig(
            op_deadline=10.0, max_restarts=0, on_shard_failure="raise"
        )
        chaos = ChaosSpec(seed=6, kill_every=1, kill_points=("mid_tick",))
        with _supervised(shards=2, supervision=supervision, chaos=chaos) as sharded:
            sharded.add_object(1, Point(100.0, 100.0))
            with pytest.raises(ShardWorkerError) as exc_info:
                sharded.process([ObjectUpdate(1, Point(900.0, 900.0))])
            assert exc_info.value.kind == "crash"

    def test_budget_exhaustion_degrades_and_stays_exact(self):
        # One lifetime restart per shard, then permanent kills: every
        # stripe must fall back to in-process execution — and the
        # answers must not change.  The degradation is observable on
        # /metrics and in summary().
        supervision = SupervisionConfig(
            op_deadline=10.0, max_restarts=1, backoff_base=0.01,
            checkpoint_interval=20, on_shard_failure="degrade",
        )
        seen = self._recovers(
            71, 12, supervision, ChaosSpec(seed=7, kill_every=2),
            ObsConfig(trace_sink="null"),
            summary=lambda m: m.summary(), exposition=lambda m: m.obs.render_prometheus(),
        )
        assert seen["report"]["degraded_shards"] == {0, 1}
        assert seen["report"]["restarts_total"] == 2  # one lifetime budget each
        assert seen["summary"]["shards_degraded"] == 2.0
        assert seen["summary"]["shard_restarts"] == 2.0
        assert 'crnn_shard_degraded{shard="0"} 1' in seen["exposition"]
        assert 'crnn_shard_degraded{shard="1"} 1' in seen["exposition"]
        assert "crnn_shard_restarts_total" in seen["exposition"]

    def test_recovery_metrics_exported(self):
        supervision = SupervisionConfig(
            op_deadline=10.0, checkpoint_interval=50, backoff_base=0.01
        )
        exposition = self._recovers(
            81, 9, supervision, ChaosSpec(seed=8, kill_every=3), ObsConfig(trace_sink="null"),
            exposition=lambda m: m.obs.render_prometheus(),
        )["exposition"]
        assert "crnn_shard_restarts_total" in exposition
        assert "crnn_shard_recovery_seconds" in exposition
        # Healthy shards show an explicit 0 (pre-seeded gauge).
        assert 'crnn_shard_degraded{shard="0"} 0' in exposition

    def test_supervision_none_means_defaults(self):
        # The defaults: recovery base taken at start, requests journaled.
        with _supervised(shards=2) as monitor:
            supervisor = monitor.executor.supervisor
            assert supervisor.config == SupervisionConfig()
            assert sorted(supervisor.checkpoints) == [0, 1]
        report = self._recovers(91, 6, None, None)["report"]
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
