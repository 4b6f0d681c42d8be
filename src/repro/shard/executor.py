"""Shard executors: one shard protocol, run in-process or in a worker pool.

Both executors drive K :class:`~repro.shard.engine.ShardEngine`\\ s, each
owning a **private full grid replica**, with the ops of
:data:`~repro.shard.engine.OPS`: the sanitized batch is broadcast to
every shard (scatter), query ops go to the owner, and tagged event
streams come back (gather).  The coordinator-facing API (tick the
object phases, run one query op on an owner shard, introspect) is
written once, in :class:`ShardExecutor`, over two transport methods.
:class:`SerialExecutor` calls ``dispatch_op`` in-process —
deterministic, debuggable, zero IPC — and :class:`ProcessExecutor`
sends the same requests to one worker process per shard.  Same
requests, same engine code: the two produce identical event streams
and counters, and the differential tests lock that down.

Every process-executor exchange flows through a
:class:`~repro.shard.supervisor.ShardSupervisor`: worker failures
surface as typed :class:`~repro.shard.supervisor.ShardWorkerError`\\ s,
and dead, hung, or protocol-violating workers are respawned and
rebuilt bit-identically from exact checkpoints plus the tick journal
(DESIGN §10), invisibly to the coordinator, within the budget of the
:class:`~repro.shard.supervisor.SupervisionConfig`.  Worker teardown is
guaranteed by a ``weakref.finalize`` guard (which also runs at
interpreter exit), so children are reaped even when ``__init__`` dies
partway through spawning or the owner forgets to call ``close()``.
"""

from __future__ import annotations

import logging
import os
import signal
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.core.config import MonitorConfig
from repro.core.stats import StatCounters
from repro.geometry.point import Point
from repro.obs.config import SINK_MEMORY, ObsConfig
from repro.obs.dist import TraceContext, WorkerObs, current_context
from repro.obs.logutil import RateLimitedLogger
from repro.shard.engine import LIFECYCLE_OPS, ShardEngine, TaggedEvent, dispatch_op
from repro.shard.plan import StripePlan
from repro.shard.supervisor import (
    ShardSupervisor,
    ShardWorkerError,
    SupervisionConfig,
    SupervisorHooks,
)

_log = RateLimitedLogger(logging.getLogger("repro.shard.executor"), burst=1)

__all__ = [
    "ShardExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "TickReport",
    "ShardWorkerError",
]


@dataclass
class TickReport:
    """What one tick's object phases produced, executor-agnostic."""

    #: Tagged result-change events from every shard (unmerged).
    tagged: list[TaggedEvent] = field(default_factory=list)
    #: Object moves the batch applied to the position plane.
    n_moves: int = 0
    #: Moves with a surviving position — the single-monitor
    #: containment-query count the coordinator aggregates with.
    n_circ_moves: int = 0
    #: shard -> boundary-crossing moves entering its halo this tick.
    halo: dict[int, int] = field(default_factory=dict)
    #: Per-shard compute wall-time of this tick (seconds, shard order);
    #: its max/mean is the ``crnn_shard_imbalance_ratio`` gauge.
    shard_seconds: list[float] = field(default_factory=list)


class ShardExecutor:
    """The coordinator-facing executor API, written once.

    Every method is one :func:`~repro.shard.engine.dispatch_op` request
    carried by the subclass's transport: ``_call(shard, op, *args)``
    runs it on one shard and returns the payload, ``_broadcast(op,
    *args)`` on every shard, payloads in shard order.  Object updates
    are broadcast and checked for replica agreement; query ops go to
    the owner shard only.
    """

    plan: StripePlan

    def _call(self, shard: int, op: str, *args) -> Any:
        raise NotImplementedError

    def _broadcast(self, op: str, *args) -> list[Any]:
        raise NotImplementedError

    def _mutated(self) -> None:
        """Hook run after each mutating public op (no-op by default)."""

    # -- object phases --------------------------------------------------
    def tick(self, sanitized: list) -> TickReport:
        """Broadcast one sanitized batch; merge replies, assert replica agreement."""
        report = TickReport()
        replies = self._broadcast("tick", sanitized)
        n_moves = {r[1] for r in replies}
        n_circ = {r[2] for r in replies}
        assert len(n_moves) == 1 and len(n_circ) == 1, (
            "shard replicas diverged on the applied move list"
        )
        report.n_moves = n_moves.pop()
        report.n_circ_moves = n_circ.pop()
        for reply in replies:
            report.tagged.extend(reply[0])
        if replies[0][3] is not None:
            report.halo = replies[0][3]
        report.shard_seconds = [r[4] for r in replies]
        self._mutated()
        return report

    # -- scalar object ops ----------------------------------------------
    def scalar(
        self, kind: str, oid: int, new_pos: Optional[Point]
    ) -> tuple[bool, list[TaggedEvent]]:
        """Broadcast one insert/move/delete primitive to every shard."""
        replies = self._broadcast("scalar", kind, oid, new_pos)
        applied = {r[0] for r in replies}
        assert len(applied) == 1, "shard replicas diverged on a scalar update"
        tagged: list[TaggedEvent] = []
        for reply in replies:
            tagged.extend(reply[1])
        self._mutated()
        return applied.pop(), tagged

    # -- query ops (owner-side) ------------------------------------------
    def add_query(
        self, shard: int, qid: int, pos: Point, exclude: frozenset[int], seq: int = 0
    ) -> tuple[frozenset[int], list[TaggedEvent]]:
        """Register ``qid`` on shard ``shard``; returns (result, tagged events)."""
        reply = self._call(shard, "add_query", qid, pos, exclude, seq)
        self._mutated()
        return reply

    def remove_query(
        self, shard: int, qid: int, seq: int = 0
    ) -> tuple[bool, list[TaggedEvent]]:
        """Remove ``qid`` from its owner shard; returns (removed, tagged events)."""
        reply = self._call(shard, "remove_query", qid, seq)
        self._mutated()
        return reply

    def update_query(
        self, shard: int, qid: int, pos: Point, seq: int = 0
    ) -> list[TaggedEvent]:
        """Recompute ``qid`` at ``pos`` on its owner; returns tagged events."""
        reply = self._call(shard, "update_query", qid, pos, seq)
        self._mutated()
        return reply

    def remove_query_silent(self, shard: int, qid: int) -> None:
        """Migration helper: remove ``qid`` without emitting events."""
        self._call(shard, "remove_silent", qid)

    def add_query_silent(
        self, shard: int, qid: int, pos: Point, exclude: frozenset[int]
    ) -> frozenset[int]:
        """Migration helper: re-register ``qid`` without events; returns its result."""
        return self._call(shard, "add_silent", qid, pos, exclude)

    # -- introspection ---------------------------------------------------
    def monitoring_region(self, shard: int, qid: int):
        """The owner engine's pie/circ view of ``qid``."""
        return self._call(shard, "region", qid)

    def explain(self, shard: int, qid: int):
        """Per-query diagnostics from ``qid``'s owner engine."""
        return self._call(shard, "explain", qid)

    def shard_results(self, shard: int) -> dict[int, frozenset[int]]:
        """Results of every query owned by shard ``shard``."""
        return self._call(shard, "results")

    def shard_stats(self) -> list[StatCounters]:
        """Each shard engine's counters, in shard order."""
        return self._broadcast("stats")

    def shard_queries(self, shard: int) -> list[tuple[int, Point, frozenset[int]]]:
        """``(qid, pos, exclude)`` of every query on shard ``shard``."""
        return self._call(shard, "queries")

    def object_positions(self) -> dict[int, Point]:
        """Ground-truth object positions from shard 0's replica."""
        return self._call(0, "positions")

    def validate(self) -> None:
        """Run every shard's invariants over its private replica."""
        self._broadcast("validate")

    def object_count(self) -> int:
        """Objects in shard 0's grid replica."""
        return self._call(0, "object_count")

    def supervision_report(self) -> dict:
        """Restart/degradation snapshot; nothing to supervise in-process."""
        return {
            "restarts_total": 0,
            "restarts_by_shard": {},
            "degraded_shards": set(),
            "incarnations": [0] * self.plan.shards,
            "journal_depths": [0] * self.plan.shards,
            "recovery_seconds": [],
        }


class SerialExecutor(ShardExecutor):
    """Deterministic in-process executor: the workers' protocol, no workers.

    K engines, each owning a private grid replica, driven one after the
    other through :func:`~repro.shard.engine.dispatch_op` — the code a
    worker process runs, minus the pipe.  The test and debug double of
    :class:`ProcessExecutor`; never faster than one plain monitor.
    """

    mode = "serial"

    def __init__(
        self, config: MonitorConfig, plan: StripePlan, tracer: Any = None, health: Any = None
    ):
        self.config = config
        self.plan = plan
        self.engines = [ShardEngine(config, plan, k) for k in range(plan.shards)]
        for engine in self.engines:
            if tracer is not None:
                engine.inner.grid.tracer = tracer
            if health is not None:
                # The coordinator's per-query health tracker (qids are
                # disjoint across stripes, so one shared tracker is
                # exact); its batch clock advances coordinator-side via
                # Observability.observe_batch().
                engine.inner.obs.health = health
                engine.inner.circ.health = health

    def _call(self, shard: int, op: str, *args) -> Any:
        return dispatch_op(self.engines[shard], op, args)

    def _broadcast(self, op: str, *args) -> list[Any]:
        return [dispatch_op(engine, op, args) for engine in self.engines]

    def close(self) -> None:
        """Nothing to tear down in-process."""


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    config: MonitorConfig,
    plan_args: tuple,
    shard: int,
    chaos=None,
    incarnation: int = 0,
) -> None:
    """Worker process loop: build one private-grid engine, serve RPCs.

    Runs until a ``close`` request (or EOF on the pipe).  Every request
    is ``(trace_ctx | None, op, *args)`` and every reply ``(status,
    payload, obs_delta | None)``: ``("ok", payload, delta)`` with the
    worker-side observability kit's counters/spans piggybacked as
    ``delta``, or ``("err", repr, None)`` so coordinator-side errors
    carry context.  Every op outside
    :data:`~repro.shard.engine.LIFECYCLE_OPS` goes to
    :func:`~repro.shard.engine.dispatch_op`; this loop serves the
    lifecycle ops — ``close``, ``restore`` (rebuild the engine from an
    exact checkpoint), ``arm`` (start chaos injection), ``checkpoint``
    (exact state capture) — and, when a
    :class:`~repro.shard.chaos.ChaosSpec` is supplied, the seeded fault
    injection around each request.

    When ``config.observability`` is set (the coordinator derives a
    worker-safe :class:`~repro.obs.config.ObsConfig`), the worker runs a
    :class:`~repro.obs.dist.WorkerObs`: each dispatched op executes
    under a ``worker.<op>`` span adopted into the coordinator's trace
    when a context rode the request, and the op's exact counter deltas
    (plus any recorded spans) ride back on the reply.
    """
    import time as _time

    from repro.shard.chaos import ChaosAgent
    from repro.shard.journal import engine_snapshot, rehydrate_engine

    plan = StripePlan.from_args(plan_args)
    engine = ShardEngine(config, plan, shard)
    obs_cfg = config.observability
    wobs = None
    if obs_cfg is not None:
        wobs = WorkerObs(
            shard,
            ring_capacity=obs_cfg.ring_capacity,
            diagnostics=obs_cfg.diagnostics,
        )
        wobs.wire(engine)
    agent = ChaosAgent(chaos, shard, incarnation) if chaos is not None else None
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        ctx, op, args = request[0], request[1], request[2:]
        action = agent.plan(op) if agent is not None else None
        if action is not None:
            if action.delay:
                _time.sleep(action.delay)
            if action.kill_point == "mid_tick":
                os.kill(os.getpid(), signal.SIGKILL)
        try:
            delta = None
            payload = None
            if op not in LIFECYCLE_OPS:
                if wobs is None:
                    payload = dispatch_op(engine, op, args)
                else:
                    trace_ctx = TraceContext.from_wire(ctx) if ctx is not None else None
                    with wobs.op_span(trace_ctx, op):
                        payload = dispatch_op(engine, op, args)
                        if op == "tick":
                            wobs.on_tick()
                    delta = wobs.delta(engine.inner.stats)
            elif op == "close":
                conn.send(("ok", None, None))
                break
            elif op == "restore":
                engine = rehydrate_engine(config, plan, shard, args[0])
                if wobs is not None:
                    # Rewire the kit and rebase its counter baseline on
                    # the restored values: replayed work must not be
                    # re-reported (the coordinator merged the originals).
                    wobs.wire(engine)
            elif op == "arm":
                if agent is not None:
                    agent.arm()
            elif op == "checkpoint":
                payload = engine_snapshot(engine)
                if wobs is not None:
                    # The snapshot counts itself (``checkpoints_saved``);
                    # its increment rides this reply, not the next one
                    # a kill may lose while the restore keeps it.
                    delta = wobs.delta(engine.inner.stats)
            else:
                raise ValueError(f"unhandled lifecycle op {op!r}")
            if action is not None and action.kill_point == "pre_reply":
                os.kill(os.getpid(), signal.SIGKILL)
            if action is not None and action.malform:
                conn.send("garbled reply (chaos)")
            else:
                conn.send(("ok", payload, delta))
            if action is not None and action.kill_point == "post_reply":
                os.kill(os.getpid(), signal.SIGKILL)
        except BaseException as exc:  # noqa: BLE001 - relayed to coordinator
            import traceback

            conn.send(("err", f"{exc!r}\n{traceback.format_exc()}", None))
    conn.close()


def _spawn_worker(ctx, worker_config, plan_args, shard, chaos, incarnation):
    """Start one shard worker process; returns ``(process, pipe)``.

    A module-level seam so tests can simulate spawn failures and the
    supervisor can respawn replacement incarnations through the same
    path as the initial fleet.
    """
    parent, child = ctx.Pipe()
    proc = ctx.Process(
        target=_worker_main,
        args=(child, worker_config, plan_args, shard, chaos, incarnation),
        daemon=True,
        name=f"crnn-shard-{shard}",
    )
    proc.start()
    child.close()
    return proc, parent


def _worker_obs_config(config: MonitorConfig) -> tuple[MonitorConfig, bool]:
    """Derive a shard worker's monitor config from the coordinator's.

    An enabled coordinator config yields a *worker-safe*
    :class:`ObsConfig`: the trace sink is forced to the in-memory ring
    (piggybacked on op replies — a ``jsonl``/``null`` sink cannot
    usefully cross the process boundary, and asking for one earns a
    one-time rate-limited warning), and flight recording stays
    coordinator-side.  Returns ``(worker_config, worker_obs_on)``.
    """
    obs = config.observability
    if obs is None:
        return config, False
    if obs.trace_sink != SINK_MEMORY:
        _log.warning(
            "worker-obs-sink",
            "observability trace_sink %r cannot cross the process boundary; "
            "shard workers will buffer spans in an in-memory ring and "
            "piggyback them on op replies instead",
            obs.trace_sink,
        )
    worker_obs = ObsConfig(
        sample_rate=obs.sample_rate,
        trace_sink=SINK_MEMORY,
        trace_path=None,
        ring_capacity=obs.ring_capacity,
        diagnostics=obs.diagnostics,
    )
    return replace(config, observability=worker_obs), True


def _finalize_supervisor(supervisor) -> None:
    """``weakref.finalize`` target: reap workers at GC/interpreter exit."""
    try:
        supervisor.close()
    except Exception:  # pragma: no cover  # crnnlint: disable=CRNN005 -- GC/atexit reaper must never raise
        pass


class ProcessExecutor(ShardExecutor):
    """Supervised multiprocessing executor: one worker process per shard.

    The :class:`SerialExecutor`'s requests, sent over pipes (DESIGN §9):
    a tick is one scatter to all workers, who compute concurrently, and
    one gather.  Each worker's computation depends only on its request
    stream and the tag merge is order-insensitive, so results are
    bit-identical to the serial executor's.

    Parameters
    ----------
    config, plan, tracer, mp_context:
        Monitor config, stripe plan, optional coordinator tracer (its
        current span's context rides each request), multiprocessing
        start method.
    supervision:
        The :class:`~repro.shard.supervisor.SupervisionConfig`
        (``None`` means its defaults).  Exchanges carry an op deadline,
        mutating requests are journaled, per-shard exact checkpoints are
        taken on a cadence, and worker crash/hang/protocol failures are
        recovered bit-identically (DESIGN §10) until the respawn budget
        is spent; ``SupervisionConfig(max_respawn_attempts=0)`` fails
        fast with the typed
        :class:`~repro.shard.supervisor.ShardWorkerError`.
    chaos:
        Optional :class:`~repro.shard.chaos.ChaosSpec` injected into
        every worker (testing only).
    hooks:
        Optional :class:`~repro.shard.supervisor.SupervisorHooks` for
        metric emission on recovery transitions.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`; the
        supervisor feeds it op headers, merged worker spans, and
        failure events, and dumps it on every
        :class:`~repro.shard.supervisor.ShardWorkerError`.
    on_obs_delta:
        Optional ``(shard, delta) -> None`` callback receiving each op
        reply's worker observability delta exactly once (replayed
        duplicates are muted during recovery).
    """

    mode = "process"

    def __init__(
        self,
        config: MonitorConfig,
        plan: StripePlan,
        tracer: Any = None,
        mp_context: str = "fork",
        supervision: Optional[SupervisionConfig] = None,
        chaos: Any = None,
        hooks: Optional[SupervisorHooks] = None,
        flight: Any = None,
        on_obs_delta: Optional[Callable[[int, dict], None]] = None,
    ):
        import multiprocessing as mp

        self.config = config
        self.tracer = tracer
        self._worker_config, self._worker_obs_on = _worker_obs_config(config)
        try:
            self._ctx = mp.get_context(mp_context)
        except ValueError:  # pragma: no cover - platform fallback
            self._ctx = mp.get_context("spawn")
        self.plan = plan
        # The supervisor's callbacks close over plain data, never over
        # ``self``: the finalize guard below keeps the supervisor alive,
        # so any supervisor->executor reference would make the executor
        # permanently reachable and the guard would never fire on GC.
        ctx, worker_config = self._ctx, self._worker_config
        plan_args = plan.to_args()

        def spawn(shard: int, incarnation: int):
            # _spawn_worker resolved at call time (monkeypatch seam).
            return _spawn_worker(
                ctx, worker_config, plan_args, shard, chaos, incarnation
            )

        def local_factory(shard: int, snap: dict) -> ShardEngine:
            from repro.shard.journal import rehydrate_engine

            return rehydrate_engine(worker_config, plan, shard, snap)

        self.supervisor = ShardSupervisor(
            shards=plan.shards,
            spawn=spawn,
            local_factory=local_factory,
            config=supervision if supervision is not None else SupervisionConfig(),
            chaos=chaos,
            hooks=hooks,
            flight=flight,
            on_obs_delta=on_obs_delta,
        )
        # The finalizer fires on GC and at interpreter exit, so workers
        # are reaped even when __init__ fails mid-spawn below or the
        # owner never calls close().
        self._finalizer = weakref.finalize(
            self, _finalize_supervisor, self.supervisor
        )
        try:
            self.supervisor.start()
        except BaseException:
            self.close()
            raise

    # -- RPC plumbing ----------------------------------------------------
    def _request(self, op: str, args: tuple) -> tuple:
        """``(trace_ctx, op, *args)`` for one regular op.

        The trace context is set only when worker observability is on
        and a span is actually recording — unsampled ticks propagate no
        context, so workers suppress their subtree.
        """
        ctx = None
        if self._worker_obs_on and self.tracer is not None:
            ctx = current_context(self.tracer)
        return (ctx.to_wire() if ctx is not None else None, op, *args)

    def _call(self, shard: int, op: str, *args) -> Any:
        return self.supervisor.request(shard, self._request(op, args))

    def _broadcast(self, op: str, *args) -> list[Any]:
        """Send to all workers first, then collect — workers overlap."""
        return self.supervisor.broadcast(self._request(op, args))

    def _mutated(self) -> None:
        """Refresh any shard checkpoint whose journal hit the interval."""
        self.supervisor.maybe_checkpoint()

    def supervision_report(self) -> dict:
        """The supervisor's operational snapshot (restarts, degradation)."""
        return self.supervisor.report()

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        Runs through the ``weakref.finalize`` guard registered at
        construction, so explicit close, garbage collection, and
        interpreter exit all converge on the same single teardown.
        """
        finalizer = getattr(self, "_finalizer", None)
        if finalizer is not None:
            finalizer()
