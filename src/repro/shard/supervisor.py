"""Worker supervision: failure detection, recovery, graceful degradation.

The :class:`ShardSupervisor` sits between :class:`~repro.shard.executor.
ProcessExecutor` and its worker processes and turns worker crashes,
hangs and protocol violations into recoverable events, without
weakening the parity contract:

* **Detection.**  Every exchange is classified: a dead pipe or EOF is a
  ``crash``; a reply missing past the op deadline while the process is
  still alive is a ``hang`` (the worker is SIGKILLed, since its state
  can no longer be trusted to make progress); a reply that violates the
  wire protocol is a ``protocol`` violation (likewise killed); and a
  worker-side application error is a ``fault`` — a *deterministic bug*
  that replay would only reproduce, so it is raised to the caller, never
  recovered.  All four surface as a typed :class:`ShardWorkerError`
  carrying the shard id and the request op.
* **Recovery.**  Crash/hang/protocol failures trigger a bounded respawn
  loop with exponential backoff: kill and reap the old worker, spawn a
  fresh incarnation, ``restore`` it from the shard's last exact
  checkpoint, replay the tick journal (:mod:`repro.shard.journal`) —
  discarding replies the coordinator already merged, capturing the
  failed request's own reply — then re-arm chaos injection.  Because
  shard computation is deterministic in its request stream, the rebuilt
  worker's engine state, event tags, and counters are bit-identical to a
  never-crashed worker's, and the caller cannot observe the difference.
* **Degradation.**  When the respawn budget is exhausted (per-incident
  attempts or the per-shard lifetime cap), ``on_shard_failure`` decides:
  ``"raise"`` propagates the typed error; ``"degrade"`` rebuilds the
  stripe *in the coordinator process* — the same checkpoint + journal
  replay, then the same requests: :class:`_LocalShard` hands them to
  :func:`~repro.shard.engine.dispatch_op` on a private-replica engine,
  which is what :class:`~repro.shard.executor.SerialExecutor` does for
  every stripe — and the monitor keeps serving exact answers at reduced
  parallelism.

Every transition is reported through rate-limited logs and optional
:class:`SupervisorHooks` (the sharded monitor wires these to the
``crnn_shard_restarts_total`` / ``crnn_shard_degraded`` /
``crnn_shard_recovery_seconds`` metrics).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs.logutil import RateLimitedLogger
from repro.shard.engine import ShardEngine, dispatch_op
from repro.shard.journal import LIFECYCLE_OPS, MUTATING_OPS, TickJournal

__all__ = [
    "OP_DEADLINE_SCALE",
    "ShardSupervisor",
    "ShardWorkerError",
    "SupervisionConfig",
    "SupervisorHooks",
]

logger = logging.getLogger("repro.shard.supervisor")

#: Failure kinds the supervisor recovers from; ``fault`` (a worker-side
#: application error, i.e. a deterministic bug) is never recovered.
RECOVERABLE_KINDS = frozenset({"crash", "hang", "protocol"})

#: Per-op hang-deadline multipliers over ``SupervisionConfig.op_deadline``
#: — the liveness table: how long each protocol op may run before a
#: silent worker is declared hung and killed.  Snapshot-moving ops
#: (``restore``/``checkpoint``) serialize whole engine states across
#: the pipe and legitimately take several times a tick's budget;
#: everything else replies within one.  Every op of the
#: protocol — dispatchable (:func:`~repro.shard.engine.dispatch_op`)
#: or lifecycle (the worker loop) — must have an entry: CRNN003
#: (``crnnlint``) cross-checks this table against the dispatch set and
#: the journal's op classification, so a new op cannot ship without a
#: deadline class.
OP_DEADLINE_SCALE: dict[str, float] = {
    # mutating (journaled, replayed on recovery)
    "tick": 1.0,
    "scalar": 1.0,
    "add_query": 1.0,
    "remove_query": 1.0,
    "update_query": 1.0,
    "remove_silent": 1.0,
    "add_silent": 1.0,
    # read-only (re-issued after recovery)
    "region": 1.0,
    "explain": 1.0,
    "results": 1.0,
    "stats": 1.0,
    "queries": 1.0,
    "positions": 1.0,
    "validate": 1.0,
    "object_count": 1.0,
    # lifecycle (worker-loop concern; snapshot movers get headroom)
    "close": 1.0,
    "arm": 1.0,
    "restore": 4.0,
    "checkpoint": 4.0,
}


class ShardWorkerError(RuntimeError):
    """A shard worker exchange failed, with enough context to triage.

    Parameters
    ----------
    shard:
        Which worker failed.
    op:
        The request op in flight when the failure surfaced.
    kind:
        ``"crash"`` (dead process / closed pipe), ``"hang"`` (op
        deadline exceeded with the process still alive), ``"protocol"``
        (reply violates the wire format), or ``"fault"`` (the worker
        raised — a deterministic application bug, not a process
        failure).
    detail:
        Free-form diagnostic (exception repr, worker traceback, ...).
    """

    def __init__(self, shard: int, op: str, kind: str, detail: str = ""):
        self.shard = shard
        self.op = op
        self.kind = kind
        self.detail = detail
        super().__init__(f"shard {shard} worker {kind} during {op!r}: {detail}")


@dataclass(frozen=True)
class SupervisionConfig:
    """Fault-tolerance policy for the process executor.

    Parameters
    ----------
    op_deadline:
        Seconds a worker may take to reply before it is declared hung
        and killed (``None`` disables the deadline).
    max_respawn_attempts:
        Consecutive failed rebuild attempts per incident before the
        failure policy applies.
    max_restarts:
        Lifetime respawn budget per shard (``None`` = unbounded); a
        shard that keeps dying past this budget hits the failure policy.
    backoff_base:
        First retry backoff in seconds; doubles per failed attempt.
    backoff_max:
        Backoff ceiling in seconds.
    checkpoint_interval:
        Take a fresh per-shard exact checkpoint (and truncate the tick
        journal) once a shard's journal reaches this many mutating
        requests (at least 1); bounds replay time and journal memory.
    on_shard_failure:
        ``"raise"`` — propagate the :class:`ShardWorkerError` when the
        respawn budget is exhausted; ``"degrade"`` — rebuild the stripe
        in-process and continue with exact answers at reduced
        parallelism.
    """

    op_deadline: Optional[float] = 30.0
    max_respawn_attempts: int = 3
    max_restarts: Optional[int] = None
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    checkpoint_interval: int = 200
    on_shard_failure: str = "raise"

    def __post_init__(self):
        if self.on_shard_failure not in ("raise", "degrade"):
            raise ValueError(
                f"on_shard_failure must be 'raise' or 'degrade', "
                f"got {self.on_shard_failure!r}"
            )
        if self.max_respawn_attempts < 0:
            raise ValueError("max_respawn_attempts must be >= 0")
        if self.checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be >= 1 (journals are only "
                "truncated by a checkpoint)"
            )


@dataclass
class SupervisorHooks:
    """Optional observability callbacks for supervision transitions."""

    #: ``(shard, recovery_seconds)`` after each successful recovery.
    on_restart: Optional[Callable[[int, float], None]] = None
    #: ``(shard,)`` when a stripe degrades to in-process execution.
    on_degrade: Optional[Callable[[int], None]] = None


@dataclass
class _WorkerChannel:
    """One live worker process + its pipe + incarnation number."""

    proc: Any
    conn: Any
    incarnation: int


class _LocalShard:
    """A degraded stripe running inside the coordinator process.

    Serves the same request protocol as a worker by driving
    :func:`~repro.shard.engine.dispatch_op` directly — the serial
    executor's in-process path — so callers cannot tell the difference
    (other than the lost parallelism).
    """

    __slots__ = ("engine",)

    def __init__(self, engine: ShardEngine):
        self.engine = engine

    def request(self, request: tuple) -> Any:
        """Execute one request synchronously and return its payload."""
        # No worker kit in-process to adopt the trace context into.
        op = request[1]
        if op in LIFECYCLE_OPS:
            return None  # lifecycle ops are meaningless in-process
        return dispatch_op(self.engine, op, request[2:])


class ShardSupervisor:
    """Owns worker lifecycle and the recovery protocol (module docstring).

    Parameters
    ----------
    shards:
        Worker count K.
    spawn:
        ``(shard, incarnation) -> (process, pipe)`` factory provided by
        the executor.
    local_factory:
        ``(shard, checkpoint) -> ShardEngine`` rehydrator for degraded
        in-process execution.
    config:
        The supervision policy.
    chaos:
        Optional :class:`~repro.shard.chaos.ChaosSpec` forwarded to the
        workers; the supervisor arms each incarnation only after its
        rehydration replay completes.
    hooks:
        Optional :class:`SupervisorHooks` for metric emission.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder` fed with op
        headers (at send time, so an op that kills its worker is still
        on record), merged worker spans, and supervision events; dumped
        on every :class:`ShardWorkerError`.
    on_obs_delta:
        Optional ``(shard, delta) -> None`` sink for worker obs deltas
        piggybacked on replies.  Exactly-once: deltas re-produced by
        journal replay are muted, except the failed request's own
        (whose original reply never arrived).
    """

    def __init__(
        self,
        shards: int,
        spawn: Callable[[int, int], tuple],
        local_factory: Callable[[int, dict], ShardEngine],
        config: SupervisionConfig,
        chaos: Any = None,
        hooks: Optional[SupervisorHooks] = None,
        flight: Any = None,
        on_obs_delta: Optional[Callable[[int, dict], None]] = None,
    ):
        self.shards = shards
        self.spawn = spawn
        self.local_factory = local_factory
        self.config = config
        self.chaos = chaos
        self.hooks = hooks
        self.flight = flight
        self.on_obs_delta = on_obs_delta
        self._obs_muted = False
        self._stashed_delta: Optional[dict] = None
        #: Per-shard channel: a live worker or a degraded local engine.
        self.channels: list = [None] * shards
        #: Per-shard write-ahead journals.
        self.journals = [TickJournal() for _ in range(shards)]
        #: Per-shard last exact checkpoint (recovery base).
        self.checkpoints: dict[int, dict] = {}
        #: Per-shard worker incarnation counter.
        self.incarnations = [0] * shards
        #: Per-shard lifetime respawn count.
        self.restarts = [0] * shards
        #: Shards running degraded in-process.
        self.degraded: set[int] = set()
        #: Wall-clock recovery latencies, in completion order.
        self.recovery_seconds: list[float] = []
        self._log = RateLimitedLogger(logger)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker; on any failure, reap what was spawned.

        Each worker's initial exact checkpoint is taken immediately (the
        recovery base is never missing); chaos agents are armed last so
        the setup traffic is exempt.
        """
        try:
            for shard in range(self.shards):
                proc, conn = self.spawn(shard, 0)
                self.channels[shard] = _WorkerChannel(proc, conn, 0)
            for shard in range(self.shards):
                self.checkpoints[shard] = self._exchange(shard, (None, "checkpoint"))
            if self.chaos is not None:
                for shard in range(self.shards):
                    self._exchange(shard, (None, "arm"))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Shut down every live worker (idempotent, safe mid-spawn)."""
        if self._closed:
            return
        self._closed = True
        channels = [c for c in self.channels if isinstance(c, _WorkerChannel)]
        for chan in channels:
            try:
                chan.conn.send((None, "close"))
            except (BrokenPipeError, OSError):
                pass
        for chan in channels:
            try:
                chan.conn.close()
            except OSError:  # pragma: no cover - teardown robustness
                pass
            chan.proc.join(timeout=5.0)
            if chan.proc.is_alive():  # pragma: no cover - teardown robustness
                chan.proc.terminate()
                chan.proc.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------
    def request(self, shard: int, request: tuple) -> Any:
        """One owner-shard exchange, journaled and recovered as needed."""
        chan = self.channels[shard]
        if isinstance(chan, _LocalShard):
            return chan.request(request)
        op = request[1]
        if op in MUTATING_OPS:
            self.journals[shard].append(request)
        if self.flight is not None:
            self.flight.record_op(shard, op)
        try:
            return self._exchange(shard, request)
        except ShardWorkerError as err:
            self._note_failure(err)
            if err.kind not in RECOVERABLE_KINDS:
                raise
            return self._recover(shard, request, err)

    def broadcast(self, request: tuple) -> list:
        """Send to all shards first, then collect — workers overlap.

        Degraded stripes compute synchronously in collection order;
        each worker failure is recovered independently, so one crash
        does not cost the others' overlap.
        """
        op = request[1]
        send_errors: dict[int, ShardWorkerError] = {}
        for shard in range(self.shards):
            chan = self.channels[shard]
            if isinstance(chan, _LocalShard):
                continue
            if op in MUTATING_OPS:
                self.journals[shard].append(request)
            if self.flight is not None:
                self.flight.record_op(shard, op)
            try:
                chan.conn.send(request)
            except (BrokenPipeError, ConnectionResetError, OSError) as exc:
                send_errors[shard] = ShardWorkerError(shard, op, "crash", repr(exc))
                self._note_failure(send_errors[shard])
        replies = []
        for shard in range(self.shards):
            chan = self.channels[shard]
            if isinstance(chan, _LocalShard):
                replies.append(chan.request(request))
                continue
            err = send_errors.get(shard)
            if err is None:
                try:
                    replies.append(self._recv(shard, op))
                    continue
                except ShardWorkerError as exc:
                    self._note_failure(exc)
                    if exc.kind not in RECOVERABLE_KINDS:
                        raise
                    err = exc
            replies.append(self._recover(shard, request, err))
        return replies

    def _note_failure(self, err: ShardWorkerError) -> None:
        """Record (and dump) a worker failure on the flight recorder."""
        if self.flight is None:
            return
        self.flight.record_event(
            err.shard, f"worker_{err.kind}", f"during {err.op!r}: {err.detail}"
        )
        self.flight.dump(reason=err.kind, shard=err.shard, error=str(err))

    def maybe_checkpoint(self) -> None:
        """Refresh any shard checkpoint whose journal hit the interval.

        Called by the executor between public operations (never inside a
        scatter/gather), so a checkpoint request is just another
        exchange — including its own recovery if the worker dies while
        serving it.
        """
        for shard in range(self.shards):
            journal = self.journals[shard]
            if isinstance(self.channels[shard], _LocalShard):
                if journal.entries:
                    journal.clear()  # in-process state cannot be lost
                continue
            if len(journal) >= self.config.checkpoint_interval:
                self.checkpoints[shard] = self.request(shard, (None, "checkpoint"))
                journal.clear()

    # ------------------------------------------------------------------
    # Wire-level exchange (no journaling, no recovery)
    # ------------------------------------------------------------------
    def _exchange(self, shard: int, request: tuple) -> Any:
        chan = self.channels[shard]
        op = request[1]
        try:
            chan.conn.send(request)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ShardWorkerError(shard, op, "crash", repr(exc)) from exc
        return self._recv(shard, op)

    def _recv(self, shard: int, op: str) -> Any:
        chan = self.channels[shard]
        deadline = self.config.op_deadline
        if deadline is not None:
            deadline *= OP_DEADLINE_SCALE.get(op, 1.0)
        try:
            if deadline is not None and not chan.conn.poll(deadline):
                # Liveness probe: a live-but-silent worker is hung and
                # cannot be trusted to ever reply — kill it; a dead one
                # already crashed.
                kind = "hang" if chan.proc.is_alive() else "crash"
                self._kill_channel(chan)
                raise ShardWorkerError(
                    shard, op, kind, f"no reply within {deadline:g}s deadline"
                )
            reply = chan.conn.recv()
        except EOFError as exc:
            raise ShardWorkerError(
                shard, op, "crash", "worker closed the pipe (EOF)"
            ) from exc
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ShardWorkerError(shard, op, "crash", repr(exc)) from exc
        if not (isinstance(reply, tuple) and len(reply) == 3):
            self._kill_channel(chan)
            raise ShardWorkerError(shard, op, "protocol", f"malformed reply {reply!r}")
        status, payload, delta = reply
        if status == "ok":
            self._deliver_delta(shard, delta)
            return payload
        if status == "err":
            raise ShardWorkerError(shard, op, "fault", str(payload))
        self._kill_channel(chan)
        raise ShardWorkerError(
            shard, op, "protocol", f"unknown reply status {status!r}"
        )

    def _deliver_delta(self, shard: int, delta: Optional[dict]) -> None:
        """Hand one reply's obs delta to the coordinator, unless muted.

        During journal replay deltas are stashed instead of delivered
        (the originals were merged before the crash); :meth:`_rebuild`
        forwards only the failed request's stash, preserving
        exactly-once delivery of every op's counters.
        """
        if self._obs_muted:
            self._stashed_delta = delta
            return
        if delta is None:
            return
        if self.on_obs_delta is not None:
            self.on_obs_delta(shard, delta)
        if self.flight is not None and delta.get("spans"):
            self.flight.record_spans(shard, delta["spans"])

    def _kill_channel(self, chan: _WorkerChannel) -> None:
        """SIGKILL and reap one worker (idempotent, never raises)."""
        try:
            chan.conn.close()
        except OSError:  # pragma: no cover - teardown robustness
            pass
        proc = chan.proc
        try:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
        except (ValueError, OSError):  # pragma: no cover - already reaped
            pass

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, shard: int, failed_request: tuple, err: ShardWorkerError) -> Any:
        """Bounded respawn loop; returns the failed request's reply."""
        t0 = time.perf_counter()
        self._log.warning(
            f"shard-{shard}-failure",
            "shard %d worker %s during %r; recovering (journal depth %d)",
            shard, err.kind, err.op, len(self.journals[shard]),
        )
        config = self.config
        attempts = 0
        while True:
            budget_spent = (
                config.max_restarts is not None
                and self.restarts[shard] >= config.max_restarts
            ) or attempts >= config.max_respawn_attempts
            if budget_spent:
                return self._give_up(shard, failed_request, err)
            if attempts > 0:
                time.sleep(
                    min(config.backoff_base * (2 ** (attempts - 1)), config.backoff_max)
                )
            attempts += 1
            self.restarts[shard] += 1
            try:
                reply = self._rebuild(shard, failed_request)
            except ShardWorkerError as exc:
                if exc.kind not in RECOVERABLE_KINDS:
                    raise
                err = exc
                continue
            seconds = time.perf_counter() - t0
            self.recovery_seconds.append(seconds)
            if self.hooks is not None and self.hooks.on_restart is not None:
                self.hooks.on_restart(shard, seconds)
            self._log.info(
                f"shard-{shard}-recovered",
                "shard %d recovered in %.3fs (%d attempt(s), incarnation %d)",
                shard, seconds, attempts, self.incarnations[shard],
            )
            return reply

    def _rebuild(self, shard: int, failed_request: tuple) -> Any:
        """Spawn + restore + replay one replacement worker.

        Every journaled reply except the failed request's own is
        discarded (the coordinator already merged the originals); a
        read-only failed request is simply re-issued at the end.  Chaos
        stays disarmed until the replay is complete, so recovery traffic
        never burns injection budget.
        """
        self._kill_channel(self.channels[shard])
        self.incarnations[shard] += 1
        incarnation = self.incarnations[shard]
        proc, conn = self.spawn(shard, incarnation)
        self.channels[shard] = _WorkerChannel(proc, conn, incarnation)
        if self.flight is not None:
            self.flight.record_event(shard, "respawn", f"incarnation {incarnation}")
        self._exchange(shard, (None, "restore", self.checkpoints[shard]))
        entries = self.journals[shard].entries
        last = entries[-1] if entries else None
        reply, have_reply, replay_delta = None, False, None
        # Replay re-produces obs deltas the coordinator already merged
        # from the original replies — mute them all except the failed
        # request's own, whose original reply never arrived.
        self._obs_muted = True
        try:
            for entry in entries:
                self._stashed_delta = None
                r = self._exchange(shard, entry)
                if entry is last and entry is failed_request:
                    reply, have_reply, replay_delta = r, True, self._stashed_delta
        finally:
            self._obs_muted = False
            self._stashed_delta = None
        if have_reply:
            self._deliver_delta(shard, replay_delta)
        if self.chaos is not None:
            self._exchange(shard, (None, "arm"))
        if not have_reply:
            reply = self._exchange(shard, failed_request)
        return reply

    def _give_up(self, shard: int, failed_request: tuple, err: ShardWorkerError) -> Any:
        """Respawn budget exhausted: degrade in-process, or raise."""
        if self.config.on_shard_failure != "degrade":
            self._log.error(
                f"shard-{shard}-budget",
                "shard %d respawn budget exhausted after %d restarts; raising",
                shard, self.restarts[shard],
            )
            raise err
        chan = self.channels[shard]
        if isinstance(chan, _WorkerChannel):
            self._kill_channel(chan)
        engine = self.local_factory(shard, self.checkpoints[shard])
        local = _LocalShard(engine)
        journal = self.journals[shard]
        entries = journal.entries
        last = entries[-1] if entries else None
        reply, have_reply = None, False
        for entry in entries:
            r = local.request(entry)
            if entry is last and entry is failed_request:
                reply, have_reply = r, True
        self.channels[shard] = local
        journal.clear()
        self.degraded.add(shard)
        if self.flight is not None:
            self.flight.record_event(
                shard, "degraded", f"after {self.restarts[shard]} restarts"
            )
            self.flight.dump(reason="degraded", shard=shard, error=str(err))
        if self.hooks is not None and self.hooks.on_degrade is not None:
            self.hooks.on_degrade(shard)
        self._log.error(
            f"shard-{shard}-degraded",
            "shard %d degraded to in-process execution after %d restarts",
            shard, self.restarts[shard],
        )
        if not have_reply:
            reply = local.request(failed_request)
        return reply

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Operational snapshot of the supervision layer."""
        return {
            "restarts_total": sum(self.restarts),
            "restarts_by_shard": {k: n for k, n in enumerate(self.restarts) if n},
            "degraded_shards": set(self.degraded),
            "incarnations": list(self.incarnations),
            "journal_depths": [len(j) for j in self.journals],
            "recovery_seconds": list(self.recovery_seconds),
        }
