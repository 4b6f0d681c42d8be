"""The tick-batched asyncio ingestion loop of :mod:`repro.serve`.

:class:`CRNNServer` fronts one monitor — a
:class:`~repro.core.monitor.CRNNMonitor` (``backend="serial"``) or a
:class:`~repro.shard.monitor.ShardedCRNNMonitor` on its worker-process
executor (``backend="sharded"``) — behind the wire protocol of
:mod:`repro.serve.protocol`.  The design keeps the wire path
*bit-identical* to the in-process path:

* **Ingestion** — every connection's reader coroutine validates frames
  and appends updates to one global bounded queue in arrival order.
  Admission control is explicit: when the queue is full, the configured
  :data:`ServeConfig.overload` policy decides between ``block`` (stop
  reading that connection's socket — TCP backpressure propagates to the
  producer), ``drop_oldest`` (evict the head of the queue, counted), and
  ``reject`` (typed ``error`` reply with code ``overloaded``, the update
  never enters).
* **Tick** — a tick (an explicit ``tick`` frame, or the
  ``tick_interval`` timer) moves the whole pending queue into one
  ``monitor.process()`` batch, exactly like a caller handing the same
  list to the library directly, then drains the monitor's result deltas.
  Ticks are serialized by a lock, and a batch the monitor refuses (the
  strict ingestion guard raising on a poison update) is dropped
  atomically and answered with a typed ``tick_failed`` error — never a
  dead tick loop.
* **Fanout** — the drained deltas are filtered per subscriber and
  enqueued on per-connection outboxes; a slow consumer is handled by
  :data:`ServeConfig.fanout_policy` (``block`` exerts backpressure on
  the tick loop, ``drop_oldest`` sheds that subscriber's oldest event
  frames and flags a ``gap``, ``reject`` disconnects the subscriber).
* **Lifecycle** — shutdown stops the listener, optionally drains the
  pending queue through a final tick, flushes every outbox, writes a
  verified checkpoint via :mod:`repro.robustness.checkpoint` when
  ``checkpoint_path`` is set, and closes the monitor.

Every stage is observable: ``crnn_serve_*`` counters, gauges, and
histograms land in the monitor's metrics registry (scraped by
``/metrics`` when the obs layer is on), and ``serve.tick`` /
``serve.fanout`` spans nest around the monitor's own ``monitor.process``
span tree.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.config import MonitorConfig
from repro.core.monitor import CRNNMonitor
from repro.obs.dist import TraceContext, span_in_context
from repro.robustness.guard import IngestionError
from repro.serve import protocol as proto
from repro.serve.protocol import (
    Ack,
    Batch,
    Checkpoint,
    CheckpointAck,
    ErrorReply,
    EventBatch,
    FrameDecoder,
    GetResults,
    GetStats,
    Hello,
    HelloAck,
    ProtocolError,
    ResultsReply,
    Shutdown,
    ShutdownAck,
    StatsReply,
    Subscribe,
    Tick,
    TickAck,
    Unsubscribe,
    encode_frame,
    parse_message,
    to_wire,
)

__all__ = [
    "POLICY_BLOCK",
    "POLICY_DROP_OLDEST",
    "POLICY_REJECT",
    "POLICIES",
    "ServeConfig",
    "CRNNServer",
    "ServerThread",
]

log = logging.getLogger("repro.serve")

#: Admission/fanout shedding policies (DESIGN.md §11).
POLICY_BLOCK = "block"
POLICY_DROP_OLDEST = "drop_oldest"
POLICY_REJECT = "reject"
POLICIES = (POLICY_BLOCK, POLICY_DROP_OLDEST, POLICY_REJECT)

BACKEND_SERIAL = "serial"
BACKEND_SHARDED = "sharded"
BACKENDS = (BACKEND_SERIAL, BACKEND_SHARDED)


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`CRNNServer`."""

    #: Listen address; port 0 binds an ephemeral port (read it back from
    #: :attr:`CRNNServer.address` after :meth:`CRNNServer.start`).
    host: str = "127.0.0.1"
    port: int = 0
    #: ``"serial"`` fronts a single :class:`CRNNMonitor`; ``"sharded"``
    #: fronts a :class:`~repro.shard.monitor.ShardedCRNNMonitor` with one
    #: worker process per stripe.
    backend: str = BACKEND_SERIAL
    #: Stripe count of the sharded backend.
    shards: int = 2
    #: Monitor configuration; defaults to ``MonitorConfig.lu_pi()``.
    monitor: Optional[MonitorConfig] = None
    #: Auto-tick period in seconds; ``None`` processes only on explicit
    #: ``tick`` frames (the deterministic mode the parity suite uses).
    tick_interval: Optional[float] = None
    #: Bound of the global ingestion queue (updates).
    max_pending: int = 100_000
    #: Admission policy when the ingestion queue is full.
    overload: str = POLICY_BLOCK
    #: Slow-subscriber policy; ``None`` follows :attr:`overload`.
    fanout_policy: Optional[str] = None
    #: Bound of each subscriber's outbox (event frames).
    subscriber_buffer: int = 1024
    #: Maximum frame payload size accepted or produced (bytes).
    max_frame: int = proto.DEFAULT_MAX_FRAME
    #: When set, shutdown (and the ``checkpoint`` request) writes a
    #: verified JSON checkpoint here.
    checkpoint_path: Optional[str] = None
    #: Honour the wire ``shutdown`` request (tests/ops convenience).
    allow_shutdown: bool = True
    #: Test knob: cap the asyncio transport's write buffer (bytes) so a
    #: non-reading subscriber exerts backpressure after a bounded amount
    #: of in-flight data instead of the platform's TCP buffer size.
    write_buffer_high: Optional[int] = None
    #: Test knob: shrink the kernel send buffer of accepted sockets.
    so_sndbuf: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.overload not in POLICIES:
            raise ValueError(f"overload must be one of {POLICIES}, got {self.overload!r}")
        if self.fanout_policy is not None and self.fanout_policy not in POLICIES:
            raise ValueError(
                f"fanout_policy must be one of {POLICIES}, got {self.fanout_policy!r}"
            )
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.subscriber_buffer < 1:
            raise ValueError("subscriber_buffer must be >= 1")
        if self.tick_interval is not None and self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")

    @property
    def effective_fanout_policy(self) -> str:
        """The fanout policy after defaulting to :attr:`overload`."""
        return self.fanout_policy if self.fanout_policy is not None else self.overload


@dataclass
class _Connection:
    """Server-side state of one client connection."""

    cid: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    #: Encoded frames awaiting the writer task, replies and events alike.
    outbox: deque = field(default_factory=deque)
    #: Count of *event* frames currently in :attr:`outbox` (the
    #: subscriber-buffer bound applies to these, never to replies).
    event_frames: int = 0
    #: Subscribed qids; ``True`` means the firehose (every query).
    subscriptions: Union[bool, set[int]] = field(default_factory=set)
    #: Set when event frames were shed for this subscriber; the next
    #: delivered event frame carries ``gap=True`` and clears it.
    gap: bool = False
    closed: bool = False
    wakeup: asyncio.Event = field(default_factory=asyncio.Event)
    space: asyncio.Event = field(default_factory=asyncio.Event)
    writer_task: Optional[asyncio.Task] = None

    def wants(self, qid: int) -> bool:
        """Whether this connection subscribed to query ``qid``."""
        return self.subscriptions is True or (
            isinstance(self.subscriptions, set) and qid in self.subscriptions
        )


class CRNNServer:
    """The asyncio TCP frontend; create, :meth:`start`, serve, :meth:`shutdown`.

    The server is single-loop: frame handling, admission, ticks, and
    fanout all run on one event loop, so updates are applied in exactly
    the order they were admitted — the property the wire-parity suite
    pins down.  ``monitor.process()`` itself is synchronous CPU work and
    runs inline on the loop (a tick is a natural batching point; while
    it runs, sockets simply buffer).
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig()
        mc = self.config.monitor if self.config.monitor is not None else MonitorConfig.lu_pi()
        if self.config.backend == BACKEND_SHARDED:
            from repro.shard.monitor import ShardedCRNNMonitor

            self.monitor: Union[CRNNMonitor, "ShardedCRNNMonitor"] = ShardedCRNNMonitor(
                mc,
                shards=self.config.shards,
                executor="process",
            )
        else:
            self.monitor = CRNNMonitor(mc)
        self.registry = self.monitor.obs.registry
        self.tracer = self.monitor.obs.tracer
        self._init_metrics()
        #: Pending admitted updates, in admission order.
        self._pending: deque[proto.Update] = deque()
        self._space = asyncio.Event()
        self._space.set()
        self._conns: dict[int, _Connection] = {}
        self._next_cid = 0
        self._tick = 0
        self._shed_ingest_window = 0  # sheds since the last tick (TickAck.shed)
        #: Client-propagated trace context stashed by batch frames and
        #: adopted by the next tick (last writer wins; an explicit
        #: ``tick`` frame's own context overrides it).
        self._pending_ctx: Optional[TraceContext] = None
        #: perf_counter of the first batch-frame decode since the last
        #: tick — the start of the e2e request-latency window.
        self._window_t0: Optional[float] = None
        #: perf_counter of the running tick's first delivered fanout
        #: write (set by :meth:`_fanout`; the request window's end).
        self._first_fanout_at: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._tick_lock = asyncio.Lock()
        self._draining = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        reg = self.registry
        self._m_connections = reg.gauge(
            "crnn_serve_connections", "currently open client connections"
        )
        self._m_frames_in = reg.counter(
            "crnn_serve_frames_in_total", "frames received from clients"
        )
        self._m_frames_out = reg.counter(
            "crnn_serve_frames_out_total", "frames sent to clients"
        )
        self._m_updates = reg.counter(
            "crnn_serve_updates_total", "location updates admitted into the queue"
        )
        self._m_ticks = reg.counter("crnn_serve_ticks_total", "process() ticks run")
        self._m_tick_errors = reg.counter(
            "crnn_serve_tick_errors_total",
            "ticks whose batch the monitor refused (batch dropped)",
        )
        self._m_events = reg.counter(
            "crnn_serve_events_total", "result deltas drained from the monitor"
        )
        self._m_fanout = reg.counter(
            "crnn_serve_fanout_events_total", "result deltas delivered to subscribers"
        )
        self._m_shed = reg.counter(
            "crnn_serve_shed_total",
            "updates or event frames shed by a load policy",
            labelnames=("stage",),
        )
        self._m_rejected = reg.counter(
            "crnn_serve_rejected_total", "updates refused under the reject policy"
        )
        self._m_proto_errors = reg.counter(
            "crnn_serve_protocol_errors_total", "malformed frames or messages seen"
        )
        self._m_queue_depth = reg.gauge(
            "crnn_serve_queue_depth", "updates waiting for the next tick"
        )
        self._m_queue_peak = reg.gauge(
            "crnn_serve_queue_depth_peak", "high-water mark of the ingestion queue"
        )
        self._m_tick_seconds = reg.histogram(
            "crnn_serve_tick_seconds", "wall time of one tick (process + fanout)"
        )
        self._m_batch_updates = reg.histogram(
            "crnn_serve_batch_updates",
            "updates per tick batch",
            buckets=(1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0),
        )
        self._m_request_seconds = reg.histogram(
            "crnn_serve_request_seconds",
            "first batch-frame decode to first delivered fanout write "
            "(tick end when nothing fans out)",
        )
        self._m_e2e_seconds = reg.histogram(
            "crnn_tick_e2e_seconds",
            "end-to-end tick latency by stage (process|fanout|total)",
            labelnames=("stage",),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listener; returns the actual ``(host, port)``."""
        if self.config.so_sndbuf is not None:
            # Kernel buffer sizes only take effect when set before the
            # connection is established, so the shrunken send buffer goes
            # on the *listening* socket and is inherited at accept().
            import socket as _socket

            lsock = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
            lsock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
            lsock.setsockopt(
                _socket.SOL_SOCKET, _socket.SO_SNDBUF, self.config.so_sndbuf
            )
            lsock.bind((self.config.host, self.config.port))
            lsock.listen(128)
            self._server = await asyncio.start_server(
                self._serve_connection, sock=lsock
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self.config.host, self.config.port
            )
        if self.config.tick_interval is not None:
            self._tick_task = asyncio.ensure_future(self._tick_loop())
        host, port = self._server.sockets[0].getsockname()[:2]
        log.info("repro.serve listening on %s:%d (backend=%s, policy=%s)",
                 host, port, self.config.backend, self.config.overload)
        return host, port

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def shutdown(self, drain: bool = True) -> None:
        """Stop serving: drain, flush, checkpoint, close.

        With ``drain`` (the default) the pending queue is processed
        through one final tick and every subscriber outbox is flushed
        before sockets close; ``drain=False`` abandons queued work.
        """
        if self._stopped:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
        if drain and self._pending:
            await self._run_tick()
        if drain:
            await self._flush_outboxes()
        if self.config.checkpoint_path is not None:
            self._write_checkpoint(self.config.checkpoint_path)
        for conn in list(self._conns.values()):
            await self._close_connection(conn)
        close = getattr(self.monitor, "close", None)
        if close is not None:
            close()
        self._stopped = True
        log.info("repro.serve stopped after %d ticks", self._tick)

    def _write_checkpoint(self, path: str) -> int:
        """Write the monitor's verified JSON checkpoint to ``path``."""
        from repro.robustness.checkpoint import to_json

        text = to_json(self.monitor.checkpoint())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("repro.serve checkpoint: %d bytes to %s", len(text), path)
        return len(text)

    async def _flush_outboxes(self) -> None:
        """Wait (bounded) for every writer task to empty its outbox."""
        deadline = time.monotonic() + 5.0
        for conn in list(self._conns.values()):
            while conn.outbox and not conn.closed and time.monotonic() < deadline:
                await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_cid += 1
        conn = _Connection(self._next_cid, reader, writer)
        self._conns[conn.cid] = conn
        self._m_connections.inc()
        if self.config.write_buffer_high is not None:
            writer.transport.set_write_buffer_limits(high=self.config.write_buffer_high)
        conn.writer_task = asyncio.ensure_future(self._writer_loop(conn))
        decoder = FrameDecoder(self.config.max_frame)
        try:
            while not conn.closed:
                data = await reader.read(65536)
                if not data:
                    try:
                        decoder.check_eof()
                    except ProtocolError:
                        self._m_proto_errors.inc()
                        log.warning("conn %d closed mid-frame", conn.cid)
                    break
                decoder.feed(data)
                for frame in decoder.frames():
                    self._m_frames_in.inc()
                    if isinstance(frame, ProtocolError):
                        self._m_proto_errors.inc()
                        self._send(conn, ErrorReply(code=frame.code, detail=frame.detail))
                        continue
                    try:
                        msg = parse_message(frame)
                    except ProtocolError as exc:
                        self._m_proto_errors.inc()
                        self._send(
                            conn,
                            ErrorReply(code=exc.code, detail=exc.detail, seq=exc.seq),
                        )
                        continue
                    await self._handle_message(conn, msg)
                    if conn.closed:
                        break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            await self._close_connection(conn)

    async def _close_connection(self, conn: _Connection, *, wait: bool = True) -> None:
        """Tear down one connection.

        ``wait=False`` skips awaiting the transport's closure — required
        when closing from inside the tick path (a slow consumer being
        disconnected still has unflushed buffered data, and awaiting the
        flush would stall every other subscriber's tick); the transport
        finishes flushing and closes in the background.
        """
        conn.closed = True
        # Always release anyone parked on this connection's events, even
        # when `closed` was already flagged: the tick loop may be inside
        # a block-policy `conn.space.wait()` in _send_event_frame while
        # the writer's error path marks the connection dead — skipping
        # the set() would wedge every subscriber's fanout forever.
        conn.space.set()
        conn.wakeup.set()
        if self._conns.pop(conn.cid, None) is None:
            return  # another path already tore this connection down
        self._m_connections.dec()
        if conn.writer_task is not None and conn.writer_task is not asyncio.current_task():
            conn.writer_task.cancel()
            try:
                await conn.writer_task
            except asyncio.CancelledError:
                pass
        try:
            conn.writer.close()
            if wait:
                await conn.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------
    def _send(self, conn: _Connection, msg: proto.Message) -> None:
        """Enqueue a control frame (reply); never shed, never bounded."""
        if conn.closed:
            return
        conn.outbox.append(encode_frame(to_wire(msg), self.config.max_frame))
        conn.wakeup.set()

    async def _send_event_frame(self, conn: _Connection, msg: EventBatch) -> bool:
        """Enqueue an event frame under the fanout shedding policy.

        Returns whether the frame actually entered the outbox — the
        ``reject`` path disconnects the subscriber instead, and a
        connection found dead here delivers nothing.
        """
        policy = self.config.effective_fanout_policy
        if conn.event_frames >= self.config.subscriber_buffer:
            if policy == POLICY_BLOCK:
                while (
                    conn.event_frames >= self.config.subscriber_buffer
                    and not conn.closed
                ):
                    conn.space.clear()
                    await conn.space.wait()
            elif policy == POLICY_DROP_OLDEST:
                # Shed this subscriber's oldest *event* frame (replies
                # are interleaved in the same deque and must survive, so
                # scan for the first event frame marker).
                self._shed_oldest_event(conn)
                conn.gap = True
                self._m_shed.labels("fanout").inc()
            else:  # reject: a subscriber this slow gets disconnected
                self._m_shed.labels("fanout").inc()
                # The writer task is about to be cancelled (it is likely
                # blocked in drain() on this very subscriber), so the
                # farewell goes straight onto the transport, behind the
                # already-buffered event frames; the flush completes in
                # the background once the client reads again.
                notice = ErrorReply(
                    code=proto.E_SLOW_CONSUMER,
                    detail="subscriber outbox overflowed; disconnecting",
                )
                try:
                    conn.writer.write(encode_frame(to_wire(notice), self.config.max_frame))
                    self._m_frames_out.inc()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
                await self._close_connection(conn, wait=False)
                return False
        if conn.closed:
            return False
        if conn.gap:
            msg = EventBatch(tick=msg.tick, changes=msg.changes, gap=True)
            conn.gap = False
        conn.outbox.append(
            (encode_frame(to_wire(msg), self.config.max_frame), "event")
        )
        conn.event_frames += 1
        conn.wakeup.set()
        return True

    def _shed_oldest_event(self, conn: _Connection) -> None:
        for i, item in enumerate(conn.outbox):
            if isinstance(item, tuple):
                del conn.outbox[i]
                conn.event_frames -= 1
                return

    async def _writer_loop(self, conn: _Connection) -> None:
        """Drain one connection's outbox onto its socket, in order."""
        try:
            while not conn.closed:
                if not conn.outbox:
                    conn.wakeup.clear()
                    await conn.wakeup.wait()
                    continue
                item = conn.outbox.popleft()
                if isinstance(item, tuple):
                    data = item[0]
                    conn.event_frames -= 1
                else:
                    data = item
                conn.writer.write(data)
                self._m_frames_out.inc()
                conn.space.set()
                await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Full teardown, not just a `closed` flag: the connection
            # must leave _conns (and release any fanout waiter) even
            # though the reader side has not noticed the death yet.
            await self._close_connection(conn, wait=False)
        except asyncio.CancelledError:
            raise

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    async def _admit(self, conn: _Connection, batch: Batch) -> None:
        """Apply the overload policy to one batch of wire updates."""
        if self._draining:
            self._send(
                conn,
                ErrorReply(
                    code=proto.E_SHUTTING_DOWN,
                    detail="server is draining; updates refused",
                    seq=batch.seq,
                    count=len(batch.updates),
                ),
            )
            return
        policy = self.config.overload
        limit = self.config.max_pending
        pending = self._pending
        if len(pending) + len(batch.updates) <= limit:
            # Fast path: the whole batch fits, so no per-update policy
            # decisions are needed (this is every batch of a healthy
            # deployment, and what keeps wire overhead inside budget).
            pending.extend(batch.updates)
            self._m_updates.inc(float(len(batch.updates)))
            depth = float(len(pending))
            self._m_queue_depth.set(depth)
            if depth > self._m_queue_peak.value:
                self._m_queue_peak.set(depth)
            return
        rejected = 0
        for update in batch.updates:
            if len(self._pending) >= limit:
                if policy == POLICY_BLOCK:
                    while len(self._pending) >= limit:
                        self._space.clear()
                        await self._space.wait()
                elif policy == POLICY_DROP_OLDEST:
                    self._pending.popleft()
                    self._shed_ingest_window += 1
                    self._m_shed.labels("ingest").inc()
                else:  # reject
                    rejected += 1
                    self._shed_ingest_window += 1
                    self._m_rejected.inc()
                    continue
            self._pending.append(update)
            self._m_updates.inc()
        depth = float(len(self._pending))
        self._m_queue_depth.set(depth)
        if depth > self._m_queue_peak.value:
            self._m_queue_peak.set(depth)
        if rejected:
            self._send(
                conn,
                ErrorReply(
                    code=proto.E_OVERLOADED,
                    detail=(
                        f"ingestion queue full ({limit}); "
                        f"{rejected} of {len(batch.updates)} updates rejected"
                    ),
                    seq=batch.seq,
                    count=rejected,
                ),
            )

    # ------------------------------------------------------------------
    # Ticks
    # ------------------------------------------------------------------
    async def _tick_loop(self) -> None:
        assert self.config.tick_interval is not None
        try:
            while True:
                await asyncio.sleep(self.config.tick_interval)
                if self._pending:
                    await self._run_tick()
        except asyncio.CancelledError:
            raise

    async def _run_tick(
        self, trace: Optional[tuple] = None
    ) -> Union[TickAck, ErrorReply]:
        """One tick: drain the queue through ``process()`` and fan out.

        Ticks are serialized by a lock — a block-policy fanout can park
        this coroutine on a slow subscriber, and an explicit ``tick``
        frame (or the timer) arriving meanwhile must not start a second
        ``process()`` or renumber the tick mid-fanout.

        ``trace`` is an explicit ``(trace_id, parent_span_id)`` context
        from a ``tick`` frame; it overrides any context stashed by this
        tick's batch frames, and when either is present the ``serve.tick``
        span *adopts* the client's trace id, so serve ingestion, the
        coordinator's scatter/gather spans, and the shard workers' spans
        all land in one distributed trace.

        A batch the monitor refuses (the default ``strict`` ingestion
        guard raises :class:`~repro.robustness.guard.IngestionError` on
        NaN coordinates, duplicate inserts, or deletes of unknown ids —
        all expressible as well-typed wire frames) is dropped atomically
        (the guard pre-validates before any mutation), counted, and
        reported as a typed :class:`ErrorReply` instead of escaping —
        the tick loop and the server outlive any poison update.
        """
        async with self._tick_lock:
            t0 = time.perf_counter()
            ctx = (
                TraceContext(trace[0], trace[1])
                if trace is not None
                else self._pending_ctx
            )
            self._pending_ctx = None
            window_t0, self._window_t0 = self._window_t0, None
            self._first_fanout_at = None
            batch = list(self._pending)
            self._pending.clear()
            self._space.set()
            self._m_queue_depth.set(0.0)
            shed = self._shed_ingest_window
            self._shed_ingest_window = 0
            tick = self._tick + 1
            try:
                with span_in_context(
                    self.tracer, "serve.tick", ctx, tick=tick, updates=len(batch)
                ):
                    self.monitor.process(batch)
                    events = self.monitor.drain_events()
                    t_processed = time.perf_counter()
                    with self.tracer.span("serve.fanout", events=len(events)):
                        await self._fanout(tick, events)
            except IngestionError as exc:
                self._m_tick_errors.inc()
                self._m_shed.labels("tick").inc(float(len(batch)))
                log.warning(
                    "tick %d failed, %d updates dropped: %s", tick, len(batch), exc
                )
                return ErrorReply(
                    code=proto.E_TICK_FAILED,
                    detail=f"tick failed, {len(batch)} updates dropped: {exc}",
                    count=len(batch),
                )
            self._tick = tick
            self._m_ticks.inc()
            self._m_events.inc(float(len(events)))
            self._m_batch_updates.observe(float(len(batch)))
            t_end = time.perf_counter()
            self._m_tick_seconds.observe(t_end - t0)
            self._m_e2e_seconds.labels("process").observe(t_processed - t0)
            self._m_e2e_seconds.labels("fanout").observe(t_end - t_processed)
            self._m_e2e_seconds.labels("total").observe(t_end - t0)
            if window_t0 is not None:
                request_end = (
                    self._first_fanout_at
                    if self._first_fanout_at is not None
                    else t_end
                )
                self._m_request_seconds.observe(request_end - window_t0)
            return TickAck(
                tick=tick, applied=len(batch), shed=shed, events=len(events)
            )

    async def _fanout(self, tick: int, events) -> None:
        """Deliver one tick's result deltas to every subscriber.

        ``tick`` is the number captured by the owning :meth:`_run_tick`
        — frames must not be stamped from live ``self._tick`` state.
        """
        if not events:
            return
        for conn in list(self._conns.values()):
            if conn.closed or (
                conn.subscriptions is not True and not conn.subscriptions
            ):
                continue
            if conn.subscriptions is True:
                changes = tuple((e.qid, e.oid, e.gained) for e in events)
            else:
                changes = tuple(
                    (e.qid, e.oid, e.gained) for e in events if conn.wants(e.qid)
                )
            if not changes:
                continue
            delivered = await self._send_event_frame(
                conn, EventBatch(tick=tick, changes=changes)
            )
            if delivered:
                if self._first_fanout_at is None:
                    self._first_fanout_at = time.perf_counter()
                self._m_fanout.inc(float(len(changes)))

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def stats_payload(self) -> tuple[dict, dict]:
        """The ``(counters, serve)`` dicts of a :class:`StatsReply`.

        ``counters`` is the monitor's full logical counter snapshot —
        the sharded backend reports its aggregated, single-monitor-
        equivalent counters — and ``serve`` holds every ``crnn_serve_*``
        counter/gauge plus the current tick number.
        """
        if hasattr(self.monitor, "aggregated_stats"):
            counters = self.monitor.aggregated_stats().snapshot()
        else:
            counters = self.monitor.stats.snapshot()
        serve: dict[str, float] = {"tick": float(self._tick)}
        for name, kind, _help, samples in self.registry.collect():
            if not name.startswith("crnn_serve_") or kind == "histogram":
                continue
            for labels, metric in samples:
                key = name if not labels else (
                    name + "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                )
                serve[key] = metric if isinstance(metric, float) else metric.value
        return counters, serve

    async def _handle_message(self, conn: _Connection, msg: proto.Message) -> None:
        if isinstance(msg, Hello):
            self._send(
                conn,
                HelloAck(
                    backend=self.config.backend,
                    policy=self.config.overload,
                    seq=msg.seq,
                ),
            )
        elif isinstance(msg, Batch):
            if self._window_t0 is None:
                self._window_t0 = time.perf_counter()
            if msg.trace is not None:
                self._pending_ctx = TraceContext(msg.trace[0], msg.trace[1])
            await self._admit(conn, msg)
        elif isinstance(msg, Tick):
            ack = await self._run_tick(trace=msg.trace)
            if isinstance(ack, ErrorReply):
                self._send(
                    conn,
                    ErrorReply(
                        code=ack.code,
                        detail=ack.detail,
                        count=ack.count,
                        seq=msg.seq,
                    ),
                )
            else:
                self._send(
                    conn,
                    TickAck(
                        tick=ack.tick,
                        applied=ack.applied,
                        shed=ack.shed,
                        events=ack.events,
                        seq=msg.seq,
                    ),
                )
        elif isinstance(msg, Subscribe):
            if msg.qid is None:
                conn.subscriptions = True
            else:
                if conn.subscriptions is not True:
                    conn.subscriptions.add(msg.qid)
            self._send(conn, Ack(seq=msg.seq))
        elif isinstance(msg, Unsubscribe):
            if msg.qid is None:
                conn.subscriptions = set()
            elif isinstance(conn.subscriptions, set):
                conn.subscriptions.discard(msg.qid)
            self._send(conn, Ack(seq=msg.seq))
        elif isinstance(msg, GetResults):
            try:
                rnn = tuple(sorted(self.monitor.rnn(msg.qid)))
            except KeyError:
                self._send(
                    conn,
                    ErrorReply(
                        code=proto.E_UNKNOWN_QUERY,
                        detail=f"query {msg.qid} is not registered",
                        seq=msg.seq,
                    ),
                )
                return
            self._send(conn, ResultsReply(qid=msg.qid, rnn=rnn, seq=msg.seq))
        elif isinstance(msg, GetStats):
            counters, serve = self.stats_payload()
            self._send(conn, StatsReply(counters=counters, serve=serve, seq=msg.seq))
        elif isinstance(msg, Checkpoint):
            if self.config.checkpoint_path is None:
                self._send(
                    conn,
                    ErrorReply(
                        code=proto.E_UNSUPPORTED,
                        detail="server has no checkpoint_path configured",
                        seq=msg.seq,
                    ),
                )
                return
            size = self._write_checkpoint(self.config.checkpoint_path)
            self._send(
                conn,
                CheckpointAck(
                    path=self.config.checkpoint_path, bytes=size, seq=msg.seq
                ),
            )
        elif isinstance(msg, Shutdown):
            if not self.config.allow_shutdown:
                self._send(
                    conn,
                    ErrorReply(
                        code=proto.E_UNSUPPORTED,
                        detail="wire shutdown is disabled on this server",
                        seq=msg.seq,
                    ),
                )
                return
            self._send(conn, ShutdownAck(drained=msg.drain, seq=msg.seq))
            asyncio.ensure_future(self.shutdown(drain=msg.drain))
        else:
            # A server-to-client message type arriving at the server is
            # well-formed but meaningless here.
            self._m_proto_errors.inc()
            self._send(
                conn,
                ErrorReply(
                    code=proto.E_UNSUPPORTED,
                    detail=f"message type {msg.TYPE!r} is not a request",
                    seq=msg.seq,
                ),
            )


class ServerThread:
    """Host a :class:`CRNNServer` on a dedicated event-loop thread.

    The blocking-world harness every test, bench, and example uses::

        with ServerThread(ServeConfig(...)) as (host, port):
            client = ServeClient(host, port)
            ...

    The context manager starts the loop thread, waits for the listener
    to bind, and on exit performs a draining shutdown and joins the
    thread.  :attr:`server` exposes the live server object for
    white-box assertions (metric reads are plain floats and safe to
    read cross-thread).
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config
        self.server: Optional[CRNNServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self.address: Optional[tuple[str, int]] = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread and the server; returns ``(host, port)``."""
        started = threading.Event()
        box: dict[str, object] = {}

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self.server = CRNNServer(self.config)

            async def _boot() -> None:
                try:
                    box["address"] = await self.server.start()
                except Exception as exc:  # surface bind errors to start()
                    box["error"] = exc
                finally:
                    started.set()

            loop.create_task(_boot())
            loop.run_forever()
            # Drain cancelled tasks and close the loop cleanly.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

        self._thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
        self._thread.start()
        started.wait(timeout=10.0)
        if "error" in box:
            self._thread.join(timeout=1.0)
            raise box["error"]  # type: ignore[misc]
        self.address = box["address"]  # type: ignore[assignment]
        return self.address

    def call(self, coro) -> object:
        """Run a coroutine on the server's loop; block for its result."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=30.0)

    def stop(self, drain: bool = True) -> None:
        """Shut the server down (draining by default) and join the thread."""
        if self._loop is None:
            return
        if self.server is not None:
            try:
                self.call(self.server.shutdown(drain=drain))
            except (RuntimeError, OSError, FuturesTimeoutError):
                pass  # loop already stopping / socket gone: nothing to drain
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._loop = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def main(argv: Optional[list] = None) -> int:
    """CLI entry point (``python -m repro.serve.server``).

    Runs one :class:`CRNNServer` in the foreground until interrupted;
    the shutdown drain (and checkpoint, when ``--checkpoint`` is given)
    runs on Ctrl-C.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 binds an ephemeral port (printed on startup)")
    parser.add_argument("--backend", choices=BACKENDS, default=BACKEND_SERIAL)
    parser.add_argument("--shards", type=int, default=2,
                        help="stripe count of the sharded backend")
    parser.add_argument("--tick-interval", type=float, default=0.1,
                        help="seconds between automatic ticks (0 = explicit ticks only)")
    parser.add_argument("--max-pending", type=int, default=100_000)
    parser.add_argument("--overload", choices=POLICIES, default=POLICY_BLOCK)
    parser.add_argument("--checkpoint", default=None,
                        help="write a verified checkpoint here on shutdown")
    args = parser.parse_args(argv)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        shards=args.shards,
        tick_interval=args.tick_interval or None,
        max_pending=args.max_pending,
        overload=args.overload,
        checkpoint_path=args.checkpoint,
    )
    thread = ServerThread(config)
    host, port = thread.start()
    print(f"[serve] listening on {host}:{port} "
          f"(backend={config.backend}, policy={config.overload})", flush=True)
    try:
        while thread._thread is not None and thread._thread.is_alive():
            thread._thread.join(timeout=1.0)
    except KeyboardInterrupt:
        print("[serve] draining...", flush=True)
    finally:
        thread.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
