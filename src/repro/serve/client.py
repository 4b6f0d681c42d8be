"""Client-side access to a :class:`~repro.serve.server.CRNNServer`.

Two layers, outermost first:

* :class:`ServeClient` — a blocking convenience wrapper over a plain
  ``socket``: the one-liner interface examples, tests, and benches use
  (``add_object`` / ``send_updates`` / ``tick`` / ``results`` / ...).
* :class:`ClientSession` — the shared sans-io state machine: it builds
  request frames (assigning correlation ids), decodes received bytes
  into messages, and routes them into *replies* (matched by ``seq``)
  versus asynchronously delivered *event* frames.  The wrapper is a
  thin I/O shim around it, so the protocol logic is tested without
  sockets.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Iterable, Optional, Sequence, Union

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point
from repro.serve import protocol as proto
from repro.serve.protocol import (
    Batch,
    Checkpoint,
    ErrorReply,
    EventBatch,
    FrameDecoder,
    GetResults,
    GetStats,
    Hello,
    ProtocolError,
    Shutdown,
    Subscribe,
    Tick,
    Unsubscribe,
    WireUpdate,
    encode_frame,
    parse_message,
    to_wire,
)

__all__ = ["ServerError", "ClientSession", "ServeClient"]

Update = Union[ObjectUpdate, QueryUpdate]

#: Updates per ``batch`` frame when chunking large sends.
BATCH_CHUNK = 2_000


class ServerError(RuntimeError):
    """A typed ``error`` reply received for one of our requests."""

    def __init__(self, reply: ErrorReply):
        super().__init__(f"{reply.code}: {reply.detail}")
        self.reply = reply

    @property
    def code(self) -> str:
        """The server's error code (one of ``protocol.ERROR_CODES``)."""
        return self.reply.code


class ClientSession:
    """Sans-io protocol state machine shared by both client wrappers."""

    def __init__(self, max_frame: int = proto.DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self._decoder = FrameDecoder(max_frame)
        self._seq = 0
        #: Event frames received but not yet taken by the application.
        self.events: deque[EventBatch] = deque()
        #: Unsolicited error frames (no ``seq``), e.g. a slow-consumer
        #: disconnect notice or an admission rejection of a fire-and-
        #: forget batch.
        self.errors: deque[ErrorReply] = deque()

    def next_seq(self) -> int:
        """A fresh correlation id for an outgoing request."""
        self._seq += 1
        return self._seq

    def encode(self, msg: proto.Message) -> bytes:
        """Serialise one outgoing message into its frame bytes."""
        return encode_frame(to_wire(msg), self.max_frame)

    def feed(self, data: bytes) -> list[proto.Message]:
        """Decode received bytes; returns *reply* messages in order.

        Event frames are diverted into :attr:`events` and unsolicited
        errors into :attr:`errors`; everything else (acks, replies,
        errors answering a request) is returned for the caller's
        request/reply bookkeeping.  A malformed frame from the server is
        a fatal :class:`ProtocolError` — clients do not resync.
        """
        self._decoder.feed(data)
        replies: list[proto.Message] = []
        for frame in self._decoder.frames():
            if isinstance(frame, ProtocolError):
                raise frame
            msg = parse_message(frame)
            if isinstance(msg, EventBatch):
                self.events.append(msg)
            elif isinstance(msg, ErrorReply) and msg.seq is None:
                self.errors.append(msg)
            else:
                replies.append(msg)
        return replies

    def take_events(self) -> list[EventBatch]:
        """Drain and return the buffered event frames, oldest first."""
        out = list(self.events)
        self.events.clear()
        return out


def _route_replies(
    session: ClientSession, replies: list[proto.Message], seq: int
) -> Optional[proto.Message]:
    """Pick the reply matching ``seq`` out of a decoded batch.

    Typed errors answering *other* requests (a fire-and-forget batch's
    admission rejection) are stashed in ``session.errors``; a non-error
    reply with a foreign ``seq`` means crossed streams and is fatal.
    Returns the matching reply, raising :class:`ServerError` when it is
    a typed error, or ``None`` when it has not arrived yet.
    """
    found: Optional[proto.Message] = None
    for reply in replies:
        if reply.seq == seq:
            if isinstance(reply, ErrorReply):
                raise ServerError(reply)
            found = reply
        elif isinstance(reply, ErrorReply):
            session.errors.append(reply)
        else:
            raise ProtocolError(
                proto.E_BAD_FIELD, f"unexpected reply seq {reply.seq} (wanted {seq})"
            )
    return found


def _as_core_updates(updates: Iterable[Union[Update, WireUpdate]]) -> list[Update]:
    return [u.to_update() if isinstance(u, WireUpdate) else u for u in updates]


class ServeClient:
    """Blocking convenience client (plain ``socket``).

    Opens the connection and performs the ``hello`` handshake in the
    constructor; every request method blocks until its reply arrives,
    stashing any event frames that interleave (read them with
    :meth:`take_events`).  Use as a context manager to close cleanly.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        client_name: str = "repro.serve.client",
        max_frame: int = proto.DEFAULT_MAX_FRAME,
        so_rcvbuf: Optional[int] = None,
    ):
        self.session = ClientSession(max_frame)
        self._timeout = timeout
        if so_rcvbuf is not None:
            # Kernel receive buffers only shrink when set *before*
            # connect(), so the small-buffer test knob cannot use
            # create_connection().
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, so_rcvbuf)
            self._sock.settimeout(timeout)
            self._sock.connect((host, port))
        else:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self.hello: proto.HelloAck = self._request(
            Hello(client=client_name, seq=self.session.next_seq())
        )

    # -- plumbing ------------------------------------------------------
    def _send_raw(self, data: bytes) -> None:
        self._sock.sendall(data)

    def _request(self, msg: proto.Message) -> proto.Message:
        """Send ``msg`` and block for the reply matching its ``seq``."""
        assert msg.seq is not None
        self._send_raw(self.session.encode(msg))
        return self._wait_reply(msg.seq)

    def _wait_reply(self, seq: int) -> proto.Message:
        while True:
            replies = self.session.feed(self._recv())
            got = _route_replies(self.session, replies, seq)
            if got is not None:
                return got

    def _recv(self) -> bytes:
        data = self._sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        return data

    # -- updates -------------------------------------------------------
    def send_updates(self, updates: Sequence[Union[Update, WireUpdate]]) -> None:
        """Fire-and-forget: enqueue updates on the server (chunked).

        Admission rejections (``reject`` policy) arrive asynchronously
        as typed errors — check :meth:`take_errors` or the next
        :meth:`tick` reply's ``shed`` count.
        """
        core = _as_core_updates(updates)
        for lo in range(0, len(core), BATCH_CHUNK):
            chunk = tuple(core[lo : lo + BATCH_CHUNK])
            self._send_raw(self.session.encode(Batch(updates=chunk, seq=self.session.next_seq())))

    def add_object(self, oid: int, x: float, y: float) -> None:
        """Enqueue an object insert/move (applied at the next tick)."""
        self.send_updates([ObjectUpdate(oid, Point(x, y))])

    def remove_object(self, oid: int) -> None:
        """Enqueue an object delete."""
        self.send_updates([ObjectUpdate(oid, None)])

    def add_query(self, qid: int, x: float, y: float) -> None:
        """Enqueue a query registration/move."""
        self.send_updates([QueryUpdate(qid, Point(x, y))])

    def remove_query(self, qid: int) -> None:
        """Enqueue a query deregistration."""
        self.send_updates([QueryUpdate(qid, None)])

    # -- requests ------------------------------------------------------
    def tick(self, trace: Optional[tuple] = None) -> proto.TickAck:
        """Flush everything enqueued so far through one ``process()``.

        ``trace`` optionally carries a client-side distributed trace
        context ``(trace_id, parent_span_id)``; a tracing-enabled server
        adopts it for the whole tick, so the client's trace spans serve
        ingestion down to the shard workers (DESIGN §12).
        """
        return self._request(Tick(trace=trace, seq=self.session.next_seq()))

    def subscribe(self, qid: Optional[int] = None) -> None:
        """Receive result deltas for ``qid`` (``None`` = every query)."""
        self._request(Subscribe(qid=qid, seq=self.session.next_seq()))

    def unsubscribe(self, qid: Optional[int] = None) -> None:
        """Drop a subscription (``None`` clears all of them)."""
        self._request(Unsubscribe(qid=qid, seq=self.session.next_seq()))

    def results(self, qid: int) -> tuple[int, ...]:
        """The query's current RNN set (sorted object ids)."""
        reply = self._request(GetResults(qid=qid, seq=self.session.next_seq()))
        return reply.rnn

    def stats(self) -> proto.StatsReply:
        """Logical counters + serve-layer gauges, straight off the wire."""
        return self._request(GetStats(seq=self.session.next_seq()))

    def checkpoint(self) -> proto.CheckpointAck:
        """Ask the server to write its configured checkpoint now."""
        return self._request(Checkpoint(seq=self.session.next_seq()))

    def shutdown(self, drain: bool = True) -> proto.ShutdownAck:
        """Stop the server (drains first unless ``drain=False``)."""
        return self._request(Shutdown(drain=drain, seq=self.session.next_seq()))

    # -- events --------------------------------------------------------
    def take_events(self) -> list[EventBatch]:
        """Event frames collected while waiting for replies."""
        return self.session.take_events()

    def take_errors(self) -> list[ErrorReply]:
        """Unsolicited typed errors (admission rejections etc.)."""
        out = list(self.session.errors)
        self.session.errors.clear()
        return out

    def drain_socket(self, max_wait: float = 0.2) -> None:
        """Opportunistically read whatever the server has already sent.

        Useful for collecting event frames between requests without
        issuing one; stops at the first read timeout.
        """
        self._sock.settimeout(max_wait)
        try:
            while True:
                self.session.feed(self._recv())
        except (TimeoutError, socket.timeout):
            pass
        finally:
            self._sock.settimeout(self._timeout)

    def close(self) -> None:
        """Close the connection."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
