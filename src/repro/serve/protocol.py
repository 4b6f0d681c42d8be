"""The sans-io wire layer of :mod:`repro.serve`.

Framing
-------
Every frame is a 4-byte big-endian unsigned length ``N`` followed by
``N`` bytes of UTF-8 JSON encoding one message object.  The codec is
pure (no sockets): :func:`encode_frame` turns a payload dict into
bytes, :class:`FrameDecoder` is fed arbitrary byte chunks and yields
parsed payloads *or* recoverable :class:`ProtocolError` values in
stream order, resynchronising at the next frame boundary after a bad
frame — a malformed frame never poisons the connection.

Messages
--------
Every message is a JSON object carrying ``"v"`` (protocol version,
currently :data:`PROTOCOL_VERSION`), ``"type"`` (one of the registered
names below), an optional client-chosen ``"seq"`` correlation id, and
the type's own fields.  Each type is a frozen dataclass;
:func:`to_wire` serialises any message to its payload dict and
:func:`parse_message` validates a payload dict back into the dataclass,
raising a typed :class:`ProtocolError` (``unknown_version``,
``unknown_type``, ``bad_field``) on anything malformed.  Unknown
*extra* fields are ignored for forward compatibility.

Update encoding
---------------
A ``batch`` frame carries its updates *columnar*: ``"kinds"`` is a
string of ``o``/``q`` characters, ``"ids"`` an array of integers, and
``"xs"``/``"ys"`` aligned coordinate arrays (both entries ``null`` for
a delete).  Columnar beats one JSON object per update by several
microseconds per update on both ends, which at thousands of updates
per tick decides whether the wire path keeps up with in-process
``process()`` (``serve.decode_ms`` and ``serve.wire_overhead_ms`` on
``bench/run.py``'s ``serve-mixed`` workload).  :func:`parse_message`
materialises the columns straight into core
:class:`~repro.core.events.ObjectUpdate`/:class:`~repro.core.events.QueryUpdate`
values (no intermediate layer); :class:`WireUpdate` remains as a
convenience for callers that want a single-update wire view.  JSON
round-trips Python floats exactly (shortest-repr), so the wire path
stays bit-identical to the in-process path.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields
from typing import Any, Iterator, NamedTuple, Optional, Union

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "HEADER",
    "ProtocolError",
    "encode_frame",
    "FrameDecoder",
    "WireUpdate",
    "to_wire",
    "parse_message",
    "MESSAGE_TYPES",
]

#: Wire protocol version; bumped on any incompatible change.
PROTOCOL_VERSION = 1

#: Frame header: 4-byte big-endian unsigned payload length.
HEADER = struct.Struct(">I")

#: Default upper bound on one frame's payload size (bytes).
DEFAULT_MAX_FRAME = 1 << 20

# -- typed error codes -------------------------------------------------
E_BAD_JSON = "bad_json"
E_FRAME_TOO_LARGE = "frame_too_large"
E_TRUNCATED = "truncated"
E_UNKNOWN_TYPE = "unknown_type"
E_UNKNOWN_VERSION = "unknown_version"
E_BAD_FIELD = "bad_field"
E_OVERLOADED = "overloaded"
E_UNKNOWN_QUERY = "unknown_query"
E_SLOW_CONSUMER = "slow_consumer"
E_SHUTTING_DOWN = "shutting_down"
E_UNSUPPORTED = "unsupported"
E_TICK_FAILED = "tick_failed"

#: Every error code a server may put into an ``error`` reply.
ERROR_CODES = (
    E_BAD_JSON,
    E_FRAME_TOO_LARGE,
    E_TRUNCATED,
    E_UNKNOWN_TYPE,
    E_UNKNOWN_VERSION,
    E_BAD_FIELD,
    E_OVERLOADED,
    E_UNKNOWN_QUERY,
    E_SLOW_CONSUMER,
    E_SHUTTING_DOWN,
    E_UNSUPPORTED,
    E_TICK_FAILED,
)


class ProtocolError(ValueError):
    """A typed wire-protocol violation.

    ``code`` is one of :data:`ERROR_CODES`; ``seq`` echoes the
    offending message's correlation id when one could be extracted.
    Frame-level errors (bad JSON, oversize) are *recoverable*: the
    decoder resynchronises and the server answers with a typed
    ``error`` reply instead of dropping the connection.
    """

    def __init__(self, code: str, detail: str = "", seq: Optional[int] = None) -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail
        self.seq = seq


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialise one payload dict into a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame:
        raise ProtocolError(
            E_FRAME_TOO_LARGE, f"frame of {len(body)} bytes exceeds {max_frame}"
        )
    return HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental, resynchronising frame parser.

    Feed raw byte chunks with :meth:`feed`; iterate :meth:`frames` to
    receive, in stream order, either a parsed payload ``dict`` or a
    recoverable :class:`ProtocolError` (bad JSON in a complete frame,
    or a length prefix exceeding ``max_frame`` — the oversized body is
    discarded as it streams in, and decoding resumes at the following
    frame).  The decoder never raises from :meth:`frames`; only
    :meth:`check_eof` raises, flagging a connection that closed mid-frame.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buf = bytearray()
        #: Bytes still to discard from an oversized frame's body.
        self._skip = 0

    def feed(self, data: bytes) -> None:
        """Append a chunk of raw bytes received from the peer."""
        self._buf.extend(data)

    def frames(self) -> Iterator[Union[dict, ProtocolError]]:
        """Yield every complete payload (or recoverable error) buffered."""
        while True:
            if self._skip:
                drop = min(self._skip, len(self._buf))
                del self._buf[:drop]
                self._skip -= drop
                if self._skip:
                    return  # still discarding the oversized body
            if len(self._buf) < HEADER.size:
                return
            (length,) = HEADER.unpack_from(self._buf)
            if length > self.max_frame:
                del self._buf[: HEADER.size]
                self._skip = length
                yield ProtocolError(
                    E_FRAME_TOO_LARGE,
                    f"frame of {length} bytes exceeds {self.max_frame}",
                )
                continue
            if len(self._buf) < HEADER.size + length:
                return
            body = bytes(self._buf[HEADER.size : HEADER.size + length])
            del self._buf[: HEADER.size + length]
            try:
                payload = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                yield ProtocolError(E_BAD_JSON, str(exc))
                continue
            yield payload

    def check_eof(self) -> None:
        """Raise :class:`ProtocolError` if the stream ended mid-frame."""
        if self._buf or self._skip:
            raise ProtocolError(
                E_TRUNCATED,
                f"stream closed with {len(self._buf)} buffered bytes "
                f"and {self._skip} bytes of frame body outstanding",
            )


# ----------------------------------------------------------------------
# Update encoding
# ----------------------------------------------------------------------
KIND_OBJECT = "object"
KIND_QUERY = "query"

Update = Union[ObjectUpdate, QueryUpdate]


class WireUpdate(NamedTuple):
    """A single-update wire view, kept as a public convenience.

    ``pos is None`` encodes a delete, mirroring the core update types'
    semantics exactly.  The hot path no longer materialises these —
    batch frames decode their columns straight into core updates — but
    clients may still hand them to ``send_updates`` and they convert
    losslessly both ways.
    """

    kind: str
    id: int
    pos: Optional[tuple[float, float]]

    def to_update(self) -> Update:
        """The equivalent core update object."""
        point = Point(*self.pos) if self.pos is not None else None
        if self.kind == KIND_OBJECT:
            return ObjectUpdate(self.id, point)
        return QueryUpdate(self.id, point)

    @classmethod
    def from_update(cls, update: Update) -> "WireUpdate":
        """Encode a core update for the wire."""
        if isinstance(update, ObjectUpdate):
            kind, ident = KIND_OBJECT, update.oid
        elif isinstance(update, QueryUpdate):
            kind, ident = KIND_QUERY, update.qid
        else:
            raise TypeError(f"unsupported update {update!r}")
        pos = (update.pos.x, update.pos.y) if update.pos is not None else None
        return cls(kind, ident, pos)


def _enc_batch(msg: "Batch", out: dict) -> None:
    # Hot path: one pass over the batch building the four aligned
    # columns; avoids a dict per update on the wire.
    kind_chars: list[str] = []
    ids: list[int] = []
    xs: list[Optional[float]] = []
    ys: list[Optional[float]] = []
    for u in msg.updates:
        if isinstance(u, WireUpdate):
            u = u.to_update()
        if type(u) is ObjectUpdate:
            kind_chars.append("o")
            ids.append(u.oid)
        elif type(u) is QueryUpdate:
            kind_chars.append("q")
            ids.append(u.qid)
        else:
            raise TypeError(f"unsupported update {u!r}")
        p = u.pos
        if p is None:
            xs.append(None)
            ys.append(None)
        else:
            xs.append(p.x)
            ys.append(p.y)
    out["kinds"] = "".join(kind_chars)
    out["ids"] = ids
    out["xs"] = xs
    out["ys"] = ys


def _dec_batch_updates(raw: dict) -> tuple[Update, ...]:
    # Hot path: validation is hand-rolled rather than layered because a
    # batch frame carries thousands of updates per tick.
    kinds = raw.get("kinds", "")
    ids = raw.get("ids", [])
    xs = raw.get("xs", [])
    ys = raw.get("ys", [])
    if type(kinds) is not str:
        raise ProtocolError(E_BAD_FIELD, "kinds must be a string of o|q characters")
    if type(ids) is not list or type(xs) is not list or type(ys) is not list:
        raise ProtocolError(E_BAD_FIELD, "ids/xs/ys must be arrays")
    n = len(kinds)
    if len(ids) != n or len(xs) != n or len(ys) != n:
        raise ProtocolError(E_BAD_FIELD, "kinds/ids/xs/ys must have equal lengths")
    out: list[Update] = []
    for k, i, x, y in zip(kinds, ids, xs, ys):
        if type(i) is not int:
            if not isinstance(i, int) or isinstance(i, bool):
                raise ProtocolError(E_BAD_FIELD, "update id must be an integer")
        if x is None and y is None:
            p = None
        else:
            tx, ty = type(x), type(y)
            if (tx is not float and (not isinstance(x, int) or tx is bool)) or (
                ty is not float and (not isinstance(y, int) or ty is bool)
            ):
                raise ProtocolError(
                    E_BAD_FIELD, "update pos must be numeric xs/ys entries or both null"
                )
            p = Point(float(x), float(y))
        if k == "o":
            out.append(ObjectUpdate(i, p))
        elif k == "q":
            out.append(QueryUpdate(i, p))
        else:
            raise ProtocolError(E_BAD_FIELD, f"kind characters must be o|q, got {k!r}")
    return tuple(out)


# ----------------------------------------------------------------------
# Message dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class _Base:
    """Fields shared by every message (the correlation id)."""

    seq: Optional[int] = None


# -- client -> server --------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class Hello(_Base):
    """Open a session; the server answers with :class:`HelloAck`."""

    TYPE = "hello"
    client: str = ""


@dataclass(frozen=True, kw_only=True)
class Batch(_Base):
    """A run of location updates to enqueue (admission-controlled).

    ``updates`` holds core update values
    (:class:`~repro.core.events.ObjectUpdate` /
    :class:`~repro.core.events.QueryUpdate`); on the wire they travel
    as aligned columns (see the module docstring).
    """

    TYPE = "batch"
    updates: tuple[Update, ...] = ()
    #: Optional distributed trace context ``(trace_id, parent_span_id)``
    #: (the parent may be ``null`` on the wire); stashed by the server
    #: and adopted by the tick that consumes this batch, so one client
    #: trace spans serve ingestion through the shard workers.  Absent
    #: from v1 frames written by older clients — decoding is unchanged.
    trace: Optional[tuple] = None


@dataclass(frozen=True, kw_only=True)
class Subscribe(_Base):
    """Subscribe to result deltas of ``qid`` (``None`` = every query)."""

    TYPE = "subscribe"
    qid: Optional[int] = None


@dataclass(frozen=True, kw_only=True)
class Unsubscribe(_Base):
    """Drop a :class:`Subscribe` registration (same ``qid`` semantics)."""

    TYPE = "unsubscribe"
    qid: Optional[int] = None


@dataclass(frozen=True, kw_only=True)
class Tick(_Base):
    """Flush the pending queue through one ``process()`` batch now."""

    TYPE = "tick"
    #: Optional trace context ``(trace_id, parent_span_id)``; overrides
    #: any context stashed by this tick's batch frames (see
    #: :attr:`Batch.trace`).
    trace: Optional[tuple] = None


@dataclass(frozen=True, kw_only=True)
class GetResults(_Base):
    """Read the current RNN set of one query."""

    TYPE = "results"
    qid: int = 0


@dataclass(frozen=True, kw_only=True)
class GetStats(_Base):
    """Read the monitor's logical counters and the serve-layer gauges."""

    TYPE = "stats"


@dataclass(frozen=True, kw_only=True)
class Checkpoint(_Base):
    """Write a verified checkpoint to the server's configured path."""

    TYPE = "checkpoint"


@dataclass(frozen=True, kw_only=True)
class Shutdown(_Base):
    """Ask the server to stop (draining first unless ``drain=False``)."""

    TYPE = "shutdown"
    drain: bool = True


# -- server -> client --------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class HelloAck(_Base):
    """Session opened; advertises the backend and shedding policy."""

    TYPE = "hello_ack"
    server: str = "repro.serve"
    backend: str = "serial"
    policy: str = "block"


@dataclass(frozen=True, kw_only=True)
class Ack(_Base):
    """Generic positive reply to a control message."""

    TYPE = "ack"


@dataclass(frozen=True, kw_only=True)
class ErrorReply(_Base):
    """Typed negative reply; ``code`` is one of :data:`ERROR_CODES`.

    ``count`` aggregates identical rejections (e.g. how many updates of
    one batch were shed under the ``reject`` policy).
    """

    TYPE = "error"
    code: str = E_BAD_FIELD
    detail: str = ""
    count: int = 1


@dataclass(frozen=True, kw_only=True)
class TickAck(_Base):
    """One tick completed: batch sizes and event volume."""

    TYPE = "tick_ack"
    tick: int = 0
    applied: int = 0
    shed: int = 0
    events: int = 0


@dataclass(frozen=True, kw_only=True)
class EventBatch(_Base):
    """One tick's result deltas for this subscriber.

    ``changes`` are ``(qid, oid, gained)`` triples in the monitor's
    merged emission order; ``gap=True`` warns that earlier deltas were
    shed for this subscriber (slow consumer) and the client should
    re-read affected results via :class:`GetResults`.
    """

    TYPE = "events"
    tick: int = 0
    changes: tuple[tuple[int, int, bool], ...] = ()
    gap: bool = False


@dataclass(frozen=True, kw_only=True)
class ResultsReply(_Base):
    """Current RNN set of one query (sorted object ids)."""

    TYPE = "results_reply"
    qid: int = 0
    rnn: tuple[int, ...] = ()


@dataclass(frozen=True, kw_only=True)
class StatsReply(_Base):
    """Counter/gauge snapshot (see :meth:`CRNNServer.stats_payload`)."""

    TYPE = "stats_reply"
    counters: dict = None  # type: ignore[assignment]
    serve: dict = None  # type: ignore[assignment]


@dataclass(frozen=True, kw_only=True)
class CheckpointAck(_Base):
    """Checkpoint written: where and how large."""

    TYPE = "checkpoint_ack"
    path: str = ""
    bytes: int = 0


@dataclass(frozen=True, kw_only=True)
class ShutdownAck(_Base):
    """Shutdown accepted; the connection closes after the drain."""

    TYPE = "shutdown_ack"
    drained: bool = True


#: Registry of every message type, keyed by wire name.
MESSAGE_TYPES: dict[str, type] = {
    cls.TYPE: cls  # type: ignore[attr-defined]
    for cls in (
        Hello,
        Batch,
        Subscribe,
        Unsubscribe,
        Tick,
        GetResults,
        GetStats,
        Checkpoint,
        Shutdown,
        HelloAck,
        Ack,
        ErrorReply,
        TickAck,
        EventBatch,
        ResultsReply,
        StatsReply,
        CheckpointAck,
        ShutdownAck,
    )
}

Message = _Base


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def _encode_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_encode_value(v) for v in value]
    return value


def to_wire(msg: Message) -> dict:
    """Serialise a message dataclass into its wire payload dict."""
    out: dict[str, Any] = {"v": PROTOCOL_VERSION, "type": msg.TYPE}  # type: ignore[attr-defined]
    if msg.seq is not None:
        out["seq"] = msg.seq
    if type(msg) is Batch:
        _enc_batch(msg, out)
        if msg.trace is not None:
            out["trace"] = _encode_value(msg.trace)
        return out
    for f in fields(msg):
        if f.name == "seq":
            continue
        value = getattr(msg, f.name)
        if f.name == "trace" and value is None:
            continue  # keep no-trace frames byte-identical to v1 peers
        out[f.name] = _encode_value(value)
    return out


def _need_int(raw: dict, name: str, default: Optional[int] = None, *, optional: bool = False) -> Any:
    value = raw.get(name, default)
    if value is None and optional:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(E_BAD_FIELD, f"{name} must be an integer")
    return value


def _need_bool(raw: dict, name: str, default: bool) -> bool:
    value = raw.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(E_BAD_FIELD, f"{name} must be a boolean")
    return value


def _need_str(raw: dict, name: str, default: str) -> str:
    value = raw.get(name, default)
    if not isinstance(value, str):
        raise ProtocolError(E_BAD_FIELD, f"{name} must be a string")
    return value


def _need_dict(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ProtocolError(E_BAD_FIELD, f"{name} must be an object")
    return value


def _dec_trace(raw: dict) -> Optional[tuple]:
    """Validate an optional ``trace`` field: ``[trace_id, parent|null]``."""
    value = raw.get("trace")
    if value is None:
        return None
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not isinstance(value[0], int)
        or isinstance(value[0], bool)
        or (
            value[1] is not None
            and (not isinstance(value[1], int) or isinstance(value[1], bool))
        )
    ):
        raise ProtocolError(
            E_BAD_FIELD, "trace must be [trace_id, parent_span_id|null]"
        )
    return (value[0], value[1])


def _dec_changes(raw: Any) -> tuple[tuple[int, int, bool], ...]:
    if not isinstance(raw, list):
        raise ProtocolError(E_BAD_FIELD, "changes must be an array")
    out = []
    for item in raw:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 3
            or not isinstance(item[0], int)
            or not isinstance(item[1], int)
            or not isinstance(item[2], bool)
        ):
            raise ProtocolError(E_BAD_FIELD, "each change must be [qid, oid, gained]")
        out.append((item[0], item[1], item[2]))
    return tuple(out)


def _dec_int_tuple(raw: Any, name: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in raw
    ):
        raise ProtocolError(E_BAD_FIELD, f"{name} must be an array of integers")
    return tuple(raw)


def parse_message(raw: Any) -> Message:
    """Validate a decoded payload dict into its message dataclass.

    Raises :class:`ProtocolError` with code ``bad_field`` for a
    non-object payload or a field of the wrong shape,
    ``unknown_version`` for an unsupported ``"v"``, and
    ``unknown_type`` for an unregistered ``"type"``.  The error carries
    the payload's ``seq`` when one is present and well-typed, so the
    server's reply can still be correlated.
    """
    if not isinstance(raw, dict):
        raise ProtocolError(E_BAD_FIELD, "message must be a JSON object")
    seq_raw = raw.get("seq")
    seq = seq_raw if isinstance(seq_raw, int) and not isinstance(seq_raw, bool) else None
    try:
        version = raw.get("v")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                E_UNKNOWN_VERSION,
                f"protocol version {version!r} not supported (speak v{PROTOCOL_VERSION})",
            )
        mtype = raw.get("type")
        cls = MESSAGE_TYPES.get(mtype) if isinstance(mtype, str) else None
        if cls is None:
            raise ProtocolError(E_UNKNOWN_TYPE, f"unknown message type {mtype!r}")
        if seq_raw is not None and seq is None:
            raise ProtocolError(E_BAD_FIELD, "seq must be an integer")
        kwargs: dict[str, Any] = {"seq": seq}
        if cls is Hello:
            kwargs["client"] = _need_str(raw, "client", "")
        elif cls is Batch:
            kwargs["updates"] = _dec_batch_updates(raw)
            kwargs["trace"] = _dec_trace(raw)
        elif cls is Tick:
            kwargs["trace"] = _dec_trace(raw)
        elif cls in (Subscribe, Unsubscribe):
            kwargs["qid"] = _need_int(raw, "qid", None, optional=True)
        elif cls is GetResults:
            kwargs["qid"] = _need_int(raw, "qid")
        elif cls is Shutdown:
            kwargs["drain"] = _need_bool(raw, "drain", True)
        elif cls is HelloAck:
            kwargs["server"] = _need_str(raw, "server", "repro.serve")
            kwargs["backend"] = _need_str(raw, "backend", "serial")
            kwargs["policy"] = _need_str(raw, "policy", "block")
        elif cls is ErrorReply:
            code = _need_str(raw, "code", E_BAD_FIELD)
            if code not in ERROR_CODES:
                raise ProtocolError(E_BAD_FIELD, f"unknown error code {code!r}")
            kwargs["code"] = code
            kwargs["detail"] = _need_str(raw, "detail", "")
            kwargs["count"] = _need_int(raw, "count", 1)
        elif cls is TickAck:
            for name in ("tick", "applied", "shed", "events"):
                kwargs[name] = _need_int(raw, name, 0)
        elif cls is EventBatch:
            kwargs["tick"] = _need_int(raw, "tick", 0)
            kwargs["changes"] = _dec_changes(raw.get("changes", []))
            kwargs["gap"] = _need_bool(raw, "gap", False)
        elif cls is ResultsReply:
            kwargs["qid"] = _need_int(raw, "qid")
            kwargs["rnn"] = _dec_int_tuple(raw.get("rnn", []), "rnn")
        elif cls is StatsReply:
            kwargs["counters"] = _need_dict(raw, "counters")
            kwargs["serve"] = _need_dict(raw, "serve")
        elif cls is CheckpointAck:
            kwargs["path"] = _need_str(raw, "path", "")
            kwargs["bytes"] = _need_int(raw, "bytes", 0)
        elif cls is ShutdownAck:
            kwargs["drained"] = _need_bool(raw, "drained", True)
        # Hello-less control messages (Tick, GetStats, Checkpoint, Ack)
        # carry no fields beyond seq.
        return cls(**kwargs)
    except ProtocolError as exc:
        if exc.seq is None:
            exc.seq = seq
        raise
