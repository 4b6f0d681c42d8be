"""``repro.serve`` — the streaming service frontend of the monitor.

The first network boundary in the codebase: a stdlib-only asyncio TCP
service that fronts a :class:`~repro.core.monitor.CRNNMonitor` or
:class:`~repro.shard.monitor.ShardedCRNNMonitor` behind a versioned,
length-prefixed JSON-lines wire protocol.  Clients stream object/query
location updates in, the server coalesces them into tick batches with
bounded queues and explicit load-shedding policies, and every drained
result delta fans out incrementally to the per-query subscribers.

The three legs:

* :mod:`repro.serve.protocol` — the sans-io wire layer: frame codec,
  typed message dataclasses, validation, and typed protocol errors;
* :mod:`repro.serve.server` — :class:`CRNNServer`, the tick-batched
  asyncio ingestion loop with admission control, subscription fanout,
  graceful drain, and checkpoint-on-shutdown, plus the
  :class:`ServerThread` harness that hosts it on a background thread;
* :mod:`repro.serve.client` — the sans-io :class:`ClientSession`
  state machine and the blocking :class:`ServeClient` convenience
  wrapper.

The wire path is *bit-identical* to the in-process path: a seeded
workload replayed through TCP yields the same event stream, results and
logical counters as direct ``process()`` calls (the ``wire`` subject of
``tests/test_exactness.py``, run by ``tests/test_serve_parity.py``).
"""

from repro.serve.client import ClientSession, ServeClient
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    WireUpdate,
    encode_frame,
    parse_message,
    to_wire,
)
from repro.serve.server import CRNNServer, ServeConfig, ServerThread

__all__ = [
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "ProtocolError",
    "WireUpdate",
    "encode_frame",
    "parse_message",
    "to_wire",
    "CRNNServer",
    "ServeConfig",
    "ServerThread",
    "ClientSession",
    "ServeClient",
]
