"""Crash-consistent shard state capture: tick journal + rehydration.

Recovery contract (DESIGN §10): a shard worker that dies mid-stream must
be rebuilt so that its engine state *and* its event-emission positions
are bit-identical to a worker that never crashed.  Two pieces make that
possible:

1. **Per-shard exact checkpoints** — :func:`engine_snapshot` wraps
   :func:`repro.robustness.checkpoint.snapshot_exact`, which captures
   the ground truth plus the history-dependent lazy circ certificates
   and the full counter state, so a restore continues bit-identically.
2. **The tick journal (WAL)** — every state-mutating request the
   coordinator sends after the checkpoint is appended *before* the send
   (write-ahead), so after a crash the supervisor replays exactly the
   requests the dead worker received (or was about to receive).  Each
   worker is deterministic given its request stream — NN order is
   canonical under ``(distance, oid)``, batched and scalar paths tag
   events by position, sanitization happened coordinator-side — so the
   replayed replies equal the originals and are discarded, except the
   failed request's own reply, which the supervisor returns to the
   caller as if nothing had happened.

Which requests are journaled is declared once, in the op table of
:mod:`repro.shard.engine` (:data:`~repro.shard.engine.JOURNALED_OPS`).
An unjournaled request does not advance engine state, so a failed one
is simply re-issued after rehydration.  Channel-lifecycle requests
(:data:`~repro.shard.engine.LIFECYCLE_OPS`) are never journaled: the
worker loop and the supervisor's degraded in-process path handle them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.robustness.checkpoint import (
    CheckpointError,
    restore_exact,
    snapshot_exact,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import MonitorConfig
    from repro.shard.engine import ShardEngine
    from repro.shard.plan import StripePlan

__all__ = [
    "TickJournal",
    "engine_snapshot",
    "rehydrate_engine",
]


class TickJournal:
    """Write-ahead log of one shard's mutating requests since its last
    checkpoint.

    Entries are the request tuples themselves (``(op, *args)``) in send
    order; replaying them through a freshly restored engine reproduces
    the crashed worker's state exactly (module docstring).  The journal
    is truncated whenever a new exact checkpoint is taken.
    """

    __slots__ = ("entries", "appended_total", "truncations")

    def __init__(self) -> None:
        #: Pending requests since the last checkpoint, in send order.
        self.entries: list[tuple] = []
        #: Lifetime count of appended requests (observability).
        self.appended_total = 0
        #: Lifetime count of checkpoint truncations (observability).
        self.truncations = 0

    def append(self, request: tuple) -> None:
        """Record one mutating request (call *before* sending it)."""
        self.entries.append(request)
        self.appended_total += 1

    def clear(self) -> None:
        """Truncate after a successful checkpoint."""
        if self.entries:
            self.entries = []
        self.truncations += 1

    def __len__(self) -> int:
        return len(self.entries)


def engine_snapshot(engine: "ShardEngine") -> dict[str, Any]:
    """Exact checkpoint of one shard engine (worker-side ``checkpoint`` op).

    The inner monitor's :func:`snapshot_exact` plus the shard id, so a
    rehydration can refuse a snapshot that belongs to a different
    stripe.
    """
    snap = snapshot_exact(engine.inner)
    snap["shard"] = engine.shard
    return snap


def rehydrate_engine(
    config: "MonitorConfig",
    plan: "StripePlan",
    shard: int,
    snap: dict[str, Any],
) -> "ShardEngine":
    """Rebuild a shard engine from an exact checkpoint.

    Constructs a fresh private-grid :class:`ShardEngine` for ``shard``,
    restores the inner monitor bit-identically via :func:`restore_exact`
    (which verifies results and invariants), and re-installs the
    engine's event-attribution wrapper.  Replaying the shard's tick
    journal afterwards brings the engine to the crashed worker's exact
    pre-failure state.
    """
    from repro.shard.engine import ShardEngine

    recorded = snap.get("shard")
    if recorded is not None and recorded != shard:
        raise CheckpointError(
            f"shard checkpoint belongs to shard {recorded}, not {shard}"
        )
    engine = ShardEngine(config, plan, shard)
    engine.adopt_inner(restore_exact(snap, verify=True))
    return engine
