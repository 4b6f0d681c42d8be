"""One shard's compute engine: an inner monitor plus event attribution.

A :class:`ShardEngine` owns the monitoring state (query table, pie
registrations, circle-table circ store) of the queries that live in its stripe,
wrapped around an ordinary :class:`~repro.core.monitor.CRNNMonitor`
over a *private full replica* of the object grid (under either
executor).  The engine drives the inner monitor's phases — the
stripe's whole pie resolution in one call, the circ steps move by
move — and tags every emitted
:class:`~repro.core.events.ResultChange` with a sort key that encodes
where in the single-monitor execution order the event would have
occurred.  Merging all shards' tagged streams by key therefore
reconstructs the single monitor's event stream bit for bit (the parity
contract of DESIGN §9).

The coordinator↔shard protocol is declared once, here: :data:`OPS`
maps each dispatchable op to its handler and whether it is journaled
(:data:`JOURNALED_OPS`), and :data:`LIFECYCLE_OPS` names the ops the
worker loop serves itself.  Every executor, the supervisor and the
worker read these tables.

Tag layout (6-tuple of ints, lexicographic):

==========================  ==========================================
``(1, qid, 0, 0, 0, 0)``    pies phase, resolution of query ``qid``
``(2, m, 0, 0, qid, sec)``  circs phase, move ``m``, step 1 on record
                            ``(qid, sec)``
``(2, m, 1, cand, qid, sec)`` circs phase, move ``m``, step 2 shrink of
                            ``(qid, sec)`` via the circle of ``cand``
``(3, j, 0, 0, 0, 0)``      queries phase / API query op ``j``
==========================  ==========================================
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Callable, NamedTuple, Optional

from repro.core.config import MonitorConfig
from repro.core.events import ResultChange
from repro.core.monitor import CRNNMonitor, apply_grid_updates
from repro.core.update_pie import (
    _resolve_affected,
    build_affected_map_vector,
    handle_update_pies,
)
from repro.geometry.point import Point
from repro.shard.plan import StripePlan

__all__ = [
    "JOURNALED_OPS",
    "LIFECYCLE_OPS",
    "OPS",
    "ShardEngine",
    "ShardOp",
    "TaggedEvent",
    "dispatch_op",
]

#: A result-change event paired with its global-order sort key.
TaggedEvent = tuple[tuple[int, int, int, int, int, int], ResultChange]

_PHASE_PIES = 1
_PHASE_CIRCS = 2
_PHASE_QUERIES = 3


class ShardEngine:
    """The per-shard execution unit (see module docstring).

    Parameters
    ----------
    config:
        The monitor configuration; its ``observability`` field is
        stripped (shard-level observability belongs to the coordinator)
        and it must select a FUR-store variant.
    plan:
        The stripe plan this engine participates in.
    shard:
        This engine's shard index in ``[0, plan.shards)``.
    """

    def __init__(self, config: MonitorConfig, plan: StripePlan, shard: int):
        if not config.uses_fur_store:
            raise ValueError(
                "sharding requires a FUR-store variant ('lu-only' or 'lu+pi'); "
                f"got {config.variant!r}"
            )
        if config.observability is not None:
            config = replace(config, observability=None)
        self.plan = plan
        self.shard = shard
        self.inner = CRNNMonitor(config)
        #: Event index in ``inner._events`` -> sort tag, filled by the
        #: emit wrapper below and by :meth:`_fill_query_tags`.
        self._tags: dict[int, tuple[int, int, int, int, int, int]] = {}
        self._phase = 0
        self._query_seq = 0
        self._install_emit_wrapper()

    def adopt_inner(self, monitor: CRNNMonitor) -> None:
        """Swap in a rehydrated inner monitor (crash recovery).

        Used by :func:`repro.shard.journal.rehydrate_engine` after an
        exact restore: the engine keeps its shard identity and tag
        machinery but adopts the rebuilt monitor and re-installs the
        emit wrapper on its circ store.
        """
        self.inner = monitor
        self._tags = {}
        self._phase = 0
        self._install_emit_wrapper()

    # ------------------------------------------------------------------
    # Event attribution
    # ------------------------------------------------------------------
    def _install_emit_wrapper(self) -> None:
        inner = self.inner
        orig = inner._on_result_change

        def tagged_emit(change: ResultChange) -> None:
            before = len(inner._events)
            orig(change)
            if len(inner._events) > before:
                self._tags[before] = self._tag(change)

        # The circ store captured the bound method at construction;
        # rebind its emit attribute so every store-driven emission is
        # observed.  Monitor-direct appends (update_query net diffs) are
        # tagged after the fact by _fill_query_tags.
        inner.circ.emit = tagged_emit

    def _tag(self, change: ResultChange) -> tuple[int, int, int, int, int, int]:
        """The sort key of the attribution unit ``change`` belongs to."""
        if self._phase == _PHASE_PIES:
            # A pie resolution only ever changes its own query's result.
            return (_PHASE_PIES, change.qid, 0, 0, 0, 0)
        if self._phase == _PHASE_CIRCS:
            circ = self.inner.circ
            ctx = circ.emit_ctx
            if ctx and ctx[0] == 1:  # step 2: (1, cand, qid, sector)
                return (_PHASE_CIRCS, circ.move_seq, 1, ctx[1], ctx[2], ctx[3])
            if ctx and ctx[0] == 0:  # step 1: (0, qid, sector)
                return (_PHASE_CIRCS, circ.move_seq, 0, 0, ctx[1], ctx[2])
            return (_PHASE_CIRCS, circ.move_seq, 0, 0, 0, 0)
        return (_PHASE_QUERIES, self._query_seq, 0, 0, 0, 0)

    def _fill_query_tags(self, mark: int) -> None:
        """Tag events a query op appended outside the emit wrapper."""
        tag = (_PHASE_QUERIES, self._query_seq, 0, 0, 0, 0)
        for i in range(mark, len(self.inner._events)):
            self._tags.setdefault(i, tag)

    def drain_tagged(self) -> list[TaggedEvent]:
        """All tagged events accumulated since the previous drain."""
        events = self.inner._events
        self.inner._events = []
        tags, self._tags = self._tags, {}
        out: list[TaggedEvent] = []
        for i, event in enumerate(events):
            tag = tags.get(i)
            assert tag is not None, f"untagged shard event at index {i}: {event}"
            out.append((tag, event))
        return out

    # ------------------------------------------------------------------
    # Object phases (one tick)
    # ------------------------------------------------------------------
    def tick_object_phases(
        self, sanitized: list, want_halo: bool = False
    ) -> tuple[int, int, Optional[dict[int, int]]]:
        """One tick: grid replica + pies + circs in one call.

        Applies the batch's object updates to the private grid replica,
        then runs this shard's pie and circ maintenance over the full
        move list.  Returns ``(n_moves, n_circ_moves, halo)``: the
        second component counts moves with a surviving position (the
        single-monitor containment-query count the coordinator needs
        for counter aggregation), and ``halo`` is the per-shard
        boundary-crossing count (computed from the move list, only when
        ``want_halo`` — one shard reporting for the fleet is enough).
        """
        inner = self.inner
        moves: list[tuple[int, Optional[Point], Optional[Point]]] = []
        query_updates: list = []
        apply_grid_updates(inner.grid, sanitized, moves, query_updates)
        if moves:
            self.resolve_pies(build_affected_map_vector(inner, moves))
            self.run_circs(moves)
        n_circ = sum(1 for _oid, _old, new in moves if new is not None)
        halo = self.plan.halo_counts(moves) if want_halo else None
        return len(moves), n_circ, halo

    def resolve_pies(self, affected: dict[int, set[int]]) -> None:
        """Pie maintenance for this shard's affected queries.

        ``affected`` is built on this engine's own replica, whose cells
        carry only its own queries' registrations.  One call resolves
        the whole stripe with the exact single-monitor batch logic — so
        its searches share the multi-query kernel — and each event is
        tagged by the query it reports on.
        """
        self._phase = _PHASE_PIES
        try:
            _resolve_affected(self.inner, affected)
        finally:
            self._phase = 0

    def run_circs(
        self, moves: list[tuple[int, Optional[Point], Optional[Point]]]
    ) -> None:
        """Circ maintenance over the full batch move list.

        Every shard scans all moves: a move far from this stripe is a
        cheap no-op against the shard's small circle table / NN-hash, and
        scanning everything is what makes in-batch circle growth (a
        re-search may install a certificate anywhere) sound — see
        DESIGN §9 for why pre-routing circ moves by region is not.
        """
        self._phase = _PHASE_CIRCS
        try:
            self.inner.circ.process_moves(moves)
        finally:
            self._phase = 0

    # ------------------------------------------------------------------
    # Single-object ops (the batch of one)
    # ------------------------------------------------------------------
    def apply_scalar(self, kind: str, oid: int, new_pos: Optional[Point]) -> bool:
        """One object insert/move/delete: the single monitor's API tail.

        Runs what ``CRNNMonitor.add_object`` / ``update_object`` /
        ``remove_object`` run after the grid primitive —
        ``handle_update_pies`` (the batch of one) then
        ``circ.handle_update`` — under this engine's event tagging,
        after applying the primitive to the replica.  The op exists
        beside ``tick`` for cost, not semantics: a one-element tick
        rebuilds the CSR bucketing on every call (DESIGN §9).  Returns
        whether the update had any effect (a move to the same position
        does not).
        """
        inner = self.inner
        grid = inner.grid
        old_pos: Optional[Point] = None
        if kind == "insert":
            grid.insert_object(oid, new_pos)
        elif kind == "move":
            old_pos, _, _ = grid.move_object(oid, new_pos)
            if old_pos == new_pos:
                return False
        elif kind == "delete":
            old_pos, _ = grid.delete_object(oid)
            new_pos = None
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown scalar op {kind!r}")
        self._phase = _PHASE_PIES
        try:
            handle_update_pies(inner, oid, old_pos, new_pos)
        finally:
            self._phase = 0
        self._phase = _PHASE_CIRCS
        inner.circ.move_seq = 0
        try:
            inner.circ.handle_update(oid, old_pos, new_pos)
        finally:
            self._phase = 0
        return True

    # ------------------------------------------------------------------
    # Query ops (owner-side)
    # ------------------------------------------------------------------
    def add_query(
        self, qid: int, pos: Point, exclude: frozenset[int], seq: int = 0
    ) -> frozenset[int]:
        """Register an owned query; returns its initial RNN set."""
        self._phase = _PHASE_QUERIES
        self._query_seq = seq
        mark = len(self.inner._events)
        try:
            result = self.inner.add_query(qid, pos, exclude)
        finally:
            self._fill_query_tags(mark)
            self._phase = 0
        return result

    def remove_query(self, qid: int, seq: int = 0) -> bool:
        """Deregister an owned query (loss events are emitted)."""
        self._phase = _PHASE_QUERIES
        self._query_seq = seq
        mark = len(self.inner._events)
        try:
            return self.inner.remove_query(qid)
        finally:
            self._fill_query_tags(mark)
            self._phase = 0

    def update_query(self, qid: int, pos: Point, seq: int = 0) -> None:
        """Recompute an owned query at a new position (same stripe)."""
        self._phase = _PHASE_QUERIES
        self._query_seq = seq
        mark = len(self.inner._events)
        try:
            self.inner.update_query(qid, pos)
        finally:
            self._fill_query_tags(mark)
            self._phase = 0

    def remove_query_silent(self, qid: int) -> None:
        """Migration helper: drop a query without emitting events."""
        inner = self.inner
        inner._log_events = False
        try:
            inner.remove_query(qid)
        finally:
            inner._log_events = True

    def add_query_silent(
        self, qid: int, pos: Point, exclude: frozenset[int]
    ) -> frozenset[int]:
        """Migration helper: adopt a query without emitting events."""
        inner = self.inner
        inner._log_events = False
        try:
            return inner.add_query(qid, pos, exclude)
        finally:
            inner._log_events = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Run the inner monitor's invariant checks for this shard, and
        check that every owned query lies in this shard's stripe."""
        self.inner.validate()
        for st in self.inner.qt:
            assert self.plan.owner_of(st.pos) == self.shard, (
                f"query q{st.qid} at {st.pos} is misplaced on shard {self.shard}"
            )


# ----------------------------------------------------------------------
# The coordinator<->shard op set
# ----------------------------------------------------------------------
class ShardOp(NamedTuple):
    """One dispatchable op of the shard protocol."""

    #: ``(engine, *args) -> payload``.
    handler: Callable[..., object]
    #: Whether the op advances engine state: journaled before it is
    #: sent and replayed on recovery (DESIGN §10).  An unjournaled op
    #: is re-issued after a rehydration instead.
    journaled: bool


def _tick(engine: ShardEngine, sanitized: list) -> tuple:
    # Worker 0 additionally reports halo traffic for every shard (it
    # sees the same full move list as everyone).  The wall-time of the
    # shard's compute rides back as the 5th element
    # (``TickReport.shard_seconds``, the imbalance gauge's input).
    t0 = perf_counter()
    n_moves, n_circ, halo = engine.tick_object_phases(
        sanitized, want_halo=(engine.shard == 0)
    )
    return (engine.drain_tagged(), n_moves, n_circ, halo, perf_counter() - t0)


def _with_events(method: Callable[..., object]) -> Callable[..., tuple]:
    """A handler replying ``(method's result, the events it emitted)``."""
    return lambda engine, *args: (method(engine, *args), engine.drain_tagged())


def _update_query(engine: ShardEngine, qid: int, pos: Point, seq: int) -> list:
    engine.update_query(qid, pos, seq)
    return engine.drain_tagged()


def _explain(engine: ShardEngine, qid: int) -> object:
    from repro.obs.explain import explain_query

    return explain_query(engine.inner, qid)


def _queries(engine: ShardEngine) -> list:
    return [
        (st.qid, st.pos, frozenset(st.exclude))
        for st in sorted(engine.inner.qt, key=lambda s: s.qid)
    ]


#: Every op :func:`dispatch_op` serves — the one declaration of the
#: protocol's dispatchable ops and of which of them the supervisor
#: journals.
OPS: dict[str, ShardOp] = {
    "tick": ShardOp(_tick, True),
    "scalar": ShardOp(_with_events(ShardEngine.apply_scalar), True),
    "add_query": ShardOp(_with_events(ShardEngine.add_query), True),
    "remove_query": ShardOp(_with_events(ShardEngine.remove_query), True),
    "update_query": ShardOp(_update_query, True),
    "remove_silent": ShardOp(ShardEngine.remove_query_silent, True),
    "add_silent": ShardOp(ShardEngine.add_query_silent, True),
    "region": ShardOp(lambda e, qid: e.inner.monitoring_region(qid), False),
    "explain": ShardOp(_explain, False),
    "results": ShardOp(lambda e: e.inner.results(), False),
    "stats": ShardOp(lambda e: e.inner.stats, False),
    "queries": ShardOp(_queries, False),
    "positions": ShardOp(lambda e: dict(e.inner.grid.positions), False),
    "validate": ShardOp(ShardEngine.validate, False),
    "object_count": ShardOp(lambda e: len(e.inner.grid), False),
}

#: The ops the supervisor journals (write-ahead) and replays on recovery.
JOURNALED_OPS = frozenset(name for name, op in OPS.items() if op.journaled)

#: Channel-lifecycle ops: served by the worker loop itself
#: (:func:`repro.shard.executor._worker_main`), ignored by the degraded
#: in-process channel, never by :func:`dispatch_op`.  ``restore`` and
#: ``checkpoint`` move whole engine snapshots across the pipe.
LIFECYCLE_OPS = frozenset({"close", "restore", "arm", "checkpoint"})


def dispatch_op(engine: ShardEngine, op: str, args: tuple) -> object:
    """Execute one :data:`OPS` request against ``engine``.

    Shared by the worker-process loop, the in-process
    :class:`repro.shard.executor.SerialExecutor` and the degraded
    in-process channel (:class:`repro.shard.supervisor._LocalShard`), so
    a stripe behaves identically whether it runs in a worker or in the
    coordinator.  Raises ``ValueError`` for an op not in :data:`OPS`
    (lifecycle ops included).
    """
    spec = OPS.get(op)
    if spec is None:
        raise ValueError(f"unknown worker op {op!r}")
    return spec.handler(engine, *args)
