"""The public CRNN monitoring facade.

:class:`CRNNMonitor` is the system a downstream user interacts with: it
owns the grid index, the query table, and the circ-region store of the
configured variant, routes every object/query location update through
the incremental algorithms of Sections 4-5 of the paper, and keeps the
exact RNN result set of every registered query continuously up to date.

Typical use::

    from repro import CRNNMonitor, MonitorConfig, Point

    monitor = CRNNMonitor(MonitorConfig.lu_pi(grid_cells=64))
    monitor.add_object(1, Point(10.0, 20.0))
    monitor.add_query(100, Point(12.0, 19.0))
    monitor.update_object(1, Point(11.0, 19.5))
    monitor.rnn(100)           # -> frozenset({1})
    monitor.drain_events()     # -> result deltas since the last drain
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.config import ObsConfig
    from repro.obs.explain import QueryDiagnostics

from repro.core.circ_store import CircStoreBase, FurCircStore
from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate, ResultChange
from repro.core.init_crnn import InitRequest, InitResult, init_crnn
from repro.core.query_table import QueryState, QueryTable
from repro.core.regions import CircRegion, MonitoringRegion, PieRegion
from repro.core.stats import StatCounters
from repro.core.uniform import GridCircStore
from repro.core.update_pie import (
    _resolve_affected,
    build_affected_map_vector,
    handle_update_pies,
    register_pie_cells,
)
from repro.obs.core import Observability
from repro.perf import PhaseTimers
from repro.robustness.guard import IngestionGuard
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.sector import NUM_SECTORS
from repro.grid.index import GridIndex

Update = Union[ObjectUpdate, QueryUpdate]
#: One operation of :meth:`CRNNMonitor._query_phase`:
#: ``(qid, pos | None, exclude, cause)``.
_QueryOp = tuple[int, Optional[Point], frozenset[int], str]


def apply_grid_updates(
    grid: GridIndex,
    sanitized: list[Update],
    moves: list[tuple[int, Optional[Point], Optional[Point]]],
    query_updates: list[QueryUpdate],
) -> None:
    """Apply a sanitized batch's object updates to ``grid``.

    The grid-maintenance stage of one ``process()`` tick, shared by
    :class:`CRNNMonitor` and the sharded engine
    (:mod:`repro.shard`): object inserts, moves, and deletes are applied
    in batch order, real position changes are appended to ``moves`` as
    ``(oid, old_pos, new_pos)``, and query updates are deferred into
    ``query_updates`` untouched.  Runs of plain location updates for
    distinct known objects are flushed through
    :meth:`GridIndex.bulk_move_objects`; inserts, deletes, repeated oids,
    and query updates flush the pending run first, so the grid evolves
    through the same states as a per-update loop.  The CSR bucketing is
    refreshed once at the end.

    Parameters
    ----------
    grid:
        The grid index to mutate.
    sanitized:
        A guard-sanitized update batch (see
        :meth:`~repro.robustness.guard.IngestionGuard.sanitize_batch`).
    moves:
        Output list the applied object moves are appended to.
    query_updates:
        Output list the batch's query updates are appended to.
    """
    pending: list[tuple[int, Point]] = []
    pending_oids: set[int] = set()

    def flush() -> None:
        if pending:
            moves.extend(grid.bulk_move_objects(pending))
            pending.clear()
            pending_oids.clear()

    for update in sanitized:
        if (
            isinstance(update, ObjectUpdate)
            and update.pos is not None
            and update.oid in grid
        ):
            if update.oid in pending_oids:
                flush()
            pending.append((update.oid, update.pos))
            pending_oids.add(update.oid)
            continue
        flush()
        if isinstance(update, ObjectUpdate):
            if update.pos is None:
                old_pos, _ = grid.delete_object(update.oid)
                moves.append((update.oid, old_pos, None))
            else:
                grid.insert_object(update.oid, update.pos)
                moves.append((update.oid, None, update.pos))
        elif isinstance(update, QueryUpdate):
            query_updates.append(update)
        else:
            raise TypeError(f"unsupported update {update!r}")
    flush()
    if moves:
        # One CSR rebuild serves every NN search of the batch:
        # pie/circ maintenance never moves grid objects, so the
        # bucketing stays fresh until the next batch's moves.
        grid.ensure_csr()


class CRNNMonitor:
    """Continuously monitors the reverse nearest neighbors of query points."""

    def __init__(self, config: Optional[MonitorConfig] = None):
        self.config = config if config is not None else MonitorConfig()
        self.stats = StatCounters()
        #: Wall-clock attribution of ``process()`` batches by stage.
        self.timers = PhaseTimers()
        #: Observability facade (:mod:`repro.obs`): tracer, metrics
        #: registry, per-query health.  Disabled (null tracer, no hooks)
        #: unless ``config.observability`` switches it on.
        self.obs = Observability(self.config.observability)
        self.grid = GridIndex(self.config.bounds, self.config.grid_cells, self.stats)
        #: Searches dispatched through the grid emit spans to the same
        #: tracer as the monitor's phases (null tracer when disabled).
        self.grid.tracer = self.obs.tracer
        self.qt = QueryTable()
        self._results: dict[int, set[int]] = {}
        # Per-query reference counts behind the result sets.  An object
        # normally owes its RNN status to exactly one sector record, but
        # during a batch it can transiently be the (RNN) candidate of
        # two sectors — e.g. a re-search installs it in its new sector
        # before the stale record of its old sector is cleared — so
        # gains/losses must be counted, not just set/unset.
        self._rnn_counts: dict[int, dict[int, int]] = {}
        self._events: list[ResultChange] = []
        self._log_events = True
        #: Validates every update at the API boundary (coordinates, id
        #: conflicts, unknown deletes) under ``config.guard_policy``.
        self.guard = IngestionGuard(
            self.config.bounds,
            policy=self.config.guard_policy,
            stats=self.stats,
            has_object=self.grid.__contains__,
            has_query=self.qt.__contains__,
        )
        self.circ: CircStoreBase
        if self.config.uses_fur_store:
            self.circ = FurCircStore(
                self.grid,
                self.qt,
                self.stats,
                self._on_result_change,
                threshold=self.config.effective_threshold,
            )
        else:
            self.circ = GridCircStore(self.grid, self.qt, self.stats, self._on_result_change)
        self.circ.health = self.obs.health
        self.obs.attach(self)

    @classmethod
    def with_observability(
        cls,
        obs_config: Optional["ObsConfig"] = None,
        config: Optional[MonitorConfig] = None,
    ) -> "CRNNMonitor":
        """A monitor with the observability layer switched on.

        Convenience for the common quick-start::

            monitor = CRNNMonitor.with_observability()
            ...
            print(monitor.explain(qid).to_dict())

        ``obs_config`` defaults to a fully-enabled :class:`ObsConfig`
        (unsampled tracing into the in-memory ring); ``config`` supplies
        the remaining monitor knobs (its own ``observability`` field is
        overridden).
        """
        from dataclasses import replace

        from repro.obs.config import ObsConfig

        base = config if config is not None else MonitorConfig()
        obs = obs_config if obs_config is not None else ObsConfig()
        return cls(replace(base, observability=obs))

    # ------------------------------------------------------------------
    # Results and events
    # ------------------------------------------------------------------
    def _on_result_change(self, change: ResultChange) -> None:
        result = self._results.setdefault(change.qid, set())
        counts = self._rnn_counts.setdefault(change.qid, {})
        if change.gained:
            counts[change.oid] = counts.get(change.oid, 0) + 1
            if counts[change.oid] > 1:
                return  # already a result through another sector record
            result.add(change.oid)
        else:
            remaining = counts.get(change.oid, 0) - 1
            if remaining > 0:
                counts[change.oid] = remaining
                return  # still a result through another sector record
            counts.pop(change.oid, None)
            result.discard(change.oid)
        if self._log_events:
            self._emit(change)

    def _emit(self, change: ResultChange) -> None:
        """Append one result delta to the event log.

        ``result_changes`` and the query's health gains / losses count
        here, so both equal the events :meth:`drain_events` hands out.
        """
        self.stats.result_changes += 1
        health = self.obs.health
        if health is not None:
            health.record_result_change(change.qid, change.gained)
        self._events.append(change)

    def rnn(self, qid: int) -> frozenset[int]:
        """The current exact RNN set of query ``qid``."""
        return frozenset(self._results[qid])

    def results(self) -> dict[int, frozenset[int]]:
        """Current results of all queries (qid -> RNN set)."""
        return {qid: frozenset(res) for qid, res in self._results.items()}

    def drain_events(self) -> list[ResultChange]:
        """Result deltas accumulated since the previous drain."""
        events, self._events = self._events, []
        return events

    # ------------------------------------------------------------------
    # Object maintenance
    # ------------------------------------------------------------------
    def add_object(self, oid: int, pos: Point) -> None:
        """Register a new object (it may immediately become an RNN).

        Inserting an id that is already monitored is an id conflict: the
        ``strict`` guard raises, the operational policies downgrade it
        to a location update (idempotent ingestion).
        """
        if not self.guard.check_new_id("object", oid in self.grid, oid):
            self.update_object(oid, pos)
            return
        checked = self.guard.check_point(pos, f"object {oid} insert")
        if checked is None:
            return
        self._insert_object(oid, checked)

    def _object_updated(
        self, oid: int, old_pos: Optional[Point], new_pos: Optional[Point]
    ) -> None:
        """Region maintenance for one update the grid already holds.

        The tail every single-object method shares: pies (the batch of
        one through ``_resolve_affected``), then the circ store.
        """
        handle_update_pies(self, oid, old_pos, new_pos)
        self.circ.handle_update(oid, old_pos, new_pos)

    def _insert_object(self, oid: int, pos: Point) -> None:
        self.grid.insert_object(oid, pos)
        self._object_updated(oid, None, pos)

    def update_object(self, oid: int, new_pos: Point) -> None:
        """Process a location report; unknown ids are inserted."""
        checked = self.guard.check_point(new_pos, f"object {oid} update")
        if checked is None:
            return
        if oid not in self.grid:
            self._insert_object(oid, checked)
            return
        old_pos, _, _ = self.grid.move_object(oid, checked)
        if old_pos != checked:
            self._object_updated(oid, old_pos, checked)

    def remove_object(self, oid: int) -> bool:
        """Remove an object from monitoring entirely.

        A delete of an unknown id is counted and — except under the
        ``strict`` guard, which raises before anything mutates — is a
        no-op (deletes are idempotent); returns whether anything was
        removed.
        """
        if not self.guard.check_delete("object", oid in self.grid, oid):
            return False
        old_pos, _ = self.grid.delete_object(oid)
        self._object_updated(oid, old_pos, None)
        return True

    # ------------------------------------------------------------------
    # Query maintenance
    # ------------------------------------------------------------------
    def add_query(self, qid: int, pos: Point, exclude: Iterable[int] = ()) -> frozenset[int]:
        """Register a long-running CRNN query; returns its initial result.

        ``exclude`` lists object ids this query ignores (commonly the
        query owner's own object when entities are both).
        """
        if not self.guard.check_new_id("query", qid in self.qt, qid):
            self.update_query(qid, pos)
            return self.rnn(qid)
        checked = self.guard.check_point(pos, f"query {qid} insert")
        if checked is None:
            return frozenset()
        self._query_phase([(qid, checked, frozenset(exclude), "")])
        return self.rnn(qid)

    def remove_query(self, qid: int) -> bool:
        """Deregister a query and all of its monitoring state.

        Unknown-query deletes follow the same guard semantics as
        :meth:`remove_object`; returns whether anything was removed.
        """
        if not self.guard.check_delete("query", qid in self.qt, qid):
            return False
        self._drop_query(qid)
        return True

    def update_query(self, qid: int, new_pos: Point, *, cause: str = "query_moved") -> None:
        """Move a query point; an unknown id is registered there.

        The query is re-initialised at its new location, as in the paper
        (and [Yu et al. 05, Mouratidis et al. 05]), and its monitoring
        state is patched in place to the new answer: pie cells by
        difference, circ records replaced.  The emitted events are the
        *net* result difference, sorted losses then sorted gains.
        ``cause`` labels the recomputation in the query's health record
        (``"query_moved"``, ``"audit_repair"``, ``"rebuild"``) —
        diagnostics only, never behaviour.
        """
        if qid not in self.qt:
            self.add_query(qid, new_pos)
            return
        checked = self.guard.check_point(new_pos, f"query {qid} update")
        if checked is None:
            return
        self._query_phase([(qid, checked, frozenset(), cause)])

    def _query_phase(self, ops: list[_QueryOp]) -> None:
        """Apply query operations in order, initialised from one batch.

        Each op is ``(qid, pos, exclude, cause)``: ``pos is None`` removes
        the query, a live ``qid`` moves (``cause`` labels it), any other
        registers with ``exclude``.  The ops come admitted by the guard.
        A pre-pass tracks which ids are live op by op — a repeated id, a
        delete then re-add (whose exclude set starts empty again), a
        registration of an id already live (a move) — and collects one
        ``(pos, exclude)`` request per (re)initialisation; one
        :func:`init_crnn` call answers them all, since the grid is
        frozen during the query phase and queries do not depend on each
        other.  The ops then run in their original order, so events and
        their order are those of one call per op.
        """
        excludes: dict[int, Optional[frozenset[int]]] = {}
        requests: list[InitRequest] = []
        for qid, pos, exclude, _ in ops:
            if qid not in excludes:
                excludes[qid] = self.qt.get(qid).exclude if qid in self.qt else None
            if pos is None:
                excludes[qid] = None
                continue
            current = excludes[qid]
            if current is None:
                current = excludes[qid] = exclude
            requests.append((pos, current))
        inits = iter(init_crnn(self.grid, requests) if requests else ())
        for qid, pos, exclude, cause in ops:
            if pos is None:
                self._drop_query(qid)
            elif qid in self.qt:
                self._move_query(self.qt.get(qid), pos, next(inits), cause)
            else:
                st = self.qt.add(qid, pos, exclude)
                self._results.setdefault(qid, set())
                self._install(st, next(inits))

    def _install(self, st: QueryState, init: InitResult) -> None:
        """Make ``init`` the query's candidates, pies and circ records.

        A sector that keeps a candidate has its circ record replaced;
        one left empty loses it.
        """
        positions = self.grid.positions
        for sector in range(NUM_SECTORS):
            cand = init.cand[sector]
            st.cand[sector] = cand
            st.d_cand[sector] = init.d_cand[sector]
            register_pie_cells(self, st, sector)
            if cand is None:
                self.circ.remove_circ(st.qid, sector)
            else:
                self.circ.set_circ(
                    st.qid, sector, cand, positions[cand],
                    init.d_cand[sector], init.nn[sector], init.d_nn[sector],
                )

    def _move_query(self, st: QueryState, pos: Point, init: InitResult, cause: str) -> None:
        """Patch a live query in place to ``init``, its answer at ``pos``.

        Resetting each sector's registered radius makes
        :func:`register_pie_cells` re-register at the new apex by
        difference: only cells the old pie covered and the new one does
        not are dropped, only new ones added.  Every recomputation that
        is not a move (``"audit_repair"``, ``"rebuild"``) is a state
        repair: it first unregisters the query everywhere, so its pie
        cells and circ records are rebuilt from scratch — a difference
        against the registrations it distrusts would keep a lost one
        lost.  The transitions of the patch are silent; the net result
        difference is emitted.
        """
        qid = st.qid
        self.stats.query_recomputations += 1
        if self.obs.health is not None:
            self.obs.health.record_recomputation(qid, cause)
        before = frozenset(self._results.get(qid, ()))
        self._log_events = False
        try:
            st.pos = pos
            if cause != "query_moved":
                self._unregister(st)
            st.pie_reg_radius = [-1.0] * NUM_SECTORS
            self._install(st, init)
        finally:
            self._log_events = True
        # The result is re-derived from the new records, as a fresh
        # registration would have it: a recomputation also repairs a
        # result set that had drifted from them (the auditor's repair).
        after = self.circ.rnn_set(qid)
        self._results[qid] = set(after)
        self._rnn_counts[qid] = dict.fromkeys(after, 1)
        for oid in sorted(before - after):
            self._emit(ResultChange(qid, oid, gained=False))
        for oid in sorted(after - before):
            self._emit(ResultChange(qid, oid, gained=True))

    def _unregister(self, st: QueryState) -> None:
        """Drop every pie-cell registration and circ record of a query."""
        for sector in range(NUM_SECTORS):
            for cell in st.pie_cells[sector]:
                cell.remove_pie_query(st.qid, sector)
            st.pie_cells[sector] = set()
            self.circ.remove_circ(st.qid, sector)

    def _drop_query(self, qid: int) -> None:
        """Deregister a live query: pie cells, circ records, results."""
        self._unregister(self.qt.remove(qid))
        self._results.pop(qid, None)
        self._rnn_counts.pop(qid, None)
        # A silent removal (a shard migration's remove + re-add) keeps
        # the query's health history.
        if self.obs.health is not None and self._log_events:
            self.obs.health.forget(qid)

    # ------------------------------------------------------------------
    # Batched processing
    # ------------------------------------------------------------------
    def process(self, updates: Iterable[Update]) -> list[ResultChange]:
        """Apply a batch of updates (one monitoring timestamp).

        Object updates are handled with the paper's multiple-update
        extension of *updatePie*: all grid moves are applied first, then
        every affected pie-region is modified at most once, then the
        circ-region store processes the moves; query updates follow.
        The return value is the combined result delta of the batch.

        The whole batch is pre-validated by the ingestion guard before
        anything is applied, so batches are atomic with respect to
        rejection: under the ``strict`` policy a malformed update raises
        :class:`~repro.robustness.guard.IngestionError` *before* the
        first grid mutation, and under ``clamp``/``drop`` the offending
        updates are repaired or skipped (counted) while the rest of the
        batch proceeds.  The sanitized batch that was actually applied
        is available as ``self.guard.last_effective`` — feed it to an
        oracle to keep it in lockstep with a faulty stream.
        """
        obs = self.obs
        if not obs.enabled:
            return self._process_batch(updates)
        t0 = time.perf_counter()
        with obs.tracer.span("monitor.process") as sp:
            events = self._process_batch(updates)
            sp.set("updates", len(self.guard.last_effective))
            sp.set("events", len(events))
        obs.observe_batch(
            time.perf_counter() - t0, len(self.guard.last_effective), len(events)
        )
        return events

    def _process_batch(self, updates: Iterable[Update]) -> list[ResultChange]:
        """The body of :meth:`process` (shared by both obs modes)."""
        tracer = self.obs.tracer
        sanitized = self.guard.sanitize_batch(updates)
        mark = len(self._events)
        moves: list[tuple[int, Optional[Point], Optional[Point]]] = []
        query_updates: list[QueryUpdate] = []
        with tracer.span("monitor.grid_moves"), self.timers.phase("grid_moves"):
            apply_grid_updates(self.grid, sanitized, moves, query_updates)
        if moves:
            with tracer.span("monitor.pies", moves=len(moves)), self.timers.phase("pies"):
                _resolve_affected(self, build_affected_map_vector(self, moves))
            with tracer.span("monitor.circs", moves=len(moves)), self.timers.phase("circs"):
                self.circ.process_moves(moves)
        with tracer.span("monitor.queries", updates=len(query_updates)), self.timers.phase("queries"):
            self._query_phase([(u.qid, u.pos, frozenset(), "query_moved") for u in query_updates])
        return self._events[mark:]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def monitoring_region(self, qid: int) -> MonitoringRegion:
        """The current pie- and circ-regions of a query (Theorem 1 view)."""
        st = self.qt.get(qid)
        pies = tuple(
            PieRegion(st.pos, sector, st.d_cand[sector]) for sector in range(NUM_SECTORS)
        )
        circs = []
        for sector in range(NUM_SECTORS):
            rec = self.circ.record(qid, sector)
            if rec is not None:
                circs.append(
                    CircRegion(
                        qid,
                        sector,
                        rec.cand,
                        Circle(self.grid.positions[rec.cand], rec.radius),
                        rec.nn,
                    )
                )
        return MonitoringRegion(qid, pies, tuple(circs))

    def explain(self, qid: int) -> "QueryDiagnostics":
        """Structured per-query health report ("why is q17 expensive?").

        Always includes the live monitoring-region structure (candidates,
        circ radii vs. candidate-query distances, pie cell counts); the
        behavioural counters (lazy-update deferrals, recompute causes,
        staleness) additionally require
        ``MonitorConfig(observability=ObsConfig(diagnostics=True))``.
        See :func:`repro.obs.explain.explain_query`.
        """
        from repro.obs.explain import explain_query

        return explain_query(self, qid)

    def object_count(self) -> int:
        """Number of monitored objects."""
        return len(self.grid)

    def query_count(self) -> int:
        """Number of registered queries."""
        return len(self.qt)

    def summary(self) -> dict[str, float]:
        """Operational snapshot: sizes and average region shapes.

        Useful for capacity dashboards: how many monitoring regions are
        live, how tight they are, and how big the circ-region store is.
        """
        candidates = 0
        bounded_pies = 0
        pie_radius_sum = 0.0
        results = 0
        for st in self.qt:
            for sector in range(NUM_SECTORS):
                if st.cand[sector] is not None:
                    candidates += 1
                if not math.isinf(st.d_cand[sector]):
                    bounded_pies += 1
                    pie_radius_sum += st.d_cand[sector]
            results += len(self._results.get(st.qid, ()))
        out = {
            "objects": float(len(self.grid)),
            "queries": float(len(self.qt)),
            "results": float(results),
            "candidates": float(candidates),
            "bounded_pies": float(bounded_pies),
            "avg_pie_radius": (
                pie_radius_sum / bounded_pies if bounded_pies else 0.0
            ),
            "circ_records": float(len(self.circ)),
        }
        out.update(
            (name, float(value))
            for name, value in self.guard.violation_counts().items()
        )
        out["audit_divergences"] = float(self.stats.audit_divergences)
        out["audit_escalations"] = float(self.stats.audit_escalations)
        return out

    def rebuild(self) -> None:
        """Recompute every query from scratch (state repair).

        Re-initialises all monitoring regions against the current object
        snapshot — the escape hatch a long-running deployment wants
        after suspected state corruption or a config migration.  One
        query phase re-registers every query from scratch where it
        stands, in ascending id order (``cause="rebuild"``): result sets
        are preserved where unchanged; net differences are emitted as
        events.
        """
        with self.obs.tracer.span("monitor.rebuild", queries=len(self.qt)):
            ops = [
                (qid, self.qt.get(qid).pos, frozenset(), "rebuild")
                for qid in sorted(self.qt.ids())
            ]
            self._query_phase(ops)

    # ------------------------------------------------------------------
    # Checkpoint / recovery
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Serialize the monitor to a JSON-safe snapshot dict.

        See :mod:`repro.robustness.checkpoint` for the format; restore
        with :meth:`from_checkpoint`.
        """
        from repro.robustness.checkpoint import snapshot

        return snapshot(self)

    @classmethod
    def from_checkpoint(cls, snap: dict, verify: bool = True) -> "CRNNMonitor":
        """Rebuild a monitor from a :meth:`checkpoint` snapshot.

        With ``verify`` (default) the recomputed results must match the
        recorded ones and ``validate()`` must pass, else
        :class:`~repro.robustness.checkpoint.CheckpointError` is raised.
        """
        from repro.robustness.checkpoint import restore

        return restore(snap, verify=verify)

    # ------------------------------------------------------------------
    # Validation (tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Cross-structure consistency checks; raises ``AssertionError``."""
        self.circ.validate()  # type: ignore[attr-defined]
        for st in self.qt:
            for sector in range(NUM_SECTORS):
                cand = st.cand[sector]
                rec = self.circ.record(st.qid, sector)
                if cand is None:
                    assert rec is None, f"circ without candidate: q{st.qid}/S{sector}"
                else:
                    assert rec is not None and rec.cand == cand, "circ/cand mismatch"
                    assert rec.d_q_cand == st.d_cand[sector]
                reg_radius = st.pie_reg_radius[sector]
                assert reg_radius >= st.d_cand[sector] or (
                    math.isinf(reg_radius) and math.isinf(st.d_cand[sector])
                ), "registration narrower than the pie"
                expected = set(
                    self.grid.cells_intersecting_pie(st.pos, sector, reg_radius)
                )
                assert set(st.pie_cells[sector]) == expected, (
                    f"stale pie cells: q{st.qid}/S{sector}"
                )
                needed = set(
                    self.grid.cells_intersecting_pie(st.pos, sector, st.d_cand[sector])
                )
                assert needed <= st.pie_cells[sector], "pie under-registered"
                for cell in expected:
                    mask = cell.pie_queries.get(st.qid, 0)
                    assert mask & (1 << sector), "missing pie registration"
            derived = self.circ.rnn_set(st.qid)
            assert frozenset(self._results.get(st.qid, ())) == derived, (
                f"results diverge for q{st.qid}"
            )
            counts = self._rnn_counts.get(st.qid, {})
            assert set(counts) == set(derived), "count/result mismatch"
            assert all(v == 1 for v in counts.values()), (
                "multi-sector RNN count persisted past a batch"
            )
        # Only materialized cells can carry registrations; walking them
        # keeps validate() from defeating the grid's lazy allocation.
        for cell in self.grid.materialized_cells():
            for qid, mask in cell.pie_queries.items():
                assert qid in self.qt, "registration for dead query"
                for sector in range(NUM_SECTORS):
                    if mask & (1 << sector):
                        st = self.qt.get(qid)
                        assert cell in st.pie_cells[sector], "orphan pie registration"
