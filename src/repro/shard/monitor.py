"""The sharded monitoring facade: :class:`ShardedCRNNMonitor`.

Drop-in for :class:`~repro.core.monitor.CRNNMonitor` with the same
``process()`` / ``drain_events()`` / query-API contract, running the
monitoring work across ``K`` column-stripe shards (see
:mod:`repro.shard.plan`) under either executor
(:mod:`repro.shard.executor`).  The parity contract is strict: for any
update stream, the drained event sequence and every logical counter
(:data:`repro.core.stats.LOGICAL_COUNTERS`) are bit-identical to a
single-shard monitor's — the differential and golden-workload tests
enforce it for K ∈ {1, 2, 4, 8} in both modes.

One tick (the scatter/halo/gather dataflow, diagrammed in
``docs/ARCHITECTURE.md``):

1. **sanitize** — the coordinator's ingestion guard validates the batch
   once (same counters as the single monitor's guard).
2. **scatter** — the batch is broadcast to every shard, and each
   applies its object updates to its own full grid replica.
3. **pies + circs** — each shard maintains its own queries' regions;
   every emitted event carries a global-order tag.
4. **halo** — boundary-crossing moves are counted per shard (metrics;
   correctness needs no forwarding because the plane is replicated).
5. **gather/merge** — tagged events are merged into the single-monitor
   order; the coordinator's result mirror and counters are updated.
6. **queries** — query adds/moves/removes run sequentially through the
   owner shard; a stripe-crossing move migrates the query (silent
   remove + silent re-add, net diff emitted), the coordinator's
   ownership map staying authoritative.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import replace as dc_replace
from typing import Iterable, Optional, Union

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate, ResultChange
from repro.core.monitor import Update
from repro.core.stats import StatCounters
from repro.geometry.point import Point
from repro.obs.core import Observability
from repro.obs.dist import ShardObsMerger
from repro.obs.explain import QueryDiagnostics
from repro.obs.flight import FlightRecorder
from repro.perf import PhaseTimers
from repro.robustness.guard import IngestionGuard
from repro.shard.engine import TaggedEvent
from repro.shard.executor import ProcessExecutor, SerialExecutor
from repro.shard.plan import StripePlan
from repro.shard.supervisor import SupervisionConfig, SupervisorHooks

__all__ = ["ShardedCRNNMonitor"]


class ShardedCRNNMonitor:
    """K-shard CRNN monitor with single-monitor semantics.

    Parameters
    ----------
    config:
        Monitor configuration; must select a FUR-store variant
        (``lu-only`` or ``lu+pi``).  ``config.observability`` attaches
        coordinator-level observability (per-shard metric labels,
        scatter/halo/gather spans).
    shards:
        Number of column stripes ``K`` (``1 <= K <= grid_cells``).
    executor:
        ``"process"`` — one worker process per shard, the production
        setting — or ``"serial"`` — the same shard protocol run
        in-process, one engine after another (deterministic; the test
        and debug double, never faster than one plain monitor).  Either
        way every shard owns a private full grid replica.
    mp_context:
        Multiprocessing start method for the process executor
        (``"fork"`` where available, else ``"spawn"``).
    supervision:
        :class:`~repro.shard.supervisor.SupervisionConfig` of the
        process executor (``None`` means its defaults; rejected with the
        serial executor): op deadlines, bounded respawn with
        bit-identical crash recovery, and the ``on_shard_failure``
        degradation policy (DESIGN §10).
    chaos:
        Optional :class:`~repro.shard.chaos.ChaosSpec` injecting seeded
        worker faults (process executor only; testing).

    Examples
    --------
    >>> sharded = ShardedCRNNMonitor(MonitorConfig.lu_pi(), shards=4)
    >>> sharded.add_object(1, Point(10.0, 20.0))
    >>> sharded.add_query(100, Point(12.0, 19.0))
    frozenset({1})
    >>> sharded.process([ObjectUpdate(1, Point(900.0, 20.0))])  # doctest: +SKIP
    """

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        shards: int = 2,
        executor: str = "serial",
        mp_context: str = "fork",
        supervision: Optional[SupervisionConfig] = None,
        chaos=None,
    ):
        self.config = config if config is not None else MonitorConfig()
        if not self.config.uses_fur_store:
            raise ValueError(
                "sharding requires a FUR-store variant ('lu-only' or 'lu+pi'); "
                f"got {self.config.variant!r}"
            )
        if executor != "process" and (supervision is not None or chaos is not None):
            raise ValueError(
                "supervision/chaos apply to the process executor only "
                "(the serial executor has no workers to supervise)"
            )
        #: Coordinator-side counters (guard violations, migrations,
        #: checkpoints); every search/grid counter lives on the shards.
        #: Summed with the shards' counters by :meth:`aggregated_stats`.
        self.stats = StatCounters()
        #: Coordinator wall-clock phase attribution: scatter-to-gather
        #: as ``shard_tick``, then ``merge`` and ``queries``.
        self.timers = PhaseTimers()
        self.obs = Observability(self.config.observability)
        self.plan = StripePlan(self.config.bounds, self.config.grid_cells, shards)
        #: Max/mean of the last tick's per-stripe compute wall-times
        #: (1.0 = perfectly balanced; the static split's skew, also
        #: exported as ``crnn_shard_imbalance_ratio``).
        self.imbalance_ratio = 1.0
        #: Coordinator-side merger of worker metric/span deltas (process
        #: executor with observability only; see DESIGN §12).
        self._shard_obs: Optional[ShardObsMerger] = None
        if executor == "serial":
            self.executor: Union[SerialExecutor, ProcessExecutor] = SerialExecutor(
                self.config, self.plan,
                tracer=self.obs.tracer, health=self.obs.health,
            )
        elif executor == "process":
            self.executor = ProcessExecutor(
                self.config, self.plan,
                tracer=self.obs.tracer, mp_context=mp_context,
                supervision=supervision, chaos=chaos,
                hooks=self._make_supervisor_hooks(),
                flight=self._make_flight(),
                on_obs_delta=self._make_delta_sink(),
            )
        else:
            raise ValueError(f"unknown executor {executor!r}")
        #: qid -> owning shard; the authoritative query membership map.
        self._owner: dict[int, int] = {}
        #: qid -> its exclude set (needed to re-add on migration).
        self._exclude: dict[int, frozenset[int]] = {}
        #: Known object ids (the guard's view; equals every replica's).
        self._objects: set[int] = set()
        #: Result mirror maintained from the merged event stream.
        self._results: dict[int, set[int]] = {}
        self._events: list[ResultChange] = []
        #: Coordinator containment-query count: one per circ-visible
        #: update with a surviving position, exactly like the single
        #: monitor.  Every shard also counts one per move, so
        #: aggregation *overrides* the summed value with this one.
        self._containment = 0
        self.guard = IngestionGuard(
            self.config.bounds,
            policy=self.config.guard_policy,
            stats=self.stats,
            has_object=self._objects.__contains__,
            has_query=self._owner.__contains__,
        )
        self._init_metrics()

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------
    def _make_supervisor_hooks(self) -> Optional[SupervisorHooks]:
        """Bind supervision transitions to ``repro.obs`` metrics.

        Registers ``crnn_shard_restarts_total`` (counter by shard),
        ``crnn_shard_degraded`` (gauge by shard, pre-seeded to 0 so the
        healthy state is visible on ``/metrics``), and the
        ``crnn_shard_recovery_seconds`` histogram.  Returns ``None``
        when observability is disabled — the supervisor still tracks
        plain counters for :meth:`supervision_report`.
        """
        if not self.obs.enabled:
            return None
        registry = self.obs.registry
        restarts = registry.counter(
            "crnn_shard_restarts_total", "worker respawns by shard", ("shard",)
        )
        degraded = registry.gauge(
            "crnn_shard_degraded",
            "1 when the stripe runs degraded in-process", ("shard",),
        )
        recovery = registry.histogram(
            "crnn_shard_recovery_seconds",
            "crash-detection-to-recovered latency",
        )
        for shard in range(self.plan.shards):
            degraded.labels(str(shard)).set(0.0)

        def on_restart(shard: int, seconds: float) -> None:
            restarts.labels(str(shard)).inc()
            recovery.observe(seconds)

        def on_degrade(shard: int) -> None:
            degraded.labels(str(shard)).set(1.0)

        return SupervisorHooks(on_restart=on_restart, on_degrade=on_degrade)

    def _make_flight(self) -> Optional[FlightRecorder]:
        """Build the coordinator-side flight recorder (obs-on only).

        The recorder lives on the coordinator because a SIGKILLed worker
        cannot flush anything; op headers are noted at send time and
        rings are dumped to ``ObsConfig.flight_dir`` on every
        ``ShardWorkerError`` (``flight_dir=None`` keeps them in memory
        for :meth:`~repro.obs.flight.FlightRecorder.snapshot`).
        """
        if not self.obs.enabled:
            return None
        cfg = self.config.observability
        return FlightRecorder(
            self.plan.shards,
            capacity=cfg.flight_capacity,
            flight_dir=cfg.flight_dir,
        )

    def _make_delta_sink(self):
        """Bind worker obs-delta delivery to the coordinator merger.

        The closure holds the :class:`~repro.obs.dist.ShardObsMerger`
        through a weakref only: the supervisor outlives unreferenced
        executors via its ``weakref.finalize`` reaper guard, and a
        strong merger reference would chain back through the registry's
        collectors to this monitor and pin the executor forever.
        """
        if not self.obs.enabled:
            return None
        self._shard_obs = ShardObsMerger(
            self.obs.registry, self.obs.sink, self.plan.shards
        )
        merger_ref = weakref.ref(self._shard_obs)

        def on_obs_delta(shard: int, delta: dict) -> None:
            merger = merger_ref()
            if merger is not None:
                merger.merge(shard, delta)

        return on_obs_delta

    def _init_metrics(self) -> None:
        registry = self.obs.registry
        if not self.obs.enabled:
            self._m_events = self._m_halo = self._m_updates = None
            self._m_imbalance = None
            return
        registry.gauge("crnn_shards", "configured shard count").set(
            float(self.plan.shards)
        )
        self._m_imbalance = registry.gauge(
            "crnn_shard_imbalance_ratio",
            "max/mean per-stripe tick wall-time (1.0 = perfectly balanced)",
        )
        self._m_updates = registry.counter(
            "crnn_shard_ticks_total", "object-phase ticks executed", ("executor",)
        )
        self._m_events = registry.counter(
            "crnn_shard_events_total",
            "result-change events by owning shard", ("shard",),
        )
        self._m_halo = registry.counter(
            "crnn_shard_halo_moves_total",
            "boundary-crossing moves entering each shard's halo", ("shard",),
        )
        registry.register_collector(self._collect_aggregate)

    def _collect_aggregate(self):
        from dataclasses import fields

        from repro.obs.metrics import CollectedFamily

        stats = self.aggregated_stats()
        return [
            CollectedFamily(
                "crnn_ops_total", "counter",
                "aggregated operation counters across shards",
                [({"op": f.name}, float(getattr(stats, f.name))) for f in fields(stats)],
            )
        ]

    # ------------------------------------------------------------------
    # Results and events
    # ------------------------------------------------------------------
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

    def _merge(self, tagged: list[TaggedEvent]) -> None:
        """Order a tick's tagged events globally and absorb them.

        Every engine emits in tag-nondecreasing order, so a stable sort
        by tag interleaves the shard streams without reordering any
        single query's transitions; the result is exactly the event
        order the single monitor would have produced.
        """
        tagged.sort(key=lambda te: te[0])
        emit_metric = self._m_events is not None
        for _tag, event in tagged:
            result = self._results.setdefault(event.qid, set())
            if event.gained:
                result.add(event.oid)
            else:
                result.discard(event.oid)
            self._events.append(event)
            if emit_metric:
                shard = self._owner.get(event.qid)
                if shard is not None:
                    self._m_events.labels(str(shard)).inc()

    # ------------------------------------------------------------------
    # Object maintenance (single-object API)
    # ------------------------------------------------------------------
    def add_object(self, oid: int, pos: Point) -> None:
        """Register a new object (same guard semantics as the single
        monitor: an id conflict downgrades to a location update under
        the operational policies)."""
        if not self.guard.check_new_id("object", oid in self._objects, oid):
            self.update_object(oid, pos)
            return
        checked = self.guard.check_point(pos, f"object {oid} insert")
        if checked is None:
            return
        self._scalar("insert", oid, checked)

    def update_object(self, oid: int, new_pos: Point) -> None:
        """Process a location report; unknown ids are inserted."""
        checked = self.guard.check_point(new_pos, f"object {oid} update")
        if checked is None:
            return
        if oid not in self._objects:
            self._scalar("insert", oid, checked)
            return
        self._scalar("move", oid, checked)

    def remove_object(self, oid: int) -> bool:
        """Remove an object from monitoring entirely (idempotent under
        the operational guard policies); returns whether anything was
        removed."""
        if not self.guard.check_delete("object", oid in self._objects, oid):
            return False
        self._scalar("delete", oid, None)
        return True

    def _scalar(self, kind: str, oid: int, new_pos: Optional[Point]) -> None:
        """One object primitive through the executor's ``scalar`` op.

        Semantically the one-element ``process()`` batch (same events,
        regions and logical counters); a separate op only because a
        ``tick`` re-buckets every replica's CSR, which a load or a
        restore of N single calls cannot afford (DESIGN §9).
        """
        applied, tagged = self.executor.scalar(kind, oid, new_pos)
        if kind == "insert":
            self._objects.add(oid)
        elif kind == "delete":
            self._objects.discard(oid)
        if applied and new_pos is not None:
            self._containment += 1
        self._merge(tagged)

    # ------------------------------------------------------------------
    # Query maintenance
    # ------------------------------------------------------------------
    def add_query(
        self, qid: int, pos: Point, exclude: Iterable[int] = ()
    ) -> frozenset[int]:
        """Register a CRNN query on its stripe's shard; returns its
        initial result set."""
        if not self.guard.check_new_id("query", qid in self._owner, qid):
            self.update_query(qid, pos)
            return self.rnn(qid)
        checked = self.guard.check_point(pos, f"query {qid} insert")
        if checked is None:
            return frozenset()
        shard = self.plan.owner_of(checked)
        excl = frozenset(exclude)
        result, tagged = self.executor.add_query(shard, qid, checked, excl)
        self._owner[qid] = shard
        self._exclude[qid] = excl
        self._results.setdefault(qid, set())
        self._merge(tagged)
        return frozenset(self._results[qid])

    def remove_query(self, qid: int) -> bool:
        """Deregister a query and all its per-shard state; returns
        whether anything was removed."""
        if not self.guard.check_delete("query", qid in self._owner, qid):
            return False
        shard = self._owner.pop(qid)
        self._exclude.pop(qid, None)
        _removed, tagged = self.executor.remove_query(shard, qid)
        self._merge(tagged)
        self._results.pop(qid, None)
        return True

    def update_query(
        self, qid: int, new_pos: Point, *, cause: str = "query_moved"
    ) -> None:
        """Move a query point (recompute-at-new-location semantics); an
        unknown id is registered there, as ``process()`` would.

        Within its stripe this runs the owner shard's ordinary
        recomputation; crossing a stripe boundary migrates the query —
        silent removal from the old owner, silent re-registration on the
        new one — and the coordinator emits the same net result diff
        (sorted losses, then sorted gains) the single monitor would.
        """
        if qid not in self._owner:
            self.add_query(qid, new_pos)
            return
        checked = self.guard.check_point(new_pos, f"query {qid} update")
        if checked is None:
            return
        old_shard = self._owner[qid]
        new_shard = self.plan.owner_of(checked)
        if new_shard == old_shard:
            self._merge(self.executor.update_query(old_shard, qid, checked))
            return
        with self.obs.tracer.span(
            "shard.migrate_query", qid=qid, src=old_shard, dst=new_shard
        ):
            self.stats.query_recomputations += 1
            before = frozenset(self._results.get(qid, ()))
            self.executor.remove_query_silent(old_shard, qid)
            after = self.executor.add_query_silent(
                new_shard, qid, checked, self._exclude[qid]
            )
            self._owner[qid] = new_shard
            tag = (3, 0, 0, 0, 0, 0)
            tagged: list[TaggedEvent] = [
                (tag, ResultChange(qid, oid, gained=False))
                for oid in sorted(before - after)
            ]
            tagged.extend(
                (tag, ResultChange(qid, oid, gained=True))
                for oid in sorted(after - before)
            )
            # The silent remove + add counted nothing on either shard:
            # ``result_changes`` and the health gains / losses count
            # emitted events, and these are the migration's only ones.
            self.stats.result_changes += len(tagged)
            health = self.obs.health
            if health is not None:
                for _, change in tagged:
                    health.record_result_change(change.qid, change.gained)
            self._merge(tagged)

    # ------------------------------------------------------------------
    # Batched processing
    # ------------------------------------------------------------------
    def process(self, updates: Iterable[Update]) -> list[ResultChange]:
        """Apply a batch of updates (one monitoring timestamp).

        Same contract as :meth:`CRNNMonitor.process`: guard-sanitized,
        atomic with respect to rejection, returns the batch's combined
        result delta in single-monitor event order.
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
        tracer = self.obs.tracer
        sanitized = self.guard.sanitize_batch(updates)
        mark = len(self._events)
        with tracer.span("shard.scatter", shards=self.plan.shards):
            with self.timers.phase("shard_tick"):
                report = self.executor.tick(sanitized)
        self._containment += report.n_circ_moves
        seconds = report.shard_seconds
        mean = sum(seconds) / len(seconds)
        self.imbalance_ratio = max(seconds) / mean if mean > 0.0 else 1.0
        if self._m_imbalance is not None:
            self._m_imbalance.set(self.imbalance_ratio)
        for update in sanitized:
            if isinstance(update, ObjectUpdate):
                if update.pos is None:
                    self._objects.discard(update.oid)
                else:
                    self._objects.add(update.oid)
        with tracer.span("shard.halo", crossings=sum(report.halo.values())):
            if self._m_halo is not None:
                for shard, count in sorted(report.halo.items()):
                    self._m_halo.labels(str(shard)).inc(count)
        with tracer.span("shard.gather", events=len(report.tagged)):
            with self.timers.phase("merge"):
                self._merge(report.tagged)
        if self._m_updates is not None:
            self._m_updates.labels(self.executor.mode).inc()
        query_updates = [u for u in sanitized if isinstance(u, QueryUpdate)]
        with tracer.span("monitor.queries", updates=len(query_updates)):
            with self.timers.phase("queries"):
                for update in query_updates:
                    if update.pos is None:
                        self.remove_query(update.qid)
                    elif update.qid in self._owner:
                        self.update_query(update.qid, update.pos)
                    else:
                        self.add_query(update.qid, update.pos)
        return self._events[mark:]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def monitoring_region(self, qid: int):
        """The owner shard's pie- and circ-region view of ``qid``."""
        return self.executor.monitoring_region(self._owner[qid], qid)

    def explain(self, qid: int) -> QueryDiagnostics:
        """Per-query diagnostics, routed to the shard owning ``qid``.

        Runs :func:`repro.obs.explain.explain_query` against the owner
        shard's engine (in the worker process under the process
        executor) and stamps the coordinator-side ``shard`` field onto
        the returned :class:`~repro.obs.explain.QueryDiagnostics`.
        Raises ``KeyError`` for unknown query ids, exactly like
        :meth:`rnn`.
        """
        shard = self._owner[qid]
        diag = self.executor.explain(shard, qid)
        return dc_replace(diag, shard=shard)

    def verify_worker_metric_parity(self) -> bool:
        """Assert merged worker metric deltas equal worker ground truth.

        Cross-checks the coordinator-side per-shard counter totals
        accumulated from piggybacked worker deltas against a fresh
        ``stats`` gather from every live worker — exact equality, field
        by field (degraded stripes are skipped: their in-process twin
        carries no worker obs kit, so their deltas freeze at the moment
        of degradation).  Only meaningful under the process executor
        with observability enabled; raises ``RuntimeError`` otherwise
        and ``AssertionError`` on any mismatch.  Returns ``True``.
        """
        if self._shard_obs is None:
            raise RuntimeError(
                "worker metric parity requires executor='process' with "
                "observability enabled"
            )
        skip = self.supervision_report()["degraded_shards"]
        return self._shard_obs.assert_parity(
            self.executor.shard_stats(), skip=skip
        )

    def object_count(self) -> int:
        """Number of monitored objects."""
        return len(self._objects)

    def query_count(self) -> int:
        """Number of registered queries."""
        return len(self._owner)

    def aggregated_stats(self) -> StatCounters:
        """Coordinator + all shards' counters, single-monitor semantics.

        Shard counters sum except ``containment_queries``: every shard
        runs its own containment pass per move, so the sum would be
        ``K×`` the single monitor's count; the coordinator's own count
        (one per circ-visible update) replaces it.
        """
        total = self.stats
        for shard_stats in self.executor.shard_stats():
            total = total + shard_stats
        total.containment_queries = self._containment
        return total

    def summary(self) -> dict[str, float]:
        """Operational snapshot of the sharded deployment."""
        out = {
            "objects": float(self.object_count()),
            "queries": float(self.query_count()),
            "results": float(sum(len(r) for r in self._results.values())),
            "shards": float(self.plan.shards),
        }
        report = self.supervision_report()
        out["shard_restarts"] = float(report["restarts_total"])
        out["shards_degraded"] = float(len(report["degraded_shards"]))
        out["imbalance_ratio"] = self.imbalance_ratio
        out.update(
            (name, float(value))
            for name, value in self.guard.violation_counts().items()
        )
        return out

    def shard_of(self, qid: int) -> int:
        """The shard currently owning query ``qid``."""
        return self._owner[qid]

    def supervision_report(self) -> dict:
        """Restart/degradation snapshot of the supervision layer.

        Serial deployments (no workers) report zero restarts, so
        callers need not branch on the executor.
        """
        return self.executor.supervision_report()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Serialize the deployment's ground truth to a checkpoint dict.

        Same :data:`~repro.robustness.checkpoint.FORMAT` as the single
        monitor's checkpoint — positions, query registrations, current
        results, aggregated counters — so a snapshot taken under one
        shard count (or one executor) restores under any other, or even
        into a plain :class:`~repro.core.monitor.CRNNMonitor`.
        """
        from repro.robustness.checkpoint import build_snapshot_dict

        queries = []
        for shard in range(self.plan.shards):
            queries.extend(self.executor.shard_queries(shard))
        snap = build_snapshot_dict(
            self.config,
            self.executor.object_positions(),
            queries,
            self.results(),
            self.aggregated_stats().snapshot(),
        )
        self.stats.checkpoints_saved += 1
        return snap

    @classmethod
    def from_checkpoint(
        cls,
        snap: dict,
        shards: int = 2,
        executor: str = "serial",
        verify: bool = True,
        **kwargs,
    ) -> "ShardedCRNNMonitor":
        """Rebuild a sharded deployment from a checkpoint dict.

        The shard count and executor are free parameters — a snapshot
        saved under K=2 restores under K=8, or under the process pool —
        because the checkpoint records ground truth, not stripe layout.
        Objects and queries replay through the normal registration path;
        with ``verify`` the recomputed results must match the recorded
        ones and cross-shard ``validate()`` must pass.  Counters restart
        from the rebuild (per-shard counter state is a supervisor
        concern; see :mod:`repro.shard.journal` for the exact-recovery
        path), so continuation parity is checked on counter *deltas*.
        """
        from repro.robustness.checkpoint import (
            parse_config,
            replay_into,
            verify_restore,
        )

        config = parse_config(snap)
        monitor = cls(config, shards=shards, executor=executor, **kwargs)
        try:
            replay_into(monitor, snap)
            if verify:
                verify_restore(monitor, snap)
        except BaseException:
            monitor.close()
            raise
        monitor.stats.checkpoints_restored += 1
        return monitor

    def validate(self) -> None:
        """Cross-shard consistency checks; raises ``AssertionError``.

        Runs every shard's inner invariants over its private replica,
        then checks the coordinator's ownership map and result mirror
        against the shards' ground truth.
        """
        self.executor.validate()
        seen: dict[int, frozenset[int]] = {}
        for shard in range(self.plan.shards):
            for qid, result in self.executor.shard_results(shard).items():
                assert self._owner.get(qid) == shard, (
                    f"q{qid} lives on shard {shard} but is mapped to "
                    f"{self._owner.get(qid)}"
                )
                seen[qid] = result
        assert set(seen) == set(self._owner), "ownership map out of sync"
        mirror = self.results()
        assert mirror == seen, (
            f"result mirror diverges from shard state: "
            f"{set(mirror) ^ set(seen) or 'value mismatch'}"
        )

    def close(self) -> None:
        """Release executor resources (worker processes, span sinks)."""
        self.executor.close()
        self.obs.close()

    def __enter__(self) -> "ShardedCRNNMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
