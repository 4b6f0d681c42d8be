"""The benchmark's fixed tables: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root restates these tables in the
driver's schema; ``bench/test_bench.py`` asserts the two agree, so the
names, units and bounds live here and nowhere else in code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: ``--seconds`` when not given; equals ``run_seconds`` in BENCHMARK.json.
#: A run is sized in ticks, not by a deadline, so that parent and change
#: are measured over the same ticks of the same stream: ``--seconds`` buys
#: ``TICKS_PER_SECOND`` measured ticks each.  20 s gives every gated sample
#: set 200 ticks, the fewest the issue allows, and keeps the driver's 114
#: runs (17-35 s each here, 2550 s in all; 2950 s if every run were as slow
#: as the slowest seen) inside its 3420 s.
DEFAULT_SECONDS = 20
#: The rate of ``serve-mixed``'s open loop (1 / ``SERVE_PERIOD_S``): its
#: 200 timestamps take exactly ``--seconds``, and its closed-loop phase
#: then runs as many ticks again.  The in-process workloads run the same
#: 200 ticks back to back (~11 s at ~55 ms a tick).
TICKS_PER_SECOND = 10

#: Ticks run and discarded before the timed region (caches fill, lazily
#: materialized grid cells appear, FUR-tree settles).
WARMUP_TICKS = 20
#: Fresh builds whose median is ``setup_s``.
SETUP_BUILDS = 5

#: serve-mixed: fixed open-loop period and the delivery limit (3 periods =
#: a growing backlog); a delivery later than the limit is a failed one.
SERVE_PERIOD_S = 1.0 / TICKS_PER_SECOND
SERVE_DELIVER_LIMIT_S = 0.300


@dataclass(frozen=True)
class WorkloadDef:
    """One named workload: what runs, at what size, and why it exists."""

    name: str
    #: ``direct`` = CRNNMonitor.process(); ``sharded`` = ShardedCRNNMonitor
    #: K=2 process executor; ``serve`` = server child process over TCP.
    kind: str
    #: ``network`` = repro.mobility.Workload moves; ``churn`` = insert/delete.
    stream: str
    num_objects: int
    num_queries: int
    object_mobility: float
    query_mobility: float
    why: str

    def quick(self) -> "WorkloadDef":
        """The ``--quick`` variant: n / 10, same per-tick batch *shape*."""
        return replace(
            self,
            num_objects=self.num_objects // 10,
            num_queries=self.num_queries // 10,
        )


WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef(
            "obj-move", "direct", "network", 20000, 200, 0.10, 0.0,
            "Fig. 15a/16a regime: 2000 object moves/tick, no query moves; "
            "pie+circ+grid+kernels do all the work, init_crnn is idle",
        ),
        WorkloadDef(
            "query-move", "direct", "network", 20000, 200, 0.005, 0.10,
            "Fig. 16b regime: 20 query moves + 100 object moves/tick; "
            "init_crnn+cpm re-computation dominates, bulk-move paths are idle",
        ),
        WorkloadDef(
            "churn", "direct", "churn", 20000, 200, 0.05, 0.05,
            "membership writes, zero moves: 1000 deletes + 1000 inserts + 10 query "
            "swaps/tick force the scalar insert/delete path and circ NN re-searches",
        ),
        WorkloadDef(
            "obj-move-k2", "sharded", "network", 20000, 200, 0.10, 0.0,
            "byte-identical obj-move stream through K=2 process shards: isolates "
            "scatter/pickle/pipe/gather/merge cost of repro.shard",
        ),
        WorkloadDef(
            "serve-mixed", "serve", "network", 10000, 100, 0.05, 0.05,
            "505 updates/timestamp over TCP to a server child: open loop at 10 Hz "
            "for delivery latency, then closed loop for capacity; wire layers on path",
        ),
    )
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a regression;
#: see bench/README.md for how each was derived from the recorded spread.
#: The three per-tick time metrics stand at the issue's cap of 10 %, not at
#: its 7 %: the driver refused 7 % for ``obj-move-k2``'s same-code spread.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.10),
    ("tick_ms_p50", "ms", "lower", 0.10),
    ("updates_per_s", "1/s", "higher", 0.10),
    ("cpu_ms_per_tick", "ms", "lower", 0.10),
    ("deliver_ms_p50", "ms", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: ``failed_frac`` is reported and compared (absolute bound +0) but is not a
#: driver-gated metric: it is 0 on a healthy tree, and the driver's schema
#: carries the same information as ``attempted``/``failed``/``correct``.
FAILED_FRAC = ("failed_frac", "ratio", "lower", 0.0)

#: (name, unit, better).  Every name is emitted on every workload by the
#: traced run; a layer that is not on a workload's path reads 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("guard.self_ms", "ms", "lower"),
    ("guard.updates", "count", "lower"),
    ("grid.move_self_ms", "ms", "lower"),
    ("grid.enum_self_ms", "ms", "lower"),
    ("grid.csr_rebuilds", "count", "lower"),
    ("grid.cells_materialized", "count", "lower"),
    ("cpm.self_ms", "ms", "lower"),
    ("cpm.nn_searches", "count", "lower"),
    ("cpm.constrained_searches", "count", "lower"),
    ("cpm.cells_per_search", "count", "lower"),
    ("cpm.kernel_fallback_frac", "ratio", "lower"),
    ("kernels.self_ms", "ms", "lower"),
    ("kernels.calls", "count", "lower"),
    ("pie.self_ms", "ms", "lower"),
    ("pie.case1", "count", "lower"),
    ("pie.case2", "count", "lower"),
    ("pie.case3", "count", "lower"),
    ("pie.prefilter_skip_frac", "ratio", "higher"),
    ("circ.self_ms", "ms", "lower"),
    ("circ.containment_queries", "count", "lower"),
    ("circ.lazy_defer_frac", "ratio", "higher"),
    ("circ.records", "count", "lower"),
    ("fur.self_ms", "ms", "lower"),
    ("fur.node_accesses", "count", "lower"),
    ("fur.bottom_up_frac", "ratio", "higher"),
    ("init.self_ms", "ms", "lower"),
    ("init.calls", "count", "lower"),
    ("init.ms_per_call", "ms", "lower"),
    ("monitor.self_ms", "ms", "lower"),
    ("monitor.events", "count", "lower"),
    ("monitor.tick_ms_p95", "ms", "lower"),
    ("monitor.tick_ms_max", "ms", "lower"),
    ("monitor.phase_grid_ms", "ms", "lower"),
    ("monitor.phase_pies_ms", "ms", "lower"),
    ("monitor.phase_circs_ms", "ms", "lower"),
    ("monitor.phase_queries_ms", "ms", "lower"),
    ("shard.tick_ms", "ms", "lower"),
    ("shard.stripe_max_ms", "ms", "lower"),
    ("shard.stripe_mean_ms", "ms", "lower"),
    ("shard.stripe_skew", "ratio", "lower"),
    ("shard.coord_ms", "ms", "lower"),
    ("shard.merge_ms", "ms", "lower"),
    ("shard.queries_ms", "ms", "lower"),
    ("shard.scatter_bytes", "bytes", "lower"),
    ("shard.gather_bytes", "bytes", "lower"),
    ("shard.halo_moves", "count", "lower"),
    ("shard.restarts", "count", "lower"),
    ("shard.speedup_vs_single", "ratio", "higher"),
    ("proto.encode_us_per_update", "us", "lower"),
    ("proto.decode_us_per_update", "us", "lower"),
    ("proto.bytes_per_update", "bytes", "lower"),
    ("proto.event_us_per_change", "us", "lower"),
    ("serve.decode_ms", "ms", "lower"),
    ("serve.process_ms", "ms", "lower"),
    ("serve.fanout_ms", "ms", "lower"),
    ("serve.wire_overhead_ms", "ms", "lower"),
    ("serve.wait_ms_p50", "ms", "lower"),
    ("serve.deliver_ms_p95", "ms", "lower"),
    ("serve.queue_peak", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.frames_out", "count", "lower"),
    ("gen.late_ms_p95", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)

UNITS: dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END + (FAILED_FRAC,)},
    **{name: unit for name, unit, _ in PER_LAYER},
}


@dataclass(frozen=True)
class RunPlan:
    """Tick budget of one run, derived from ``--seconds`` (or ``--quick``)."""

    warmup: int
    #: Measured ticks after the warm-up.
    ticks: int
    #: serve-mixed only: how many of ``ticks`` are sent open loop at the
    #: fixed period; the rest run closed loop.
    open_ticks: int = 0
    setup_builds: int = SETUP_BUILDS

    def scaled(self, share: float) -> "RunPlan":
        """Same plan over ``share`` of the measured ticks (traced passes)."""
        return replace(
            self,
            ticks=max(8, math.ceil(self.ticks * share)),
            open_ticks=math.ceil(self.open_ticks * share),
        )


def plan_for(wd: WorkloadDef, seconds: float, quick: bool) -> RunPlan:
    """How many ticks ``--seconds`` buys on ``wd``."""
    serve = wd.kind == "serve"
    if quick:
        return RunPlan(warmup=5, ticks=30, open_ticks=20 if serve else 0)
    ticks = max(8, round(seconds * TICKS_PER_SECOND))
    if serve:
        return RunPlan(WARMUP_TICKS, 2 * ticks, open_ticks=ticks)
    return RunPlan(WARMUP_TICKS, ticks)
