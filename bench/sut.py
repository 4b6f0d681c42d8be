"""In-process runs: ``CRNNMonitor`` direct and ``ShardedCRNNMonitor`` K=2.

One function, :func:`run_monitor`, drives both — they share the
``process()/drain_events()/results()/validate()`` surface; what differs is
how the monitor is built and which processes count as the system under
test for CPU and memory.
"""

from __future__ import annotations

import gc
import os
import pickle
import statistics
import time
from collections import defaultdict
from functools import cached_property
from typing import Callable, Optional

from repro.core.config import MonitorConfig
from repro.core.monitor import CRNNMonitor

from bench import oracle, pace, spec
from bench.streams import Snapshot, Stream
from bench.tracing import Tracer

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# /proc readers (Linux): CPU and peak RSS of processes other than our own
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # The command name may contain spaces; fields restart after ')'.
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Share of ticks dropped at each end before the sum-based metrics
#: (``updates_per_s``, ``cpu_ms_per_tick``) are taken: a collector pause or
#: a shard checkpoint tick is then an outlier, not a shift of the metric.
TRIM = 0.10


def trimmed(values: list[float], by: Optional[list[float]] = None) -> list[float]:
    """``values`` without the ``TRIM`` lowest and highest, ranked by ``by``."""
    order = sorted(range(len(values)), key=(by or values).__getitem__)
    cut = int(len(order) * TRIM)
    return [values[i] for i in order[cut : len(order) - cut]]


def time_metrics(updates: list[int], wall_s: list[float], cpu_s: list[float]) -> dict:
    """The three per-tick time metrics from aligned per-tick samples."""
    return {
        "tick_ms_p50": statistics.median(wall_s) * 1e3,
        "updates_per_s": sum(trimmed(updates, wall_s)) / sum(trimmed(wall_s)),
        "cpu_ms_per_tick": statistics.fmean(trimmed(cpu_s)) * 1e3,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# Building the system under test
# ----------------------------------------------------------------------
def make_direct() -> CRNNMonitor:
    """What a user gets: shipped defaults (grid 128, vectorized, strict, obs off)."""
    return CRNNMonitor(MonitorConfig.lu_pi())


def make_sharded():
    """The TUNING.md production setting: K=2 supervised worker processes."""
    from repro.shard.monitor import ShardedCRNNMonitor
    from repro.shard.supervisor import SupervisionConfig

    return ShardedCRNNMonitor(
        MonitorConfig.lu_pi(),
        shards=2,
        executor="process",
        supervision=SupervisionConfig(),
    )


def worker_pids(monitor) -> list[int]:
    """Pids of a sharded monitor's worker processes ([] for a direct one)."""
    supervisor = getattr(getattr(monitor, "executor", None), "supervisor", None)
    if supervisor is None:
        return []
    return [c.proc.pid for c in supervisor.channels if hasattr(c, "proc")]


def close(monitor) -> None:
    """Stop worker processes, if the monitor has any."""
    closer = getattr(monitor, "close", None)
    if closer is not None:
        closer()


def compute_pids(monitor) -> tuple[int, ...]:
    """The processes ``monitor``'s ticks are computed in: the workers, else this one."""
    return tuple(worker_pids(monitor)) or (os.getpid(),)


def build_and_load(make: Callable, stream: Stream, builds: int):
    """``builds`` fresh monitors loaded with the initial snapshot.

    Returns the last monitor (kept for the run), each build's seconds as
    measured — construction (worker spawn for K=2) + one ``process()`` of
    the sorted snapshot + ``drain_events()`` — and each build's host-speed
    scale.  A sharded build is not scaled (1.0): most of it is spawning
    two interpreters and their imports, which does not follow the probe —
    over 150 recorded builds its spread was the same scaled by the
    workers' cores as not (7 %), and twice that scaled by this process's
    core or by the warm-up ticks that follow.
    """
    init = stream.init.materialize()
    seconds, scales = [], []
    monitor = None
    for _ in range(builds):
        if monitor is not None:
            close(monitor)
            monitor = None
        gc.collect()
        t0 = time.perf_counter()
        monitor = make()
        monitor.process(init)
        monitor.drain_events()
        seconds.append(time.perf_counter() - t0)
        scales.append(1.0 if make is make_sharded else pace.scale_after(os.getpid()))
    return monitor, seconds, scales


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
class TickLog:
    """Per-tick samples of one timed region."""

    def __init__(self, exponent: float = 1.0) -> None:
        #: Exponent of the host-speed scale (:data:`pace.SLEEPER_EXPONENT`
        #: when the ticks are computed in other processes).
        self.exponent = exponent
        #: Wall and CPU seconds as measured, and the host-speed probe of each
        #: computing core taken just before each tick (see :mod:`bench.pace`).
        self.raw_wall_s: list[float] = []
        self.raw_cpu_s: list[float] = []
        self.probe_s: list[dict[int, float]] = []
        self.updates: list[int] = []

    def __len__(self) -> int:
        return len(self.raw_wall_s)

    @cached_property
    def scale(self) -> list[float]:
        """Per-tick host-speed scale; read once the region is complete."""
        return pace.factors_each(self.probe_s, self.exponent)

    @property
    def wall_s(self) -> list[float]:
        """Speed-normalised wall seconds per tick."""
        return [w * f for w, f in zip(self.raw_wall_s, self.scale)]

    @property
    def cpu_s(self) -> list[float]:
        """Speed-normalised CPU seconds per tick."""
        return [c * f for c, f in zip(self.raw_cpu_s, self.scale)]

    @property
    def speed(self) -> float:
        """Median scale applied (1.0 = the host ran at reference speed)."""
        return statistics.median(self.scale)


def run_ticks(
    monitor,
    stream: Stream,
    start: int,
    stop: int,
    fold: oracle.EventFold,
    snapshot: Snapshot,
    tracer: Optional[Tracer] = None,
) -> TickLog:
    """``process(batch)`` + ``drain_events()`` over ticks ``[start, stop)``.

    The batch is materialised, and events are folded and hashed, outside
    the timed body.  CPU per tick is this process's own plus that of the
    monitor's worker processes.
    """

    def body(batch):
        monitor.process(batch)
        return monitor.drain_events()

    if tracer is not None:
        body = tracer.root(body)
    pids = worker_pids(monitor)
    log = TickLog(pace.SLEEPER_EXPONENT if pids else 1.0)
    gc.collect()
    computing = compute_pids(monitor)
    workers = sum(proc_cpu_s(p) for p in pids)
    for i in range(start, stop):
        batch = stream.ticks[i].materialize()
        if tracer is not None:
            tracer.tick = i
        log.probe_s.append(pace.probe_each(computing))
        c0 = time.process_time()
        t0 = time.perf_counter()
        events = body(batch)
        t1 = time.perf_counter()
        c1 = time.process_time()
        workers, before = sum(proc_cpu_s(p) for p in pids), workers
        log.raw_wall_s.append(t1 - t0)
        log.raw_cpu_s.append(c1 - c0 + workers - before)
        log.updates.append(len(batch))
        fold.tick([(e.qid, e.oid, e.gained) for e in events])
        snapshot.apply(stream.ticks[i])
    return log


class Checks:
    """Tally of a run: every check adds to ``attempted``, misses to ``failed``.

    A miss on the program's *outputs* (oracle, event fold, ``validate()``,
    event-stream hash) also counts as ``incorrect`` and fails the command;
    a timestamp that was shed, never acked or delivered late is a failed
    operation of an otherwise correct run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.notes: list[str] = []

    def add(self, what: str, attempted: int, failed: int, output: bool = True) -> None:
        """Record ``failed`` misses out of ``attempted`` for check ``what``."""
        self.attempted += attempted
        self.failed += failed
        if output:
            self.incorrect += failed
        if failed:
            self.notes.append(f"{what}: {failed}/{attempted} failed")


def verify_results(
    final: dict[int, frozenset[int]],
    fold: oracle.EventFold,
    snapshot: Snapshot,
    checks: Checks,
    corrupt_oracle: bool,
) -> None:
    """Final results against the brute-force oracle and the folded events."""
    objects = snapshot.objects
    if corrupt_oracle:
        # Test hook: feed the oracle a wrong snapshot; the run must fail.
        objects = {o: (x + 137.0, y) for o, (x, y) in objects.items()}
    want = oracle.rnn_by_definition(objects, snapshot.queries)
    checks.add("oracle", len(want), oracle.result_mismatches(final, want))
    checks.add("event-fold", len(final), fold.mismatches(final))


def replay_direct(stream: Stream, stop: int) -> tuple[TickLog, oracle.EventFold]:
    """Untraced single ``CRNNMonitor`` over ticks ``[0, stop)``: the in-process
    reference the sharded and served runs are compared with."""
    monitor = build_and_load(make_direct, stream, 1)[0]
    fold = oracle.EventFold(monitor.results())
    return run_ticks(monitor, stream, 0, stop, fold, Snapshot()), fold


# ----------------------------------------------------------------------
# One untraced run -> end-to-end metrics (+ the layer numbers that come
# from shipped counters/timers of the untraced run)
# ----------------------------------------------------------------------
def run_monitor(
    wd: spec.WorkloadDef,
    stream: Stream,
    plan: spec.RunPlan,
    corrupt_oracle: bool = False,
) -> dict:
    """Untraced run of a direct or sharded workload."""
    make = make_sharded if wd.kind == "sharded" else make_direct
    checks = Checks()
    monitor, raw_setup_s, scales = build_and_load(make, stream, plan.setup_builds)
    try:
        snapshot = Snapshot()
        snapshot.apply(stream.init)
        fold = oracle.EventFold(monitor.results())
        warm = plan.warmup
        run_ticks(monitor, stream, 0, warm, fold, snapshot)
        setup_s = statistics.median(s * f for s, f in zip(raw_setup_s, scales))
        pids = worker_pids(monitor)
        timers0 = dict(monitor.timers.totals)
        # A tick that raises ends the child with a traceback and a non-zero
        # exit: the whole run is then a failure, not one failed sample.
        log = run_ticks(monitor, stream, warm, warm + plan.ticks, fold, snapshot)
        checks.add("ticks", len(log), 0, output=False)
        rss = proc_peak_rss_mb(os.getpid()) + sum(proc_peak_rss_mb(p) for p in pids)
        # Shipped PhaseTimers of the measured ticks, in normalised ms/tick.
        timers = {
            k: (v - timers0.get(k, 0.0)) / len(log) * 1e3 * log.speed
            for k, v in monitor.timers.totals.items()
        }
        restarts = 0
        if pids:
            restarts = monitor.supervision_report()["restarts_total"]
        try:
            monitor.validate()
            checks.add("validate", 1, 0)
        except AssertionError as exc:
            checks.add(f"validate ({exc})", 1, 1)
        verify_results(monitor.results(), fold, snapshot, checks, corrupt_oracle)
    finally:
        close(monitor)
    n = len(log)
    wall_s = log.wall_s
    return {
        "metrics": {
            "setup_s": setup_s,
            **time_metrics(log.updates, wall_s, log.cpu_s),
            "peak_rss_mb": rss,
        },
        "raw": {
            "setup_s": statistics.median(raw_setup_s),
            **time_metrics(log.updates, log.raw_wall_s, log.raw_cpu_s),
            "host_speed": log.speed,
        },
        "layers": {
            "monitor.tick_ms_p95": percentile(wall_s, 0.95) * 1e3,
            "monitor.tick_ms_max": max(wall_s) * 1e3,
            "monitor.phase_grid_ms": timers.get("grid_moves", 0.0),
            "monitor.phase_pies_ms": timers.get("pies", 0.0),
            "monitor.phase_circs_ms": timers.get("circs", 0.0),
            "monitor.phase_queries_ms": timers.get("queries", 0.0) if not pids else 0.0,
            "shard.merge_ms": timers.get("merge", 0.0),
            "shard.queries_ms": timers.get("queries", 0.0) if pids else 0.0,
            "shard.restarts": float(restarts),
        },
        "ticks": n,
        "samples": {"tick_ms_p50": n, "monitor.tick_ms_p95": n},
        "tick_ms": [w * 1e3 for w in wall_s],
        "setup_builds_s": raw_setup_s,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "incorrect": checks.incorrect,
        "notes": checks.notes,
        "event_digests": fold.digests,
        "events": fold.events,
    }


# ----------------------------------------------------------------------
# The traced pass -> per-layer table
# ----------------------------------------------------------------------
_COUNTER_LAYERS = {
    "grid.csr_rebuilds": "csr_rebuilds",
    "grid.cells_materialized": "cells_materialized",
    "cpm.nn_searches": "nn_searches",
    "cpm.constrained_searches": "constrained_nn_searches",
    "kernels.calls": "vector_nn_kernel_calls",
    "pie.case1": "pie_case1",
    "pie.case2": "pie_case2",
    "pie.case3": "pie_case3",
    "circ.containment_queries": "containment_queries",
    "fur.node_accesses": "fur_node_accesses",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_layers(delta: dict[str, int], ticks: int) -> dict[str, float]:
    """Per-tick counts and useful-work ratios from a ``StatCounters`` diff."""
    out = {name: delta[field] / ticks for name, field in _COUNTER_LAYERS.items()}
    searches = delta["nn_searches"] + delta["constrained_nn_searches"]
    out["cpm.cells_per_search"] = _ratio(delta["cells_visited"], searches)
    out["cpm.kernel_fallback_frac"] = _ratio(
        delta["vector_nn_kernel_fallbacks"], delta["vector_nn_kernel_calls"]
    )
    out["pie.prefilter_skip_frac"] = _ratio(
        delta["vector_pie_prefilter_skips"],
        delta["vector_pie_prefilter_skips"] + delta["vector_pie_prefilter_hits"],
    )
    out["circ.lazy_defer_frac"] = _ratio(
        delta["circ_lazy_radius_updates"],
        delta["circ_lazy_radius_updates"] + delta["circ_nn_searches_triggered"],
    )
    out["fur.bottom_up_frac"] = _ratio(
        delta["fur_bottom_up_updates"],
        delta["fur_bottom_up_updates"] + delta["fur_topdown_reinserts"],
    )
    return out


def span_layers(table, ticks: int, speed: float) -> dict[str, float]:
    """Per-tick self milliseconds of each layer, from the span table.

    ``speed`` is the traced pass's host-speed scale, so the table is in the
    same normalised milliseconds as the end-to-end metrics.
    """

    def ms(layer: str) -> float:
        return table.layer_self_s(layer) / ticks * 1e3 * speed

    init_calls = table.layer_calls("init")
    return {
        "guard.self_ms": ms("guard"),
        "grid.move_self_ms": ms("grid.move"),
        "grid.enum_self_ms": ms("grid.enum"),
        "cpm.self_ms": ms("cpm"),
        "kernels.self_ms": ms("kernels"),
        "pie.self_ms": ms("pie"),
        "circ.self_ms": ms("circ"),
        "fur.self_ms": ms("fur"),
        "init.self_ms": ms("init"),
        "init.calls": init_calls / ticks,
        "init.ms_per_call": _ratio(table.layer_self_s("init") * 1e3 * speed, init_calls),
        "monitor.self_ms": ms("monitor"),
        "trace.unattributed_frac": _ratio(table.layer_self_s("tick"), table.root_s),
    }


def stats_snapshot(monitor) -> dict[str, int]:
    """Logical counters of a direct or sharded monitor."""
    if hasattr(monitor, "aggregated_stats"):
        return monitor.aggregated_stats().snapshot()
    return monitor.stats.snapshot()


def trace_monitor(
    wd: spec.WorkloadDef,
    stream: Stream,
    plan: spec.RunPlan,
    untraced: dict,
    out_dir: str,
) -> dict[str, float]:
    """Traced pass over the first ticks of ``plan``; returns layer metrics.

    ``untraced`` is the result of :func:`run_monitor` on the same stream: it
    supplies the tick times the tracing overhead is measured against.
    """
    sharded = wd.kind == "sharded"
    tracer = Tracer()
    shard_log: dict[str, list] = {"stripes": [], "halo": [], "scatter": [], "gather": []}
    tracer.install()
    if sharded:
        _install_shard_capture(tracer, shard_log)
    try:
        monitor = build_and_load(make_sharded if sharded else make_direct, stream, 1)[0]
        try:
            snapshot = Snapshot()
            snapshot.apply(stream.init)
            fold = oracle.EventFold(monitor.results())
            warm = plan.warmup
            run_ticks(monitor, stream, 0, warm, fold, snapshot)
            stats0 = stats_snapshot(monitor)
            events0 = fold.events
            tracer.start()
            log = run_ticks(monitor, stream, warm, warm + plan.ticks, fold, snapshot, tracer)
            tracer.stop()
            stats1 = stats_snapshot(monitor)
            records = len(getattr(monitor, "circ", ()))
        finally:
            close(monitor)
    finally:
        tracer.uninstall()
    n = len(log)
    table = tracer.table()
    tracer.dump(os.path.join(out_dir, f"trace-{wd.name}.json"))
    layers = span_layers(table, n, log.speed)
    layers.update(counter_layers({k: stats1[k] - stats0[k] for k in stats1}, n))
    layers["guard.updates"] = sum(log.updates) / n
    layers["monitor.events"] = (fold.events - events0) / n
    layers["circ.records"] = float(records)
    layers["trace.overhead_frac"] = (
        statistics.median(log.wall_s) * 1e3 / statistics.median(untraced["tick_ms"][:n]) - 1.0
    )
    if sharded:
        layers.update(_shard_layers(tracer, shard_log, log.speed))
        layers["shard.speedup_vs_single"] = _speedup_vs_single(stream, plan, untraced, n)
    return layers


def _install_shard_capture(tracer: Tracer, shard_log: dict[str, list]) -> None:
    """Record what crosses the coordinator/worker boundary on each tick.

    Wraps (over the tracer's own spans) ``ProcessExecutor.tick`` to keep the
    ``TickReport`` and ``ShardSupervisor.broadcast`` to size the pickled
    request and replies.  Sizing happens in a ``trace.pickle_sizes`` span so
    its cost is booked as tracing overhead, not as shard time.
    """
    from repro.shard.executor import ProcessExecutor
    from repro.shard.supervisor import ShardSupervisor

    spanned_tick = ProcessExecutor.tick
    spanned_broadcast = ShardSupervisor.broadcast

    def sizes(request, replies, shards):
        shard_log["scatter"].append(len(pickle.dumps(request)) * shards)
        shard_log["gather"].append(sum(len(pickle.dumps(r)) for r in replies))

    sizes = tracer.wrap("trace.pickle_sizes", sizes)

    def tick(self, sanitized):
        report = spanned_tick(self, sanitized)
        if tracer.tid is not None:
            shard_log["stripes"].append(list(report.shard_seconds))
            shard_log["halo"].append(sum(report.halo.values()))
        return report

    def broadcast(self, request):
        replies = spanned_broadcast(self, request)
        if tracer.tid is not None:
            sizes(request, replies, self.shards)
        return replies

    tracer.patch(ProcessExecutor, "tick", tick)
    tracer.patch(ShardSupervisor, "broadcast", broadcast)


def _shard_layers(tracer: Tracer, shard_log: dict[str, list], speed: float) -> dict[str, float]:
    """Medians over traced ticks of the coordinator/stripe time split."""
    names = tracer.names
    tick_id = names.index("shard.executor_tick")
    sizes_id = names.index("trace.pickle_sizes")
    tick_s: dict[int, float] = defaultdict(float)
    for name_id, _parent, tick, start, end in tracer.spans:
        if name_id == tick_id:
            tick_s[tick] += end - start
        elif name_id == sizes_id:
            # Sizing runs inside the patched broadcast, i.e. under the
            # executor_tick span of the same tick: take it back out.
            tick_s[tick] -= end - start
    walls = [tick_s[t] * 1e3 * speed for t in sorted(tick_s)]
    stripe_max = [max(s) * 1e3 * speed for s in shard_log["stripes"]]
    stripe_mean = [statistics.fmean(s) * 1e3 * speed for s in shard_log["stripes"]]
    med = statistics.median
    return {
        "shard.tick_ms": med(walls),
        "shard.stripe_max_ms": med(stripe_max),
        "shard.stripe_mean_ms": med(stripe_mean),
        "shard.stripe_skew": med([_ratio(a, b) for a, b in zip(stripe_max, stripe_mean)]),
        "shard.coord_ms": med([w - s for w, s in zip(walls, stripe_max)]),
        "shard.scatter_bytes": statistics.fmean(shard_log["scatter"]),
        "shard.gather_bytes": statistics.fmean(shard_log["gather"]),
        "shard.halo_moves": statistics.fmean(shard_log["halo"]),
    }


def _speedup_vs_single(
    stream: Stream, plan: spec.RunPlan, untraced: dict, ticks: int
) -> float:
    """Single-monitor reference over the same ticks, untraced.

    Base = the single ``CRNNMonitor``'s ``tick_ms_p50`` over the first
    ``ticks`` measured ticks; the sharded side is the untraced run's p50
    over the same ticks.  The reference's event stream must hash equal to
    the sharded run's, which is recorded as one more check on ``untraced``.
    """
    stop = plan.warmup + ticks
    log, fold = replay_direct(stream, stop)
    same = fold.digests[-1] == untraced["event_digests"][stop - 1]
    untraced["attempted"] += 1
    if not same:
        untraced["failed"] += 1
        untraced["incorrect"] += 1
        untraced["notes"].append("event stream differs from the single monitor's")
    reference_p50 = statistics.median(log.wall_s[plan.warmup :]) * 1e3
    return reference_p50 / statistics.median(untraced["tick_ms"][:ticks])
