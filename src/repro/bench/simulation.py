"""Timed simulation runs: one method over one workload.

Mirrors the paper's measurement protocol (Section 6.1): the queries are
evaluated at every timestamp; we simulate ``spec.timestamps`` timestamps
and report the average CPU time of *updating* — initial computation is
excluded.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.core.baseline import TPLFURBaseline
from repro.core.config import GUARD_DROP, LU_ONLY, LU_PI, UNIFORM, MonitorConfig
from repro.core.monitor import CRNNMonitor
from repro.core.oracle import BruteForceMonitor
from repro.mobility.network import RoadNetwork, oldenburg_like
from repro.mobility.workload import Workload, WorkloadSpec
from repro.robustness.audit import AuditPolicy, AuditReport, InvariantAuditor
from repro.robustness.faults import FaultInjector, FaultSpec

#: Canonical method names used across the bench suite.
METHOD_TPL_FUR = "TPL-FUR"
METHOD_UNIFORM = "Uniform"
METHOD_LU_ONLY = "LU-only"
METHOD_LU_PI = "LU+PI"

ALL_METHODS = (METHOD_TPL_FUR, METHOD_UNIFORM, METHOD_LU_ONLY, METHOD_LU_PI)


@dataclass
class SimulationResult:
    """Timing and operation counters from one simulated run."""

    method: str
    spec: WorkloadSpec
    per_timestamp_seconds: list[float] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def avg_update_seconds(self) -> float:
        """Mean per-timestamp processing time."""
        if not self.per_timestamp_seconds:
            return 0.0
        return sum(self.per_timestamp_seconds) / len(self.per_timestamp_seconds)

    @property
    def median_update_seconds(self) -> float:
        """Median per-timestamp time — robust to transient system noise
        (the sweeps report this; the paper's averages are also kept)."""
        if not self.per_timestamp_seconds:
            return 0.0
        return statistics.median(self.per_timestamp_seconds)

    @property
    def total_seconds(self) -> float:
        """Total processing time across all timestamps."""
        return sum(self.per_timestamp_seconds)


def make_target(
    method: str,
    grid_cells: int = 64,
    tpl_fanout: int = 50,
    config: Optional[MonitorConfig] = None,
):
    """Instantiate the processing engine for a canonical method name.

    A full ``config`` may be supplied to override the monitor settings
    (used by the ablation benches, e.g. threshold sweeps); it must agree
    with the requested method's variant.
    """
    if method == METHOD_TPL_FUR:
        return TPLFURBaseline(fanout=tpl_fanout)
    variants = {
        METHOD_UNIFORM: UNIFORM,
        METHOD_LU_ONLY: LU_ONLY,
        METHOD_LU_PI: LU_PI,
    }
    if method not in variants:
        raise ValueError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    if config is None:
        config = MonitorConfig(variant=variants[method], grid_cells=grid_cells)
    elif config.variant != variants[method]:
        raise ValueError(
            f"config variant {config.variant!r} does not match method {method!r}"
        )
    return CRNNMonitor(config)


def run_method(
    method: str,
    spec: WorkloadSpec,
    network: Optional[RoadNetwork] = None,
    grid_cells: int = 64,
    clock: Callable[[], float] = time.perf_counter,
    config: Optional[MonitorConfig] = None,
    faults: Optional[FaultSpec] = None,
    guard_policy: Optional[str] = None,
) -> SimulationResult:
    """Simulate ``spec`` with ``method`` and time each monitoring timestamp.

    The same ``spec`` (seed included) always produces the same update
    stream, so different methods are compared on identical workloads.

    ``faults`` optionally runs the update stream through a seeded
    :class:`~repro.robustness.faults.FaultInjector` (same spec, same
    faulted stream — methods stay comparable); ``guard_policy``
    overrides the monitor's ingestion-guard policy, which a faulted run
    usually wants set to ``"drop"`` or ``"clamp"``.  Neither is
    supported for the TPL-FUR baseline.
    """
    if method == METHOD_TPL_FUR and (faults is not None or guard_policy is not None):
        raise ValueError("fault injection and guard policies require a CRNNMonitor method")
    if network is None:
        network = oldenburg_like(spec.bounds, random.Random(spec.seed))
    workload = Workload(spec, network)
    if guard_policy is not None:
        if config is None:
            variants = {
                METHOD_UNIFORM: UNIFORM,
                METHOD_LU_ONLY: LU_ONLY,
                METHOD_LU_PI: LU_PI,
            }
            config = MonitorConfig(variant=variants[method], grid_cells=grid_cells)
        config = replace(config, guard_policy=guard_policy)
    target = make_target(method, grid_cells=grid_cells, config=config)
    workload.load_into(target)  # initialisation: untimed, as in the paper

    batches = workload.batches()
    if faults is not None and faults.active():
        batches = FaultInjector(faults).stream(batches)
    result = SimulationResult(method=method, spec=spec)
    before = target.stats.snapshot()
    for batch in batches:
        start = clock()
        target.process(batch)
        result.per_timestamp_seconds.append(clock() - start)
    result.stats = target.stats.diff(before)
    return result


@dataclass
class ResilienceResult:
    """Outcome of one fault-injected, audited simulation run."""

    method: str
    spec: WorkloadSpec
    faults: FaultSpec
    injected: dict[str, int] = field(default_factory=dict)
    audits: list[AuditReport] = field(default_factory=list)
    #: Audit timestamps at which the full result map disagreed with the
    #: lockstep oracle even after the auditor's repairs.
    unrepaired_mismatches: int = 0
    final_results_match: bool = False
    final_validate_clean: bool = False
    guard_counters: dict[str, int] = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        """The run ended exact and structurally clean, with every
        audited divergence repaired in place."""
        return (
            self.final_results_match
            and self.final_validate_clean
            and self.unrepaired_mismatches == 0
        )


def run_resilience(
    method: str,
    spec: WorkloadSpec,
    faults: FaultSpec,
    network: Optional[RoadNetwork] = None,
    grid_cells: int = 64,
    guard_policy: str = GUARD_DROP,
    audit: Optional[AuditPolicy] = None,
) -> ResilienceResult:
    """Run a faulted workload with auditing and verify exactness.

    The monitor ingests the faulted stream under ``guard_policy``; a
    lockstep :class:`~repro.core.oracle.BruteForceMonitor` consumes the
    *effective* stream the guard admitted, so at every audited timestamp
    the monitor's full result map can be compared against ground truth.
    The :class:`~repro.robustness.audit.InvariantAuditor` runs on its
    normal cadence (sampled checks + scoped repair); the end-of-run
    check is a full sweep.
    """
    if method == METHOD_TPL_FUR:
        raise ValueError("resilience runs require a CRNNMonitor method")
    if network is None:
        network = oldenburg_like(spec.bounds, random.Random(spec.seed))
    workload = Workload(spec, network)
    target = run_resilience_target(method, spec, grid_cells, guard_policy)
    workload.load_into(target)
    oracle = BruteForceMonitor()
    workload.load_into(oracle)

    policy = audit if audit is not None else AuditPolicy(interval=5, seed=spec.seed)
    auditor = InvariantAuditor(target, policy)
    injector = FaultInjector(faults)
    result = ResilienceResult(method=method, spec=spec, faults=faults)
    for batch in injector.stream(workload.batches()):
        target.process(batch)
        oracle.process(target.guard.last_effective)
        report = auditor.after_batch()
        if report is None:
            continue
        if target.results() != oracle.results():
            result.unrepaired_mismatches += 1
    result.final_results_match = target.results() == oracle.results()
    try:
        target.validate()
        result.final_validate_clean = True
    except AssertionError:
        result.final_validate_clean = False
    result.audits = auditor.reports
    result.injected = injector.log.counts()
    result.guard_counters = target.guard.violation_counts()
    return result


def run_resilience_target(
    method: str, spec: WorkloadSpec, grid_cells: int, guard_policy: str
) -> CRNNMonitor:
    """A monitor for ``method`` with the given ingestion-guard policy."""
    variants = {
        METHOD_UNIFORM: UNIFORM,
        METHOD_LU_ONLY: LU_ONLY,
        METHOD_LU_PI: LU_PI,
    }
    if method not in variants:
        raise ValueError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    config = MonitorConfig(
        variant=variants[method], grid_cells=grid_cells, guard_policy=guard_policy
    )
    return CRNNMonitor(config)
