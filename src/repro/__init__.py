"""repro — Continuous Reverse Nearest Neighbor (CRNN) monitoring.

A from-scratch reproduction of *"Continuous Reverse Nearest Neighbor
Monitoring"* (Tian Xia, Donghui Zhang — ICDE 2006): a main-memory system
that, given sets of unpredictably moving objects and query points,
continuously maintains the exact monochromatic reverse nearest neighbors
of every query.

Public entry points:

* :class:`~repro.core.monitor.CRNNMonitor` — the incremental monitor
  (variants: Uniform / LU-only / LU+PI);
* :class:`~repro.core.baseline.TPLFURBaseline` — the recompute-everything
  baseline (FUR-tree + TPL);
* :mod:`repro.mobility` — network-based moving object/query workloads;
* :mod:`repro.bench` — the experiment harness reproducing the paper's
  figures;
* :mod:`repro.robustness` — the resilience layer: ingestion guards,
  fault injection, invariant auditing, checkpoint/recovery;
* :mod:`repro.obs` — the observability layer: structured tracing,
  metrics registry with Prometheus/JSON exporters, per-query health
  diagnostics (``monitor.explain(qid)``) and the live console summary.
"""

from repro.core.baseline import TPLFURBaseline
from repro.core.config import LU_ONLY, LU_PI, UNIFORM, MonitorConfig
from repro.core.events import ObjectUpdate, QueryUpdate, ResultChange
from repro.core.monitor import CRNNMonitor
from repro.core.oracle import BruteForceMonitor, brute_force_rnn
from repro.core.stats import StatCounters
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.trace import Trace
from repro.obs import ConsoleSummary, Observability, ObsConfig, ObsHTTPServer
from repro.monitors.rknn_monitor import RknnMonitor
from repro.robustness.audit import AuditPolicy, AuditReport, InvariantAuditor
from repro.robustness.checkpoint import CheckpointError
from repro.robustness.faults import FaultInjector, FaultSpec
from repro.robustness.guard import IngestionError, IngestionGuard

__version__ = "1.0.0"

__all__ = [
    "CRNNMonitor",
    "MonitorConfig",
    "TPLFURBaseline",
    "BruteForceMonitor",
    "brute_force_rnn",
    "RknnMonitor",
    "Trace",
    "ObjectUpdate",
    "QueryUpdate",
    "ResultChange",
    "StatCounters",
    "Point",
    "Rect",
    "UNIFORM",
    "LU_ONLY",
    "LU_PI",
    "AuditPolicy",
    "AuditReport",
    "InvariantAuditor",
    "CheckpointError",
    "FaultInjector",
    "FaultSpec",
    "IngestionError",
    "IngestionGuard",
    "ObsConfig",
    "Observability",
    "ObsHTTPServer",
    "ConsoleSummary",
    "__version__",
]
