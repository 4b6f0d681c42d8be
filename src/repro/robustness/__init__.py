"""Resilience layer for long-running CRNN monitoring.

Production monitoring ingests streams real deployments produce —
duplicates, reorders, deletes of unknown ids, NaN coordinates — and must
survive process restarts.  This package hardens
:class:`~repro.core.monitor.CRNNMonitor` end to end:

* :mod:`repro.robustness.guard` — per-update validation at the API
  boundary under ``strict``/``clamp``/``drop`` policies;
* :mod:`repro.robustness.faults` — a deterministic, seedable fault
  injector for update streams (drops, duplicates, reorders, stale
  replays, corrupt coordinates);
* :mod:`repro.robustness.audit` — budgeted sampled oracle cross-checks
  with scoped per-query repair and a full-rebuild escalation path;
* :mod:`repro.robustness.checkpoint` — JSON snapshot/restore with
  post-restore verification.
"""

from repro.robustness.audit import AuditPolicy, AuditReport, InvariantAuditor
from repro.robustness.checkpoint import (
    CheckpointError,
    from_json,
    restore,
    snapshot,
    to_json,
)
from repro.robustness.faults import FaultInjector, FaultLog, FaultSpec, InjectedFault
from repro.robustness.guard import IngestionError, IngestionGuard

__all__ = [
    "AuditPolicy",
    "AuditReport",
    "InvariantAuditor",
    "CheckpointError",
    "snapshot",
    "restore",
    "to_json",
    "from_json",
    "FaultInjector",
    "FaultLog",
    "FaultSpec",
    "InjectedFault",
    "IngestionError",
    "IngestionGuard",
]
