"""Space-partitioned parallel execution for CRNN monitoring.

The grid is cut into ``K`` column stripes (:class:`StripePlan`); each
stripe's queries run on their own :class:`ShardEngine` over a full grid
replica, driven by one request protocol — in worker processes
(:class:`ProcessExecutor`) or in-process, deterministically
(:class:`SerialExecutor`).  The public entry
point is :class:`ShardedCRNNMonitor`, a drop-in for
:class:`~repro.core.monitor.CRNNMonitor` whose event stream and logical
counters are bit-identical to the single-shard monitor's.

Worker processes are fault-tolerant: :class:`ShardSupervisor` (always
on under the process executor; tuned by a :class:`SupervisionConfig`)
detects crashed, hung, and protocol-violating workers, rebuilds them
bit-identically from exact per-shard checkpoints plus a tick journal,
and — when the respawn budget is exhausted — can degrade the stripe to
in-process execution.
Failures surface as typed :class:`ShardWorkerError`.  The
:mod:`repro.shard.chaos` harness injects deterministic worker faults
for testing.
"""

from repro.shard.chaos import ChaosSpec
from repro.shard.engine import ShardEngine
from repro.shard.executor import (
    ProcessExecutor,
    SerialExecutor,
    ShardWorkerError,
    TickReport,
)
from repro.shard.monitor import ShardedCRNNMonitor
from repro.shard.plan import StripePlan
from repro.shard.supervisor import (
    ShardSupervisor,
    SupervisionConfig,
    SupervisorHooks,
)

__all__ = [
    "ChaosSpec",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardEngine",
    "ShardSupervisor",
    "ShardWorkerError",
    "ShardedCRNNMonitor",
    "StripePlan",
    "SupervisionConfig",
    "SupervisorHooks",
    "TickReport",
]
