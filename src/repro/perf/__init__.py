"""Performance subsystem: vectorized kernels and phase timers.

The scalar algorithms in :mod:`repro.core` and :mod:`repro.grid` are the
reference semantics; everything in this package is an *equivalent* fast
path.  The contract (enforced by differential tests) is bit-identity:
a vectorized kernel must return exactly what its ``_scalar`` twin
returns, including ``(distance, oid)`` tie-breaks.

Modules:

* :mod:`repro.perf.kernels` — NumPy ring-expansion NN kernels over the
  grid's CSR bucketing, the one-gather ``initCRNN`` kernel, vectorized
  sector classification, and the batched circ-region containment
  prefilter.
* :mod:`repro.perf.timers` — lightweight per-phase wall-clock timers
  threaded through :class:`~repro.core.monitor.CRNNMonitor`.
"""

from repro.perf.timers import PhaseTimers

__all__ = ["PhaseTimers"]
