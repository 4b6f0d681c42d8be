"""The continuous reverse *k*-NN monitor.

* :class:`RknnMonitor` — continuous reverse *k*-NN monitoring (the
  paper's k-generalisation via the 6k-candidate sector lemma), checked
  against :func:`repro.core.oracle.brute_force_rknn` by ``validate()``.
"""

from repro.monitors.rknn_monitor import RknnMonitor

__all__ = ["RknnMonitor"]
