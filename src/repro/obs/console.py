"""Live terminal summary for long-running monitors.

A :class:`ConsoleSummary` is ticked once per processed batch and prints
one compact status line at most every ``interval`` seconds — batch
latency percentiles from the registry's histograms, throughput, result
churn, and the biggest operation counters — so an operator can watch a
multi-hour run without drowning in output::

    summary = ConsoleSummary(monitor, interval=5.0)
    for batch in stream:
        monitor.process(batch)
        summary.tick()

Rendering pulls only from the observability registry and the shared
counters, so it works identically against a scraped snapshot.
"""

from __future__ import annotations

import math
import sys
import time
from typing import IO, TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import CRNNMonitor

__all__ = ["ConsoleSummary"]


def _fmt_ms(seconds: Optional[float]) -> str:
    if seconds is None or (isinstance(seconds, float) and math.isnan(seconds)):
        return "-"
    return f"{seconds * 1e3:.1f}ms"


class ConsoleSummary:
    """Rate-limited one-line status reporter for a monitor."""

    def __init__(
        self,
        monitor: "CRNNMonitor",
        interval: float = 5.0,
        stream: Optional[IO[str]] = None,
        clock=time.monotonic,
    ):
        if interval < 0:
            raise ValueError("interval must be >= 0")
        self.monitor = monitor
        self.interval = interval
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._last_emit: Optional[float] = None
        self._last_changes = 0
        self._batches = 0
        self.lines_emitted = 0

    # ------------------------------------------------------------------
    def tick(self) -> Optional[str]:
        """Called after each batch; prints/returns a line when due."""
        self._batches += 1
        now = self._clock()
        if self._last_emit is not None and now - self._last_emit < self.interval:
            return None
        self._last_emit = now
        line = self.render()
        print(line, file=self.stream, flush=True)
        self.lines_emitted += 1
        return line

    def render(self) -> str:
        """The current status line (no rate limiting, no printing)."""
        monitor = self.monitor
        obs = monitor.obs
        stats = monitor.stats
        # Prefer the monitor's own batch clock: render() is also used
        # standalone (without tick()).
        batches = self._batches
        if obs.health is not None:
            batches = max(batches, obs.health.batch)
        parts = [
            f"[crnn] batches={batches}",
            f"objs={monitor.object_count()}",
            f"qrs={monitor.query_count()}",
        ]
        if obs.enabled:
            seconds = obs.registry.get("crnn_batch_seconds")
            updates = obs.registry.get("crnn_batch_updates")
            if seconds is not None and seconds._solo().count:
                h = seconds._solo()
                total_updates = updates._solo().sum if updates is not None else 0.0
                rate = total_updates / h.sum if h.sum > 0 else 0.0
                parts.append(
                    f"p50={_fmt_ms(h.quantile(0.5))}"
                    f" p95={_fmt_ms(h.quantile(0.95))}"
                    f" p99={_fmt_ms(h.quantile(0.99))}"
                )
                parts.append(f"{rate:,.0f} upd/s")
        changes = stats.result_changes
        parts.append(f"Δresults={changes - self._last_changes}")
        self._last_changes = changes
        parts.append(
            f"nn={stats.nn_searches + stats.constrained_nn_searches}"
            f" lazy={stats.circ_lazy_radius_updates}"
        )
        if obs.health is not None:
            parts.append(f"tick={obs.health.batch}")
        return " ".join(parts)
