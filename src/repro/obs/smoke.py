"""CI smoke for the observability layer (``make obs-smoke``).

Replays one small seeded stream with observability absent and fully on
(unsampled tracing into the memory ring), and checks the four promises
the layer makes:

1. **Isolation** — the logical counters are byte-identical between the
   two runs: observing the monitor never changes what it computes.
2. **Exposition** — a live :class:`~repro.obs.export.ObsHTTPServer` is
   scraped once over real HTTP; ``/metrics`` must pass the strict
   Prometheus text parser and ``/snapshot.json`` must validate against
   the snapshot schema.
3. **Diagnostics** — ``monitor.explain(qid)`` returns a complete report
   for a live query (every sector populated, health history attached).
4. **Console** — the one-line terminal summary renders.

Exit code 0 on success, 1 on the first failed check.

Usage::

    PYTHONPATH=src python -m repro.obs.smoke          # full checks
    PYTHONPATH=src python -m repro.obs.smoke --quick  # smaller workload
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import urllib.request
from typing import Optional

from repro.core.config import MonitorConfig
from repro.core.events import ObjectUpdate
from repro.core.monitor import CRNNMonitor
from repro.core.stats import logical_subset
from repro.geometry.point import Point
from repro.obs.config import ObsConfig
from repro.obs.console import ConsoleSummary
from repro.obs.export import (
    ObsHTTPServer,
    parse_prometheus_text,
    validate_snapshot,
)


def _fail(msg: str) -> int:
    print(f"[obs-smoke] FAIL: {msg}", file=sys.stderr)
    return 1


def _replay(quick: bool, observability: Optional[ObsConfig]) -> CRNNMonitor:
    """The seeded smoke stream through a fresh monitor, obs on or off."""
    rng = random.Random(7)
    monitor = CRNNMonitor(MonitorConfig(observability=observability))
    n, queries, ticks = (120, 6, 4) if quick else (600, 12, 6)
    for oid in range(n):
        monitor.add_object(oid, Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)))
    for qid in range(queries):
        monitor.add_query(qid, Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)))
    monitor.drain_events()
    for _ in range(ticks):
        batch = [
            ObjectUpdate(rng.randrange(n),
                         Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)))
            for _ in range(max(20, n // 10))
        ]
        monitor.process(batch)
    return monitor


def run(quick: bool = False) -> int:
    """The end-to-end observability smoke checks; returns a process exit code."""
    # --- 1. logical-counter parity: obs absent vs on ---------------------
    want = logical_subset(_replay(quick, None).stats.snapshot())
    monitor = _replay(quick, ObsConfig())
    if logical_subset(monitor.stats.snapshot()) != want:
        return _fail("logical counters differ between obs-on and obs-off runs")
    print("[obs-smoke] counters: obs absent == on", file=sys.stderr)

    # --- 2. scrape the endpoint once over real HTTP ----------------------
    with ObsHTTPServer(monitor) as server:
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        try:
            families = parse_prometheus_text(text)
        except ValueError as exc:
            return _fail(f"/metrics does not parse: {exc}")
        if "crnn_ops_total" not in families or "crnn_batch_seconds" not in families:
            return _fail("expected metric families missing from /metrics")
        with urllib.request.urlopen(f"{server.url}/snapshot.json", timeout=10) as resp:
            snap = json.loads(resp.read().decode("utf-8"))
        try:
            validate_snapshot(snap)
        except ValueError as exc:
            return _fail(f"/snapshot.json fails schema validation: {exc}")
    print(
        f"[obs-smoke] scrape: {len(families)} families parsed, snapshot schema ok",
        file=sys.stderr,
    )

    # --- 3. explain(qid) completeness ------------------------------------
    report = monitor.explain(0)
    if not report.diagnostics_enabled:
        return _fail("explain(0) reports diagnostics disabled")
    if len(report.sectors) != 6:
        return _fail(f"explain(0) returned {len(report.sectors)} sectors, want 6")
    report.to_dict()  # must be JSON-shapeable
    print(
        f"[obs-smoke] explain(0): {len(report.results)} RNNs, "
        f"{report.pie_cells_total} pie cells, "
        f"{report.bounded_sectors}/6 bounded sectors",
        file=sys.stderr,
    )

    # --- 4. console summary renders --------------------------------------
    line = ConsoleSummary(monitor, interval=0.0, stream=io.StringIO()).render()
    if not line.startswith("[crnn]"):
        return _fail(f"console summary malformed: {line!r}")
    print(f"[obs-smoke] console: {line}", file=sys.stderr)

    monitor.obs.close()
    print("[obs-smoke] OK", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.obs.smoke``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (CI-friendly)")
    args = parser.parse_args(argv)
    return run(quick=args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
